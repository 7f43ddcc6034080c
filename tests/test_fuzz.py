"""Property tests: malformed input files exit 2 with one `error:` line.

Every generated config, JSONL line and checkpoint document is malformed
by construction. The CLI must refuse each with exit code 2, print a single
`error:` line on stderr and nothing on stdout, and never a traceback.
"""

import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from preflab import config as cfgmod
from preflab import lm
from preflab.cli import main
from preflab.seeds import child_rng

VOCAB = lm.Vocab(12)
VALID_PAIR = {"prompt": [3, 4], "chosen": [5, 6, 7], "rejected": [6, 5]}

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-5, 20),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=4),
)
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
one_line_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters="\r\n"),
    min_size=1,
    max_size=30,
).filter(lambda t: t.strip())


def _int_list(value) -> bool:
    return isinstance(value, list) and all(type(t) is int for t in value)


def _valid_scores(value) -> bool:
    return value is None or (
        isinstance(value, list)
        and len(value) == len(VALID_PAIR["rejected"])
        and all(type(s) in (int, float) and 0 <= s <= 1 for s in value)
    )


def _parses_to_object(text: str) -> bool:
    try:
        return isinstance(json.loads(text), dict)
    except ValueError:
        return False


@st.composite
def malformed_lines(draw) -> str:
    shape = draw(st.sampled_from(["text", "non-object", "missing", "mistyped", "scores"]))
    if shape == "text":
        return draw(one_line_text.filter(lambda t: not _parses_to_object(t)))
    if shape == "non-object":
        return json.dumps(draw(json_values.filter(lambda v: not isinstance(v, dict))))
    doc = dict(VALID_PAIR)
    if shape == "missing":
        del doc[draw(st.sampled_from(sorted(doc)))]
    elif shape == "mistyped":
        name = draw(st.sampled_from(sorted(doc)))
        doc[name] = draw(json_values.filter(lambda v: not _int_list(v)))
    else:
        doc["rejected_scores"] = draw(json_values.filter(lambda v: not _valid_scores(v)))
    return json.dumps(doc)


def run_cli(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_refused(argv) -> str:
    code, out, err = run_cli(argv)
    assert code == 2, err
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    return err


def _train_doc(root) -> dict:
    return {
        "output_dir": str(root / "run"),
        "model": {"vocab_size": VOCAB.size, "context": 2, "embed_dim": 2, "hidden_dim": 3},
        "train": {"steps": 1},
        "data": {"path": str(root / "bad.jsonl")},
    }


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    data = root / "data.jsonl"
    data.write_text(json.dumps(VALID_PAIR) + "\n")
    config = root / "train.json"
    config.write_text(json.dumps(_train_doc(root)))
    docs = {}
    for policy in (
        lm.NGramPolicy.random(VOCAB, 2, np.random.default_rng(0)),
        lm.NeuralPolicy.init(VOCAB, child_rng(0, "init"), context=2, embed_dim=2, hidden_dim=3),
    ):
        path = root / f"{policy.kind}.json"
        lm.save_checkpoint(policy, path)
        docs[policy.kind] = (path, json.loads(path.read_text()))
    return {"root": root, "data": data, "config": config, "docs": docs}


@given(line=malformed_lines())
@settings(max_examples=150, deadline=None)
def test_malformed_jsonl_line_exits_2(files, line):
    bad = files["root"] / "bad.jsonl"
    bad.write_text(json.dumps(VALID_PAIR) + "\n" + line + "\n")
    err = assert_refused(["train", "--config", str(files["config"])])
    assert "line 2" in err
    assert not (files["root"] / "run").exists()


def _wrong_type(field) -> st.SearchStrategy:
    """JSON values the config schema rejects for ``field``."""

    def accepted(v) -> bool:
        if v is None:
            return True  # nullable or defaulted fields may take null
        if isinstance(v, bool) != (bool in field.types):
            return False
        return isinstance(v, field.types) and (field.choices is None or v in field.choices)

    return json_values.filter(lambda v: not accepted(v))


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_malformed_config_exits_2(files, data):
    doc = _train_doc(files["root"])
    bad = files["root"] / "bad_config.json"
    how = data.draw(st.sampled_from(["text", "unknown", "section", "field", "seed"]))
    sections = sorted(cfgmod._SCHEMA)
    if how == "seed":
        # well-typed but negative: refused before any stream is drawn
        doc["seed"] = data.draw(st.integers(max_value=-1))
        doc["data"]["path"] = str(files["data"])
        text = json.dumps(doc)
    elif how == "text":
        text = data.draw(one_line_text.filter(lambda t: not _parses_to_object(t)))
    else:
        section = data.draw(st.sampled_from(sections))
        body = doc.setdefault(section, {})
        if how == "unknown":
            node = data.draw(st.sampled_from([doc, body]))
            known = set(cfgmod._SCHEMA[section]) | set(cfgmod._SCHEMA) | set(cfgmod._TOP_FIELDS)
            node[data.draw(st.text(max_size=6).filter(lambda k: k not in known))] = 1
        elif how == "section":
            doc[section] = data.draw(json_values.filter(lambda v: not isinstance(v, dict)))
        else:
            name = data.draw(st.sampled_from(sorted(cfgmod._SCHEMA[section])))
            body[name] = data.draw(_wrong_type(cfgmod._SCHEMA[section][name]))
        text = json.dumps(doc)
    bad.write_text(text)
    err = assert_refused(["train", "--config", str(bad)])
    assert how != "seed" or "seed must be >= 0" in err
    assert not (files["root"] / "run").exists()


def _checkpoint_paths(doc) -> list[tuple[tuple, str]]:
    """(path, how) of every mutation that leaves the document malformed."""
    paths = [((key,), "delete") for key in ("kind", "vocab", "hyper", "params")]
    paths += [(("kind",), "replace"), (("vocab", "size"), "delete")]
    paths += [(("vocab", key), "non-int") for key in doc["vocab"]]
    for key in doc["hyper"]:
        paths += [(("hyper", key), "delete"), (("hyper", key), "non-int")]
    for name in doc["params"]:
        paths += [(("params", name), "delete")]
        for field in ("shape", "data"):
            paths += [(("params", name, field), "delete"), (("params", name, field), field)]
    return paths


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_malformed_checkpoint_exits_2(files, data):
    kind = data.draw(st.sampled_from(sorted(files["docs"])))
    good, doc = files["docs"][kind]
    doc = json.loads(json.dumps(doc))
    if data.draw(st.booleans()):
        text = data.draw(one_line_text)
    else:
        path, how = data.draw(st.sampled_from(_checkpoint_paths(doc)))
        node = doc
        for key in path[:-1]:
            node = node[key]
        old = node[path[-1]]
        if how == "delete":
            del node[path[-1]]
        elif how == "replace":
            node[path[-1]] = data.draw(json_values.filter(lambda v: v != old))
        elif how == "non-int":
            node[path[-1]] = data.draw(json_values.filter(lambda v: type(v) is not int))
        elif how == "shape":
            node[path[-1]] = data.draw(json_values.filter(lambda v: not isinstance(v, (list, int))))
        else:
            node[path[-1]] = data.draw(
                json_values.filter(lambda v: not (isinstance(v, list) and len(v) == len(old)))
            )
        text = json.dumps(doc)
    bad = files["root"] / "bad.json"
    bad.write_text(text)
    ckpt, ref = (bad, good) if data.draw(st.booleans()) else (good, bad)
    err = assert_refused(
        ["eval", "--checkpoint", str(ckpt), "--ref", str(ref), "--data", str(files["data"])]
    )
    assert str(bad) in err
