"""End-to-end tests of the command-line interface."""

import hashlib
import json

import pytest

from preflab.cli import main


def write_config(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def gen_config(tmp_path, **data_extra):
    data = {"vocab_size": 12, "n_pairs": 12, "max_len": 10}
    data.update(data_extra)
    return write_config(tmp_path / "gen.json", {"seed": 1, "data": data})


def train_config(tmp_path, out_dir, data_path, **extra):
    doc = {
        "seed": 1,
        "output_dir": str(out_dir),
        "model": {"vocab_size": 12, "context": 4, "embed_dim": 4, "hidden_dim": 8},
        "loss": {"method": "dpo", "beta": 1.0},
        "train": {
            "steps": 12, "batch_size": 4, "eval_every": 4,
            "checkpoint_every": 6, "lr": 0.01,
        },
        "data": {"path": str(data_path), "vocab_size": 12},
    }
    for key, value in extra.items():
        doc[key] = value
    return write_config(tmp_path / "train.json", doc)


def one_error_line(capsys) -> str:
    """The stderr of an invalid-input exit: one `error:` line, no traceback."""
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
    return captured.err


@pytest.fixture
def dataset_path(tmp_path):
    out = tmp_path / "data.jsonl"
    assert main(["gen-data", "--config", gen_config(tmp_path), "--out", str(out)]) == 0
    return out


class TestGenData:
    def test_reproducible_bytes(self, tmp_path):
        cfg = gen_config(tmp_path)
        out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert main(["gen-data", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["gen-data", "--config", cfg, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_manifest_written(self, tmp_path):
        cfg = gen_config(tmp_path)
        out = tmp_path / "a.jsonl"
        main(["gen-data", "--config", cfg, "--out", str(out)])
        manifest = json.loads((tmp_path / "a.manifest.json").read_text())
        assert manifest["n_pairs"] == 12 and manifest["seed"] == 1

    def test_missing_vocab_size_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "bad.json", {"data": {"n_pairs": 4}})
        out = tmp_path / "a.jsonl"
        assert main(["gen-data", "--config", cfg, "--out", str(out)]) == 2
        assert "vocab_size" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_pairs_exits_2_without_output(self, tmp_path):
        cfg = gen_config(tmp_path, n_pairs=0)
        out = tmp_path / "a.jsonl"
        assert main(["gen-data", "--config", cfg, "--out", str(out)]) == 2
        assert not out.exists()

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        out = tmp_path / "a.jsonl"
        argv = ["gen-data", "--config", gen_config(tmp_path), "--set", "seed=-1"]
        assert main([*argv, "--out", str(out)]) == 2
        assert "seed must be >= 0" in one_error_line(capsys)
        assert not out.exists()

    def test_set_override(self, tmp_path):
        cfg = gen_config(tmp_path)
        out = tmp_path / "a.jsonl"
        assert main(
            ["gen-data", "--config", cfg, "--set", "data.n_pairs=3", "--out", str(out)]
        ) == 0
        assert len(out.read_text().strip().split("\n")) == 3


class TestTrain:
    def test_outputs_written(self, tmp_path, dataset_path):
        out_dir = tmp_path / "run"
        cfg = train_config(tmp_path, out_dir, dataset_path)
        assert main(["train", "--config", cfg]) == 0
        assert (out_dir / "trainlog.csv").exists()
        assert (out_dir / "config.resolved.json").exists()
        assert (out_dir / "ref.json").exists()
        assert (out_dir / "final.json").exists()
        assert (out_dir / "checkpoint_000006.json").exists()
        assert (out_dir / "checkpoint_000012.json").exists()

    def test_byte_identical_reruns(self, tmp_path, dataset_path):
        # same config (same output_dir) run twice: every output byte-stable
        out_dir = tmp_path / "run"
        cfg = train_config(tmp_path, out_dir, dataset_path)
        digests = []
        for _ in range(2):
            assert main(["train", "--config", cfg]) == 0
            digests.append(
                {
                    f.name: hashlib.sha256(f.read_bytes()).hexdigest()
                    for f in sorted(out_dir.iterdir())
                }
            )
        assert digests[0] == digests[1]

    def test_output_dir_not_in_semantic_hash(self, tmp_path, dataset_path):
        # runs differing only in output_dir produce identical checkpoints
        digests = []
        for name in ("r1", "r2"):
            out_dir = tmp_path / name
            cfg = train_config(tmp_path, out_dir, dataset_path)
            assert main(["train", "--config", cfg]) == 0
            digests.append(hashlib.sha256((out_dir / "final.json").read_bytes()).hexdigest())
        assert digests[0] == digests[1]

    def test_missing_output_dir_exits_2(self, tmp_path, dataset_path):
        cfg = train_config(tmp_path, tmp_path / "x", dataset_path)
        doc = json.loads(open(cfg).read())
        del doc["output_dir"]
        cfg = write_config(tmp_path / "noout.json", doc)
        assert main(["train", "--config", cfg]) == 2

    @pytest.mark.parametrize("override", ["loss.beta=Infinity", "loss.beta=NaN", "train.lr=NaN"])
    def test_non_finite_override_exits_2(self, tmp_path, dataset_path, capsys, override):
        out_dir = tmp_path / "run"
        cfg = train_config(tmp_path, out_dir, dataset_path)
        assert main(["train", "--config", cfg, "--set", override]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "finite" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "overrides,match",
        [
            (["loss.mask_padding=true"], "unknown config key loss.'mask_padding'"),
            (["model.hidden_dim=0"], "hidden_dim must be >= 1"),
            (["model.embed_dim=0"], "embed_dim must be >= 1"),
            (["model.embed_dim=0", "model.hidden_dim=0"], "embed_dim must be >= 1"),
            (["model.kind=ngram", "model.order=0"], "order must be >= 1"),
            (["model.kind=ngram", "model.order=1000000000000"], "table entries"),
        ],
    )
    def test_bad_model_or_loss_override_exits_2(
        self, tmp_path, dataset_path, capsys, overrides, match
    ):
        out_dir = tmp_path / "run"
        cfg = train_config(tmp_path, out_dir, dataset_path)
        sets = [arg for item in overrides for arg in ("--set", item)]
        assert main(["train", "--config", cfg, *sets]) == 2
        assert match in one_error_line(capsys)
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "line,match",
        [
            ("[1, 2, 3]", "line 1: expected a JSON object, got list"),
            (
                '{"prompt": [3], "chosen": [4], "rejected": [5], "rejected_scores": ["a"]}',
                "line 1: field 'rejected_scores' must be a list of numbers",
            ),
            ('{"prompt": [3], "chosen": [4]}', "line 1: missing required field 'rejected'"),
        ],
    )
    def test_malformed_data_file_exits_2(self, tmp_path, capsys, line, match):
        data = tmp_path / "bad.jsonl"
        data.write_text(line + "\n")
        out_dir = tmp_path / "run"
        cfg = train_config(tmp_path, out_dir, data)
        assert main(["train", "--config", cfg]) == 2
        assert match in one_error_line(capsys)
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "override,match",
        [("data.path={missing}", "cannot read dataset {missing}"), ("seed=-1", "seed must be >= 0")],
        ids=["missing-data", "negative-seed"],
    )
    def test_bad_input_exits_2(self, tmp_path, dataset_path, capsys, override, match):
        missing = str(tmp_path / "missing.jsonl")
        out_dir = tmp_path / "run"
        cfg = train_config(tmp_path, out_dir, dataset_path)
        assert main(["train", "--config", cfg, "--set", override.format(missing=missing)]) == 2
        assert match.format(missing=missing) in one_error_line(capsys)
        assert not out_dir.exists()

    def test_adaptive_one_equals_dpo_loss_column(self, tmp_path, dataset_path):
        losses = {}
        for name, loss in (
            ("dpo", {"method": "dpo", "beta": 1.0}),
            ("adpo1", {"method": "adpo", "family": "adaptive", "m": 1, "beta": 1.0}),
        ):
            out_dir = tmp_path / name
            cfg = train_config(tmp_path, out_dir, dataset_path, loss=loss)
            assert main(["train", "--config", cfg]) == 0
            rows = (out_dir / "trainlog.csv").read_text().strip().split("\n")[1:]
            losses[name] = [float(r.split(",")[1]) for r in rows]
        assert len(losses["dpo"]) == len(losses["adpo1"])
        for a, b in zip(losses["dpo"], losses["adpo1"]):
            assert abs(a - b) <= 1e-12


class TestEvalAnalyze:
    @pytest.fixture
    def run_dir(self, tmp_path, dataset_path):
        out_dir = tmp_path / "run"
        cfg = train_config(tmp_path, out_dir, dataset_path)
        assert main(["train", "--config", cfg]) == 0
        return out_dir

    def test_eval_prints_metrics_and_leaves_files_alone(
        self, run_dir, dataset_path, capsys
    ):
        ckpt = run_dir / "final.json"
        before = hashlib.sha256(ckpt.read_bytes()).hexdigest()
        assert main(["eval", "--checkpoint", str(ckpt), "--data", str(dataset_path)]) == 0
        doc = json.loads(capsys.readouterr().out.strip().split("\n")[-1])
        assert set(doc) == {"loss", "chosen_logp", "rejected_logp", "margin", "accuracy"}
        assert hashlib.sha256(ckpt.read_bytes()).hexdigest() == before

    def test_eval_missing_ref_exits_2(self, tmp_path, dataset_path, run_dir):
        lone = tmp_path / "lone.json"
        lone.write_bytes((run_dir / "final.json").read_bytes())
        assert main(["eval", "--checkpoint", str(lone), "--data", str(dataset_path)]) == 2

    @pytest.mark.parametrize(
        "model", [{"vocab_size": 13}, {"context": 3}], ids=["vocab", "hyper"]
    )
    def test_mismatched_reference_exits_2(
        self, tmp_path, dataset_path, run_dir, capsys, model
    ):
        # a reference of another vocab or shape scores the same tokens under
        # a different model: refuse it instead of printing metrics
        other = tmp_path / "other"
        spec = {"vocab_size": 12, "context": 4, "embed_dim": 4, "hidden_dim": 8, **model}
        cfg = train_config(tmp_path, other, dataset_path, model=spec)
        doc = json.loads(open(cfg).read())
        doc["data"]["vocab_size"] = spec["vocab_size"]
        cfg = write_config(tmp_path / "other.json", doc)
        assert main(["train", "--config", cfg, "--set", "train.steps=1"]) == 0
        capsys.readouterr()
        ckpt, ref = run_dir / "final.json", other / "ref.json"
        base = ["--data", str(dataset_path), "--ref", str(ref)]
        assert main(["eval", "--checkpoint", str(ckpt), *base]) == 2
        err = capsys.readouterr()
        assert err.out == "" and err.err.startswith("error: ") and err.err.count("\n") == 1
        out = tmp_path / "profile.csv"
        assert main(["analyze", "--checkpoints", str(ckpt), *base, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ") and not out.exists()

    @pytest.mark.parametrize(
        "text,match",
        [
            ("not json", "not valid JSON"),
            ('{"kind": "neural"}', "lacks key 'vocab'"),
            ('{"kind": "neural", "vocab": {"size": "12"}, "hyper": {}, "params": {}}', "malformed"),
        ],
    )
    def test_malformed_checkpoint_exits_2(
        self, tmp_path, dataset_path, run_dir, capsys, text, match
    ):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        for ckpt, ref in ((bad, run_dir / "ref.json"), (run_dir / "final.json", bad)):
            data = ["--data", str(dataset_path)]
            assert main(["eval", "--checkpoint", str(ckpt), "--ref", str(ref), *data]) == 2
            err = one_error_line(capsys)
            assert match in err and str(bad) in err

    @pytest.mark.parametrize(
        "command,missing_arg",
        [
            ("eval", "--checkpoint"), ("eval", "--ref"), ("eval", "--data"),
            ("analyze", "--checkpoints"), ("analyze", "--ref"), ("analyze", "--data"),
        ],
    )
    def test_missing_input_file_exits_2(
        self, tmp_path, dataset_path, run_dir, capsys, command, missing_arg
    ):
        out = tmp_path / "profile.csv"
        args = {
            "--checkpoint" if command == "eval" else "--checkpoints": str(run_dir / "final.json"),
            "--ref": str(run_dir / "ref.json"),
            "--data": str(dataset_path),
        }
        args[missing_arg] = str(tmp_path / "missing")
        argv = [command, *(x for item in args.items() for x in item)]
        if command == "analyze":
            argv += ["--out", str(out)]
        capsys.readouterr()
        assert main(argv) == 2
        assert "cannot read " in one_error_line(capsys)
        assert not out.exists()

    def test_analyze_writes_profile(self, tmp_path, run_dir, dataset_path):
        out = tmp_path / "profile.csv"
        code = main(
            [
                "analyze",
                "--checkpoints",
                str(run_dir / "checkpoint_000006.json"),
                str(run_dir / "checkpoint_000012.json"),
                "--ref", str(run_dir / "ref.json"),
                "--data", str(dataset_path),
                "--bins", "20",
                "--out", str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "checkpoint,bin_lo,bin_hi,variance,margin"
        assert 1 <= len(lines) - 1 <= 2 * 20
        steps = {int(line.split(",")[0]) for line in lines[1:]}
        assert steps == {6, 12}


class TestOracleCheckCommand:
    def test_small_space_passes(self, capsys):
        assert main(["oracle-check", "--space", "3,3", "--seed", "0"]) == 0
        certs = json.loads(capsys.readouterr().out)
        assert len(certs) == 5 and all(c["pass"] for c in certs)

    def test_cap_exceeded_exits_2(self):
        assert main(["oracle-check", "--space", "7,5"]) == 2
        assert main(["oracle-check", "--space", "3,9"]) == 2

    def test_bad_space_format_exits_2(self):
        assert main(["oracle-check", "--space", "abc"]) == 2

    def test_negative_seed_exits_2(self, capsys):
        assert main(["oracle-check", "--space", "3,2", "--seed", "-1"]) == 2
        assert "seed must be >= 0" in one_error_line(capsys)

    def test_repeat_identical_bytes(self, capsys):
        assert main(["oracle-check", "--space", "3,2", "--seed", "4"]) == 0
        first = capsys.readouterr().out
        assert main(["oracle-check", "--space", "3,2", "--seed", "4"]) == 0
        assert capsys.readouterr().out == first

    def test_out_file(self, tmp_path, capsys):
        out = tmp_path / "cert.json"
        assert main(
            ["oracle-check", "--space", "3,2", "--check", "reparam", "--out", str(out)]
        ) == 0
        printed = capsys.readouterr().out
        assert out.read_text() == printed
