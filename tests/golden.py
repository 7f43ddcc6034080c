"""Golden digests: the SHA-256 of one canonical set of CLI outputs.

Run as a script in a fresh interpreter, this file imports ``preflab``
before numpy, so the package's BLAS thread rule holds whatever the calling
process inherited. It runs the commands below in a temporary directory,
with relative paths so that ``config.resolved.json`` repeats, and prints
one JSON document: the environment record and every output file's digest.

- ``gen-data``: the training sets and a 1,024-pair set of 4-64 tokens,
  large enough that ``row_logprobs`` scores it on its thread pool;
- ``train``: 300 A7-shaped steps of dpo, adpo static k=1, adpo adaptive
  m=3 and cADPO, each run's whole directory;
- ``eval`` of each run's ``final.json`` on its training set and on the
  1,024-pair set;
- ``analyze`` of each run's checkpoints;
- ``oracle-check --check all`` on the 40 sweep spaces at seeds 0 and 1.

``gen-data``'s manifests are left out of the set.

``tests/test_golden.py`` compares the document with the committed
``GOLDEN.json``. A change that moves bytes on purpose regenerates it:

    PYTHONPATH=src python tests/golden.py --write
"""

import preflab  # first: its import assigns the BLAS thread variables

import contextlib
import hashlib
import io
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from preflab.cli import main
from preflab.oracle import MAX_LEN, MAX_VOCAB, MODES

GOLDEN = Path(__file__).resolve().parents[1] / "GOLDEN.json"
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

MODEL = {"vocab_size": 12, "context": 26, "embed_dim": 8, "hidden_dim": 48}
TRAIN = {"lr": 0.0005, "steps": 300, "batch_size": 32, "eval_every": 50, "checkpoint_every": 100}
DATASETS = {
    "data/train.jsonl": {"vocab_size": 12},
    "data/scored.jsonl": {"vocab_size": 12, "with_scores": True},
    "data/large.jsonl": {"vocab_size": 12, "n_pairs": 1024, "max_len": 64, "with_scores": True},
}
RUNS = {
    "dpo": ({"method": "dpo"}, "data/train.jsonl"),
    "adpo-static-1": ({"method": "adpo", "family": "static", "k": 1}, "data/train.jsonl"),
    "adpo-adaptive-3": ({"method": "adpo", "family": "adaptive", "m": 3}, "data/train.jsonl"),
    "cadpo": ({"method": "adpo", "family": "static", "k": 1, "weighted": True}, "data/scored.jsonl"),
}


def environment() -> dict:
    """What the bytes may depend on besides the code: the interpreter, numpy,
    its BLAS and the BLAS thread variables in force."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "threads": {var: os.environ.get(var) for var in BLAS_THREADS},
    }


def _sets(**sections) -> list[str]:
    return [f"--set={key}={json.dumps(value)}" for key, value in sections.items()]


def _run(*argv: str) -> str:
    """``preflab *argv`` in process; its stdout. A non-zero exit raises."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(list(argv))
    if code != 0:
        raise RuntimeError(f"preflab {' '.join(argv)} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


def write_outputs() -> None:
    """Every command of the set, into the current directory."""
    os.makedirs("data")
    for path, data in DATASETS.items():
        _run("gen-data", *_sets(seed=0, data=data), "--out", path)
    for name, (loss, data) in RUNS.items():
        run = f"runs/{name}"
        _run("train", *_sets(seed=0, output_dir=run, model=MODEL, loss=loss, train=TRAIN,
                             data={"path": data, "vocab_size": 12}))
        for label, path in (("train", data), ("large", "data/large.jsonl")):
            text = _run("eval", "--checkpoint", f"{run}/final.json", "--data", path)
            Path(f"{run}/eval-{label}.json").write_text(text, encoding="utf-8")
        checkpoints = sorted(str(p) for p in Path(run).glob("checkpoint_*.json"))
        _run("analyze", "--checkpoints", *checkpoints, "--ref", f"{run}/ref.json",
             "--data", data, "--out", f"{run}/profile.csv")
    os.makedirs("oracle")
    for mode in MODES:
        for v in range(3, MAX_VOCAB + 1):
            for L in range(1, MAX_LEN + 1):
                for seed in (0, 1):
                    _run("oracle-check", "--space", f"{v},{L}", "--mode", mode,
                         "--seed", str(seed), "--out", f"oracle/{mode}-{v},{L}-{seed}.json")


def digests() -> dict:
    """SHA-256 of every output of ``write_outputs`` but the manifests, by
    relative path."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            write_outputs()
            return {
                path.as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
                for path in sorted(Path(".").rglob("*"))
                if path.is_file() and not path.name.endswith(".manifest.json")
            }
        finally:
            os.chdir(cwd)


def differences(want: dict, got: dict) -> list[str]:
    """One line per environment field and per file whose digest differs
    between two documents, a file on one side only included."""
    lines = [
        f"environment {key}: golden {want['environment'].get(key)!r}, "
        f"here {got['environment'].get(key)!r}"
        for key in sorted(want["environment"].keys() | got["environment"].keys())
        if want["environment"].get(key) != got["environment"].get(key)
    ]
    for path in sorted(want["digests"].keys() | got["digests"].keys()):
        a, b = want["digests"].get(path), got["digests"].get(path)
        if a != b:
            lines.append(f"{path}: golden {a or 'absent'}, here {b or 'absent'}")
    return lines


if __name__ == "__main__":
    doc = {"environment": environment(), "digests": digests()}
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if sys.argv[1:] == ["--write"]:
        GOLDEN.write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
