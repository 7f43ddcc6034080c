"""End-to-end tests of the command-line interface."""

import hashlib
import json
import os
import re
import resource
import subprocess
import sys

import pytest

import preflab
from preflab import cli
from preflab import config as cfgmod
from preflab.cli import main
from preflab.lm import load_checkpoint, save_checkpoint


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


class TestArguments:
    @pytest.mark.parametrize(
        "argv,match",
        [
            (["oracle-check", "--space", "3,3", "--check", "nope"],
             "preflab oracle-check: argument --check: invalid choice: 'nope'"),
            (["analyze", "--checkpoints", "c.json", "--ref", "r.json", "--data", "d.jsonl",
              "--out", "p.csv", "--bins", "x"],
             "preflab analyze: argument --bins: invalid int value: 'x'"),
            (["eval", "--data", "x"],
             "preflab eval: the following arguments are required: --checkpoint"),
            (["train", "--bogus"], "preflab: unrecognized arguments: --bogus"),
            (["nope"], "preflab: argument command: invalid choice: 'nope'"),
            ([], "preflab: the following arguments are required: command"),
        ],
        ids=["choice", "type", "required", "unrecognized", "command", "no-command"],
    )
    def test_bad_arguments_exit_2_with_one_error_line(self, capsys, argv, match):
        assert main(argv) == 2
        assert match in one_error_line(capsys)

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: preflab train")


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
        manifest = json.loads((tmp_path / "a.jsonl.manifest.json").read_text())
        assert manifest["data"]["n_pairs"] == 12 and manifest["seed"] == 1

    # every task parameter off its default; temperature given as an int
    OFF_DEFAULT = dict(
        vocab_size=9, n_pairs=5, prompt_len=3, min_len=2, max_len=7,
        length_penalty=0.125, bigram_rate=0.25, temperature=2, labeling="bt",
    )

    def test_manifest_bytes(self, tmp_path):
        # the resolved seed and data section, and nothing else
        cfg = gen_config(tmp_path, **self.OFF_DEFAULT)
        out = tmp_path / "a.jsonl"
        assert main(["gen-data", "--config", cfg, "--set", "seed=7", "--out", str(out)]) == 0
        assert (tmp_path / "a.jsonl.manifest.json").read_bytes() == (
            b'{\n  "data": {\n    "bigram_rate": 0.25,\n    "labeling": "bt",\n'
            b'    "length_penalty": 0.125,\n    "max_len": 7,\n    "min_len": 2,\n'
            b'    "n_pairs": 5,\n    "path": null,\n    "prompt_len": 3,\n'
            b'    "temperature": 2.0,\n    "vocab_size": 9,\n    "with_scores": false\n'
            b'  },\n  "seed": 7\n}\n'
        )

    @pytest.mark.parametrize(
        "data", [{}, {"with_scores": True}, OFF_DEFAULT], ids=["plain", "scores", "bt"]
    )
    def test_manifest_regenerates_its_file(self, tmp_path, data):
        first, again = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        cfg = gen_config(tmp_path, **data)
        assert main(["gen-data", "--config", cfg, "--set", "seed=7", "--out", str(first)]) == 0
        manifest = str(tmp_path / "a.jsonl.manifest.json")
        assert main(["gen-data", "--config", manifest, "--out", str(again)]) == 0
        assert again.read_bytes() == first.read_bytes()
        assert (tmp_path / "b.jsonl.manifest.json").read_bytes() == (
            tmp_path / "a.jsonl.manifest.json"
        ).read_bytes()

    def test_outputs_that_share_a_stem_keep_their_own_manifests(self, tmp_path):
        # s.jsonl and s.json, one after the other in one directory
        cfg = gen_config(tmp_path)
        outs = {"s.jsonl": 12, "s.json": 8}
        for name, n in outs.items():
            argv = ["gen-data", "--config", cfg, "--set", f"data.n_pairs={n}"]
            assert main([*argv, "--out", str(tmp_path / name)]) == 0
        for name, n in outs.items():
            manifest = tmp_path / f"{name}.manifest.json"
            assert json.loads(manifest.read_text())["data"]["n_pairs"] == n
            again = tmp_path / f"again-{name}"
            assert main(["gen-data", "--config", str(manifest), "--out", str(again)]) == 0
            assert again.read_bytes() == (tmp_path / name).read_bytes()

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

    @pytest.mark.parametrize("temperature", ["NaN", "1e-320"])
    def test_unusable_temperature_exits_2(self, tmp_path, capsys, temperature):
        # NaN passes a `<= 0` check; 1e-320 overflows the background logits
        out = tmp_path / "a.jsonl"
        override = f'data={{"vocab_size":6,"temperature":{temperature}}}'
        assert main(["gen-data", "--set", override, "--out", str(out)]) == 2
        assert "temperature" in one_error_line(capsys)
        assert not out.exists()

    @pytest.mark.parametrize(
        "field,value,match",
        [
            ("length_penalty", float("nan"), "length_penalty must be finite"),
            ("length_penalty", float("inf"), "length_penalty must be finite"),
            ("vocab_size", 10**12, "vocab size must be <="),
        ],
    )
    def test_unusable_task_number_exits_2(self, tmp_path, capsys, field, value, match):
        # NaN rewards always pick the second response, infinite ones make every
        # label a coin flip, and a huge vocab used to hang before any output
        out = tmp_path / "a.jsonl"
        override = "data=" + json.dumps({"vocab_size": 6, "n_pairs": 4, field: value})
        assert main(["gen-data", "--set", override, "--out", str(out)]) == 2
        assert match in one_error_line(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("command", ["gen-data", "train"])
    def test_max_len_beyond_int64_exits_2(self, tmp_path, capsys, command):
        # the generator draws each response length as an int64
        out = tmp_path / "out"
        argv = [command, "--set", "data.vocab_size=8", "--set", "data.max_len=" + "9" * 20]
        if command == "gen-data":
            argv += ["--out", str(out)]
        else:
            doc = {"output_dir": str(out), "model": {"vocab_size": 8}}
            argv += ["--config", write_config(tmp_path / "train.json", doc)]
        assert main(argv) == 2
        assert "max_len 99999999999999999999 does not fit in int64" in one_error_line(capsys)
        assert not out.exists()

    def test_huge_max_len_exits_2_before_generating(self, tmp_path, capsys):
        # two pairs of responses up to 2**63 - 1 tokens used to generate for minutes
        out = tmp_path / "a.jsonl"
        argv = ["gen-data", "--set", "data.vocab_size=8", "--set",
                "data.max_len=9223372036854775807", "--set", "data.n_pairs=2"]
        assert main([*argv, "--out", str(out)]) == 2
        assert f"more than {preflab.data.MAX_TOKENS}" in one_error_line(capsys)
        assert not out.exists()

    def test_huge_prompt_len_exits_2_before_generating(self, tmp_path):
        # one pair with a 10**9-token prompt used to generate until killed.
        # A fresh interpreter under a time and address-space limit turns such
        # a regression into a failure instead of a hung, swelling suite.
        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

        out = tmp_path / "a.jsonl"
        src = os.path.dirname(os.path.dirname(preflab.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from preflab.cli import main; "
             "sys.exit(main(sys.argv[1:]))", "gen-data", "--set", "data.vocab_size=8",
             "--set", "data.n_pairs=1", "--set", "data.prompt_len=1000000000",
             "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=30, preexec_fn=limit_memory,
        )
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert f"1000000048 tokens, more than {preflab.data.MAX_TOKENS}" in proc.stderr
        assert not out.exists()

    def test_set_override(self, tmp_path):
        cfg = gen_config(tmp_path)
        out = tmp_path / "a.jsonl"
        assert main(
            ["gen-data", "--config", cfg, "--set", "data.n_pairs=3", "--out", str(out)]
        ) == 0
        assert len(out.read_text().strip().split("\n")) == 3


class TestTrain:
    @pytest.mark.parametrize("below", [(), ("run",)])
    def test_output_dir_on_a_file_exits_2_before_training(
        self, tmp_path, dataset_path, capsys, monkeypatch, below
    ):
        # the file itself, or a directory under it: both used to fail with
        # exit 1 only after every training step
        taken = tmp_path / "taken"
        taken.write_text("keep\n")
        cfg = train_config(tmp_path, taken.joinpath(*below), dataset_path)

        def must_not_train(*args):
            raise AssertionError("train ran")

        monkeypatch.setattr(cli, "train", must_not_train)
        capsys.readouterr()
        assert main(["train", "--config", cfg]) == 2
        assert f"{taken} is not a directory" in one_error_line(capsys)
        assert taken.read_text() == "keep\n"

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

    def test_ref_is_the_initial_model_of_the_resolved_config(self, tmp_path, dataset_path):
        # ref.json is the trainer's frozen copy, the model before any step
        out_dir = tmp_path / "run"
        cfg = train_config(tmp_path, out_dir, dataset_path)
        assert main(["train", "--config", cfg]) == 0
        initial = tmp_path / "initial.json"
        save_checkpoint(cfgmod.build_model(cfgmod.resolve(cfgmod.load_config(cfg))), initial)
        assert (out_dir / "ref.json").read_bytes() == initial.read_bytes()

    @pytest.mark.parametrize("steps,every", [(12, 6), (10, 4), (10, 0)])
    def test_final_is_the_last_checkpoints_bytes(self, tmp_path, dataset_path, steps, every):
        # train snapshots the final step whatever the interval, so final.json
        # is that checkpoint's file, and it loads as the trained policy
        out_dir = tmp_path / "run"
        train = {"steps": steps, "batch_size": 4, "eval_every": 4,
                 "checkpoint_every": every, "lr": 0.01}
        cfg = train_config(tmp_path, out_dir, dataset_path, train=train)
        assert main(["train", "--config", cfg]) == 0
        final = (out_dir / "final.json").read_bytes()
        assert final == (out_dir / f"checkpoint_{steps:06d}.json").read_bytes()
        policy = load_checkpoint(str(out_dir / "final.json"))
        resaved = tmp_path / "resaved.json"
        save_checkpoint(policy, str(resaved))
        assert resaved.read_bytes() == final

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

    def test_blas_thread_variables_do_not_change_outputs(self, tmp_path):
        # an A7-shaped run, cut to 100 steps, in fresh interpreters: one with
        # the BLAS thread variables unset, one with them set to 1, and one
        # inheriting 2, which preflab's import overrides
        data_path = tmp_path / "data.jsonl"
        gen = write_config(tmp_path / "gen.json", {"seed": 0, "data": {"vocab_size": 12}})
        assert main(["gen-data", "--config", gen, "--out", str(data_path)]) == 0
        model = {"vocab_size": 12, "context": 26, "embed_dim": 8, "hidden_dim": 48}
        train = {"optimizer": "adam", "lr": 5e-4, "steps": 100, "batch_size": 32,
                 "eval_every": 50, "checkpoint_every": 0}
        cfg = train_config(tmp_path, tmp_path / "run", data_path, seed=0, model=model,
                           train=train, loss={"method": "adpo", "family": "static", "k": 1})
        blas = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        src = os.path.dirname(os.path.dirname(preflab.__file__))
        outputs = []
        for threads in (None, "1", "2"):
            env = {k: v for k, v in os.environ.items() if k not in blas}
            env.update({var: threads for var in blas if threads})
            env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
            out_dir = tmp_path / f"run_{threads}"
            proc = subprocess.run(
                [sys.executable, "-c", "import sys; from preflab.cli import main; "
                 "sys.exit(main(sys.argv[1:]))", "train", "--config", cfg,
                 "--set", f"output_dir={out_dir}"],
                env=env, capture_output=True, text=True, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append([(out_dir / f).read_bytes() for f in ("trainlog.csv", "final.json")])
        assert outputs[0] == outputs[1] == outputs[2]

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
            (['model={"kind": "ngram", "vocab_size": 12, "order": 0}'], "order must be >= 1"),
            (['model={"kind": "ngram", "vocab_size": 12, "order": 1000000000000}'],
             "table entries"),
            (["model.context=1000000000000"], "parameters, more than"),
            (["model.embed_dim=1000000000000"], "parameters, more than"),
            (["model.hidden_dim=1000000000000"], "parameters, more than"),
            (["model.order=5"], "model.order applies to ngram models only"),
            (['model={"kind": "ngram", "vocab_size": 12, "hidden_dim": 4}'],
             "model.hidden_dim applies to neural models only"),
            # Adam is the one optimizer
            (["train.optimizer=sgd"], "train.optimizer must be one of ('adam',), got 'sgd'"),
            (["loss.method=adpo", "loss.family=static"],
             "loss.k: static window size must be >= 1, got None"),
            (["loss.method=adpo", "loss.family=adaptive", "loss.m=0"],
             "loss.m: adaptive segment count must be >= 1, got 0"),
            (["train.checkpoint_every=-1"], "checkpoint_every must be >= 0, got -1"),
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
        "override,message",
        [
            ("train.steps=0", "train.steps must be >= 1, got 0"),
            ("train.batch_size=0", "train.batch_size must be >= 1, got 0"),
            ("train.eval_every=0", "train.eval_every must be >= 1, got 0"),
            ("train.lr=-1", "train.lr must be finite and >= 0, got -1.0"),
            ("train.checkpoint_every=-1", "train.checkpoint_every must be >= 0, got -1"),
        ],
        ids=["steps", "batch_size", "eval_every", "lr", "checkpoint_every"],
    )
    def test_bad_train_value_names_its_key(
        self, tmp_path, dataset_path, capsys, override, message
    ):
        # train.<key>, as the loss section's messages name loss.<key>
        out_dir = tmp_path / "run"
        cfg = train_config(tmp_path, out_dir, dataset_path)
        assert main(["train", "--config", cfg, "--set", override]) == 2
        assert one_error_line(capsys) == f"error: {message}\n"
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

    @pytest.mark.parametrize(
        "override,match",
        [
            ('loss={"method": "adpo", "family": "static", "k": 1, "weighted": true}',
             "weighted loss requires rejected scores"),
            ("data.path={empty}", "dataset is empty"),
        ],
        ids=["weighted-without-scores", "empty-data"],
    )
    def test_plan_error_leaves_no_run_directory(
        self, tmp_path, dataset_path, capsys, override, match
    ):
        # the dataset plan finds these only once training starts
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        out_dir = tmp_path / "run"
        cfg = train_config(tmp_path, out_dir, dataset_path)
        override = override.replace("{empty}", str(empty))
        assert main(["train", "--config", cfg, "--set", override]) == 2
        assert match in one_error_line(capsys)
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
        assert set(doc) == {
            "loss", "chosen_logp", "rejected_logp", "margin", "accuracy",
            "mu_chosen", "mu_rejected", "mu_prime",
        }
        assert hashlib.sha256(ckpt.read_bytes()).hexdigest() == before

    @pytest.mark.parametrize(
        "loss,mu_prime",
        [
            ({"method": "dpo"}, 1.0),
            # the longer side of each pair: 3, 4, 2, 1
            ({"method": "adpo", "family": "static", "k": 1}, 10 / 4),
            # kept of the 3 near-equal segments: (2, 3) all 3; (4, 1) all 3
            # on the longer side; (2, 2) parts (0, 1, 1) on both, 2; (1, 1) 1
            ({"method": "adpo", "family": "adaptive", "m": 3}, 9 / 4),
        ],
        ids=["dpo", "static1", "adaptive3"],
    )
    def test_eval_reports_token_and_feedback_lengths(
        self, tmp_path, run_dir, capsys, loss, mu_prime
    ):
        sides = [((3, 4), (5, 6, 7)), ((3, 4, 5, 6), (7,)), ((8, 9), (9, 8)), ((10,), (11,))]
        data = tmp_path / "hand.jsonl"
        data.write_text("".join(
            json.dumps({"prompt": [3, 4], "chosen": list(w), "rejected": list(l)}) + "\n"
            for w, l in sides
        ))
        cfg = write_config(tmp_path / "loss.json", {"seed": 0, "loss": {**loss, "beta": 1.0}})
        ckpt = str(run_dir / "final.json")
        assert main(["eval", "--checkpoint", ckpt, "--data", str(data), "--config", cfg]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc["mu_chosen"], doc["mu_rejected"]) == (9 / 4, 7 / 4)
        assert doc["mu_prime"] == mu_prime

    @pytest.mark.parametrize("config", ["sibling", "none"])
    def test_eval_set_beta_zero_exits_2(self, tmp_path, dataset_path, run_dir, capsys, config):
        # --set applies over the sibling config.resolved.json, or over nothing
        ckpt = run_dir / "final.json"
        if config == "none":
            ckpt = tmp_path / "lone.json"
            ckpt.write_bytes((run_dir / "final.json").read_bytes())
        argv = ["eval", "--checkpoint", str(ckpt), "--ref", str(run_dir / "ref.json"),
                "--data", str(dataset_path)]
        assert main(argv) == 0
        capsys.readouterr()
        assert main([*argv, "--set", "loss.beta=0"]) == 2
        assert "loss.beta must be finite and positive" in one_error_line(capsys)

    def test_eval_set_loss_moves_feedback_length(self, run_dir, dataset_path, capsys):
        argv = ["eval", "--checkpoint", str(run_dir / "final.json"), "--data", str(dataset_path)]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["mu_prime"] == 1.0
        token_level = ["--set", "loss.method=adpo", "--set", "loss.family=static",
                       "--set", "loss.k=1"]
        assert main([*argv, *token_level]) == 0
        assert json.loads(capsys.readouterr().out)["mu_prime"] > 1.0

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
            (
                '{"kind": "neural", "vocab": {"size": 12, "bos": 3, "eos": 1, "pad": 2}, '
                '"hyper": {}, "params": {}}',
                "the reserved ids are fixed",
            ),
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

    def test_overflowing_checkpoint_exits_1_without_output(
        self, tmp_path, run_dir, dataset_path, capsys
    ):
        # one w2 entry at 1e308 overflows the scores: eval printed an
        # infinite loss and analyze wrote inf variances; both refuse instead
        policy = load_checkpoint(run_dir / "final.json")
        policy.params["w2"][0, 0] = 1e308
        ckpt = tmp_path / "checkpoint_000012.json"
        save_checkpoint(policy, ckpt)
        base = ["--ref", str(run_dir / "ref.json"), "--data", str(dataset_path)]
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(ckpt), *base]) == 1
        err = one_error_line(capsys)
        assert err.startswith(f"error: checkpoint {ckpt}: ") and "not a finite number" in err
        out = tmp_path / "profile.csv"
        assert main(["analyze", "--checkpoints", str(ckpt), *base, "--out", str(out)]) == 1
        err = one_error_line(capsys)
        assert err.startswith(f"error: checkpoint {ckpt}, bin ") and "not a finite number" in err
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


    def test_analyze_labels_a_checkpoint_by_the_last_digits_of_its_name(
        self, tmp_path, run_dir, dataset_path
    ):
        # "v2_checkpoint_000006" is step 6, not 2
        ckpt = tmp_path / "v2_checkpoint_000006.json"
        ckpt.write_bytes((run_dir / "checkpoint_000006.json").read_bytes())
        out = tmp_path / "profile.csv"
        argv = ["analyze", "--checkpoints", str(ckpt), "--ref", str(run_dir / "ref.json"),
                "--data", str(dataset_path), "--out", str(out)]
        assert main(argv) == 0
        lines = out.read_text().strip().split("\n")[1:]
        assert lines and {int(line.split(",")[0]) for line in lines} == {6}

    def test_analyze_bins_beyond_int64_exit_2(self, tmp_path, run_dir, dataset_path, capsys):
        out = tmp_path / "profile.csv"
        for bins in (2**62, 10**30):
            argv = ["analyze", "--checkpoints", str(run_dir / "final.json"),
                    "--ref", str(run_dir / "ref.json"), "--data", str(dataset_path),
                    "--bins", str(bins), "--out", str(out)]
            capsys.readouterr()
            assert main(argv) == 2
            assert "overflows int64" in one_error_line(capsys)
            assert not out.exists()

    def test_analyze_beta_scales_every_reward(self, tmp_path, run_dir, dataset_path, capsys):
        # scaling by 2 is exact in float64: twice each margin, four times
        # each variance
        out = tmp_path / "profile.csv"

        def analyze(beta):
            argv = ["analyze", "--checkpoints", str(run_dir / "final.json"),
                    "--ref", str(run_dir / "ref.json"), "--data", str(dataset_path),
                    "--beta", beta, "--out", str(out)]
            return main(argv)

        profiles = {}
        for beta in ("1", "2"):
            assert analyze(beta) == 0
            lines = out.read_text().strip().split("\n")
            profiles[beta] = [[float(x) for x in line.split(",")] for line in lines[1:]]
            out.unlink()
        assert profiles["1"] and len(profiles["1"]) == len(profiles["2"])
        for (step, lo, hi, variance, margin), row in zip(profiles["1"], profiles["2"]):
            assert row == [step, lo, hi, 4 * variance, 2 * margin]
        for beta in ("0", "nan", "inf"):
            capsys.readouterr()
            assert analyze(beta) == 2
            assert "beta must be finite and positive" in one_error_line(capsys)
            assert not out.exists()


class TestOutputPath:
    """A file output whose directory is missing or is not a directory, or
    which is a directory itself, exits 2 with one error line before any
    work (it used to exit 1 after all of it), and writes nothing."""

    COMMANDS = {
        "gen-data": lambda tmp: ["gen-data", "--config", gen_config(tmp)],
        "analyze": lambda tmp: [
            "analyze", "--checkpoints", str(tmp / "checkpoint_000001.json"),
            "--ref", str(tmp / "ref.json"), "--data", str(tmp / "data.jsonl"),
        ],
        "oracle-check": lambda tmp: ["oracle-check", "--space", "3,2"],
    }

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("case", ["missing", "file", "directory"])
    def test_unwritable_out_exits_2_before_any_work(
        self, tmp_path, capsys, monkeypatch, command, case
    ):
        def must_not_run(*args, **kwargs):
            raise AssertionError("work started")

        monkeypatch.setattr(cli.cfgmod, "build_task", must_not_run)
        monkeypatch.setattr(cli, "load_checkpoint", must_not_run)
        monkeypatch.setattr(cli.oracle.EnumSpace, "build", must_not_run)
        argv = self.COMMANDS[command](tmp_path)
        taken = tmp_path / "taken"
        taken.write_text("keep\n")
        out, expected = {
            "missing": (tmp_path / "absent" / "out", f"{tmp_path / 'absent'} does not exist"),
            "file": (taken / "out", f"{taken} is not a directory"),
            "directory": (tmp_path, f"--out {tmp_path} is a directory"),
        }[case]
        before = sorted(tmp_path.rglob("*"))
        capsys.readouterr()
        assert main([*argv, "--out", str(out)]) == 2
        assert expected in one_error_line(capsys)
        assert sorted(tmp_path.rglob("*")) == before and taken.read_text() == "keep\n"

    def test_manifest_directory_exits_2_before_any_work(self, tmp_path, capsys, monkeypatch):
        # a dataset is never written without its manifest
        def must_not_run(*args, **kwargs):
            raise AssertionError("work started")

        monkeypatch.setattr(cli.cfgmod, "build_task", must_not_run)
        cfg = gen_config(tmp_path)
        manifest = tmp_path / "m.jsonl.manifest.json"
        manifest.mkdir()
        before = sorted(tmp_path.rglob("*"))
        assert main(["gen-data", "--config", cfg, "--out", str(tmp_path / "m.jsonl")]) == 2
        assert f"manifest {manifest} is a directory" in one_error_line(capsys)
        assert sorted(tmp_path.rglob("*")) == before


class TestOracleCheckCommand:
    def test_small_space_passes(self, capsys):
        assert main(["oracle-check", "--space", "3,3", "--seed", "0"]) == 0
        certs = json.loads(capsys.readouterr().out)
        assert len(certs) == 5 and all(c["pass"] for c in certs)

    def test_choices_are_the_oracles(self, capsys):
        from preflab import oracle
        from preflab.cli import build_parser

        parser = build_parser()
        base = ["oracle-check", "--space", "3,2"]
        for check in ["all", *oracle.CHECKS]:
            assert parser.parse_args([*base, "--check", check]).check == check
        for mode in oracle.MODES:
            assert parser.parse_args([*base, "--mode", mode]).mode == mode
        for flag in ("--check", "--mode"):
            assert main([*base, flag, "banana"]) == 2
            assert "invalid choice: 'banana'" in one_error_line(capsys)

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

    def test_time_per_check_goes_to_stderr(self, capsys):
        from preflab import oracle

        outs = []
        for check in ("all", "all", "reparam"):
            assert main(["oracle-check", "--space", "3,2", "--seed", "4", "--check", check]) == 0
            captured = capsys.readouterr()
            # the space's build time first, then one line per check
            build, *lines = captured.err.splitlines()
            assert re.fullmatch(r"# build \d+\.\d\d ms", build)
            assert [line.split()[1] for line in lines] == oracle.check_names(check)
            assert all(re.fullmatch(r"# [a-z0-9]+ \d+\.\d ms", line) for line in lines)
            outs.append(captured.out)
        # wall time never enters a certificate
        assert outs[0] == outs[1]

    def test_out_file(self, tmp_path, capsys):
        out = tmp_path / "cert.json"
        assert main(
            ["oracle-check", "--space", "3,2", "--check", "reparam", "--out", str(out)]
        ) == 0
        printed = capsys.readouterr().out
        assert out.read_text() == printed
