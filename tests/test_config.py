"""Unit tests for run-config loading, validation, and builders."""

import json
import re

import pytest

from preflab import config as cfgmod
from preflab.errors import ValidationError
from preflab.data import BigramMatchTask
from preflab.lm import KINDS, NeuralPolicy, NGramPolicy, Vocab
from preflab.losses import LossConfig
from preflab.seeds import child_rng
from preflab.trainer import TrainConfig


def minimal_train_config(**extra):
    doc = {
        "seed": 3,
        "output_dir": "out",
        "model": {"vocab_size": 12},
        "loss": {"method": "adpo", "family": "adaptive", "m": 4},
        "train": {"steps": 10, "batch_size": 4},
        "data": {"vocab_size": 12, "n_pairs": 8},
    }
    doc.update(extra)
    return doc


class TestResolve:
    def test_defaults_filled(self):
        resolved = cfgmod.resolve(minimal_train_config())
        assert resolved["model"]["kind"] == "neural"
        assert resolved["model"]["context"] == 8
        assert resolved["loss"]["beta"] == 1.0
        assert resolved["train"]["optimizer"] == "adam"
        assert resolved["data"]["labeling"] == "deterministic"

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_model_section_is_read_off_the_kinds(self, kind):
        doc = minimal_train_config()
        doc["model"]["kind"] = kind
        model = cfgmod.resolve(doc)["model"]
        every_hyper = {n: v for cls in KINDS.values() for n, v in cls.HYPER.items()}
        assert model == {"kind": kind, "vocab_size": 12, **every_hyper}
        # the settable model keys stay those that run directories were written with
        assert set(model) == {"kind", "vocab_size", "context", "embed_dim", "hidden_dim", "order"}
        choices = r"model.kind must be one of \('neural', 'ngram'\)"
        with pytest.raises(ValidationError, match=choices):
            cfgmod.resolve(minimal_train_config(model={"vocab_size": 12, "kind": "rnn"}))

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_other_kinds_hyper_rejected_unless_default(self, kind):
        # every resolved config records every kind's keys at their defaults,
        # so those must re-resolve; any other value would be silently unused
        doc = minimal_train_config()
        doc["model"]["kind"] = kind
        resolved = cfgmod.resolve(doc)
        assert cfgmod.resolve(resolved) == resolved
        for other in KINDS.values():
            if other.kind == kind:
                continue
            for name, default in other.HYPER.items():
                doc["model"][name] = default
                assert cfgmod.resolve(doc) == resolved
                doc["model"][name] = default + 1
                named = rf"^field model.{name} applies to {other.kind} models only, not to model.kind '{kind}'$"
                with pytest.raises(ValidationError, match=named):
                    cfgmod.resolve(doc)
                doc["model"][name] = default

    def test_unknown_top_level_key(self):
        with pytest.raises(ValidationError, match="unknown config key"):
            cfgmod.resolve({"sedd": 0})

    def test_unknown_nested_key(self):
        doc = minimal_train_config()
        doc["loss"]["gamma"] = 2.0
        with pytest.raises(ValidationError, match="loss.*gamma"):
            cfgmod.resolve(doc)

    def test_removed_cache_ref_is_unknown(self):
        doc = minimal_train_config()
        doc["train"] = {"cache_ref": True}
        with pytest.raises(ValidationError, match="train.*cache_ref"):
            cfgmod.resolve(doc)

    def test_removed_mask_padding_is_unknown(self):
        doc = minimal_train_config()
        doc["loss"]["mask_padding"] = True
        with pytest.raises(ValidationError, match="loss.*mask_padding"):
            cfgmod.resolve(doc)

    def test_non_utf8_config_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b'{"seed": "\xff"}')
        with pytest.raises(ValidationError, match="not valid JSON"):
            cfgmod.load_config(path)

    def test_missing_model_vocab_size_named(self):
        doc = minimal_train_config()
        del doc["model"]["vocab_size"]
        with pytest.raises(ValidationError, match="model.vocab_size"):
            cfgmod.resolve(doc)

    def test_missing_data_vocab_size_named(self):
        with pytest.raises(ValidationError, match="data.vocab_size"):
            cfgmod.resolve({"data": {"n_pairs": 4}})

    def test_data_path_lifts_vocab_requirement(self):
        resolved = cfgmod.resolve({"data": {"path": "d.jsonl"}})
        assert resolved["data"]["path"] == "d.jsonl"

    def test_vocab_size_mismatch(self):
        doc = minimal_train_config()
        doc["data"]["vocab_size"] = 8
        with pytest.raises(ValidationError, match="vocab_size"):
            cfgmod.resolve(doc)

    def test_type_errors(self):
        with pytest.raises(ValidationError, match="seed"):
            cfgmod.resolve({"seed": "zero"})
        with pytest.raises(ValidationError, match="loss.beta"):
            cfgmod.resolve({"loss": {"beta": "hot"}})
        with pytest.raises(ValidationError, match="train.steps"):
            cfgmod.resolve({"train": {"steps": True}})

    def test_choice_errors(self):
        with pytest.raises(ValidationError, match="loss.method"):
            cfgmod.resolve({"loss": {"method": "ppo"}})

    @pytest.mark.parametrize(
        "build,message",
        [
            (lambda: LossConfig(method="x"), "loss.method must be dpo or adpo, got 'x'"),
            (lambda: LossConfig(method="adpo", family="x"),
             "loss.family: unknown composition family 'x'"),
            (lambda: TrainConfig(optimizer="sgd"), "train.optimizer must be adam, got 'sgd'"),
        ],
        ids=["method", "family", "optimizer"],
    )
    def test_library_configs_check_their_choices(self, build, message):
        # the choices above stop these values before a library config is built
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            build().validate()

    @pytest.mark.parametrize(
        "values,message",
        [
            ({"steps": 0}, "train.steps must be >= 1, got 0"),
            ({"batch_size": 0}, "train.batch_size must be >= 1, got 0"),
            ({"eval_every": 0}, "train.eval_every must be >= 1, got 0"),
            ({"lr": -1.0}, "train.lr must be finite and >= 0, got -1.0"),
            ({"checkpoint_every": -1}, "train.checkpoint_every must be >= 0, got -1"),
        ],
        ids=["steps", "batch_size", "eval_every", "lr", "checkpoint_every"],
    )
    def test_train_config_names_its_keys(self, values, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            TrainConfig(**values).validate()


class TestOverrides:
    def test_dotted_paths_parse_json(self):
        doc = cfgmod.apply_overrides({}, ["seed=7", "loss.beta=0.5", "loss.method=adpo"])
        assert doc == {"seed": 7, "loss": {"beta": 0.5, "method": "adpo"}}

    def test_non_json_values_stay_strings(self):
        doc = cfgmod.apply_overrides({}, ["data.path=runs/data.jsonl"])
        assert doc["data"]["path"] == "runs/data.jsonl"

    def test_missing_equals_rejected(self):
        with pytest.raises(ValidationError):
            cfgmod.apply_overrides({}, ["seed"])

    def test_original_not_mutated(self):
        base = {"seed": 1}
        cfgmod.apply_overrides(base, ["seed=2"])
        assert base["seed"] == 1


class TestHashAndWrite:
    def test_write_resolved_round_trips(self, tmp_path):
        resolved = cfgmod.resolve(minimal_train_config())
        path = tmp_path / "run.json"
        cfgmod.write_resolved(resolved, path)
        assert json.loads(path.read_text()) == resolved


class TestBuilders:
    def test_build_model_kinds(self):
        neural = cfgmod.build_model(cfgmod.resolve(minimal_train_config()))
        assert isinstance(neural, NeuralPolicy)
        doc = minimal_train_config()
        doc["model"]["kind"] = "ngram"
        assert isinstance(cfgmod.build_model(cfgmod.resolve(doc)), NGramPolicy)

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_build_model_is_the_kinds_init(self, kind):
        import numpy as np

        cls = KINDS[kind]
        hyper = {name: value + 1 for name, value in cls.HYPER.items()}
        doc = minimal_train_config()
        doc["model"].update(kind=kind, **hyper)
        built = cfgmod.build_model(cfgmod.resolve(doc))
        want = cls.init(Vocab(12), child_rng(3, "init"), **hyper)
        assert type(built) is cls and built.hyper == hyper
        for name, value in want.params.items():
            assert np.array_equal(built.params[name], value)

    def test_build_model_seeded(self):
        import numpy as np

        a = cfgmod.build_model(cfgmod.resolve(minimal_train_config()))
        b = cfgmod.build_model(cfgmod.resolve(minimal_train_config()))
        for name in a.params:
            assert np.array_equal(a.params[name], b.params[name])

    def test_build_dataset_generates(self):
        pairs = cfgmod.build_dataset(cfgmod.resolve(minimal_train_config()))
        assert len(pairs) == 8

    def test_build_dataset_with_scores(self):
        doc = minimal_train_config()
        doc["data"]["with_scores"] = True
        pairs = cfgmod.build_dataset(cfgmod.resolve(doc))
        assert all(p.rejected_scores is not None for p in pairs)

    def test_build_train_config(self):
        cfg = cfgmod.build_train_config(cfgmod.resolve(minimal_train_config()))
        assert cfg.steps == 10 and cfg.seed == 3
        assert cfg.loss.method == "adpo" and cfg.loss.m == 4

    def test_config_defaults_are_library_defaults(self):
        resolved = cfgmod.resolve({"loss": {}, "train": {}, "data": {"vocab_size": 12}})
        assert LossConfig(**resolved["loss"]) == LossConfig()
        assert TrainConfig(**resolved["train"]) == TrainConfig()
        assert cfgmod.build_task(resolved) == BigramMatchTask(Vocab(12))

    def test_train_config_without_sections(self):
        assert cfgmod.build_train_config(cfgmod.resolve({})) == TrainConfig()

    def test_missing_section_reported(self):
        with pytest.raises(ValidationError, match="model"):
            cfgmod.build_model(cfgmod.resolve({"seed": 0}))
