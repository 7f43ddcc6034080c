"""Unit tests for run-config loading, validation, and builders."""

import json

import pytest

from preflab import config as cfgmod
from preflab.errors import ValidationError
from preflab.lm import NeuralPolicy, NGramPolicy


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
    def test_hash_stable_and_sensitive(self):
        a = cfgmod.resolve(minimal_train_config())
        b = cfgmod.resolve(minimal_train_config())
        assert cfgmod.config_hash(a) == cfgmod.config_hash(b)
        c = cfgmod.resolve(minimal_train_config(seed=4))
        assert cfgmod.config_hash(a) != cfgmod.config_hash(c)

    def test_write_resolved_round_trips(self, tmp_path):
        resolved = cfgmod.resolve(minimal_train_config())
        path = cfgmod.write_resolved(resolved, tmp_path)
        assert json.loads(open(path).read()) == resolved


class TestBuilders:
    def test_build_model_kinds(self):
        neural = cfgmod.build_model(cfgmod.resolve(minimal_train_config()))
        assert isinstance(neural, NeuralPolicy)
        doc = minimal_train_config()
        doc["model"]["kind"] = "ngram"
        assert isinstance(cfgmod.build_model(cfgmod.resolve(doc)), NGramPolicy)

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

    def test_missing_section_reported(self):
        with pytest.raises(ValidationError, match="model"):
            cfgmod.build_model(cfgmod.resolve({"seed": 0}))
