"""Run configuration: one JSON document drives every command.

Unknown keys are rejected outright, defaults are filled at resolve time,
and every run writes its fully-resolved config next to its outputs, so a
run directory is a complete reproducibility manifest. All randomness
flows from the single top-level seed through named child streams.
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
from dataclasses import dataclass

from .data import BigramMatchTask, attach_scores, generate_dataset, load_jsonl
from .errors import ValidationError
from .lm import NeuralPolicy, NGramPolicy, Vocab
from .losses import LossConfig
from .seeds import child_rng
from .trainer import TrainConfig


@dataclass(frozen=True)
class _Field:
    default: object = None
    required: bool = False
    types: tuple = ()
    choices: tuple | None = None
    nullable: bool = False


_SCHEMA: dict[str, dict[str, _Field]] = {
    "model": {
        "kind": _Field(default="neural", types=(str,), choices=("neural", "ngram")),
        "vocab_size": _Field(required=True, types=(int,)),
        "context": _Field(default=8, types=(int,)),
        "embed_dim": _Field(default=8, types=(int,)),
        "hidden_dim": _Field(default=32, types=(int,)),
        "order": _Field(default=2, types=(int,)),
    },
    "loss": {
        "method": _Field(default="dpo", types=(str,), choices=("dpo", "adpo")),
        "family": _Field(
            default="adaptive", types=(str,), choices=("static", "adaptive")
        ),
        "k": _Field(default=None, types=(int,), nullable=True),
        "m": _Field(default=None, types=(int,), nullable=True),
        "beta": _Field(default=1.0, types=(int, float)),
        "weighted": _Field(default=False, types=(bool,)),
    },
    "train": {
        "optimizer": _Field(default="adam", types=(str,), choices=("sgd", "adam")),
        "lr": _Field(default=1e-2, types=(int, float)),
        "steps": _Field(default=2000, types=(int,)),
        "batch_size": _Field(default=32, types=(int,)),
        "eval_every": _Field(default=50, types=(int,)),
        "checkpoint_every": _Field(default=500, types=(int,)),
    },
    "data": {
        "path": _Field(default=None, types=(str,), nullable=True),
        "n_pairs": _Field(default=256, types=(int,)),
        "vocab_size": _Field(default=None, types=(int,), nullable=True),
        "prompt_len": _Field(default=2, types=(int,)),
        "min_len": _Field(default=4, types=(int,)),
        "max_len": _Field(default=24, types=(int,)),
        "length_penalty": _Field(default=0.05, types=(int, float)),
        "bigram_rate": _Field(default=0.5, types=(int, float)),
        "temperature": _Field(default=1.0, types=(int, float)),
        "labeling": _Field(
            default="deterministic", types=(str,), choices=("deterministic", "bt")
        ),
        "with_scores": _Field(default=False, types=(bool,)),
    },
}

_TOP_FIELDS = {
    "seed": _Field(default=0, types=(int,)),
    "output_dir": _Field(default=None, types=(str,), nullable=True),
}


def load_config(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as err:
        raise ValidationError(f"cannot read config {path}: {err}") from err
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise ValidationError(f"config {path} is not valid JSON: {err}") from err
    if not isinstance(doc, dict):
        raise ValidationError("config root must be a JSON object")
    return doc


def apply_overrides(config: dict, sets: list[str]) -> dict:
    """Apply --set key=value pairs; values parse as JSON, else raw string."""
    out = copy.deepcopy(config)
    for item in sets:
        if "=" not in item:
            raise ValidationError(f"--set expects key=value, got {item!r}")
        key, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = out
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ValidationError(f"--set path {key!r} crosses a non-object value")
        node[parts[-1]] = value
    return out


def _check_field(path: str, field: _Field, value):
    if value is None:
        if field.nullable or field.default is None and not field.required:
            return None
        raise ValidationError(f"field {path} must not be null")
    if bool in field.types:
        if not isinstance(value, bool):
            raise ValidationError(f"field {path} must be a boolean")
    elif isinstance(value, bool):
        raise ValidationError(f"field {path} must not be a boolean")
    elif not isinstance(value, field.types):
        names = "/".join(t.__name__ for t in field.types)
        raise ValidationError(f"field {path} must be of type {names}")
    if field.choices is not None and value not in field.choices:
        raise ValidationError(f"field {path} must be one of {field.choices}, got {value!r}")
    if float in field.types and isinstance(value, int):
        return float(value)
    return value


def resolve(config: dict) -> dict:
    """Validate a raw config and fill defaults.

    Sections may be omitted wholesale (commands check for the ones they
    need), but any present key must be known and well-typed, and required
    fields of present sections must be given.
    """
    known_top = set(_TOP_FIELDS) | set(_SCHEMA)
    for key in config:
        if key not in known_top:
            raise ValidationError(f"unknown config key {key!r}")
    resolved: dict = {}
    for name, field in _TOP_FIELDS.items():
        value = config.get(name, field.default)
        resolved[name] = _check_field(name, field, value)
    for section, fields in _SCHEMA.items():
        if section not in config:
            continue
        body = config[section]
        if not isinstance(body, dict):
            raise ValidationError(f"section {section!r} must be a JSON object")
        for key in body:
            if key not in fields:
                raise ValidationError(f"unknown config key {section}.{key!r}")
        out = {}
        for key, field in fields.items():
            if field.required and key not in body:
                raise ValidationError(f"missing required field: {section}.{key}")
            out[key] = _check_field(f"{section}.{key}", field, body.get(key, field.default))
        resolved[section] = out

    data = resolved.get("data")
    if data is not None and data["path"] is None and data["vocab_size"] is None:
        raise ValidationError("missing required field: data.vocab_size (or data.path)")
    model = resolved.get("model")
    if (
        model is not None
        and data is not None
        and data["vocab_size"] is not None
        and model["vocab_size"] != data["vocab_size"]
    ):
        raise ValidationError(
            f"model.vocab_size {model['vocab_size']} != data.vocab_size "
            f"{data['vocab_size']}"
        )
    return resolved


def require_section(resolved: dict, section: str) -> dict:
    if section not in resolved:
        raise ValidationError(f"missing required config section: {section}")
    return resolved[section]


def config_hash(resolved: dict) -> str:
    """Digest of the semantic run config (output locations excluded)."""
    semantic = {k: v for k, v in resolved.items() if k != "output_dir"}
    canonical = json.dumps(semantic, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def write_resolved(resolved: dict, output_dir) -> str:
    path = os.path.join(output_dir, "config.resolved.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(resolved, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return path


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def build_task(resolved: dict) -> BigramMatchTask:
    data = require_section(resolved, "data")
    if data["vocab_size"] is None:
        raise ValidationError("missing required field: data.vocab_size")
    return BigramMatchTask(
        vocab=Vocab(data["vocab_size"]),
        prompt_len=data["prompt_len"],
        min_len=data["min_len"],
        max_len=data["max_len"],
        length_penalty=data["length_penalty"],
        bigram_rate=data["bigram_rate"],
        temperature=data["temperature"],
        seed=resolved["seed"],
    )


def build_dataset(resolved: dict):
    """Load the dataset from data.path or generate it from the task."""
    data = require_section(resolved, "data")
    if data["path"] is not None:
        return load_jsonl(data["path"])
    task = build_task(resolved)
    pairs = generate_dataset(task, data["n_pairs"], data["labeling"])
    if data["with_scores"]:
        attach_scores(pairs, task.vocab, resolved["seed"])
    return pairs


def build_model(resolved: dict):
    model = require_section(resolved, "model")
    vocab = Vocab(model["vocab_size"])
    rng = child_rng(resolved["seed"], "init")
    if model["kind"] == "ngram":
        return NGramPolicy.random(vocab, model["order"], rng, scale=0.1)
    return NeuralPolicy.init(
        vocab,
        rng,
        context=model["context"],
        embed_dim=model["embed_dim"],
        hidden_dim=model["hidden_dim"],
    )


def build_loss_config(resolved: dict) -> LossConfig:
    loss = resolved.get("loss")
    if loss is None:
        return LossConfig().validate()
    return LossConfig(
        method=loss["method"],
        family=loss["family"],
        k=loss["k"],
        m=loss["m"],
        beta=loss["beta"],
        weighted=loss["weighted"],
    ).validate()


def build_train_config(resolved: dict) -> TrainConfig:
    train = resolved.get("train", {f: field.default for f, field in _SCHEMA["train"].items()})
    return TrainConfig(
        loss=build_loss_config(resolved),
        optimizer=train["optimizer"],
        lr=train["lr"],
        steps=train["steps"],
        batch_size=train["batch_size"],
        seed=resolved["seed"],
        eval_every=train["eval_every"],
        checkpoint_every=train["checkpoint_every"],
    ).validate()
