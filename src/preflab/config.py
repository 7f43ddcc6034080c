"""Run configuration: one JSON document drives every command.

Unknown keys are rejected outright, defaults are filled at resolve time,
and ``write_resolved`` writes a resolved config next to the outputs it
made: ``train``'s whole config into its run directory, and ``gen-data``'s
``seed`` and ``data`` beside its file as the manifest that ``gen-data
--config`` reads back. All randomness flows from the single top-level
seed through named child streams.

The ``loss`` and ``train`` sections and the task keys of ``data`` are read
off the fields of ``LossConfig``, ``TrainConfig`` and ``BigramMatchTask``:
each key takes its default and type from its field, and its choices from
the tuple or table that the library itself checks against. The ``model``
section takes its kinds and every kind's hyperparameters, with their
defaults, from ``lm.KINDS``; a hyperparameter of a kind other than
``model.kind`` must keep its default. The other top-level and ``data``
keys are declared here.
"""

from __future__ import annotations

import copy
import json
import typing
from dataclasses import dataclass, fields

from .data import LABELINGS, BigramMatchTask, attach_scores, generate_dataset, load_jsonl
from .errors import ValidationError
from .lm import KINDS, Vocab
from .losses import FAMILIES, METHODS, LossConfig
from .seeds import child_rng
from .trainer import OPTIMIZERS, TrainConfig


@dataclass(frozen=True)
class _Field:
    default: object = None
    required: bool = False
    types: tuple = ()
    choices: tuple | None = None
    nullable: bool = False


def _section(cls, *skip: str, **choices: tuple) -> dict[str, _Field]:
    """A ``_Field`` per field of dataclass ``cls`` not in ``skip``, with the
    field's default and its annotation's types (a ``float`` also accepts
    ints, and ``X | None`` is nullable) and the given ``choices``."""
    hints = typing.get_type_hints(cls)
    out = {}
    for f in fields(cls):
        if f.name in skip:
            continue
        types = typing.get_args(hints[f.name]) or (hints[f.name],)
        nullable = type(None) in types
        types = tuple(t for t in types if t is not type(None))
        out[f.name] = _Field(
            default=f.default,
            types=(int, float) if types == (float,) else types,
            choices=choices.get(f.name),
            nullable=nullable,
        )
    return out


# the task parameters of the data section; build_task passes them through
_TASK_FIELDS = _section(BigramMatchTask, "vocab", "seed")

_SCHEMA: dict[str, dict[str, _Field]] = {
    "model": {
        "kind": _Field(default="neural", types=(str,), choices=tuple(KINDS)),
        "vocab_size": _Field(required=True, types=(int,)),
        # one flat section: every kind's hyperparameters, each with its default
        **{n: _Field(default=v, types=(int,)) for k in KINDS.values() for n, v in k.HYPER.items()},
    },
    "loss": _section(LossConfig, method=METHODS, family=FAMILIES),
    "train": _section(TrainConfig, "loss", "seed", optimizer=OPTIMIZERS),
    "data": {
        "path": _Field(default=None, types=(str,), nullable=True),
        "n_pairs": _Field(default=256, types=(int,)),
        "vocab_size": _Field(default=None, types=(int,), nullable=True),
        **_TASK_FIELDS,
        "labeling": _Field(default="deterministic", types=(str,), choices=LABELINGS),
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
        if field.nullable:
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
    # another kind's hyperparameter would go unused; its default stays
    # accepted, since every resolved config records every kind's keys
    for other in KINDS.values() if model is not None else ():
        for name, default in other.HYPER.items():
            if other.kind != model["kind"] and model[name] != default:
                raise ValidationError(
                    f"field model.{name} applies to {other.kind} models only, "
                    f"not to model.kind {model['kind']!r}"
                )
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


def write_resolved(resolved: dict, path) -> None:
    """Write ``resolved`` to the file ``path`` as sorted, indented JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(resolved, fh, sort_keys=True, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def build_task(resolved: dict) -> BigramMatchTask:
    data = require_section(resolved, "data")
    return BigramMatchTask(
        Vocab(data["vocab_size"]), seed=resolved["seed"], **{k: data[k] for k in _TASK_FIELDS}
    )


def build_dataset(resolved: dict):
    """Load the dataset from data.path, or generate it from the data section."""
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
    kind = KINDS[model["kind"]]
    hyper = {name: model[name] for name in kind.HYPER}
    return kind.init(Vocab(model["vocab_size"]), child_rng(resolved["seed"], "init"), **hyper)


def build_loss_config(resolved: dict) -> LossConfig:
    return LossConfig(**resolved.get("loss", {})).validate()


def build_train_config(resolved: dict) -> TrainConfig:
    return TrainConfig(
        loss=build_loss_config(resolved), seed=resolved["seed"], **resolved.get("train", {})
    ).validate()
