"""Command-line entry point binding the modules into reproducible workflows.

Commands: gen-data, train, eval, analyze, oracle-check. Every command is
driven by one JSON config (plus --set key=value overrides), writes
byte-deterministic outputs, and uses the exit-code contract 0 = success,
1 = runtime failure, 2 = invalid arguments, input or config.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import shutil
import sys
import time
from dataclasses import asdict

from . import config as cfgmod
from . import oracle, trainer
from .data import check_dataset, load_jsonl, save_jsonl
from .errors import PreflabError, ValidationError
from .lm import load_checkpoint, save_checkpoint
from .seeds import check_seed
from .trainer import ProfileRow, TrainLogRow, eval_pairs, prefix_reward_profile, to_csv, train

RESOLVED_CONFIG = "config.resolved.json"


def _load_resolved(args, raw: dict | None = None) -> dict:
    """``--set`` applied over ``raw`` (default: the ``--config`` file, or
    nothing), then resolved."""
    if raw is None:
        raw = cfgmod.load_config(args.config) if args.config else {}
    raw = cfgmod.apply_overrides(raw, args.set or [])
    return cfgmod.resolve(raw)


def _sibling_config(path) -> dict:
    """The ``RESOLVED_CONFIG`` next to ``path``, unresolved; empty if absent."""
    candidate = os.path.join(os.path.dirname(os.path.abspath(path)), RESOLVED_CONFIG)
    return cfgmod.load_config(candidate) if os.path.exists(candidate) else {}


def cmd_gen_data(args) -> int:
    manifest = f"{args.out}.manifest.json"
    _check_output_path(args.out, "--out")
    _check_output_path(manifest, "manifest")
    resolved = _load_resolved(args)
    data = cfgmod.require_section(resolved, "data")
    if data["path"] is not None:
        raise ValidationError("gen-data generates from task parameters, not data.path")
    pairs = cfgmod.build_dataset(resolved)
    save_jsonl(pairs, args.out)
    cfgmod.write_resolved({"seed": resolved["seed"], "data": data}, manifest)
    print(f"wrote {len(pairs)} pairs to {args.out}")
    return 0


def _check_output_path(path: str, what: str, makes_dirs: bool = False) -> None:
    """Refuse, before any work, an output path that cannot be written. A
    file's directory must exist; a run directory (``makes_dirs``) is made
    with its missing parents, so its nearest existing path, itself or an
    ancestor, must be a directory."""
    existing = os.path.abspath(path)
    if makes_dirs:
        while not os.path.lexists(existing):
            existing = os.path.dirname(existing)
    elif os.path.isdir(existing):
        raise ValidationError(f"{what} {path} is a directory")
    else:
        existing = os.path.dirname(existing)
    if not os.path.isdir(existing):
        problem = "is not a directory" if os.path.lexists(existing) else "does not exist"
        raise ValidationError(f"{what} {path}: {existing} {problem}")


def cmd_train(args) -> int:
    resolved = _load_resolved(args)
    output_dir = resolved.get("output_dir")
    if not output_dir:
        raise ValidationError("missing required field: output_dir")
    _check_output_path(output_dir, "output_dir", makes_dirs=True)
    cfgmod.require_section(resolved, "model")
    cfgmod.require_section(resolved, "data")
    dataset = cfgmod.build_dataset(resolved)
    policy = cfgmod.build_model(resolved)
    check_dataset(dataset, policy.vocab)
    train_cfg = cfgmod.build_train_config(resolved)

    # trained before the run directory is made, so that a plan-time input
    # error leaves none
    result = train(dataset, policy, train_cfg)

    os.makedirs(output_dir, exist_ok=True)
    cfgmod.write_resolved(resolved, os.path.join(output_dir, RESOLVED_CONFIG))
    save_checkpoint(result.reference, os.path.join(output_dir, "ref.json"))
    with open(os.path.join(output_dir, "trainlog.csv"), "w", encoding="utf-8") as fh:
        fh.write(to_csv(TrainLogRow, result.log))
    for step, snapshot in result.checkpoints:
        path = os.path.join(output_dir, f"checkpoint_{step:06d}.json")
        save_checkpoint(snapshot, path)
    # train always snapshots the final step: final.json is that file's bytes
    shutil.copyfile(path, os.path.join(output_dir, "final.json"))
    last = result.log[-1]
    print(
        f"trained {train_cfg.steps} steps: loss {last.loss:.6f}, "
        f"accuracy {last.accuracy:.4f} (outputs in {output_dir})"
    )
    return 0


def _check_finite(what: str, values: dict) -> None:
    """Refuse to report a non-finite number: overflow in a checkpoint's
    scores is a runtime failure, named with ``what`` and the quantity."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise PreflabError(f"{what}: {name} is {value}, not a finite number")


def cmd_eval(args) -> int:
    policy = load_checkpoint(args.checkpoint)
    ref_path = args.ref or os.path.join(
        os.path.dirname(os.path.abspath(args.checkpoint)), "ref.json"
    )
    ref = load_checkpoint(ref_path)
    dataset = load_jsonl(args.data)
    check_dataset(dataset, policy.vocab)
    # --set applies over --config, else the checkpoint's sibling config
    raw = None if args.config else _sibling_config(args.checkpoint)
    loss_cfg = cfgmod.build_loss_config(_load_resolved(args, raw))
    # on the module, where the benchmark's traced run wraps it
    plan = trainer.plan_dataset(dataset, loss_cfg, ref)
    doc = asdict(eval_pairs(policy, plan, loss_cfg.beta))
    del doc["step"]
    doc.update(plan.length_measures())
    _check_finite(f"checkpoint {args.checkpoint}", doc)
    print(json.dumps(doc, sort_keys=True))
    return 0


def _checkpoint_step(path: str, fallback: int) -> int:
    """The step in a checkpoint's file name: its last run of digits."""
    runs = re.findall(r"\d+", os.path.splitext(os.path.basename(path))[0])
    return int(runs[-1]) if runs else fallback


def cmd_analyze(args) -> int:
    _check_output_path(args.out, "--out")
    ref = load_checkpoint(args.ref)
    dataset = load_jsonl(args.data)
    check_dataset(dataset, ref.vocab)
    beta = args.beta
    if beta is None:
        sibling = cfgmod.resolve(_sibling_config(args.checkpoints[0]))
        beta = cfgmod.build_loss_config(sibling).beta
    checkpoints = [
        (_checkpoint_step(path, i), load_checkpoint(path))
        for i, path in enumerate(args.checkpoints)
    ]
    rows = prefix_reward_profile(checkpoints, ref, dataset, beta, bins=args.bins)
    # every checkpoint has a row for each bin its tokens land in
    per = len(rows) // len(checkpoints)
    for i, row in enumerate(rows):
        what = f"checkpoint {args.checkpoints[i // per]}, bin {row.bin_lo:g}-{row.bin_hi:g}"
        _check_finite(what, asdict(row))
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(to_csv(ProfileRow, rows))
    print(f"wrote {len(rows)} profile rows to {args.out}")
    return 0


def cmd_oracle_check(args) -> int:
    if args.out:
        _check_output_path(args.out, "--out")
    parts = args.space.split(",")
    if len(parts) != 2:
        raise ValidationError(f"--space expects 'v,L', got {args.space!r}")
    try:
        vocab_size, max_len = int(parts[0]), int(parts[1])
    except ValueError as err:
        raise ValidationError(f"--space expects integers, got {args.space!r}") from err
    names, seed = oracle.check_names(args.check), check_seed(args.seed)
    # wall time goes to stderr only: the certificates stay byte-deterministic
    start = time.perf_counter()
    space = oracle.EnumSpace.build(vocab_size, max_len, args.mode)
    sys.stderr.write(f"# build {1e3 * (time.perf_counter() - start):.2f} ms\n")
    certificates = []
    for name in names:
        start = time.perf_counter()
        certificates.append(oracle.CHECKS[name](space, seed))
        sys.stderr.write(f"# {name} {1e3 * (time.perf_counter() - start):.1f} ms\n")
    text = json.dumps(certificates, sort_keys=True, indent=2) + "\n"
    sys.stdout.write(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return 0 if all(c["pass"] for c in certificates) else 1


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """Raise, so that a bad argument leaves through ``main``'s one ``error:`` line."""
        raise ValidationError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="preflab",
        description="Desk-scale preference-optimization laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def with_config(p):
        p.add_argument("--config", help="JSON run config")
        p.add_argument(
            "--set",
            action="append",
            metavar="KEY=VALUE",
            help="override a config field (dotted path; value parsed as JSON)",
        )

    p = sub.add_parser("gen-data", help="generate a synthetic preference dataset")
    with_config(p)
    p.add_argument("--out", required=True, help="output JSONL path")
    p.set_defaults(handler=cmd_gen_data)

    p = sub.add_parser("train", help="train a policy against its frozen reference")
    with_config(p)
    p.set_defaults(handler=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    with_config(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--ref", help="reference checkpoint (default: sibling ref.json)")
    p.set_defaults(handler=cmd_eval)

    p = sub.add_parser("analyze", help="prefix-position reward profile across checkpoints")
    p.add_argument("--checkpoints", nargs="+", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--beta", type=float, help="reward scale (default: the sibling loss.beta)")
    p.add_argument("--bins", type=int, default=20)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_analyze)

    p = sub.add_parser("oracle-check", help="brute-force certification of the theory")
    p.add_argument("--space", required=True, metavar="V,L")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--check", default="all", choices=["all", *oracle.CHECKS])
    p.add_argument("--mode", default="eos", choices=oracle.MODES)
    p.add_argument("--out", help="also write certificates to this JSON file")
    p.set_defaults(handler=cmd_oracle_check)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.handler(args)
    except (PreflabError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2 if isinstance(err, ValidationError) else 1


if __name__ == "__main__":
    sys.exit(main())
