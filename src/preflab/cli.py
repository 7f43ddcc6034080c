"""Command-line entry point binding the modules into reproducible workflows.

Commands: gen-data, train, eval, analyze, oracle-check. Every command is
driven by one JSON config (plus --set key=value overrides), writes
byte-deterministic outputs, and uses the exit-code contract 0 = success,
1 = runtime failure, 2 = invalid input or config.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from . import config as cfgmod
from . import oracle
from .data import check_dataset, load_jsonl, save_jsonl, write_manifest
from .errors import PreflabError, ValidationError
from .lm import load_checkpoint, save_checkpoint
from .trainer import (
    eval_pairs,
    prefix_reward_profile,
    profile_to_csv,
    train,
    trainlog_to_csv,
)


def _load_resolved(args) -> dict:
    raw = cfgmod.load_config(args.config) if args.config else {}
    raw = cfgmod.apply_overrides(raw, args.set or [])
    return cfgmod.resolve(raw)


def _sibling_resolved(path) -> dict | None:
    candidate = os.path.join(os.path.dirname(os.path.abspath(path)), "config.resolved.json")
    if os.path.exists(candidate):
        return cfgmod.resolve(cfgmod.load_config(candidate))
    return None


def cmd_gen_data(args) -> int:
    resolved = _load_resolved(args)
    cfgmod.require_section(resolved, "data")
    if resolved["data"]["path"] is not None:
        raise ValidationError("gen-data generates from task parameters, not data.path")
    pairs = cfgmod.build_dataset(resolved)
    task = cfgmod.build_task(resolved)
    save_jsonl(pairs, args.out)
    stem, _ = os.path.splitext(args.out)
    write_manifest(
        f"{stem}.manifest.json", task, resolved["data"]["n_pairs"], resolved["data"]["labeling"]
    )
    print(f"wrote {len(pairs)} pairs to {args.out}")
    return 0


def cmd_train(args) -> int:
    resolved = _load_resolved(args)
    output_dir = resolved.get("output_dir")
    if not output_dir:
        raise ValidationError("missing required field: output_dir")
    cfgmod.require_section(resolved, "model")
    cfgmod.require_section(resolved, "data")
    dataset = cfgmod.build_dataset(resolved)
    policy = cfgmod.build_model(resolved)
    check_dataset(dataset, policy.vocab)
    train_cfg = cfgmod.build_train_config(resolved)

    os.makedirs(output_dir, exist_ok=True)
    cfgmod.write_resolved(resolved, output_dir)
    digest = cfgmod.config_hash(resolved)
    save_checkpoint(policy, os.path.join(output_dir, "ref.json"), digest)

    result = train(dataset, policy, train_cfg)

    with open(os.path.join(output_dir, "trainlog.csv"), "w", encoding="utf-8") as fh:
        fh.write(trainlog_to_csv(result.log))
    for step, snapshot in result.checkpoints:
        save_checkpoint(
            snapshot, os.path.join(output_dir, f"checkpoint_{step:06d}.json"), digest
        )
    save_checkpoint(result.policy, os.path.join(output_dir, "final.json"), digest)
    last = result.log[-1]
    print(
        f"trained {train_cfg.steps} steps: loss {last.loss:.6f}, "
        f"accuracy {last.accuracy:.4f} (outputs in {output_dir})"
    )
    return 0


def _loss_config_near(args, checkpoint_path):
    if args.config:
        return cfgmod.build_loss_config(_load_resolved(args))
    sibling = _sibling_resolved(checkpoint_path)
    if sibling is not None:
        return cfgmod.build_loss_config(sibling)
    return cfgmod.build_loss_config({"seed": 0})


def cmd_eval(args) -> int:
    policy = load_checkpoint(args.checkpoint)
    ref_path = args.ref or os.path.join(
        os.path.dirname(os.path.abspath(args.checkpoint)), "ref.json"
    )
    ref = load_checkpoint(ref_path)
    dataset = load_jsonl(args.data)
    check_dataset(dataset, policy.vocab)
    loss_cfg = _loss_config_near(args, args.checkpoint)
    row = eval_pairs(policy, ref, dataset, loss_cfg)
    doc = {
        "loss": row.loss,
        "chosen_logp": row.chosen_logp,
        "rejected_logp": row.rejected_logp,
        "margin": row.margin,
        "accuracy": row.accuracy,
    }
    print(json.dumps(doc, sort_keys=True))
    return 0


def _checkpoint_step(path: str, fallback: int) -> int:
    match = re.search(r"(\d+)", os.path.splitext(os.path.basename(path))[0])
    return int(match.group(1)) if match else fallback


def cmd_analyze(args) -> int:
    ref = load_checkpoint(args.ref)
    dataset = load_jsonl(args.data)
    check_dataset(dataset, ref.vocab)
    beta = args.beta
    if beta is None:
        sibling = _sibling_resolved(args.checkpoints[0])
        beta = sibling["loss"]["beta"] if sibling and "loss" in sibling else 1.0
    checkpoints = [
        (_checkpoint_step(path, i), load_checkpoint(path))
        for i, path in enumerate(args.checkpoints)
    ]
    rows = prefix_reward_profile(checkpoints, ref, dataset, beta, bins=args.bins)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(profile_to_csv(rows))
    print(f"wrote {len(rows)} profile rows to {args.out}")
    return 0


def cmd_oracle_check(args) -> int:
    parts = args.space.split(",")
    if len(parts) != 2:
        raise ValidationError(f"--space expects 'v,L', got {args.space!r}")
    try:
        vocab_size, max_len = int(parts[0]), int(parts[1])
    except ValueError as err:
        raise ValidationError(f"--space expects integers, got {args.space!r}") from err
    certificates = oracle.run_checks(
        vocab_size, max_len, seed=args.seed, which=args.check, mode=args.mode
    )
    text = json.dumps(certificates, sort_keys=True, indent=2) + "\n"
    sys.stdout.write(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return 0 if all(c["pass"] for c in certificates) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--bins", type=int, default=20)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_analyze)

    p = sub.add_parser("oracle-check", help="brute-force certification of the theory")
    p.add_argument("--space", required=True, metavar="V,L")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--check",
        default="all",
        choices=["all", "boltzmann", "optimality", "decompose", "reparam", "theorem1"],
    )
    p.add_argument("--mode", default="eos", choices=["eos", "fixed"])
    p.add_argument("--out", help="also write certificates to this JSON file")
    p.set_defaults(handler=cmd_oracle_check)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ValidationError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except PreflabError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
