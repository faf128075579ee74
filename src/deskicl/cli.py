"""Command-line entry point: gen-data, train, eval, sweep-interval, report."""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from . import harness
from .checkpoint import CheckpointError
from .data import EpisodeIOError
from .engine import TrainingDivergedError
from .harness import HarnessConfig, HarnessError, load_config
from .settings import parse
from .sim import SimError


def _config_from_args(args) -> HarnessConfig:
    if args.config:
        return load_config(args.config)
    return HarnessConfig()


def _add_common(parser: argparse.ArgumentParser, seed_key: str | None = "train.seed") -> None:
    parser.add_argument("--config", type=Path, default=None, help="flat key=value config file (defaults apply if omitted)")
    parser.add_argument("--out", type=Path, required=True, help="output directory for this run")
    if seed_key:
        parser.add_argument("--seed", type=int, default=None, help=f"overrides the config's {seed_key}")
        parser.set_defaults(seed_key=seed_key)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="deskicl", description="desk-scale in-context imitation benchmark")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate expert episodes and the task split")
    _add_common(p, seed_key="data.gen_seed")

    p = sub.add_parser("train", help="train one variant on the generated dataset")
    _add_common(p)
    p.add_argument("--variant", required=True, choices=sorted(harness.VARIANTS), help="model variant to train")

    p = sub.add_parser("eval", help="evaluate checkpoints on the unseen tasks")
    _add_common(p)
    p.add_argument("--variant", default="ours", help="comma-separated variants (or 'expert' for the replay stub)")
    p.add_argument("--rollouts", type=int, default=None, help="override rollouts per prompt config")

    p = sub.add_parser("sweep-interval", help="evaluate one checkpoint over several reasoning intervals")
    _add_common(p)
    p.add_argument("--variant", default="ours")
    p.add_argument("--intervals", default="1,8,16,32,0", help="comma-separated k values (0 = never)")
    p.add_argument("--rollouts", type=int, default=None)

    p = sub.add_parser("report", help="merge metrics files into report.csv and summary.txt")
    _add_common(p, seed_key=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _config_from_args(args)
        overrides = [
            ("--rollouts", "eval.rollouts_per_config", getattr(args, "rollouts", None)),
            ("--seed", getattr(args, "seed_key", None), getattr(args, "seed", None)),
        ]
        for flag, key, value in overrides:
            if value is not None:
                section, _, name = key.partition(".")
                try:
                    config = dataclasses.replace(config, **{section: dataclasses.replace(getattr(config, section), **{name: value})})
                except ValueError as exc:
                    raise HarnessError(f"{flag}: {exc}") from exc

        if args.command == "gen-data":
            harness.cmd_gen_data(config, args.out)
        elif args.command == "train":
            # a diverging run's overflows are named by train's finite checks
            with np.errstate(over="ignore", invalid="ignore"):
                harness.cmd_train(config, args.variant, args.out)
        elif args.command == "eval":
            variants = [v.strip() for v in args.variant.split(",") if v.strip()]
            if not variants:
                raise HarnessError("--variant: no variant given")
            harness.cmd_eval(config, args.out, variants)
        elif args.command == "sweep-interval":
            interval = next(f for f in dataclasses.fields(config.eval) if f.name == "reasoning_interval")
            try:
                intervals = [parse(v, interval) for v in args.intervals.split(",") if v.strip()]
            except ValueError as exc:
                raise HarnessError(f"--intervals: {exc}") from exc
            if not intervals:
                raise HarnessError("--intervals: no interval given")
            harness.cmd_sweep_interval(config, args.out, args.variant, intervals)
        elif args.command == "report":
            harness.cmd_report(args.out)
        return 0
    except (HarnessError, EpisodeIOError, CheckpointError, SimError, TrainingDivergedError, OSError, ValueError) as exc:
        print(f"deskicl {args.command}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
