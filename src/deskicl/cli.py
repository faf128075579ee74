"""Command-line entry point: gen-data, train, eval, sweep-interval, report."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import harness
from .checkpoint import CheckpointError
from .data import EpisodeIOError
from .harness import HarnessConfig, HarnessError, load_config


def _config_from_args(args) -> HarnessConfig:
    if args.config:
        return load_config(args.config)
    return HarnessConfig()


def _add_common(parser: argparse.ArgumentParser, seed: bool = True) -> None:
    parser.add_argument("--config", type=Path, default=None, help="flat key=value config file (defaults apply if omitted)")
    parser.add_argument("--out", type=Path, required=True, help="output directory for this run")
    if seed:
        parser.add_argument("--seed", type=int, default=None, help="seed override for this command")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="deskicl", description="desk-scale in-context imitation benchmark")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate expert episodes and the task split")
    _add_common(p)

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
    _add_common(p, seed=False)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _config_from_args(args)
        if getattr(args, "rollouts", None) is not None:
            import dataclasses

            config = dataclasses.replace(config, eval=dataclasses.replace(config.eval, rollouts_per_config=args.rollouts))
        if getattr(args, "seed", None) is not None:
            import dataclasses

            if args.command == "gen-data":
                config = dataclasses.replace(config, data=dataclasses.replace(config.data, gen_seed=args.seed))
            else:
                config = dataclasses.replace(config, train=dataclasses.replace(config.train, seed=args.seed))

        if args.command == "gen-data":
            harness.cmd_gen_data(config, args.out)
        elif args.command == "train":
            harness.cmd_train(config, args.variant, args.out, seed=args.seed)
        elif args.command == "eval":
            variants = [v.strip() for v in args.variant.split(",") if v.strip()]
            harness.cmd_eval(config, args.out, variants, train_seed=args.seed)
        elif args.command == "sweep-interval":
            intervals = [int(v) for v in args.intervals.split(",") if v.strip()]
            harness.cmd_sweep_interval(config, args.out, args.variant, intervals, train_seed=args.seed)
        elif args.command == "report":
            harness.cmd_report(args.out)
        return 0
    except (HarnessError, EpisodeIOError, CheckpointError, OSError, ValueError) as exc:
        print(f"deskicl {args.command}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
