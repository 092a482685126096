"""Command-line entry point: `wiretap-lsl run ...`."""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from .errors import ParseError, UnknownPreset, ValidationError
from .experiment import PRESETS, figure_preset, parse_config, run_sweep, write_csv

EXIT_OK = 0
EXIT_CONFIG_ERROR = 1
EXIT_RUNTIME_ERROR = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wiretap-lsl",
        description="Secrecy-rate sweeps for correlated MIMO wiretap channels "
        "(large-system analysis cross-checked by Monte Carlo).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run a sweep experiment and write a CSV")
    run.add_argument("--config", help="path to a JSON experiment config")
    run.add_argument(
        "--preset",
        help=f"use a published-figure configuration ({', '.join(PRESETS)}) instead of a config file",
    )
    run.add_argument("--out", help="output CSV path (overrides the config)")
    run.add_argument("--seed", type=int, help="master RNG seed (overrides the config)")
    run.add_argument(
        "--mc",
        type=int,
        help="Monte Carlo target: the SE of this many unpaired realizations; each rate draws at most this many",
    )
    run.add_argument("--no-mc", action="store_true", help="skip Monte Carlo validation")
    run.add_argument("--no-timestamp", action="store_true", help="omit the timestamp header line")
    return parser


def _load_config(args):
    if args.config is None and args.preset is None:
        raise ValidationError("either --config or --preset is required")
    if args.config is not None and args.preset is not None:
        raise ValidationError("--config and --preset are mutually exclusive")
    if args.preset is not None:
        config = figure_preset(args.preset)
    else:
        config = parse_config(args.config)
    overrides = {"output_path": args.out, "seed": args.seed, "mc_realizations": args.mc}
    config = dataclasses.replace(config, **{k: v for k, v in overrides.items() if v is not None})
    # The CSV is written after the sweep, so an unwritable path fails now.
    out = config.output_path
    if not out or os.path.isdir(out) or not os.path.isdir(os.path.dirname(out) or "."):
        raise ValidationError(f"output path {out!r} is empty, is a directory or lies in a missing directory")
    return config


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _load_config(args)
    except (ParseError, ValidationError, UnknownPreset) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR

    result = run_sweep(config, include_mc=not args.no_mc)
    write_csv(result, config.output_path, timestamp=not args.no_timestamp)
    failed = result.num_failed
    total = len(result.rows)
    print(f"wrote {config.output_path}: {total} rows, {failed} failed")
    if failed == total:
        return EXIT_RUNTIME_ERROR
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
