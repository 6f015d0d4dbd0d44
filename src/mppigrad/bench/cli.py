"""Command-line entry point for the benchmark harness.

    mppigrad run --experiment {lqr|dubins|theory} --config cfg.yaml \
        [--seed S] [--out DIR] [--grid key=v1,v2,...] [--workers N]

Exit codes: 0 success, 1 config error, 2 oracle, start or projection failure,
3 theory-check failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from ..errors import ConfigError, ConvergenceError, QuadratureError
from .config import load_config, parse_grid_override
from .dubins import run_dubins
from .lqr import run_lqr
from .records import emit
from .theory import emit_report, format_report, run_theory_suite


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mppigrad")
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run a benchmark experiment")
    runp.add_argument("--experiment", required=True, choices=("lqr", "dubins", "theory"))
    runp.add_argument("--config", required=True, help="path to a version-1 YAML config")
    runp.add_argument("--seed", type=int, default=None, help="replace the config's seed list")
    runp.add_argument("--out", default=None, help="output directory (overrides config)")
    runp.add_argument(
        "--grid",
        action="append",
        default=[],
        metavar="key=v1,v2,...",
        help="override one ablation grid entry (repeatable)",
    )
    runp.add_argument("--workers", type=_positive_int, default=4)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; that slot belongs to oracle
        # failures here, so fold usage problems into the config-error code
        return 0 if exc.code == 0 else 1

    try:
        grid_overrides = dict(parse_grid_override(g) for g in args.grid)
        cfg = load_config(
            args.config,
            seed_override=args.seed,
            out_override=args.out,
            grid_overrides=grid_overrides or None,
        )
        if cfg.experiment != args.experiment:
            raise ConfigError(
                f"config is for experiment {cfg.experiment!r}, not {args.experiment!r}"
            )
        out_dir = Path(cfg.out_dir or f"results/{cfg.experiment}")
        try:  # before the run, so an unusable path costs no run time
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory {out_dir}: {exc.strerror}") from exc
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    if cfg.experiment == "theory":
        try:
            rows, passed = run_theory_suite(cfg)
        except (QuadratureError, ConvergenceError) as exc:
            print(f"oracle failure: {exc}", file=sys.stderr)
            return 2
        print(format_report(rows))
        emit_report(rows, out_dir)
        cfg.write_snapshot(out_dir / "config_snapshot.yaml")
        return 0 if passed else 3

    try:
        if cfg.experiment == "lqr":
            records = run_lqr(cfg, max_workers=args.workers)
        else:
            records = run_dubins(cfg, max_workers=args.workers)
    except (QuadratureError, ConvergenceError) as exc:
        print(f"oracle failure: {exc}", file=sys.stderr)
        return 2

    emit(records, out_dir)
    cfg.write_snapshot(out_dir / "config_snapshot.yaml")
    failed = False
    for record in sorted(records, key=lambda r: r.name):
        if record.flagged:
            print(f"{record.name}: FLAGGED ({record.flag_reason})")
            failed = failed or "method" in record.cell  # the oracle, the start or FD
        else:
            keys = ("final_gap", "average_cost", "acceptance_rate")
            parts = [f"{k}={record.summary[k]:.6g}" for k in keys if k in record.summary]
            print(f"{record.name}: " + ", ".join(parts))
    print(f"wrote {len(records)} records to {out_dir}")
    return 2 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
