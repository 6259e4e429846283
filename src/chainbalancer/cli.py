"""Command-line surface: run, compare, validate.

Exit codes are a stable contract: 0 success, 1 scenario validation
failure, 2 runtime abort.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import yaml

from .config import FIELDS, MODES, ValidationError, load_scenario
from .report import (
    write_blocks_csv,
    write_comparison_csv,
    write_comparison_json,
    write_json,
)
from .runner import run_baseline_comparison, run_scenario

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2
# `--seed` and `--seeds` follow the scenario's own row for `seeds`
SEEDS_OK, SEEDS_RULE = next(row[2:] for row in FIELDS if row[0] == "seeds")


def _mode_list(text: str) -> list[str]:
    modes = [m.strip() for m in text.split(",") if m.strip()]
    if not modes or not set(modes) <= set(MODES) or len(set(modes)) < len(modes):
        raise argparse.ArgumentTypeError(
            f"modes must be one or more distinct names from {','.join(MODES)}, got {text!r}"
        )
    return modes


def _checked_seeds(text: str, seeds: list) -> list[int]:
    if not SEEDS_OK(seeds):
        raise argparse.ArgumentTypeError(f"seeds must be {SEEDS_RULE}, got {text!r}")
    return seeds


def _seed(text: str) -> int:
    """One seed: `--seed N` must pass the `seeds` rule as `[N]`."""
    try:
        seed = int(text)
    except ValueError:
        seed = None
    return _checked_seeds(text, [seed])[0]


def _seed_list(text: str) -> list[int]:
    """Comma-separated seeds under the scenario's own rule for `seeds`."""
    try:
        seeds = [int(s) for s in text.split(",") if s.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"seeds must be comma-separated integers, got {text!r}"
        ) from None
    return _checked_seeds(text, seeds)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chainbalancer",
        description="Deterministic block-production simulator with in-protocol arbitrage capture",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute one scenario run")
    run_p.add_argument("scenario", help="path to the scenario YAML file")
    run_p.add_argument("--seed", type=_seed, default=None, help="override the scenario seed")
    run_p.add_argument(
        "--mode",
        choices=MODES,
        default=None,
        help="override the scenario mode",
    )
    run_p.add_argument("--out", default="out", help="output directory")

    cmp_p = sub.add_parser("compare", help="run the same seeds under several modes")
    cmp_p.add_argument("scenario")
    cmp_p.add_argument(
        "--modes",
        type=_mode_list,
        default="off,autobalancer",
        help=f"comma-separated list from {{{','.join(MODES)}}}",
    )
    cmp_p.add_argument(
        "--seeds",
        type=_seed_list,
        default=None,
        help="comma-separated seed list (default: the scenario's seeds)",
    )
    cmp_p.add_argument("--out", default="out", help="output directory")

    val_p = sub.add_parser("validate", help="check a scenario file and exit")
    val_p.add_argument("scenario")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = load_scenario(args.scenario)
    except ValidationError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_VALIDATION
    except (OSError, yaml.YAMLError) as exc:  # unreadable or unparseable file
        print(f"cannot load scenario: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    if args.command == "validate":
        print(f"{args.scenario}: valid (config hash {config.config_hash()[:12]})")
        return EXIT_OK

    try:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)  # an unusable --out fails before the simulation
        if args.command == "run":
            result = run_scenario(config, seed=args.seed, mode=args.mode)
            report = result.report()
            json_path = write_json(report, out / "report.json")
            csv_path = write_blocks_csv(report, out / "blocks.csv")
            totals = result.totals
            print(f"run complete: mode={result.mode} seed={result.seed}")
            print(
                f"  blocks={len(result.blocks)} captured={totals['captured']:.6f} "
                f"leaked={totals['leaked']:.6f} mean_discrepancy={totals['mean_discrepancy']:.6f}"
            )
            print(f"  wrote {json_path} and {csv_path}")
            return EXIT_OK

        comparison = run_baseline_comparison(config, args.modes, args.seeds or config.seeds)
        json_path = write_comparison_json(comparison, out / "comparison.json")
        csv_path = write_comparison_csv(comparison, out / "comparison.csv")
        for mode in args.modes:
            summary = comparison["per_mode"][mode]
            print(
                f"{mode:>12}: mean discrepancy {summary['mean_time_avg_discrepancy']:.6f}  "
                f"captured {summary['mean_captured']:.6f}  leaked {summary['mean_leaked']:.6f}"
            )
        print(f"wrote {json_path} and {csv_path}")
        return EXIT_OK
    except Exception as exc:  # noqa: BLE001 - runtime aborts map to exit 2
        print(f"runtime abort: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    raise SystemExit(main())
