"""Command-line front end: run experiment suites and summarize CSV tables."""

from __future__ import annotations

import argparse
import sys

from .harness import EXPERIMENTS, RunConfig, parse_csv, run_experiment, summarize
from .solve_pipeline import SingularSystemError


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.split(",") if tok)


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.split(",") if tok)


def _method_list(text: str) -> tuple[str, ...]:
    return tuple(tok for tok in text.split(",") if tok)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="helmtrefftz",
        description="Embedded Trefftz DG / standard DG Helmholtz experiment harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an experiment suite and write CSV")
    run.add_argument("--experiment", required=True, choices=EXPERIMENTS)
    run.add_argument("--p", type=_int_list, default=(), metavar="LIST",
                     help="comma-separated polynomial degrees")
    run.add_argument("--levels", type=int, default=0,
                     help="number of refinement levels (mesh ladder length)")
    run.add_argument("--omega", type=_float_list, default=(), metavar="LIST",
                     help="comma-separated wavenumbers (planewave only; default 100)")
    run.add_argument("--alpha", type=float, default=10.0, help="penalty parameter")
    run.add_argument("--methods", type=_method_list,
                     default=("embedded", "standard"), metavar="LIST",
                     help="comma-separated subset of embedded,standard")
    run.add_argument("--out", required=True, help="output CSV path")
    run.add_argument("--dof-cap", type=int, default=2_000_000,
                     help="refuse or trim configurations beyond this dof count")

    summ = sub.add_parser("summarize", help="print a rate table for a CSV file")
    summ.add_argument("--in", dest="path", required=True, help="CSV file to read")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "summarize":
        try:
            reports = parse_csv(args.path)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        sys.stdout.write(summarize(reports))
        return 0

    try:
        config = RunConfig(
            experiment=args.experiment,
            methods=args.methods,
            degrees=args.p,
            levels=args.levels,
            omegas=args.omega,
            alpha=args.alpha,
            out=args.out,
            dof_cap=args.dof_cap,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        reports = run_experiment(config)
    except SingularSystemError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(summarize(reports))
    print(f"wrote {len(reports)} rows to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
