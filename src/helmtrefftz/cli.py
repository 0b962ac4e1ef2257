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

    # an option not given is left out, so that RunConfig states each default
    run = sub.add_parser(
        "run",
        help="run an experiment suite and write CSV",
        argument_default=argparse.SUPPRESS,
    )
    run.add_argument("--experiment", required=True, choices=EXPERIMENTS)
    run.add_argument("--p", dest="degrees", type=_int_list, metavar="LIST",
                     help="comma-separated polynomial degrees")
    run.add_argument("--levels", type=int,
                     help="number of refinement levels (mesh ladder length)")
    run.add_argument("--omega", dest="omegas", type=_float_list, metavar="LIST",
                     help="comma-separated wavenumbers (planewave only; default 100)")
    run.add_argument("--alpha", type=float, help="penalty parameter")
    run.add_argument("--methods", type=_method_list, metavar="LIST",
                     help="comma-separated subset of embedded,standard")
    run.add_argument("--out", required=True, help="output CSV path")
    run.add_argument("--dof-cap", type=int,
                     help="refuse or trim configurations beyond this dof count")

    summ = sub.add_parser("summarize", help="print a rate table for a CSV file")
    summ.add_argument("--in", dest="path", required=True, help="CSV file to read")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = vars(build_parser().parse_args(argv))
    if args.pop("command") == "summarize":
        try:
            reports = parse_csv(args["path"])
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        sys.stdout.write(summarize(reports))
        return 0

    try:
        config = RunConfig(**args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        reports = run_experiment(config)
    except SingularSystemError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(summarize(reports))
    print(f"wrote {len(reports)} rows to {config.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
