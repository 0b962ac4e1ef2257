"""Benchmark of helmtrefftz experiment sweeps, end to end and per layer.

Usage, from the root of a checkout (see perfbench/README.md):

    python3 perfbench/run.py --workload planewave-w100 --seed 1 --seconds 30 --trace 0

Each sweep runs ``RunConfig`` + ``run_experiment`` in a fresh Python process
(``sweep.py``) that imports the library from ``src/`` of this checkout.  The
command repeats sweeps for ``--seconds``, checks every output row against the
committed reference in ``perfbench/reference/``, prints every metric with its
unit, and prints one JSON object as its last line.  It exits 1 when a row
fails and 2 when the checkout has no library to run.

``--trace 0`` reports the end-to-end metrics from untraced sweeps.
``--trace 1`` alternates untraced and traced sweeps and reports the per-layer
metrics; the spans are written to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"

# RunConfig keyword arguments; why each was chosen is in README.md.
WORKLOADS = {
    "planewave-w100": {
        "experiment": "planewave",
        "omegas": [100.0],
        "degrees": [3],
        "levels": 4,
    },
    "sinsin-p12": {"experiment": "sinsin", "degrees": [4, 8, 12]},
    "varomega-h": {
        "experiment": "varomega",
        "degrees": [3, 4, 5],
        "levels": 3,
        "methods": ["embedded"],
    },
    # tiny sweep for smoke.py; not part of BENCHMARK.json
    "smoke": {"experiment": "hankel", "degrees": [3], "levels": 1},
}

# Largest relative deviation of l2error / dgerror from the reference that
# still passes.  Reordering the sparse LU moves the errors of the rows at the
# round-off floor (sinsin, p >= 9) by up to ~1.4 %; a wrong discretization
# moves them by orders of magnitude.
RTOL = 0.05

# BLAS / OpenMP threads of every sweep process: fixed, and at most nproc.
THREADS = 1
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# untraced sweeps per run at least, whatever --seconds says: the median of
# three rejects one sweep slowed by a noisy neighbour
MIN_SWEEPS = 3
SETUP_SAMPLES = 5
# one run must end well inside three minutes
DEADLINE_S = 165.0


class SweepFailed(RuntimeError):
    """A sweep process crashed, timed out or printed no result."""


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _child_env() -> dict:
    env = dict(os.environ)
    threads = str(min(THREADS, _nproc()))
    for var in THREAD_VARS:
        env[var] = threads
    return env


def spawn(config: dict, mode: str, timeout: float) -> tuple[float, dict | None]:
    """Run sweep.py once; return (set-up seconds, parsed result or None)."""
    cmd = [sys.executable, str(HERE / "sweep.py"), json.dumps(config), mode]
    start = time.perf_counter()
    with subprocess.Popen(
        cmd,
        cwd=ROOT,
        env=_child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    ) as proc:
        try:
            first = proc.stdout.readline()
            setup_s = time.perf_counter() - start
            out, err = proc.communicate(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise SweepFailed(f"sweep ({mode}) exceeded {timeout:.0f} s") from None
    if proc.returncode != 0 or first.strip() != "ready":
        raise SweepFailed(
            f"sweep ({mode}) exited with {proc.returncode}: {err.strip()[-2000:]}"
        )
    if mode == "setup":
        return setup_s, None
    return setup_s, json.loads(out.strip().splitlines()[-1])


def load_reference(path: Path) -> list[dict]:
    return json.loads(path.read_text())["rows"]


def check_rows(rows: list[dict], reference: list[dict]) -> tuple[int, float, list[str]]:
    """(failed rows, largest relative error drift, messages) against reference."""
    got = {(r["method"], r["p"], r["hnr"]): r for r in rows}
    failed, drift, msgs = 0, 0.0, []
    for ref in reference:
        key = (ref["method"], ref["p"], ref["hnr"])
        row = got.get(key)
        if row is None:
            failed += 1
            msgs.append(f"row {key}: missing")
            continue
        bad = []
        if row["dofs"] != ref["dofs"]:
            bad.append(f"dofs {row['dofs']} != {ref['dofs']}")
        for col in ("l2error", "dgerror"):
            rel = abs(row[col] - ref[col]) / abs(ref[col])
            drift = max(drift, rel)
            if not rel <= RTOL:
                bad.append(f"{col} {row[col]!r} vs {ref[col]!r} (rel {rel:.3g})")
        if bad:
            failed += 1
            msgs.append(f"row {key}: " + "; ".join(bad))
    return failed, drift, msgs


def _median(values):
    """Median; a count stays a whole number."""
    if not values:
        return float("nan")
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


@dataclass
class Runs:
    """Sweeps of one workload run and the row checks made on them."""

    reference: list[dict]
    setups: list[float] = field(default_factory=list)
    plain: list[dict] = field(default_factory=list)
    traced: list[dict] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    drift: float = 0.0
    messages: list[str] = field(default_factory=list)

    def fail_all(self, msg: str):
        self.attempted += len(self.reference)
        self.failed += len(self.reference)
        self.messages.append(msg)

    def record(self, mode: str, setup_s: float, res: dict):
        self.setups.append(setup_s)
        (self.traced if mode == "traced" else self.plain).append(res)
        if res["error"]:
            self.fail_all(f"sweep ({mode}) raised {res['error']}")
            return
        failed, drift, msgs = check_rows(res["rows"], self.reference)
        self.attempted += len(self.reference)
        self.failed += failed
        self.drift = max(self.drift, drift)
        self.messages.extend(msgs)

    def end_to_end(self) -> dict:
        return {
            "wall_s": [_median([r["wall_s"] for r in self.plain]), "s"],
            "peak_rss_mb": [_median([r["peak_rss_mb"] for r in self.plain]), "MB"],
            "setup_s": [_median(self.setups), "s"],
        }

    def per_layer(self) -> dict:
        if not self.traced:
            return {}
        units = self.traced[0]["layers"]
        layers = {
            k: [_median([t["layers"][k][0] for t in self.traced]), units[k][1]]
            for k in units
        }
        layers["error_analysis.max_rel_drift"] = [self.drift, "ratio"]
        layers["trace.overhead_s"] = [
            _median([t["wall_s"] for t in self.traced])
            - _median([r["wall_s"] for r in self.plain]),
            "s",
        ]
        return layers


def measure(name: str, reference: list[dict], seconds: float, trace: bool) -> Runs:
    """Run sweeps of one workload for about `seconds`, checking every row.

    A new round of sweeps starts only if a typical round still fits.
    """
    config = WORKLOADS[name]
    runs = Runs(reference)
    start = time.perf_counter()

    def remaining():
        return DEADLINE_S - (time.perf_counter() - start)

    modes = ("plain", "traced") if trace else ("plain",)
    min_plain = 1 if trace else MIN_SWEEPS
    try:
        spawn(config, "setup", remaining())  # warm-up: file cache, bytecode if allowed
        rounds = []  # seconds per round of sweeps
        while len(runs.plain) < min_plain or (
            time.perf_counter() - start + statistics.median(rounds) <= seconds
        ):
            t0 = time.perf_counter()
            for mode in modes:
                runs.record(mode, *spawn(config, mode, remaining()))
            rounds.append(time.perf_counter() - t0)
        while len(runs.setups) < SETUP_SAMPLES:
            runs.setups.append(spawn(config, "setup", remaining())[0])
    except SweepFailed as exc:
        runs.fail_all(str(exc))
    return runs


def _fmt(value) -> str:
    return str(value) if isinstance(value, int) else f"{value:.6g}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument(
        "--seed", type=int, default=0, help="recorded; no workload uses it yet"
    )
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--reference",
        type=Path,
        help="reference rows (default: perfbench/reference/<workload>.json)",
    )
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "helmtrefftz" / "harness.py").is_file():
        print(f"no library under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    ref_path = args.reference or HERE / "reference" / f"{args.workload}.json"
    reference = load_reference(ref_path)

    runs = measure(args.workload, reference, args.seconds, bool(args.trace))
    env = (runs.plain or runs.traced or [{}])[0].get("env", {})
    print(
        f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace} sweeps={len(runs.plain)}+{len(runs.traced)} traced "
        f"threads={min(THREADS, _nproc())} nproc={_nproc()} "
        f"python={env.get('python')} numpy={env.get('numpy')} "
        f"scipy={env.get('scipy')} blas={env.get('blas')}"
    )
    for mode, sweeps in (("plain", runs.plain), ("traced", runs.traced)):
        if sweeps:
            print(
                f"# {mode} sweeps wall_s/cpu_s: "
                + " ".join(f"{r['wall_s']:.3f}/{r['cpu_s']:.3f}" for r in sweeps)
            )
    for msg in runs.messages:
        print(f"# FAIL {msg}")

    if args.trace:
        metrics = runs.per_layer()
        for note in runs.traced[0]["notes"] if runs.traced else []:
            print(f"# note: {note}")
        OUT_DIR.mkdir(exist_ok=True)
        spans_file = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        traces = [{"wall_s": t["wall_s"], "spans": t["spans"]} for t in runs.traced]
        spans_file.write_text(json.dumps(traces))
        print(f"# spans: {spans_file.relative_to(ROOT)}")
    else:
        metrics = runs.end_to_end()
    for k, (value, unit) in metrics.items():
        print(f"{k} {_fmt(value)} {unit}")
    fail_frac = runs.failed / runs.attempted if runs.attempted else 1.0
    print(f"fail_frac {_fmt(fail_frac)} ratio")

    correct = runs.failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": max(runs.attempted, 1),
                "failed": runs.failed,
                "metrics": {
                    k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()
                    if v == v  # a failed sweep leaves NaN, which JSON cannot hold
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
