"""Run one experiment sweep in this (fresh) process and report it as JSON.

Usage: python3 perfbench/sweep.py CONFIG_JSON MODE

CONFIG_JSON holds the keyword arguments of ``helmtrefftz.harness.RunConfig``.
MODE is ``setup`` (import and exit), ``plain`` (untraced sweep) or
``traced`` (sweep with the layer spans of ``tracer.py`` installed).

The process imports the library from ``src/`` of the checkout this file sits
in, prints ``ready`` once NumPy, SciPy and ``helmtrefftz`` are imported (the
parent times process start to that line as set-up), runs the sweep through
``RunConfig`` + ``run_experiment``, and prints one JSON object as its last
line.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import warnings
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402
import scipy  # noqa: E402
import scipy.sparse.linalg as spla  # noqa: E402
from helmtrefftz import harness  # noqa: E402

from tracer import Tracer  # noqa: E402

# metric name -> span names it is computed from
_DEPENDS = {
    "mesh.build_s": ["mesh.build"],
    "mesh.elements": ["mesh.build"],
    "dg_assembly.sipdg_s": ["dg_assembly.sipdg"],
    "dg_assembly.rhs_s": ["dg_assembly.rhs"],
    "dg_assembly.nnz_A": ["dg_assembly.sipdg"],
    "local_trefftz.kernels_s": ["local_trefftz.kernels"],
    "local_trefftz.kernel_elements": ["local_trefftz.kernels"],
    "solve_pipeline.precond_s": ["solve_pipeline.precond"],
    "solve_pipeline.embedding_s": ["solve_pipeline.embedding"],
    "solve_pipeline.particular_s": ["solve_pipeline.particular"],
    "solve_pipeline.lu_factor_s": ["solve_pipeline.lu_factor"],
    "solve_pipeline.lu_factors": ["solve_pipeline.lu_factor"],
    "solve_pipeline.lu_solve_s": ["solve_pipeline.lu_factor"],
    "solve_pipeline.lu_solves": ["solve_pipeline.lu_factor"],
    "solve_pipeline.lu_nnz_max": ["solve_pipeline.lu_factor"],
    "solve_pipeline.lu_fill_ratio": ["solve_pipeline.lu_factor"],
    "solve_pipeline.lu_bytes_computed": ["solve_pipeline.lu_factor"],
    "solve_pipeline.direct_other_s": [
        "solve_pipeline.direct",
        "solve_pipeline.lu_factor",
    ],
    "solve_pipeline.singular_errors": ["solve_pipeline.direct"],
    "error_analysis.l2_s": ["error_analysis.l2"],
    "error_analysis.dg_s": ["error_analysis.dg"],
}


class WarningCounter:
    """``warnings.showwarning`` replacement that counts instead of printing.

    The per-element messages differ, so Python's once-per-location filter
    would print one line per element.
    """

    def __init__(self):
        self.counts = Counter()

    def __call__(self, message, category, filename, lineno, file=None, line=None):
        if category.__name__ == "KernelDimensionWarning":
            self.counts["kernel_dim"] += 1
        elif str(message).startswith("constraint residual"):
            self.counts["particular"] += 1


def _durations(spans, name):
    return [s["end"] - s["start"] for s in spans if s["name"] == name]


def layer_metrics(tracer: Tracer, wall_s: float, rows, warned: Counter):
    """Per-layer metrics {name: [value, unit]} and notes on dropped ones."""
    spans = tracer.spans
    child_time = Counter()
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]

    def total(name):
        return sum(_durations(spans, name))

    def attr_sum(name, key):
        return sum(s["attrs"].get(key, 0) for s in spans if s["name"] == name)

    def self_time(name):
        return sum(
            s["end"] - s["start"] - child_time[s["id"]]
            for s in spans
            if s["name"] == name
        )

    factors = [s["attrs"] for s in spans if s["name"] == "solve_pipeline.lu_factor"]
    largest = max(factors, key=lambda a: a["nnz_lu"], default=None)
    m = {
        "mesh.build_s": (total("mesh.build"), "s"),
        "mesh.elements": (attr_sum("mesh.build", "elements"), "count"),
        "dg_assembly.sipdg_s": (total("dg_assembly.sipdg"), "s"),
        "dg_assembly.rhs_s": (total("dg_assembly.rhs"), "s"),
        "dg_assembly.nnz_A": (attr_sum("dg_assembly.sipdg", "nnz"), "count"),
        "local_trefftz.kernels_s": (total("local_trefftz.kernels"), "s"),
        "local_trefftz.kernel_elements": (
            attr_sum("local_trefftz.kernels", "elements"),
            "count",
        ),
        "local_trefftz.kernel_dim_warnings": (warned["kernel_dim"], "count"),
        "solve_pipeline.precond_s": (total("solve_pipeline.precond"), "s"),
        "solve_pipeline.embedding_s": (total("solve_pipeline.embedding"), "s"),
        "solve_pipeline.particular_s": (total("solve_pipeline.particular"), "s"),
        "solve_pipeline.particular_warnings": (warned["particular"], "count"),
        "solve_pipeline.lu_factor_s": (total("solve_pipeline.lu_factor"), "s"),
        "solve_pipeline.lu_factors": (len(factors), "count"),
        "solve_pipeline.lu_solve_s": (total("solve_pipeline.lu_solve"), "s"),
        "solve_pipeline.lu_solves": (
            len(_durations(spans, "solve_pipeline.lu_solve")),
            "count",
        ),
        "solve_pipeline.lu_nnz_max": (largest["nnz_lu"] if largest else 0, "count"),
        "solve_pipeline.lu_fill_ratio": (
            largest["nnz_lu"] / largest["nnz_a"] if largest else 0.0,
            "ratio",
        ),
        # complex128 entries of the largest L+U: computed, not measured
        "solve_pipeline.lu_bytes_computed": (
            16 * largest["nnz_lu"] if largest else 0,
            "bytes",
        ),
        "solve_pipeline.direct_other_s": (self_time("solve_pipeline.direct"), "s"),
        "solve_pipeline.singular_errors": (
            sum(
                1
                for s in spans
                if s["name"] == "solve_pipeline.direct"
                and s["error"] == "SingularSystemError"
            ),
            "count",
        ),
        "error_analysis.l2_s": (total("error_analysis.l2"), "s"),
        "error_analysis.dg_s": (total("error_analysis.dg"), "s"),
        "harness.self_s": (
            wall_s - sum(s["end"] - s["start"] for s in spans if s["parent"] is None),
            "s",
        ),
        "harness.rows": (len(rows), "count"),
        "harness.dofs_total": (sum(r["dofs"] for r in rows), "count"),
    }

    missing_spans = set(tracer.missing.values())
    if not factors and _durations(spans, "solve_pipeline.direct"):
        missing_spans.add("solve_pipeline.lu_factor")
    notes = [f"not found, not traced: {name}" for name in tracer.missing]
    for metric, needs in _DEPENDS.items():
        lost = missing_spans.intersection(needs)
        if lost:
            del m[metric]
            notes.append(f"dropped {metric}: no spans for {', '.join(sorted(lost))}")
    return {k: [v, unit] for k, (v, unit) in m.items()}, notes


def _environment():
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
    }


def run_sweep(config_kwargs: dict, traced: bool) -> dict:
    config = harness.RunConfig(**config_kwargs)
    tracer = Tracer()
    counter = WarningCounter()
    error = None
    reports = []
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        warnings.showwarning = counter
        if traced:
            tracer.install(harness, spla)
        start = time.perf_counter()
        cpu_start = time.process_time()
        try:
            reports = harness.run_experiment(config)
        except Exception as exc:  # a failed sweep is reported, not raised
            error = f"{type(exc).__name__}: {exc}"
        wall_s = time.perf_counter() - start
        cpu_s = time.process_time() - cpu_start
        tracer.uninstall()
    rows = [
        {
            "method": r.method,
            "p": r.p,
            "hnr": r.hnr,
            "dofs": r.dofs,
            "l2error": r.l2error,
            "dgerror": r.dgerror,
        }
        for r in reports
    ]
    out = {
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "rows": rows,
        "error": error,
        "env": _environment(),
    }
    if traced:
        out["layers"], out["notes"] = layer_metrics(
            tracer, wall_s, rows, counter.counts
        )
        out["spans"] = tracer.spans
    return out


def main(argv):
    if len(argv) != 3 or argv[2] not in ("setup", "plain", "traced"):
        print(__doc__, file=sys.stderr)
        return 2
    print("ready", flush=True)
    if argv[2] == "setup":
        return 0
    result = run_sweep(json.loads(argv[1]), traced=argv[2] == "traced")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
