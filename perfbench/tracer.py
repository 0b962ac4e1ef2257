"""Span tracer that wraps the harness's calls into each library layer.

The harness imports its collaborators by name (``from .dg_assembly import
assemble_sipdg`` and so on), so the tracer replaces those bindings inside
``helmtrefftz.harness`` rather than the definitions in their home modules.
``solve_pipeline`` looks ``scipy.sparse.linalg.splu`` up at call time, so the
factorization is patched there, and the returned factor is wrapped so that
each ``.solve`` call becomes a span of its own.

A binding the harness no longer has is skipped and recorded in
``Tracer.missing`` with the span it would have fed; the metrics that depend
on it are then dropped with a note instead of failing the run.
"""

from __future__ import annotations

import functools
import time

# harness attribute -> span name
HARNESS_LAYERS = {
    "build_unit_disk_mesh": "mesh.build",
    "build_unit_square_mesh": "mesh.build",
    "assemble_sipdg": "dg_assembly.sipdg",
    "assemble_rhs": "dg_assembly.rhs",
    "all_local_trefftz": "local_trefftz.kernels",
    "_element_mass_grams": "solve_pipeline.precond",
    "mass_preconditioner": "solve_pipeline.precond",
    "embedding_preconditioner": "solve_pipeline.precond",
    "build_global_embedding": "solve_pipeline.embedding",
    "particular_field": "solve_pipeline.particular",
    "_direct_solve": "solve_pipeline.direct",
    "solve_reduced_system": "solve_pipeline.direct",
    "l2_error": "error_analysis.l2",
    "dg_error": "error_analysis.dg",
}


def _result_attrs(name: str, result) -> dict:
    """Sizes read off a layer's return value; cheap attribute reads only."""
    if name == "mesh.build":
        return {"elements": int(result.n_elements)}
    if name == "dg_assembly.sipdg":
        return {"nnz": int(result.nnz)}
    if name == "local_trefftz.kernels":
        return {"elements": len(result)}
    return {}


class Tracer:
    """Keeps spans in memory: (id, name, start, end, parent, attrs, error)."""

    def __init__(self):
        self.spans: list[dict] = []
        self.missing: dict[str, str] = {}  # patch target -> span name
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _run(self, name, fn, args, kwargs, attrs_of=None):
        span = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
            "attrs": {},
            "error": None,
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            span["error"] = type(exc).__name__
            raise
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()
        if attrs_of is not None:
            span["attrs"] = attrs_of(result, *args)
        else:
            span["attrs"] = _result_attrs(name, result)
        return result

    def wrap(self, name, fn, attrs_of=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._run(name, fn, args, kwargs, attrs_of)

        return traced

    def _patch(self, owner, attr, replacement):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self, harness, spla):
        """Patch the harness bindings and scipy's ``splu``."""
        for attr, name in HARNESS_LAYERS.items():
            if not hasattr(harness, attr):
                self.missing[f"helmtrefftz.harness.{attr}"] = name
                continue
            self._patch(harness, attr, self.wrap(name, getattr(harness, attr)))
        if not hasattr(spla, "splu"):
            self.missing["scipy.sparse.linalg.splu"] = "solve_pipeline.lu_factor"
            return
        tracer = self

        def factor_attrs(lu, A, *_):
            return {"nnz_lu": int(lu.nnz), "nnz_a": int(A.nnz), "n": int(A.shape[0])}

        splu = self.wrap("solve_pipeline.lu_factor", spla.splu, factor_attrs)

        @functools.wraps(spla.splu)
        def traced_splu(*args, **kwargs):
            return _TracedFactor(splu(*args, **kwargs), tracer)

        self._patch(spla, "splu", traced_splu)

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


class _TracedFactor:
    """SuperLU proxy whose ``solve`` calls are recorded as spans."""

    def __init__(self, lu, tracer: Tracer):
        self._lu = lu
        self._solve = tracer.wrap("solve_pipeline.lu_solve", lu.solve)

    def solve(self, *args, **kwargs):
        return self._solve(*args, **kwargs)

    def __getattr__(self, attr):
        return getattr(self._lu, attr)
