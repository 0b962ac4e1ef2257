"""The solve path and the experiment harness built on it.

solve() assembles the SIPDG system once and solves it with the embedded
Trefftz method, the standard DG method, or both; every experiment row
and every library solve goes through it.  perfbench/tracer.py times the
layers by patching the names this module imports, so the layer calls
stay here.

Four experiment suites are built in:

  hankel     h-refinement on the unit square against a radiating
             Hankel-function solution (omega = 10)
  sinsin     p-refinement on a fixed coarse square mesh against
             sin(pi x) sin(pi y) (omega = 1)
  planewave  wavenumber sweep on the unit disk against a plane wave,
             reported against dofs per wavelength
  varomega   h-refinement with the smoothly varying wavenumber
             5 + sin(x) + y^2

Each (method, degree, level) combination yields one CSV row with the
columns method,p,h,hnr,dofs,l2error,dgerror,omega,dofspwl.  Identical
configurations produce byte-identical CSV files at a fixed BLAS thread
count.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

from .dg_assembly import FormParameters, assemble_rhs, assemble_sipdg
from .error_analysis import ErrorReport, dg_error, dofs_per_wavelength, eoc, l2_error
from .exact_solutions import (
    ManufacturedCase,
    hankel_case,
    plane_wave_case,
    sinsin_case,
    var_omega_case,
)
from .local_trefftz import all_local_trefftz
from .mesh import Mesh, build_unit_disk_mesh, build_unit_square_mesh
from .polyspace import MAX_QUAD_ORDER, _element_mass_grams, dim_poly
from .solve_pipeline import (
    SolutionField,
    _direct_solve,
    build_global_embedding,
    embedding_preconditioner,
    mass_preconditioner,
    particular_field,
    solve_reduced_system,
)

__all__ = [
    "solve",
    "RunConfig",
    "METHOD_TAGS",
    "PLANEWAVE_RINGS_LADDER",
    "run_experiment",
    "emit_csv",
    "parse_csv",
    "summarize",
]

METHOD_TAGS = {"embedded": "etvol", "standard": "dgvol"}

EXPERIMENTS = ("hankel", "sinsin", "planewave", "varomega")

# square experiments start from a 4x4 grid and refine uniformly
SQUARE_BASE_SUBDIVISIONS = 4
PLANEWAVE_RINGS_LADDER = (4, 6, 8, 12, 16, 24, 32, 40, 48, 64, 80, 96, 112, 128)
PLANEWAVE_DEFAULT_LEVELS = 7

# sinsin stops at p=12: beyond that the scaled monomial basis exhausts
# double precision on the fixed coarse mesh and the solver refuses
_DEFAULT_DEGREES = {
    "hankel": (3, 4, 5),
    "sinsin": tuple(range(2, 13)),
    "planewave": (2, 3, 4),
    "varomega": (3, 4, 5),
}
_DEFAULT_LEVELS = {
    "hankel": 4,
    "sinsin": 1,
    "planewave": PLANEWAVE_DEFAULT_LEVELS,
    "varomega": 4,
}


@dataclass(frozen=True)
class RunConfig:
    """One experiment run: method set, degrees, refinement ladder, output."""

    experiment: str
    methods: tuple[str, ...] = ("embedded", "standard")
    degrees: tuple[int, ...] = ()
    levels: int = 0
    omegas: tuple[float, ...] = (100.0,)
    alpha: float = 10.0
    out: str | Path | None = None
    dof_cap: int = 2_000_000
    quad_bump: int = 0

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ValueError(
                f"unknown experiment {self.experiment!r}; expected one of {EXPERIMENTS}"
            )
        object.__setattr__(self, "methods", tuple(self.methods))
        for m in self.methods:
            if m not in METHOD_TAGS:
                raise ValueError(f"unknown method {m!r}")
        if not self.methods:
            raise ValueError("need at least one method")
        degrees = tuple(self.degrees) or _DEFAULT_DEGREES[self.experiment]
        if any(p < 1 for p in degrees):
            raise ValueError(f"degrees must be >= 1, got {degrees}")
        object.__setattr__(self, "degrees", degrees)
        levels = self.levels or _DEFAULT_LEVELS[self.experiment]
        if levels < 1:
            raise ValueError("need at least one refinement level")
        object.__setattr__(self, "levels", levels)
        omegas = tuple(float(o) for o in self.omegas)
        if not all(math.isfinite(o) and o > 0.0 for o in omegas):
            raise ValueError(f"omegas must be finite and positive, got {omegas}")
        object.__setattr__(self, "omegas", omegas)
        if not (math.isfinite(self.alpha) and self.alpha > 0.0):
            raise ValueError(
                f"penalty alpha must be finite and positive, got alpha={self.alpha}"
            )
        if self.dof_cap < 1:
            raise ValueError(f"dof_cap must be >= 1, got dof_cap={self.dof_cap}")
        if self.quad_bump < 0:
            raise ValueError(f"quad_bump must be >= 0, got quad_bump={self.quad_bump}")


def _error_quad_order(p: int, bump: int) -> int:
    return min(2 * p + 6 + bump, MAX_QUAD_ORDER)


def solve(
    mesh: Mesh,
    params: FormParameters,
    f: Callable,
    g: Callable,
    methods: Sequence[str] = ("embedded", "standard"),
    context: str | None = None,
) -> dict[str, SolutionField]:
    """Solve the impedance Helmholtz problem once per method; {method: field}.

    The SIPDG system, its right-hand side and the element mass Grams are
    built once and shared by both methods (the Grams by both
    preconditioners and, for p >= 6, the kernel orthonormalization):
    "standard" solves the system on the broken degree-p space, "embedded"
    the reduced system on the embedded Trefftz space, which for p < 2 is
    the broken space itself: that system is solved once, as "standard",
    and both fields share its coefficients.  Each field carries the
    number of dofs its method solved for.  A near-singular system raises
    SingularSystemError with context (by default p and h) and the method
    in its message.
    """
    if params.p < 1:
        raise ValueError(f"DG solve needs p >= 1, got p={params.p}")
    for method in methods:
        if method not in METHOD_TAGS:
            raise ValueError(f"unknown method {method!r}")
    if context is None:
        context = f"p={params.p}, h={mesh.max_diameter:.4g}"
    A = assemble_sipdg(mesh, params)
    b = assemble_rhs(mesh, params, f, g)
    mass_grams = _element_mass_grams(mesh, params.p)
    out = {}
    broken = None  # the broken-space solution, solved at most once
    for method in methods:
        if method == "standard" or params.p < 2:
            if broken is None:
                broken = _direct_solve(
                    A,
                    b,
                    context=f"{context}, {method}",
                    bases=[mass_preconditioner(mass_grams)],
                    order=mesh.dissection_order,
                )
            coeffs = broken
            dofs = A.shape[0]
        else:
            local = all_local_trefftz(mesh, params.p, params.omega, mass_grams)
            embedding = build_global_embedding(local)
            u_f = particular_field(mesh, local, f)
            coeffs = solve_reduced_system(
                A,
                b,
                embedding,
                u_f,
                context=f"{context}, {method}",
                precond=embedding_preconditioner(embedding, mass_grams),
                mesh=mesh,
            )
            dofs = embedding.n_columns
        tag = "embedded-trefftz" if method == "embedded" else "standard-dg"
        out[method] = SolutionField(coeffs, params.p, mesh, tag, dofs)
    return out


def _report_rows(config, mesh, case, p, hnr, solved):
    rows = []
    order = _error_quad_order(p, config.quad_bump)
    for method in config.methods:
        fld = solved[method]
        rows.append(
            ErrorReport(
                method=METHOD_TAGS[method],
                p=p,
                h=mesh.max_diameter,
                hnr=hnr,
                dofs=fld.dofs,
                l2error=l2_error(fld, case, order=order),
                dgerror=dg_error(fld, case, order=order),
                omega=case.omega_report,
                dofspwl=dofs_per_wavelength(
                    fld.dofs, case.omega_representative, mesh.domain_area
                ),
            )
        )
    return rows


def _square_meshes(levels: int) -> list[Mesh]:
    return [
        build_unit_square_mesh(SQUARE_BASE_SUBDIVISIONS * 2**lvl)
        for lvl in range(levels)
    ]


def _check_square_budget(config: RunConfig, levels: int):
    n_max = SQUARE_BASE_SUBDIVISIONS * 2 ** (levels - 1)
    worst = 2 * n_max**2 * dim_poly(max(config.degrees))
    if worst > config.dof_cap:
        raise ValueError(
            f"configuration needs {worst} dofs at the finest level, above the "
            f"cap of {config.dof_cap}; lower the levels/degrees or raise --dof-cap"
        )


def _run_square_experiment(config: RunConfig, case: ManufacturedCase):
    levels = config.levels if config.experiment != "sinsin" else 1
    _check_square_budget(config, levels)
    meshes = _square_meshes(levels)
    reports = []
    for p in config.degrees:
        params = FormParameters(omega=case.omega, p=p, alpha=config.alpha)
        for hnr, mesh in enumerate(meshes):
            context = f"{config.experiment}, p={p}, hnr={hnr}"
            solved = solve(mesh, params, case.f, case.g, config.methods, context)
            reports.extend(_report_rows(config, mesh, case, p, hnr, solved))
    return reports


def _run_planewave(config: RunConfig):
    ladder = PLANEWAVE_RINGS_LADDER[: config.levels]
    reports = []
    mesh_cache: dict[int, Mesh] = {}
    for omega in config.omegas:
        case = plane_wave_case(omega)
        for p in config.degrees:
            rings_used = [
                r for r in ladder if 6 * r**2 * dim_poly(p) <= config.dof_cap
            ]
            if not rings_used:
                raise ValueError(
                    f"dof cap {config.dof_cap} excludes every mesh at p={p}"
                )
            params = FormParameters(omega=omega, p=p, alpha=config.alpha)
            for hnr, rings in enumerate(rings_used):
                if rings not in mesh_cache:
                    mesh_cache[rings] = build_unit_disk_mesh(rings)
                mesh = mesh_cache[rings]
                context = f"planewave, omega={omega:g}, p={p}, rings={rings}"
                solved = solve(mesh, params, case.f, case.g, config.methods, context)
                reports.extend(_report_rows(config, mesh, case, p, hnr, solved))
    return reports


def run_experiment(config: RunConfig) -> list[ErrorReport]:
    """Run an experiment grid; write CSV when config.out is set.

    Solver singularities propagate as SingularSystemError with the
    offending (p, h, omega) in the message.
    """
    if config.experiment == "hankel":
        reports = _run_square_experiment(config, hankel_case(10.0))
    elif config.experiment == "sinsin":
        reports = _run_square_experiment(config, sinsin_case(1.0))
    elif config.experiment == "varomega":
        reports = _run_square_experiment(config, var_omega_case())
    else:
        reports = _run_planewave(config)
    if config.out is not None:
        emit_csv(reports, config.out)
    return reports


CSV_HEADER = "method,p,h,hnr,dofs,l2error,dgerror,omega,dofspwl"


def _format_value(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def emit_csv(reports: list[ErrorReport], path: str | Path) -> Path:
    """Write reports as CSV (shortest round-trip float format)."""
    if not reports:
        raise ValueError("refusing to write an empty report table")
    path = Path(path)
    with open(path, "w", newline="") as handle:
        handle.write(CSV_HEADER + "\n")
        for r in reports:
            fields = [
                r.method,
                str(r.p),
                repr(r.h),
                str(r.hnr),
                str(r.dofs),
                repr(r.l2error),
                repr(r.dgerror),
                _format_value(r.omega),
                repr(r.dofspwl),
            ]
            handle.write(",".join(fields) + "\n")
    return path


def parse_csv(path: str | Path) -> list[ErrorReport]:
    """Read back a CSV written by emit_csv."""
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"{path} is not an experiment table")
    reports = []
    for line in lines[1:]:
        parts = line.split(",")
        try:
            omega: float | str = float(parts[7])
        except ValueError:
            omega = parts[7]
        reports.append(
            ErrorReport(
                method=parts[0],
                p=int(parts[1]),
                h=float(parts[2]),
                hnr=int(parts[3]),
                dofs=int(parts[4]),
                l2error=float(parts[5]),
                dgerror=float(parts[6]),
                omega=omega,
                dofspwl=float(parts[8]),
            )
        )
    return reports


def summarize(reports: list[ErrorReport]) -> str:
    """Fixed-width table with per-group empirical convergence rates."""
    groups: dict[tuple[str, int, str], list[ErrorReport]] = {}
    for r in reports:
        groups.setdefault((r.method, r.p, str(r.omega)), []).append(r)

    out = io.StringIO()
    header = (
        f"{'method':>8} {'p':>3} {'omega':>14} {'hnr':>4} {'h':>11} {'dofs':>9} "
        f"{'l2error':>12} {'dgerror':>12} {'l2eoc':>7} {'dgeoc':>7}"
    )
    out.write(header + "\n")
    out.write("-" * len(header) + "\n")
    for key in sorted(groups):
        rows = sorted(groups[key], key=lambda r: r.hnr)
        prev = None
        for r in rows:
            l2r = dgr = "-"
            if prev is not None and prev.h > r.h and r.l2error > 0 and r.dgerror > 0:
                l2r = f"{eoc([prev.l2error, r.l2error], [prev.h, r.h])[0]:.2f}"
                dgr = f"{eoc([prev.dgerror, r.dgerror], [prev.h, r.h])[0]:.2f}"
            out.write(
                f"{r.method:>8} {r.p:>3} {str(r.omega):>14} {r.hnr:>4} "
                f"{r.h:>11.4e} {r.dofs:>9} {r.l2error:>12.4e} {r.dgerror:>12.4e} "
                f"{l2r:>7} {dgr:>7}\n"
            )
            prev = r
    return out.getvalue()
