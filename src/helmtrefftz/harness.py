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
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

from .dg_assembly import (
    FormParameters,
    _check_positive_real,
    _is_integer,
    assemble_rhs,
    assemble_sipdg,
)
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
from .polyspace import (
    _data_order,
    _element_mass_grams,
    _gram_order,
    _shared_tables,
    dim_poly,
)
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


def _refuse_repeats(name: str, values: tuple) -> None:
    if len(set(values)) < len(values):
        raise ValueError(f"{name} repeat, got {name}={values}")


def _check_methods(methods: tuple) -> None:
    """Refuse an unknown, missing or repeated method."""
    for m in methods:
        if m not in METHOD_TAGS:
            raise ValueError(f"unknown method {m!r}")
    if not methods:
        raise ValueError("need at least one method")
    _refuse_repeats("methods", methods)


@dataclass(frozen=True)
class RunConfig:
    """One experiment run: method set, degrees, refinement ladder, output."""

    experiment: str
    methods: tuple[str, ...] = ("embedded", "standard")
    degrees: tuple[int, ...] = ()  # () means the experiment's default
    levels: int | None = None  # None means the experiment's default
    omegas: tuple[float, ...] = ()  # planewave only; () means (100.0,)
    alpha: float = 10.0
    out: str | Path | None = None
    dof_cap: int = 2_000_000

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ValueError(
                f"unknown experiment {self.experiment!r}; expected one of {EXPERIMENTS}"
            )
        object.__setattr__(self, "methods", tuple(self.methods))
        _check_methods(self.methods)
        degrees = tuple(self.degrees) or _DEFAULT_DEGREES[self.experiment]
        if not all(_is_integer(p) and p >= 1 for p in degrees):
            raise ValueError(f"degrees must be integers >= 1, got {degrees}")
        object.__setattr__(self, "degrees", tuple(int(p) for p in degrees))
        levels = self.levels
        if levels is None:
            levels = _DEFAULT_LEVELS[self.experiment]
        if not (_is_integer(levels) and levels >= 1):
            raise ValueError(f"levels must be an integer >= 1, got levels={levels}")
        levels = int(levels)
        if self.experiment == "sinsin" and levels > 1:
            raise ValueError(
                f"sinsin runs on one fixed mesh; levels must be 1, got levels={levels}"
            )
        if self.experiment == "planewave" and levels > len(PLANEWAVE_RINGS_LADDER):
            raise ValueError(
                f"the planewave ladder has {len(PLANEWAVE_RINGS_LADDER)} meshes; "
                f"levels must be at most that, got levels={levels}"
            )
        object.__setattr__(self, "levels", levels)
        for omega in self.omegas:
            _check_positive_real("omegas", omega)
        omegas = tuple(float(o) for o in self.omegas)
        if omegas and self.experiment != "planewave":
            raise ValueError(
                f"omegas apply to planewave only; {self.experiment} fixes its "
                f"wavenumber, got omegas={omegas}"
            )
        if self.experiment == "planewave":
            omegas = omegas or (100.0,)
        object.__setattr__(self, "omegas", omegas)
        _check_positive_real("alpha", self.alpha)
        if not (_is_integer(self.dof_cap) and self.dof_cap >= 1):
            raise ValueError(
                f"dof_cap must be an integer >= 1, got dof_cap={self.dof_cap!r}"
            )
        object.__setattr__(self, "dof_cap", int(self.dof_cap))
        for name in ("degrees", "omegas"):
            _refuse_repeats(name, getattr(self, name))
        out = None if self.out is None else Path(self.out)
        if out is not None and (out.is_dir() or not out.parent.is_dir()):
            raise ValueError(
                f"out must name a file in an existing directory, got out={str(out)!r}"
            )


def solve(
    mesh: Mesh,
    params: FormParameters,
    f: Callable | None,
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
    and both fields share its coefficients.  methods must be known and
    distinct.

    Tables: the SIPDG assembly runs before solve opens a scope, so it
    shares its Gram-rule tables only with a caller's scope of that rule.
    The mass Grams and the local constraints then read one set at the
    Gram rule, dropped before the first factorization; the load vector
    and the particular field read one at the data rule.  A set outlives
    the solve when the caller holds a scope of its rule open: _rung
    holds one at the data rule for the error rows, which from p = 14 on
    is also the Gram rule.  Each method's basis, the whitener R or the
    L2-orthonormal embedding T = E Q, is one stacked array that carries
    its column layout and clip flag, built before the first
    factorization, which sets the peak memory; the local data, the raw
    embedding E and the mass Grams are dropped by then.

    f None means no source: the load vector is then the boundary term
    alone and the particular field zero, neither built from volume
    tables, bitwise what a zero source gives.  Each field carries the
    number of dofs its method solved for.  A near-singular system raises
    SingularSystemError with context (by default p and h) and the method
    in its message.
    """
    methods = tuple(methods)
    if params.p < 1:
        raise ValueError(f"DG solve needs p >= 1, got p={params.p}")
    _check_methods(methods)
    if context is None:
        context = f"p={params.p}, h={mesh.max_diameter:.4g}"
    A = assemble_sipdg(mesh, params)
    embedded = "embedded" in methods and params.p >= 2
    local = u_f = whitener = None
    with _shared_tables(_gram_order(params.p)):
        mass_grams = _element_mass_grams(mesh, params.p)
        if embedded:
            local = all_local_trefftz(mesh, params.p, params.omega, mass_grams)
            embedding = build_global_embedding(local)
    with _shared_tables(_data_order(params.p)):
        b = assemble_rhs(mesh, params, f, g)
        if embedded:
            u_f = particular_field(mesh, local, f)
    # the first LU sets the peak memory: nothing dead may be alive there
    if "standard" in methods or params.p < 2:
        whitener = mass_preconditioner(mass_grams)
    if embedded:
        embedding = embedding_preconditioner(embedding, mass_grams)
    del local, mass_grams
    out = {}
    broken = None  # the broken-space solution, solved at most once
    for method in methods:
        method_context = f"{context}, {method}"
        if method == "standard" or params.p < 2:
            if broken is None:
                broken = _direct_solve(
                    A, b, method_context, whitener, mesh.dissection_order
                )
            coeffs = broken
            dofs = A.shape[0]
        else:
            coeffs = solve_reduced_system(
                A, b, embedding, u_f, method_context, mesh.dissection_order
            )
            dofs = embedding.n_columns
        out[method] = SolutionField(coeffs, params.p, mesh, dofs)
    return out


def _rung(
    case: ManufacturedCase,
    params: FormParameters,
    mesh: Mesh,
    hnr: int,
    context: str,
    methods: Sequence[str],
) -> list[ErrorReport]:
    """Solve one rung and report one row per method, in the order of methods.

    One scope at the data rule spans both: the load vector, the
    particular field and both norms of every method read one set of
    volume and boundary tables, dropped when the rung ends.  The rows
    are bitwise those of solve and the norms with no scope open.
    """
    with _shared_tables(_data_order(params.p)):
        solved = solve(mesh, params, case.f, case.g, methods, context)
        return [
            ErrorReport(
                method=METHOD_TAGS[method],
                p=fld.degree,
                h=mesh.max_diameter,
                hnr=hnr,
                dofs=fld.dofs,
                l2error=l2_error(fld, case),
                dgerror=dg_error(fld, case),
                omega=case.omega_report,
                dofspwl=dofs_per_wavelength(
                    fld.dofs, case.omega_representative, mesh.domain_area
                ),
            )
            for method, fld in solved.items()
        ]


def _square_meshes(levels: int) -> list[Mesh]:
    return [
        build_unit_square_mesh(SQUARE_BASE_SUBDIVISIONS * 2**lvl)
        for lvl in range(levels)
    ]


def _check_square_budget(config: RunConfig):
    n_max = SQUARE_BASE_SUBDIVISIONS * 2 ** (config.levels - 1)
    worst = 2 * n_max**2 * dim_poly(max(config.degrees))
    if worst > config.dof_cap:
        raise ValueError(
            f"configuration needs {worst} dofs at the finest level, above the "
            f"cap of {config.dof_cap}; lower the levels/degrees or raise --dof-cap"
        )


def _run_square_experiment(config: RunConfig, case: ManufacturedCase):
    _check_square_budget(config)
    meshes = _square_meshes(config.levels)
    reports = []
    for p in config.degrees:
        params = FormParameters(omega=case.omega, p=p, alpha=config.alpha)
        for hnr, mesh in enumerate(meshes):
            context = f"{config.experiment}, p={p}, hnr={hnr}"
            reports.extend(_rung(case, params, mesh, hnr, context, config.methods))
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
                reports.extend(_rung(case, params, mesh, hnr, context, config.methods))
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
    """Read back a CSV written by emit_csv.

    A malformed row raises a ValueError that names the file and line.
    """
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"{path} is not an experiment table")
    reports = []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        try:
            if len(parts) != 9:
                raise ValueError(f"expected 9 fields, got {len(parts)}")
            method, p, h, hnr, dofs, l2error, dgerror, omega, dofspwl = parts
            try:
                omega = float(omega)
            except ValueError:
                pass  # a label such as "5+sin(x)+y^2"
            reports.append(
                ErrorReport(
                    method, int(p), float(h), int(hnr), int(dofs),
                    float(l2error), float(dgerror), omega, float(dofspwl),
                )
            )
        except ValueError as exc:
            raise ValueError(f"{path}, line {lineno}: {exc}") from None
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
