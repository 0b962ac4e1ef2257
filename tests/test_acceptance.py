"""Acceptance suite: one test (and one printed PASS/FAIL line) per criterion.

The expensive experiment grids are shared through module-scoped fixtures.
Each criterion pins its tolerances here; nothing is calibrated at runtime.
Run with `pytest -s tests/test_acceptance.py` to see the summary lines.

The large-wavenumber threshold trend walks the planewave ladder at
omega=100 up to 128 rings: its p=2 crossings need direct solves of up to
491,520 dofs.  With the mesh's nested-dissection ordering a whole Tier-1
run, that walk included, takes about 8.5 minutes and peaks near 3.0 GB of
RSS on a 2-core machine.  On a smaller host, lower
HELMTREFFTZ_PLANEWAVE_DOF_CAP (default 600000); the criterion then fails,
naming the degrees whose crossing the cap cut off.

The criteria that read an experiment sweep are marked ``slow``;
``pytest -m "not slow"`` runs everything else.
"""

import os
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
import scipy.sparse.linalg as spla
from scipy.special import j0, j1, y0, y1

from helmtrefftz.dg_assembly import FormParameters, assemble_rhs, assemble_sipdg
from helmtrefftz.error_analysis import (
    eoc,
    estimate_inverse_trace,
    estimate_local_coercivity,
    estimate_norm_equivalence,
)
from helmtrefftz.exact_solutions import plane_wave_case, sinsin_case
from helmtrefftz.harness import (
    METHOD_TAGS,
    PLANEWAVE_RINGS_LADDER,
    RunConfig,
    _report_rows,
    run_experiment,
    solve,
)
from helmtrefftz.local_trefftz import all_local_trefftz
from helmtrefftz.mesh import (
    build_unit_disk_mesh,
    build_unit_square_mesh,
    mesh_from_triangulation,
)
from helmtrefftz.polyspace import _element_mass_grams, dim_poly
from helmtrefftz.solve_pipeline import (
    build_global_embedding,
    embedding_preconditioner,
    particular_field,
    solve_reduced_system,
)
from helpers import (
    embedding_matrix,
    oracle_j0,
    oracle_j1,
    oracle_y0,
    oracle_y1,
    polynomial_problem,
    project,
    refine,
)

PLANEWAVE_DOF_CAP = int(os.environ.get("HELMTREFFTZ_PLANEWAVE_DOF_CAP", "600000"))
PLANEWAVE_L2_BAR = 0.1


def report(name: str, passed: bool, detail: str):
    print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    assert passed, f"{name}: {detail}"


def final_rates(reports, method, p, field):
    rows = sorted(
        (r for r in reports if r.method == method and r.p == p),
        key=lambda r: r.hnr,
    )
    errs = [getattr(r, field) for r in rows[-2:]]
    hs = [r.h for r in rows[-2:]]
    return eoc(errs, hs)[0]


@pytest.fixture(scope="module")
def hankel_reports():
    return run_experiment(
        RunConfig(experiment="hankel", degrees=(3, 4, 5), levels=4)
    )


@pytest.fixture(scope="module")
def sinsin_reports():
    return run_experiment(RunConfig(experiment="sinsin", degrees=tuple(range(2, 13))))


@pytest.fixture(scope="module")
def varomega_reports():
    return run_experiment(
        RunConfig(experiment="varomega", degrees=(3, 4, 5), levels=4)
    )


@pytest.fixture(scope="module")
def planewave_walks():
    """Harness rows of the omega=100 planewave ladder, per (method, p).

    Each walk ends at its first rung with L2 error below the bar, the only
    rung the threshold criterion reads, or at the last rung the dof cap
    admits (trimmed as the harness trims: 6 rings^2 dim P^p <= cap).
    """
    omega = 100.0
    case = plane_wave_case(omega)
    walks = {(m, p): [] for m in ("embedded", "standard") for p in (2, 3, 4)}
    for rings in PLANEWAVE_RINGS_LADDER:
        mesh = None
        for p in (2, 3, 4):
            if 6 * rings**2 * dim_poly(p) > PLANEWAVE_DOF_CAP:
                continue
            methods = tuple(
                m
                for m in ("embedded", "standard")
                if not walks[m, p] or walks[m, p][-1].l2error >= PLANEWAVE_L2_BAR
            )
            if not methods:
                continue
            if mesh is None:
                mesh = build_unit_disk_mesh(rings)
            params = FormParameters(omega=omega, p=p)
            context = f"planewave walk, p={p}, rings={rings}"
            solved = solve(mesh, params, case.f, case.g, methods, context)
            hnr = len(walks[methods[0], p])
            rows = _report_rows(case, hnr, solved)
            for method, row in zip(methods, rows):
                walks[method, p].append(row)
    return walks


@pytest.mark.slow
def test_criterion_h_convergence(hankel_reports):
    # unit square, radiating solution, omega=10: final EOC near p (DG norm)
    # and p+1 (L2 norm) for both methods at p = 3, 4, 5
    lines = []
    ok = True
    for method in ("etvol", "dgvol"):
        for p in (3, 4, 5):
            l2_rate = final_rates(hankel_reports, method, p, "l2error")
            dg_rate = final_rates(hankel_reports, method, p, "dgerror")
            good = (p + 0.7 <= l2_rate <= p + 1.3) and (p - 0.3 <= dg_rate <= p + 0.3)
            ok &= good
            lines.append(f"{method} p={p}: L2 {l2_rate:.2f}, DG {dg_rate:.2f}")
    report("h-convergence rates (hankel)", ok, "; ".join(lines))


@pytest.mark.slow
def test_criterion_p_convergence(sinsin_reports):
    # fixed coarse mesh: log10(dgerror) falls by >= 0.6 per degree on p=3..9
    ok = True
    details = []
    for method in ("etvol", "dgvol"):
        rows = {r.p: r for r in sinsin_reports if r.method == method}
        drops = [
            np.log10(rows[p].dgerror) - np.log10(rows[p + 1].dgerror)
            for p in range(3, 9)
        ]
        ok &= all(d >= 0.6 for d in drops)
        details.append(f"{method} min drop {min(drops):.2f}")
    report("p-convergence (sinsin, drops over p=3..9)", ok, "; ".join(details))


@pytest.mark.slow
def test_criterion_dof_reduction(hankel_reports):
    mesh = build_unit_square_mesh(2)
    ok = True
    details = []
    for p in range(2, 9):
        emb = build_global_embedding(all_local_trefftz(mesh, p, 1.0)).n_columns
        std = mesh.n_elements * dim_poly(p)
        exact = emb == mesh.n_elements * (2 * p + 1) and Fraction(emb, std) == Fraction(
            4 * p + 2, (p + 1) * (p + 2)
        )
        ok &= exact
        if p == 8:
            details.append(f"p=8: {emb}/{std} dofs")
    # every embedded run reports exactly (2p+1) dofs per element
    for r in hankel_reports:
        if r.method == "etvol":
            elements = 2 * (4 * 2**r.hnr) ** 2
            ok &= r.dofs == elements * (2 * r.p + 1)
    report("dof reduction (2p+1 per element, exact)", ok, "; ".join(details))


def test_criterion_patch_exactness():
    mesh = refine(build_unit_square_mesh(2))
    omega = 3.0
    worst = 0.0
    for p in (2, 3, 4):
        u_cb, f_cb, g_cb = polynomial_problem(p, omega)
        exact = project(mesh, p, u_cb)
        params = FormParameters(omega=omega, p=p)
        for field in solve(mesh, params, f_cb, g_cb).values():
            err = np.linalg.norm(field.coefficients - exact) / np.linalg.norm(exact)
            worst = max(worst, err)
    report(
        "patch test (polynomial reproduction, both solvers)",
        worst <= 1e-9,
        f"worst relative coefficient error {worst:.2e}",
    )


def test_criterion_gauge_invariance():
    # perturbing the particular solution by kernel fields is absorbed
    mesh = build_unit_square_mesh(4)
    p, omega = 3, 10.0
    case = sinsin_case(omega)
    params = FormParameters(omega=omega, p=p)
    local = all_local_trefftz(mesh, p, omega)
    emb = build_global_embedding(local)
    u_f = particular_field(mesh, local, case.f)
    A = assemble_sipdg(mesh, params)
    b = assemble_rhs(mesh, params, case.f, case.g)
    precond = embedding_preconditioner(emb, _element_mass_grams(mesh, p))
    base = solve_reduced_system(A, b, emb, u_f, "gauge", precond, mesh)
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(20):
        z = rng.standard_normal(emb.n_columns) + 1j * rng.standard_normal(
            emb.n_columns
        )
        shifted = u_f + embedding_matrix(emb) @ z
        moved = solve_reduced_system(A, b, emb, shifted, "gauge", precond, mesh)
        worst = max(worst, np.linalg.norm(moved - base) / np.linalg.norm(base))
    report(
        "gauge invariance of the particular solution (20 trials)",
        worst <= 1e-9,
        f"worst relative change {worst:.2e}",
    )


def test_criterion_kernel_dimension_law():
    # (1 + omega^2) h <= 1 on all three mesh/wavenumber pairs
    configs = [(2, 0.6), (4, 1.2), (8, 2.0)]
    violations = 0
    checked = 0
    for n, omega in configs:
        mesh = build_unit_square_mesh(n)
        assert (1.0 + omega**2) * mesh.max_diameter <= 1.0
        for p in range(2, 9):
            local = all_local_trefftz(mesh, p, omega)
            checked += len(local)
            violations += np.count_nonzero(local.kernel_dims != 2 * p + 1)
    report(
        "kernel dimension law (2p+1 on resolved meshes)",
        violations == 0,
        f"{checked} element kernels checked, {violations} violations",
    )


def test_criterion_complex_symmetry():
    worst = 0.0
    for mesh in (build_unit_square_mesh(2), build_unit_disk_mesh(2)):
        for p in (1, 2, 3, 4):
            for omega in (1.0, 10.0):
                A = assemble_sipdg(mesh, FormParameters(omega=omega, p=p))
                worst = max(worst, spla.norm(A - A.T) / spla.norm(A))
                if p >= 2:
                    E = embedding_matrix(
                        build_global_embedding(all_local_trefftz(mesh, p, omega))
                    )
                    R = E.T @ (A @ E)
                    worst = max(worst, spla.norm(R - R.T) / spla.norm(R))
    report(
        "complex symmetry of full and reduced matrices",
        worst <= 1e-12,
        f"worst ||A - A^T||/||A|| = {worst:.2e}",
    )


@pytest.mark.slow
def test_criterion_variable_wavenumber(varomega_reports):
    lines = []
    ok = True
    for method in ("etvol", "dgvol"):
        for p in (3, 4, 5):
            l2_rate = final_rates(varomega_reports, method, p, "l2error")
            dg_rate = final_rates(varomega_reports, method, p, "dgerror")
            good = (p + 0.7 <= l2_rate <= p + 1.3) and (p - 0.3 <= dg_rate <= p + 0.3)
            ok &= good
            lines.append(f"{method} p={p}: L2 {l2_rate:.2f}, DG {dg_rate:.2f}")
    report("variable-wavenumber rates (5 + sin x + y^2)", ok, "; ".join(lines))


@pytest.mark.slow
def test_criterion_large_omega_threshold_trend(planewave_walks):
    # accuracy threshold: first ladder point with L2 error below 0.1;
    # its dofs-per-wavelength must strictly decrease from p=2 to p=4
    details = []
    ok = True
    for method in ("embedded", "standard"):
        thresholds = {}
        for p in (2, 3, 4):
            rows = planewave_walks[method, p]
            tag = METHOD_TAGS[method]
            if not rows or rows[-1].l2error >= PLANEWAVE_L2_BAR:
                ok = False
                finest = "none"
                if rows:
                    finest = f"{rows[-1].l2error:.2e} at {rows[-1].dofs} dofs"
                details.append(
                    f"{tag} p={p}: no crossing within dof cap "
                    f"{PLANEWAVE_DOF_CAP} (finest reached: {finest})"
                )
            else:
                thresholds[p] = rows[-1].dofspwl
                details.append(
                    f"{tag} p={p}: N_lambda {rows[-1].dofspwl:.2f} "
                    f"(L2 {rows[-1].l2error:.4e} at {rows[-1].dofs} dofs)"
                )
        if len(thresholds) == 3:
            ok &= thresholds[2] > thresholds[3] > thresholds[4]
    if not ok:
        details.append(
            "the crossings at omega=100 sit at up to 128 rings, a rung the "
            "harness rule admits at p=2 only for a cap of at least 589,824; "
            "a lower HELMTREFFTZ_PLANEWAVE_DOF_CAP cuts it off, and the "
            "criterion cannot pass"
        )
    report("large-wavenumber threshold trend (omega=100)", ok, "; ".join(details))


def test_criterion_constant_diagnostics():
    failures = []
    # inverse trace on the reference triangle, p=1..8.  The sharp trace
    # inequality (Warburton & Hesthaven, CMAME 2003) gives, with
    # T = sqrt((p+1)(p+2)/2), the bracket
    #   T sqrt(max_F |F| h/|K|)/p <= value <= T sqrt(|dK| h/|K|)/p,
    # the lower end attained by a single face.  Normalized by T/p the
    # estimate must then vary by at most a factor 2.
    ref = mesh_from_triangulation(
        np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), np.array([[0, 1, 2]])
    )
    tri = ref.tri_coords[0]
    faces = np.linalg.norm(tri[[1, 2, 0]] - tri, axis=1)
    h_ref, area = ref.diameters[0], ref.areas[0]
    normalized = []
    for p in range(1, 9):
        value = estimate_inverse_trace(ref, 0, p)
        sharp = np.sqrt((p + 1) * (p + 2) / 2)
        lower = sharp * np.sqrt(faces.max() * h_ref / area) / p
        upper = sharp * np.sqrt(faces.sum() * h_ref / area) / p
        if not lower <= value <= upper:
            failures.append(
                f"inverse trace {value:.4f} outside [{lower:.4f}, {upper:.4f}] at p={p}"
            )
        normalized.append(value * p / sharp)
    spread = max(normalized) / min(normalized)
    if spread > 2.0:
        failures.append(f"sharp-normalized inverse-trace spread {spread:.2f} > 2")
    # norm equivalence spread over p=2..6 on an 8-element mesh
    mesh8 = build_unit_square_mesh(2)
    cstar = [estimate_norm_equivalence(mesh8, p) for p in range(2, 7)]
    if max(cstar) / min(cstar) > 1.5 or min(cstar) < 1.0:
        failures.append(f"norm-equivalence spread {max(cstar)/min(cstar):.2f}")
    # local coercivity: positive when resolved, decaying toward the
    # invertibility threshold of this element (omega h ~ 24.6 at p=3)
    h = mesh8.diameters[0]
    for p in (2, 3, 4, 5):
        if estimate_local_coercivity(mesh8, 0, p, 0.1 / h) <= 0.0:
            failures.append(f"coercivity not positive at p={p}")
    sweep = [
        estimate_local_coercivity(mesh8, 0, 3, t / h)
        for t in (13.0, 14.0, 15.0, 16.0, 17.0)
    ]
    if not all(a > b > 0.0 for a, b in zip(sweep[:-1], sweep[1:])):
        failures.append(f"coercivity sweep not decreasing: {sweep}")
    report(
        "constant diagnostics (inverse trace, norm equivalence, coercivity)",
        not failures,
        "; ".join(failures) if failures else
        f"itr inside the sharp bracket, spread {spread:.2f}<=2, "
        f"C* spread {max(cstar)/min(cstar):.2f}<=1.5, "
        "coercivity positive and decaying toward the threshold",
    )


def test_criterion_bessel_accuracy():
    # the scipy.special functions hankel_case evaluates, against the
    # mpmath series oracle and the Wronskian J1 Y0 - J0 Y1 = 2/(pi x)
    mp.mp.dps = 50
    xs = np.concatenate(
        [np.linspace(1e-3, 30.0, 200), np.array([15.99, 16.0, 16.01])]
    )
    j0v, y0v, j1v, y1v = j0(xs), y0(xs), j1(xs), y1(xs)
    worst = 0.0
    for i, x in enumerate(xs):
        worst = max(
            worst,
            abs(j0v[i] - float(oracle_j0(x))),
            abs(y0v[i] - float(oracle_y0(x))),
            abs(j1v[i] - float(oracle_j1(x))),
            abs(y1v[i] - float(oracle_y1(x))),
        )
    rng = np.random.default_rng(11)
    xw = 10 ** rng.uniform(np.log10(0.05), np.log10(2000.0), 100)
    j0w, y0w, j1w, y1w = j0(xw), y0(xw), j1(xw), y1(xw)
    wron = np.abs(j1w * y0w - j0w * y1w - 2.0 / (np.pi * xw)).max()
    report(
        "Bessel accuracy (series oracle + Wronskian)",
        worst <= 1e-12 and wron <= 1e-10,
        f"max series deviation {worst:.2e}, max Wronskian deviation {wron:.2e}",
    )


@pytest.mark.slow
def test_method_comparability(hankel_reports):
    # matched Hankel runs: the two methods stay within a factor 5 in L2
    ok = True
    worst = 1.0
    for p in (3, 4, 5):
        for hnr in (1, 2, 3):  # asymptotic regime
            pair = {
                r.method: r.l2error
                for r in hankel_reports
                if r.p == p and r.hnr == hnr
            }
            ratio = pair["etvol"] / pair["dgvol"]
            worst = max(worst, ratio, 1.0 / ratio)
            ok &= 0.2 <= ratio <= 5.0
    report(
        "method comparability (embedded vs standard L2)",
        ok,
        f"worst ratio {worst:.2f} within [0.2, 5]",
    )
