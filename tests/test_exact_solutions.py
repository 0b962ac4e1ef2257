import re

import numpy as np
import pytest

from helmtrefftz.dg_assembly import omega_values
from helmtrefftz.exact_solutions import (
    hankel_case,
    plane_wave_case,
    sinsin_case,
    var_omega_case,
)

# every case with the domain it is posed on, by id
ALL_CASES = [
    pytest.param(hankel_case(10.0), "square", id="hankel"),
    pytest.param(plane_wave_case(3.0), "disk", id="planewave"),
    pytest.param(sinsin_case(1.0), "square", id="sinsin"),
    pytest.param(var_omega_case(), "square", id="varomega"),
]


def helmholtz_residual_fd(case, pts, step=1e-4):
    """-lap(u) - omega^2 u via the 5-point stencil."""
    u = case.u
    lap = (
        u(pts + [step, 0.0])
        + u(pts - [step, 0.0])
        + u(pts + [0.0, step])
        + u(pts - [0.0, step])
        - 4.0 * u(pts)
    ) / step**2
    return -lap - omega_values(case.omega, pts) ** 2 * u(pts)


def interior_points(domain, n, seed=0):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0.05, 0.95, size=(n, 2))
    if domain == "disk":
        pts = 0.85 * (2.0 * pts - 1.0) / np.sqrt(2.0)
    return pts


def test_hankel_source_vanishes():
    # a source-free case carries no f, so the solve builds no zero load
    assert hankel_case(10.0).f is None
    assert plane_wave_case(3.0).f is None


def source_values(case, pts):
    """f at pts, with None read as the zero source."""
    if case.f is None:
        return np.zeros(pts.shape[:-1], dtype=complex)
    return case.f(pts)


def test_hankel_rejects_interior_source_point():
    with pytest.raises(ValueError):
        hankel_case(10.0, source_point=(0.5, 0.5))


@pytest.mark.parametrize(
    "point",
    [(float("nan"), 0.0), (-0.25, float("inf")), (-0.25, 0.0, 0.0), (-0.25,), -0.25,
     (-0.25j, 0.0), ("-0.25", "0"), (True, False), ((-0.25, 0.0), 0.0)],
)
def test_hankel_rejects_a_source_point_that_is_not_two_finite_reals(point):
    # NaN used to surface only as non-finite boundary data, and a
    # 3-component point broke at evaluation
    message = rf"source_point .*got {re.escape(repr(point))}"
    with pytest.raises(ValueError, match=message):
        hankel_case(10.0, source_point=point)


def test_hankel_rejects_evaluation_at_source():
    case = hankel_case(10.0)
    with pytest.raises(ValueError):
        case.u(np.array([-0.25, 0.0]))


@pytest.mark.parametrize(
    "omega", [float("nan"), float("inf"), 0.0, -1.0, True, 1 + 2j, "10"]
)
@pytest.mark.parametrize("build", [hankel_case, plane_wave_case, sinsin_case])
def test_constant_wavenumber_rejected_unless_finite_positive(build, omega):
    # True used to build the omega=1 case, and 1+2j and "10" raised a
    # TypeError
    with pytest.raises(ValueError, match=rf"omega .*got {re.escape(repr(omega))}"):
        build(omega)


def test_hankel_fd_helmholtz_residual():
    case = hankel_case(10.0)
    pts = interior_points("square", 20, seed=1)
    resid = helmholtz_residual_fd(case, pts)
    bound = 1e-4 * case.omega_representative**2 * np.abs(case.u(pts))
    assert np.all(np.abs(resid) <= bound)


def test_hankel_gradient_vs_central_differences():
    case = hankel_case(10.0)
    pts = interior_points("square", 20, seed=2)
    step = 1e-4
    gx = (case.u(pts + [step, 0.0]) - case.u(pts - [step, 0.0])) / (2 * step)
    gy = (case.u(pts + [0.0, step]) - case.u(pts - [0.0, step])) / (2 * step)
    grad = case.grad_u(pts)
    num = np.stack([gx, gy], axis=-1)
    rel = np.abs(grad - num).max() / np.abs(grad).max()
    assert rel <= 1e-6


def test_plane_wave_values():
    case = plane_wave_case(100.0)
    assert case.u(np.array([0.0, 0.0])) == pytest.approx(1.0)
    pts = interior_points("disk", 10, seed=3)
    assert np.allclose(np.abs(case.u(pts)), 1.0, atol=1e-14)


def test_plane_wave_gradient_direction():
    case = plane_wave_case(7.0)
    pts = interior_points("disk", 10, seed=4)
    d = np.array([1.0, -1.0]) / np.sqrt(2.0)
    expected = 1j * 7.0 * case.u(pts)[..., None] * d
    assert np.abs(case.grad_u(pts) - expected).max() <= 1e-12


def test_sinsin_values():
    case = sinsin_case(1.0)
    center = np.array([0.5, 0.5])
    assert case.u(center) == pytest.approx(1.0)
    assert case.f(center) == pytest.approx(2.0 * np.pi**2 - 1.0)


def test_sinsin_boundary_data_is_normal_derivative():
    # u vanishes on the boundary, so g reduces to grad(u).n there
    case = sinsin_case(1.0)
    pts = np.array([[0.3, 0.0], [1.0, 0.7], [0.25, 1.0], [0.0, 0.6]])
    normals = np.array([[0.0, -1.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
    g = case.g(pts, normals)
    dn = np.einsum("...d,...d->...", case.grad_u(pts), normals)
    assert np.abs(g - dn).max() <= 1e-14


def test_var_omega_values():
    case = var_omega_case()
    assert omega_values(case.omega, np.array([0.0, 0.0])) == pytest.approx(5.0)
    ys = np.stack([np.zeros(5), np.linspace(0.0, 1.0, 5)], axis=-1)
    assert np.allclose(case.u(ys), 1.0, atol=1e-15)


def test_var_omega_source_vs_fd_oracle():
    # the hand-derived source must match -lap(u) - omega^2 u numerically
    case = var_omega_case()
    pts = interior_points("square", 20, seed=5)
    fd_f = helmholtz_residual_fd(case, pts)
    rel = np.abs(case.f(pts) - fd_f).max() / np.abs(case.f(pts)).max()
    assert rel <= 1e-5


@pytest.mark.parametrize("case,domain", ALL_CASES)
def test_impedance_consistency(case, domain):
    rng = np.random.default_rng(6)
    if domain == "square":
        s = rng.uniform(0.0, 1.0, 16)
        pts = np.concatenate(
            [
                np.stack([s[:4], np.zeros(4)], axis=-1),
                np.stack([np.ones(4), s[4:8]], axis=-1),
                np.stack([s[8:12], np.ones(4)], axis=-1),
                np.stack([np.zeros(4), s[12:]], axis=-1),
            ]
        )
        normals = np.repeat(
            np.array([[0.0, -1.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]]), 4, axis=0
        )
    else:
        ang = rng.uniform(0.0, 2.0 * np.pi, 16)
        normals = np.stack([np.cos(ang), np.sin(ang)], axis=-1)
        pts = normals.copy()
    g = case.g(pts, normals)
    direct = np.einsum("...d,...d->...", case.grad_u(pts), normals) + (
        1j * omega_values(case.omega, pts) * case.u(pts)
    )
    assert np.abs(g - direct).max() <= 1e-12


@pytest.mark.parametrize("case,domain", ALL_CASES)
def test_pde_consistency_every_case(case, domain):
    # f agrees with -lap(u) - omega^2 u up to finite-difference accuracy
    pts = interior_points(domain, 15, seed=9)
    fd = helmholtz_residual_fd(case, pts)
    f = source_values(case, pts)
    scale = np.abs(fd).max() + np.abs(f).max() + 1.0
    assert np.abs(f - fd).max() <= 1e-5 * scale


@pytest.mark.parametrize("case,domain", ALL_CASES)
def test_values_finite_on_domain(case, domain):
    pts = interior_points(domain, 50, seed=8)
    for arr in (case.u(pts), case.grad_u(pts), source_values(case, pts)):
        assert np.all(np.isfinite(arr))
