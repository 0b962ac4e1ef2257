import dataclasses
import math

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from helmtrefftz.dg_assembly import (
    DofMap,
    FormParameters,
    assemble_rhs,
    assemble_sipdg,
    assemble_system,
    average_jump,
    residual,
)
from helmtrefftz.mesh import (
    build_unit_square_mesh,
    mesh_from_triangulation,
    refine,
)
from helmtrefftz.polyspace import dim_poly


from helpers import polynomial_problem, project, zero_f, zero_g


def test_average_jump_identical_traces():
    avg, jump = average_jump(None, 3.0, 3.0)
    assert avg == 3.0 and jump == 0.0


def test_average_jump_definition():
    avg, jump = average_jump(None, 1.0, 0.0)
    assert avg == 0.5 and jump == 1.0


def test_dofmap_layout():
    dm = DofMap(5, 10)
    assert dm.total == 50
    assert dm.offset(3) == 30
    assert dm.element_slice(2) == slice(20, 30)
    assert np.all(np.diff(dm.offsets) == 10)


def test_form_parameters_validation():
    with pytest.raises(ValueError):
        FormParameters(omega=-1.0, p=2)
    with pytest.raises(ValueError):
        FormParameters(omega=1.0, p=2, alpha=0.0)
    with pytest.raises(ValueError):
        FormParameters(omega=1.0, p=-1)
    # nan <= 0 is False: non-finite values need their own check
    for omega in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="omega"):
            FormParameters(omega=omega, p=2)
    for alpha in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="alpha"):
            FormParameters(omega=1.0, p=2, alpha=alpha)


def test_single_element_piecewise_constant():
    # only the mass and impedance terms survive at p=0
    mesh = mesh_from_triangulation(
        np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), np.array([[0, 1, 2]])
    )
    A = assemble_sipdg(mesh, FormParameters(omega=1.0, p=0)).toarray()
    perimeter = 2.0 + math.sqrt(2.0)
    assert A[0, 0] == pytest.approx(-0.5 + 1j * perimeter, abs=1e-14)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_complex_symmetry(p):
    mesh = build_unit_square_mesh(2)
    A = assemble_sipdg(mesh, FormParameters(omega=10.0, p=p))
    assert spla.norm(A - A.T) <= 1e-12 * spla.norm(A)


def test_continuous_field_reproduces_quadratic_form():
    # all jump and consistency terms vanish for a continuous function
    mesh = build_unit_square_mesh(2)
    omega = 2.0
    params = FormParameters(omega=omega, p=3)
    coeffs = project(mesh, 3, lambda pts: pts[..., 0] ** 2 + pts[..., 1] ** 2)
    A = assemble_sipdg(mesh, params)
    value = np.conj(coeffs) @ (A @ coeffs)
    # grad energy 8/3, volume mass 28/45, boundary mass 2/5 + 2*28/15
    direct = (
        8.0 / 3.0
        - omega**2 * 28.0 / 45.0
        + 1j * omega * (2.0 / 5.0 + 2.0 * 28.0 / 15.0)
    )
    assert abs(value - direct) <= 1e-12 * abs(direct)


def test_orientation_flip_leaves_matrix_unchanged():
    mesh = build_unit_square_mesh(1)
    params = FormParameters(omega=3.0, p=2)
    A = assemble_sipdg(mesh, params)
    face = mesh.interior_faces[0]
    flipped = dataclasses.replace(
        face,
        plus_element=face.minus_element,
        minus_element=face.plus_element,
        unit_normal=(-face.unit_normal[0], -face.unit_normal[1]),
    )
    mesh_flipped = dataclasses.replace(mesh, interior_faces=[flipped])
    B = assemble_sipdg(mesh_flipped, params)
    assert spla.norm(A - B) <= 1e-13 * spla.norm(A)


def test_rhs_zero_data():
    mesh = build_unit_square_mesh(2)
    b = assemble_rhs(mesh, FormParameters(omega=1.0, p=2), zero_f, zero_g)
    assert np.all(b == 0.0)


def test_rhs_constant_source_p0():
    mesh = build_unit_square_mesh(2)
    b = assemble_rhs(
        mesh,
        FormParameters(omega=1.0, p=0),
        lambda pts: np.ones(pts.shape[:-1], dtype=complex),
        zero_g,
    )
    assert np.allclose(b, mesh.areas, atol=1e-15)


def test_rhs_boundary_data_locality():
    mesh = build_unit_square_mesh(4)
    b = assemble_rhs(
        mesh,
        FormParameters(omega=1.0, p=1),
        zero_f,
        lambda pts, normals: np.ones(pts.shape[:-1], dtype=complex),
    )
    touching = {face.element for face in mesh.boundary_faces}
    blocks = b.reshape(mesh.n_elements, dim_poly(1))
    for k in range(mesh.n_elements):
        if k in touching:
            assert np.abs(blocks[k]).max() > 0.0
        else:
            assert np.all(blocks[k] == 0.0)


def test_residual_basics():
    A = assemble_sipdg(build_unit_square_mesh(1), FormParameters(omega=1.0, p=1))
    n = A.shape[0]
    assert residual(A, np.zeros(n), np.zeros(n)) == 0.0
    rng = np.random.default_rng(0)
    u = rng.standard_normal(n) + 0j
    b = A @ u
    base = residual(A, b, u)
    assert base <= 1e-14
    eps = 1e-6
    pert = u.copy()
    pert[0] += eps
    bound = spla.norm(A) * eps / (1.0 + np.linalg.norm(b))
    assert residual(A, b, pert) <= base + bound + 1e-15


@pytest.mark.parametrize("p", [2, 3])
def test_patch_consistency_residual(p):
    # a continuous polynomial with compatible data solves the DG system
    mesh = refine(build_unit_square_mesh(2))
    omega = 3.0
    u_cb, f_cb, g_cb = polynomial_problem(p, omega)
    system = assemble_system(mesh, FormParameters(omega=omega, p=p), f_cb, g_cb)
    coeffs = project(mesh, p, u_cb)
    assert residual(system.matrix, system.rhs, coeffs) <= 1e-9


def test_sparsity_ceiling():
    mesh = build_unit_square_mesh(3)
    p = 2
    A = assemble_sipdg(mesh, FormParameters(omega=1.0, p=p))
    A.sum_duplicates()
    assert A.nnz <= mesh.n_elements * 4 * dim_poly(p) ** 2


def test_variable_wavenumber_assembly_real_symmetric_part():
    mesh = build_unit_square_mesh(2)
    omega_fn = lambda pts: 5.0 + np.sin(pts[..., 0]) + pts[..., 1] ** 2
    A = assemble_sipdg(mesh, FormParameters(omega=omega_fn, p=2))
    assert spla.norm(A - A.T) <= 1e-12 * spla.norm(A)
