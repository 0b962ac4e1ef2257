import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from helmtrefftz import dg_assembly
from helmtrefftz.dg_assembly import (
    FormParameters,
    assemble_rhs,
    assemble_sipdg,
    omega_values,
)
from helmtrefftz.exact_solutions import var_omega_case
from helmtrefftz.harness import solve
from helmtrefftz.mesh import (
    build_unit_disk_mesh,
    build_unit_square_mesh,
    mesh_from_triangulation,
)
from helmtrefftz.polyspace import (
    dim_poly,
    edge_quadrature_rule,
    map_rule_to_triangle,
    quadrature_rule,
)
from helpers import (
    polynomial_problem,
    project,
    reference_assemble_sipdg,
    refine,
    residual,
    shuffled_jittered_disk,
    zero_f,
    zero_g,
)


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


@pytest.mark.parametrize("p", [2.5, 3.0, True, "3", None])
def test_form_parameters_refuse_a_degree_that_is_not_an_integer(p):
    # 2.5 used to fail inside numpy, 3.0 with a TypeError, and True to
    # assemble p=1
    with pytest.raises(ValueError, match=f"p={p!r}"):
        FormParameters(omega=1.0, p=p)
    params = FormParameters(omega=1.0, p=np.int64(3))
    assert params.p == 3 and type(params.p) is int


@pytest.mark.parametrize(
    "field,value",
    [("omega", True), ("omega", 1 + 2j), ("omega", "2"), ("alpha", True), ("alpha", 1j)],
)
def test_form_parameters_refuse_a_wavenumber_or_penalty_that_is_not_real(field, value):
    # True used to be read as 1, and a complex value raised a bare TypeError
    with pytest.raises(ValueError, match=f"{field} must be a finite positive real"):
        FormParameters(**{"omega": 1.0, "p": 2, field: value})


@pytest.mark.parametrize("bad", [float("nan"), -2.0])
def test_callable_omega_rejected_at_one_quadrature_node(bad):
    # omega(x) is fine everywhere but at one node of element 5
    mesh = build_unit_square_mesh(2)
    pts, _ = map_rule_to_triangle(quadrature_rule(6), mesh.tri_coords)
    node = pts[5, 3]

    def omega(x):
        return np.where(np.all(x == node, axis=-1), bad, 3.0 + x[..., 0])

    with pytest.raises(ValueError) as info:
        omega_values(omega, pts)
    message = str(info.value)
    assert "index 5 along the first axis" in message
    assert f"({node[0]:.6g}, {node[1]:.6g})" in message
    assert str(bad) in message
    # the assembly evaluates omega at the same nodes (order 2p+2 = 6)
    with pytest.raises(ValueError, match="index 5 along the first axis"):
        assemble_sipdg(mesh, FormParameters(omega=omega, p=2))
    # a constant wavenumber is only broadcast
    assert np.array_equal(omega_values(3.0, pts), np.full(pts.shape[:-1], 3.0))


def nan_at(node):
    """Unit data that is NaN at one point."""

    def data(pts, normals=None):
        return np.where(np.all(pts == node, axis=-1), np.nan, 1.0) + 0j

    return data


@pytest.mark.parametrize("method", ["standard", "embedded"])
def test_non_finite_source_rejected_naming_the_element(method):
    # the right-hand sides read f at the order-(2p+6) volume rule
    mesh, params = build_unit_square_mesh(2), FormParameters(omega=2.0, p=2)
    pts, _ = map_rule_to_triangle(quadrature_rule(10), mesh.tri_coords)
    f = nan_at(pts[6, 4])
    with pytest.raises(ValueError, match=r"source f\(x\) must be finite") as info:
        solve(mesh, params, f, zero_g, methods=(method,))
    assert "index 6 along the first axis (element)" in str(info.value)


@pytest.mark.parametrize("method", ["standard", "embedded"])
def test_non_finite_boundary_data_rejected_naming_the_face(method):
    mesh, params = build_unit_square_mesh(2), FormParameters(omega=2.0, p=2)
    fb = mesh.boundary_faces
    nodes = edge_quadrature_rule(10).nodes
    node = fb["v0"][3] + nodes[1] * (fb["v1"][3] - fb["v0"][3])
    with pytest.raises(ValueError, match=r"boundary data g\(x, n\)") as info:
        solve(mesh, params, zero_f, nan_at(node), methods=(method,))
    assert "index 3 along the first axis (boundary face)" in str(info.value)


def test_single_element_piecewise_constant():
    # only the mass and impedance terms survive at p=0
    mesh = mesh_from_triangulation(
        np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), np.array([[0, 1, 2]])
    )
    A = assemble_sipdg(mesh, FormParameters(omega=1.0, p=0)).toarray()
    perimeter = 2.0 + math.sqrt(2.0)
    assert A[0, 0] == pytest.approx(-0.5 + 1j * perimeter, abs=1e-14)


BITWISE_CASES = {
    "square4-p12": (lambda: build_unit_square_mesh(4), 1.0, 12),
    "square4-p5-varomega": (
        lambda: build_unit_square_mesh(4),
        var_omega_case().omega,
        5,
    ),
    "shuffled-disk3-p3": (lambda: shuffled_jittered_disk(3, seed=7), 7.0, 3),
    "disk1-p0": (lambda: build_unit_disk_mesh(1), 3.0, 0),
    "disk1-p2": (lambda: build_unit_disk_mesh(1), 3.0, 2),
    "square1-p1": (lambda: build_unit_square_mesh(1), 3.0, 1),
}


@pytest.mark.parametrize("case", sorted(BITWISE_CASES))
def test_sipdg_matrix_bitwise_reference(case, monkeypatch):
    # the transposed face blocks and the gradient Gram keep every bit of
    # the twelve-einsum, list-built matrix.  scipy's COO to CSR sorts each
    # row by column with an unstable sort, so a duplicate sum depends on
    # the row's sequence of column keys, not on the COO order; a tile of
    # whole block rows that keeps each row's relative order reproduces
    # it, whether a tile holds one block row or the whole matrix
    make_mesh, omega, p = BITWISE_CASES[case]
    mesh = make_mesh()
    params = FormParameters(omega=omega, p=p)
    n = dim_poly(p)
    R = reference_assemble_sipdg(mesh, params)
    for tile in (dg_assembly._ROW_TILE, 1, 1 << 62):
        monkeypatch.setattr(dg_assembly, "_ROW_TILE", tile)
        A = assemble_sipdg(mesh, params)
        assert A.format == "bsr" and A.blocksize == (n, n)
        assert A.nnz == R.nnz
        C = A.tocsr()
        assert C.shape == R.shape and C.data.dtype == R.data.dtype
        assert np.array_equal(C.indptr, R.indptr)
        assert np.array_equal(C.indices, R.indices)
        assert np.array_equal(C.data.view(np.int64), R.data.view(np.int64))


def _root_buffer(array):
    while array.base is not None:
        array = array.base
    return array


def test_sipdg_matrix_holds_no_duplicate_buffers():
    # A keeps one complex slot per stored entry, not scipy's
    # duplicate-sized COO buffers behind a view
    A = assemble_sipdg(build_unit_square_mesh(4), FormParameters(omega=2.0, p=3))
    assert A.data.nbytes == 16 * A.nnz
    assert _root_buffer(A.data).nbytes == A.data.nbytes


def test_sipdg_assembly_memory():
    # the tiled assembly holds at most three times its result at once
    # (the one-shot COO held 5.1 times)
    mesh, params = build_unit_square_mesh(4), FormParameters(omega=1.0, p=12)
    tracemalloc.start()
    try:
        A = assemble_sipdg(mesh, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * (A.data.nbytes + A.indices.nbytes + A.indptr.nbytes)


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
    fa = mesh.interior_faces
    flipped = dict(fa, plus=fa["minus"], minus=fa["plus"], normal=-fa["normal"])
    mesh_flipped = dataclasses.replace(mesh, interior_faces=flipped)
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
    touching = set(mesh.boundary_faces["element"].tolist())
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
    params = FormParameters(omega=omega, p=p)
    A = assemble_sipdg(mesh, params)
    b = assemble_rhs(mesh, params, f_cb, g_cb)
    coeffs = project(mesh, p, u_cb)
    assert residual(A, b, coeffs) <= 1e-9


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
