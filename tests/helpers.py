"""Shared fixtures-in-spirit: meshes, projections and manufactured polynomial data."""

import mpmath as mp
import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
import sympy

from helmtrefftz import local_trefftz
from helmtrefftz.dg_assembly import _block_triplets, interior_face_h, omega_values
from helmtrefftz.mesh import build_unit_disk_mesh, cross2, mesh_from_triangulation
from helmtrefftz.polyspace import (
    MAX_QUAD_ORDER,
    _element_boundary_grams,
    _element_mass_grams,
    _element_stiffness_grams,
    _element_tables,
    _face_quadrature,
    _gram_order,
    _monomial_tables,
    dim_poly,
    edge_quadrature_rule,
    map_rule_to_triangle,
    quadrature_rule,
)


def refine(mesh):
    """Uniform refinement: split every triangle into 4 congruent children.

    Edge midpoints are numbered after the old vertices in the order their
    edges first occur, walking (a,b), (b,c), (c,a) of each triangle.
    """
    tris = mesh.triangles
    nv = len(mesh.vertices)
    ends = np.sort(tris[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
    _, first, edge = np.unique(
        ends[:, 0] * nv + ends[:, 1], return_index=True, return_inverse=True
    )
    rank = np.empty_like(first)
    rank[np.argsort(first)] = np.arange(len(first))
    new_ends = ends[np.sort(first)]
    midpoints = (mesh.vertices[new_ends[:, 0]] + mesh.vertices[new_ends[:, 1]]) / 2.0
    mab, mbc, mca = (nv + rank[edge.reshape(-1, 3)]).T
    a, b, c = tris.T
    children = np.stack(
        [[a, mab, mca], [mab, b, mbc], [mca, mbc, c], [mab, mbc, mca]], axis=0
    )  # (4, 3, Nt)
    return mesh_from_triangulation(
        np.concatenate([mesh.vertices, midpoints]),
        children.transpose(2, 0, 1).reshape(-1, 3),
        domain_area=mesh.domain_area,
    )


def reference_faces(vertices, triangles):
    """Face arrays derived one edge at a time with a dict, the reference
    for the vectorized derivation in mesh_from_triangulation."""
    centroids = vertices[triangles].mean(axis=1)
    edge_owners = {}
    for k, tri in enumerate(triangles):
        for va, vb in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            key = (min(va, vb), max(va, vb))
            edge_owners.setdefault(key, []).append(k)
    interior, boundary = [], []
    for (va, vb), owners in edge_owners.items():
        p0, p1 = vertices[va], vertices[vb]
        tang = p1 - p0
        length = float(np.hypot(*tang))
        normal = np.array([tang[1], -tang[0]]) / length
        if len(owners) == 2:
            plus, minus = sorted(owners)
            if normal @ (centroids[minus] - centroids[plus]) < 0.0:
                normal = -normal
            interior.append((plus, minus, va, vb, normal, length))
        else:
            (elem,) = owners
            if normal @ (0.5 * (p0 + p1) - centroids[elem]) < 0.0:
                normal = -normal
            boundary.append((elem, va, vb, normal, length))
    interior.sort(key=lambda f: f[:4])
    boundary.sort(key=lambda f: f[:3])

    def arrays(rows, owner_names):
        n = len(owner_names)
        cols = list(zip(*rows)) or [()] * (n + 4)
        out = {name: np.array(col, dtype=int) for name, col in zip(owner_names, cols)}
        out["v0"] = vertices[np.array(cols[n], dtype=int)]
        out["v1"] = vertices[np.array(cols[n + 1], dtype=int)]
        out["normal"] = np.array(cols[n + 2], dtype=float).reshape(-1, 2)
        out["length"] = np.array(cols[n + 3], dtype=float)
        return out

    return (
        arrays(interior, ("plus", "minus")),
        arrays(boundary, ("element",)),
    )


def _edge_points(v0, v1, nodes):
    """Quadrature points on segments: (F, M, 2) from endpoints (F, 2).

    Written out here, not imported, so that the reference assembly shares
    no face quadrature with the code it checks.
    """
    return v0[:, None, :] + nodes[None, :, None] * (v1 - v0)[:, None, :]


def reference_assemble_sipdg(mesh, params):
    """SIPDG matrix from twelve face einsums and per-block index lists,
    concatenated in the order volume, faces (+,+), (+,-), (-,+), (-,-),
    boundary: the reference for the transposed face blocks and the
    preallocated COO of dg_assembly.assemble_sipdg."""
    p = params.p
    n = dim_poly(p)
    order = min(2 * p + 2, MAX_QUAD_ORDER)
    rows, cols, data = [], [], []

    def scatter(blocks, row_elems, col_elems):
        idx = np.arange(n)
        r = (row_elems * n)[:, None, None] + idx[None, :, None]
        c = (col_elems * n)[:, None, None] + idx[None, None, :]
        rows.append(np.broadcast_to(r, blocks.shape).ravel())
        cols.append(np.broadcast_to(c, blocks.shape).ravel())
        data.append(blocks.ravel())

    pts, w = map_rule_to_triangle(quadrature_rule(order), mesh.tri_coords)
    ev = _monomial_tables(mesh.incenters, mesh.diameters, p, pts)
    om2 = omega_values(params.omega, pts) ** 2
    vol = np.einsum("eqid,eqjd,eq->eij", ev.gradients, ev.gradients, w)
    vol -= np.einsum("eqi,eqj,eq->eij", ev.values, ev.values, w * om2)
    elems = np.arange(mesh.n_elements)
    scatter(vol.astype(complex), elems, elems)

    edge_rule = edge_quadrature_rule(order)
    fa = mesh.interior_faces
    pts_f = _edge_points(fa["v0"], fa["v1"], edge_rule.nodes)
    wf = edge_rule.weights[None, :] * fa["length"][:, None]
    sides = {}
    for tag, el in (("+", fa["plus"]), ("-", fa["minus"])):
        evf = _monomial_tables(mesh.incenters[el], mesh.diameters[el], p, pts_f)
        dn = np.einsum("fmnd,fd->fmn", evf.gradients, fa["normal"])
        sides[tag] = (evf.values, dn, el)
    sigma = params.alpha * p**2 / interior_face_h(mesh)
    sign = {"+": 1.0, "-": -1.0}
    for sv in "+-":
        vals_v, dn_v, el_v = sides[sv]
        for su in "+-":
            vals_u, dn_u, el_u = sides[su]
            blk = -0.5 * sign[sv] * np.einsum("fmi,fmj,fm->fij", vals_v, dn_u, wf)
            blk += -0.5 * sign[su] * np.einsum("fmi,fmj,fm->fij", dn_v, vals_u, wf)
            pen = np.einsum("fmi,fmj,fm->fij", vals_v, vals_u, wf)
            blk += (sign[su] * sign[sv] * sigma)[:, None, None] * pen
            scatter(blk.astype(complex), el_v, el_u)

    fb = mesh.boundary_faces
    pts_b = _edge_points(fb["v0"], fb["v1"], edge_rule.nodes)
    wb = edge_rule.weights[None, :] * fb["length"][:, None]
    el = fb["element"]
    evb = _monomial_tables(mesh.incenters[el], mesh.diameters[el], p, pts_b)
    om = omega_values(params.omega, pts_b)
    scatter(1j * np.einsum("fmi,fmj,fm->fij", evb.values, evb.values, wb * om), el, el)

    A = sp.coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(mesh.n_elements * n, mesh.n_elements * n),
    )
    return A.tocsr()


def reference_block_congruence(A, bases, sizes):
    """T^T A T in the natural element order, from all of A's element blocks
    at once and a COO scatter: the reference for the streamed, ordered
    solve_pipeline._block_congruence."""
    n = bases[0].shape[1]
    bsr = A.tobsr(blocksize=(n, n))
    rows = np.repeat(np.arange(len(bsr.indptr) - 1), np.diff(bsr.indptr))
    cols = bsr.indices
    parts = [np.ascontiguousarray(bsr.data.real), np.ascontiguousarray(bsr.data.imag)]
    for T in bases:
        left = np.ascontiguousarray(T.swapaxes(1, 2))[rows]
        right = T[cols]
        parts = [
            np.einsum("bij,bjk->bik", left, np.einsum("bij,bjk->bik", D, right))
            for D in parts
        ]
    idx = np.arange(parts[0].shape[1])
    keep = (idx[:, None] < sizes[rows, None, None]) & (idx < sizes[cols, None, None])
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    r = np.broadcast_to(offsets[rows, None, None] + idx[:, None], keep.shape)[keep]
    c = np.broadcast_to(offsets[cols, None, None] + idx, keep.shape)[keep]
    values = np.empty(keep.shape, dtype=complex)
    values.real, values.imag = parts
    M = sp.csc_matrix((values[keep], (r, c)), shape=(offsets[-1],) * 2)
    M.eliminate_zeros()
    return M


def _basis_matrix(bases, sizes):
    """The block-diagonal T = bases[0] bases[1] ... as a sparse matrix:
    element k has bases[0].shape[1] rows and sizes[k] columns in T, and
    sizes[k] rows and columns in each later basis."""
    rows = np.full(len(sizes), bases[0].shape[1])
    T = block_diag_matrix(bases[0], rows, sizes)
    for blocks in bases[1:]:
        T = T @ block_diag_matrix(blocks, sizes, sizes)
    return T


def reference_colamd_solve(A, b, bases, sizes):
    """T y for T^T A T y = T^T b in the natural element order, factored
    by SuperLU with its COLAMD order and partial pivoting: the reference
    for the dissection-order solve of solve_pipeline._direct_solve."""
    M = reference_block_congruence(A, bases, sizes)
    M.sort_indices()
    T = _basis_matrix(bases, sizes)
    return T @ spla.splu(M).solve(T.T @ np.asarray(b, dtype=complex))


def reference_broken_grams(mesh, p, omega):
    """Dense Grams of the DG norm and its sharpened variant, every block
    scattered with np.add.at into an (E n)^2 array: the reference for the
    sparse error_analysis._broken_grams."""
    n = dim_poly(p)
    total = mesh.n_elements * n
    elements = np.arange(mesh.n_elements)
    vol = _element_stiffness_grams(mesh, p) + omega**2 * _element_mass_grams(mesh, p)

    fa = mesh.interior_faces
    pts, wts = _face_quadrature(fa, _gram_order(p))
    sides = np.stack([fa["plus"], fa["minus"]], axis=1)  # (F, 2)
    traces = np.stack(
        [_element_tables(mesh, el, p, pts).values for el in sides.T], axis=1
    )  # (F, 2, M, n)
    sign = np.array([1.0, -1.0])
    weight = (p**2 / interior_face_h(mesh))[:, None, None] * sign[:, None] * sign
    jump = np.einsum("fsmi,ftmj,fm->fstij", traces, traces, wts)
    jump *= weight[..., None, None]

    fb = mesh.boundary_faces
    pts, wts = _face_quadrature(fb, _gram_order(p))
    el = fb["element"]
    tr = _element_tables(mesh, el, p, pts).values
    impedance = omega * np.einsum("fmi,fmj,fm->fij", tr, tr, wts)

    rows_of_jump = np.repeat(sides, 2, axis=1).ravel()
    cols_of_jump = np.tile(sides, 2).ravel()
    segments = [
        (vol, elements, elements),
        (jump.reshape(-1, n, n), rows_of_jump, cols_of_jump),
        (impedance, el, el),
    ]
    rows, cols, data = _block_triplets(segments, n, total, float)
    g_dg = np.zeros((total, total))
    np.add.at(g_dg, (rows, cols), data)
    _, normal_derivs = _element_boundary_grams(mesh, p)
    extra = (mesh.diameters / p**2)[:, None, None] * normal_derivs
    return g_dg, g_dg + scipy.linalg.block_diag(*extra)


def shuffled_jittered_disk(rings=3, seed=0):
    """Unit-disk triangulation with permuted triangles and vertex labels,
    each triangle's vertices rotated cyclically and the interior vertices
    jittered by up to a tenth of the ring spacing; every triangle stays
    counterclockwise."""
    rng = np.random.default_rng(seed)
    base = build_unit_disk_mesh(rings)
    verts = base.vertices.copy()
    interior = np.abs(np.hypot(verts[:, 0], verts[:, 1]) - 1.0) > 1e-12
    verts[interior] += (0.1 / rings) * rng.uniform(-1.0, 1.0, (interior.sum(), 2))
    relabel = rng.permutation(len(verts))  # old label -> new label
    new_verts = np.empty_like(verts)
    new_verts[relabel] = verts
    tris = relabel[base.triangles[rng.permutation(base.n_elements)]]
    shift = rng.integers(0, 3, len(tris))
    tris = tris[np.arange(len(tris))[:, None], (np.arange(3) + shift[:, None]) % 3]
    t = new_verts[tris]
    assert np.all(cross2(t[:, 1] - t[:, 0], t[:, 2] - t[:, 0]) > 0.0)
    return mesh_from_triangulation(new_verts, tris, domain_area=base.domain_area)


def element_tables(mesh, element, p, points):
    """Basis tables of one element, in its own frame, at points (..., 2)."""
    points = np.asarray(points, dtype=float)
    return _monomial_tables(
        mesh.incenters[element], mesh.diameters[element], p, np.atleast_2d(points)
    )


def zero_f(pts):
    return np.zeros(pts.shape[:-1], dtype=complex)


def zero_g(pts, normals):
    return np.zeros(pts.shape[:-1], dtype=complex)


def zero_constraints(monkeypatch, elements=None):
    """Make the constraint matrices of some elements (default: all) zero.

    A zero constraint has rank 0, so its kernel is the whole element space
    and any nonzero moment lies outside its range.
    """
    original = local_trefftz.constraint_matrices

    def zeroed(*args, **kwargs):
        W = original(*args, **kwargs)
        W[slice(None) if elements is None else elements] = 0.0
        return W

    monkeypatch.setattr(local_trefftz, "constraint_matrices", zeroed)


def block_diag_matrix(blocks, n_rows, n_cols):
    """Sparse (CSR) block-diagonal matrix of blocks[k, :n_rows[k], :n_cols[k]]."""
    r = np.arange(blocks.shape[1])[:, None]
    c = np.arange(blocks.shape[2])[None, :]
    keep = (r < n_rows[:, None, None]) & (c < n_cols[:, None, None])
    row0 = np.cumsum(n_rows) - n_rows
    col0 = np.cumsum(n_cols) - n_cols
    rows = np.broadcast_to(row0[:, None, None] + r, blocks.shape)[keep]
    cols = np.broadcast_to(col0[:, None, None] + c, blocks.shape)[keep]
    return sp.coo_matrix(
        (blocks[keep], (rows, cols)), shape=(n_rows.sum(), n_cols.sum())
    ).tocsr()


def embedding_matrix(embedding):
    """The embedding E as a sparse matrix, dim P^p rows per element."""
    dims = np.diff(embedding.column_offsets)
    rows = np.full(len(dims), embedding.blocks.shape[1])
    return block_diag_matrix(embedding.blocks, rows, dims)


def residual(A, b, u):
    """Normalized linear-system residual ||A u - b|| / (1 + ||b||)."""
    return float(np.linalg.norm(A @ u - b) / (1.0 + np.linalg.norm(b)))


def project(mesh, p, func):
    """Per-element L2 projection onto the broken degree-p space."""
    pts, w = map_rule_to_triangle(quadrature_rule(min(2 * p + 2, 30)), mesh.tri_coords)
    ev = _monomial_tables(mesh.incenters, mesh.diameters, p, pts)
    gram = np.einsum("eqi,eqj,eq->eij", ev.values, ev.values, w)
    rhs = np.einsum("eqi,eq->ei", ev.values, func(pts) * w)
    return np.linalg.solve(gram, rhs[..., None])[..., 0].ravel().astype(complex)


def polynomial_problem(p, omega):
    """Continuous polynomial solution with matching source and impedance data."""
    x, y = sympy.symbols("x y")
    u = (x + 2 * y) ** p + x * y
    f = -sympy.diff(u, x, 2) - sympy.diff(u, y, 2) - omega**2 * u
    lam = lambda e: sympy.lambdify((x, y), e, "numpy")
    uf, ff = lam(u), lam(f)
    gxf, gyf = lam(sympy.diff(u, x)), lam(sympy.diff(u, y))

    def u_cb(pts):
        return np.asarray(uf(pts[..., 0], pts[..., 1]), dtype=complex) * np.ones(
            pts.shape[:-1]
        )

    def f_cb(pts):
        return np.asarray(ff(pts[..., 0], pts[..., 1]), dtype=complex) * np.ones(
            pts.shape[:-1]
        )

    def g_cb(pts, normals):
        grad = np.stack(
            [
                gxf(pts[..., 0], pts[..., 1]) * np.ones(pts.shape[:-1]),
                gyf(pts[..., 0], pts[..., 1]) * np.ones(pts.shape[:-1]),
            ],
            axis=-1,
        )
        return np.einsum("...d,...d->...", grad, normals) + 1j * omega * u_cb(pts)

    return u_cb, f_cb, g_cb


# Ascending-series oracles for J0, Y0, J1 and Y1 in mpmath arithmetic, at
# whatever precision the caller sets (the Bessel criterion uses 50 digits).
EULER = mp.euler


def oracle_j0(x):
    x = mp.mpf(x)
    q = x * x / 4
    total, term = mp.mpf(1), mp.mpf(1)
    for k in range(1, 200):
        term *= -q / (k * k)
        total += term
        if abs(term) < mp.mpf(10) ** (-45) * (1 + abs(total)):
            break
    return total


def oracle_j1(x):
    x = mp.mpf(x)
    q = x * x / 4
    total, term = mp.mpf(1), mp.mpf(1)
    for k in range(1, 200):
        term *= -q / (k * (k + 1))
        total += term
        if abs(term) < mp.mpf(10) ** (-45) * (1 + abs(total)):
            break
    return x / 2 * total


def oracle_y0(x):
    x = mp.mpf(x)
    q = x * x / 4
    total, term, harmonic = mp.mpf(0), mp.mpf(1), mp.mpf(0)
    for k in range(1, 200):
        term *= -q / (k * k)
        harmonic += mp.mpf(1) / k
        total -= term * harmonic
        if abs(term) < mp.mpf(10) ** (-45):
            break
    return 2 / mp.pi * ((mp.log(x / 2) + EULER) * oracle_j0(x) + total)


def oracle_y1(x):
    x = mp.mpf(x)
    q = x * x / 4
    total, term, harmonic = mp.mpf(1), mp.mpf(1), mp.mpf(0)
    for k in range(1, 200):
        term *= -q / (k * (k + 1))
        harmonic += mp.mpf(1) / k
        total += term * (2 * harmonic + mp.mpf(1) / (k + 1))
        if abs(term) < mp.mpf(10) ** (-45):
            break
    return (
        2 / mp.pi * (mp.log(x / 2) + EULER) * oracle_j1(x)
        - 2 / (mp.pi * x)
        - x / (2 * mp.pi) * total
    )
