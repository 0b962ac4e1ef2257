"""The element basis, its quadrature, and the tables built from them.

This is the only module that knows the element basis, its frame
(incenter and diameter) and its quadrature, and the only one that
places quadrature points.  Assembly, the local constraints and the
error norms take their tables from _volume_tables and _face_tables
alone, at one of two rule orders: _gram_order(p) for products of two
degree-p functions, _data_order(p) for data against one.  A new basis
or rule is a change here alone.

The basis on a triangle K with incenter c and diameter h is

    m_ab(x, y) = ((x - cx)/h)^a * ((y - cy)/h)^b,    a + b <= p,

in graded lexicographic order (constant first).  Gradients carry a 1/h
factor and Laplacians 1/h^2, so all derivative formulas are exact.

Evaluation at points builds one power table per coordinate, X**k and
Y**k for k = 0..p, with the float-exponent power (columns 0 and 1 are
1.0 and X, its own results), and gathers every column of the values,
gradients and Laplacians from those two tables with np.take
(C-contiguous results, so downstream einsum sums in a fixed order).
Each entry is therefore bitwise the closed form X**a * Y**b and its
derivative formulas.  Repeated multiplication would be cheaper but
rounds differently, which moves errors at the round-off floor (sinsin
p=12).  Derivative tables are built only when read.

Shared tables.  A _shared_tables(order) scope shares the tables of one
rule order; outside a scope of its order every call builds its own
points, weights and power tables and drops them with its result.
Inside one, _volume_tables over all elements and _face_tables at that
order keep one set per (mesh, where) until the outermost scope of the
order closes: the points and weights once, and the power tables up to
the highest degree read so far, of which a lower degree reads the
first columns (bitwise the tables it would build).  A scope of the
same order joins the open one; scopes of other orders are independent.
Every reader of the whole mesh's tables reads an open scope of its
order; there is no opt-out.  harness._rung holds one scope at the data
rule for a whole rung: the load vector (volume and boundary terms), the
particular field (test degree p-2) and both error norms of every
method read one set.  Inside it harness.solve assembles the SIPDG
matrix at the Gram rule, which below p = 14 has no open scope, and
then opens one at the Gram rule for the mass Grams and the local
constraints (trial degree p, test degree p-2), closed before the first
LU factorization, which sets the peak memory.  From p = 14 on the Gram
rule is the data rule, so the assembly, the Grams and the constraints
fill and read the rung's data-rule set.  The DG-norm Grams and the
one-element diagnostics build their own outside a scope of their
order.

Element Gram matrices (mass, gradient, boundary traces and their normal
derivatives) and bubble spaces are built for a batch of elements in one
stacked call; an index array selects the batch, all elements by default.

Summation order of the gradient Gram.  The CSV bytes depend on the
rounding of every Gram entry, so the gradient Gram keeps the order of
np.einsum("eqid,eqjd,eq->eij", grad, grad, w): at each point the two
terms (gx_i gx_j) w + (gy_i gy_j) w are added first, then the points
are added one after another, starting from zero.  _weighted_gram
reproduces that order on the separate gx and gy tables without
einsum's two-wide inner loop: it forms the upper triangle i <= j
only (the products commute, so the mirror is exact), tiles elements
and points so that no temporary exceeds _GRAM_TILE entries, and adds
the points in an explicit loop.  np.add.reduce and a matmul would
sum in another order and move the last bits.

Triangle quadrature uses a collapsed Gauss-Legendre x Gauss-Jacobi
product rule on the reference triangle: positive weights, exact for any
requested total degree in the supported range.  The Gauss-Jacobi
factor is computed here, by the steps of scipy.special.roots_jacobi
(bitwise its nodes and weights), so that importing the package does
not load scipy.special.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import comb

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.linalg import eigvals_banded

from .mesh import Mesh, cross2

__all__ = [
    "MAX_QUAD_ORDER",
    "dim_poly",
    "monomial_exponents",
    "BasisEval",
    "QuadratureRule",
    "quadrature_rule",
    "map_rule_to_triangle",
    "EdgeQuadratureRule",
    "edge_quadrature_rule",
    "bubble_basis",
]

MAX_QUAD_ORDER = 30


def dim_poly(p: int) -> int:
    """Dimension of bivariate polynomials of total degree <= p."""
    if p < 0:
        return 0
    return (p + 1) * (p + 2) // 2


@lru_cache(maxsize=None)
def monomial_exponents(p: int) -> np.ndarray:
    """Exponent pairs (a, b) with a+b <= p in graded lexicographic order."""
    exps = [(d - t, t) for d in range(p + 1) for t in range(d + 1)]
    arr = np.array(exps, dtype=int).reshape(-1, 2)
    arr.setflags(write=False)
    return arr


class BasisEval:
    """Basis values and derivatives at a set of points.

    values, gx, gy, laplacians : (..., n) ; gradients : (..., n, 2)

    gx and gy are the two components of the gradient, each C-contiguous;
    gradients stacks them.  Each table is gathered from the power tables
    X**k, Y**k (k = 0..p) on first access and kept, so callers pay only
    for the tables they read.  degree is p.
    """

    def __init__(
        self, x_powers: np.ndarray, y_powers: np.ndarray, p: int, inv_h: np.ndarray
    ):
        self.degree = p
        exps = monomial_exponents(p)
        self._ia = exps[:, 0]
        self._ib = exps[:, 1]
        self._a = self._ia.astype(float)
        self._b = self._ib.astype(float)
        self._x_powers = x_powers
        self._y_powers = y_powers
        self._inv_h = inv_h

    def _xa(self, shift: int = 0) -> np.ndarray:
        """Column i holds X**max(a_i - shift, 0)."""
        return np.take(self._x_powers, np.maximum(self._ia - shift, 0), axis=-1)

    def _yb(self, shift: int = 0) -> np.ndarray:
        return np.take(self._y_powers, np.maximum(self._ib - shift, 0), axis=-1)

    @cached_property
    def values(self) -> np.ndarray:
        return self._xa() * self._yb()

    @cached_property
    def gx(self) -> np.ndarray:
        return self._a * self._xa(1) * self._yb() * self._inv_h

    @cached_property
    def gy(self) -> np.ndarray:
        return self._b * self._xa() * self._yb(1) * self._inv_h

    @cached_property
    def gradients(self) -> np.ndarray:
        return np.stack([self.gx, self.gy], axis=-1)

    @cached_property
    def laplacians(self) -> np.ndarray:
        a, b, inv_h = self._a, self._b, self._inv_h
        xa, yb = self._xa(), self._yb()
        return (
            a * (a - 1.0) * self._xa(2) * yb + b * (b - 1.0) * xa * self._yb(2)
        ) * inv_h**2

    def lower(self, q: int) -> BasisEval:
        """The degree-q tables (q <= p) at the same points.

        They read the first q+1 columns of the power tables, which are
        bitwise the tables a degree-q evaluation would build.
        """
        return BasisEval(
            self._x_powers[..., : q + 1], self._y_powers[..., : q + 1], q, self._inv_h
        )


def _monomial_tables(
    centers: np.ndarray, scales: np.ndarray, p: int, points: np.ndarray
) -> BasisEval:
    """Evaluate scaled monomials for batched element frames.

    centers (..., 2) and scales (...) broadcast against points (..., Q, 2).
    """
    inv_h = 1.0 / np.asarray(scales)[..., None, None]
    X = (points[..., 0] - np.asarray(centers)[..., None, 0])[..., None] * inv_h
    Y = (points[..., 1] - np.asarray(centers)[..., None, 1])[..., None] * inv_h
    return BasisEval(_powers(X, p), _powers(Y, p), p, inv_h)


def _powers(X: np.ndarray, p: int) -> np.ndarray:
    """X**k for k = 0..p, (..., p+1) from X (..., 1), bitwise X ** arange(p+1).

    The power runs only for k >= 2: columns 0 and 1 are 1.0 and X, the
    power's own results, and a negative base costs the power some 40
    times a positive one.  Below p = 3 the whole table is one power
    call, because numpy computes a lone k = 2 column with another kernel
    and other last bits.
    """
    if p < 3:
        return X ** np.arange(p + 1, dtype=float)
    out = np.empty(X.shape[:-1] + (p + 1,))
    out[..., 0] = 1.0
    out[..., 1] = X[..., 0]
    np.power(X, np.arange(2, p + 1, dtype=float), out=out[..., 2:])
    return out


@dataclass(frozen=True)
class QuadratureRule:
    """Triangle rule in barycentric coordinates; weights sum to 1/2."""

    barycentric: np.ndarray  # (Q, 3)
    weights: np.ndarray  # (Q,), reference-triangle weights
    order: int  # exact for total degree <= order


def _jacobi(n: int, a: float, b: float, x: np.ndarray) -> np.ndarray:
    """Jacobi polynomial P_n^(a, b)(x) for integer n, a, b >= 0.

    The recurrence of scipy.special.eval_jacobi, operation for operation.
    """
    if n == 0:
        return np.ones_like(x)
    if n == 1:
        return 0.5 * (2 * (a + 1) + (a + b + 2) * (x - 1))
    d = (a + b + 2) * (x - 1) / (2 * (a + 1))
    p = d + 1
    for j in range(1, n):
        k = float(j)
        t = 2 * k + a + b
        d = ((t * (t + 1) * (t + 2)) * (x - 1) * p + 2 * k * (k + b) * (t + 2) * d) / (
            2 * (k + a + 1) * (k + a + b + 1) * t
        )
        p = d + p
    return comb(n + int(a), n) * p


def _gauss_jacobi_10(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Jacobi rule for the weight (1 - t) on [-1, 1], n points.

    The steps of scipy.special.roots_jacobi(n, 1.0, 0.0): Golub-Welsch
    eigenvalues of the Jacobi matrix, one Newton step, and weights from
    log-normalized values, scaled to the weight's integral 2.
    """
    a, b = 1.0, 0.0
    k = np.arange(n, dtype=float)
    kk = k[1:]
    band = np.zeros((2, n))
    band[0, 1:] = (
        2.0
        / (2.0 * kk + a + b)
        * np.sqrt((kk + a) * (kk + b) / (2 * kk + a + b + 1))
        * np.where(kk == 1, 1.0, np.sqrt(kk * (kk + a + b) / (2.0 * kk + a + b - 1)))
    )
    band[1] = np.where(
        k == 0,
        (b - a) / (2 + a + b),
        (b * b - a * a) / ((2.0 * k + a + b) * (2.0 * k + a + b + 2)),
    )
    x = eigvals_banded(band, overwrite_a_band=True)
    dy = 0.5 * (n + a + b + 1) * _jacobi(n - 1, a + 1, b + 1, x)
    x -= _jacobi(n, a, b, x) / dy
    fm = _jacobi(n - 1, a, b, x)
    log_fm = np.log(np.abs(fm))
    log_dy = np.log(np.abs(dy))
    fm /= np.exp((log_fm.max() + log_fm.min()) / 2.0)
    dy /= np.exp((log_dy.max() + log_dy.min()) / 2.0)
    w = 1.0 / (fm * dy)
    w *= 2.0 / w.sum()
    return x, w


@lru_cache(maxsize=None)
def quadrature_rule(order: int) -> QuadratureRule:
    """Collapsed product rule exact for all polynomials up to `order`."""
    if not 1 <= order <= MAX_QUAD_ORDER:
        raise ValueError(f"quadrature order {order} outside 1..{MAX_QUAD_ORDER}")
    n = (order + 2) // 2
    tg, wg = leggauss(n)  # weight 1 on [-1, 1]
    xi = 0.5 * (tg + 1.0)
    wxi = 0.5 * wg
    tj, wj = _gauss_jacobi_10(n)  # weight (1-t) on [-1, 1]
    eta = 0.5 * (tj + 1.0)
    weta = 0.25 * wj

    # Duffy map (xi, eta) -> (x, y) = (xi (1 - eta), eta), jacobian (1 - eta)
    x = (xi[:, None] * (1.0 - eta[None, :])).ravel()
    y = np.broadcast_to(eta[None, :], (n, n)).ravel()
    w = (wxi[:, None] * weta[None, :]).ravel()
    bary = np.stack([1.0 - x - y, x, y], axis=1)
    bary.setflags(write=False)
    w.setflags(write=False)
    return QuadratureRule(bary, w, order)


def map_rule_to_triangle(
    rule: QuadratureRule, tri_coords: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Map a reference rule to physical triangles.

    tri_coords (..., 3, 2) -> points (..., Q, 2) and weights (..., Q)
    scaled so that the weights sum to each triangle's area.
    """
    tri = np.asarray(tri_coords, dtype=float)
    pts = np.einsum("qv,...vd->...qd", rule.barycentric, tri)
    area = 0.5 * cross2(tri[..., 1, :] - tri[..., 0, :], tri[..., 2, :] - tri[..., 0, :])
    w = rule.weights * (2.0 * area)[..., None]
    return pts, w


@dataclass(frozen=True)
class EdgeQuadratureRule:
    """Gauss-Legendre rule on the unit segment [0, 1]; weights sum to 1."""

    nodes: np.ndarray
    weights: np.ndarray
    order: int


@lru_cache(maxsize=None)
def edge_quadrature_rule(order: int) -> EdgeQuadratureRule:
    if not 1 <= order <= MAX_QUAD_ORDER:
        raise ValueError(f"edge quadrature order {order} outside 1..{MAX_QUAD_ORDER}")
    n = (order + 2) // 2
    t, w = leggauss(n)
    nodes = 0.5 * (t + 1.0)
    weights = 0.5 * w
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return EdgeQuadratureRule(nodes, weights, order)


def _exponent_index(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Position of the monomial with exponents (a, b) in graded lex order."""
    d = a + b
    return d * (d + 1) // 2 + b


def bubble_basis(mesh: Mesh, p: int, elements: np.ndarray | None = None) -> np.ndarray:
    """Bubble spaces (|x - c|^2 - r^2) * P^{p-2}(K) of the given elements.

    Returns (E, dim_poly(p), dim_poly(p-2)): the exact expansion of each
    member in its element's scaled monomial basis, with c and r the
    incenter and inradius; no columns for p < 2.  elements defaults to
    all elements.
    """
    sel = slice(None) if elements is None else elements
    h = mesh.diameters[sel]
    rho2 = (mesh.inradii[sel] / h) ** 2
    coeffs = np.zeros((len(h), dim_poly(p), dim_poly(p - 2)))
    a, b = monomial_exponents(p - 2).T
    j = np.arange(len(a))
    # (|x-c|^2 - r^2) * m_ab = h^2 (m_{a+2,b} + m_{a,b+2} - rho^2 m_ab)
    coeffs[:, _exponent_index(a + 2, b), j] = h[:, None] ** 2
    coeffs[:, _exponent_index(a, b + 2), j] = h[:, None] ** 2
    coeffs[:, _exponent_index(a, b), j] = -(h**2 * rho2)[:, None]
    return coeffs


def _gram_order(p: int) -> int:
    """Order of the rule for products of two degree-p basis functions: the
    SIPDG Grams, the constraint W and the element Grams."""
    return min(2 * p + 2, MAX_QUAD_ORDER)


def _data_order(p: int) -> int:
    """Order of the rule for data against the degree-p basis: the load
    vector, the constraint moments and the error norms."""
    return min(2 * p + 6, MAX_QUAD_ORDER)


def _element_tables(mesh: Mesh, elements, p: int, points: np.ndarray) -> BasisEval:
    """Degree-p tables at points (..., Q, 2), each in its element's frame;
    elements (...) indexes the mesh's elements, as a slice or an array."""
    centers, scales = mesh.incenters[elements], mesh.diameters[elements]
    return _monomial_tables(centers, scales, p, points)


def _face_quadrature(faces, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Points (..., M, 2) and weights (..., M) of the order-`order` edge rule.

    faces maps "v0" and "v1" to the endpoints (..., 2) and "length" to
    the lengths (...) of the segments, as the mesh's face dicts do.
    """
    rule = edge_quadrature_rule(order)
    v0 = faces["v0"]
    pts = v0[..., None, :] + rule.nodes[:, None] * (faces["v1"] - v0)[..., None, :]
    return pts, rule.weights * faces["length"][..., None]


# rule order -> {(id(mesh), where): (mesh, tables, points, weights)} for
# each open _shared_tables scope; {} outside all.  Each scope sets a new
# outer dict and never changes one it did not set.  A context variable,
# so each thread sees only the scopes it opened.
_shared: ContextVar[dict[int, dict]] = ContextVar("_shared", default={})


@contextmanager
def _shared_tables(order: int):
    """Share the tables of the whole mesh at rule order `order` until the
    scope closes.

    A nested scope of the same order joins the open one, and only the
    outermost close drops the tables; a scope of another order is
    independent.  Tables at an order without an open scope are built by
    every call.
    """
    scopes = _shared.get()
    if order in scopes:
        yield
        return
    token = _shared.set({**scopes, order: {}})
    try:
        yield
    finally:
        _shared.reset(token)


def _mesh_tables(mesh: Mesh, where: str, elements, p: int, order: int, rule):
    """Degree-p tables of elements at the points and weights rule() returns.

    Inside a _shared_tables(order) scope the set is kept under (mesh,
    where): its points and weights are built once, and its power tables
    again only for a degree above the highest built so far; a lower
    degree reads their first columns (BasisEval.lower).
    """
    shared = _shared.get().get(order)
    if shared is None:
        pts, w = rule()
        return _element_tables(mesh, elements, p, pts), pts, w
    # the entry holds the mesh, so no other mesh takes its id meanwhile
    key = (id(mesh), where)
    if key not in shared:
        pts, w = rule()
        pts.setflags(write=False)  # every reader of the scope sees them
        w.setflags(write=False)
        shared[key] = (mesh, _element_tables(mesh, elements, p, pts), pts, w)
    _, tables, pts, w = shared[key]
    if tables.degree < p:
        tables = _element_tables(mesh, elements, p, pts)
        shared[key] = (mesh, tables, pts, w)
    return tables.lower(p), pts, w


def _volume_tables(
    mesh: Mesh, p: int, order: int, elements=None
) -> tuple[BasisEval, np.ndarray, np.ndarray]:
    """Degree-p tables, points and weights at the order-`order` rule of the elements.

    elements defaults to all elements, whose tables a _shared_tables
    scope shares; a subset always gets its own.
    """
    rule = quadrature_rule(order)
    if elements is not None:
        pts, w = map_rule_to_triangle(rule, mesh.tri_coords[elements])
        return _element_tables(mesh, elements, p, pts), pts, w
    return _mesh_tables(
        mesh, "volume", slice(None), p, order,
        lambda: map_rule_to_triangle(rule, mesh.tri_coords),
    )


def _face_tables(
    mesh: Mesh, side: str, p: int, order: int
) -> tuple[BasisEval, np.ndarray, np.ndarray]:
    """Degree-p tables, points and weights at the order-`order` edge rule
    of the mesh's faces, in the frames of one side's elements.

    side is "plus" or "minus" for the interior faces and "element" for
    the boundary faces; a _shared_tables scope shares the tables.
    """
    faces = mesh.boundary_faces if side == "element" else mesh.interior_faces
    return _mesh_tables(
        mesh, side, faces[side], p, order, lambda: _face_quadrature(faces, order)
    )


# Largest temporary of _weighted_gram, in float64 entries (512 KB)
_GRAM_TILE = 1 << 16


def _weighted_gram(tables, w: np.ndarray) -> np.ndarray:
    """G[e, i, j] = sum_q (sum_c t_c[e, q, i] t_c[e, q, j]) w[e, q], (E, n, n).

    tables are (E, Q, n) arrays, one for a mass Gram and (gx, gy) for a
    gradient Gram; w is (E, Q).  Each point contributes the components'
    products (t_i t_j) w added in order, and the points are added in
    order starting from zero: the order of np.einsum("eqi,eqj,eq->eij")
    and np.einsum("eqid,eqjd,eq->eij"), so the result is bitwise theirs.
    Only the upper triangle is computed; the mirror copies it.
    """
    E, Q, n = tables[0].shape
    iu, ju = np.triu_indices(n)
    repeats = n - np.arange(n)  # t[..., iu] repeats column i n - i times

    def products(table, tile):
        """(t_i t_j) w over the upper triangle, (e, q, pairs)."""
        t = table[tile]
        out = np.repeat(t, repeats, axis=-1)
        out *= np.take(t, ju, axis=-1)
        out *= w[tile][..., None]
        return out

    upper = np.zeros((E, len(iu)))
    et = max(1, _GRAM_TILE // (len(iu) * Q))
    qt = max(1, min(Q, _GRAM_TILE // (len(iu) * et)))
    for e0 in range(0, E, et):
        acc = upper[e0 : e0 + et]
        for q0 in range(0, Q, qt):
            tile = np.s_[e0 : e0 + et, q0 : q0 + qt]
            point_sum = products(tables[0], tile)
            for table in tables[1:]:
                point_sum += products(table, tile)
            for point in point_sum.swapaxes(0, 1):
                acc += point
    gram = np.empty((E, n, n))
    gram[:, iu, ju] = upper
    gram[:, ju, iu] = upper
    return gram


def _element_mass_grams(
    mesh: Mesh, p: int, elements: np.ndarray | None = None
) -> np.ndarray:
    """L2 Gram matrices of the degree-p basis, (E, n, n); all elements by default."""
    ev, _, w = _volume_tables(mesh, p, _gram_order(p), elements)
    return np.einsum("eqi,eqj,eq->eij", ev.values, ev.values, w)


def _element_stiffness_grams(
    mesh: Mesh, p: int, elements: np.ndarray | None = None
) -> np.ndarray:
    """Gradient Gram matrices of the degree-p basis, (E, n, n)."""
    ev, _, w = _volume_tables(mesh, p, _gram_order(p), elements)
    return _weighted_gram((ev.gx, ev.gy), w)


def _element_boundary_grams(
    mesh: Mesh, p: int, elements: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Gram matrices over each element boundary, (E, n, n) twice.

    The first holds the traces of the degree-p basis, the second their
    outward normal derivatives; each is the sum of its three edge terms.
    """
    if elements is None:
        elements = np.arange(mesh.n_elements)
    tri = mesh.tri_coords[elements]  # edge k runs from vertex k to vertex k+1
    head = np.roll(tri, -1, axis=1)
    tang = head - tri
    length = np.hypot(tang[..., 0], tang[..., 1])
    normal = np.stack([tang[..., 1], -tang[..., 0]], axis=-1) / length[..., None]
    edges = {"v0": tri, "v1": head, "length": length}
    pts, w = _face_quadrature(edges, _gram_order(p))  # (E, 3, M, 2), (E, 3, M)
    ev = _element_tables(mesh, elements[:, None], p, pts)
    dn = (ev.gradients @ normal[:, :, None, :, None])[..., 0]
    return tuple(
        np.einsum("ekmi,ekmj,ekm->ekij", tr, tr, w).sum(axis=1)
        for tr in (ev.values, dn)
    )
