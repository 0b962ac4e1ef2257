"""Scaled monomial bases, bubble spaces, and triangle/edge quadrature.

The basis on a triangle K with incenter c and diameter h is

    m_ab(x, y) = ((x - cx)/h)^a * ((y - cy)/h)^b,    a + b <= p,

in graded lexicographic order (constant first).  Gradients carry a 1/h
factor and Laplacians 1/h^2, so all derivative formulas are exact.

Evaluation at points builds one power table per coordinate, X**k and
Y**k for k = 0..p, with the float-exponent power, and gathers every
column of the values, gradients and Laplacians from those two tables
with np.take (C-contiguous results, so downstream einsum sums in a
fixed order).  Each entry is therefore bitwise the closed form
X**a * Y**b and its derivative formulas.  Repeated multiplication
would be cheaper but rounds differently, which moves errors at the
round-off floor (sinsin p=12).  Derivative tables are built only when
read.

Triangle quadrature uses a collapsed Gauss-Legendre x Gauss-Jacobi
product rule on the reference triangle: positive weights, exact for any
requested total degree in the supported range.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import roots_jacobi

from .mesh import ElementGeometry, cross2

__all__ = [
    "MAX_QUAD_ORDER",
    "dim_poly",
    "monomial_exponents",
    "BasisEval",
    "eval_basis",
    "QuadratureRule",
    "quadrature_rule",
    "map_rule_to_triangle",
    "EdgeQuadratureRule",
    "edge_quadrature_rule",
    "BubbleBasis",
    "bubble_basis",
    "element_mass_gram",
    "element_stiffness_gram",
    "element_boundary_gram",
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

    values : (..., n) ; gradients : (..., n, 2) ; laplacians : (..., n)

    Each table is gathered from the power tables X**k, Y**k (k = 0..p) on
    first access and kept, so callers pay only for the tables they read.
    """

    def __init__(
        self, x_powers: np.ndarray, y_powers: np.ndarray, p: int, inv_h: np.ndarray
    ):
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
    def gradients(self) -> np.ndarray:
        a, b, inv_h = self._a, self._b, self._inv_h
        gx = a * self._xa(1) * self._yb() * inv_h
        gy = b * self._xa() * self._yb(1) * inv_h
        return np.stack([gx, gy], axis=-1)

    @cached_property
    def laplacians(self) -> np.ndarray:
        a, b, inv_h = self._a, self._b, self._inv_h
        xa, yb = self._xa(), self._yb()
        return (
            a * (a - 1.0) * self._xa(2) * yb + b * (b - 1.0) * xa * self._yb(2)
        ) * inv_h**2


def _monomial_tables(
    centers: np.ndarray, scales: np.ndarray, p: int, points: np.ndarray
) -> BasisEval:
    """Evaluate scaled monomials for batched element frames.

    centers (..., 2) and scales (...) broadcast against points (..., Q, 2).
    """
    k = np.arange(p + 1, dtype=float)
    inv_h = 1.0 / np.asarray(scales)[..., None, None]
    X = (points[..., 0] - np.asarray(centers)[..., None, 0])[..., None] * inv_h
    Y = (points[..., 1] - np.asarray(centers)[..., None, 1])[..., None] * inv_h
    return BasisEval(X**k, Y**k, p, inv_h)


def eval_basis(geom: ElementGeometry, p: int, points: np.ndarray) -> BasisEval:
    """Evaluate the degree-p basis of one element at points (..., 2)."""
    if p < 0:
        raise ValueError("degree must be nonnegative")
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    return _monomial_tables(
        np.asarray(geom.center), np.asarray(geom.diameter), p, pts
    )


@dataclass(frozen=True)
class QuadratureRule:
    """Triangle rule in barycentric coordinates; weights sum to 1/2."""

    barycentric: np.ndarray  # (Q, 3)
    weights: np.ndarray  # (Q,), reference-triangle weights
    order: int  # exact for total degree <= order


@lru_cache(maxsize=None)
def quadrature_rule(order: int) -> QuadratureRule:
    """Collapsed product rule exact for all polynomials up to `order`."""
    if not 1 <= order <= MAX_QUAD_ORDER:
        raise ValueError(f"quadrature order {order} outside 1..{MAX_QUAD_ORDER}")
    n = (order + 2) // 2
    tg, wg = leggauss(n)  # weight 1 on [-1, 1]
    xi = 0.5 * (tg + 1.0)
    wxi = 0.5 * wg
    tj, wj = roots_jacobi(n, 1.0, 0.0)  # weight (1-t) on [-1, 1]
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


@dataclass(frozen=True)
class BubbleBasis:
    """Basis of (|x - c|^2 - r^2) * P^{p-2}(K), expanded in the P^p basis.

    coefficients : (dim_poly(p), size) exact expansion of each member in
    the element's scaled monomial basis; empty for p < 2.
    """

    degree: int
    coefficients: np.ndarray

    @property
    def size(self) -> int:
        return self.coefficients.shape[1]


def bubble_basis(geom: ElementGeometry, p: int) -> BubbleBasis:
    """Bubble space of one element; empty for p < 2."""
    n_p = dim_poly(p)
    if p < 2:
        return BubbleBasis(p, np.zeros((n_p, 0)))
    exps = monomial_exponents(p)
    index = {(int(a), int(b)): i for i, (a, b) in enumerate(exps)}
    h = geom.diameter
    rho2 = (geom.inradius / h) ** 2
    low = monomial_exponents(p - 2)
    coeffs = np.zeros((n_p, len(low)))
    # (|x-c|^2 - r^2) * m_ab = h^2 (m_{a+2,b} + m_{a,b+2} - rho^2 m_ab)
    for j, (a, b) in enumerate(low):
        coeffs[index[(a + 2, b)], j] += h**2
        coeffs[index[(a, b + 2)], j] += h**2
        coeffs[index[(a, b)], j] -= h**2 * rho2
    return BubbleBasis(p, coeffs)


def _triangle_points_weights(geom_coords: np.ndarray, order: int):
    rule = quadrature_rule(order)
    return map_rule_to_triangle(rule, geom_coords)


def element_mass_gram(
    geom: ElementGeometry, tri_coords: np.ndarray, p: int, order: int | None = None
) -> np.ndarray:
    """L2 Gram matrix of the degree-p basis on one triangle."""
    if order is None:
        order = min(2 * p + 2, MAX_QUAD_ORDER)
    pts, w = _triangle_points_weights(np.asarray(tri_coords), max(order, 1))
    vals = eval_basis(geom, p, pts).values
    return np.einsum("qi,qj,q->ij", vals, vals, w)


def element_stiffness_gram(
    geom: ElementGeometry, tri_coords: np.ndarray, p: int, order: int | None = None
) -> np.ndarray:
    """Gradient Gram matrix of the degree-p basis on one triangle."""
    if order is None:
        order = min(2 * p + 2, MAX_QUAD_ORDER)
    pts, w = _triangle_points_weights(np.asarray(tri_coords), max(order, 1))
    grads = eval_basis(geom, p, pts).gradients
    return np.einsum("qid,qjd,q->ij", grads, grads, w)


def element_boundary_gram(
    geom: ElementGeometry,
    tri_coords: np.ndarray,
    p: int,
    order: int | None = None,
    with_normal_derivative: bool = False,
) -> np.ndarray:
    """Gram matrix over the triangle boundary (values or normal derivatives)."""
    if order is None:
        order = min(2 * p + 2, MAX_QUAD_ORDER)
    rule = edge_quadrature_rule(max(order, 1))
    tri = np.asarray(tri_coords)
    n_p = dim_poly(p)
    gram = np.zeros((n_p, n_p))
    for k in range(3):
        v0, v1 = tri[k], tri[(k + 1) % 3]
        tang = v1 - v0
        length = float(np.hypot(*tang))
        normal = np.array([tang[1], -tang[0]]) / length
        pts = v0[None, :] + rule.nodes[:, None] * tang[None, :]
        ev = eval_basis(geom, p, pts)
        if with_normal_derivative:
            tr = ev.gradients @ normal
        else:
            tr = ev.values
        gram += np.einsum("qi,qj,q->ij", tr, tr, rule.weights * length)
    return gram
