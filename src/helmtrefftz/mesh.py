"""Structured simplicial meshes of the unit square and unit disk.

A mesh is a triangulation with its face topology kept as flat arrays,
one row per face, which the assembly and error routines read in stacked
calls.  interior_faces holds the endpoint coordinates v0 and v1, the
element pair plus < minus, the unit normal pointing from plus into
minus and the length; boundary_faces holds v0, v1, the owning element,
the outward unit normal and the length.  Interior faces are sorted by
(plus, minus, endpoint labels) and boundary faces by (element, endpoint
labels), with v0 the endpoint of lower label, so that jump and average
operators downstream have a fixed orientation and order.  Element
geometry uses the incenter and inradius: the inscribed ball is what the
bubble space construction needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "Mesh",
    "mesh_from_triangulation",
    "build_unit_square_mesh",
    "build_unit_disk_mesh",
]


def cross2(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """z-component of the cross product of planar vectors."""
    return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]


@dataclass(eq=False)
class Mesh:
    """Immutable triangulation with oriented face topology.

    Attributes
    ----------
    vertices : np.ndarray, shape (Nv, 2)
    triangles : np.ndarray, shape (Nt, 3)
        Vertex indices, counterclockwise.
    interior_faces : dict of arrays
        v0, v1 (F, 2); plus, minus (F,); normal (F, 2); length (F,).
    boundary_faces : dict of arrays
        v0, v1 (B, 2); element (B,); normal (B, 2); length (B,).
    domain_area : float
        Exact area of the continuous domain (1 for the unit square,
        pi for the unit disk); used for resolution measures.  The sum
        of triangle areas equals the *polygonal* area instead.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    interior_faces: dict[str, np.ndarray] = field(repr=False)
    boundary_faces: dict[str, np.ndarray] = field(repr=False)
    domain_area: float

    @property
    def n_elements(self) -> int:
        return len(self.triangles)

    @cached_property
    def tri_coords(self) -> np.ndarray:
        """Vertex coordinates per triangle, shape (Nt, 3, 2)."""
        return self.vertices[self.triangles]

    @cached_property
    def areas(self) -> np.ndarray:
        t = self.tri_coords
        return 0.5 * cross2(t[:, 1] - t[:, 0], t[:, 2] - t[:, 0])

    @cached_property
    def diameters(self) -> np.ndarray:
        t = self.tri_coords
        e = np.stack(
            [t[:, 1] - t[:, 0], t[:, 2] - t[:, 1], t[:, 0] - t[:, 2]], axis=1
        )
        return np.linalg.norm(e, axis=2).max(axis=1)

    @cached_property
    def incenters(self) -> np.ndarray:
        t = self.tri_coords
        # side length opposite each vertex
        a = np.linalg.norm(t[:, 2] - t[:, 1], axis=1)
        b = np.linalg.norm(t[:, 0] - t[:, 2], axis=1)
        c = np.linalg.norm(t[:, 1] - t[:, 0], axis=1)
        per = a + b + c
        w = np.stack([a, b, c], axis=1) / per[:, None]
        return np.einsum("ev,evd->ed", w, t)

    @cached_property
    def inradii(self) -> np.ndarray:
        t = self.tri_coords
        a = np.linalg.norm(t[:, 2] - t[:, 1], axis=1)
        b = np.linalg.norm(t[:, 0] - t[:, 2], axis=1)
        c = np.linalg.norm(t[:, 1] - t[:, 0], axis=1)
        return self.areas / (0.5 * (a + b + c))

    @cached_property
    def centroids(self) -> np.ndarray:
        return self.tri_coords.mean(axis=1)

    @property
    def max_diameter(self) -> float:
        return float(self.diameters.max())

    @cached_property
    def dissection_order(self) -> np.ndarray:
        """Element permutation by geometric nested dissection.

        Each element couples only to its face neighbours, so ordering a
        separator after the two halves it splits keeps the fill of a
        direct factorization local to the halves (George, SIAM J. Numer.
        Anal. 1973).
        """
        fa = self.interior_faces
        return _nested_dissection(
            self.centroids, np.stack([fa["plus"], fa["minus"]], axis=1)
        )


# subsets this small are ordered as they come; measured on the unit disk,
# smaller leaves cost time without reducing the fill further
_DISSECTION_LEAF = 4


def _nested_dissection(centroids: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """Recursive coordinate bisection of element centroids.

    A subset is split at the median of its centroids along its longer
    extent (stable sort, so ties keep index order).  The separator is the
    set of elements of the first half that share a face with the second;
    the order is first half, second half, separator, recursively.  pairs
    holds the element pairs of the interior faces.
    """
    side = np.zeros(len(centroids), dtype=np.int8)
    blocks: list[np.ndarray] = []

    def visit(elements: np.ndarray, pairs: np.ndarray):
        if len(elements) <= _DISSECTION_LEAF:
            blocks.append(elements)
            return
        pts = centroids[elements]
        axis = int(np.argmax(np.ptp(pts, axis=0)))
        by_axis = elements[np.argsort(pts[:, axis], kind="stable")]
        half = len(elements) // 2
        first, second = by_axis[:half], by_axis[half:]
        side[first], side[second] = 0, 1
        s = side[pairs]
        cut = s[:, 0] != s[:, 1]
        separator = np.unique(np.where(s[cut, 0] == 0, pairs[cut, 0], pairs[cut, 1]))
        side[separator] = 2
        s = side[pairs]
        visit(first[side[first] == 0], pairs[(s[:, 0] == 0) & (s[:, 1] == 0)])
        visit(second, pairs[(s[:, 0] == 1) & (s[:, 1] == 1)])
        blocks.append(separator)

    visit(np.arange(len(centroids)), pairs)
    return np.concatenate(blocks)


def mesh_from_triangulation(
    vertices: np.ndarray, triangles: np.ndarray, domain_area: float | None = None
) -> Mesh:
    """Build a Mesh from raw arrays, deriving the face topology.

    Raises ValueError on arrays not shaped (Nv, 2) and (Nt, 3), on a
    triangle whose vertex indices are not integers in [0, Nv), on
    non-finite vertex coordinates, on non-counterclockwise or degenerate
    triangles, or if an edge is shared by more than two triangles.
    """
    vertices = np.asarray(vertices, dtype=float)
    triangles = np.asarray(triangles)
    if vertices.ndim != 2 or vertices.shape[1] != 2:
        raise ValueError(f"vertices must have shape (Nv, 2), got {vertices.shape}")
    if triangles.ndim != 2 or triangles.shape[1] != 3:
        raise ValueError(f"triangles must have shape (Nt, 3), got {triangles.shape}")
    integral = triangles == np.floor(triangles)
    valid = (integral & (triangles >= 0) & (triangles < len(vertices))).all(axis=1)
    if not valid.all():
        bad = int(np.argmin(valid))
        raise ValueError(
            f"triangle {bad} has vertex indices {triangles[bad].tolist()}, "
            f"not integers in [0, {len(vertices)})"
        )
    triangles = triangles.astype(int)
    finite = np.isfinite(vertices).all(axis=1)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise ValueError(
            f"non-finite coordinates {vertices[bad].tolist()} at vertex {bad}"
        )
    t = vertices[triangles]
    signed = 0.5 * cross2(t[:, 1] - t[:, 0], t[:, 2] - t[:, 0])
    if np.any(signed <= 0.0):
        bad = np.nonzero(signed <= 0.0)[0]
        raise ValueError(f"non-positive signed area for triangles {bad.tolist()}")

    # edges (t0,t1), (t1,t2), (t2,t0) of every triangle, labelled by their
    # sorted vertex pair; a stable sort by label groups each edge with its
    # owners in ascending element order, so plus < minus
    ends = np.sort(triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
    label = ends[:, 0] * len(vertices) + ends[:, 1]
    by_label = np.argsort(label, kind="stable")
    owner = np.repeat(np.arange(len(triangles)), 3)[by_label]
    first = np.flatnonzero(np.diff(label[by_label], prepend=-1))
    count = np.diff(first, append=len(label))
    if np.any(count > 2):
        j = int(np.argmax(count > 2))
        va, vb = ends[by_label[first[j]]]
        raise ValueError(f"edge ({va},{vb}) shared by {count[j]} triangles")
    ends = ends[by_label[first]]
    plus, minus = owner[first], owner[first + count - 1]

    v0, v1 = vertices[ends[:, 0]], vertices[ends[:, 1]]
    tang = v1 - v0
    length = np.hypot(tang[:, 0], tang[:, 1])
    normal = np.stack([tang[:, 1], -tang[:, 0]], axis=1) / length[:, None]
    # orient from plus into minus, or out of the domain on the boundary
    centroids = t.mean(axis=1)
    inner = count == 2
    away = np.where(
        inner[:, None],
        centroids[minus] - centroids[plus],
        0.5 * (v0 + v1) - centroids[plus],
    )
    normal[np.einsum("fd,fd->f", normal, away) < 0.0] *= -1.0

    def rows(keep, *keys):
        """Rows where keep holds, sorted by keys (first key first)."""
        idx = np.flatnonzero(keep)
        return idx[np.lexsort([key[idx] for key in reversed(keys)])]

    i = rows(inner, plus, minus, ends[:, 0], ends[:, 1])
    b = rows(~inner, plus, ends[:, 0], ends[:, 1])
    interior = {
        "v0": v0[i], "v1": v1[i], "plus": plus[i], "minus": minus[i],
        "normal": normal[i], "length": length[i],
    }
    boundary = {
        "v0": v0[b], "v1": v1[b], "element": plus[b],
        "normal": normal[b], "length": length[b],
    }
    if domain_area is None:
        domain_area = float(signed.sum())
    return Mesh(vertices, triangles, interior, boundary, float(domain_area))


def build_unit_square_mesh(n: int) -> Mesh:
    """Triangulate (0,1)^2 into 2*n^2 triangles on an n x n grid.

    Every cell is split along the same diagonal (lower-left to
    upper-right), which keeps refinement sequences deterministic.
    """
    if n < 1:
        raise ValueError(f"need at least one subdivision per side, got n={n}")
    xs = np.linspace(0.0, 1.0, n + 1)
    xg, yg = np.meshgrid(xs, xs, indexing="xy")
    vertices = np.stack([xg.ravel(), yg.ravel()], axis=1)

    def vid(i: int, j: int) -> int:
        return j * (n + 1) + i

    tris = []
    for j in range(n):
        for i in range(n):
            tris.append((vid(i, j), vid(i + 1, j), vid(i + 1, j + 1)))
            tris.append((vid(i, j), vid(i + 1, j + 1), vid(i, j + 1)))
    return mesh_from_triangulation(vertices, np.array(tris, dtype=int), domain_area=1.0)


def build_unit_disk_mesh(rings: int) -> Mesh:
    """Fan-plus-rings triangulation of the unit disk with 6*rings^2 triangles.

    Ring i (radius i/rings) carries 6*i equally spaced vertices; all
    outermost vertices lie exactly on the unit circle.  The polygon
    underestimates the disk area by O(h^2); domain_area is set to pi.
    """
    if rings < 1:
        raise ValueError(f"need at least one ring, got rings={rings}")
    verts = [(0.0, 0.0)]
    ring_start = [0]  # vertex index of the first point on each ring
    for i in range(1, rings + 1):
        ring_start.append(len(verts))
        r = i / rings
        ang = 2.0 * np.pi * np.arange(6 * i) / (6 * i)
        verts.extend(zip(r * np.cos(ang), r * np.sin(ang)))

    def ring_vertex(i: int, k: int) -> int:
        if i == 0:
            return 0
        return ring_start[i] + (k % (6 * i))

    tris = []
    for i in range(1, rings + 1):
        for s in range(6):
            outer = [ring_vertex(i, s * i + t) for t in range(i + 1)]
            inner = [ring_vertex(i - 1, s * (i - 1) + t) for t in range(i)]
            for t in range(i):
                tris.append((outer[t], outer[t + 1], inner[t]))
            for t in range(i - 1):
                tris.append((outer[t + 1], inner[t + 1], inner[t]))
    return mesh_from_triangulation(
        np.array(verts), np.array(tris, dtype=int), domain_area=math.pi
    )
