"""Structured simplicial meshes of the unit square and unit disk.

Meshes are plain triangulations with explicit face topology.  Every
interior face stores an ordered element pair (plus, minus) and a unit
normal pointing from the plus element into the minus element, so that
jump and average operators downstream have a fixed orientation.  Element
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
    "InteriorFace",
    "BoundaryFace",
    "ElementGeometry",
    "mesh_from_triangulation",
    "build_unit_square_mesh",
    "build_unit_disk_mesh",
    "element_geometry",
    "refine",
]


def cross2(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """z-component of the cross product of planar vectors."""
    return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]


@dataclass(frozen=True)
class InteriorFace:
    """Face shared by two triangles; normal points from plus into minus."""

    endpoints: tuple[int, int]
    plus_element: int
    minus_element: int
    unit_normal: tuple[float, float]
    length: float


@dataclass(frozen=True)
class BoundaryFace:
    """Face on the domain boundary; normal points out of the domain."""

    endpoints: tuple[int, int]
    element: int
    unit_normal: tuple[float, float]
    length: float


@dataclass(frozen=True)
class ElementGeometry:
    """Per-triangle geometry: diameter, incenter, inradius, area."""

    diameter: float
    center: tuple[float, float]
    inradius: float
    area: float


@dataclass(eq=False)
class Mesh:
    """Immutable triangulation with oriented face topology.

    Attributes
    ----------
    vertices : np.ndarray, shape (Nv, 2)
    triangles : np.ndarray, shape (Nt, 3)
        Vertex indices, counterclockwise.
    interior_faces, boundary_faces : lists of face records.
    domain_area : float
        Exact area of the continuous domain (1 for the unit square,
        pi for the unit disk); used for resolution measures.  The sum
        of triangle areas equals the *polygonal* area instead.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    interior_faces: list[InteriorFace] = field(repr=False)
    boundary_faces: list[BoundaryFace] = field(repr=False)
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

    @cached_property
    def iface_arrays(self) -> dict[str, np.ndarray]:
        """Interior face data as flat arrays for vectorized assembly."""
        f = self.interior_faces
        if not f:
            empty = np.zeros((0,))
            return {
                "v0": np.zeros((0, 2)),
                "v1": np.zeros((0, 2)),
                "plus": np.zeros(0, dtype=int),
                "minus": np.zeros(0, dtype=int),
                "normal": np.zeros((0, 2)),
                "length": empty,
            }
        ep = np.array([fc.endpoints for fc in f], dtype=int)
        return {
            "v0": self.vertices[ep[:, 0]],
            "v1": self.vertices[ep[:, 1]],
            "plus": np.array([fc.plus_element for fc in f], dtype=int),
            "minus": np.array([fc.minus_element for fc in f], dtype=int),
            "normal": np.array([fc.unit_normal for fc in f]),
            "length": np.array([fc.length for fc in f]),
        }

    @cached_property
    def bface_arrays(self) -> dict[str, np.ndarray]:
        """Boundary face data as flat arrays for vectorized assembly."""
        f = self.boundary_faces
        ep = np.array([fc.endpoints for fc in f], dtype=int)
        return {
            "v0": self.vertices[ep[:, 0]],
            "v1": self.vertices[ep[:, 1]],
            "element": np.array([fc.element for fc in f], dtype=int),
            "normal": np.array([fc.unit_normal for fc in f]),
            "length": np.array([fc.length for fc in f]),
        }

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
        fa = self.iface_arrays
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

    Raises ValueError on non-counterclockwise or degenerate triangles,
    or if an edge is shared by more than two triangles.
    """
    vertices = np.asarray(vertices, dtype=float)
    triangles = np.asarray(triangles, dtype=int)
    t = vertices[triangles]
    signed = 0.5 * cross2(t[:, 1] - t[:, 0], t[:, 2] - t[:, 0])
    if np.any(signed <= 0.0):
        bad = np.nonzero(signed <= 0.0)[0]
        raise ValueError(f"non-positive signed area for triangles {bad.tolist()}")

    centroids = t.mean(axis=1)
    edge_owners: dict[tuple[int, int], list[tuple[int, int, int]]] = {}
    for k, tri in enumerate(triangles):
        for va, vb in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            key = (min(va, vb), max(va, vb))
            edge_owners.setdefault(key, []).append((k, int(va), int(vb)))

    interior: list[InteriorFace] = []
    boundary: list[BoundaryFace] = []
    for (va, vb), owners in edge_owners.items():
        p0, p1 = vertices[va], vertices[vb]
        tang = p1 - p0
        length = float(np.hypot(*tang))
        if length == 0.0:
            raise ValueError(f"degenerate edge between vertices {va} and {vb}")
        normal = np.array([tang[1], -tang[0]]) / length
        if len(owners) == 2:
            plus, minus = sorted(o[0] for o in owners)
            if normal @ (centroids[minus] - centroids[plus]) < 0.0:
                normal = -normal
            interior.append(
                InteriorFace((va, vb), plus, minus, (normal[0], normal[1]), length)
            )
        elif len(owners) == 1:
            elem = owners[0][0]
            mid = 0.5 * (p0 + p1)
            if normal @ (mid - centroids[elem]) < 0.0:
                normal = -normal
            boundary.append(
                BoundaryFace((va, vb), elem, (normal[0], normal[1]), length)
            )
        else:
            raise ValueError(f"edge ({va},{vb}) shared by {len(owners)} triangles")

    interior.sort(key=lambda fc: (fc.plus_element, fc.minus_element, fc.endpoints))
    boundary.sort(key=lambda fc: (fc.element, fc.endpoints))
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


def element_geometry(mesh: Mesh, element: int) -> ElementGeometry:
    """Geometry record (diameter, incenter, inradius, area) of one triangle."""
    if not 0 <= element < mesh.n_elements:
        raise IndexError(f"element {element} out of range")
    area = float(mesh.areas[element])
    if area <= 0.0:
        raise ValueError(f"degenerate triangle {element}")
    cx, cy = mesh.incenters[element]
    return ElementGeometry(
        diameter=float(mesh.diameters[element]),
        center=(float(cx), float(cy)),
        inradius=float(mesh.inradii[element]),
        area=area,
    )


def refine(mesh: Mesh) -> Mesh:
    """Uniform refinement: split every triangle into 4 congruent children."""
    vertices = [tuple(v) for v in mesh.vertices]
    midpoint: dict[tuple[int, int], int] = {}

    def mid(a: int, b: int) -> int:
        key = (min(a, b), max(a, b))
        if key not in midpoint:
            midpoint[key] = len(vertices)
            va, vb = mesh.vertices[a], mesh.vertices[b]
            vertices.append(((va[0] + vb[0]) / 2.0, (va[1] + vb[1]) / 2.0))
        return midpoint[key]

    tris = []
    for a, b, c in mesh.triangles:
        mab, mbc, mca = mid(a, b), mid(b, c), mid(c, a)
        tris.extend([(a, mab, mca), (mab, b, mbc), (mca, mbc, c), (mab, mbc, mca)])
    return mesh_from_triangulation(
        np.array(vertices), np.array(tris, dtype=int), domain_area=mesh.domain_area
    )
