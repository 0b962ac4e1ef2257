import math
import re

import numpy as np
import pytest

from helmtrefftz.mesh import (
    build_unit_disk_mesh,
    build_unit_square_mesh,
    mesh_from_triangulation,
)
from helpers import reference_faces, refine, shuffled_jittered_disk

REFERENCE_VERTICES = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def test_square_counts_n1():
    m = build_unit_square_mesh(1)
    assert m.n_elements == 2
    assert len(m.interior_faces["plus"]) == 1
    assert len(m.boundary_faces["element"]) == 4


def test_square_counts_n2():
    m = build_unit_square_mesh(2)
    assert m.n_elements == 8
    assert m.domain_area == 1.0
    assert abs(m.areas.sum() - 1.0) < 1e-12


def test_square_max_diameter_n4():
    m = build_unit_square_mesh(4)
    assert m.max_diameter == pytest.approx(math.sqrt(2.0) / 4.0, abs=1e-15)


def test_square_rejects_zero():
    with pytest.raises(ValueError):
        build_unit_square_mesh(0)


def test_disk_hexagon_fan():
    m = build_unit_disk_mesh(1)
    assert m.n_elements == 6
    assert len(m.boundary_faces["element"]) == 6
    assert m.domain_area == math.pi


@pytest.mark.parametrize("rings", [1, 2, 3])
def test_disk_boundary_vertices_on_circle(rings):
    m = build_unit_disk_mesh(rings)
    for end in ("v0", "v1"):
        radii = np.linalg.norm(m.boundary_faces[end], axis=1)
        assert np.abs(radii - 1.0).max() <= 1e-14


def test_disk_area_defect_second_order():
    # polygon area defect vs the exact disk area shrinks by ~4x per doubling
    defects = [math.pi - build_unit_disk_mesh(r).areas.sum() for r in (2, 4, 8)]
    assert 3.5 < defects[0] / defects[1] < 4.5
    assert 3.5 < defects[1] / defects[2] < 4.5


def test_element_geometry_reference_triangle():
    m = mesh_from_triangulation(REFERENCE_VERTICES, np.array([[0, 1, 2]]))
    assert m.areas[0] == pytest.approx(0.5, abs=1e-15)
    assert m.diameters[0] == pytest.approx(math.sqrt(2.0), abs=1e-15)
    # incircle radius area/semiperimeter
    assert m.inradii[0] == pytest.approx(1.0 / (2.0 + math.sqrt(2.0)), abs=1e-14)


def test_equilateral_incenter_is_centroid():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3.0) / 2.0]])
    m = mesh_from_triangulation(verts, np.array([[0, 1, 2]]))
    assert np.allclose(m.incenters[0], verts.mean(axis=0), atol=1e-14)


def test_incenter_ball_inside_element():
    m = build_unit_disk_mesh(3)
    tri = m.tri_coords
    for i in range(3):
        v0, v1 = tri[:, i], tri[:, (i + 1) % 3]
        t = v1 - v0
        n = np.stack([t[:, 1], -t[:, 0]], axis=1) / np.linalg.norm(t, axis=1)[:, None]
        dist = np.abs(np.einsum("ed,ed->e", n, m.incenters - v0))
        assert np.all(dist >= m.inradii - 1e-12)


def test_degenerate_triangle_rejected():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(ValueError):
        mesh_from_triangulation(verts, np.array([[0, 1, 2]]))


def test_clockwise_triangle_rejected():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        mesh_from_triangulation(verts, np.array([[0, 2, 1]]))


def test_refine_counts_and_sizes():
    m = build_unit_square_mesh(1)
    r = refine(m)
    assert r.n_elements == 8
    assert r.max_diameter == pytest.approx(m.max_diameter / 2.0, abs=1e-15)
    assert len(r.boundary_faces["element"]) == 2 * len(m.boundary_faces["element"])
    assert abs(r.areas.sum() - 1.0) < 1e-12


def test_refine_matches_finer_grid():
    assert refine(build_unit_square_mesh(2)).n_elements == build_unit_square_mesh(4).n_elements


@pytest.mark.parametrize(
    "mesh",
    [build_unit_square_mesh(3), build_unit_disk_mesh(2), refine(build_unit_disk_mesh(2))],
    ids=["square3", "disk2", "disk2-refined"],
)
def test_face_topology_invariants(mesh):
    # every triangle edge is either shared by two elements or on the boundary
    fa, fb = mesh.interior_faces, mesh.boundary_faces
    assert 3 * mesh.n_elements == 2 * len(fa["plus"]) + len(fb["element"])
    assert np.all(fa["plus"] < fa["minus"])
    for faces in (fa, fb):
        assert np.abs(np.linalg.norm(faces["normal"], axis=1) - 1.0).max() <= 1e-14
    d = mesh.centroids[fa["minus"]] - mesh.centroids[fa["plus"]]
    assert np.all(np.einsum("fd,fd->f", fa["normal"], d) > 0.0)
    out = 0.5 * (fb["v0"] + fb["v1"]) - mesh.centroids[fb["element"]]
    assert np.all(np.einsum("fd,fd->f", fb["normal"], out) > 0.0)


REFERENCE_MESHES = {
    "square1": lambda: build_unit_square_mesh(1),
    "square3": lambda: build_unit_square_mesh(3),
    "disk1": lambda: build_unit_disk_mesh(1),
    "disk2": lambda: build_unit_disk_mesh(2),
    "disk5": lambda: build_unit_disk_mesh(5),
    "disk3-refined": lambda: refine(build_unit_disk_mesh(3)),
    "triangle": lambda: mesh_from_triangulation(
        REFERENCE_VERTICES, np.array([[0, 1, 2]])
    ),
    "disk3-shuffled": lambda: shuffled_jittered_disk(3, seed=7),
}


@pytest.mark.parametrize(
    "build", REFERENCE_MESHES.values(), ids=REFERENCE_MESHES.keys()
)
def test_faces_match_dict_loop_reference(build):
    mesh = build()
    interior, boundary = reference_faces(mesh.vertices, mesh.triangles)
    pairs = ((mesh.interior_faces, interior), (mesh.boundary_faces, boundary))
    for faces, expected in pairs:
        assert faces.keys() == expected.keys()
        for key, ref in expected.items():
            assert faces[key].shape == ref.shape, key
            assert np.array_equal(faces[key], ref), key


def test_edge_shared_by_three_triangles_rejected():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.5, 2.0], [0.5, -1.0]])
    tris = np.array([[0, 1, 2], [0, 1, 3], [1, 0, 4]])
    with pytest.raises(ValueError, match=r"edge \(0,1\) shared by 3 triangles"):
        mesh_from_triangulation(verts, tris)


UNIT_SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])


@pytest.mark.parametrize(
    "triangles,index",
    [
        ([[0, 1, 2], [1, 3, -2]], 1),  # negative: would wrap to vertex 2
        ([[0, 1, 2], [1, 3, 4]], 1),  # one past the last vertex
        ([[0, 1, 2.6], [1, 3, 2]], 0),  # fractional: would truncate to 2
        ([[0, 1, 2], [1, 3, float("nan")]], 1),
    ],
    ids=["negative", "past-end", "fractional", "nan"],
)
def test_bad_vertex_index_rejected_naming_the_triangle(triangles, index):
    with pytest.raises(ValueError, match=rf"triangle {index} has vertex indices"):
        mesh_from_triangulation(UNIT_SQUARE, np.array(triangles))


@pytest.mark.parametrize(
    "vertices,triangles,message",
    [
        (UNIT_SQUARE, [[0, 1, 2, 3]], "triangles must have shape (Nt, 3), got (1, 4)"),
        (UNIT_SQUARE, [0, 1, 2], "triangles must have shape (Nt, 3), got (3,)"),
        (np.zeros((4, 3)), [[0, 1, 2]], "vertices must have shape (Nv, 2), got (4, 3)"),
    ],
    ids=["four-columns", "flat-triangles", "3d-vertices"],
)
def test_misshapen_arrays_rejected(vertices, triangles, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        mesh_from_triangulation(vertices, np.array(triangles))


def test_integral_float_indices_accepted():
    tris = [[0, 1, 2], [1, 3, 2]]
    mesh = mesh_from_triangulation(UNIT_SQUARE, np.array(tris, dtype=float))
    assert mesh.triangles.dtype == int
    assert np.array_equal(mesh.triangles, tris)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_vertex_rejected(bad):
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    verts[2, 1] = bad
    with pytest.raises(ValueError, match="at vertex 2"):
        mesh_from_triangulation(verts, np.array([[0, 1, 2], [1, 3, 2]]))


@pytest.mark.parametrize(
    "build", [lambda: build_unit_square_mesh(5), lambda: build_unit_disk_mesh(6)]
)
def test_dissection_order_is_deterministic_permutation(build):
    order = build().dissection_order
    assert np.array_equal(np.sort(order), np.arange(len(order)))
    assert np.array_equal(order, build().dissection_order)


def test_shape_regularity_across_refinements():
    m = build_unit_square_mesh(2)
    for _ in range(3):
        ratio = (m.diameters / m.inradii).max()
        assert ratio <= 8.0
        m = refine(m)
