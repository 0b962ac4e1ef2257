import math

import numpy as np
import pytest

from helmtrefftz.mesh import (
    build_unit_disk_mesh,
    build_unit_square_mesh,
    element_geometry,
    mesh_from_triangulation,
    refine,
)


def test_square_counts_n1():
    m = build_unit_square_mesh(1)
    assert m.n_elements == 2
    assert len(m.interior_faces) == 1
    assert len(m.boundary_faces) == 4


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
    assert len(m.boundary_faces) == 6
    assert m.domain_area == math.pi


@pytest.mark.parametrize("rings", [1, 2, 3])
def test_disk_boundary_vertices_on_circle(rings):
    m = build_unit_disk_mesh(rings)
    for face in m.boundary_faces:
        for v in face.endpoints:
            assert abs(np.linalg.norm(m.vertices[v]) - 1.0) <= 1e-14


def test_disk_area_defect_second_order():
    # polygon area defect vs the exact disk area shrinks by ~4x per doubling
    defects = [math.pi - build_unit_disk_mesh(r).areas.sum() for r in (2, 4, 8)]
    assert 3.5 < defects[0] / defects[1] < 4.5
    assert 3.5 < defects[1] / defects[2] < 4.5


def test_element_geometry_reference_triangle():
    m = mesh_from_triangulation(
        np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), np.array([[0, 1, 2]])
    )
    g = element_geometry(m, 0)
    assert g.area == pytest.approx(0.5, abs=1e-15)
    assert g.diameter == pytest.approx(math.sqrt(2.0), abs=1e-15)
    # incircle radius area/semiperimeter
    assert g.inradius == pytest.approx(1.0 / (2.0 + math.sqrt(2.0)), abs=1e-14)


def test_equilateral_incenter_is_centroid():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3.0) / 2.0]])
    m = mesh_from_triangulation(verts, np.array([[0, 1, 2]]))
    g = element_geometry(m, 0)
    assert np.allclose(g.center, verts.mean(axis=0), atol=1e-14)


def test_incenter_ball_inside_element():
    m = build_unit_disk_mesh(3)
    for k in range(m.n_elements):
        g = element_geometry(m, k)
        tri = m.tri_coords[k]
        for i in range(3):
            v0, v1 = tri[i], tri[(i + 1) % 3]
            t = v1 - v0
            n = np.array([t[1], -t[0]]) / np.linalg.norm(t)
            dist = abs(n @ (np.asarray(g.center) - v0))
            assert dist >= g.inradius - 1e-12


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
    assert len(r.boundary_faces) == 2 * len(m.boundary_faces)
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
    assert 3 * mesh.n_elements == 2 * len(mesh.interior_faces) + len(mesh.boundary_faces)
    for face in mesh.interior_faces:
        n = np.asarray(face.unit_normal)
        assert abs(np.linalg.norm(n) - 1.0) <= 1e-14
        d = mesh.centroids[face.minus_element] - mesh.centroids[face.plus_element]
        assert n @ d > 0.0
    for face in mesh.boundary_faces:
        n = np.asarray(face.unit_normal)
        mid = mesh.vertices[list(face.endpoints)].mean(axis=0)
        assert n @ (mid - mesh.centroids[face.element]) > 0.0


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
