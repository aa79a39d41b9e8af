"""Icosphere construction, grading, and the discrete calculus on it."""

import math

import numpy as np
import pytest

from conesphere.divisor import equatorial_divisor, flagship_divisor
from conesphere.errors import MeshError, ShapeError
from conesphere.mesh import build_mesh, icosphere, write_csv, write_off


def edge_set(faces):
    e = np.vstack([faces[:, [0, 1]], faces[:, [1, 2]], faces[:, [2, 0]]])
    return set(map(tuple, np.sort(e, axis=1)))


def test_icosphere_vertex_count():
    # 10 * 4^level + 2 vertices for recursive icosahedral subdivision
    for level in (0, 1, 2, 3):
        verts, faces = icosphere(level)
        assert len(verts) == 10 * 4**level + 2
        assert np.allclose(np.linalg.norm(verts, axis=1), 1.0, atol=1e-14)


def test_euler_formula_holds():
    for mesh in (build_mesh(3), build_mesh(3, flagship_divisor(), grading=2)):
        V = mesh.n_vertices
        F = len(mesh.faces)
        E = len(edge_set(mesh.faces))
        assert V - E + F == 2


def test_total_area_is_4pi():
    mesh = build_mesh(4)
    assert abs(mesh.areas.sum() - 4.0 * math.pi) / (4.0 * math.pi) < 1e-6
    assert np.all(mesh.areas > 0.0)


def test_second_moment_quadrature():
    mesh = build_mesh(4)
    z2 = np.sum(mesh.vertices[:, 2] ** 2 * mesh.areas)
    exact = 4.0 * math.pi / 3.0
    assert abs(z2 - exact) / exact < 0.005


def test_stiffness_symmetric_and_kills_constants():
    mesh = build_mesh(3, flagship_divisor(), grading=1)
    W = mesh.stiffness
    assert abs(W - W.T).max() < 1e-14
    ones = np.ones(mesh.n_vertices)
    assert np.max(np.abs(W @ ones)) < 1e-12


def test_laplace_eigenfunction():
    # coordinate functions are spherical harmonics: Lap z = -2 z
    mesh = build_mesh(4)
    z = mesh.vertices[:, 2]
    lap = mesh.laplace(z)
    err = np.max(np.abs(lap + 2.0 * z)) / np.max(np.abs(z))
    assert err < 0.02


def test_laplace_shape_check():
    mesh = build_mesh(2)
    with pytest.raises(ShapeError):
        mesh.laplace(np.zeros(mesh.n_vertices + 1))


def test_cone_points_are_vertices():
    div = flagship_divisor()
    mesh = build_mesh(4, div, grading=2)
    assert len(mesh.cone_vertices) == 3
    for cid, p in zip(mesh.cone_vertices, div.positions):
        assert np.linalg.norm(mesh.vertices[cid] - p) < 1e-12


def test_grading_refines_near_cones():
    div = flagship_divisor()
    coarse = build_mesh(3, div)
    fine = build_mesh(3, div, grading=3)
    assert fine.n_vertices > coarse.n_vertices
    c0 = fine.cone_vertices[0]
    assert fine.min_incident_edge(c0) < 0.3 * coarse.min_incident_edge(coarse.cone_vertices[0])
    # refinement stays local: far hemisphere untouched to first order
    assert fine.n_vertices < 4 * coarse.n_vertices


def test_build_mesh_parameter_validation():
    div = flagship_divisor()
    with pytest.raises(MeshError):
        build_mesh(3, div, grading=-1)
    with pytest.raises(MeshError):
        build_mesh(3, div, grading=1, grading_radius=0.0)
    close = equatorial_divisor([-0.3, -0.4, -0.5], gaps=[0.01, 1.0, 2 * math.pi - 1.01])
    with pytest.raises(MeshError):
        build_mesh(3, close)


def test_ring_contains_center_and_grows():
    mesh = build_mesh(3)
    r1 = mesh.ring(0, 1)
    r2 = mesh.ring(0, 2)
    assert 0 in r1
    assert r1 < r2


def test_write_csv_and_off(tmp_path):
    mesh = build_mesh(1)
    f = mesh.vertices[:, 0]
    csv = tmp_path / "field.csv"
    write_csv(csv, mesh, f)
    lines = csv.read_text().splitlines()
    assert lines[0] == "x,y,z,value"
    assert len(lines) == mesh.n_vertices + 1
    data = np.loadtxt(csv, delimiter=",", skiprows=1)
    assert np.allclose(data[:, :3], mesh.vertices)
    assert np.allclose(data[:, 3], f)

    off = tmp_path / "mesh.off"
    write_off(off, mesh)
    head = off.read_text().splitlines()
    assert head[0] == "OFF"
    assert head[1].split() == [str(mesh.n_vertices), str(len(mesh.faces)), "0"]

    with pytest.raises(ShapeError):
        write_csv(tmp_path / "bad.csv", mesh, f[:-1])

