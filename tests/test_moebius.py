"""Moebius maps, conformal distortion, and symmetry enumeration."""

import math

import numpy as np
import pytest

from conesphere.divisor import divisor, equatorial_divisor, flagship_divisor
from conesphere.errors import DomainError, ScopeError
from conesphere.moebius import (
    _project_hom,
    _unproject_hom,
    conformal_distortion,
    enumerate_conformal_symmetries,
    identity_map,
    moebius_from_triples,
    stereographic_chart,
)


def sample_points(n=40, seed=0):
    rng = np.random.default_rng(seed)
    p = rng.standard_normal((n, 3))
    return p / np.linalg.norm(p, axis=1, keepdims=True)


def rotation_z(angle):
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def test_stereographic_chart_geometry():
    q = np.array([0.0, 0.0, 1.0])
    chart = stereographic_chart(q)
    # the antipode maps to the origin, the equator to the unit circle, the
    # pole itself to infinity
    z, w = _project_hom(chart, np.array([[0.0, 0.0, -1.0], [1.0, 0.0, 0.0], q]))
    assert abs(z[0] / w[0]) < 1e-14
    assert abs(abs(z[1] / w[1]) - 1.0) < 1e-14
    assert w[2] == 0.0 and z[2] != 0.0
    # round trip, the pole included
    pts = np.vstack([sample_points(), q])
    back = _unproject_hom(chart, *_project_hom(chart, pts))
    assert np.max(np.linalg.norm(back - pts, axis=1)) < 1e-12


def test_identity_map():
    pts = sample_points()
    phi = identity_map()
    assert np.max(np.linalg.norm(phi.apply(pts) - pts, axis=1)) < 1e-14
    assert np.allclose(conformal_distortion(phi, pts), 1.0, atol=1e-12)


def test_from_triples_maps_the_triple():
    src = sample_points(3, seed=1)
    dst = sample_points(3, seed=2)
    phi = moebius_from_triples(src, dst)
    assert np.max(np.linalg.norm(phi.apply(src) - dst, axis=1)) < 1e-9


def test_from_triples_rejects_coincident_points():
    p = np.array([1.0, 0.0, 0.0])
    q = np.array([0.0, 1.0, 0.0])
    with pytest.raises(DomainError):
        moebius_from_triples([p, p, q], sample_points(3))


def test_base_triple_independence():
    # the same rotation reconstructed from two different base triples
    R = rotation_z(2.0 * math.pi / 5.0)
    a = sample_points(3, seed=3)
    b = sample_points(3, seed=4)
    phi_a = moebius_from_triples(a, a @ R.T)
    phi_b = moebius_from_triples(b, b @ R.T)
    pts = sample_points(60, seed=5)
    assert np.max(np.linalg.norm(phi_a.apply(pts) - phi_b.apply(pts), axis=1)) < 1e-9


def test_rotation_has_unit_distortion():
    R = rotation_z(1.1)
    src = sample_points(3, seed=6)
    phi = moebius_from_triples(src, src @ R.T)
    eta = conformal_distortion(phi, sample_points(50, seed=7))
    assert np.max(np.abs(eta - 1.0)) < 1e-9


def test_nonrotation_distortion_and_jacobian_identity():
    # a loxodromic-type map: distortion is non-constant but integrates areas
    src = sample_points(3, seed=8)
    dst = sample_points(3, seed=9)
    phi = moebius_from_triples(src, dst)
    eta = conformal_distortion(phi, sample_points(200, seed=10))
    assert np.max(eta) / np.min(eta) > 1.0 + 1e-6
    assert np.all(eta > 0.0)


def test_compose_and_inverse():
    src = sample_points(3, seed=11)
    dst = sample_points(3, seed=12)
    phi = moebius_from_triples(src, dst)
    pts = sample_points(30, seed=13)
    both = phi.inverse().apply(phi.apply(pts))
    assert np.max(np.linalg.norm(both - pts, axis=1)) < 1e-8
    comp = phi.compose(phi.inverse())
    assert np.max(np.linalg.norm(comp.apply(pts) - pts, axis=1)) < 1e-8


def test_distortion_cocycle():
    # eta of a composition is the product of the factors along the chain
    src = sample_points(3, seed=14)
    mid = sample_points(3, seed=15)
    dst = sample_points(3, seed=16)
    f = moebius_from_triples(src, mid)
    g = moebius_from_triples(mid, dst)
    pts = sample_points(40, seed=17)
    lhs = conformal_distortion(g.compose(f), pts)
    rhs = conformal_distortion(g, f.apply(pts)) * conformal_distortion(f, pts)
    assert np.max(np.abs(lhs / rhs - 1.0)) < 1e-8


def test_enumeration_distinct_angles_is_trivial():
    maps = enumerate_conformal_symmetries(flagship_divisor())
    assert len(maps) == 1


def test_enumeration_equilateral_order_six(equilateral_div):
    maps = enumerate_conformal_symmetries(equilateral_div)
    assert len(maps) == 6
    # closed under composition: every product fixes the divisor as a set
    pos = equilateral_div.positions
    images = {tuple(np.round(m.apply(pos).ravel(), 8)) for m in maps}
    assert len(images) == 6
    for a in maps:
        for b in maps:
            img = tuple(np.round(a.compose(b).apply(pos).ravel(), 8))
            assert img in images


def test_enumeration_square_with_equal_angles():
    d = equatorial_divisor([-0.5, -0.5, -0.5, -0.5])
    maps = enumerate_conformal_symmetries(d)
    assert len(maps) == 8


def test_enumeration_ordering_independence(equilateral_div):
    pos = equilateral_div.positions
    shuffled = divisor(pos[[2, 0, 1]], [-0.3] * 3)
    a = enumerate_conformal_symmetries(equilateral_div)
    b = enumerate_conformal_symmetries(shuffled)
    key = lambda maps: {tuple(np.round(m.apply(pos).ravel(), 8)) for m in maps}
    assert key(a) == key(b)


def test_enumeration_scope():
    with pytest.raises(ScopeError):
        enumerate_conformal_symmetries(equatorial_divisor([-0.5, -0.5]))
