"""Moebius maps, conformal distortion, and symmetry enumeration."""

import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conesphere.diagnostics import triangle_double_divisor
from conesphere.divisor import ConePoint, Divisor, divisor, equatorial_divisor, flagship_divisor
from conesphere.errors import ClosureViolation, DomainError, ScopeError
from conesphere.moebius import (
    _BETA_TOL,
    _project_hom,
    _unproject_hom,
    conformal_distortion,
    enumerate_conformal_symmetries,
    moebius_from_triples,
)


def sample_points(n=40, seed=0):
    rng = np.random.default_rng(seed)
    p = rng.standard_normal((n, 3))
    return p / np.linalg.norm(p, axis=1, keepdims=True)


def rotation_z(angle):
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def test_stereographic_chart_geometry():
    north = np.array([0.0, 0.0, 1.0])
    # the south pole maps to the origin, the equator to the unit circle, the
    # north pole to infinity
    z, w = _project_hom(np.array([[0.0, 0.0, -1.0], [1.0, 0.0, 0.0], north]))
    assert abs(z[0] / w[0]) < 1e-14
    assert abs(abs(z[1] / w[1]) - 1.0) < 1e-14
    assert w[2] == 0.0 and z[2] != 0.0
    # round trip, the north pole included
    pts = np.vstack([sample_points(), north])
    back = _unproject_hom(*_project_hom(pts))
    assert np.max(np.linalg.norm(back - pts, axis=1)) < 1e-12


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


@pytest.mark.parametrize("tol", [math.nan, 0.0, -1.0])
def test_enumeration_rejects_non_positive_tol(equilateral_div, tol):
    with pytest.raises(DomainError, match="tol must be positive"):
        enumerate_conformal_symmetries(equilateral_div, tol=tol)


def test_enumeration_scope():
    with pytest.raises(ScopeError):
        enumerate_conformal_symmetries(equatorial_divisor([-0.5, -0.5]))


# ---------------------------------------------------------------------------
# Round trips over random triples


def _spread(points):
    """True if the points are pairwise at chordal distance >= 0.1."""
    return all(np.linalg.norm(p - q) >= 0.1 for p, q in itertools.combinations(points, 2))


UNIT = (
    st.tuples(*[st.floats(-1.0, 1.0)] * 3)
    .map(np.array)
    .filter(lambda v: np.linalg.norm(v) > 0.1)
    .map(lambda v: v / np.linalg.norm(v))
)
TRIPLE = st.lists(UNIT, min_size=3, max_size=3).filter(_spread).map(np.array)
ROUND_TRIP = settings(max_examples=100, deadline=None, derandomize=True)


@ROUND_TRIP
@given(src=TRIPLE, dst=TRIPLE)
def test_from_triples_round_trip(src, dst):
    phi = moebius_from_triples(src, dst)
    assert np.max(np.linalg.norm(phi.apply(src) - dst, axis=1)) < 1e-8


@ROUND_TRIP
@given(src=TRIPLE, dst=TRIPLE)
def test_compose_with_inverse_round_trip(src, dst):
    phi = moebius_from_triples(src, dst)
    pts = sample_points(30, seed=13)
    comp = phi.compose(phi.inverse())
    assert np.max(np.linalg.norm(comp.apply(pts) - pts, axis=1)) < 1e-8


@ROUND_TRIP
@given(src=TRIPLE, mid=TRIPLE, dst=TRIPLE)
def test_distortion_cocycle_round_trip(src, mid, dst):
    f = moebius_from_triples(src, mid)
    g = moebius_from_triples(mid, dst)
    pts = sample_points(40, seed=17)
    lhs = conformal_distortion(g.compose(f), pts)
    rhs = conformal_distortion(g, f.apply(pts)) * conformal_distortion(f, pts)
    assert np.max(np.abs(lhs / rhs - 1.0)) < 1e-8


# ---------------------------------------------------------------------------
# The batched enumeration against the brute-force loop


def _reference_permutation(phi, positions, betas, tol):
    """Permutation induced by one map, or None (point by point)."""
    images = phi.apply(positions)
    n = len(positions)
    perm = np.full(n, -1, dtype=int)
    for i in range(n):
        d = np.linalg.norm(positions - images[i], axis=1)
        j = int(np.argmin(d))
        if d[j] > tol or abs(betas[i] - betas[j]) > _BETA_TOL:
            return None
        perm[i] = j
    if len(set(perm.tolist())) != n:
        return None
    return tuple(perm.tolist())


def _reference_symmetries(div, tol=1e-9):
    """The enumeration one candidate triple at a time: one
    moebius_from_triples and one point-by-point permutation per triple, and
    the group checks one map at a time."""
    n = len(div.points)
    positions = div.positions
    betas = div.betas
    base = positions[:3]
    found = {}
    for triple in itertools.permutations(range(n), 3):
        if np.any(np.abs(betas[list(triple)] - betas[:3]) > _BETA_TOL):
            continue
        try:
            phi = moebius_from_triples(base, positions[list(triple)])
        except DomainError:
            continue
        perm = _reference_permutation(phi, positions, betas, tol)
        if perm is not None and perm not in found:
            found[perm] = phi

    identity = tuple(range(n))
    if identity not in found:
        raise ClosureViolation("enumerated symmetry set lacks the identity")
    for perm, phi in found.items():
        inv = tuple(int(np.argsort(perm)[i]) for i in range(n))
        if inv not in found:
            raise ClosureViolation(f"inverse of permutation {perm} not enumerated")
        if _reference_permutation(phi.inverse(), positions, betas, tol) != inv:
            raise ClosureViolation(f"inverse map of {perm} drifts beyond tolerance")
    for pa, phia in found.items():
        for pb, phib in found.items():
            comp = tuple(pa[i] for i in pb)
            if comp not in found:
                raise ClosureViolation(f"composition {pa} o {pb} not enumerated")
            if _reference_permutation(phia.compose(phib), positions, betas, tol) != comp:
                raise ClosureViolation(f"composition {pa} o {pb} drifts beyond tolerance")
    return [found[perm] for perm in sorted(found)]


def _outcome(enumerate_fn, div, tol):
    """Matrix bytes of every map, or the ClosureViolation message."""
    try:
        maps = enumerate_fn(div, tol=tol)
    except ClosureViolation as exc:
        return str(exc)
    return [m.matrix.tobytes() for m in maps]


def _equatorial(azimuths, betas):
    return divisor([[math.cos(a), math.sin(a), 0.0] for a in azimuths], betas)


def _ulp_pair(seed=3):
    """Four random points and a fifth one ulp away from the fourth."""
    p = sample_points(4, seed=seed)
    return divisor(np.vstack([p, p[3] + np.array([1.0, -1.0, 1.0]) * np.spacing(p[3])]), [-0.3] * 5)


_EQUILATERAL = equatorial_divisor([-0.3] * 3)
ENUMERATION_CASES = {
    # name: (divisor, tol, group order or the ClosureViolation message)
    "flagship": (flagship_divisor(), 1e-9, 1),
    "equilateral": (_EQUILATERAL, 1e-9, 6),
    "equilateral-relabeled": (divisor(_EQUILATERAL.positions[[2, 0, 1]], [-0.3] * 3), 1e-9, 6),
    "square": (equatorial_divisor([-0.5] * 4), 1e-9, 8),
    "hexagon": (equatorial_divisor([-0.3] * 6), 1e-9, 12),
    "alternating": (equatorial_divisor([-0.5, -0.3, -0.5, -0.3]), 1e-9, 4),
    "triangle-double": (triangle_double_divisor(2.0, 2.0, 2.0), 1e-9, 6),
    # at this tolerance some candidates send two points near one marked
    # point: only the bijection test keeps them out
    "square-loose": (equatorial_divisor([-0.5] * 4), 1.0, 8),
    # a near-pentagon: single candidates pass at this tolerance, but their
    # products drift past it
    "pentagon-loose": (
        _equatorial([0.0, 1.25, 2.51, 3.75, 5.0], [-0.3] * 5), 0.1,
        "composition (2, 1, 0, 4, 3) o (4, 0, 1, 2, 3) drifts beyond tolerance",
    ),
}


@pytest.mark.parametrize("name", ENUMERATION_CASES)
def test_enumeration_matches_brute_force(name):
    div, tol, expected = ENUMERATION_CASES[name]
    got = _outcome(enumerate_conformal_symmetries, div, tol)
    assert got == _outcome(_reference_symmetries, div, tol)
    if isinstance(expected, str):
        assert got == expected
    else:
        assert len(got) == expected


# Marked points within tol of each other make the induced permutation a
# matter of rounding, so the enumeration refuses them before the screen,
# whatever the arithmetic path would have made of them.
NEAR_PAIRS = {
    "ulp-pair": [_ulp_pair(seed) for seed in range(60)],
    "within-tol": [_equatorial([0.0, 2.0, 4.0, 4.0 + 5e-10], [-0.3] * 4)],
}


@pytest.mark.parametrize("name", NEAR_PAIRS)
def test_enumeration_rejects_near_coincident_points(name):
    for div in NEAR_PAIRS[name]:
        n = len(div)  # the near pair is the last two points
        with pytest.raises(DomainError, match=f"marked points {n - 2} and {n - 1} lie within tol"):
            enumerate_conformal_symmetries(div, tol=1e-9)


def test_enumeration_matches_recorded_icosahedral_group():
    """Order 60: twelve equal cones at the vertices of a rotated icosahedron,
    against the maps the brute-force enumeration recorded."""
    with np.load(Path(__file__).parent / "data" / "icosahedral_order60.npz") as ref:
        div = Divisor(tuple(ConePoint(p, float(b)) for p, b in zip(ref["positions"], ref["betas"])))
        maps = enumerate_conformal_symmetries(div)
        assert len(maps) == 60
        assert np.array([m.matrix for m in maps]).tobytes() == ref["matrices"].tobytes()
