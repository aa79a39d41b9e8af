"""Moebius maps on the sphere and finite conformal symmetry groups.

A marked configuration of n >= 3 points with cone exponents has a finite
group of orientation-preserving conformal automorphisms; each candidate is
pinned down by where it sends a base triple of marked points, so the group
can be enumerated by brute force over label-compatible ordered triples.

All point arithmetic runs in homogeneous coordinates [z : w] of a
stereographic chart, which removes every special case at the chart pole
and at infinity: the chart projection, the Moebius action, and the
conformal distortion factor are all smooth in [z : w].
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .divisor import Divisor
from .errors import ClosureViolation, DomainError, ScopeError

_BETA_TOL = 1e-12


@dataclass(frozen=True)
class StereoChart:
    """Right-handed frame of the stereographic chart projecting from `pole`:
    the antipode of the pole maps to 0, the pole itself to infinity, and the
    equator {p . pole = 0} to |z| = 1 (see _project_hom)."""

    pole: np.ndarray
    e1: np.ndarray
    e2: np.ndarray


def stereographic_chart(pole) -> StereoChart:
    q = np.asarray(pole, dtype=float)
    q = q / np.linalg.norm(q)
    # deterministic tangent frame: start from the coordinate axis least aligned with q
    axis = np.zeros(3)
    axis[int(np.argmin(np.abs(q)))] = 1.0
    e1 = axis - (axis @ q) * q
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(q, e1)
    return StereoChart(pole=q, e1=e1, e2=e2)


def _project_hom(chart: StereoChart, points):
    """Map sphere points to homogeneous chart coordinates (z, w), z/w the
    stereographic coordinate.  Of the two algebraically equal expressions
    (x+iy)/(1-h) and (1+h)/(x-iy) the better conditioned one is kept, so the
    chart pole itself (z/w = inf) is represented exactly."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    x = pts @ chart.e1
    y = pts @ chart.e2
    h = pts @ chart.pole
    lower = 1.0 - h
    upper = 1.0 + h
    use_lower = lower >= upper
    z = np.where(use_lower, x + 1j * y, upper.astype(complex))
    w = np.where(use_lower, lower.astype(complex), x - 1j * y)
    return z, w


def _unproject_hom(chart: StereoChart, z, w):
    """Inverse of _project_hom; accepts any homogeneous scaling of (z, w)."""
    s = np.abs(z) ** 2 + np.abs(w) ** 2
    if np.any(s == 0.0):
        raise DomainError("degenerate homogeneous coordinate (0, 0)")
    h = (np.abs(z) ** 2 - np.abs(w) ** 2) / s
    xy = 2.0 * z * np.conj(w) / s
    return (
        np.outer(xy.real, chart.e1)
        + np.outer(xy.imag, chart.e2)
        + np.outer(h, chart.pole)
    )


def _normalizer(z, w):
    """Matrix of the Moebius map sending the homogeneous triple to (0, 1, inf).

    Row 1 vanishes on point 1, row 2 on point 3, relative scale fixed by
    sending point 2 to 1; this is the cross-ratio normalizer written so that
    points at infinity need no special case."""
    alpha = w[2] * z[1] - z[2] * w[1]
    beta = w[0] * z[1] - z[0] * w[1]
    return np.array(
        [[alpha * w[0], -alpha * z[0]], [beta * w[2], -beta * z[2]]], dtype=complex
    )


def _normalize_det(mat):
    det = mat[0, 0] * mat[1, 1] - mat[0, 1] * mat[1, 0]
    if det == 0.0 or not np.isfinite(det):
        raise DomainError("degenerate Moebius coefficient matrix")
    return mat / np.sqrt(det)


@dataclass(frozen=True)
class MoebiusMap:
    """Orientation-preserving Moebius transformation of the sphere.

    Coefficients act on the stereographic coordinate of the chart at `pole`
    as z -> (az + b)/(cz + d), normalized to ad - bc = 1 (up to global
    sign).  The induced point map is chart-independent.
    """

    a: complex
    b: complex
    c: complex
    d: complex
    pole: np.ndarray

    def __post_init__(self):
        det = self.a * self.d - self.b * self.c
        if abs(det - 1.0) > 1e-12:
            raise DomainError(f"coefficients not normalized: ad - bc = {det}")

    @property
    def matrix(self):
        return np.array([[self.a, self.b], [self.c, self.d]], dtype=complex)

    def chart(self) -> StereoChart:
        return stereographic_chart(self.pole)

    def apply(self, points):
        """Image of one point (shape (3,)) or many (shape (n, 3))."""
        single = np.asarray(points).ndim == 1
        ch = self.chart()
        z, w = _project_hom(ch, points)
        out = _unproject_hom(ch, self.a * z + self.b * w, self.c * z + self.d * w)
        return out[0] if single else out

    def in_chart(self, pole) -> "MoebiusMap":
        """The same sphere map expressed in the chart at another pole."""
        pole = np.asarray(pole, dtype=float)
        pole = pole / np.linalg.norm(pole)
        if np.allclose(pole, self.pole, atol=1e-15):
            return MoebiusMap(self.a, self.b, self.c, self.d, pole)
        trans = _chart_transition(self.pole, pole)
        mat = _normalize_det(trans @ self.matrix @ _inv2(trans))
        return MoebiusMap(mat[0, 0], mat[0, 1], mat[1, 0], mat[1, 1], pole)

    def compose(self, other: "MoebiusMap") -> "MoebiusMap":
        """self after other, as sphere maps."""
        o = other.in_chart(self.pole)
        mat = _normalize_det(self.matrix @ o.matrix)
        return MoebiusMap(mat[0, 0], mat[0, 1], mat[1, 0], mat[1, 1], self.pole)

    def inverse(self) -> "MoebiusMap":
        return MoebiusMap(self.d, -self.b, -self.c, self.a, self.pole)


def _inv2(mat):
    det = mat[0, 0] * mat[1, 1] - mat[0, 1] * mat[1, 0]
    return np.array([[mat[1, 1], -mat[0, 1]], [-mat[1, 0], mat[0, 0]]]) / det


def _chart_transition(pole_from, pole_to):
    """Matrix of the holomorphic coordinate change between two stereographic
    charts (both frames are right-handed, so the transition is Moebius)."""
    ch_from = stereographic_chart(pole_from)
    ch_to = stereographic_chart(pole_to)
    ref = _unproject_hom(
        ch_from, np.array([0.0, 1.0, 1.0], dtype=complex), np.array([1.0, 1.0, 0.0], dtype=complex)
    )
    z, w = _project_hom(ch_to, ref)
    # source coordinates are (0, 1, inf), so the transition is the inverse of
    # the normalizer of the images
    return _normalize_det(_inv2(_normalizer(z, w)))


def identity_map(pole=(0.0, 0.0, 1.0)) -> MoebiusMap:
    pole = np.asarray(pole, dtype=float)
    return MoebiusMap(1.0 + 0j, 0j, 0j, 1.0 + 0j, pole / np.linalg.norm(pole))


def _pick_pole(points):
    """Signed coordinate axis farthest (chordally) from every listed point."""
    candidates = np.vstack([np.eye(3), -np.eye(3)])
    dists = np.linalg.norm(candidates[:, None, :] - points[None, :, :], axis=2)
    return candidates[int(np.argmax(dists.min(axis=1)))]


def moebius_from_triples(src, dst) -> MoebiusMap:
    """The unique orientation-preserving Moebius map with src_i -> dst_i."""
    src = np.atleast_2d(np.asarray(src, dtype=float))
    dst = np.atleast_2d(np.asarray(dst, dtype=float))
    if src.shape != (3, 3) or dst.shape != (3, 3):
        raise DomainError("moebius_from_triples expects two triples of sphere points")
    for name, pts in (("src", src), ("dst", dst)):
        for i, j in itertools.combinations(range(3), 2):
            if np.linalg.norm(pts[i] - pts[j]) < 1e-12:
                raise DomainError(f"{name} points {i} and {j} coincide")
    pole = _pick_pole(np.vstack([src, dst]))
    ch = stereographic_chart(pole)
    zs, ws = _project_hom(ch, src)
    zd, wd = _project_hom(ch, dst)
    mat = _normalize_det(_inv2(_normalizer(zd, wd)) @ _normalizer(zs, ws))
    return MoebiusMap(mat[0, 0], mat[0, 1], mat[1, 0], mat[1, 1], pole)


def conformal_distortion(phi: MoebiusMap, points):
    """Pointwise distortion eta with phi* g_round = eta^2 g_round.

    In homogeneous coordinates normalized by |z|^2 + |w|^2 the factor is
    eta = (|z|^2 + |w|^2) / (|az + bw|^2 + |cz + dw|^2) for ad - bc = 1,
    which is manifestly finite and positive everywhere (and identically 1
    exactly when the matrix is unitary, i.e. for rotations)."""
    single = np.asarray(points).ndim == 1
    z, w = _project_hom(phi.chart(), points)
    num = np.abs(z) ** 2 + np.abs(w) ** 2
    den = np.abs(phi.a * z + phi.b * w) ** 2 + np.abs(phi.c * z + phi.d * w) ** 2
    eta = num / den
    return float(eta[0]) if single else eta


def _induced_permutation(phi: MoebiusMap, positions, betas, tol):
    """Permutation of the marked points induced by phi, or None if phi does
    not preserve the marked set with matching exponents."""
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


def enumerate_conformal_symmetries(div: Divisor, tol: float = 1e-9):
    """All orientation-preserving Moebius maps preserving the marked divisor.

    Brute force: a Moebius map is fixed by the images of a base triple of
    marked points, so every candidate corresponds to an ordered triple with
    matching exponents.  Kept maps must permute the full marked set; the
    result is deduplicated by the induced permutation (a Moebius map is
    determined by its action on three points) and verified to form a group.
    """
    n = len(div.points)
    if n < 3:
        raise ScopeError("symmetry enumeration needs at least 3 marked points")
    positions = np.array([p.position for p in div.points])
    betas = np.array([p.beta for p in div.points])

    base = positions[:3]
    found = {}
    for triple in itertools.permutations(range(n), 3):
        if np.any(np.abs(betas[list(triple)] - betas[:3]) > _BETA_TOL):
            continue
        try:
            phi = moebius_from_triples(base, positions[list(triple)])
        except DomainError:
            continue
        perm = _induced_permutation(phi, positions, betas, tol)
        if perm is not None and perm not in found:
            found[perm] = phi

    identity = tuple(range(n))
    if identity not in found:
        raise ClosureViolation("enumerated symmetry set lacks the identity")
    for perm, phi in found.items():
        inv = tuple(int(np.argsort(perm)[i]) for i in range(n))
        if inv not in found:
            raise ClosureViolation(f"inverse of permutation {perm} not enumerated")
        if _induced_permutation(phi.inverse(), positions, betas, tol) != inv:
            raise ClosureViolation(f"inverse map of {perm} drifts beyond tolerance")
    for pa, phia in found.items():
        for pb, phib in found.items():
            comp = tuple(pa[i] for i in pb)
            if comp not in found:
                raise ClosureViolation(f"composition {pa} o {pb} not enumerated")
            if _induced_permutation(phia.compose(phib), positions, betas, tol) != comp:
                raise ClosureViolation(f"composition {pa} o {pb} drifts beyond tolerance")

    return [found[perm] for perm in sorted(found)]
