"""Moebius maps on the sphere and finite conformal symmetry groups.

A marked configuration of n >= 3 points with cone exponents has a finite
group of orientation-preserving conformal automorphisms; each candidate is
pinned down by where it sends a base triple of marked points, so the group
can be enumerated over label-compatible ordered triples, screened in a few
batched array passes.

All point arithmetic runs in homogeneous coordinates [z : w] of a
stereographic chart, which removes every special case at the chart pole
and at infinity: the chart projection, the Moebius action, and the
conformal distortion factor are all smooth in [z : w].
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .divisor import Divisor
from .errors import ClosureViolation, DomainError, ScopeError

_BETA_TOL = 1e-12
_COINCIDENT = 1e-12  # chordal distance below which two points of a triple coincide
_BLOCK = 256  # maps per batched pass; temporaries are O(_BLOCK * n * n) floats


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
    points at infinity need no special case.  z and w hold one triple, shape
    (3,), or a stack of m triples, shape (m, 3), giving m matrices."""
    z0, z1, z2 = z.T
    w0, w1, w2 = w.T
    alpha = w2 * z1 - z2 * w1
    beta = w0 * z1 - z0 * w1
    mat = np.array([[alpha * w0, -alpha * z0], [beta * w2, -beta * z2]], dtype=complex)
    return mat if mat.ndim == 2 else mat.transpose(2, 0, 1)


def _adjugate(mat):
    """Adjugate of a stack of 2x2 matrices: the inverse times the determinant,
    so it induces the inverse point map."""
    adj = np.empty_like(mat)
    adj[..., 0, 0] = mat[..., 1, 1]
    adj[..., 0, 1] = -mat[..., 0, 1]
    adj[..., 1, 0] = -mat[..., 1, 0]
    adj[..., 1, 1] = mat[..., 0, 0]
    return adj


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
        trans = _chart_transition(np.asarray(self.pole, dtype=float).tobytes(), pole.tobytes())
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
    return _adjugate(mat) / det


@functools.lru_cache(maxsize=256)
def _chart_transition(pole_from: bytes, pole_to: bytes):
    """Matrix of the holomorphic coordinate change between two stereographic
    charts (both frames are right-handed, so the transition is Moebius).
    Each pole is the bytes of a float64 3-vector, so that the matrix is
    computed once per pair of poles; it is returned read-only."""
    ch_from = stereographic_chart(np.frombuffer(pole_from))
    ch_to = stereographic_chart(np.frombuffer(pole_to))
    ref = _unproject_hom(
        ch_from, np.array([0.0, 1.0, 1.0], dtype=complex), np.array([1.0, 1.0, 0.0], dtype=complex)
    )
    z, w = _project_hom(ch_to, ref)
    # source coordinates are (0, 1, inf), so the transition is the inverse of
    # the normalizer of the images
    trans = _normalize_det(_inv2(_normalizer(z, w)))
    trans.setflags(write=False)
    return trans


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
            if np.linalg.norm(pts[i] - pts[j]) < _COINCIDENT:
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


def _induced_permutations(mats, chart: StereoChart, positions, betas, tol):
    """Permutation of the marked points induced by each matrix of a stack
    acting in `chart`, and a flag that is True where the map preserves the
    marked set: every image lies within `tol` of a marked point with the same
    exponent, and the images form a bijection.  Scale does not move points,
    so the matrices need not be normalized.  Maps go in blocks of _BLOCK."""
    n = len(positions)
    z, w = _project_hom(chart, positions)
    perms = np.empty((len(mats), n), dtype=int)
    ok = np.empty(len(mats), dtype=bool)
    for s in range(0, len(mats), _BLOCK):
        m = mats[s : s + _BLOCK, :, :, None]
        images = _unproject_hom(
            chart, m[:, 0, 0] * z + m[:, 0, 1] * w, m[:, 1, 0] * z + m[:, 1, 1] * w
        )
        dist = np.linalg.norm(images.reshape(-1, n, 1, 3) - positions, axis=3)
        j = np.argmin(dist, axis=2)
        match = (dist.min(axis=2) <= tol) & (np.abs(betas[j] - betas) <= _BETA_TOL)
        perms[s : s + _BLOCK] = j
        ok[s : s + _BLOCK] = match.all(axis=1) & (np.sort(j, axis=1) == np.arange(n)).all(axis=1)
    return perms, ok


def enumerate_conformal_symmetries(div: Divisor, tol: float = 1e-9):
    """All orientation-preserving Moebius maps preserving the marked divisor.

    A Moebius map is fixed by the images of a base triple of marked points,
    so every candidate corresponds to an ordered triple with matching
    exponents.  All candidates are screened at once in one common chart
    (at _pick_pole of the marked points): the matrix adj(N_dst) N_src of
    every triple is built from the batched normalizer (the adjugate stands
    in for the inverse, since scale does not move points), and the induced
    permutations are read from one nearest-point pass over all marked
    points.  A candidate is kept if it permutes the full marked set with
    matching exponents; the result is deduplicated by the induced
    permutation (a Moebius map is determined by its action on three points)
    and verified to form a group, the drift of inverses and pairwise
    products checked in the same batched way.  Batched passes take _BLOCK
    maps at a time, so temporaries stay O(_BLOCK * n * n).

    Each kept map is moebius_from_triples(base, image triple) for the first
    triple, in itertools.permutations order, that induces its permutation;
    the maps come sorted by permutation.
    """
    n = len(div.points)
    if n < 3:
        raise ScopeError("symmetry enumeration needs at least 3 marked points")
    positions = np.array([p.position for p in div.points])
    betas = np.array([p.beta for p in div.points])
    chart = stereographic_chart(_pick_pole(positions))
    z, w = _project_hom(chart, positions)

    # beta-compatible ordered triples in lexicographic (itertools.permutations)
    # order, without the triples moebius_from_triples rejects: those with two
    # coincident points, and all of them if the base triple has two
    same = [np.flatnonzero(np.abs(betas - b) <= _BETA_TOL) for b in betas[:3]]
    triples = np.stack(np.meshgrid(*same, indexing="ij"), axis=-1).reshape(-1, 3)
    apart = np.linalg.norm(positions[:, None] - positions, axis=2) >= _COINCIDENT
    base_apart = apart[0, 1] & apart[0, 2] & apart[1, 2]
    t0, t1, t2 = triples.T
    triples = triples[base_apart & apart[t0, t1] & apart[t0, t2] & apart[t1, t2]]
    mats = _adjugate(_normalizer(z[triples], w[triples])) @ _normalizer(z[:3], w[:3])
    perms, ok = _induced_permutations(mats, chart, positions, betas, tol)

    base = positions[:3]
    found = {}
    for k in np.flatnonzero(ok):
        perm = tuple(perms[k].tolist())
        if perm not in found:
            try:
                found[perm] = moebius_from_triples(base, positions[triples[k]])
            except DomainError:
                continue

    identity = tuple(range(n))
    if identity not in found:
        raise ClosureViolation("enumerated symmetry set lacks the identity")
    keys = list(found)
    order = len(keys)
    table = np.array(keys)
    inverses = np.argsort(table, axis=1)
    # products[a * order + b] = keys[a] o keys[b]
    products = table[np.arange(order)[:, None, None], table[None, :, :]].reshape(-1, n)
    common = np.array([phi.in_chart(chart.pole).matrix for phi in found.values()])
    got, ok = _induced_permutations(_adjugate(common), chart, positions, betas, tol)
    for perm, inv, drift in zip(keys, inverses.tolist(), ~ok | np.any(got != inverses, axis=1)):
        if tuple(inv) not in found:
            raise ClosureViolation(f"inverse of permutation {perm} not enumerated")
        if drift:
            raise ClosureViolation(f"inverse map of {perm} drifts beyond tolerance")
    pairs = (common[:, None] @ common[None, :]).reshape(-1, 2, 2)
    got, ok = _induced_permutations(pairs, chart, positions, betas, tol)
    drifts = ~ok | np.any(got != products, axis=1)
    for k, (comp, drift) in enumerate(zip(products.tolist(), drifts)):
        missing = tuple(comp) not in found
        if missing or drift:
            what = "not enumerated" if missing else "drifts beyond tolerance"
            raise ClosureViolation(f"composition {keys[k // order]} o {keys[k % order]} {what}")

    return [found[perm] for perm in sorted(found)]
