"""Moebius maps on the sphere and finite conformal symmetry groups.

A marked configuration of n >= 3 points with cone exponents has a finite
group of orientation-preserving conformal automorphisms; each candidate is
pinned down by where it sends a base triple of marked points, so the group
can be enumerated over label-compatible ordered triples, screened in a few
batched array passes.

All point arithmetic runs in homogeneous coordinates [z : w] of one fixed
stereographic chart, the projection from the north pole.  Homogeneous
coordinates remove every special case at the pole and at infinity: the
projection, the Moebius action and the conformal distortion factor are all
smooth in [z : w].  Every other right-handed stereographic chart differs
from this one by a rotation, whose matrix is unitary, so no choice of chart
would condition a map better.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .divisor import Divisor
from .errors import ClosureViolation, DomainError, ScopeError, ShapeError

_BETA_TOL = 1e-12
_COINCIDENT = 1e-12  # chordal distance below which two points of a triple coincide
_BLOCK = 256  # maps per batched pass; temporaries are O(_BLOCK * n * n) floats


def _project_hom(points):
    """Map sphere points to homogeneous coordinates (z, w) of the one chart,
    the stereographic projection from the north pole: z/w = (x+iy)/(1-x3),
    so the south pole maps to 0, the north pole to infinity and the equator
    to |z| = 1.  Of the two algebraically equal expressions (x+iy)/(1-x3)
    and (1+x3)/(x-iy) the better conditioned one is kept, so the north pole
    itself is represented exactly."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    x, y, h = pts.T
    lower = 1.0 - h
    upper = 1.0 + h
    use_lower = lower >= upper
    z = np.where(use_lower, x + 1j * y, upper.astype(complex))
    w = np.where(use_lower, lower.astype(complex), x - 1j * y)
    return z, w


def _unproject_hom(z, w):
    """Inverse of _project_hom; accepts any nonzero scaling of (z, w)."""
    s = np.abs(z) ** 2 + np.abs(w) ** 2
    h = (np.abs(z) ** 2 - np.abs(w) ** 2) / s
    xy = 2.0 * z * np.conj(w) / s
    return np.stack([xy.real, xy.imag, h], axis=-1)


def _act(mat, z, w):
    """The action on [z : w] of a matrix, or of each of a stack (..., 2, 2)."""
    return mat[..., 0, 0] * z + mat[..., 0, 1] * w, mat[..., 1, 0] * z + mat[..., 1, 1] * w


def _chart_image(phi, points):
    """phi(x) as [p : q] in the chart, and conformal_distortion's eta at x."""
    z, w = _project_hom(points)
    p, q = _act(phi.matrix, z, w)
    return p, q, (np.abs(z) ** 2 + np.abs(w) ** 2) / (np.abs(p) ** 2 + np.abs(q) ** 2)


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


@dataclass(frozen=True, eq=False)
class MoebiusMap:
    """Orientation-preserving Moebius transformation of the sphere: its matrix
    [[a, b], [c, d]] acts on the stereographic coordinate z of _project_hom
    as z -> (az + b)/(cz + d).  A 2x2 matrix is scaled to ad - bc = 1 (up
    to global sign) and kept read-only, so the map is its SL(2, C) matrix;
    ShapeError unless 2x2, DomainError unless its entries and ad - bc are
    finite and ad - bc != 0."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.shape != (2, 2):
            raise ShapeError(f"a Moebius matrix is 2x2, got shape {mat.shape}")
        det = mat[0, 0] * mat[1, 1] - mat[0, 1] * mat[1, 0] if np.isfinite(mat).all() else np.nan
        if det == 0.0 or not np.isfinite(det):
            raise DomainError(f"singular or non-finite Moebius matrix: ad - bc = {det}")
        mat = mat / np.sqrt(det)
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)

    def apply(self, points):
        """Image of one point (shape (3,)) or many (shape (n, 3))."""
        single = np.asarray(points).ndim == 1
        out = _unproject_hom(*_act(self.matrix, *_project_hom(points)))
        return out[0] if single else out

    def compose(self, other: "MoebiusMap") -> "MoebiusMap":
        """self after other, as sphere maps."""
        return MoebiusMap(self.matrix @ other.matrix)

    def inverse(self) -> "MoebiusMap":
        return MoebiusMap(_adjugate(self.matrix))


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
    # the adjugate stands in for the inverse: MoebiusMap removes the scale
    mat = _adjugate(_normalizer(*_project_hom(dst))) @ _normalizer(*_project_hom(src))
    return MoebiusMap(mat)


def conformal_distortion(phi: MoebiusMap, points):
    """Pointwise distortion eta with phi* g_round = eta^2 g_round.

    In homogeneous coordinates normalized by |z|^2 + |w|^2 the factor is
    eta = (|z|^2 + |w|^2) / (|az + bw|^2 + |cz + dw|^2) for ad - bc = 1,
    which is manifestly finite and positive everywhere (and identically 1
    exactly when the matrix is unitary, i.e. for rotations)."""
    eta = _chart_image(phi, points)[2]
    return float(eta[0]) if np.asarray(points).ndim == 1 else eta


def _induced_permutations(mats, positions, betas, tol):
    """Permutation of the marked points induced by each matrix of a stack,
    and a flag that is True where the map preserves the marked set: every
    image lies within `tol` of a marked point with the same exponent, and
    the images form a bijection.  Scale does not move points,
    so the matrices need not be normalized.  Maps go in blocks of _BLOCK."""
    n = len(positions)
    z, w = _project_hom(positions)
    perms = np.empty((len(mats), n), dtype=int)
    ok = np.empty(len(mats), dtype=bool)
    for s in range(0, len(mats), _BLOCK):
        images = _unproject_hom(*_act(mats[s : s + _BLOCK, None], z, w))
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
    exponents.  All candidates are screened at once, in the one chart of
    _project_hom: the matrix adj(N_dst) N_src of every triple is built from
    the batched normalizer (the adjugate stands in for the inverse, since
    scale does not move points), and the induced permutations are read from
    one nearest-point pass over all marked points.  A candidate is kept if it permutes the full marked set with
    matching exponents; the result is deduplicated by the induced
    permutation (a Moebius map is determined by its action on three points)
    and verified to form a group, the drift of inverses and pairwise
    products checked in the same batched way.  Batched passes take _BLOCK
    maps at a time, so temporaries stay O(_BLOCK * n * n).

    Each kept map is moebius_from_triples(base, image triple) for the first
    triple, in itertools.permutations order, that induces its permutation;
    the maps come sorted by permutation.  `tol` must be positive (DomainError
    otherwise, NaN included).  Two marked points within chordal distance
    `tol` of each other raise DomainError before the screen, since rounding
    would decide which of the two an image matches.
    """
    if not tol > 0.0:
        raise DomainError(f"tol must be positive, got {tol}")
    n = len(div.points)
    if n < 3:
        raise ScopeError("symmetry enumeration needs at least 3 marked points")
    positions, betas = div.positions, div.betas
    dist = np.linalg.norm(positions[:, None] - positions, axis=2)
    near = np.argwhere(np.triu(dist <= tol, 1))
    if len(near):
        i, j = near[0].tolist()
        raise DomainError(f"marked points {i} and {j} lie within tol = {tol:g} of each other")
    z, w = _project_hom(positions)

    # beta-compatible ordered triples in lexicographic (itertools.permutations)
    # order, without the triples moebius_from_triples rejects: those with two
    # coincident points, and all of them if the base triple has two
    same = [np.flatnonzero(np.abs(betas - b) <= _BETA_TOL) for b in betas[:3]]
    triples = np.stack(np.meshgrid(*same, indexing="ij"), axis=-1).reshape(-1, 3)
    apart = dist >= _COINCIDENT
    base_apart = apart[0, 1] & apart[0, 2] & apart[1, 2]
    t0, t1, t2 = triples.T
    triples = triples[base_apart & apart[t0, t1] & apart[t0, t2] & apart[t1, t2]]
    mats = _adjugate(_normalizer(z[triples], w[triples])) @ _normalizer(z[:3], w[:3])
    perms, ok = _induced_permutations(mats, positions, betas, tol)

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
    common = np.array([phi.matrix for phi in found.values()])
    got, ok = _induced_permutations(_adjugate(common), positions, betas, tol)
    for perm, inv, drift in zip(keys, inverses.tolist(), ~ok | np.any(got != inverses, axis=1)):
        if tuple(inv) not in found:
            raise ClosureViolation(f"inverse of permutation {perm} not enumerated")
        if drift:
            raise ClosureViolation(f"inverse map of {perm} drifts beyond tolerance")
    pairs = (common[:, None] @ common[None, :]).reshape(-1, 2, 2)
    got, ok = _induced_permutations(pairs, positions, betas, tol)
    drifts = ~ok | np.any(got != products, axis=1)
    for k, (comp, drift) in enumerate(zip(products.tolist(), drifts)):
        missing = tuple(comp) not in found
        if missing or drift:
            what = "not enumerated" if missing else "drifts beyond tolerance"
            raise ClosureViolation(f"composition {keys[k // order]} o {keys[k % order]} {what}")

    return [found[perm] for perm in sorted(found)]
