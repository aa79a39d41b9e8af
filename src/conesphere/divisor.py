"""Cone-point divisors on the unit sphere and the arithmetic hypothesis checks.

A divisor is a finite list of marked points p_i on S^2 with exponents
beta_i in (-1, 0); the cone angle at p_i is 2*pi*(beta_i + 1).  Everything
in this module is pure arithmetic on the exponents and positions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ScopeError, ShapeError

_UNIT_TOL = 1e-12
# Largest integer numerator scanned when testing proximity to the forbidden
# weight values m / beta_j.
_MAX_INDICIAL_M = 10**6
_INDICIAL_TOL = 1e-9


@dataclass(frozen=True)
class ConePoint:
    """A marked point on the unit sphere with cone exponent beta in (-1, 0].

    beta = 0 is tolerated so diagnostics can run on the smooth round sphere;
    solver-facing checks reject it (see solver_scope_check).
    """

    position: np.ndarray
    beta: float

    def __post_init__(self):
        pos = np.asarray(self.position, dtype=float)
        if pos.shape != (3,):
            raise ShapeError(f"cone point position must be a 3-vector, got shape {pos.shape}")
        if not abs(np.linalg.norm(pos) - 1.0) <= _UNIT_TOL:  # NaN fails too
            raise DomainError(f"cone point position must be unit length, |p| = {np.linalg.norm(pos)!r}")
        if not (-1.0 < self.beta <= 0.0):
            raise DomainError(f"cone exponent must lie in (-1, 0], got {self.beta}")
        pos = pos.copy()
        pos.flags.writeable = False
        object.__setattr__(self, "position", pos)


@dataclass(frozen=True)
class Divisor:
    """Ordered list of cone points; may be empty for round-sphere diagnostics."""

    points: tuple = field(default_factory=tuple)
    # geodesic distance between each pair of points (0 on the diagonal)
    distances: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        pts = tuple(self.points)
        object.__setattr__(self, "points", pts)
        p = self.positions
        d = geodesic_distance(p[:, None], p)
        same = np.argwhere(np.triu(d <= 0.0, 1))
        if len(same):
            i, j = same[0]
            raise DomainError(f"cone points {i} and {j} coincide")
        object.__setattr__(self, "distances", d)

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    @property
    def betas(self) -> np.ndarray:
        return np.array([p.beta for p in self.points], dtype=float)

    @property
    def positions(self) -> np.ndarray:
        return np.array([p.position for p in self.points], dtype=float).reshape(len(self.points), 3)

    def min_pairwise_distance(self) -> float:
        return float(np.min(self.distances[np.triu_indices(len(self), 1)], initial=math.pi))


def divisor(positions, betas) -> Divisor:
    """Convenience constructor; positions are normalized to unit length."""
    positions = np.atleast_2d(np.asarray(positions, dtype=float))
    betas = np.atleast_1d(np.asarray(betas, dtype=float))
    if len(positions) != len(betas):
        raise ShapeError(f"{len(positions)} positions vs {len(betas)} exponents")
    pts = []
    for pos, b in zip(positions, betas):
        nrm = np.linalg.norm(pos)
        if nrm == 0.0:
            raise DomainError("zero vector cannot be normalized to the sphere")
        pts.append(ConePoint(pos / nrm, float(b)))
    return Divisor(tuple(pts))


def geodesic_distance(p, q):
    """Great-circle distance between unit vectors, broadcast over leading axes.

    Kahan's form 2 atan2(|p - q|, |p + q|) is exactly 0 for equal points and
    pi for antipodes, and accurate to a few ulps at every angle between."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    return 2.0 * np.arctan2(np.linalg.norm(p - q, axis=-1), np.linalg.norm(p + q, axis=-1))


def euler_characteristic(div: Divisor) -> float:
    """Generalized Euler characteristic 2 + sum(beta_i) of the marked sphere."""
    return 2.0 + float(np.sum(div.betas))


@dataclass(frozen=True)
class TroyanovReport:
    passed: bool
    margins: tuple

    def __bool__(self) -> bool:
        return self.passed


def troyanov_check(div: Divisor) -> TroyanovReport:
    """Margins beta_j - sum_{i != j} beta_i; all must be positive.

    Stated for the n >= 3 regime only; smaller divisors are out of scope.
    """
    n = len(div)
    if n < 3:
        raise ScopeError(f"Troyanov condition is checked for n >= 3 cone points, got {n}")
    betas = div.betas
    total = betas.sum()
    margins = tuple(float(2.0 * b - total) for b in betas)  # b - (total - b)
    return TroyanovReport(passed=all(m > 0.0 for m in margins), margins=margins)


@dataclass(frozen=True)
class WeightSpec:
    """Weights gamma (one per cone point), Hoelder exponent alpha, order k."""

    gamma: tuple
    holder_alpha: float = 0.5
    order_k: int = 0

    def __post_init__(self):
        object.__setattr__(self, "gamma", tuple(float(g) for g in self.gamma))
        if not (0.0 < self.holder_alpha < 1.0):
            raise DomainError(f"holder_alpha must lie in (0,1), got {self.holder_alpha}")
        if not (isinstance(self.order_k, (int, np.integer)) and self.order_k >= 0):
            raise DomainError(f"order_k must be a nonnegative integer, got {self.order_k!r}")


def _nearest_indicial(gamma: float, betas: np.ndarray):
    """Closest value of the forbidden set {m/beta_j : m integer} to gamma."""
    best_val = None
    best_dist = math.inf
    for b in betas:
        if b == 0.0:
            continue
        m0 = round(gamma * b)
        for m in (m0 - 1, m0, m0 + 1):
            if abs(m) > _MAX_INDICIAL_M:
                continue
            val = m / b
            d = abs(gamma - val)
            if d < best_dist:
                best_dist = d
                best_val = val
    return best_val, best_dist


@dataclass(frozen=True)
class WeightReport:
    """Per weight: positivity, and nearest_forbidden, the nearest indicial value
    m/beta_j with |m| <= 10^6 and its distance, or (None, None) when there is
    none (every beta is 0, or gamma * |beta_j| > 10^6 + 1)."""

    passed: bool
    nearest_forbidden: tuple
    positivity: tuple

    def __bool__(self) -> bool:
        return self.passed


def weight_admissible(spec: WeightSpec, div: Divisor) -> WeightReport:
    """Check gamma_i > 0 and gamma_i away from every indicial value m/beta_j."""
    if len(spec.gamma) != len(div):
        raise ShapeError(f"{len(spec.gamma)} weights for {len(div)} cone points")
    betas = div.betas
    nearest = []
    positivity = []
    ok = True
    for g in spec.gamma:
        pos_ok = g > 0.0
        positivity.append(pos_ok)
        val, dist = _nearest_indicial(g, betas)
        nearest.append((val, None if val is None else dist))  # JSON has no inf
        if not pos_ok or dist <= _INDICIAL_TOL:
            ok = False
    return WeightReport(passed=ok, nearest_forbidden=tuple(nearest), positivity=tuple(positivity))


@dataclass(frozen=True)
class ScopeReport:
    """Itemized pass/fail for the solver's hypotheses."""

    n_at_least_3: bool
    betas_in_range: bool
    troyanov: bool
    troyanov_margins: tuple
    chi_positive: bool
    chi: float
    distinct_triple: bool
    passed: bool  # all of the above

    def __bool__(self) -> bool:
        return self.passed


def _has_distinct_triple(betas: np.ndarray) -> bool:
    return len(set(np.round(betas, 14))) >= 3


def solver_scope_check(div: Divisor) -> ScopeReport:
    """All hypotheses required for the continuation solver, reported itemwise."""
    betas = div.betas
    n_ok = len(div) >= 3
    range_ok = bool(len(div)) and bool(np.all((betas > -1.0) & (betas < 0.0)))
    if n_ok:
        troy = troyanov_check(div)
        troy_ok, margins = troy.passed, troy.margins
    else:
        troy_ok, margins = False, ()
    chi = euler_characteristic(div)
    distinct = _has_distinct_triple(betas)
    return ScopeReport(
        n_at_least_3=n_ok,
        betas_in_range=range_ok,
        troyanov=troy_ok,
        troyanov_margins=margins,
        chi_positive=chi > 0.0,
        chi=chi,
        distinct_triple=distinct,
        passed=n_ok and range_ok and troy_ok and chi > 0.0 and distinct,
    )


def equatorial_divisor(betas, gaps=None) -> Divisor:
    """Divisor with the given exponents spaced around the equator.

    gaps, if given, are successive azimuth increments (radians, must sum to
    <= 2*pi); by default the points are equally spaced.
    """
    betas = np.atleast_1d(np.asarray(betas, dtype=float))
    n = len(betas)
    if gaps is None:
        az = 2.0 * math.pi * np.arange(n) / n
    else:
        gaps = np.asarray(gaps, dtype=float)
        if len(gaps) != n:
            raise ShapeError(f"{len(gaps)} gaps for {n} points")
        if gaps.sum() > 2.0 * math.pi + 1e-12:
            raise DomainError("azimuth gaps exceed a full circle")
        az = np.concatenate([[0.0], np.cumsum(gaps[:-1])])
    positions = np.stack([np.cos(az), np.sin(az), np.zeros(n)], axis=1)
    return divisor(positions, betas)


def flagship_divisor() -> Divisor:
    """The (-0.3, -0.4, -0.5) divisor at three unequally spaced equatorial
    positions (azimuth gaps 1.9547 and 2.2384 rad): the reference case of the
    tests, the README and the benchmark."""
    g01, g12 = 1.9547, 2.2384
    return equatorial_divisor(
        [-0.3, -0.4, -0.5], gaps=[g01, g12, 2.0 * math.pi - g01 - g12]
    )
