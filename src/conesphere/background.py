"""Conical backgrounds g = rho^{2 beta} g_round on the sphere.

The radius function rho is built per cone point from a radial profile
L(d) = log rho with three zones:

  * inner harmonic zone d <= delta:  L = log tan(d/2) + const, whose
    round-sphere Laplacian vanishes identically away from the pole;
  * blend annulus delta <= d <= R:  the Laplacian of L is prescribed as
    c * b(tau), with b a smoothly tapered plateau bump and the constant c
    fixed by flux balance so that L and L' reach 0 at d = R;
  * exterior d >= R:  L = 0.

The geodesic flux of the inner zone is 2*pi (the cone's defect source), so
flux balance forces the annulus to absorb exactly -2*pi.  Keeping the
prescribed Laplacian as flat as the taper allows maximizes the positivity
margin of the background curvature k_beta = rho^{-2 beta} (1 - beta * Lap log rho):
positivity needs 1 + beta * c > 0, and |c| shrinks as the annulus grows, so
each cone is given its own radius R_i sized to its exponent, with the balls
kept pairwise disjoint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .divisor import Divisor, geodesic_distance
from .errors import BackgroundError, GeometryError, NormalizationError, ShapeError
from .mesh import SphereMesh

_PROFILE_POINTS = 20001
_TAPER = 0.12  # fraction of the annulus used by each smoothstep ramp
_DELTA_FRACTION = 0.02  # inner harmonic zone radius as a fraction of R
_MIN_MARGIN = 0.02  # required lower bound on 1 + beta * c * max(b)
_TARGET_MARGIN = 0.08  # margin the radius allocation aims for


def _smoothstep(t):
    t = np.clip(t, 0.0, 1.0)
    return t * t * t * (t * (6.0 * t - 15.0) + 10.0)


def _bump(tau):
    """Plateau bump on [0,1]: quintic ramps of width _TAPER at both ends."""
    tau = np.asarray(tau, dtype=float)
    return _smoothstep(tau / _TAPER) * _smoothstep((1.0 - tau) / _TAPER)


@dataclass(frozen=True)
class _ConeProfile:
    """Radial log-rho profile for one cone: grid on [delta, R] plus the
    analytic constants of the inner zone."""

    radius: float
    delta: float
    c: float
    grid: np.ndarray
    logrho: np.ndarray  # L on the grid
    inner_shift: float  # L(d) = log tan(d/2) + inner_shift for d <= delta

    def log_rho(self, d):
        d = np.asarray(d, dtype=float)
        out = np.zeros_like(d)
        inner = (d > 0.0) & (d < self.delta)
        out[inner] = np.log(np.tan(d[inner] / 2.0)) + self.inner_shift
        mid = (d >= self.delta) & (d < self.radius)
        out[mid] = np.interp(d[mid], self.grid, self.logrho)
        out[d == 0.0] = -np.inf
        return out

    def laplacian_log_rho(self, d):
        d = np.asarray(d, dtype=float)
        out = np.zeros_like(d)
        mid = (d >= self.delta) & (d < self.radius)
        tau = (d[mid] - self.delta) / (self.radius - self.delta)
        out[mid] = self.c * _bump(tau)
        return out


def _build_profile(radius: float, beta: float) -> _ConeProfile:
    delta = _DELTA_FRACTION * radius
    s = np.linspace(delta, radius, _PROFILE_POINTS)
    tau = (s - delta) / (radius - delta)
    b = _bump(tau)
    absorbed = np.trapezoid(b * np.sin(s), s)
    c = -1.0 / absorbed
    margin = 1.0 + beta * c  # max(b) = 1 on the plateau
    if margin < _MIN_MARGIN:
        raise BackgroundError(
            f"curvature positivity margin {margin:.4f} too small for exponent "
            f"{beta} at radius {radius:.3f}; enlarge the cone neighborhood"
        )
    # flux F(s)/(2 pi) = 1 + int_delta^s c b sin; L'(s) = F / (2 pi sin s)
    flux = 1.0 + c * np.concatenate(
        [[0.0], np.cumsum(0.5 * (b[1:] * np.sin(s[1:]) + b[:-1] * np.sin(s[:-1])) * np.diff(s))]
    )
    lp = flux / np.sin(s)
    L = np.concatenate(
        [[0.0], np.cumsum(0.5 * (lp[1:] + lp[:-1]) * np.diff(s))]
    )
    L -= L[-1]  # enforce L(R) = 0
    inner_shift = L[0] - math.log(math.tan(delta / 2.0))
    return _ConeProfile(
        radius=radius, delta=delta, c=c, grid=s, logrho=L, inner_shift=inner_shift
    )


def _needed_radius(beta: float) -> float:
    """Smallest annulus radius giving curvature margin _TARGET_MARGIN."""
    need = abs(beta) / (1.0 - _TARGET_MARGIN)

    def absorbed(radius):
        delta = _DELTA_FRACTION * radius
        s = np.linspace(delta, radius, 2001)
        return np.trapezoid(_bump((s - delta) / (radius - delta)) * np.sin(s), s)

    lo, hi = 1e-3, math.pi - 1e-3
    if absorbed(hi) < need:
        raise BackgroundError(f"no admissible neighborhood radius for exponent {beta}")
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if absorbed(mid) < need:
            lo = mid
        else:
            hi = mid
    return hi


def _allocate_radii(div: Divisor, cutoff_radius: float) -> np.ndarray:
    """Per-cone radii: as large as the targets ask, capped by the cutoff and
    by a proportional split of each pairwise geodesic distance."""
    needed = np.array([_needed_radius(p.beta) for p in div])
    target = np.minimum(needed * 1.05, cutoff_radius)
    d = div.distances
    pair = target[:, None] + target
    share = np.where(pair > d, d * target[:, None] / pair, np.inf)
    np.fill_diagonal(share, np.inf)
    radii = np.minimum(target, share.min(axis=1))
    for i in range(len(div)):
        if radii[i] > cutoff_radius + 1e-12:
            raise GeometryError("allocated cone neighborhood exceeds the cutoff radius")
        if radii[i] < needed[i] * (1.0 - 1e-9):
            raise GeometryError(
                f"cone neighborhoods overlap: cone {i} (exponent {div.points[i].beta}) "
                f"needs radius {needed[i]:.3f} but only {radii[i]:.3f} fits"
            )
    return radii


@dataclass
class ConicalBackground:
    """Divisor, mesh, and all nodewise fields of the metric rho^{2 beta} g_round."""

    divisor: Divisor
    mesh: SphereMesh
    rho: np.ndarray
    log_rho: np.ndarray  # -inf at cone vertices
    m_field: np.ndarray  # 1 - beta * Lap log rho (smooth everywhere)
    k_beta: np.ndarray
    rho_pow_2beta: np.ndarray  # quadrature weight, 0 at cone vertices by convention
    rho_pow_neg2beta: np.ndarray  # coefficient of the conical Laplacian, 0 at cones
    cone_radii: np.ndarray
    profiles: tuple = field(repr=False, default=())

    @property
    def n_vertices(self) -> int:
        return self.mesh.n_vertices

    @property
    def cone_vertices(self) -> np.ndarray:
        return self.mesh.cone_vertices

    def _check(self, f, name="grid function"):
        f = np.asarray(f, dtype=float)
        if f.shape != (self.n_vertices,):
            raise ShapeError(f"{name} has shape {f.shape}, mesh has {self.n_vertices} nodes")
        return f

    def _check_pinned(self, u, name="u", atol=0.0):
        u = self._check(u, name)
        cv = self.cone_vertices
        if len(cv) and np.any(np.abs(u[cv]) > atol):
            raise NormalizationError(f"{name} must vanish at cone vertices")
        return u


def build_background(div: Divisor, mesh: SphereMesh, cutoff_radius: float = 1.2) -> ConicalBackground:
    """Assemble rho, its Laplacian, the background curvature, and both stored
    powers of rho on the given mesh.

    Each cone gets its own neighborhood radius <= cutoff_radius, sized so the
    background curvature stays positive; GeometryError if the disjointness of
    the neighborhoods cannot be maintained at the needed sizes.
    """
    if not cutoff_radius > 0.0:  # NaN fails too
        raise GeometryError(f"cutoff radius must be positive, got {cutoff_radius}")
    n = mesh.n_vertices
    log_rho = np.zeros(n)
    lap = np.zeros(n)
    beta_eff = np.zeros(n)
    profiles = ()
    if len(div):
        if len(mesh.cone_vertices) != len(div):
            raise ShapeError("mesh was not built from this divisor (cone vertex count differs)")
        if np.any(geodesic_distance(mesh.vertices[mesh.cone_vertices], div.positions) > 1e-12):
            raise ShapeError("mesh cone vertices do not coincide with the divisor points")
        radii = _allocate_radii(div, cutoff_radius)
        profiles = tuple(_build_profile(r, p.beta) for r, p in zip(radii, div.points))
        for prof, p in zip(profiles, div.points):
            d = geodesic_distance(mesh.vertices, p.position)
            inside = d < prof.radius
            log_rho[inside] += prof.log_rho(d[inside])
            lap[inside] += prof.laplacian_log_rho(d[inside])
            beta_eff[inside] = p.beta
    else:
        radii = np.zeros(0)

    m_field = 1.0 - beta_eff * lap
    if np.any(m_field <= 0.0):
        raise BackgroundError("background curvature factor 1 - beta*Lap(log rho) is nonpositive")

    cone = mesh.cone_vertices
    # a mesh passes the check above with its cone vertex up to 1e-12 off
    # the point, at a finite log rho
    log_rho[cone] = -np.inf
    rho = np.exp(log_rho)
    # 0 * -inf at a beta = 0 point is NaN, and is overwritten below
    with np.errstate(over="ignore", invalid="ignore"):
        rho_neg = np.exp(-2.0 * beta_eff * log_rho)  # -> 0 at cones since beta < 0
        rho_pos = np.exp(2.0 * beta_eff * log_rho)
    # quadrature convention: the cone cell mass is dropped; a beta = 0 point
    # is no cone, and rho^{+-2 beta} = 1 there
    rho_neg[cone] = rho_pos[cone] = np.where(beta_eff[cone] == 0.0, 1.0, 0.0)
    k_beta = rho_neg * m_field
    return ConicalBackground(
        divisor=div,
        mesh=mesh,
        rho=rho,
        log_rho=log_rho,
        m_field=m_field,
        k_beta=k_beta,
        rho_pow_2beta=rho_pos,
        rho_pow_neg2beta=rho_neg,
        cone_radii=np.asarray(radii, dtype=float),
        profiles=profiles,
    )


def delta_beta_apply(bg: ConicalBackground, f: np.ndarray) -> np.ndarray:
    """Conical Laplacian rho^{-2 beta} * Lap f; zero at cone vertices."""
    f = bg._check(f)
    return bg.rho_pow_neg2beta * bg.mesh.laplace(f)


def curvature_map(bg: ConicalBackground, u: np.ndarray, cone_tol: float = 0.0) -> np.ndarray:
    """Gaussian curvature of e^{2u} rho^{2 beta} g_round; zero at cone vertices.

    cone_tol loosens the pinning check for solver output, whose cone-vertex
    values float at the discretization scale.  The returned value at a cone
    vertex does not depend on u there (the conical weight vanishes), but the
    values on its 1-ring do, through the Laplacian.
    """
    u = bg._check_pinned(u, atol=cone_tol)
    return np.exp(-2.0 * u) * (bg.k_beta - delta_beta_apply(bg, u))


@dataclass(frozen=True)
class GaussBonnetReport:
    integral: float
    target: float
    residual: float


def gauss_bonnet(bg: ConicalBackground, u: np.ndarray, cone_tol: float = 0.0) -> GaussBonnetReport:
    """Total curvature of e^{2u} g against the target 2*pi*(2 + sum beta_i)."""
    u = bg._check_pinned(u, atol=cone_tol)
    K = curvature_map(bg, u, cone_tol=cone_tol)
    integral = float(np.sum(K * np.exp(2.0 * u) * bg.rho_pow_2beta * bg.mesh.areas))
    target = 2.0 * math.pi * (2.0 + float(np.sum(bg.divisor.betas)))
    return GaussBonnetReport(
        integral=integral, target=target, residual=abs(integral - target) / abs(target)
    )


def mean_laplacian_zero(bg: ConicalBackground, f: np.ndarray) -> float:
    """Discrete total conical Laplacian against the conical volume; near zero
    because the weights cancel and the stiffness matrix annihilates constants.

    The canceled weight rho^{-2 beta} * rho^{2 beta} is taken as 1 at cone
    vertices (its limit along the cancellation, not the 0 * inf convention of
    the individual fields), so the sum telescopes over every stiffness row."""
    f = bg._check_pinned(f, "f")
    cancel = bg.rho_pow_neg2beta * bg.rho_pow_2beta
    cancel[bg.cone_vertices] = 1.0
    return float(np.sum(bg.mesh.laplace(f) * cancel * bg.mesh.areas))
