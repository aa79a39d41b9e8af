"""Conical backgrounds g = rho^{2 beta} g_round on the sphere, in Troyanov's gauge.

The background is one global function of the distances d_i to the cone
points p_i:

    rho^{2 beta} = prod_i sin(d_i / 2)^{2 beta_i}.

Off its pole, Lap log sin(d/2) = -1/2 on the round sphere, so the
curvature factor m = 1 - beta * Lap log rho = 1 + sum_i beta_i / 2 = chi / 2
is a constant, and the background curvature k_beta = rho^{-2 beta} * chi / 2
is positive for every divisor with positive Euler characteristic chi.  Near
p_i the weight behaves like (d_i / 2)^{2 beta_i}: a cone of angle
2 pi (1 + beta_i).  Reference: Troyanov, Trans. AMS 324 (1991).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .divisor import Divisor, euler_characteristic, geodesic_distance
from .errors import BackgroundError, NormalizationError, ShapeError
from .mesh import SphereMesh
from .moebius import _chart_image, moebius_from_triples


@dataclass
class ConicalBackground:
    """Divisor, mesh, and all nodewise fields of the metric rho^{2 beta} g_round."""

    divisor: Divisor
    mesh: SphereMesh
    m: float  # 1 - beta * Lap log rho = chi / 2, the same at every node
    free: np.ndarray  # the non-cone nodes, ascending
    k_beta: np.ndarray
    rho_pow_2beta: np.ndarray  # quadrature weight, 0 at cone vertices by convention
    rho_pow_neg2beta: np.ndarray  # coefficient of the conical Laplacian, 0 at cones

    @property
    def n_vertices(self) -> int:
        return self.mesh.n_vertices

    @property
    def cone_vertices(self) -> np.ndarray:
        return self.mesh.cone_vertices

    def _check_pinned(self, u, name="u"):
        u = self.mesh._check(u, name)
        if np.any(np.abs(u[self.cone_vertices]) > 0.0):
            raise NormalizationError(f"{name} must vanish at cone vertices")
        return u


def build_background(div: Divisor, mesh: SphereMesh) -> ConicalBackground:
    """Assemble both powers of rho, the curvature factor m = chi / 2 and the
    background curvature on the given mesh.

    BackgroundError if chi <= 0, where no background of this gauge has
    positive curvature.  A point with exponent 0 is no cone and adds no factor.
    """
    chi = euler_characteristic(div)
    if not chi > 0.0:
        raise BackgroundError(f"Euler characteristic {chi:.6g} is not positive, so the "
                              "background curvature chi/2 * rho^(-2 beta) is not either")
    if len(mesh.cone_vertices) != len(div):
        raise ShapeError("mesh was not built from this divisor (cone vertex count differs)")
    if np.any(geodesic_distance(mesh.vertices[mesh.cone_vertices], div.positions) > 1e-12):
        raise ShapeError("mesh cone vertices do not coincide with the divisor points")
    log_neg = np.zeros(mesh.n_vertices)  # log rho^{-2 beta}
    with np.errstate(divide="ignore"):  # log 0 at the cone's own vertex
        for p in div:
            if p.beta != 0.0:
                d = geodesic_distance(mesh.vertices, p.position)
                log_neg -= 2.0 * p.beta * np.log(np.sin(0.5 * d))
    # a mesh passes the check above with its cone vertex up to 1e-12 off
    # the point, at a finite weight
    log_neg[mesh.cone_vertices[div.betas != 0.0]] = -np.inf
    rho_neg = np.exp(log_neg)
    # quadrature convention: the cone cell mass is dropped
    rho_pos = np.divide(1.0, rho_neg, out=np.zeros_like(rho_neg), where=rho_neg > 0.0)
    m = 0.5 * chi
    return ConicalBackground(
        divisor=div,
        mesh=mesh,
        m=m,
        free=np.delete(np.arange(mesh.n_vertices), mesh.cone_vertices),
        k_beta=rho_neg * m,
        rho_pow_2beta=rho_pos,
        rho_pow_neg2beta=rho_neg,
    )


def delta_beta_apply(bg: ConicalBackground, f: np.ndarray) -> np.ndarray:
    """Conical Laplacian rho^{-2 beta} * Lap f; zero at cone vertices."""
    f = bg.mesh._check(f)
    return bg.rho_pow_neg2beta * bg.mesh.laplace(f)


def curvature_map(bg: ConicalBackground, u: np.ndarray) -> np.ndarray:
    """Gaussian curvature of e^{2u} rho^{2 beta} g_round; zero at cone vertices.

    u need not vanish at the cones (the solver's does not).  The returned value
    at a cone vertex does not depend on u there (the conical weight vanishes),
    but the values on its 1-ring do, through the Laplacian.
    """
    u = bg.mesh._check(u, "u")
    return np.exp(-2.0 * u) * (bg.k_beta - delta_beta_apply(bg, u))


@dataclass(frozen=True)
class GaussBonnetReport:
    integral: float
    target: float
    residual: float


def gauss_bonnet(bg: ConicalBackground, u: np.ndarray) -> GaussBonnetReport:
    """Total curvature of e^{2u} g against the target 2*pi*(2 + sum beta_i)."""
    u = bg.mesh._check(u, "u")
    K = curvature_map(bg, u)
    integral = float(np.sum(K * np.exp(2.0 * u) * bg.rho_pow_2beta * bg.mesh.areas))
    target = 2.0 * math.pi * euler_characteristic(bg.divisor)
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


def _three_cone_log_factor(w, betas, lib=None):
    """Log factor against the round metric, at chart points w, of the
    curvature-1 metric with cone exponents betas at w = 0, 1, inf (Eremenko,
    Proc. AMS 132, 2004), developed by y1 = w^{1-c} F(a-c+1, b-c+1; 2-c; w)
    and y2 = F(a, b; c; w).  a = -chi/2, and 1+a-c, c-b and b are half of
    Troyanov's margins, taken as troyanov_check takes them.  The monodromy
    keeps h |y1|^2 + |y2|^2, h = -A21 A22 / (A11 A12) from Kummer's connection
    coefficients (DLMF 15.10.21-22); ValueError unless h > 0, the condition for
    the metric to exist.  Only moduli enter, so no branch is chosen.  lib
    supplies hyp2f1, gamma and log: mpmath's, or scipy's and numpy's."""
    if lib is None:
        import scipy.special  # here, not at import: only three-cone solves need it

        lib = SimpleNamespace(hyp2f1=scipy.special.hyp2f1, gamma=scipy.special.gamma, log=np.log)
    b0, b1, b_inf = betas
    total = b0 + b1 + b_inf
    m0, m1, m_inf = 2 * b0 - total, 2 * b1 - total, 2 * b_inf - total
    a, b, c = -(2 + total) / 2, m_inf / 2, -b0
    g = lib.gamma
    h = -(g(c) ** 2 * g(1 - a) * g(1 - b) * g(m0 / 2) * g(1 + b - c)
          / (g(2 - c) ** 2 * g(a) * g(b) * g(1 - m0 / 2) * g(m1 / 2)))
    if not h > 0:
        raise ValueError(f"no spherical metric with cone exponents {tuple(betas)}: h = {h}")
    y1 = abs(w) ** (1 - c) * abs(lib.hyp2f1(m0 / 2, b - c + 1, 2 - c, w))
    y2 = abs(lib.hyp2f1(a, b, c, w))
    log_wronskian = lib.log(1 + b0) - c * lib.log(abs(w)) + b1 * lib.log(abs(1 - w))
    return lib.log(h) / 2 + log_wronskian + lib.log(1 + abs(w) ** 2) - lib.log(y2**2 + h * y1**2)


def three_cone_factor(bg: ConicalBackground) -> np.ndarray:
    """u_1: the exact u of the curvature-1 metric with bg's three cones, on
    every node.  At a non-cone node it is the metric's log factor, its cones
    moved to w = 0, 1, inf, minus 1/2 log rho^{2 beta}; a cone vertex takes
    the mean over its 1-ring."""
    phi = moebius_from_triples(bg.divisor.positions, [[0, 0, -1], [1, 0, 0], [0, 0, 1]])
    p, q, eta = _chart_image(phi, bg.mesh.vertices[bg.free])
    u = np.empty(bg.n_vertices)
    u[bg.free] = (_three_cone_log_factor(p / q, bg.divisor.betas)
                  + np.log(eta) + 0.5 * np.log(bg.rho_pow_neg2beta[bg.free]))
    return bg.mesh._fill_cones(u)
