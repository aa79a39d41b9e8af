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


_EPS = 2e-17  # a series stops at its first power |z|^n below this
_HEX = complex(0.5, math.sqrt(0.75))  # e^{i pi/3}: each variable below has modulus 1 there
# for the charts v = w, 1 - w, 1/w: the indices of the exponents at v = 0, 1, inf,
# and log |dv/dw| / log |v|
_RELABELLINGS = ((0, 1, 2, 0), (1, 0, 2, 0), (2, 1, 0, 2))


def _term_count(r):
    """Terms of a power series at |z| = r: the first n with r^n < _EPS, at least 1."""
    with np.errstate(divide="ignore"):
        return np.maximum(np.ceil(math.log(_EPS) / np.log(r)), 1).astype(np.intp)


def _power_series(coefficients, z):
    """sum_n c[:, n] z^n at each z of modulus below 1, c = coefficients(n)
    for n the largest term count; each z takes only its own terms."""
    n_terms = _term_count(np.abs(z))
    order = np.argsort(-n_terms, kind="stable")
    active = len(z) - np.cumsum(np.bincount(n_terms))  # active[n]: the z with more than n terms
    c, z = coefficients(int(n_terms.max())), z[order]
    power, total = np.ones_like(z), c[:, :1] * np.ones_like(z)
    for n in range(1, c.shape[1]):
        k = active[n]
        power[:k] *= z[:k]
        total[:, :k] += c[:, n, None] * power[:k]
    out = np.empty_like(total)
    out[:, order] = total
    return out


def _gauss_coefficients(params, n):
    """(a)_k (b)_k / ((c)_k k!) for k < n, one row per (a, b, c) of params."""
    k = np.arange(n - 1)
    return np.array([np.concatenate(([1.0], np.cumprod((a + k) * (b + k) / ((c + k) * (k + 1)))))
                     for a, b, c in params])


def _ode_coefficients(a, b, c, z, y, dy, n):
    """First n Taylor coefficients at z of the solution of the hypergeometric
    equation z (1 - z) y'' + (c - (a + b + 1) z) y' - a b y = 0 with value y
    and slope dy there."""
    p0, p1, q0 = z * (1 - z), 1 - 2 * z, c - (a + b + 1) * z
    out = [y, dy]
    for k in range(n - 2):
        out.append(-((p1 * k + q0) * (k + 1) * out[k + 1] - (k * (k + a + b) + a * b) * out[k])
                   / (p0 * (k + 2) * (k + 1)))
    return np.array(out[:n])


def _value_and_slope(c, s):
    """sum_n c_n s^n and its derivative in s."""
    powers = s ** np.arange(len(c))
    return c @ powers, (np.arange(1, len(c)) * c[1:]) @ powers[:-1]


def _hex_coefficients(a, b, c, n):
    """First n Taylor coefficients of F(a, b; c; .) at e^{i pi/3}, the value
    and slope there continued by one Taylor step from 0.55 e^{i pi/3}."""
    start, step = 0.55 * _HEX, 0.45 * _HEX
    y, dy = _value_and_slope(_gauss_coefficients([(a, b, c)], int(_term_count(0.55)))[0], start)
    n_step = int(_term_count(0.45 / 0.55))  # rounding adds solutions singular at 0
    y, dy = _value_and_slope(_ode_coefficients(a, b, c, start, y, dy, n_step), step)
    return _ode_coefficients(a, b, c, _HEX, y, dy, n)


def _chart_variables(w):
    """Rows 2k and 2k + 1: v and Pfaff's v / (v - 1), for v = w, 1 - w, 1/w
    (the six anharmonic images of w); row 6: w or its conjugate, whichever
    is in the upper half plane, minus e^{i pi/3}."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.stack([w, w / (w - 1), 1 - w, (w - 1) / w, 1 / w, 1 / (1 - w),
                         np.where(w.imag < 0, w.conjugate(), w) - _HEX])


def _three_cone_log_factor(w, betas):
    """Log factor against the round metric, at chart points w, of the
    curvature-1 metric with cone exponents betas at w = 0, 1, inf (Eremenko,
    Proc. AMS 132, 2004), developed by y1 = w^{1-c} F(a-c+1, b-c+1; 2-c; w)
    and y2 = F(a, b; c; w).  a = -chi/2, and 1+a-c, c-b and b are half of
    Troyanov's margins, taken as troyanov_check takes them.  The monodromy
    keeps h |y1|^2 + |y2|^2, h = -A21 A22 / (A11 A12) from Kummer's connection
    coefficients (DLMF 15.10.21-22).  Only moduli enter, so no branch is chosen.

    The metric is unique, so relabelling its cones moves it to the charts
    v = 1 - w and v = 1/w, where the same formula holds with the exponents
    relabelled, the margins kept, and log |dv/dw| + log(1 + |w|^2) -
    log(1 + |v|^2) added.  Each chart sums both Gauss series at v, or at
    v / (v - 1) by Pfaff's F(a, b; c; v) = (1 - v)^{-a} F(a, c-b; c; v / (v - 1)).
    Each point takes whichever of these six variables, or its offset from
    e^{+-i pi/3}, has the least modulus; at the offset both series of the
    chart v = w are Taylor series of the hypergeometric equation, the
    conjugate serving below the real axis.  ValueError unless h is finite
    and positive in each chart: h > 0 is the condition for the metric to
    exist, and each chart alone converges near its own cone at v = 0."""
    w = np.asarray(w, dtype=complex)
    betas = tuple(float(b) for b in betas)
    total = betas[0] + betas[1] + betas[2]
    margins = [2 * b - total for b in betas]
    a, g = -(2 + total) / 2, math.gamma
    charts = []
    for i, j, l, jacobian in _RELABELLINGS:
        b, c = margins[l] / 2, -betas[i]
        try:
            h = -(g(c) ** 2 * g(1 - a) * g(1 - b) * g(margins[i] / 2) * g(1 + b - c)
                  / (g(2 - c) ** 2 * g(a) * g(b) * g(1 - margins[i] / 2) * g(margins[j] / 2)))
        except (ValueError, ZeroDivisionError, OverflowError):  # a pole or overflow of gamma
            h = math.nan
        if not 0 < h < math.inf:
            raise ValueError(f"no spherical metric with cone exponents {betas}: h = {h}")
        params = ((a, b, c), (margins[i] / 2, b - c + 1, 2 - c))  # of y2's and y1's series
        charts.append((h, betas[i], betas[j], jacobian, params))
    variables = _chart_variables(w)
    choice = np.argmin(np.abs(variables), axis=0)
    log_factor = np.log(1 + np.abs(w) ** 2)
    for row in np.unique(choice):
        at = np.flatnonzero(choice == row)
        chart = 0 if row == 6 else row // 2
        h, e0, e1, jacobian, params = charts[chart]
        v, z = variables[2 * chart, at], variables[row, at]
        if row == 6:
            series = _power_series(
                lambda n: np.array([_hex_coefficients(*p, n) for p in params]), z)
        elif row % 2:  # Pfaff's transformation, z = v / (v - 1)
            pfaff = [(pa, pc - pb, pc) for pa, pb, pc in params]
            series = _power_series(lambda n: _gauss_coefficients(pfaff, n), z)
            series *= np.abs(1 - v) ** -np.array([[pa] for pa, _, _ in pfaff])
        else:
            series = _power_series(lambda n: _gauss_coefficients(params, n), z)
        y2, y1 = np.abs(series) ** 2
        r = np.abs(v)
        log_factor[at] += (0.5 * math.log(h) + math.log(1 + e0) + (e0 + jacobian) * np.log(r)
                           + e1 * np.log(np.abs(1 - v)) - np.log(y2 + h * r ** (2 + 2 * e0) * y1))
    return log_factor


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
