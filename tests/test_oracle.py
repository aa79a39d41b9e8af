"""The solver against the exact three-cone metric of curvature 1."""

import types

import mpmath
import numpy as np
import pytest
import scipy.special

from conesphere.background import build_background
from conesphere.divisor import equatorial_divisor, flagship_divisor, solver_scope_check
from conesphere.mesh import build_mesh
from conesphere.moebius import _project_hom, conformal_distortion, moebius_from_triples
from conesphere.solver import SolverConfig, continuation_solve

_SCIPY = types.SimpleNamespace(hyp2f1=scipy.special.hyp2f1, gamma=scipy.special.gamma, log=np.log)


def three_cone_log_factor(w, alphas, lib=_SCIPY):
    """Log factor against the round metric, at chart points w, of the
    curvature-1 metric with cone angles 2 pi alphas at w = 0, 1, inf
    (Eremenko, Proc. AMS 132, 2004).

    y1 = w^{1-c} F(a-c+1, b-c+1; 2-c; w) and y2 = F(a, b; c; w) develop it.
    Its monodromy keeps the form h |y1|^2 + |y2|^2, with h = -A21 A22 / (A11 A12)
    from Kummer's connection coefficients (DLMF 15.10.21-22); h > 0 exactly
    when the metric exists.  Only moduli enter, so no branch is chosen.  lib
    supplies hyp2f1, gamma and log: scipy's and numpy's, or mpmath."""
    a0, a1, a_inf = alphas
    a, b, c = (1 - a0 - a1 - a_inf) / 2, (1 - a0 - a1 + a_inf) / 2, 1 - a0
    g = lib.gamma
    h = -(g(c) ** 2 * g(1 - a) * g(1 - b) * g(1 + a - c) * g(1 + b - c)
          / (g(2 - c) ** 2 * g(a) * g(b) * g(c - a) * g(c - b)))
    if not h > 0:
        raise ValueError(f"no spherical metric with cone angles 2 pi {tuple(alphas)}: h = {h}")
    y1 = abs(w) ** (1 - c) * abs(lib.hyp2f1(a - c + 1, b - c + 1, 2 - c, w))
    y2 = abs(lib.hyp2f1(a, b, c, w))
    log_wronskian = lib.log(a0) - c * lib.log(abs(w)) + (c - a - b - 1) * lib.log(abs(1 - w))
    return lib.log(h) / 2 + log_wronskian + lib.log(1 + abs(w) ** 2) - lib.log(y2**2 + h * y1**2)


def exact_three_cone(bg):
    """The non-cone nodes of bg and the exact u there for K = 1: the metric's
    log factor, its cones moved to w = 0, 1, inf, minus 1/2 log rho^{2 beta}."""
    free = np.setdiff1d(np.arange(bg.n_vertices), bg.cone_vertices)
    phi = moebius_from_triples(bg.divisor.positions, [[0, 0, -1], [1, 0, 0], [0, 0, 1]])
    x = bg.mesh.vertices[free]
    z, s = _project_hom(x)
    w = (phi.a * z + phi.b * s) / (phi.c * z + phi.d * s)  # phi(x) in the chart
    log_factor = three_cone_log_factor(w, 1.0 + bg.divisor.betas)
    log_factor += np.log(conformal_distortion(phi, x))
    return free, log_factor + 0.5 * np.log(bg.rho_pow_neg2beta[free])


def oracle_error(bg):
    u, rep = continuation_solve(bg, np.ones(bg.n_vertices), SolverConfig(newton_tol=1e-8))
    assert rep.converged
    free, exact = exact_three_cone(bg)
    return float(np.max(np.abs(u[free] - exact)))


@pytest.mark.parametrize("w", [
    0.3 + 0.2j, -3.0 + 1.0j, 1e3 + 5.0j,
    0.9999 + 0.01j, 0.5 + 0.8660254j, 0.5 - 0.8660254j,  # |w| and |1 - w| near 1
    1.5, 2.0, 2.9,  # on the cut of F
])
def test_log_factor_matches_mpmath(w):
    with mpmath.workdps(30):
        alphas = [mpmath.mpf(s) for s in ("0.7", "0.6", "0.5")]
        exact = float(three_cone_log_factor(mpmath.mpc(w), alphas, lib=mpmath))
    value = three_cone_log_factor(np.array([complex(w)]), np.array([0.7, 0.6, 0.5]))
    assert value[0] == pytest.approx(exact, abs=1e-14)


def test_angles_without_a_metric_are_rejected():
    # (-0.9, -0.1, -0.2) fails Troyanov's condition: h = -0.97
    with pytest.raises(ValueError, match="no spherical metric"):
        three_cone_log_factor(np.array([0.5j]), 1.0 + np.array([-0.9, -0.1, -0.2]))


def test_flagship_unit_curvature_converges_to_the_exact_metric(flagship_bg_g5):
    div = flagship_divisor()
    errors = [oracle_error(build_background(div, build_mesh(3, div, grading=2))),
              oracle_error(build_background(div, build_mesh(4, div, grading=3))),
              oracle_error(flagship_bg_g5)]
    # measured: 2.22e-2, 9.54e-3, 1.31e-3
    assert errors[0] > errors[1] > errors[2]
    assert errors[1] <= 9.61e-3 and errors[2] <= 1.36e-3


@pytest.mark.parametrize("betas", [(-0.6, -0.61, -0.62), (-0.30, -0.55, -0.65)],
                         ids=["near-equal", "spread"])
def test_divisors_without_disjoint_cone_balls_solve(betas):
    # no disjoint balls large enough for each exponent fit around these
    # cones, which the background once needed; both are in the solver's scope
    div = equatorial_divisor(betas)
    assert solver_scope_check(div).passed
    coarse, fine = (oracle_error(build_background(div, build_mesh(base, div, grading=grading)))
                    for base, grading in ((3, 2), (4, 3)))
    # measured: 1.36e-2 and 5.16e-3, 5.40e-2 and 3.72e-2
    assert fine < coarse < 0.06
