"""The solver against the exact three-cone metric of curvature 1, and against
its pullbacks along z -> z^k, exact metrics with k + 2 cones."""

import functools
import itertools

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conesphere.background import (
    _chart_variables,
    _three_cone_log_factor,
    build_background,
    three_cone_factor,
)
from conesphere.divisor import divisor, equatorial_divisor, flagship_divisor, solver_scope_check
from conesphere.errors import DomainError, ScopeError
from conesphere.mesh import build_mesh
from conesphere.moebius import _project_hom
from conesphere.solver import SolverConfig, continuation_solve


def oracle_error(bg):
    u, rep = continuation_solve(bg, np.ones(bg.n_vertices), SolverConfig(newton_tol=1e-8))
    assert rep.converged
    free = bg.free
    return float(np.max(np.abs(u[free] - three_cone_factor(bg)[free])))


def oracle_log_factor(w, betas):
    """_three_cone_log_factor by its closed form in the chart v = w, with
    mpmath's hyp2f1 and gamma.  The margins are computed from the float
    exponents as troyanov_check computes them, so a margin that the float sum
    puts near 0 is the same small number on both sides."""
    total = betas[0] + betas[1] + betas[2]
    m0, m1, m_inf = (mpmath.mpf(2 * b - total) for b in betas)
    b0, b1, total = mpmath.mpf(betas[0]), mpmath.mpf(betas[1]), mpmath.mpf(total)
    a, b, c = -(2 + total) / 2, m_inf / 2, -b0
    g = mpmath.gamma
    h = -(g(c) ** 2 * g(1 - a) * g(1 - b) * g(m0 / 2) * g(1 + b - c)
          / (g(2 - c) ** 2 * g(a) * g(b) * g(1 - m0 / 2) * g(m1 / 2)))
    assert h > 0
    y1 = abs(w) ** (1 - c) * abs(mpmath.hyp2f1(m0 / 2, b - c + 1, 2 - c, w))
    y2 = abs(mpmath.hyp2f1(a, b, c, w))
    log_wronskian = mpmath.log(1 + b0) - c * mpmath.log(abs(w)) + b1 * mpmath.log(abs(1 - w))
    return (mpmath.log(h) / 2 + log_wronskian + mpmath.log(1 + abs(w) ** 2)
            - mpmath.log(y2**2 + h * y1**2))


def oracle_error_at(points, betas):
    """Largest |kernel - oracle| over the points, and the point where it is."""
    value = _three_cone_log_factor(np.array(points, dtype=complex), betas)
    with mpmath.workdps(30):
        exact = np.array([float(oracle_log_factor(mpmath.mpc(w), betas)) for w in points])
    error = np.abs(value - exact)
    return error.max(), points[int(error.argmax())]


HEX = complex(0.5, 0.75 ** 0.5)  # e^{i pi/3}, where all six chart variables have modulus 1
POINTS = [
    0.3 + 0.2j, -3.0 + 1.0j, 1e3 + 5.0j,
    0.9999 + 0.01j, 0.5 + 0.8660254j, 0.5 - 0.8660254j,  # |w| and |1 - w| near 1
    1.5, 2.0, 2.9,  # on the cut of F
    1e-8j, 1 - 1e-8, 1e8,  # next to each cone
    HEX, HEX.conjugate(),
    *(complex(np.round(c + 0.2 * np.exp(1j * t), 12))  # the Taylor patch
      for c in (HEX, HEX.conjugate()) for t in np.arange(8) * np.pi / 4),
]
EXPONENTS = {
    "flagship": (-0.3, -0.4, -0.5), "spread": (-0.6, -0.3, -0.7), "small": (-0.1, -0.25, -0.3),
    "margin": (-0.99999, -0.37926601877988575, -0.6207239812201143),  # a margin of 2.2e-16
}


@pytest.mark.parametrize("w", POINTS)
def test_log_factor_matches_mpmath(w):
    error, _ = oracle_error_at([w], EXPONENTS["flagship"])
    assert error <= 1e-14


@pytest.mark.parametrize("name", ["spread", "small", "margin"])
def test_log_factor_matches_mpmath_at_other_exponents(name):
    error, where = oracle_error_at(POINTS, EXPONENTS[name])
    assert error <= 1e-14, where


@functools.cache
def switch_points():
    """Two points across each switch between the kernel's series variables:
    the ends of the bisected step along which the variable of least modulus
    changes, for each pair of variables that meet in a grid over the plane."""
    choice = lambda w: np.abs(_chart_variables(np.atleast_1d(w))).argmin(axis=0)
    x, y = np.meshgrid(np.linspace(-3.0, 4.0, 141), np.linspace(-3.0, 3.0, 121))
    grid = x + 1j * y
    picked = {}
    for lo, hi in [(grid[:, :-1], grid[:, 1:]), (grid[:-1], grid[1:])]:
        lo, hi = lo.ravel(), hi.ravel()
        for p, q in zip(lo[choice(lo) != choice(hi)], hi[choice(lo) != choice(hi)]):
            if frozenset(np.concatenate([choice(p), choice(q)])) in picked:
                continue
            for _ in range(40):
                mid = 0.5 * (p + q)
                p, q = (mid, q) if choice(mid) == choice(p) else (p, mid)
            picked.setdefault(frozenset(np.concatenate([choice(p), choice(q)])), (p, q))
    return picked


@pytest.mark.parametrize("name", EXPONENTS)
def test_log_factor_matches_mpmath_across_every_switch(name):
    switches = switch_points()
    # every variable meets another: the six chart variables and the offset
    assert set().union(*switches) == set(range(7)) and len(switches) == 12
    error, where = oracle_error_at([w for pair in switches.values() for w in pair], EXPONENTS[name])
    assert error <= 1e-14, where


def test_angles_without_a_metric_are_rejected():
    # (-0.9, -0.1, -0.2) fails Troyanov's condition: h = -0.97
    with pytest.raises(DomainError, match="no spherical metric"):
        _three_cone_log_factor(np.array([0.5j]), np.array([-0.9, -0.1, -0.2]))


@pytest.mark.parametrize("betas", [
    (-0.3, -0.4, 0.0),  # h < 0 in the chart v = w, a pole of gamma in v = 1/w
    (0.65, 1.0, -0.35),  # h = 2.37 in the chart v = w, a pole of gamma in v = 1 - w
    (-0.3, -0.3, 0.0),  # a margin of 0: a pole of gamma in every chart
])
def test_a_pole_of_gamma_in_any_chart_is_the_documented_value_error(betas):
    # math.gamma raises its own ValueError at a pole; it must not escape
    with pytest.raises(DomainError, match="no spherical metric"):
        _three_cone_log_factor(np.array([0.5j]), betas)


@pytest.mark.parametrize("betas, error", [
    ((-0.9, -0.1, -0.1), DomainError),  # has a background, fails Troyanov's condition
    ((-0.3, -0.4), ScopeError),
    ((-0.3, -0.4, -0.5, -0.2), ScopeError),
], ids=["no-metric", "two-cones", "four-cones"])
def test_three_cone_factor_raises_package_errors(betas, error):
    # these raised a bare ValueError, and a DomainError about triples
    div = equatorial_divisor(betas)
    with pytest.raises(error):
        three_cone_factor(build_background(div, build_mesh(3, div)))


def test_flagship_unit_curvature_converges_to_the_exact_metric(flagship_bg_g5):
    div = flagship_divisor()
    errors = [oracle_error(build_background(div, build_mesh(3, div, grading=2))),
              oracle_error(build_background(div, build_mesh(4, div, grading=3))),
              oracle_error(flagship_bg_g5)]
    # measured: 2.22e-2, 9.54e-3, 1.31e-3
    assert errors[0] > errors[1] > errors[2]
    assert errors[1] <= 9.61e-3 and errors[2] <= 1.36e-3


def test_flagship_nonconstant_curvature_converges_to_the_exact_metric(
        flagship_bg_small, flagship_bg_g5):
    # u* = u_1 + s, s = a x^4 with x = (z - z0) / (1 - z0) for z > z0 (0 elsewhere),
    # has curvature K* = e^{-2s} (1 - e^{-2 u_1} rho^{-2 beta} Lap s), with the round
    # Lap s = (1 - z^2) s'' - 2 z s'; s is C^3 and vanishes near the cones
    a, z0 = 0.02, 0.5
    div = flagship_divisor()
    errors = []
    for bg in (build_background(div, build_mesh(3, div, grading=2)), flagship_bg_small,
               flagship_bg_g5):
        free, u1 = bg.free, three_cone_factor(bg)
        z = bg.mesh.vertices[:, 2]
        x = np.maximum(z - z0, 0.0) / (1.0 - z0)
        s = a * x**4
        lap_s = 12.0 * a * x**2 * (1.0 - z**2) / (1.0 - z0) ** 2 - 8.0 * a * x**3 * z / (1.0 - z0)
        K = np.zeros(bg.n_vertices)
        K[free] = np.exp(-2.0 * s[free]) * (
            1.0 - np.exp(-2.0 * u1[free]) * bg.rho_pow_neg2beta[free] * lap_s[free])
        assert np.min(K[free]) > 0.5  # K* ranges over [0.61, 2.47]
        u, rep = continuation_solve(bg, K, SolverConfig(newton_tol=1e-10))
        errors.append(float(np.max(np.abs(u[free] - u1[free] - s[free]))))
    # measured: 2.21e-2, 9.51e-3, 1.31e-3
    assert errors[0] > errors[1] > errors[2]
    assert all(e <= 1.2 * m for e, m in zip(errors, (2.21e-2, 9.51e-3, 1.31e-3))), errors


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


def pulled_back_factor(z, k, betas, lib=np):
    """Log factor against the round metric, at chart points z (those of
    _project_hom, the south pole at 0), of the pullback along w = z^k of the
    curvature-1 metric with cone exponents betas at w = 0, 1, inf.  Its cones:
    k (1 + betas[0]) - 1 at the south pole, k (1 + betas[2]) - 1 at the north
    pole, and betas[1] at each k-th root of unity on the equator."""
    r = abs(z)
    factor = _three_cone_log_factor if lib is np else oracle_log_factor
    return (factor(z**k, betas)
            + lib.log(k) + (k - 1) * lib.log(r) + lib.log(1 + r**2) - lib.log(1 + r ** (2 * k)))


def pullback_error(k, betas, base, grading):
    """Sup over the non-cone nodes of the K = 1 solve's error against the
    pulled-back metric, on a base / grading mesh of its k + 2 cones."""
    b0, b1, b_inf = betas
    roots = np.exp(2j * np.pi * np.arange(k) / k)
    positions = [[0, 0, -1], [0, 0, 1], *([r.real, r.imag, 0] for r in roots)]
    div = divisor(positions, [k * (1 + b0) - 1, k * (1 + b_inf) - 1] + [b1] * k)
    bg = build_background(div, build_mesh(base, div, grading=grading))
    u, rep = continuation_solve(bg, np.ones(bg.n_vertices), SolverConfig(newton_tol=1e-9))
    assert rep.converged
    z, w = _project_hom(bg.mesh.vertices[bg.free])
    exact = pulled_back_factor(z / w, k, np.array(betas))
    return float(np.max(np.abs(u[bg.free] - exact - 0.5 * np.log(bg.rho_pow_neg2beta[bg.free]))))


# |z| below, near and above 1
@pytest.mark.parametrize("z", [0.3 + 0.2j, 0.999 + 0.02j, -0.5 + 0.86j, 1.7 - 0.4j, -40.0 + 3.0j])
@pytest.mark.parametrize("k, betas", [(2, ("-0.6", "-0.3", "-0.7")),
                                      (3, ("-0.7", "-0.3", "-0.75"))])
def test_pulled_back_factor_matches_mpmath(z, k, betas):
    with mpmath.workdps(30):
        exact = float(pulled_back_factor(mpmath.mpc(z), k, [float(b) for b in betas], lib=mpmath))
    value = pulled_back_factor(np.array([z]), k, np.array([float(b) for b in betas]))
    assert value[0] == pytest.approx(exact, abs=1e-13)


@pytest.mark.parametrize("k, betas, measured", [
    (2, (-0.6, -0.3, -0.7), (7.84e-3, 2.10e-3)),
    (3, (-0.7, -0.3, -0.75), (2.12e-3, 5.35e-4)),  # five cones
], ids=["four-cone", "five-cone"])
def test_pulled_back_metrics_are_the_unit_curvature_solutions(k, betas, measured):
    # Luo-Tian (Proc. AMS 116, 1992): the metric is unique, so the solve
    # must converge to it from the background start
    coarse, fine = pullback_error(k, betas, 3, 2), pullback_error(k, betas, 4, 3)
    assert coarse <= 1.5 * measured[0] and fine <= 1.5 * measured[1]
    assert fine <= coarse / 3


UNIT_VECTORS = st.tuples(*[st.floats(-1.0, 1.0)] * 3).map(np.array).filter(
    lambda v: np.linalg.norm(v) > 0.1).map(lambda v: v / np.linalg.norm(v))
OPEN_UNIT = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


@st.composite
def troyanov_exponents(draw):
    """Three exponents -x_i in (-1, 0) whose x_i satisfy the triangle
    inequality, which is Troyanov's condition for three cones."""
    x1, x2, f = draw(OPEN_UNIT), draw(OPEN_UNIT), draw(OPEN_UNIT)
    lo, hi = abs(x1 - x2), min(1.0, x1 + x2)
    x3 = lo + f * (hi - lo)
    assume(0.0 < x3 < 1.0)  # rounding can reach either end
    return -x1, -x2, -x3


@settings(max_examples=60, deadline=None, derandomize=True)
@given(positions=st.tuples(*[UNIT_VECTORS] * 3), betas=troyanov_exponents())
# a Troyanov margin of 2.2e-16: 1 + a - c rounded to 0, and h to inf, when
# the hypergeometric parameters were taken from the angles 1 + beta_i
@example(positions=(np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, -1.0]),
                    np.array([0.0, 1.0, 0.0])),
         betas=(-0.99999, -0.37926601877988575, -0.6207239812201143))
def test_every_three_cone_divisor_in_scope_has_a_finite_factor(positions, betas):
    # the solver may start from u_1 on any divisor it accepts: h > 0 there
    # (three_cone_factor raises otherwise) and u_1 is finite at every node
    assume(all(np.linalg.norm(p - q) > 0.5 for p, q in itertools.combinations(positions, 2)))
    div = divisor(positions, betas)
    assume(solver_scope_check(div).passed)
    u1 = three_cone_factor(build_background(div, build_mesh(3, div)))
    assert np.all(np.isfinite(u1))
