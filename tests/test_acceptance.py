"""Acceptance criteria, one test per criterion.

Each test prints a single summary line; pytest's own PASSED/FAILED verdicts
give the per-criterion report.  Oracle values are arithmetic identities or
closed-form geometry (round sphere harmonics, footballs, rotation groups);
no tolerances are loosened beyond the stated ones.
"""

import math
import time

import numpy as np
import pytest
from scipy.spatial import cKDTree

from conesphere.background import build_background, curvature_map, gauss_bonnet, mean_laplacian_zero
from conesphere.diagnostics import kernel_gap, spectrum
from conesphere.divisor import (
    WeightSpec,
    equatorial_divisor,
    euler_characteristic,
    flagship_divisor,
    solver_scope_check,
    troyanov_check,
    weight_admissible,
)
from conesphere.mesh import build_mesh
from conesphere.moebius import conformal_distortion, enumerate_conformal_symmetries
from conesphere.solver import (
    SolverConfig,
    continuation_solve,
    linearize,
    newton_solve,
    pinned_test_factor,
    self_adjointness_defect,
)

from conftest import random_pinned


def test_criterion_01_hypothesis_validators():
    """Truth tables of the validators, exact arithmetic, sub-millisecond."""
    d_pass = equatorial_divisor([-0.3, -0.4, -0.5])
    d_equal = equatorial_divisor([-0.5, -0.5, -0.5])
    d_fail = equatorial_divisor([-0.9, -0.1, -0.1])

    rep = troyanov_check(d_pass)
    assert rep.passed and np.allclose(rep.margins, (0.6, 0.4, 0.2), atol=1e-12)
    rep = troyanov_check(d_fail)
    assert not rep.passed and abs(rep.margins[0] + 0.7) < 1e-12
    rep = troyanov_check(d_equal)
    assert rep.passed and np.allclose(rep.margins, (0.5, 0.5, 0.5), atol=1e-12)

    assert weight_admissible(WeightSpec(gamma=(0.5, 0.5, 0.5)), d_equal).passed
    assert not weight_admissible(WeightSpec(gamma=(2.0, 0.5, 0.5)), d_equal).passed
    assert not weight_admissible(WeightSpec(gamma=(-0.5, 0.5, 0.5)), d_equal).passed

    assert abs(euler_characteristic(d_pass) - 0.8) < 1e-12

    rep = solver_scope_check(d_pass)
    assert rep.passed and abs(rep.chi - 0.8) < 1e-12
    rep = solver_scope_check(d_equal)
    assert not rep.passed and not rep.distinct_triple
    assert rep.troyanov and rep.chi_positive and rep.betas_in_range
    assert not solver_scope_check(equatorial_divisor([-0.3, -0.4])).n_at_least_3

    reps = 50
    t0 = time.perf_counter()
    for _ in range(reps):
        troyanov_check(d_pass)
        weight_admissible(WeightSpec(gamma=(0.5, 0.5, 0.5)), d_equal)
        euler_characteristic(d_pass)
        solver_scope_check(d_pass)
    per_call = (time.perf_counter() - t0) / (4 * reps)
    assert per_call < 1e-3
    print(f"criterion 1: validators exact, {per_call * 1e6:.1f} us/call")


def test_criterion_02_round_sphere_calculus(round_bg5):
    t0 = time.perf_counter()
    mesh = round_bg5.mesh
    area = float(mesh.areas.sum())
    assert abs(area - 4 * math.pi) / (4 * math.pi) <= 1e-6
    z2 = float(np.sum(mesh.vertices[:, 2] ** 2 * mesh.areas))
    assert abs(z2 - 4 * math.pi / 3) / (4 * math.pi / 3) <= 0.005
    vals = spectrum(round_bg5, 4).eigenvalues
    assert abs(vals[0]) < 1e-8
    assert np.all(np.abs(vals[1:4] - 2.0) / 2.0 <= 0.01)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"criterion 2: area {area:.8f}, int z^2 {z2:.6f}, "
          f"lambda_1 triple {vals[1]:.5f} {vals[2]:.5f} {vals[3]:.5f}, {elapsed:.1f}s")


def test_criterion_03_gauss_bonnet(flagship_bg_g4, flagship_bg_g5):
    t0 = time.perf_counter()
    # (a) football k = 2 at base level 6
    from conesphere.diagnostics import exact_football, football_divisor

    div = football_divisor(2)
    mesh6 = build_mesh(6, div, grading=3)
    w = exact_football(2, mesh6)
    area = float(np.sum(np.exp(2.0 * w) * mesh6.areas))
    res_a = abs(area - 2 * math.pi) / (2 * math.pi)
    assert res_a <= 0.01

    # (b) flagship background at grading 5
    rep5 = gauss_bonnet(flagship_bg_g5, np.zeros(flagship_bg_g5.n_vertices))
    assert rep5.target == pytest.approx(1.6 * math.pi)
    assert rep5.residual <= 0.01

    # (c) residual decreases under one grading increase
    rep4 = gauss_bonnet(flagship_bg_g4, np.zeros(flagship_bg_g4.n_vertices))
    assert rep5.residual < rep4.residual

    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"criterion 3: football {res_a:.2e}, background {rep5.residual:.2e} "
          f"(grading 4: {rep4.residual:.2e}), {elapsed:.1f}s")


def test_criterion_04_linearization(flagship_bg_small):
    bg = flagship_bg_small
    rng = np.random.default_rng(2024)
    free = np.ones(bg.n_vertices, bool)
    free[bg.cone_vertices] = False
    t0 = time.perf_counter()
    worst = 0.0
    for trial in range(10):
        u = random_pinned(bg, rng, 0.2)
        h = random_pinned(bg, rng, 0.2)
        exact = np.zeros(bg.n_vertices)
        exact[free] = linearize(bg, u) @ h[free]
        scale = np.max(np.abs(exact[free]))
        errs = []
        for t in (1e-3, 1e-4, 1e-5):
            fd = (curvature_map(bg, u + t * h) - curvature_map(bg, u - t * h)) / (2 * t)
            errs.append(np.max(np.abs((fd - exact)[free])) / scale)
        assert errs[2] <= 1e-5
        worst = max(worst, errs[2])
        # second-order decay: each decade of t buys 100x, within factor 3
        for a, b in zip(errs, errs[1:]):
            assert 100.0 / 3.0 <= a / b <= 100.0 * 3.0
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"criterion 4: worst relative error {worst:.2e} at t=1e-5, {elapsed:.1f}s")


def test_criterion_05_self_adjointness(gallery):
    rng = np.random.default_rng(77)
    lines = []
    for name, bg in gallery.items():
        a = 2.0 * bg.m_field
        w = bg.rho_pow_2beta * bg.mesh.areas
        worst = 0.0
        for _ in range(10):
            f = random_pinned(bg, rng)
            g = random_pinned(bg, rng)
            defect = self_adjointness_defect(bg, f, g)
            Lg = bg.rho_pow_neg2beta * (a * g + bg.mesh.laplace(g))
            Lf = bg.rho_pow_neg2beta * (a * f + bg.mesh.laplace(f))
            scale = abs(np.sum(f * Lg * w)) + abs(np.sum(Lf * g * w))
            assert defect <= 1e-10 * scale
            worst = max(worst, defect / scale)
        lines.append(f"{name} {worst:.1e}")
    print("criterion 5: defect/scale " + ", ".join(lines))


def test_criterion_06_solver(flagship_bg_g5):
    bg = flagship_bg_g5
    t0 = time.perf_counter()
    zero = np.zeros(bg.n_vertices)

    u, rep = newton_solve(bg, bg.k_beta, zero)
    assert rep.newton_iterations_total <= 2
    assert np.max(np.abs(u)) <= 1e-12

    worst = 0.0
    for north, south in ((1.0, 0.0), (0.0, 1.0), (0.7, 0.4)):
        v = pinned_test_factor(bg, north=north, south=south)
        u, rep = newton_solve(bg, curvature_map(bg, v), zero)
        assert rep.converged
        worst = max(worst, float(np.max(np.abs(u - v))))
    assert worst <= 1e-8

    K = 1.0 + 0.3 * bg.mesh.vertices[:, 0]
    cfg = SolverConfig(newton_tol=1e-8)
    u, rep = continuation_solve(bg, K, cfg)
    assert rep.converged
    assert rep.final_residual_sup <= 1e-8
    assert rep.gauss_bonnet_residual <= 0.01
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    print(f"criterion 6: manufactured {worst:.2e}, continuation residual "
          f"{rep.final_residual_sup:.2e}, certificate {rep.gauss_bonnet_residual:.2e}, "
          f"{elapsed:.1f}s at {bg.n_vertices} nodes")


def test_criterion_07_spectral_bound(round_bg5, football2_graded, football3_graded):
    fb2, w2 = football2_graded
    fb3, w3 = football3_graded
    lam_round = spectrum(round_bg5, 2).eigenvalues[1]
    lam_fb2 = spectrum(fb2, 2, np.exp(2.0 * w2)).eigenvalues[1]
    lam_fb3 = spectrum(fb3, 2, np.exp(2.0 * w3)).eigenvalues[1]
    assert abs(lam_round - 2.0) / 2.0 <= 0.02
    assert abs(lam_fb2 - 2.0) / 2.0 <= 0.02
    for lam in (lam_round, lam_fb2, lam_fb3):
        assert lam >= 1.95
    print(f"criterion 7: lambda_1 round {lam_round:.4f}, football k=2 {lam_fb2:.4f}, "
          f"k=3 {lam_fb3:.4f}")


def test_criterion_08_kernel_gap(flagship_bg_g5, flagship_bg_g6, round_bg5, round_bg6):
    g5 = kernel_gap(flagship_bg_g5, np.zeros(flagship_bg_g5.n_vertices))
    g6 = kernel_gap(flagship_bg_g6, np.zeros(flagship_bg_g6.n_vertices))
    assert g6 / g5 >= 0.8

    r5 = kernel_gap(round_bg5, np.zeros(round_bg5.n_vertices))
    r6 = kernel_gap(round_bg6, np.zeros(round_bg6.n_vertices))
    assert r6 / r5 <= 0.5
    print(f"criterion 8: pinned gap ratio {g6 / g5:.3f}, round control {r6 / r5:.3f}")


def test_criterion_09_conformal_group(equilateral_div):
    t0 = time.perf_counter()
    assert len(enumerate_conformal_symmetries(flagship_divisor())) == 1

    maps = enumerate_conformal_symmetries(equilateral_div)
    assert len(maps) == 6
    pos = equilateral_div.positions
    images = {tuple(np.round(m.apply(pos).ravel(), 8)) for m in maps}
    assert len(images) == 6
    for a in maps:
        for b in maps:
            assert tuple(np.round(a.compose(b).apply(pos).ravel(), 8)) in images

    # base-triple independence: relabeling the points changes nothing
    from conesphere.divisor import divisor

    shuffled = divisor(pos[[1, 2, 0]], [-0.3] * 3)
    other = enumerate_conformal_symmetries(shuffled)
    assert {tuple(np.round(m.apply(pos).ravel(), 8)) for m in other} == images
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"criterion 9: orders 1 and 6, closure verified, {elapsed:.2f}s")


def smoothstep(t):
    t = np.clip(t, 0.0, 1.0)
    return t * t * t * (t * (6.0 * t - 15.0) + 10.0)


def test_criterion_10_equivariance(equilateral_div):
    div = equilateral_div
    maps = enumerate_conformal_symmetries(div)
    rng = np.random.default_rng(7)
    coefs = [rng.standard_normal(9) * 0.15 for _ in range(3)]
    cones = div.positions

    def make_u(c):
        def u(x):
            x = np.atleast_2d(x)
            s = np.ones(len(x))
            for p in cones:
                d = np.arccos(np.clip(x @ p, -1.0, 1.0))
                s = s * smoothstep((d - 0.35) / 0.35)
            X, Y, Z = x[:, 0], x[:, 1], x[:, 2]
            poly = (c[0] * X + c[1] * Y + c[2] * Z + c[3] * X * Y + c[4] * Y * Z
                    + c[5] * X * Z + c[6] * (X * X - Y * Y) + c[7] * (3 * Z * Z - 1)
                    + c[8] * X * Y * Z)
            return s * poly
        return u

    ratios = {}
    for level in (4, 5):
        mesh = build_mesh(level, div, grading=3)
        bg = build_background(div, mesh)
        tree = cKDTree(mesh.vertices)
        h = float(np.mean(mesh.edge_lengths()))
        worst = 0.0
        for c in coefs:
            ufun = make_u(c)
            u = ufun(mesh.vertices)
            u[mesh.cone_vertices] = 0.0
            piu = curvature_map(bg, u)
            for phi in maps:
                img = phi.apply(mesh.vertices)
                idx = tree.query(img)[1]
                # transported factor: u after the map plus the log distortion
                ucomp = ufun(img) + np.log(conformal_distortion(phi, mesh.vertices))
                ucomp[mesh.cone_vertices] = 0.0
                defect = curvature_map(bg, ucomp) - piu[idx]
                worst = max(worst, float(np.max(np.abs(defect))))
        ratios[level] = worst / h
    c_ratio = ratios[5] / ratios[4]
    assert 0.5 <= c_ratio <= 2.0
    print(f"criterion 10: calibrated C {ratios[4]:.1f} -> {ratios[5]:.1f}, "
          f"ratio {c_ratio:.2f}")


def test_criterion_11_conservation(gallery):
    rng = np.random.default_rng(31)
    lines = []
    for name, bg in gallery.items():
        worst = 0.0
        for _ in range(10):
            f = random_pinned(bg, rng)
            total = mean_laplacian_zero(bg, f)
            bound = 1e-10 * np.max(np.abs(f)) * bg.n_vertices
            assert abs(total) <= bound
            worst = max(worst, abs(total) / bound)
        lines.append(f"{name} {worst:.1e}")
    print("criterion 11: total/bound " + ", ".join(lines))
