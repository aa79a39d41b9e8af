"""Newton and continuation solvers plus the linearized operator."""

import dataclasses
import math
import sys

import numpy as np
import pytest
import scipy.sparse.linalg

from conesphere import solver
from conesphere.background import curvature_map, gauss_bonnet
from conesphere.diagnostics import kernel_gap, spectrum
from conesphere.errors import (
    ConesphereError,
    ContinuationStall,
    DomainError,
    NonPositiveTarget,
    ScopeError,
    SingularLinearization,
    SpectralError,
)
from conesphere.solver import (
    SolverConfig,
    _jacobian,
    _residual,
    continuation_solve,
    linearize,
    newton_solve,
    pinned_test_factor,
    self_adjointness_defect,
)

from conftest import random_pinned


def test_solver_config_validation():
    with pytest.raises(DomainError):
        SolverConfig(newton_tol=0.0)
    with pytest.raises(DomainError):
        SolverConfig(newton_tol=2.0)
    with pytest.raises(DomainError):
        SolverConfig(max_newton_iters=0)
    # a NaN tolerance used to pass every comparison and report convergence
    for f in dataclasses.fields(SolverConfig):
        for value in (math.nan, math.inf, -math.inf, 10**400):
            with pytest.raises(DomainError):
                SolverConfig(**{f.name: value})
    # every field may be as large as the largest float, and no larger
    SolverConfig(linear_tol=sys.float_info.max, max_step_halvings=int(sys.float_info.max))
    for name in ("linear_tol", "max_step_halvings"):
        with pytest.raises(DomainError):
            SolverConfig(**{name: 10**309})


def test_identity_solution(flagship_bg_small):
    bg = flagship_bg_small
    u, rep = newton_solve(bg, bg.k_beta, np.zeros(bg.n_vertices))
    assert rep.converged
    assert rep.newton_iterations_total <= 2
    assert np.max(np.abs(u)) <= 1e-12


def test_manufactured_solution(flagship_bg_small):
    bg = flagship_bg_small
    v = pinned_test_factor(bg, north=1.0, south=0.4)
    K = curvature_map(bg, v)
    u, rep = newton_solve(bg, K, np.zeros(bg.n_vertices))
    assert rep.converged
    assert np.max(np.abs(u - v)) <= 1e-10
    # background-type target: the solved apex values vanish
    assert np.max(np.abs(u[bg.cone_vertices])) <= 1e-8


def test_pinned_test_factor_properties(flagship_bg_small):
    bg = flagship_bg_small
    v = pinned_test_factor(bg)
    assert np.all(v[bg.cone_vertices] == 0.0)
    free = np.ones(bg.n_vertices, bool)
    free[bg.cone_vertices] = False
    assert np.all(curvature_map(bg, v)[free] > 0.0)


def test_nonpositive_target_rejected(flagship_bg_small):
    bg = flagship_bg_small
    K = np.full(bg.n_vertices, -1.0)
    with pytest.raises(NonPositiveTarget):
        newton_solve(bg, K, np.zeros(bg.n_vertices))
    with pytest.raises(NonPositiveTarget):
        continuation_solve(bg, K)


def test_nan_never_passes(flagship_bg_small):
    # NaN fails every comparison: a NaN residual used to count as converged
    bg = flagship_bg_small
    u0 = np.zeros(bg.n_vertices)
    u0[bg.n_vertices // 2] = np.nan
    with pytest.raises(ConesphereError):
        newton_solve(bg, bg.k_beta, u0)
    K = np.ones(bg.n_vertices)
    K[solver._free_nodes(bg)[0]] = np.nan
    with pytest.raises(NonPositiveTarget, match="1 non-cone nodes"):
        continuation_solve(bg, K)


def test_singular_factorization(flagship_bg_small, monkeypatch):
    def singular(A):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(scipy.sparse.linalg, "splu", singular)
    bg = flagship_bg_small
    assert kernel_gap(bg, np.zeros(bg.n_vertices)) == 0.0
    with pytest.raises(SpectralError, match="exactly singular"):
        spectrum(bg, 3)
    K = 1.0 + 0.2 * bg.mesh.vertices[:, 0]
    with pytest.raises(SingularLinearization, match="exactly singular"):
        newton_solve(bg, K, np.zeros(bg.n_vertices))


def test_continuation_out_of_scope(gallery):
    bg = gallery["equilateral"]  # equal exponents fail the distinct-triple check
    with pytest.raises(ScopeError):
        continuation_solve(bg, np.ones(bg.n_vertices))


def test_continuation_on_linear_target(flagship_bg_small):
    bg = flagship_bg_small
    K = 1.0 + 0.2 * bg.mesh.vertices[:, 0]
    cfg = SolverConfig(newton_tol=1e-9)
    u, rep = continuation_solve(bg, K, cfg)
    assert rep.converged
    assert rep.final_residual_sup <= 1e-9
    assert rep.gauss_bonnet_residual < 0.01
    assert len(rep.continuation_path) >= 1
    # achieved curvature matches the target away from the cones
    ach = curvature_map(bg, u, cone_tol=np.inf)
    free = np.ones(bg.n_vertices, bool)
    free[bg.cone_vertices] = False
    assert np.max(np.abs(ach[free] - K[free])) < 1e-7


def test_continuation_step_control(flagship_bg_small, monkeypatch):
    # three Newton iterations are too few for the full step: it is halved,
    # and the halved step is kept for the rest of the path
    bg = flagship_bg_small
    K = 1.0 + 0.2 * bg.mesh.vertices[:, 0]
    targets = []
    newton = solver.newton_solve

    def spy(bg, K_t, u0, cfg):
        targets.append(K_t)
        return newton(bg, K_t, u0, cfg)

    monkeypatch.setattr(solver, "newton_solve", spy)
    _, rep = continuation_solve(bg, K, SolverConfig(newton_tol=1e-9, max_newton_iters=3))
    assert rep.final_residual_sup <= 1e-9
    assert rep.warnings
    assert all(w.startswith("step halved") for w in rep.warnings)
    assert len(targets) == len(rep.continuation_path) + len(rep.warnings)
    t = np.array([0.0] + [step[0] for step in rep.continuation_path])
    assert np.all(np.diff(t) > 0.0) and t[-1] == 1.0
    # each halving shortens every later step, so the last step shows them all
    assert np.diff(t)[-1] == 0.5 ** len(rep.warnings)
    # one iteration is too few for every step down to 1/8
    cfg = SolverConfig(newton_tol=1e-9, max_newton_iters=1, max_step_halvings=3)
    with pytest.raises(ContinuationStall):
        continuation_solve(bg, K, cfg)


def test_linearize_matches_finite_differences(flagship_bg_small):
    bg = flagship_bg_small
    rng = np.random.default_rng(12)
    u = random_pinned(bg, rng, 0.2)
    h = random_pinned(bg, rng, 0.2)
    op = linearize(bg, u)
    exact = op.apply(h)
    free = np.ones(bg.n_vertices, bool)
    free[bg.cone_vertices] = False
    t = 1e-4
    fd = (curvature_map(bg, u + t * h) - curvature_map(bg, u - t * h)) / (2.0 * t)
    rel = np.max(np.abs((fd - exact)[free])) / np.max(np.abs(exact[free]))
    assert rel < 1e-6


def test_newton_jacobian_matches_finite_differences(flagship_bg_small):
    # Newton's u is not pinned, so every row is checked, the cone rows too
    bg = flagship_bg_small
    rng = np.random.default_rng(15)
    u = rng.standard_normal(bg.n_vertices) * 0.2
    h = rng.standard_normal(bg.n_vertices) * 0.2
    G = np.zeros(bg.n_vertices)  # the data term does not depend on u
    exact = _jacobian(bg, u, bg.mesh.laplace(u)) @ h
    t = 1e-4
    fd = (_residual(bg, u + t * h, G)[0] - _residual(bg, u - t * h, G)[0]) / (2.0 * t)
    err = np.abs(fd - exact)
    assert np.max(err) / np.max(np.abs(exact)) < 1e-6
    cones = bg.cone_vertices
    assert np.max(err[cones]) / np.max(np.abs(exact[cones])) < 1e-6


def test_linearized_matrix_consistent_with_apply(flagship_bg_small):
    bg = flagship_bg_small
    rng = np.random.default_rng(13)
    u = random_pinned(bg, rng, 0.1)
    h = random_pinned(bg, rng)
    op = linearize(bg, u)
    full = op.apply(h)
    assert np.allclose(op.matrix @ h[op.free], full[op.free], atol=1e-12)


def test_self_adjointness_scope(flagship_bg_small):
    bg = flagship_bg_small
    rng = np.random.default_rng(14)
    f = random_pinned(bg, rng)
    with pytest.raises(ScopeError):
        self_adjointness_defect(bg, f, f, f)


def test_gauss_bonnet_certificate_after_solve(flagship_bg_small):
    bg = flagship_bg_small
    v = pinned_test_factor(bg, north=0.8, south=0.8)
    K = curvature_map(bg, v)
    u, _ = newton_solve(bg, K, np.zeros(bg.n_vertices))
    rep = gauss_bonnet(bg, u, cone_tol=np.inf)
    assert rep.residual < 0.01
