"""Newton and continuation solvers plus the linearized operator."""

import math
import weakref

import numpy as np
import pytest
import scipy.sparse.linalg

from conesphere import diagnostics, solver
from conesphere.background import build_background, curvature_map, gauss_bonnet, three_cone_factor
from conesphere.diagnostics import kernel_gap, spectrum
from conesphere.divisor import divisor, flagship_divisor
from conesphere.errors import (
    ConesphereError,
    ContinuationStall,
    DomainError,
    NewtonDivergence,
    NonPositiveTarget,
    NormalizationError,
    ScopeError,
    SingularLinearization,
    SpectralError,
)
from conesphere.mesh import build_mesh
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
    # a NaN tolerance used to pass every comparison and report convergence
    for value in (0.0, 2.0, math.nan, math.inf, -math.inf, 10**400):
        with pytest.raises(DomainError):
            SolverConfig(newton_tol=value)


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


def _data_term(bg, K):
    """Newton's G = rho^{2 beta} K, the 1-ring mean at the cone vertices."""
    return bg.mesh._fill_cones(bg.rho_pow_2beta * K)


def _count_solves(monkeypatch):
    """Wrap solver._OrderedLU.solve; the returned list gets a weak reference
    to the LU of each solve."""
    solved, solve = [], solver._OrderedLU.solve

    def counting(lu, b, trans="N"):
        solved.append(weakref.ref(lu))
        return solve(lu, b, trans)

    monkeypatch.setattr(solver._OrderedLU, "solve", counting)
    return solved


def _count_factorizations(monkeypatch):
    """Wrap solver._factor; the returned list holds a weak reference to each
    LU made, and every call first checks that no earlier LU is alive."""
    made = []
    factor = solver._factor

    def counting(A, order):
        assert all(ref() is None for ref in made), "an earlier LU is alive"
        lu = factor(A, order)
        made.append(weakref.ref(lu))
        return lu

    monkeypatch.setattr(solver, "_factor", counting)
    return made


def test_converging_steps_reuse_the_lu(flagship_bg_small, monkeypatch):
    bg = flagship_bg_small
    v = pinned_test_factor(bg, north=1.0, south=0.4)
    K = curvature_map(bg, v)
    made = _count_factorizations(monkeypatch)
    u, rep = newton_solve(bg, K, np.zeros(bg.n_vertices))
    assert len(made) == rep.newton_iterations_total == 1
    assert rep.chord_steps >= 1
    assert np.max(np.abs(u - v)) <= 1e-10
    # the same solve refactoring at every step
    monkeypatch.setattr(solver, "_CHORD_RATE", 0.0)
    u_fresh, rep_fresh = newton_solve(bg, K, np.zeros(bg.n_vertices))
    assert rep_fresh.chord_steps == 0 and len(made) == 1 + rep_fresh.newton_iterations_total
    assert np.max(np.abs(u - u_fresh)) <= 1e-10


def test_damped_step_does_not_keep_the_lu(flagship_bg_small, monkeypatch):
    # the first step is made a damped one that still cuts the residual
    # tenfold: its Jacobian is halved, so its correction is twice Newton's,
    # and its full trial is rejected, so the halved trial is Newton's step
    bg = flagship_bg_small
    v = pinned_test_factor(bg, north=1.0, south=0.4)
    K = curvature_map(bg, v)
    made = _count_factorizations(monkeypatch)
    sups, solves = [], []
    residual, jacobian, refined = solver._residual, solver._jacobian, solver._refined_solve

    def spy_residual(bg, u, G):
        F, lap_u = residual(bg, u, G)
        if len(sups) == 1:  # the full trial of the first step
            F = np.full_like(F, np.inf)
        sups.append(float(np.max(np.abs(F))))
        return F, lap_u

    def spy_jacobian(bg, u, lap_u):
        J = jacobian(bg, u, lap_u)
        return 0.5 * J if not made else J

    def spy_solve(lu, J, F, *rest):
        solves.append(len(made))
        return refined(lu, J, F, *rest)

    monkeypatch.setattr(solver, "_residual", spy_residual)
    monkeypatch.setattr(solver, "_jacobian", spy_jacobian)
    monkeypatch.setattr(solver, "_refined_solve", spy_solve)
    u, rep = newton_solve(bg, K, np.zeros(bg.n_vertices))
    assert np.max(np.abs(u - v)) <= 1e-10
    assert sups[1] == np.inf and sups[2] < solver._CHORD_RATE * sups[0]
    # the step after the damped one factors afresh instead of a chord step
    assert solves[:2] == [1, 2]


def test_linear_target_factorizations(flagship_bg_small, monkeypatch):
    # test_continuation_on_linear_target's case: 4 factorizations with chord
    # steps, 6 when it refactors at every step; no two LUs are ever alive
    bg = flagship_bg_small
    K = 1.0 + 0.2 * bg.mesh.vertices[:, 0]
    made = _count_factorizations(monkeypatch)
    u, rep = continuation_solve(bg, K, SolverConfig(newton_tol=1e-9))
    assert rep.final_residual_sup <= 1e-9
    assert len(made) == rep.newton_iterations_total <= 6
    assert rep.chord_steps >= 1
    monkeypatch.setattr(solver, "_CHORD_RATE", 0.0)
    u_fresh, _ = continuation_solve(bg, K, SolverConfig(newton_tol=1e-9))
    assert np.max(np.abs(u - u_fresh)) <= 1e-10


def test_linear_residual_is_reported(flagship_bg_small, monkeypatch):
    # every fresh correction reaches the singular threshold 1e3 * _LINEAR_TOL;
    # the path's report has the largest linear residual and the summed refinements
    bg = flagship_bg_small
    K = 1.0 + 0.2 * bg.mesh.vertices[:, 0]
    steps = []
    newton = solver.newton_solve

    def spy(*args):
        u, rep = newton(*args)
        steps.append(rep)
        return u, rep

    monkeypatch.setattr(solver, "newton_solve", spy)
    # from the constant-curvature start two factorizations do the whole path:
    # one per Newton solve forces halvings, so the path has several steps
    monkeypatch.setattr(solver, "_MAX_FACTORIZATIONS", 1)
    _, rep = continuation_solve(bg, K, SolverConfig(newton_tol=1e-9))
    assert len(steps) > 1
    assert 0.0 < rep.linear_residual <= 1e3 * solver._LINEAR_TOL == 1e-9
    assert rep.linear_residual == max(s.linear_residual for s in steps)
    assert rep.refinement_steps == sum(s.refinement_steps for s in steps) > 0


@pytest.mark.parametrize("name", ["flagship_bg_small", "flagship_bg_g4"])
def test_float32_factor_refines_to_the_float64_solve(name, request):
    # on Newton's row-scaled system the two agree to 1.4e-14 at base 4 /
    # grading 3 and to 4e-14 at base 5 / grading 4
    bg = request.getfixturevalue(name)
    u = pinned_test_factor(bg, north=0.5, south=0.2)
    F, lap_u = _residual(bg, u, _data_term(bg, 1.0 + 0.2 * bg.mesh.vertices[:, 0]))
    F *= bg.mesh.areas / np.mean(bg.mesh.areas)
    J = _jacobian(bg, u, lap_u)
    lu32 = solver._factor(J.astype(np.float32), bg.mesh.ordering())
    assert lu32.lu.solve(np.zeros(J.shape[0], np.float32)).dtype == np.float32
    d, _, _ = solver._refined_solve(lu32, J, F)
    ref = solver._factor(J, bg.mesh.ordering()).solve(-F)
    assert d.dtype == np.float64
    assert np.max(np.abs(d - ref)) <= 1e-12 * np.max(np.abs(ref))
    # one float32 solve alone is far from it
    raw = lu32.solve(-F)
    assert np.max(np.abs(raw - ref)) > 1e-9 * np.max(np.abs(ref))


@pytest.mark.parametrize("steps", [None, 1])
def test_diverging_refinement_returns_the_better_iterate(flagship_bg_small, monkeypatch, steps):
    # J has an eigenvalue near -1, so an LU of J + I makes refinement diverge:
    # the first refinement step raises sup|J d + F| from 16 to 633 (relative);
    # the first solve's d is returned, after the same two solves, also when
    # that step is the last one allowed
    if steps is not None:
        monkeypatch.setattr(solver, "_REFINEMENT_STEPS", steps)
    bg = flagship_bg_small
    u = pinned_test_factor(bg, north=0.5, south=0.2)
    F, lap_u = _residual(bg, u, _data_term(bg, 1.0 + 0.2 * bg.mesh.vertices[:, 0]))
    F *= bg.mesh.areas / np.mean(bg.mesh.areas)
    J = _jacobian(bg, u, lap_u)
    shifted = (J + scipy.sparse.identity(J.shape[0])).tocsc().astype(np.float32)
    lu = solver._factor(shifted, bg.mesh.ordering())
    first = np.max(np.abs(J @ lu.solve(-F) + F))
    solved = _count_solves(monkeypatch)
    d, _, steps = solver._refined_solve(lu, J, F)
    assert len(solved) == 2 and steps == 1
    assert np.max(np.abs(J @ d + F)) <= first


@pytest.mark.parametrize("shift", [0.0, 1.0])
def test_refined_solve_returns_the_residual_of_its_correction(flagship_bg_small, shift):
    # Newton's singular test reads this value in place of its own J d + F: it
    # is that of the d returned, also when a diverging refinement step
    # (the LU of J + I) is taken back
    bg = flagship_bg_small
    u = pinned_test_factor(bg, north=0.5, south=0.2)
    F, lap_u = _residual(bg, u, _data_term(bg, 1.0 + 0.2 * bg.mesh.vertices[:, 0]))
    F *= bg.mesh.areas / np.mean(bg.mesh.areas)
    J = _jacobian(bg, u, lap_u)
    shifted = (J + shift * scipy.sparse.identity(J.shape[0])).tocsc().astype(np.float32)
    d, sup, _ = solver._refined_solve(solver._factor(shifted, bg.mesh.ordering()), J, F)
    assert sup == np.max(np.abs(J @ d + F))


def _perturbed_factor(monkeypatch, count=None):
    """Wrap solver._factor to factor A + c I, c ten times the largest |A_ii|, in
    its first `count` calls (every call if None): refinement with such a factor
    cannot reach the float64 floor.  Returns the list of the dtypes factored."""
    factor, made = solver._factor, []

    def perturbed(A, order):
        made.append(A.dtype)
        if count is None or len(made) <= count:
            c = 10.0 * np.max(np.abs(A.diagonal()))
            A = (A + c * scipy.sparse.identity(A.shape[0], dtype=A.dtype)).tocsc()
        return factor(A, order)

    monkeypatch.setattr(solver, "_factor", perturbed)
    return made


def test_unconverged_refinement_is_singular(flagship_bg_small, monkeypatch):
    # the first (float32) factor fails, and no other is made
    bg = flagship_bg_small
    K = 1.0 + 0.2 * bg.mesh.vertices[:, 0]
    made = _perturbed_factor(monkeypatch)
    with pytest.raises(SingularLinearization, match="exceeds tolerance"):
        newton_solve(bg, K, np.zeros(bg.n_vertices))
    assert made == [np.float32]


def test_unconverged_refinement_halves_the_continuation_step(flagship_bg_small, monkeypatch):
    # the first step's factor is perturbed: the step is halved and retried,
    # instead of an unconverged u being returned or the failed correction's
    # step being taken
    bg = flagship_bg_small
    K = 1.0 + 0.2 * bg.mesh.vertices[:, 0]
    _perturbed_factor(monkeypatch, count=1)
    u, rep = continuation_solve(bg, K, SolverConfig(newton_tol=1e-9))
    assert rep.warnings == ["step halved at t = 0.0000: SingularLinearization"]
    assert [step[0] for step in rep.continuation_path] == [0.5, 1.0]
    assert rep.converged and rep.final_residual_sup <= 1e-9
    assert rep.linear_residual <= 1e-9
    u_ref, _ = continuation_solve(bg, K, SolverConfig(newton_tol=1e-9))
    assert np.max(np.abs(u - u_ref)) <= 1e-8


def test_counts_are_summed_over_the_path(flagship_bg_small, monkeypatch):
    bg = flagship_bg_small
    K = 1.0 + 0.2 * bg.mesh.vertices[:, 0]
    steps = []
    newton = solver.newton_solve

    def spy(*args):
        u, rep = newton(*args)
        steps.append(rep)  # a failed step raises and is not recorded
        return u, rep

    monkeypatch.setattr(solver, "newton_solve", spy)
    monkeypatch.setattr(solver, "_MAX_FACTORIZATIONS", 1)  # forces halvings
    _, rep = continuation_solve(bg, K, SolverConfig(newton_tol=1e-9))
    assert len(steps) == len(rep.continuation_path) > 1
    assert rep.newton_iterations_total == sum(s.newton_iterations_total for s in steps)
    assert rep.chord_steps == sum(s.chord_steps for s in steps) > steps[-1].chord_steps


def test_failed_chord_step_refactors_at_same_u(flagship_bg_small, monkeypatch):
    bg = flagship_bg_small
    v = pinned_test_factor(bg, north=1.0, south=0.4)
    K = curvature_map(bg, v)
    made = _count_factorizations(monkeypatch)
    residual_at, jacobian_at, solves = [], [], []
    residual, jacobian, refined = solver._residual, solver._jacobian, solver._refined_solve

    def spy_residual(bg, u, G):
        residual_at.append(u)
        return residual(bg, u, G)

    def spy_jacobian(bg, u, lap_u):
        jacobian_at.append(u)
        return jacobian(bg, u, lap_u)

    def spy_solve(lu, J, F, *rest):
        solves.append((len(made), len(residual_at)))
        d, sup, steps = refined(lu, J, F, *rest)
        # halve the first chord step: it then cuts the residual only twofold
        return (0.5 * d if len(solves) == 2 else d), sup, steps

    monkeypatch.setattr(solver, "_residual", spy_residual)
    monkeypatch.setattr(solver, "_jacobian", spy_jacobian)
    monkeypatch.setattr(solver, "_refined_solve", spy_solve)
    u, rep = newton_solve(bg, K, np.zeros(bg.n_vertices))
    assert np.max(np.abs(u - v)) <= 1e-10
    # a fresh step, the halved chord step with its LU, then a fresh LU
    assert [s[0] for s in solves[:3]] == [1, 1, 2]
    # ... at the u the chord step started from: its trial was not accepted
    start = residual_at[solves[1][1] - 1]
    assert np.array_equal(jacobian_at[1], start)
    assert not np.array_equal(residual_at[solves[1][1]], start)


def test_line_search_gives_up_after_its_halvings(flagship_bg_small, monkeypatch):
    # every trial of the first fresh correction fails: its full step and each
    # halving of it are tried once, from u = 0, and then Newton gives up
    bg = flagship_bg_small
    residual_at, residual = [], solver._residual

    def spy_residual(bg, u, G):
        F, lap_u = residual(bg, u, G)
        residual_at.append(u)
        return (F if len(residual_at) == 1 else np.full_like(F, np.inf)), lap_u

    monkeypatch.setattr(solver, "_residual", spy_residual)
    with pytest.raises(NewtonDivergence, match="line search stalled"):
        newton_solve(bg, 1.0 + 0.2 * bg.mesh.vertices[:, 0], np.zeros(bg.n_vertices))
    trials = residual_at[1:]
    assert len(trials) == solver._LINE_SEARCH_HALVINGS + 1
    assert all(np.array_equal(t, 0.5**k * trials[0]) for k, t in enumerate(trials))


def test_chord_correction_has_one_full_trial(flagship_bg_small, monkeypatch):
    # each chord correction d makes one _residual call, at u + d, u the trial
    # its kept LU last accepted; the first chord trial is made to fail, and it
    # is not halved either: the Jacobian is factored afresh at the same u
    bg = flagship_bg_small
    v = pinned_test_factor(bg, north=1.0, south=0.4)
    events = []  # (kind, u or d) of each _residual, _jacobian and correction
    residual, jacobian, refined = solver._residual, solver._jacobian, solver._refined_solve

    def spy_residual(bg, u, G):
        F, lap_u = residual(bg, u, G)
        if events and events[-1][0] == "chord" and sum(e[0] == "chord" for e in events) == 1:
            F = np.full_like(F, np.inf)
        events.append(("residual", u))
        return F, lap_u

    def spy_jacobian(bg, u, lap_u):
        events.append(("jacobian", u))
        return jacobian(bg, u, lap_u)

    def spy_solve(lu, J, F, rel_tol):
        d, sup, steps = refined(lu, J, F, rel_tol)
        events.append(("chord" if rel_tol == solver._CHORD_RATE**2 else "fresh", d))
        return d, sup, steps

    monkeypatch.setattr(solver, "_residual", spy_residual)
    monkeypatch.setattr(solver, "_jacobian", spy_jacobian)
    monkeypatch.setattr(solver, "_refined_solve", spy_solve)
    u, rep = newton_solve(bg, curvature_map(bg, v), np.zeros(bg.n_vertices))
    assert np.max(np.abs(u - v)) <= 1e-10
    chords = [i for i, e in enumerate(events) if e[0] == "chord"]
    assert len(chords) == rep.chord_steps + 1 and rep.chord_steps >= 1
    for i in chords:
        (before, start), (_, d), (after, trial) = events[i - 1:i + 2]
        assert before == after == "residual" and np.array_equal(trial, start + d)
        assert i + 2 == len(events) or events[i + 2][0] != "residual"
    first = chords[0]
    assert events[first + 2][0] == "jacobian"
    assert np.array_equal(events[first + 2][1], events[first - 1][1])


def _record_corrections(monkeypatch):
    """Wrap solver._refined_solve; the returned list gets, per correction,
    whether its LU was fresh (had not solved before), the triangular solves
    it made, counted by _count_solves, and its sup|J d + F| / sup|F|."""
    log, refined, solved = [], solver._refined_solve, _count_solves(monkeypatch)

    def spy(lu, J, F, *rest):
        fresh, before = not any(ref() is lu for ref in solved), len(solved)
        d, sup, steps = refined(lu, J, F, *rest)
        assert steps == len(solved) - before - 1  # the solves after the first
        log.append((fresh, len(solved) - before, np.max(np.abs(J @ d + F)) / np.max(np.abs(F))))
        return d, sup, steps

    monkeypatch.setattr(solver, "_refined_solve", spy)
    return log


def test_chord_corrections_take_one_solve(flagship_bg_small, monkeypatch):
    # a chord correction is refined only to _CHORD_RATE**2, which its first
    # float32 solve reaches; a fresh one still to 10 * _LINEAR_TOL
    bg = flagship_bg_small
    v = pinned_test_factor(bg, north=1.0, south=0.4)
    log = _record_corrections(monkeypatch)
    u, rep = newton_solve(bg, curvature_map(bg, v), np.zeros(bg.n_vertices))
    assert np.max(np.abs(u - v)) <= 1e-10
    fresh = [c for c in log if c[0]]
    chord = [c for c in log if not c[0]]
    assert len(fresh) == rep.newton_iterations_total and len(chord) >= rep.chord_steps >= 1
    assert all(solves == 1 for _, solves, _ in chord)
    assert all(rel <= 10 * solver._LINEAR_TOL for _, _, rel in fresh)
    assert rep.refinement_steps == sum(solves - 1 for _, solves, _ in log)


def test_chord_correction_is_refined_when_one_solve_misses(flagship_bg_small, monkeypatch):
    # Every factor is of 1.02 A: a solve then leaves 0.02 / 1.02 of the
    # residual on every mode, so one solve misses _CHORD_RATE**2 and each
    # refinement cuts it fiftyfold.  (A + c I errs by mode, and the row-scaled
    # Jacobian has an eigenvalue near -1.)
    bg = flagship_bg_small
    v = pinned_test_factor(bg, north=1.0, south=0.4)
    factor = solver._factor
    monkeypatch.setattr(solver, "_factor", lambda A, order: factor((1.02 * A).tocsc(), order))
    log = _record_corrections(monkeypatch)
    u, rep = newton_solve(bg, curvature_map(bg, v), np.zeros(bg.n_vertices))
    assert np.max(np.abs(u - v)) <= 1e-10
    chord = [c for c in log if not c[0]]
    assert rep.chord_steps >= 1
    assert all(solves == 2 and rel <= solver._CHORD_RATE**2 for _, solves, rel in chord)


def test_pinned_test_factor_properties(flagship_bg_small):
    bg = flagship_bg_small
    v = pinned_test_factor(bg)
    assert np.all(v[bg.cone_vertices] == 0.0)
    # caps of a quarter of the cone-to-pole distance, pi/8 for equatorial cones
    polar = np.arcsin(np.abs(bg.mesh.vertices[:, 2]))
    assert np.all(v[polar <= np.pi / 2 - np.pi / 8] == 0.0) and np.any(v != 0.0)
    free = np.ones(bg.n_vertices, bool)
    free[bg.cone_vertices] = False
    assert np.all(curvature_map(bg, v)[free] > 0.0)


@pytest.mark.parametrize("scales", [{"north": math.nan}, {"south": math.inf}], ids=["nan", "inf"])
def test_pinned_test_factor_rejects_nonfinite_scales(flagship_bg_small, scales):
    with pytest.raises(DomainError):
        pinned_test_factor(flagship_bg_small, **scales)


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
    K[bg.free[0]] = np.nan
    with pytest.raises(NonPositiveTarget, match="1 non-cone nodes"):
        continuation_solve(bg, K)


def test_singular_factorization(flagship_bg_small, monkeypatch):
    def singular(A, **options):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(scipy.sparse.linalg, "splu", singular)
    bg = flagship_bg_small
    assert kernel_gap(bg, np.zeros(bg.n_vertices)) == 0.0
    with pytest.raises(SpectralError, match="exactly singular"):
        spectrum(bg, 3)
    K = 1.0 + 0.2 * bg.mesh.vertices[:, 0]
    with pytest.raises(SingularLinearization, match="exactly singular"):
        newton_solve(bg, K, np.zeros(bg.n_vertices))


def test_ordered_factorization_matches_plain_lu(flagship_bg_small):
    bg = flagship_bg_small
    u = pinned_test_factor(bg, north=0.5, south=0.2)
    F, lap_u = _residual(bg, u, _data_term(bg, 1.0 + 0.2 * bg.mesh.vertices[:, 0]))
    J = _jacobian(bg, u, lap_u)
    lu = solver._factor(J, bg.mesh.ordering())
    plain = scipy.sparse.linalg.splu(J)
    for trans in ("N", "T"):
        x, ref = lu.solve(F, trans), plain.solve(F, trans)
        assert np.max(np.abs(x - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_ordered_factorization_fills_less_than_colamd(round_bg5):
    bg = round_bg5
    J = _jacobian(bg, np.zeros(bg.n_vertices), np.zeros(bg.n_vertices))
    assert solver._factor(J, bg.mesh.ordering()).lu.nnz < scipy.sparse.linalg.splu(J).nnz


def test_ordered_factorization_fills_less_than_colamd_when_graded(flagship_bg_small):
    # graded meshes cluster nodes at the cones, where a median split cuts
    # through the clusters (fill 1.04x COLAMD's here); the ratio cut does not
    bg = flagship_bg_small
    J = _jacobian(bg, np.zeros(bg.n_vertices), np.zeros(bg.n_vertices))
    ordered = solver._factor(J, bg.mesh.ordering()).lu.nnz
    assert ordered <= 0.85 * scipy.sparse.linalg.splu(J).nnz


def test_kernel_gap_free_order_is_a_permutation(flagship_bg_small):
    bg = flagship_bg_small
    order = diagnostics._free_order(bg)
    assert np.array_equal(np.sort(order), np.arange(len(bg.free)))


def test_diagnostics_match_colamd_factorization(flagship_bg_small, monkeypatch):
    bg = flagship_bg_small
    u = np.zeros(bg.n_vertices)
    gap, vals = kernel_gap(bg, u), spectrum(bg, 4).eigenvalues
    # the factorization before the node order: SuperLU's own COLAMD order
    monkeypatch.setattr(diagnostics, "_factor", lambda A, order: scipy.sparse.linalg.splu(A))
    assert kernel_gap(bg, u) == pytest.approx(gap, rel=1e-9)
    ref = spectrum(bg, 4).eigenvalues
    np.testing.assert_allclose(vals, ref, rtol=1e-9, atol=1e-9 * np.max(np.abs(ref)))


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
    ach = curvature_map(bg, u)
    free = np.ones(bg.n_vertices, bool)
    free[bg.cone_vertices] = False
    assert np.max(np.abs(ach[free] - K[free])) < 1e-7


def test_linear_target_needs_no_damped_plateau(flagship_bg_small):
    # the case above once spent 23 of its 25 factorizations on a plateau of
    # damped steps at the pointwise residual's rounding floor
    bg = flagship_bg_small
    K = 1.0 + 0.2 * bg.mesh.vertices[:, 0]
    _, rep = continuation_solve(bg, K, SolverConfig(newton_tol=1e-9))
    assert rep.newton_iterations_total <= 6


def test_report_residuals_match_their_definitions(flagship_bg_small):
    bg = flagship_bg_small
    K = 1.0 + 0.2 * bg.mesh.vertices[:, 0]
    u, rep = newton_solve(bg, K, np.zeros(bg.n_vertices), SolverConfig(newton_tol=1e-9))
    F, _ = _residual(bg, u, _data_term(bg, K))
    A = bg.mesh.areas
    assert rep.final_residual_sup == float(np.max(np.abs(A / np.mean(A) * F)))
    assert rep.final_residual_pointwise == float(np.max(np.abs(F)))
    assert rep.final_residual_sup <= 1e-9


def test_constant_target_converges_at_grading_6(flagship_bg_g6):
    # the pointwise residual's rounding floor on this mesh is about 3e-8, so
    # a pointwise stopping test at 1e-8 ended in ContinuationStall
    bg = flagship_bg_g6
    _, rep = continuation_solve(bg, np.ones(bg.n_vertices), SolverConfig(newton_tol=1e-8))
    assert rep.converged
    assert rep.gauss_bonnet_residual < 5e-4


def test_constant_target_converges_at_grading_7(flagship_bg_g7):
    # the path once took 122 factorizations and 32 s of continuation halvings
    bg = flagship_bg_g7
    _, rep = continuation_solve(bg, np.ones(bg.n_vertices), SolverConfig(newton_tol=1e-8))
    assert rep.converged
    assert rep.newton_iterations_total <= 6
    assert rep.gauss_bonnet_residual < 5e-4


def test_constant_target_converges_at_grading_9(flagship_bg_g9):
    # on the unscaled Newton rows, refinement with a float32 factor contracted
    # only about 100-fold per step here and stopped short of the singular
    # threshold; the row-scaled system reaches it in float32
    bg = flagship_bg_g9
    _, rep = continuation_solve(bg, np.ones(bg.n_vertices), SolverConfig(newton_tol=1e-8))
    assert rep.converged and not rep.warnings
    assert rep.newton_iterations_total <= 6
    assert rep.linear_residual <= 1e-9
    assert rep.gauss_bonnet_residual < 5e-4


def test_constant_target_converges_at_grading_12(flagship_bg_g12):
    bg = flagship_bg_g12
    _, rep = continuation_solve(bg, np.ones(bg.n_vertices), SolverConfig(newton_tol=1e-8))
    assert rep.converged and not rep.warnings
    assert rep.newton_iterations_total <= 6
    assert rep.gauss_bonnet_residual < 5e-4


def test_background_start_converges_at_grading_12(flagship_bg_g12):
    # the unscaled Jacobian's diagonal reaches 1.8e11 here, so its rounding
    # floor eps |J| |d| lay above the relative threshold and the corrections
    # needed a componentwise backward-error test; the row-scaled ones pass the
    # relative test.  This target keeps the background start.
    bg = flagship_bg_g12
    K = bg.k_beta * (1.0 + 0.2 * bg.mesh.vertices[:, 0])
    _, rep = continuation_solve(bg, K, SolverConfig(newton_tol=1e-8))
    assert rep.base_point == "background"
    assert rep.converged and not rep.warnings
    assert rep.newton_iterations_total <= 6
    assert rep.linear_residual <= 1e-9
    assert rep.gauss_bonnet_residual < 5e-4


def test_deep_grading_converges_without_halving():
    # from the background start this took 8 factorizations and one step
    # halving, and grading 24 ended in ContinuationStall
    div = flagship_divisor()
    bg = build_background(div, build_mesh(5, div, grading=22))
    _, rep = continuation_solve(bg, np.ones(bg.n_vertices), SolverConfig(newton_tol=1e-8))
    assert rep.base_point == "constant_curvature"
    assert rep.converged and not rep.warnings
    assert rep.newton_iterations_total <= 3


def test_four_cone_background_start_at_grading_9(monkeypatch):
    # four cones: no exact start.  The unscaled rows took 5 factorizations
    # here, 2 in float32 and then 3 in float64
    div = divisor([[0, 0, -1], [0, 0, 1], [1, 0, 0], [-1, 0, 0]], [-0.2, -0.4, -0.3, -0.3])
    bg = build_background(div, build_mesh(5, div, grading=9))
    made = _perturbed_factor(monkeypatch, count=0)  # records the dtypes, perturbs none
    _, rep = continuation_solve(bg, np.ones(bg.n_vertices), SolverConfig(newton_tol=1e-8))
    assert rep.base_point == "background"
    assert rep.converged and not rep.warnings
    assert rep.newton_iterations_total == len(made) <= 4
    assert made == [np.float32] * len(made)


def test_apex_values_of_a_linear_target(flagship_div, flagship_bg_g5):
    # the module docstring's figures: max |u| over the cone vertices
    cfg = SolverConfig(newton_tol=1e-8)
    for bg, expected in ((build_background(flagship_div, build_mesh(4, flagship_div)), 1.128),
                         (flagship_bg_g5, 1.132)):
        u, _ = continuation_solve(bg, 1.0 + 0.3 * bg.mesh.vertices[:, 0], cfg)
        assert np.max(np.abs(u[bg.cone_vertices])) == pytest.approx(expected, abs=5e-4)


def test_non_finite_constant_curvature_start_falls_back(flagship_bg_small, monkeypatch):
    # started from a NaN in u_1, every Newton solve of the path fails and the
    # path ends in ContinuationStall
    bg = flagship_bg_small
    K = 1.0 + 0.2 * bg.mesh.vertices[:, 0]
    u_ref, rep_ref = continuation_solve(bg, K, SolverConfig(newton_tol=1e-9))
    assert rep_ref.base_point == "constant_curvature"

    def with_nan(bg):
        u1 = three_cone_factor(bg)
        u1[bg.n_vertices // 2] = np.nan
        return u1

    monkeypatch.setattr(solver, "three_cone_factor", with_nan)
    u, rep = continuation_solve(bg, K, SolverConfig(newton_tol=1e-9))
    assert rep.base_point == "background"
    assert rep.converged and rep.final_residual_sup <= 1e-9
    assert np.max(np.abs(u - u_ref)) <= 1e-8


def test_background_type_target_keeps_the_background_start(flagship_bg_small, monkeypatch):
    # the manufactured target equals k_beta near the cones: the background is
    # the nearer start, and u_1 is never computed
    bg = flagship_bg_small
    monkeypatch.setattr(solver, "three_cone_factor", None)
    K = curvature_map(bg, pinned_test_factor(bg, north=1.0, south=0.4))
    _, rep = continuation_solve(bg, K)
    assert rep.base_point == "background"


def test_continuation_step_control(flagship_bg_small, monkeypatch):
    # one factorization is too few for the full step: it is halved, and the
    # halved step is kept for the rest of the path
    bg = flagship_bg_small
    K = 1.0 + 0.2 * bg.mesh.vertices[:, 0]
    targets = []
    newton = solver.newton_solve

    def spy(bg, K_t, u0, cfg):
        targets.append(K_t)
        return newton(bg, K_t, u0, cfg)

    monkeypatch.setattr(solver, "newton_solve", spy)
    monkeypatch.setattr(solver, "_MAX_FACTORIZATIONS", 1)
    _, rep = continuation_solve(bg, K, SolverConfig(newton_tol=1e-9))
    assert rep.final_residual_sup <= 1e-9
    assert rep.warnings
    assert all(w.startswith("step halved") for w in rep.warnings)
    assert len(targets) == len(rep.continuation_path) + len(rep.warnings)
    t = np.array([0.0] + [step[0] for step in rep.continuation_path])
    assert np.all(np.diff(t) > 0.0) and t[-1] == 1.0
    # each halving shortens every later step, so the last step shows them all
    assert np.diff(t)[-1] == 0.5 ** len(rep.warnings)
    # ... it takes steps of 1/8, so with steps no shorter than 1/4 the path stalls
    monkeypatch.setattr(solver, "_CONTINUATION_HALVINGS", len(rep.warnings) - 1)
    with pytest.raises(ContinuationStall):
        continuation_solve(bg, K, SolverConfig(newton_tol=1e-9))


def test_continuation_reports_certificate_of_its_solution(flagship_bg_small, monkeypatch):
    # the report of the last Newton step is reused, so after halvings its
    # certificate must still be that of the returned u
    bg = flagship_bg_small
    K = 1.0 + 0.2 * bg.mesh.vertices[:, 0]
    monkeypatch.setattr(solver, "_MAX_FACTORIZATIONS", 1)  # forces halvings
    u, rep = continuation_solve(bg, K, SolverConfig(newton_tol=1e-9))
    assert rep.warnings
    assert rep.gauss_bonnet_residual == gauss_bonnet(bg, u).residual


def test_linearize_matches_finite_differences(flagship_bg_small):
    bg = flagship_bg_small
    rng = np.random.default_rng(12)
    u = random_pinned(bg, rng, 0.2)
    h = random_pinned(bg, rng, 0.2)
    free = np.ones(bg.n_vertices, bool)
    free[bg.cone_vertices] = False
    exact = np.zeros(bg.n_vertices)
    exact[free] = linearize(bg, u) @ h[free]
    t = 1e-4
    fd = (curvature_map(bg, u + t * h) - curvature_map(bg, u - t * h)) / (2.0 * t)
    rel = np.max(np.abs((fd - exact)[free])) / np.max(np.abs(exact[free]))
    assert rel < 1e-6


def test_newton_jacobian_matches_finite_differences(flagship_bg_small):
    # Newton's u is not pinned, so every row is checked, the cone rows too;
    # the Jacobian's rows are scaled by a = A / mean(A)
    bg = flagship_bg_small
    rng = np.random.default_rng(15)
    u = rng.standard_normal(bg.n_vertices) * 0.2
    h = rng.standard_normal(bg.n_vertices) * 0.2
    G = np.zeros(bg.n_vertices)  # the data term does not depend on u
    exact = _jacobian(bg, u, bg.mesh.laplace(u)) @ h
    t = 1e-4
    a = bg.mesh.areas / np.mean(bg.mesh.areas)
    fd = a * (_residual(bg, u + t * h, G)[0] - _residual(bg, u - t * h, G)[0]) / (2.0 * t)
    err = np.abs(fd - exact)
    assert np.max(err) / np.max(np.abs(exact)) < 1e-6
    cones = bg.cone_vertices
    assert np.max(err[cones]) / np.max(np.abs(exact[cones])) < 1e-6


@pytest.mark.parametrize("which", ["f", "g"])
def test_self_adjointness_rejects_unpinned(flagship_bg_small, which):
    bg = flagship_bg_small
    rng = np.random.default_rng(16)
    args = {"f": random_pinned(bg, rng), "g": random_pinned(bg, rng)}
    args[which][bg.cone_vertices[0]] = 1.0
    with pytest.raises(NormalizationError):
        self_adjointness_defect(bg, args["f"], args["g"])


@pytest.mark.parametrize("operator", [linearize, kernel_gap])
def test_pinned_space_operators_reject_unpinned(flagship_bg_small, operator):
    bg = flagship_bg_small
    u = random_pinned(bg, np.random.default_rng(17))
    u[bg.cone_vertices[0]] = 1e-300  # the check is exact
    with pytest.raises(NormalizationError):
        operator(bg, u)


def test_gauss_bonnet_certificate_after_solve(flagship_bg_small):
    bg = flagship_bg_small
    v = pinned_test_factor(bg, north=0.8, south=0.8)
    K = curvature_map(bg, v)
    u, _ = newton_solve(bg, K, np.zeros(bg.n_vertices))
    rep = gauss_bonnet(bg, u)
    assert rep.residual < 0.01
