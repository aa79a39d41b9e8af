"""Linearized curvature operator, damped Newton, and homotopy continuation.

The solved equation is the curvature equation multiplied through by the
conical weight:

    F(u) = e^{-2u} (m - Lap u) - G = 0

with m = 1 - beta * Lap log rho = chi / 2 and the data term G = rho^{2 beta} K.
All assembled coefficients are bounded (m is a positive constant, the weight
sits on the data term), which keeps rows near the cones well scaled.  A
root of F is a root of the curvature map equation pi(u) = K wherever the
weight is nonzero, i.e. at every non-cone node.

Cone vertices are solved, not pinned.  At a cone vertex the pointwise
product rho^{2 beta} K is 0 * inf; its finite limit is estimated from the
1-ring and the same row form is enforced there.  That row is the discrete
flux balance over the apex cell.  It matters: with the apex value pinned
to zero and the apex row dropped, the discrete solution picks up a log-
distance mode at each cone (an effective cone-angle shift) whose amplitude
decays only like 1/log h, and the Gauss-Bonnet residual of the computed
metric is off by several percent no matter the mesh.  Enforcing the apex
flux balance kills that mode.  For targets of background type (the
identity and manufactured targets, whose data term is exact on the 1-ring)
the computed apex values then vanish, recovering the pinned normalization.
For other targets they need not: for K = 1 + 0.3x on the flagship divisor,
max |u| over the cone vertices is 1.128 at base 4 and 1.132 at base 5 /
grading 5 (newton_tol 1e-8).

Newton's residual is max_i |A_i F_i| / mean(A), A the node areas: Lap u = W u / A
gives the pointwise sup|F| a rounding floor 4x higher per grading level.  The
Newton solve weights its rows alike, diag(a) F'(u) d = -a F with a = A / mean(A),
so that they do not span the many decades of a graded mesh's node areas.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .background import ConicalBackground, curvature_map, gauss_bonnet, three_cone_factor
from .divisor import geodesic_distance, solver_scope_check
from .errors import (
    ContinuationStall,
    DomainError,
    NewtonDivergence,
    NonPositiveTarget,
    ScopeError,
    SingularLinearization,
)

# line-search halvings of the Newton step before the iteration is given up
_LINE_SEARCH_HALVINGS = 8
# the residual cut a full step must reach for its LU to serve the next step
_CHORD_RATE = 0.1
# Jacobian factorizations one Newton solve may make
_MAX_FACTORIZATIONS = 25
# continuation step halvings before the path is given up
_CONTINUATION_HALVINGS = 10
# refinement steps of one Newton correction, at most
_REFINEMENT_STEPS = 5
# a fresh LU's correction is refined to 10 * _LINEAR_TOL * sup|F| and is singular
# unless sup|J d + F| <= 1e3 * _LINEAR_TOL * max(1, sup|F|), J and F the row-scaled system
_LINEAR_TOL = 1e-12


@dataclass(frozen=True)
class SolverConfig:
    newton_tol: float = 1e-10

    def __post_init__(self):
        if not 0 < self.newton_tol < 1:  # a NaN fails too
            raise DomainError(f"newton_tol must lie in (0, 1), got {self.newton_tol}")


@dataclass
class SolverReport:
    """What a solve did.  final_residual_sup is the area-weighted residual Newton
    stopped on, final_residual_pointwise max|F| there; newton_iterations_total
    counts LU factorizations of the Jacobian, chord_steps steps with a kept LU;
    linear_residual is the largest sup|J d + F| / max(1, sup|F|) over the corrections
    d made with a fresh LU (those the singular test judges), J and F with rows
    scaled by the node areas (module docstring); refinement_steps counts the
    triangular solves beyond each correction's first;
    base_point names the known metric continuation_solve started from,
    "background" or "constant_curvature" (empty for a bare Newton solve)."""

    converged: bool
    final_residual_sup: float
    final_residual_pointwise: float
    newton_iterations_total: int
    chord_steps: int = 0
    linear_residual: float = 0.0
    refinement_steps: int = 0
    continuation_path: list = field(default_factory=list)  # (t, iterations, residual)
    gauss_bonnet_residual: float = float("nan")
    warnings: list = field(default_factory=list)
    base_point: str = ""


def _derivative(bg: ConicalBackground, d, s):
    """diag(d) + diag(s / A) W on all nodes, with A the node areas and W the
    stiffness.  The one assembly of the derivative: Newton's Jacobian and the
    linearized curvature map differ only in the fields d and s."""
    return sp.diags(d) + sp.diags(s / bg.mesh.areas) @ bg.mesh.stiffness


def linearize(bg: ConicalBackground, u: np.ndarray) -> sp.csr_matrix:
    """Differential of the curvature map at a pinned u, as a sparse matrix on
    the non-cone nodes in ascending order (the rows of bg.free):
    h -> -2 h K_g - e^{-2u} rho^{-2 beta} Lap h."""
    u = bg._check_pinned(u)
    d = -2.0 * curvature_map(bg, u)
    return _derivative(bg, d, np.exp(-2.0 * u) * bg.rho_pow_neg2beta)[bg.free][:, bg.free]


def self_adjointness_defect(bg: ConicalBackground, f, g) -> float:
    """|<f, L g>_w - <L f, g>_w| for the base-point operator L (at u = 0) on
    pinned f, g in the rho^{2 beta}-weighted inner product."""
    f = bg._check_pinned(f, "f")[bg.free]
    g = bg._check_pinned(g, "g")[bg.free]
    # linearize gives -L, whose defect is the same as that of L
    neg_L = linearize(bg, np.zeros(bg.n_vertices))
    w = (bg.rho_pow_2beta * bg.mesh.areas)[bg.free]
    return abs(float(np.sum(f * (neg_L @ g) * w)) - float(np.sum((neg_L @ f) * g * w)))


def _residual(bg: ConicalBackground, u, G):
    lap_u = bg.mesh.laplace(u)
    F = np.exp(-2.0 * u) * (bg.m - lap_u) - G
    return F, lap_u


def _jacobian(bg: ConicalBackground, u, lap_u):
    """diag(a) F'(u), a = A / mean(A): Newton's rows scaled by node area."""
    a = bg.mesh.areas / np.mean(bg.mesh.areas)
    e = np.exp(-2.0 * u)
    return _derivative(bg, -2.0 * a * e * (bg.m - lap_u), a * e).tocsc()


def _check_target(bg: ConicalBackground, K_target) -> np.ndarray:
    """K_target as one float per node, positive and finite (so not NaN) at
    every non-cone node; the data term at a cone node comes from its 1-ring."""
    K = bg.mesh._check(K_target, "K_target")
    K_free = K[bg.free]
    bad = ~((K_free > 0.0) & (K_free < np.inf))
    if np.any(bad):
        raise NonPositiveTarget(
            f"target curvature is not positive and finite at {int(np.sum(bad))} non-cone "
            f"nodes (range {float(np.min(K_free)):.6g} to {float(np.max(K_free)):.6g})"
        )
    return K


@dataclass(frozen=True)
class _OrderedLU:
    """SuperLU factors of A[order][:, order] in A's precision; `solve` solves with
    A itself in that precision and returns float64."""

    lu: spla.SuperLU
    order: np.ndarray
    dtype: np.dtype

    def solve(self, b, trans="N"):
        y = self.lu.solve(b[self.order].astype(self.dtype, copy=False), trans)
        x = np.empty(y.shape)
        x[self.order] = y
        return x


def _factor(A: sp.csc_matrix, order: np.ndarray) -> _OrderedLU:
    """SuperLU factorization of A with rows and columns taken in the fill-
    reducing `order` (SphereMesh.ordering, or its restriction to the rows of
    A); SuperLU adds no column permutation of its own and pivots rows as
    usual.  SingularLinearization if SuperLU fails.  splu is looked up on
    scipy's module, so a wrapper installed there sees it."""
    try:
        return _OrderedLU(spla.splu(A[order][:, order], permc_spec="NATURAL"), order, A.dtype)
    except RuntimeError as exc:
        raise SingularLinearization(f"sparse factorization failed: {exc}") from exc


def _refined_solve(lu: _OrderedLU, J, F, rel_tol=10 * _LINEAR_TOL):
    """(d, sup|J d + F|, steps): the Newton correction d with J d = -F, its linear
    residual, and the triangular solves made after the first.  d is solved with
    the LU in its own precision (float32 for Newton's row-scaled J), then
    refined, d -= LU^-1 (J d + F) with J and F in float64, until sup|J d + F| is
    at most rel_tol * sup|F|, stops falling, or after _REFINEMENT_STEPS; a step
    that raised it is taken back.  A fresh LU's correction (the default) goes to
    the float64 floor.  A chord correction's direction is already off Newton's
    by the Jacobian's drift; at _CHORD_RATE**2 its linear residual costs at most
    a tenth of the cut the chord test asks for."""
    d = lu.solve(-F)
    tol, last = rel_tol * float(np.max(np.abs(F))), np.inf
    for steps in range(_REFINEMENT_STEPS + 1):
        r = J @ d + F
        sup = np.max(np.abs(r))
        if not tol < sup < last or steps == _REFINEMENT_STEPS:  # a NaN stops too
            return (d, sup, steps) if sup < last or not steps else (kept, last, steps)
        last, kept = sup, d
        d = d - lu.solve(r)


def newton_solve(bg: ConicalBackground, K_target, u0, cfg: SolverConfig = SolverConfig()):
    """Damped Newton for the weighted curvature equation; returns (u, report).

    Residuals and the Jacobian's rows are area-weighted (module docstring); the
    Jacobian is factored in float32 and each correction d refined in float64.
    Every step tries u + step * d against a goal.  A fresh LU's d is refined to
    10 * _LINEAR_TOL (SingularLinearization if it misses 1e3 * _LINEAR_TOL) and
    must cut the residual, halved up to _LINE_SEARCH_HALVINGS times (else
    NewtonDivergence).  A full step that cut the residual by _CHORD_RATE keeps
    its LU: the next, chord, d is refined to _CHORD_RATE**2 and has one full
    trial, which must cut the residual by _CHORD_RATE, else u stays and J is
    factored afresh.  Newton stops once the residual is at most cfg.newton_tol,
    after at most _MAX_FACTORIZATIONS factorizations."""
    K = _check_target(bg, K_target)
    u = bg.mesh._check(u0, "u0").copy()
    # the data term G = rho^{2 beta} K; at a cone vertex, where it is 0 * inf with a
    # finite limit, the 1-ring mean.  For targets of background type (K = rho^{-2 beta}
    # * smooth) G is that smooth factor; rho^{2 beta} k_beta = chi / 2 at every node,
    # so the cone value is exact for the identity target on any mesh, and for the
    # manufactured target wherever its factor vanishes on the ring
    G = bg.mesh._fill_cones(bg.rho_pow_2beta * K)

    a = bg.mesh.areas / np.mean(bg.mesh.areas)
    F, lap_u = _residual(bg, u, G)
    res = float(np.max(np.abs(a * F)))
    iters = chords = refinements = 0
    lin_worst = 0.0
    lu = None  # the kept factorization of J, if any
    while not res <= cfg.newton_tol:  # a NaN residual never converges
        fresh = lu is None
        if fresh:
            if iters >= _MAX_FACTORIZATIONS:
                raise NewtonDivergence(
                    f"no convergence in {_MAX_FACTORIZATIONS} iterations (residual {res:.3e})"
                )
            J = _jacobian(bg, u, lap_u)
            lu = _factor(J.astype(np.float32), bg.mesh.ordering())
        rel_tol = 10 * _LINEAR_TOL if fresh else _CHORD_RATE**2
        d, lin_sup, steps = _refined_solve(lu, J, a * F, rel_tol)
        refinements += steps
        if fresh:
            lin_res = float(lin_sup) / max(1.0, res)
            if not lin_res <= 1e3 * _LINEAR_TOL:  # a NaN or inf in d fails too
                raise SingularLinearization(
                    f"inner linear solve residual {lin_res:.3e} (relative) exceeds tolerance"
                )
            lin_worst = max(lin_worst, lin_res)
        goal, trials = (res, _LINE_SEARCH_HALVINGS + 1) if fresh else (_CHORD_RATE * res, 1)
        step = 1.0
        for _ in range(trials):
            trial = u + step * d
            F_t, lap_t = _residual(bg, trial, G)
            res_t = float(np.max(np.abs(a * F_t)))
            if res_t < goal:  # a NaN fails
                break
            step *= 0.5
        else:
            if fresh:
                raise NewtonDivergence(f"line search stalled at residual {res:.3e}")
            lu = None  # u stays; freed before the next factorization runs
            continue
        if not (step == 1.0 and res_t < _CHORD_RATE * res):
            lu = None
        u, F, lap_u, res = trial, F_t, lap_t, res_t
        iters, chords = (iters + 1, chords) if fresh else (iters, chords + 1)
    report = SolverReport(
        converged=True,
        final_residual_sup=res,
        final_residual_pointwise=float(np.max(np.abs(F))),
        newton_iterations_total=iters,
        chord_steps=chords,
        linear_residual=lin_worst,
        refinement_steps=refinements,
        gauss_bonnet_residual=gauss_bonnet(bg, u).residual,
    )
    return u, report


def continuation_solve(bg: ConicalBackground, K_target, cfg: SolverConfig = SolverConfig()):
    """March from a known root (u, K) to K_target along the log-linear
    curvature path, warm-starting Newton (to cfg.newton_tol) at each step.

    Two roots are known: the background (0, k_beta) and, for three cones, the
    constant-curvature metric (u_1 - c/2, e^c), u_1 = three_cone_factor(bg) and
    c the mean of log K_target off the cones.  The path starts at the root
    nearer in max |log K_target - log K| off the cones, at the background if
    u_1 is not finite; the report's base_point names it.

    Step rule: the first step is the whole path, t = 0 to 1.  A step whose
    Newton solve fails (NewtonDivergence or SingularLinearization) is halved
    and retried, and the halved step is kept for the rest of the path.
    ContinuationStall is raised once the step would fall below
    2**-_CONTINUATION_HALVINGS.  Every accepted t is then a multiple of that
    floor, so a step of at least the floor always moves t."""
    K = _check_target(bg, K_target)
    scope = solver_scope_check(bg.divisor)
    if not scope.passed:
        raise ScopeError(f"divisor outside solver scope: {asdict(scope)}")
    free = bg.free

    u, base_point = np.zeros(bg.n_vertices), "background"
    log_k0 = np.log(bg.k_beta[free])
    log_k1 = np.log(K[free])
    c = float(np.mean(log_k1))
    if len(bg.divisor) == 3 and np.max(np.abs(log_k1 - c)) < np.max(np.abs(log_k1 - log_k0)):
        u1 = three_cone_factor(bg)
        if np.all(np.isfinite(u1)):
            u, base_point, log_k0 = u1 - 0.5 * c, "constant_curvature", np.full_like(log_k1, c)

    def K_at(t):
        Kt = np.zeros(bg.n_vertices)
        Kt[free] = np.exp((1.0 - t) * log_k0 + t * log_k1)
        return Kt

    t = 0.0
    dt = 1.0
    steps, warnings = [], []  # steps: (t, report) of each accepted step
    while t < 1.0:
        t_next = min(1.0, t + dt)
        try:
            u_next, rep = newton_solve(bg, K_at(t_next), u, cfg)
        except (NewtonDivergence, SingularLinearization) as exc:
            dt *= 0.5
            if dt < 0.5**_CONTINUATION_HALVINGS:
                raise ContinuationStall(
                    f"continuation step underflow at t = {t:.4f}: {exc}"
                ) from exc
            warnings.append(f"step halved at t = {t:.4f}: {type(exc).__name__}")
            continue
        u, t = u_next, t_next
        steps.append((t, rep))
    # the loop ends on an accepted step, whose report already certifies u
    return u, replace(
        rep, warnings=warnings, base_point=base_point,
        newton_iterations_total=sum(r.newton_iterations_total for _, r in steps),
        chord_steps=sum(r.chord_steps for _, r in steps),
        refinement_steps=sum(r.refinement_steps for _, r in steps),
        linear_residual=max(r.linear_residual for _, r in steps),
        continuation_path=[(t, r.newton_iterations_total, r.final_residual_sup) for t, r in steps],
    )


def _smoothstep(t):
    t = np.clip(t, 0.0, 1.0)
    return t * t * t * (t * (6.0 * t - 15.0) + 10.0)


def pinned_test_factor(bg: ConicalBackground, north: float = 1.0, south: float = 0.0):
    """A smooth pinned grid function supported in two polar caps, scaled so
    that the manufactured curvature pi(v) stays positive.

    Useful as a manufactured-solution factor.  Each cap's radius is a quarter
    of the smallest cone-to-pole distance (pi/8 for equatorial cones), so v
    vanishes (with two derivatives) well away from every cone.  pi(v) > 0
    reduces to m - Lap v > 0, which the scaling enforces with a 50% margin.
    """
    if not (np.isfinite(north) and np.isfinite(south)):
        raise DomainError(f"pinned test factor scales must be finite, got {north}, {south}")
    mesh = bg.mesh
    poles = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
    # pi/2 without cones
    to_pole = geodesic_distance(bg.divisor.positions[:, None], poles)
    cap = 0.25 * float(np.min(to_pole, initial=2.0 * np.pi))
    if cap <= 0.1:
        raise DomainError("no cone-free polar cap available for a pinned test factor")

    def bump(pole):
        return _smoothstep((cap - geodesic_distance(mesh.vertices, pole)) / cap)

    v = north * bump(poles[0]) + south * bump(poles[1])
    lap = mesh.laplace(v)
    limit = 0.5 * bg.m
    peak = float(np.max(np.abs(lap)))
    if peak > 0.0:
        v *= min(1.0, limit / peak)
    v[mesh.cone_vertices] = 0.0
    return v
