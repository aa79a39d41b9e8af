"""Spectral diagnostics and the explicit constant-curvature example gallery.

Covers the generalized eigenproblem of the conical Laplacian (lowest
eigenvalues and the lambda >= 2 bound), the smallest singular value of the
linearized curvature operator (regular-value detection), and two
closed-form geometries: the football (sphere quotient with two equal cones)
and the double of a spherical triangle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .background import ConicalBackground
from .divisor import ConePoint, Divisor, geodesic_distance
from .errors import DomainError, ShapeError, SingularLinearization, SpectralError
from .mesh import SphereMesh
from .solver import _factor, linearize

_EIG_SEED = 20260826


@dataclass(frozen=True)
class SpectralResult:
    eigenvalues: np.ndarray
    eigenfunctions: np.ndarray  # columns, orthonormal in the mass inner product


def spectrum(bg: ConicalBackground, count: int,
             density: np.ndarray | None = None) -> SpectralResult:
    """Smallest `count` eigenvalues of -Lap h = lambda * density * h, the Laplace
    spectrum of the metric density * g_round: rho^{2 beta} (the default) for the
    background, np.exp(2 * w) for e^{2w} g_round (a w of -inf, as exact_football's
    at the poles, carries zero mass, the cone-vertex quadrature convention).

    Stiffness against the mass areas * density, solved by shift-invert Lanczos
    with a fixed-seed start vector.  DomainError unless count is an integer (not a
    bool) from 1 to the node count less 2; ShapeError unless density has one
    float per node, DomainError if an entry is negative, infinite or NaN.
    """
    if isinstance(count, bool) or not isinstance(count, (int, np.integer)) or count < 1:
        raise DomainError(f"eigenvalue count must be an integer of at least 1, got {count!r}")
    n = bg.n_vertices
    if count >= n - 1:
        raise DomainError("eigenvalue count must be well below the node count")
    density = bg.rho_pow_2beta if density is None else bg.mesh._check(density, "density")
    if not np.all((density >= 0.0) & (density < np.inf)):  # a NaN fails too
        raise DomainError("density must be finite and nonnegative at every node")
    mass = bg.mesh.areas * density
    v0 = np.random.default_rng(_EIG_SEED).standard_normal(n)
    M = sp.diags(mass)
    sigma = -0.1
    try:
        lu = _factor((bg.mesh.stiffness - sigma * M).tocsc(), bg.mesh.ordering())
        shift_invert = spla.LinearOperator((n, n), matvec=lu.solve, dtype=float)
        vals, vecs = spla.eigsh(
            bg.mesh.stiffness, k=count, M=M, sigma=sigma, v0=v0, OPinv=shift_invert
        )
    except (SingularLinearization, spla.ArpackNoConvergence, RuntimeError) as exc:
        raise SpectralError(f"eigensolver failed: {exc}") from exc
    order = np.argsort(vals)
    return SpectralResult(eigenvalues=vals[order], eigenfunctions=vecs[:, order])


def _free_order(bg: ConicalBackground) -> np.ndarray:
    """The mesh's node order restricted to the non-cone nodes, each renumbered
    by its position among them (the rows of the linearized matrix)."""
    rank = np.full(bg.n_vertices, -1)
    rank[bg.free] = np.arange(len(bg.free))
    order = rank[bg.mesh.ordering()]
    return order[order >= 0]


def kernel_gap(bg: ConicalBackground, u: np.ndarray) -> float:
    """Smallest singular value of the linearized curvature operator at u.

    Lanczos (ARPACK) for the largest eigenvalue 1/sigma^2 of the inverse
    normal operator A^-1 A^-T, applied through one sparse factorization of
    A; a gap bounded away from zero under refinement signals an invertible
    linearization (regular value), a collapsing gap signals a kernel.  On an
    empty divisor the pinned space is the full space, so the same call
    provides the round-sphere kernel control.
    """
    A = linearize(bg, u).tocsc()
    try:
        lu = _factor(A, _free_order(bg))
    except SingularLinearization:
        return 0.0  # an exactly singular factorization is an exactly zero gap
    n = A.shape[0]
    inverse_normal = spla.LinearOperator(
        (n, n), matvec=lambda x: lu.solve(lu.solve(x, trans="T")), dtype=float
    )
    v0 = np.random.default_rng(_EIG_SEED).standard_normal(n)
    try:
        # 8 Lanczos vectors, not ARPACK's default of 20: one eigenvalue is
        # wanted, and each operator application costs two triangular solves
        lam = spla.eigsh(inverse_normal, k=1, which="LM", v0=v0, ncv=8,
                         return_eigenvectors=False)[0]
    except spla.ArpackNoConvergence as exc:
        raise SpectralError(f"Lanczos did not converge: {exc}") from exc
    if not (np.isfinite(lam) and lam > 0.0):
        raise SpectralError(f"inverse normal operator has eigenvalue {lam}")
    return float(1.0 / math.sqrt(lam))


def football_divisor(k: int) -> Divisor:
    """Two antipodal cone points of angle 2 pi / k on the polar axis."""
    if not (math.isfinite(k) and k >= 2 and int(k) == k):
        raise DomainError("football order k must be an integer >= 2")
    beta = 1.0 / k - 1.0
    return Divisor(
        (
            ConePoint(position=np.array([0.0, 0.0, 1.0]), beta=beta),
            ConePoint(position=np.array([0.0, 0.0, -1.0]), beta=beta),
        )
    )


def exact_football(k: int, mesh: SphereMesh) -> np.ndarray:
    """Log conformal factor of the constant-curvature football against the
    round sphere: e^{2w} g_round has curvature 1 with cone angle 2 pi / k at
    each pole.

    The metric is the k-fold quotient of the round sphere, the pullback
    under z -> z^{1/k} in polar stereographic coordinates:

        e^{2w} = (1/k^2) |z|^{2(1/k - 1)} (1 + |z|^2)^2 / (1 + |z|^{2/k})^2

    and has total area 4 pi / k.  The factor diverges like d^{2 beta}
    (beta = 1/k - 1) at the poles; the two pole vertices are set to -inf so
    that e^{2w} carries the same zero quadrature convention as the conical
    weight fields.
    """
    if not (math.isfinite(k) and k >= 1 and int(k) == k):
        raise DomainError("football order k must be a positive integer")
    if k == 1:
        return np.zeros(mesh.n_vertices)
    poles = []
    for z in (1.0, -1.0):
        d = geodesic_distance(mesh.vertices, [0.0, 0.0, z])
        i = int(np.argmin(d))
        if d[i] > 1e-9:
            raise ShapeError("mesh lacks a vertex at a football pole; build it "
                             "from the matching two-point divisor")
        poles.append(i)
    h = np.clip(mesh.vertices[:, 2], -1.0, 1.0)
    regular = np.ones(mesh.n_vertices, dtype=bool)
    regular[poles] = False
    # log|z| in the north-pole chart: |z|^2 = (1+h)/(1-h)
    log_r = 0.5 * (np.log1p(h[regular]) - np.log1p(-h[regular]))
    w = np.full(mesh.n_vertices, -np.inf)
    w[regular] = (
        -math.log(k)
        + (1.0 / k - 1.0) * log_r
        + np.logaddexp(0.0, 2.0 * log_r)
        - np.logaddexp(0.0, 2.0 * log_r / k)
    )
    return w


def triangle_double_divisor(alpha: float, beta2: float, gamma3: float) -> Divisor:
    """Divisor of the double of a spherical triangle with the given angles.

    The doubled surface is a sphere with three cone points of angles
    (2 alpha, 2 beta2, 2 gamma3), i.e. exponents theta/pi - 1; the points
    sit at the triangle's vertices, placed with the first at the north pole
    and the second on the prime meridian.
    """
    angles = (float(alpha), float(beta2), float(gamma3))
    for theta in angles:
        if not 0.0 < theta < math.pi:
            raise DomainError(f"triangle angle {theta} outside (0, pi)")
    if sum(angles) <= math.pi:
        raise DomainError("spherical triangle needs angle sum above pi")
    a, b, c = angles

    def side(opp, adj1, adj2):
        val = (math.cos(opp) + math.cos(adj1) * math.cos(adj2)) / (
            math.sin(adj1) * math.sin(adj2)
        )
        if not -1.0 < val < 1.0:
            raise DomainError("triangle angles give a degenerate spherical side")
        return math.acos(val)

    side_ab = side(c, a, b)  # side opposite gamma3 joins vertices 1 and 2
    side_ac = side(b, a, c)
    p1 = np.array([0.0, 0.0, 1.0])
    p2 = np.array([math.sin(side_ab), 0.0, math.cos(side_ab)])
    p3 = np.array(
        [math.sin(side_ac) * math.cos(a), math.sin(side_ac) * math.sin(a), math.cos(side_ac)]
    )
    return Divisor(
        tuple(
            ConePoint(position=p, beta=theta / math.pi - 1.0)
            for p, theta in zip((p1, p2, p3), angles)
        )
    )
