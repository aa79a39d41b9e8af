"""Spectral diagnostics and the explicit constant-curvature example gallery.

Covers the generalized eigenproblem of the conical Laplacian (lowest
eigenvalues and the lambda >= 2 bound), the smallest singular value of the
linearized curvature operator (regular-value detection), a discrete Obata
residual for conformal Killing potentials, and two closed-form geometries:
the football (sphere quotient with two equal cones) and the double of a
spherical triangle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .background import ConicalBackground, curvature_map
from .divisor import ConePoint, Divisor
from .errors import DomainError, GeometryError, ShapeError, SingularLinearization, SpectralError
from .mesh import SphereMesh
from .moebius import stereographic_chart
from .solver import _factor, _free_nodes, linearize

_EIG_SEED = 20260826


@dataclass(frozen=True)
class SpectralResult:
    eigenvalues: np.ndarray
    eigenfunctions: np.ndarray  # columns, orthonormal in the mass inner product
    weighted: bool


def spectrum(bg: ConicalBackground, count: int, weighted: bool = True,
             log_factor: np.ndarray | None = None) -> SpectralResult:
    """Smallest `count` eigenvalues of -Lap h = lambda rho^{2 beta} h.

    Generalized symmetric pair (stiffness, weighted node-area mass) on the
    unpinned space, solved by shift-invert Lanczos with a fixed-seed start
    vector; the weighted problem is the conical eigenproblem
    -Lap_beta h = lambda h in the rho^{2 beta}-weighted inner product.

    log_factor adds e^{2 log_factor} to the mass weight, giving the
    eigenproblem of the metric e^{2 log_factor} applied on top of the
    selected background weight (used with the exact football factor, where
    weighted=False and log_factor=exact_football(...) yields the spectrum
    of the constant-curvature football itself; -inf entries carry zero
    mass, matching the cone-vertex quadrature convention).
    """
    if count < 1:
        raise DomainError("eigenvalue count must be at least 1")
    n = bg.n_vertices
    if count >= n - 1:
        raise DomainError("eigenvalue count must be well below the node count")
    mass = bg.mesh.areas * (bg.rho_pow_2beta if weighted else 1.0)
    if log_factor is not None:
        scale = np.zeros(n)
        finite = np.isfinite(log_factor)
        scale[finite] = np.exp(2.0 * np.asarray(log_factor)[finite])
        mass = mass * scale
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
    return SpectralResult(
        eigenvalues=vals[order], eigenfunctions=vecs[:, order], weighted=weighted
    )


def _free_order(bg: ConicalBackground) -> np.ndarray:
    """The mesh's node order restricted to the non-cone nodes, each renumbered
    by its position among them (the rows of the linearized matrix)."""
    free = _free_nodes(bg)
    rank = np.full(bg.n_vertices, -1)
    rank[free] = np.arange(len(free))
    order = rank[bg.mesh.ordering()]
    return order[order >= 0]


def kernel_gap(bg: ConicalBackground, u: np.ndarray, tol: float = 1e-10,
               max_iters: int = 500) -> float:
    """Smallest singular value of the linearized curvature operator at u.

    Inverse-power iteration on the normal operator A^T A through one sparse
    factorization of A; a gap bounded away from zero under refinement
    signals an invertible linearization (regular value), a collapsing gap
    signals a kernel.  On an empty divisor the pinned space is the full
    space, so the same call provides the round-sphere kernel control.
    """
    A = linearize(bg, u).tocsc()
    try:
        lu = _factor(A, _free_order(bg))
    except SingularLinearization:
        return 0.0  # an exactly singular factorization is an exactly zero gap
    rng = np.random.default_rng(_EIG_SEED)
    x = rng.standard_normal(A.shape[0])
    x /= np.linalg.norm(x)
    sigma_prev = np.inf
    for _ in range(max_iters):
        y = lu.solve(lu.solve(x, trans="T"))
        norm = np.linalg.norm(y)
        if not np.isfinite(norm) or norm == 0.0:
            raise SpectralError("inverse-power iteration broke down")
        sigma = 1.0 / math.sqrt(norm)
        x = y / norm
        if abs(sigma - sigma_prev) <= tol * max(sigma, 1e-300):
            return float(sigma)
        sigma_prev = sigma
    raise SpectralError(f"inverse-power iteration did not settle in {max_iters} steps")


def conformal_killing_residual(bg: ConicalBackground, h: np.ndarray) -> float:
    """Area-averaged trace-free Hessian residual of h, normalized by sup|h|.

    Each vertex gets a quadratic least-squares fit of h over its 2-ring in
    tangent-plane coordinates; the trace-free part of the fitted Hessian
    vanishes exactly when Hess(h) = -h g, the equality case of the spectral
    bound (the gradient of h is then a conformal Killing field).  Returns
    0 for h identically zero.
    """
    h = bg._check_pinned(h, "h")
    sup = float(np.max(np.abs(h)))
    if sup == 0.0:
        return 0.0
    mesh = bg.mesh
    verts = mesh.vertices
    tracefree_sq = np.zeros(mesh.n_vertices)
    for v in range(mesh.n_vertices):
        ring = sorted(mesh.ring(v, 2))
        if len(ring) < 7:
            raise GeometryError(f"2-ring of vertex {v} too small for a quadratic fit")
        frame = stereographic_chart(verts[v])
        rel = verts[ring] - verts[v]
        xi = rel @ frame.e1
        eta = rel @ frame.e2
        basis = np.column_stack(
            [np.ones_like(xi), xi, eta, 0.5 * xi**2, xi * eta, 0.5 * eta**2]
        )
        coef, _, rank, _ = np.linalg.lstsq(basis, h[ring], rcond=None)
        if rank < 6:
            raise GeometryError(f"degenerate quadratic fit at vertex {v}")
        hxx, hxy, hyy = coef[3], coef[4], coef[5]
        dev = 0.5 * (hxx - hyy)
        tracefree_sq[v] = 2.0 * (dev**2 + hxy**2)
    mean_sq = float(np.sum(tracefree_sq * mesh.areas) / np.sum(mesh.areas))
    return math.sqrt(mean_sq) / sup


def football_divisor(k: int) -> Divisor:
    """Two antipodal cone points of angle 2 pi / k on the polar axis."""
    if int(k) != k or k < 2:
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
    if int(k) != k or k < 1:
        raise DomainError("football order k must be a positive integer")
    if k == 1:
        return np.zeros(mesh.n_vertices)
    z_axis = np.array([0.0, 0.0, 1.0])
    poles = []
    for sign in (1.0, -1.0):
        d = np.linalg.norm(mesh.vertices - sign * z_axis, axis=1)
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
