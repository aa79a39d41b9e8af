"""Conical background fields: rho powers, curvature, quadrature identities."""

import math

import numpy as np
import pytest

from conesphere.background import (
    build_background,
    curvature_map,
    delta_beta_apply,
    gauss_bonnet,
    mean_laplacian_zero,
    weighted_norm,
)
from conesphere.divisor import ConePoint, Divisor, WeightSpec, equatorial_divisor
from conesphere.errors import (
    BackgroundError,
    GeometryError,
    NormalizationError,
    ScopeError,
    ShapeError,
)
from conesphere.mesh import build_mesh

from conftest import random_pinned


def test_background_fields_sane(flagship_bg_small):
    bg = flagship_bg_small
    assert np.all(bg.m_field > 0.0)
    free = np.ones(bg.n_vertices, bool)
    free[bg.cone_vertices] = False
    assert np.all(bg.k_beta[free] > 0.0)
    # conical weight vanishes at the cones, rho is 1 far away
    assert np.all(bg.rho_pow_2beta[bg.cone_vertices] == 0.0)
    far = np.ones(bg.n_vertices, bool)
    for p, r in zip(bg.divisor.positions, bg.cone_radii):
        d = np.arccos(np.clip(bg.mesh.vertices @ p, -1, 1))
        far &= d > r + 1e-9
    assert np.allclose(bg.rho[far], 1.0, atol=1e-14)
    assert np.allclose(bg.m_field[far], 1.0, atol=1e-14)


def test_rho_powers_are_consistent(flagship_bg_small):
    bg = flagship_bg_small
    free = np.ones(bg.n_vertices, bool)
    free[bg.cone_vertices] = False
    prod = bg.rho_pow_2beta[free] * bg.rho_pow_neg2beta[free]
    assert np.allclose(prod, 1.0, atol=1e-12)


def test_overlapping_cones_rejected():
    tight = equatorial_divisor([-0.5, -0.5, -0.5])  # equal spacing is too tight
    mesh = build_mesh(4, tight)
    with pytest.raises(GeometryError):
        build_background(tight, mesh)


def test_gauss_bonnet_at_background(flagship_bg_small):
    rep = gauss_bonnet(flagship_bg_small, np.zeros(flagship_bg_small.n_vertices))
    assert rep.target == pytest.approx(1.6 * math.pi)
    assert rep.residual < 0.01


def test_gauss_bonnet_round(round_bg4):
    rep = gauss_bonnet(round_bg4, np.zeros(round_bg4.n_vertices))
    assert rep.target == pytest.approx(4.0 * math.pi)
    assert rep.residual < 1e-6


def test_curvature_map_requires_pinning(flagship_bg_small):
    bg = flagship_bg_small
    u = np.zeros(bg.n_vertices)
    u[bg.cone_vertices[0]] = 0.05
    with pytest.raises(NormalizationError):
        curvature_map(bg, u)
    # the tolerance parameter admits solver output with floating cone values
    K = curvature_map(bg, u, cone_tol=0.1)
    assert K.shape == (bg.n_vertices,)


def test_curvature_of_background_is_k_beta(flagship_bg_small):
    bg = flagship_bg_small
    K = curvature_map(bg, np.zeros(bg.n_vertices))
    assert np.allclose(K, bg.k_beta, atol=1e-12)


def test_delta_beta_of_constant_vanishes(flagship_bg_small):
    bg = flagship_bg_small
    out = delta_beta_apply(bg, np.full(bg.n_vertices, 3.7))
    assert np.max(np.abs(out)) < 1e-9


def test_mean_laplacian_zero(gallery):
    rng = np.random.default_rng(3)
    for name, bg in gallery.items():
        f = random_pinned(bg, rng)
        total = mean_laplacian_zero(bg, f)
        bound = 1e-10 * np.max(np.abs(f)) * bg.n_vertices
        assert abs(total) <= bound, name


def test_weighted_norm_basics(flagship_bg_small):
    bg = flagship_bg_small
    spec = WeightSpec(gamma=(0.5, 0.5, 0.5))
    zero = weighted_norm(bg, np.zeros(bg.n_vertices), spec)
    assert zero == 0.0
    rng = np.random.default_rng(5)
    f = random_pinned(bg, rng)
    n1 = weighted_norm(bg, f, spec)
    n2 = weighted_norm(bg, 2.0 * f, spec)
    assert n1 > 0.0
    assert n2 == pytest.approx(2.0 * n1, rel=1e-12)


def test_weighted_norm_rejects_bad_weights(flagship_bg_small):
    bg = flagship_bg_small
    with pytest.raises(BackgroundError):
        weighted_norm(bg, np.zeros(bg.n_vertices), WeightSpec(gamma=(-0.5, 0.5, 0.5)))
    with pytest.raises(ScopeError):
        weighted_norm(bg, np.zeros(bg.n_vertices), WeightSpec(gamma=(0.5, 0.5, 0.5), order_k=2))
    with pytest.raises(ShapeError):
        weighted_norm(bg, np.zeros(bg.n_vertices), "not a spec")


def test_empty_divisor_background(round_bg4):
    bg = round_bg4
    assert len(bg.cone_vertices) == 0
    assert np.allclose(bg.k_beta, 1.0, atol=1e-14)
    assert np.allclose(bg.rho_pow_2beta, 1.0, atol=1e-14)


def test_log_rho_is_minus_inf_at_every_cone():
    # a rotated flagship divisor; the first position's product with the mesh
    # rows can round below 1, which left its own vertex at a distance of
    # about 1.5e-8 and log rho finite there
    positions = (
        [0.024852246985358151, 0.91283266334818514, -0.40757685722380949],
        [0.8550033585418321, -0.4980930546906626, -0.14447340845675377],
        [-0.8216123278412645, -0.306752393226551, 0.480474923371701],
    )
    div = Divisor(tuple(ConePoint(np.array(p), b) for p, b in zip(positions, (-0.3, -0.4, -0.5))))
    bg = build_background(div, build_mesh(3, div))
    assert np.all(bg.log_rho[bg.cone_vertices] == -np.inf)
    assert np.all(bg.rho[bg.cone_vertices] == 0.0)
