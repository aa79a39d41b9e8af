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
)
from conesphere.divisor import ConePoint, Divisor, equatorial_divisor, flagship_divisor
from conesphere.divisor import divisor, euler_characteristic
from conesphere.errors import BackgroundError, NormalizationError, ShapeError
from conesphere.mesh import build_mesh

from conftest import random_pinned


def test_background_fields_sane(flagship_bg_small):
    bg = flagship_bg_small
    half_chi = 0.5 * euler_characteristic(bg.divisor)
    assert np.all(bg.m_field == half_chi)
    free = np.ones(bg.n_vertices, bool)
    free[bg.cone_vertices] = False
    assert np.all(bg.k_beta[free] > 0.0)
    # conical weight vanishes at the cones; off them the gauge makes the
    # curvature density rho^{2 beta} k_beta the constant chi / 2
    assert np.all(bg.rho_pow_2beta[bg.cone_vertices] == 0.0)
    assert np.allclose(bg.rho_pow_2beta[free] * bg.k_beta[free], half_chi, rtol=1e-14)


def test_rho_powers_are_consistent(flagship_bg_small):
    bg = flagship_bg_small
    free = np.ones(bg.n_vertices, bool)
    free[bg.cone_vertices] = False
    prod = bg.rho_pow_2beta[free] * bg.rho_pow_neg2beta[free]
    assert np.allclose(prod, 1.0, atol=1e-12)


def test_nonpositive_euler_characteristic_rejected():
    # four cones at beta = -0.6 on a regular tetrahedron: chi = -0.4
    tetra = divisor([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], [-0.6] * 4)
    with pytest.raises(BackgroundError, match="Euler characteristic"):
        build_background(tetra, build_mesh(2, tetra))


def test_mesh_of_another_divisor_rejected():
    div = flagship_divisor()
    other = equatorial_divisor([-0.3, -0.4, -0.5])  # same count, other positions
    with pytest.raises(ShapeError, match="do not coincide"):
        build_background(div, build_mesh(3, other))


def test_mesh_with_other_cone_count_rejected():
    div = flagship_divisor()
    with pytest.raises(ShapeError, match="cone vertex count"):
        build_background(div, build_mesh(3, equatorial_divisor([-0.3, -0.4])))


def test_gauss_bonnet_at_background(flagship_bg_small):
    rep = gauss_bonnet(flagship_bg_small, np.zeros(flagship_bg_small.n_vertices))
    assert rep.target == pytest.approx(1.6 * math.pi)
    assert rep.residual < 0.01


def test_gauss_bonnet_round(round_bg4):
    rep = gauss_bonnet(round_bg4, np.zeros(round_bg4.n_vertices))
    assert rep.target == pytest.approx(4.0 * math.pi)
    assert rep.residual < 1e-6


def test_curvature_map_of_an_unpinned_u(flagship_bg_small):
    # the solver's u has cone values; the curvature map reads them
    bg = flagship_bg_small
    u = random_pinned(bg, np.random.default_rng(18), 0.2)
    u[bg.cone_vertices] = [0.05, -0.1, 0.2]
    K = curvature_map(bg, u)
    assert np.array_equal(K, np.exp(-2.0 * u) * (bg.k_beta - delta_beta_apply(bg, u)))
    assert np.all(K[bg.cone_vertices] == 0.0)


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


def test_empty_divisor_background(round_bg4):
    bg = round_bg4
    assert len(bg.cone_vertices) == 0
    assert np.allclose(bg.k_beta, 1.0, atol=1e-14)
    assert np.allclose(bg.rho_pow_2beta, 1.0, atol=1e-14)


def test_zero_exponent_point_is_no_cone():
    # a beta = 0 point adds no factor: its vertex keeps the weights of the
    # other cones, and with them its cell mass in every quadrature
    div = equatorial_divisor([-0.3, 0.0, -0.5])
    bg = build_background(div, build_mesh(3, div))
    smooth, cones = bg.cone_vertices[1], bg.cone_vertices[[0, 2]]
    pos, neg = bg.rho_pow_2beta[smooth], bg.rho_pow_neg2beta[smooth]
    assert 0.0 < pos < np.inf and 0.0 < neg < np.inf
    assert pos * neg == pytest.approx(1.0, rel=1e-15)
    assert bg.k_beta[smooth] == neg * 0.5 * euler_characteristic(div)
    assert np.all(bg.rho_pow_2beta[cones] == 0.0) and np.all(bg.rho_pow_neg2beta[cones] == 0.0)


def test_log_rho_is_minus_inf_at_every_cone():
    # a rotated flagship divisor; its first position once left its own
    # vertex 1.5e-8 off the point, at a finite log rho
    positions = (
        [0.024852246985358151, 0.91283266334818514, -0.40757685722380949],
        [0.8550033585418321, -0.4980930546906626, -0.14447340845675377],
        [-0.8216123278412645, -0.306752393226551, 0.480474923371701],
    )
    div = Divisor(tuple(ConePoint(np.array(p), b) for p, b in zip(positions, (-0.3, -0.4, -0.5))))
    bg = build_background(div, build_mesh(3, div))
    # the same mesh serves points up to 1e-12 off its cone vertices, where
    # sin(d / 2) is not 0; both weights are 0 at every cone all the same
    nudged = divisor(div.positions + 1e-13, div.betas)
    for bg in (bg, build_background(nudged, bg.mesh)):
        assert np.all(bg.rho_pow_2beta[bg.cone_vertices] == 0.0)
        assert np.all(bg.rho_pow_neg2beta[bg.cone_vertices] == 0.0)
