"""Spectra, kernel gaps, and the exact geometries."""

import math

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg as spla

from conesphere.background import build_background
from conesphere.diagnostics import (
    exact_football,
    football_divisor,
    kernel_gap,
    spectrum,
    triangle_double_divisor,
)
from conesphere.divisor import geodesic_distance
from conesphere.errors import DomainError, ShapeError, SpectralError
from conesphere.mesh import build_mesh
from conesphere.solver import linearize


def test_round_spectrum(round_bg4):
    res = spectrum(round_bg4, 5)
    vals = res.eigenvalues
    assert abs(vals[0]) < 1e-10
    # first nonzero eigenvalue 2 with multiplicity 3
    assert np.allclose(vals[1:4], 2.0, rtol=0.02)
    assert vals[4] > 5.0


def test_spectrum_orthonormality(round_bg4):
    res = spectrum(round_bg4, 4)
    M = round_bg4.mesh.areas
    G = res.eigenfunctions.T @ (res.eigenfunctions * M[:, None])
    assert np.max(np.abs(G - np.eye(4))) < 1e-10


def test_spectrum_count_guards(round_bg4):
    with pytest.raises(DomainError):
        spectrum(round_bg4, 0)
    with pytest.raises(DomainError):
        spectrum(round_bg4, round_bg4.n_vertices)


def test_spectrum_weighted_vs_plain_differ(flagship_bg_small):
    w = spectrum(flagship_bg_small, 3)
    p = spectrum(flagship_bg_small, 3, np.ones(flagship_bg_small.n_vertices))
    assert not np.allclose(w.eigenvalues[1:], p.eigenvalues[1:], rtol=1e-3)


def test_spectrum_density_contract(flagship_bg_small):
    bg = flagship_bg_small
    default = spectrum(bg, 3)
    explicit = spectrum(bg, 3, bg.rho_pow_2beta)
    assert default.eigenvalues.tobytes() == explicit.eigenvalues.tobytes()
    assert default.eigenfunctions.tobytes() == explicit.eigenfunctions.tobytes()
    # a density of ones is the unweighted problem: stiffness against node areas
    plain = spectrum(bg, 3, np.ones(bg.n_vertices))
    ref = spla.eigsh(bg.mesh.stiffness, k=3, M=scipy.sparse.diags(bg.mesh.areas),
                     sigma=-0.1, return_eigenvectors=False)
    np.testing.assert_allclose(plain.eigenvalues, np.sort(ref), rtol=1e-9, atol=1e-12)
    for bad in (np.nan, -1e-3, np.inf):
        density = np.ones(bg.n_vertices)
        density[7] = bad
        with pytest.raises(DomainError):
            spectrum(bg, 3, density)
    with pytest.raises(ShapeError):
        spectrum(bg, 3, np.ones(bg.n_vertices - 1))


def test_kernel_gap_positive_on_pinned_problem(flagship_bg_small):
    g = kernel_gap(flagship_bg_small, np.zeros(flagship_bg_small.n_vertices))
    assert g > 0.05


def test_kernel_gap_matches_dense_svd(flagship_div):
    # the inverse-power loop this replaced stopped 7.6e-11 away
    bg = build_background(flagship_div, build_mesh(3, flagship_div, grading=2))
    u = np.zeros(bg.n_vertices)
    sigma = np.linalg.svd(linearize(bg, u).toarray(), compute_uv=False)[-1]
    assert abs(kernel_gap(bg, u) - sigma) <= 1e-12 * sigma


def arpack_gives_up(*args, **kwargs):
    raise spla.ArpackNoConvergence("ARPACK error -1: No convergence", np.empty(0), None)


@pytest.mark.parametrize("eigsh", [
    arpack_gives_up,
    lambda *args, **kwargs: np.array([math.nan]),
    lambda *args, **kwargs: np.array([-1.0]),
], ids=["no-convergence", "nan", "negative"])
def test_kernel_gap_lanczos_failures_are_spectral_errors(monkeypatch, flagship_bg_small, eigsh):
    monkeypatch.setattr(spla, "eigsh", eigsh)
    with pytest.raises(SpectralError):
        kernel_gap(flagship_bg_small, np.zeros(flagship_bg_small.n_vertices))


def test_kernel_gap_detects_round_kernel(round_bg4):
    # the unpinned round operator has a three-dimensional kernel in the
    # continuum; its discrete gap is already small at desk scale
    g4 = kernel_gap(round_bg4, np.zeros(round_bg4.n_vertices))
    assert g4 < 0.01


def test_football_divisor():
    d = football_divisor(3)
    assert len(d) == 2
    assert np.allclose(d.betas, 1.0 / 3.0 - 1.0)
    assert geodesic_distance(d.positions[0], d.positions[1]) == pytest.approx(math.pi)
    with pytest.raises(DomainError):
        football_divisor(1)


@pytest.mark.parametrize("k", [math.nan, math.inf, 2.5])
def test_football_order_must_be_a_finite_integer(k):
    with pytest.raises(DomainError):
        football_divisor(k)
    with pytest.raises(DomainError):
        exact_football(k, build_mesh(0))


def test_exact_football_area_and_poles():
    div = football_divisor(2)
    mesh = build_mesh(4, div, grading=2)
    w = exact_football(2, mesh)
    assert np.all(np.isneginf(w[mesh.cone_vertices]))
    area = float(np.sum(np.exp(2.0 * w) * mesh.areas))
    assert abs(area - 2.0 * math.pi) / (2.0 * math.pi) < 0.02


def test_football_example_converges():
    # the `example --name football --k 3` setting (grading 3) at
    # two base levels: the area and first-eigenvalue errors must both fall
    div = football_divisor(3)
    errors = []
    for base in (3, 4):
        mesh = build_mesh(base, div, grading=3)
        w = exact_football(3, mesh)
        area = float(np.sum(np.exp(2.0 * w) * mesh.areas))
        bg = build_background(div, mesh)
        lam1 = spectrum(bg, 4, np.exp(2.0 * w)).eigenvalues[1]
        errors.append((abs(area - 4.0 * math.pi / 3) / (4.0 * math.pi / 3), abs(lam1 - 2.0)))
    (area3, lam3), (area4, lam4) = errors
    assert area3 >= 1.3 * area4 and lam3 >= 1.3 * lam4


def test_exact_football_trivial_and_mesh_guard():
    assert np.all(exact_football(1, build_mesh(2)) == 0.0)
    with pytest.raises(ShapeError):
        # the raw icosahedron has no vertex at the poles
        exact_football(2, build_mesh(0))


def test_triangle_double_divisor():
    d = triangle_double_divisor(math.pi / 2, math.pi / 2, math.pi / 2)
    assert np.allclose(d.betas, -0.5)
    # the double of the octant triangle has vertices a quarter turn apart
    for i in range(3):
        for j in range(i + 1, 3):
            assert geodesic_distance(d.positions[i], d.positions[j]) == pytest.approx(
                math.pi / 2, abs=1e-9
            )
    with pytest.raises(DomainError):
        triangle_double_divisor(0.3, 0.3, 0.3)  # angle sum below pi
    with pytest.raises(DomainError):
        triangle_double_divisor(-0.1, 2.0, 2.0)
