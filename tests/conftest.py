"""Shared fixtures.

The expensive meshes and backgrounds (graded flagship discretizations, the
base-level-6 football mesh) are session scoped so the acceptance tests and
the unit tests can share them.
"""

import numpy as np
import pytest

from conesphere.background import build_background
from conesphere.diagnostics import exact_football, football_divisor
from conesphere.divisor import Divisor, equatorial_divisor, flagship_divisor
from conesphere.mesh import build_mesh


@pytest.fixture(scope="session")
def flagship_div():
    return flagship_divisor()


@pytest.fixture(scope="session")
def flagship_bg_small(flagship_div):
    """Flagship divisor on a cheap mesh, for unit tests.

    Grading 3 puts the whole first ring of every cone vertex inside the
    inner harmonic zone, where the cone-row closure of the solver is exact.
    """
    mesh = build_mesh(4, flagship_div, grading=3)
    return build_background(flagship_div, mesh)


@pytest.fixture(scope="session")
def flagship_bg_g4(flagship_div):
    mesh = build_mesh(5, flagship_div, grading=4)
    return build_background(flagship_div, mesh)


@pytest.fixture(scope="session")
def flagship_bg_g5(flagship_div):
    mesh = build_mesh(5, flagship_div, grading=5)
    return build_background(flagship_div, mesh)


@pytest.fixture(scope="session")
def flagship_bg_g6(flagship_div):
    mesh = build_mesh(5, flagship_div, grading=6)
    return build_background(flagship_div, mesh)


@pytest.fixture(scope="session")
def flagship_bg_g7(flagship_div):
    mesh = build_mesh(5, flagship_div, grading=7)
    return build_background(flagship_div, mesh)


@pytest.fixture(scope="session")
def flagship_bg_g9(flagship_div):
    mesh = build_mesh(5, flagship_div, grading=9)
    return build_background(flagship_div, mesh)


@pytest.fixture(scope="session")
def flagship_bg_g12(flagship_div):
    mesh = build_mesh(5, flagship_div, grading=12)
    return build_background(flagship_div, mesh)


@pytest.fixture(scope="session")
def round_bg4():
    return build_background(Divisor(()), build_mesh(4))


@pytest.fixture(scope="session")
def round_bg5():
    return build_background(Divisor(()), build_mesh(5))


@pytest.fixture(scope="session")
def round_bg6():
    return build_background(Divisor(()), build_mesh(6))


@pytest.fixture(scope="session")
def equilateral_div():
    """Three equal exponents at equally spaced equatorial points."""
    return equatorial_divisor([-0.3] * 3)


@pytest.fixture(scope="session")
def football2_graded():
    """Football k = 2: graded background plus the exact log factor."""
    div = football_divisor(2)
    mesh = build_mesh(5, div, grading=3)
    bg = build_background(div, mesh)
    return bg, exact_football(2, mesh)


@pytest.fixture(scope="session")
def football3_graded():
    div = football_divisor(3)
    mesh = build_mesh(5, div, grading=3)
    bg = build_background(div, mesh, cutoff_radius=1.5)
    return bg, exact_football(3, mesh)


@pytest.fixture(scope="session")
def gallery(flagship_bg_small, round_bg4, equilateral_div):
    """Named backgrounds covering the supported geometries at desk scale."""
    eq_bg = build_background(equilateral_div, build_mesh(4, equilateral_div, grading=2))
    fb = football_divisor(2)
    fb_bg = build_background(fb, build_mesh(4, fb, grading=2))
    return {
        "flagship": flagship_bg_small,
        "equilateral": eq_bg,
        "football": fb_bg,
        "round": round_bg4,
    }


def random_pinned(bg, rng, scale=1.0):
    """Random grid function vanishing at the cone vertices."""
    f = rng.standard_normal(bg.n_vertices) * scale
    if len(bg.cone_vertices):
        f[bg.cone_vertices] = 0.0
    return f
