"""Divisor data model and hypothesis validators."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conesphere.divisor import (
    ConePoint,
    Divisor,
    WeightSpec,
    divisor,
    equatorial_divisor,
    euler_characteristic,
    flagship_divisor,
    geodesic_distance,
    solver_scope_check,
    troyanov_check,
    weight_admissible,
    _nearest_indicial,
)
from conesphere.errors import DomainError, ScopeError, ShapeError


def test_divisor_positions_normalized():
    d = divisor([[0.0, 0.0, 2.0]], [-0.5])
    assert np.allclose(d.positions[0], [0.0, 0.0, 1.0])


def test_divisor_rejects_zero_position():
    with pytest.raises(DomainError):
        divisor([[0.0, 0.0, 0.0]], [-0.5])


def test_cone_point_rejects_nan_position():
    # the unit-length test used to pass NaN
    with pytest.raises(DomainError):
        ConePoint(np.array([math.nan, 0.0, 0.0]), -0.5)


def test_divisor_rejects_equal_positions():
    with pytest.raises(DomainError, match="cone points 0 and 2 coincide"):
        divisor([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [2.0, 0.0, 0.0]], [-0.3, -0.4, -0.5])


def test_divisor_length_mismatch():
    with pytest.raises(ShapeError):
        divisor([[1.0, 0.0, 0.0]], [-0.5, -0.4])


def test_euler_characteristic_values_and_additivity():
    assert euler_characteristic(Divisor(())) == 2.0
    d = flagship_divisor()
    assert abs(euler_characteristic(d) - 0.8) < 1e-12
    # appending a point adds exactly its exponent
    bigger = divisor(
        np.vstack([d.positions, [0.0, 0.0, 1.0]]),
        np.append(d.betas, -0.25),
    )
    assert abs(euler_characteristic(bigger) - (0.8 - 0.25)) < 1e-12


def test_troyanov_truth_table():
    d = equatorial_divisor([-0.3, -0.4, -0.5])
    rep = troyanov_check(d)
    assert rep.passed
    assert np.allclose(rep.margins, (0.6, 0.4, 0.2), atol=1e-12)

    rep = troyanov_check(equatorial_divisor([-0.9, -0.1, -0.1]))
    assert not rep.passed
    assert abs(rep.margins[0] - (-0.7)) < 1e-12

    rep = troyanov_check(equatorial_divisor([-0.5, -0.5, -0.5]))
    assert rep.passed
    assert np.allclose(rep.margins, (0.5, 0.5, 0.5), atol=1e-12)


def test_troyanov_scope_and_permutation_invariance():
    with pytest.raises(ScopeError):
        troyanov_check(equatorial_divisor([-0.3, -0.4]))
    d = equatorial_divisor([-0.2, -0.35, -0.55])
    base = sorted(troyanov_check(d).margins)
    perm = equatorial_divisor([-0.55, -0.2, -0.35])
    assert np.allclose(sorted(troyanov_check(perm).margins), base, atol=1e-12)


def test_weight_admissible_truth_table():
    d = equatorial_divisor([-0.5, -0.5, -0.5])
    assert weight_admissible(WeightSpec(gamma=(0.5, 0.5, 0.5)), d).passed
    rep = weight_admissible(WeightSpec(gamma=(2.0, 0.5, 0.5)), d)
    assert not rep.passed
    # gamma = 2 hits the indicial value -4 / (-1/2) exactly
    val, dist = rep.nearest_forbidden[0]
    assert val == pytest.approx(2.0) and dist < 1e-12
    rep = weight_admissible(WeightSpec(gamma=(-0.5, 0.5, 0.5)), d)
    assert not rep.passed and rep.positivity[0] is False


def nearest_indicial_scan(gamma, betas):
    """The running-minimum scan that _nearest_indicial replaced, its reference."""
    best_val, best_dist = None, None
    for b in betas:
        if b == 0.0:
            continue
        m0 = round(gamma * b)
        for m in (m0 - 1, m0, m0 + 1):
            if abs(m) <= 10**6 and (best_dist is None or abs(gamma - m / b) < best_dist):
                best_val, best_dist = float(m / b), float(abs(gamma - m / b))
    return best_val, best_dist


@settings(max_examples=300, deadline=None, derandomize=True)
@given(gamma=st.one_of(st.integers(-40, 40).map(lambda i: i / 4), st.floats(-1e8, 1e8)),
       betas=st.lists(st.one_of(st.sampled_from([0.0, -0.0, -0.25, -0.5, -0.75]),
                                st.floats(-1.0, 0.0, exclude_min=True)), max_size=4))
@example(gamma=1.0, betas=[-0.5])  # a tie: 2 and -0 are both 1 away
@example(gamma=3e6, betas=[-0.3])  # no m within 10^6: (None, None)
def test_nearest_indicial_matches_the_scan(gamma, betas):
    # the same value, distance, sign of zero and tie order; a subnormal beta
    # overflows m / beta to inf in the scan, which never picks it
    with np.errstate(over="ignore"):
        betas = np.array(betas)
        assert repr(_nearest_indicial(gamma, betas)) == repr(nearest_indicial_scan(gamma, betas))


def test_weight_admissible_at_a_subnormal_beta():
    # m / beta overflows for m = +-1; under the suite's filter the warning was
    # an error.  Only m = 0 leaves a finite indicial value.
    d = Divisor((ConePoint(np.array([0.0, 0.0, 1.0]), -5e-324),))
    rep = weight_admissible(WeightSpec(gamma=(0.5,)), d)
    assert rep.passed and rep.nearest_forbidden == ((0.0, 0.5),)


def test_weight_admissible_shape_mismatch():
    d = equatorial_divisor([-0.5, -0.5, -0.5])
    with pytest.raises(ShapeError):
        weight_admissible(WeightSpec(gamma=(0.5, 0.5)), d)


def test_weight_spec_validation():
    with pytest.raises(DomainError):
        WeightSpec(gamma=(0.5,), holder_alpha=1.5)
    with pytest.raises(DomainError):
        WeightSpec(gamma=(0.5,), order_k=-1)


@pytest.mark.parametrize("k", [1.5, math.nan, 2.0, True], ids=["fraction", "nan", "float", "bool"])
def test_weight_spec_order_must_be_an_integer(k):
    # NaN and 1.5 passed the old `order_k < 0` test, True the int check
    with pytest.raises(DomainError):
        WeightSpec(gamma=(0.5,), order_k=k)
    assert WeightSpec(gamma=(0.5,), order_k=np.int64(2)).order_k == 2


@pytest.mark.parametrize("gamma", [math.nan, math.inf, -math.inf])
def test_weight_spec_rejects_a_non_finite_gamma(gamma):
    # weight_admissible raised ValueError on NaN and OverflowError on inf
    with pytest.raises(DomainError, match="finite"):
        weight_admissible(WeightSpec(gamma=(gamma, 0.5, 0.5)), flagship_divisor())


def test_solver_scope_truth_table():
    rep = solver_scope_check(equatorial_divisor([-0.3, -0.4, -0.5]))
    assert rep.passed
    assert abs(rep.chi - 0.8) < 1e-12

    rep = solver_scope_check(equatorial_divisor([-0.5, -0.5, -0.5]))
    assert not rep.passed
    assert not rep.distinct_triple
    assert rep.n_at_least_3 and rep.betas_in_range and rep.troyanov and rep.chi_positive

    rep = solver_scope_check(equatorial_divisor([-0.3, -0.4]))
    assert not rep.passed and not rep.n_at_least_3


def test_geodesic_distance():
    assert geodesic_distance([1, 0, 0], [0, 1, 0]) == pytest.approx(math.pi / 2)
    assert geodesic_distance([0, 0, 1], [0, 0, 1]) == 0.0


def exact_angle(p, q):
    """Angle between the float vectors p and q, to 40 digits."""
    with mpmath.workdps(40):
        p, q = mpmath.matrix(p.tolist()), mpmath.matrix(q.tolist())
        cross = [p[1] * q[2] - p[2] * q[1], p[2] * q[0] - p[0] * q[2], p[0] * q[1] - p[1] * q[0]]
        dot = sum(p[k] * q[k] for k in range(3))
        return mpmath.atan2(mpmath.sqrt(sum(c * c for c in cross)), dot)


def rotated_pairs(angle, count, seed=0):
    """`count` random unit vectors p and unit vectors q at `angle` from them."""
    rng = np.random.default_rng(seed)
    p = rng.standard_normal((count, 3))
    p /= np.linalg.norm(p, axis=1)[:, None]
    t = np.cross(p, rng.standard_normal((count, 3)))
    t /= np.linalg.norm(t, axis=1)[:, None]
    q = math.cos(angle) * p + math.sin(angle) * t
    return p, q / np.linalg.norm(q, axis=1)[:, None]


@pytest.mark.parametrize("angle", [10.0**-k for k in range(2, 10)] + [math.pi - 1e-6])
def test_geodesic_distance_is_accurate_at_every_angle(angle):
    p, q = rotated_pairs(angle, 8)
    d = geodesic_distance(p, q)
    assert d.shape == (8,)
    for k in range(8):
        exact = exact_angle(p[k], q[k])
        assert abs(d[k] - exact) <= 1e-13 * exact
        # the rows of a broadcast call are the single calls
        assert geodesic_distance(p[k], q[k]) == d[k] == geodesic_distance(p, q[k])[k]


def test_geodesic_distance_is_exact_at_zero_and_pi():
    p, _ = rotated_pairs(1.0, 8)
    assert np.all(geodesic_distance(p, p) == 0.0)
    assert np.all(geodesic_distance(p, -p) == math.pi)


def test_equatorial_divisor_gaps():
    d = equatorial_divisor([-0.3, -0.4, -0.5], gaps=[1.0, 1.0, 2.0 * math.pi - 2.0])
    assert geodesic_distance(d.positions[0], d.positions[1]) == pytest.approx(1.0)
    with pytest.raises(DomainError):
        equatorial_divisor([-0.3, -0.4], gaps=[4.0, 4.0])
    with pytest.raises(ShapeError):
        equatorial_divisor([-0.3, -0.4], gaps=[1.0])


def test_flagship_divisor_is_in_scope():
    assert solver_scope_check(flagship_divisor()).passed
