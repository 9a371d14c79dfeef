import math
from fractions import Fraction

import numpy as np
import pytest

from todaflow import (
    DiscreteMeasure,
    chebyshev_u,
    lambda_matrix,
    moments_from_measure,
    response_from_measure,
    response_from_moments,
)


def reference_chebyshev(k, lam):
    # closed form of the recurrence solution: T_k(2 cos t) = sin(kt)/sin(t),
    # continued by sinh outside [-2, 2]; independent of the forward recurrence
    if k == 0:
        return 0.0
    if abs(lam) <= 2.0:
        t = math.acos(lam / 2.0)
        if t == 0.0 or t == math.pi:
            return float(k) * (1.0 if lam > 0 else (-1.0) ** (k - 1))
        return math.sin(k * t) / math.sin(t)
    t = math.acosh(abs(lam) / 2.0)
    sign = 1.0 if lam > 0 else (-1.0) ** (k - 1)
    return sign * math.sinh(k * t) / math.sinh(t)


def exact_chebyshev(k, lam):
    # the recurrence in exact rational arithmetic
    prev, cur = Fraction(0), Fraction(1)
    if k == 0:
        return prev
    lam = Fraction(lam)
    for _ in range(k - 1):
        prev, cur = cur, lam * cur - prev
    return cur


def separated_measure(rng, m, lo=-3.0, hi=3.0, gap=0.2):
    while True:
        nodes = np.sort(rng.uniform(lo, hi, m))
        if m == 1 or np.min(np.diff(nodes)) >= gap:
            break
    w = rng.uniform(0.1, 1.0, m)
    return DiscreteMeasure(nodes, w / w.sum())


def test_chebyshev_initial_values_and_low_orders():
    lam = 0.7
    assert chebyshev_u(0, lam) == 0.0
    assert chebyshev_u(1, lam) == 1.0
    assert chebyshev_u(2, lam) == lam
    assert chebyshev_u(3, lam) == lam * lam - 1.0
    with pytest.raises(ValueError):
        chebyshev_u(-1, lam)
    for bad in (2.0, True, "2"):
        with pytest.raises(ValueError, match="^k:"):
            chebyshev_u(bad, lam)


def test_chebyshev_matches_closed_form():
    rng = np.random.default_rng(2)
    for lam in rng.uniform(-2.0, 2.0, 25):
        for k in range(21):
            assert abs(chebyshev_u(k, lam) - reference_chebyshev(k, lam)) < 1e-10


def test_chebyshev_float_error_versus_exact():
    # |lam| near 3 drives T_20 to ~1e8, where 1e-10 only makes sense
    # relative to the value (absolute would sit below representation
    # granularity); the measured relative error is ~4e-15
    rng = np.random.default_rng(2)
    for lam in rng.uniform(-3.0, 3.0, 25):
        for k in range(21):
            exact = exact_chebyshev(k, float(lam))
            err = abs(Fraction(chebyshev_u(k, float(lam))) - exact)
            assert float(err) < 1e-10 * max(1.0, abs(float(exact)))


def test_chebyshev_vectorized():
    lam = np.array([-1.0, 0.0, 2.5])
    np.testing.assert_allclose(chebyshev_u(3, lam), lam * lam - 1.0, rtol=1e-15)


def test_lambda_matrix_small_cases():
    np.testing.assert_array_equal(lambda_matrix(1), [[1]])
    # rows are the monomial coefficients of T_1, T_2, T_3, T_4
    np.testing.assert_array_equal(
        lambda_matrix(4),
        [[1, 0, 0, 0], [0, 1, 0, 0], [-1, 0, 1, 0], [0, -2, 0, 1]],
    )


def test_lambda_matrix_structure():
    lm = lambda_matrix(12)
    assert lm.dtype == np.int64
    for i in range(12):
        for j in range(12):
            if j > i or (i + j) % 2 == 1:
                assert lm[i, j] == 0
    with pytest.raises(ValueError):
        lambda_matrix(31)
    with pytest.raises(ValueError):
        lambda_matrix(0)
    for bad in (4.0, True, "4"):
        with pytest.raises(ValueError, match="^size:"):
            lambda_matrix(bad)


def test_point_mass_response():
    r = response_from_measure(DiscreteMeasure([0.0], [1.0]), 3)
    np.testing.assert_array_equal(r.values, [1.0, 0.0, -1.0])
    # longer alternating pattern T_{k+1}(0) = 1, 0, -1, 0, 1, ...
    r = response_from_measure(DiscreteMeasure([0.0], [1.0]), 7)
    np.testing.assert_array_equal(r.values, [1.0, 0.0, -1.0, 0.0, 1.0, 0.0, -1.0])
    s = moments_from_measure(DiscreteMeasure([0.0], [1.0]), 7)
    np.testing.assert_array_equal(response_from_moments(s).values, r.values)
    for bad in (3.0, True, "3"):
        with pytest.raises(ValueError, match="^count:"):
            response_from_measure(DiscreteMeasure([0.0], [1.0]), bad)


def test_symmetric_two_point_response():
    r = response_from_measure(DiscreteMeasure([-1.0, 1.0], [0.5, 0.5]), 3)
    np.testing.assert_allclose(r.values, [1.0, 0.0, 0.0], atol=1e-16)


def test_unit_mass_head():
    rng = np.random.default_rng(8)
    mu = separated_measure(rng, 5)
    r = response_from_measure(mu, 1)
    assert abs(r.values[0] - mu.mass) < 1e-15


def test_route_equality_defines_the_matrix():
    # the decisive oracle for the index convention: moments -> matrix ->
    # response must equal the direct spectral sums
    rng = np.random.default_rng(77)
    for _ in range(20):
        mu = separated_measure(rng, int(rng.integers(1, 7)))
        k = 12
        via_measure = response_from_measure(mu, k)
        via_moments = response_from_moments(moments_from_measure(mu, k))
        np.testing.assert_allclose(via_moments.values, via_measure.values, atol=1e-10)
        assert via_moments.values[0] == via_measure.values[0]
