import math

import numpy as np
import pytest

from todaflow import (
    FINITE_SUPPORT,
    INVALID,
    POSITIVE_DEFINITE,
    DegenerateMeasureError,
    DiscreteMeasure,
    JacobiMatrix,
    MomentSequence,
    PositivityError,
    ResponseVector,
    check_moment_positivity,
    eigendecompose,
    hankel_matrix,
    jacobi_from_measure,
    jacobi_from_moments,
    moment_bilinear_form,
    moments_from_measure,
    solve_toda_finite,
)

SQRT2 = np.sqrt(2.0)


def random_jacobi(rng, n):
    return JacobiMatrix(diag=rng.uniform(-2, 2, n), offdiag=rng.uniform(0.5, 2, n - 1))


def separated_measure(rng, m, lo=-1.0, hi=1.0, gap=0.3):
    while True:
        nodes = np.sort(rng.uniform(lo, hi, m))
        if m == 1 or np.min(np.diff(nodes)) >= gap:
            break
    w = rng.uniform(0.2, 1.0, m)
    return DiscreteMeasure(nodes, w / w.sum())


def test_moment_sequence_rejects_bad_input():
    with pytest.raises(ValueError):
        MomentSequence([])
    with pytest.raises(ValueError):
        MomentSequence([0.0])
    with pytest.raises(ValueError):
        MomentSequence([-1.0, 0.0])
    with pytest.raises(ValueError):
        MomentSequence([1.0], time=-1.0)
    with pytest.raises(ValueError, match="finite"):
        MomentSequence([1.0], time=math.inf)
    # a response vector holds its entries to the same finite-real rule
    with pytest.raises(ValueError, match="finite"):
        ResponseVector([math.nan])


def test_moments_from_measure_examples():
    s = moments_from_measure(DiscreteMeasure([-1.0, 1.0], [0.5, 0.5]), 4)
    np.testing.assert_allclose(s.values, [1.0, 0.0, 1.0, 0.0], atol=1e-16)
    s = moments_from_measure(DiscreteMeasure([3.0], [1.0]), 3)
    np.testing.assert_allclose(s.values, [1.0, 3.0, 9.0], rtol=1e-15)
    s = moments_from_measure(DiscreteMeasure([-SQRT2, 0.0, SQRT2], [0.25, 0.5, 0.25]), 5)
    np.testing.assert_allclose(s.values, [1.0, 0.0, 1.0, 0.0, 2.0], atol=1e-15)
    # a count is an integer: floats, bools and strings are not read as one
    for bad in (2.0, True, "3"):
        with pytest.raises(ValueError, match="^count:"):
            moments_from_measure(DiscreteMeasure([-1.0, 1.0], [0.5, 0.5]), bad)


def test_moments_overflow_guard():
    mu = DiscreteMeasure([1e200], [1.0])
    with pytest.raises(OverflowError):
        moments_from_measure(mu, 3)
    # the reconstruction kernel reports an overflow, not the trajectory's input rule
    j = JacobiMatrix([1e155, -1e155, 5e154], [1e155, 3e154])
    with pytest.raises(OverflowError, match="double-precision range"):
        solve_toda_finite(j, [0.0, 1e-170])


def test_hankel_matrix_examples():
    h = hankel_matrix(MomentSequence([1.0, 0.0, 1.0]), 2)
    np.testing.assert_array_equal(h, [[1.0, 0.0], [0.0, 1.0]])
    h = hankel_matrix(MomentSequence([1.0, 3.0, 9.0]), 2)
    np.testing.assert_array_equal(h, [[1.0, 3.0], [3.0, 9.0]])
    assert abs(np.linalg.det(h)) < 1e-14
    h = hankel_matrix(MomentSequence([1.0, 0.0, 1.0, 0.0, 2.0]), 3)
    np.testing.assert_array_equal(h, [[1.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 2.0]])
    with pytest.raises(ValueError):
        hankel_matrix(MomentSequence([1.0, 0.0, 1.0]), 3)
    for bad in (1.5, True, "2"):
        with pytest.raises(ValueError, match="^size:"):
            hankel_matrix(MomentSequence([1.0, 0.0, 1.0]), bad)


def test_positivity_classification_examples():
    c = check_moment_positivity(MomentSequence([1.0, 0.0, 1.0, 0.0, 2.0]))
    assert c.kind == POSITIVE_DEFINITE
    # independent oracle: numpy Cholesky succeeds on the 3x3 Hankel
    np.linalg.cholesky(hankel_matrix(MomentSequence([1.0, 0.0, 1.0, 0.0, 2.0]), 3))

    c = check_moment_positivity(MomentSequence([1.0, 3.0, 9.0]))
    assert (c.kind, c.order) == (FINITE_SUPPORT, 1)

    c = check_moment_positivity(MomentSequence([1.0, 0.0, -1.0]))
    assert c.kind == INVALID


def test_positivity_rejects_rank_inconsistent_tail():
    # zero pivot with nonzero continuation: no measure has these moments
    c = check_moment_positivity(MomentSequence([1.0, 0.0, 0.0, 0.0, 1.0]))
    assert c.kind == INVALID


def test_finite_support_detected_for_point_measures():
    rng = np.random.default_rng(3)
    for m in range(1, 7):
        mu = separated_measure(rng, m)
        s = moments_from_measure(mu, 2 * m + 1)
        c = check_moment_positivity(s)
        assert (c.kind, c.order) == (FINITE_SUPPORT, m)


def test_jacobi_from_measure_examples():
    j = jacobi_from_measure(DiscreteMeasure([-1.0, 1.0], [0.5, 0.5]), 2)
    np.testing.assert_allclose(j.diag, [0.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(j.offdiag, [1.0], rtol=1e-15)
    j = jacobi_from_measure(DiscreteMeasure([3.0], [1.0]), 1)
    np.testing.assert_allclose(j.diag, [3.0], rtol=1e-15)
    j = jacobi_from_measure(DiscreteMeasure([-SQRT2, 0.0, SQRT2], [0.25, 0.5, 0.25]), 3)
    np.testing.assert_allclose(j.diag, [0.0, 0.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(j.offdiag, [1.0, 1.0], rtol=1e-14)


def test_inverse_spectral_round_trip():
    rng = np.random.default_rng(19)
    for _ in range(30):
        j = random_jacobi(rng, int(rng.integers(1, 9)))
        back = jacobi_from_measure(eigendecompose(j), j.n)
        np.testing.assert_allclose(back.diag, j.diag, atol=1e-9)
        np.testing.assert_allclose(back.offdiag, j.offdiag, atol=1e-9)


def test_jacobi_from_measure_errors():
    mu = DiscreteMeasure([-1.0, 1.0], [0.5, 0.5])
    with pytest.raises(ValueError):
        jacobi_from_measure(mu, 3)
    for bad in (2.0, True, "2"):
        with pytest.raises(ValueError, match="^n:"):
            jacobi_from_measure(mu, bad)
    # nearly coincident nodes: numerically supported on fewer points
    tight = DiscreteMeasure([0.0, 1e-14, 1.0], [0.3, 0.3, 0.4])
    with pytest.raises(
        DegenerateMeasureError,
        match="below 1e-12 at step 2; measure is numerically supported on fewer than 3 points",
    ):
        jacobi_from_measure(tight, 3)


def lanczos_reference(mu, n):
    # one measure at a time, every sum compensated: the loop the batched
    # kernel replaced
    x, w = mu.nodes, mu.weights
    diag, offdiag = np.empty(n), np.empty(n - 1)
    basis = np.zeros((n, x.size))
    q = np.ones_like(x) / math.sqrt(math.fsum(w))
    basis[0] = q
    q_prev, beta = np.zeros_like(x), 0.0
    for k in range(n):
        xq = x * q
        diag[k] = math.fsum(xq * q * w)
        if k == n - 1:
            break
        resid = xq - diag[k] * q - beta * q_prev
        for _ in range(2):
            resid -= basis[: k + 1].T @ (basis[: k + 1] @ (resid * w))
        beta = math.sqrt(math.fsum(resid * resid * w))
        offdiag[k] = beta
        q_prev, q = q, resid / beta
        basis[k + 1] = q
    return diag, offdiag


def test_jacobi_from_measure_matches_the_compensated_loop():
    # only the order of summation changed, so agreement is to roundoff,
    # amplified by at most the recurrence's conditioning at these sizes
    tol = 1e4 * np.finfo(float).eps
    rng = np.random.default_rng(20)
    for _ in range(40):
        n = int(rng.integers(1, 17))
        mu = eigendecompose(random_jacobi(rng, n))
        got = jacobi_from_measure(mu, n)
        diag, offdiag = lanczos_reference(mu, n)
        np.testing.assert_allclose(got.diag, diag, rtol=0, atol=tol)
        np.testing.assert_allclose(got.offdiag, offdiag, rtol=0, atol=tol)


def test_jacobi_from_moments_examples():
    j = jacobi_from_moments(MomentSequence([1.0, 3.0, 9.0, 27.0]), 1)
    np.testing.assert_allclose(j.diag, [3.0], rtol=1e-15)
    j = jacobi_from_moments(MomentSequence([1.0, 0.0, 1.0]), 1)
    np.testing.assert_allclose(j.diag, [0.0], atol=1e-16)
    j = jacobi_from_moments(MomentSequence([1.0, 0.0, 1.0, 0.0, 2.0]), 2)
    np.testing.assert_allclose(j.diag, [0.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(j.offdiag, [1.0], rtol=1e-15)


def test_jacobi_from_moments_needs_2n_entries():
    with pytest.raises(ValueError):
        jacobi_from_moments(MomentSequence([1.0, 0.0, 1.0]), 2)
    for bad in (1.0, True, "1"):
        with pytest.raises(ValueError, match="^n:"):
            jacobi_from_moments(MomentSequence([1.0, 0.0, 1.0]), bad)


def test_jacobi_from_moments_positivity_failure():
    with pytest.raises(PositivityError):
        jacobi_from_moments(MomentSequence([1.0, 0.0, -1.0, 0.0]), 2)


def test_jacobi_from_moments_ill_conditioning_warning():
    rng = np.random.default_rng(5)
    j = random_jacobi(rng, 12)
    s = moments_from_measure(eigendecompose(j), 24)
    with pytest.warns(UserWarning, match="condition"):
        jacobi_from_moments(s, 12)


def test_moment_and_measure_reconstructions_agree():
    rng = np.random.default_rng(23)
    for _ in range(15):
        n = int(rng.integers(1, 7))
        j = random_jacobi(rng, n)
        mu = eigendecompose(j)
        s = moments_from_measure(mu, 2 * n)
        from_measure = jacobi_from_measure(mu, n)
        from_moments = jacobi_from_moments(s, n)
        np.testing.assert_allclose(from_moments.diag, from_measure.diag, atol=1e-8)
        np.testing.assert_allclose(from_moments.offdiag, from_measure.offdiag, atol=1e-8)


def test_bilinear_form_examples():
    s = MomentSequence([1.0, 0.0, 1.0])
    assert moment_bilinear_form(s, [1.0], [1.0]) == 1.0
    assert moment_bilinear_form(s, [0.0, 1.0], [0.0, 1.0]) == 1.0
    assert moment_bilinear_form(s, [1.0], [0.0, 1.0]) == 0.0
    with pytest.raises(ValueError):
        moment_bilinear_form(s, [1.0, 0.0, 1.0], [1.0])


def test_bilinear_form_is_the_measure_integral():
    rng = np.random.default_rng(31)
    for _ in range(10):
        mu = separated_measure(rng, 4, lo=-2.0, hi=2.0, gap=0.2)
        s = moments_from_measure(mu, 7)
        f = rng.uniform(-1, 1, 4)
        g = rng.uniform(-1, 1, 4)
        direct = np.sum(np.polyval(f[::-1], mu.nodes) * np.polyval(g[::-1], mu.nodes) * mu.weights)
        assert abs(moment_bilinear_form(s, f, g) - direct) < 1e-10
