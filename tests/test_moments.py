import math
import re

import numpy as np
import pytest
import scipy.linalg

import todaflow.moments
from todaflow import (
    FINITE_SUPPORT,
    INVALID,
    POSITIVE_DEFINITE,
    DegenerateMeasureError,
    DiscreteMeasure,
    JacobiMatrix,
    MomentSequence,
    NumericalError,
    PositivityError,
    check_moment_positivity,
    eigendecompose,
    jacobi_from_measure,
    jacobi_from_moments,
    make_initial_data,
    moment_bilinear_form,
    moments_from_measure,
    moser_evolve,
    solve_toda_finite,
    solve_toda_semi_infinite,
)
from todaflow.flow import _tilted_log_weights
from todaflow.moments import _stieltjes

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
    # b1 is the first moment: 1e308 * 10 raises where a plain sum read inf
    with pytest.raises(OverflowError, match="double-precision range"):
        moments_from_measure(DiscreteMeasure([1e308], [10.0]), 2)
    # the reconstruction kernel runs at unit scale, so a lattice whose squared
    # entries are past the range solves, as 2^515 times its scaled copy
    j = JacobiMatrix([1e155, -1e155, 5e154], [1e155, 3e154])
    scaled = JacobiMatrix(np.ldexp(j.diag, -515), np.ldexp(j.offdiag, -515))
    big, unit = solve_toda_finite(j, [0.0, 1e-170]), solve_toda_finite(scaled, [0.0, np.ldexp(1e-170, 515)])
    assert np.array_equal(big.diag, np.ldexp(unit.diag, 515))
    assert np.array_equal(big.offdiag, np.ldexp(unit.offdiag, 515))
    # a bilinear form whose terms 1e300 * 1e10 * 1e10 are past the range
    with pytest.raises(OverflowError):
        moment_bilinear_form(MomentSequence([1.0, 1e300, 1e300]), [1e10, 1e10], [1e10, 1e10])


def test_lattices_far_from_unit_scale_solve():
    # the norm floor is relative: these raised DegenerateMeasureError (the
    # first three) or OverflowError when it was absolute
    back = jacobi_from_measure(DiscreteMeasure([-1e-20, 1e-20], [0.5, 0.5]), 2)
    np.testing.assert_allclose(back.diag, [0.0, 0.0], rtol=0, atol=1e-35)
    np.testing.assert_allclose(back.offdiag, [1e-20], rtol=1e-15)
    unit = solve_toda_finite(JacobiMatrix([0.3, -0.2, 0.1], [1.0, 0.5]), [0.0, 0.1])
    for scale in (1e-13, 1e160):
        j = JacobiMatrix(np.multiply(scale, [0.3, -0.2, 0.1]), np.multiply(scale, [1.0, 0.5]))
        traj = solve_toda_finite(j, [0.0, 0.1 / scale])
        np.testing.assert_allclose(traj.diag / scale, unit.diag, rtol=0, atol=1e-14)
        np.testing.assert_allclose(traj.offdiag / scale, unit.offdiag, rtol=0, atol=1e-14)
    times = np.linspace(0.0, 0.1, 5)
    windows = [
        solve_toda_semi_infinite(make_initial_data("linear_b", {"alpha": alpha}), times / alpha, 2, 1e-30, 64)[0]
        for alpha in (1e-14, 1.0)
    ]
    np.testing.assert_allclose(windows[0].diag / 1e-14, windows[1].diag, rtol=0, atol=1e-14)
    np.testing.assert_allclose(windows[0].offdiag / 1e-14, windows[1].offdiag, rtol=0, atol=1e-14)


def test_positivity_classification_examples():
    c = check_moment_positivity(MomentSequence([1.0, 0.0, 1.0, 0.0, 2.0]))
    assert c.kind == POSITIVE_DEFINITE
    # independent oracle: numpy Cholesky succeeds on the 3x3 Hankel
    np.linalg.cholesky(scipy.linalg.hankel([1.0, 0.0, 1.0], [1.0, 0.0, 2.0]))

    c = check_moment_positivity(MomentSequence([1.0, 3.0, 9.0]))
    assert (c.kind, c.order) == (FINITE_SUPPORT, 1)

    c = check_moment_positivity(MomentSequence([1.0, 0.0, -1.0]))
    assert c.kind == INVALID


def test_positivity_of_moments_whose_squares_overflow():
    # the squares and products of these moments are beyond the double range
    c = check_moment_positivity(MomentSequence([1e160, 0.0, 1e160]))
    assert (c.kind, c.order) == (POSITIVE_DEFINITE, 2)


@pytest.mark.parametrize("b, order", [([3.2, 3.3], 2), ([32.0, 33.0], 2), ([3.2e10, 3.3e10], 1)])
def test_positivity_of_two_point_measures_with_spread_moments(b, order):
    # s_0 = 1 lies far below 1e-10 ||S|| of these 30 moments, so a
    # threshold on ||S|| read it as a zero pivot; the smaller weight of the
    # last measure is about 1e-18, so one point is the honest answer there
    s = moments_from_measure(eigendecompose(JacobiMatrix(b, [1.0])), 30)
    c = check_moment_positivity(s)
    assert (c.kind, c.order) == (FINITE_SUPPORT, order)


def test_positivity_rejects_rank_inconsistent_tail():
    # zero pivot with nonzero continuation: no measure has these moments
    c = check_moment_positivity(MomentSequence([1.0, 0.0, 0.0, 0.0, 1.0]))
    assert c.kind == INVALID
    # the same at a scale where s_0 s_4 is beyond the double range
    c = check_moment_positivity(MomentSequence([1e160, 0.0, 0.0, 0.0, 1e160]))
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
    with pytest.raises(ValueError, match=r"^n: need an integer in \[1, 2\], got 3$"):
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


def test_a_center_scaled_past_the_double_range_raises(monkeypatch):
    # the sweep's rounding bound lets a center reach 1 at unit scale, which
    # is inf once multiplied back by 2^1024; no input is known to get there,
    # so a sweep that writes it stands in for one
    sweep = todaflow.moments._stieltjes_sweep

    def sweep_with_a_unit_center(x, log_w, diag, offdiag):
        sweep(x, log_w, diag, offdiag)
        diag[:, 0] = 1.0

    monkeypatch.setattr(todaflow.moments, "_stieltjes_sweep", sweep_with_a_unit_center)
    top = 1.7976931348623157e308
    with pytest.raises(OverflowError, match="^a recurrence center or norm left the double-precision range$"):
        jacobi_from_measure(DiscreteMeasure([-top, top], [0.5, 0.5]), 2)


def test_a_norm_that_underflows_when_scaled_back_raises():
    # the sweep runs on the nodes times 2^1048 and its norm a_1 is 0.0 once
    # multiplied back; 0 is no off-diagonal of a Jacobi matrix
    mu = DiscreteMeasure(np.array([1.0, 2.0, 3.0]) * 1e-316, [1.0, 1e-16, 1e-30])
    with pytest.raises(DegenerateMeasureError, match="^a norm above the floor underflowed to 0"):
        jacobi_from_measure(mu, 3)


def test_subnormal_nodes_never_give_a_nonpositive_off_diagonal():
    # 2^k times the nodes, down to the smallest subnormal: a reconstruction
    # returns positive norms or raises, from a measure and from a lattice
    def raises(make):
        try:
            offdiag = make().offdiag
        except NumericalError:
            return True
        assert (offdiag > 0.0).all()
        return False

    mu = DiscreteMeasure([1.0, 2.0, 3.0], [1.0, 1e-16, 1e-30])
    j = jacobi_from_measure(mu, 3)
    raised = 0
    for k in range(-1000, -1075, -1):
        raised += raises(lambda: jacobi_from_measure(DiscreteMeasure(np.ldexp(mu.nodes, k), mu.weights), 3))
        offdiag = np.ldexp(j.offdiag, k)
        if offdiag.all():
            times = np.ldexp([0.0, 1.0, 2.0], min(-k, 1000))
            raises(lambda: solve_toda_finite(JacobiMatrix(np.ldexp(j.diag, k), offdiag), times))
    assert raised


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
    # the kernel runs in unit-vector coordinates and sums in another
    # order, so agreement is to roundoff, amplified by at most the
    # recurrence's conditioning at these sizes
    tol = 1e4 * np.finfo(float).eps
    rng = np.random.default_rng(20)
    for _ in range(40):
        n = int(rng.integers(1, 17))
        mu = eigendecompose(random_jacobi(rng, n))
        got = jacobi_from_measure(mu, n)
        diag, offdiag = lanczos_reference(mu, n)
        np.testing.assert_allclose(got.diag, diag, rtol=0, atol=tol)
        np.testing.assert_allclose(got.offdiag, offdiag, rtol=0, atol=tol)
    # stacks of evolved weights, full and leading blocks: the random
    # lattices up to N = 16 and constant-data truncations at N = 32 and
    # 64, whose weights are accurate at those sizes
    lattices = [random_jacobi(rng, int(rng.integers(2, 17))) for _ in range(6)]
    lattices += [JacobiMatrix(np.full(size, rng.uniform(-1, 1)), np.full(size - 1, rng.uniform(0.5, 1.5)))
                 for size in (32, 64)]
    for j in lattices:
        mu = eigendecompose(j)
        log_weights = _tilted_log_weights(mu, np.sort(rng.uniform(0.0, 2.0, 5)))
        for n in (j.n, max(1, j.n // 3)):
            diag, offdiag = _stieltjes(mu.nodes, log_weights, n)
            for row, w in enumerate(log_weights):
                ref_diag, ref_offdiag = lanczos_reference(DiscreteMeasure(mu.nodes, np.exp(w - w.max())), n)
                np.testing.assert_allclose(diag[row], ref_diag, rtol=0, atol=tol)
                np.testing.assert_allclose(offdiag[row], ref_offdiag, rtol=0, atol=tol)


def test_kernel_stays_within_a_bound_set_by_the_cgs2_kernel():
    # Large blocks, where the three-term recurrence with a whole-basis pass
    # only on the steps that can lose orthogonality has to do what two
    # passes on every step did: error against the compensated loop in
    # units of eps * max |entry|.  Two passes on every step reached 9.1e3
    # on these cases, one pass on every step 8.3e3 and the partial rule
    # 1.5e4; plain three-term Lanczos is off by O(1) at N = 64.
    bound = 4e4 * np.finfo(float).eps
    times = np.array([0.0, 0.5, 1.0])
    cases = [(random_jacobi(np.random.default_rng(seed), n), (n,)) for n in (64, 256) for seed in range(5)]
    cases.append((JacobiMatrix(np.zeros(200), np.arange(1.0, 200.0)), (4, 64, 100)))
    for j, sizes in cases:
        mu = eigendecompose(j)
        log_weights = _tilted_log_weights(mu, times)
        for n in sizes:
            diag, offdiag = _stieltjes(mu.nodes, log_weights, n)
            for row, t in enumerate(times.tolist()):
                ref_diag, ref_offdiag = lanczos_reference(moser_evolve(mu, t), n)
                tol = bound * max(np.max(np.abs(ref_diag)), np.max(ref_offdiag, initial=0.0))
                np.testing.assert_allclose(diag[row], ref_diag, rtol=0, atol=tol)
                np.testing.assert_allclose(offdiag[row], ref_offdiag, rtol=0, atol=tol)
    # and it runs out of support past the reach of its log-weight start:
    # random N = 1024 has weights down to 1e-874
    rng = np.random.default_rng(0)
    b = rng.uniform(-2, 2, 1024)
    j = JacobiMatrix(b, rng.uniform(0.5, 2, 1023))
    with pytest.raises(DegenerateMeasureError, match="at step 1018;"):
        jacobi_from_measure(eigendecompose(j), 1024)


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


def test_jacobi_from_moments_refuses_a_pivot_at_its_floor():
    # 3.3e-6 off its lattice when it was returned with a warning
    rng = np.random.default_rng(5)
    j = random_jacobi(rng, 12)
    s = moments_from_measure(eigendecompose(j), 24)
    message = (
        "Hankel row 9: pivot / s_16 = 1.648e-06, at or below the floor 1e-05; "
        "the measure is numerically supported on fewer than 12 points"
    )
    with pytest.raises(DegenerateMeasureError, match=f"^{re.escape(message)}$"):
        jacobi_from_moments(s, 12)


def _moment_test_lattices():
    # (family, n, seed, lattice): the deterministic families once, the
    # random ones (b drawn first) on seeds 0-2
    for n in range(1, 17):
        k = np.arange(1.0, n)
        yield "free", n, 0, JacobiMatrix(np.zeros(n), np.ones(n - 1))
        yield "a_n = n", n, 0, JacobiMatrix(np.zeros(n), k)
        yield "hermite", n, 0, JacobiMatrix(np.zeros(n), np.sqrt(k / 2.0))
        for seed in range(3):
            rng = np.random.default_rng(seed)
            yield "narrow", n, seed, JacobiMatrix(rng.uniform(-0.5, 0.5, n), rng.uniform(0.3, 0.9, n - 1))
            yield "random", n, seed, random_jacobi(np.random.default_rng(seed), n)


def test_jacobi_from_moments_is_right_or_raises():
    # every block returned is within 1e-8 of its lattice, relative to its
    # largest entry; the SVD condition estimate let narrow n = 14 through
    # 6.9e-6 off without a warning
    refused = set()
    for family, n, seed, j in _moment_test_lattices():
        s = moments_from_measure(eigendecompose(j), 2 * n)
        try:
            got = jacobi_from_moments(s, n)
        except DegenerateMeasureError:
            refused.add((family, n, seed))
            continue
        # a zero lattice (n = 1, b = 0) is held to the absolute error
        scale = max(np.abs(j.diag).max(), j.offdiag.max(initial=0.0)) or 1.0
        error = max(np.abs(got.diag - j.diag).max(), np.abs(got.offdiag - j.offdiag).max(initial=0.0))
        assert error <= 1e-8 * scale, (family, n, seed, error / scale)
    assert ("narrow", 14, 0) in refused and ("free", 12, 0) not in refused
    assert not any(n <= 6 for _, n, _ in refused)


def test_positivity_of_a_sequence_whose_factor_overflows():
    # s_4 < 0, but 0 * inf in the factor made the last pivot NaN, which
    # passed the test `pivot <= floor`, and the sequence read as positive definite
    s = MomentSequence([5.084642699363952e-216, 0.0, 4.343882359165498e254, 1.7633250638410918e249, -3.6065621767812175e177])
    with pytest.raises(OverflowError, match="^Hankel row 3: the pivot is NaN"):
        check_moment_positivity(s)


def test_positivity_of_spread_random_sequences():
    # moments over the whole double range, random signs and zeros: no
    # RuntimeWarning (an error in this suite), and a sequence with a
    # negative even moment is never positive definite or finite support
    rng = np.random.default_rng(11)
    kinds = set()
    for _ in range(3000):
        size = int(rng.integers(3, 10))
        values = 10.0 ** rng.uniform(-320, 308, size) * rng.choice([-1.0, 0.0, 1.0], size, p=[0.4, 0.2, 0.4])
        values[0] = abs(values[0]) or 1.0
        try:
            c = check_moment_positivity(MomentSequence(values))
        except OverflowError:
            kinds.add("overflow")
            continue
        kinds.add(c.kind)
        if c.kind != INVALID:
            assert (values[::2] >= 0.0).all(), values
    assert kinds == {POSITIVE_DEFINITE, FINITE_SUPPORT, INVALID, "overflow"}


def test_jacobi_from_moments_overflow_is_numerical():
    # a valid sequence whose b_2 lies past the double range
    with pytest.raises(OverflowError, match="left the double-precision range"):
        jacobi_from_moments(MomentSequence([1.0, 0.0, 1e-10, 1.7e308]), 2)


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
    assert moment_bilinear_form(s, [], []) == 0.0
    with pytest.raises(ValueError):
        moment_bilinear_form(s, [1.0, 0.0, 1.0], [1.0])


def test_bilinear_form_refuses_a_2d_polynomial():
    with pytest.raises(ValueError, match="^f: need a 1-d array, got 2-d$"):
        moment_bilinear_form(MomentSequence([1.0, 0.0, 1.0]), [[1.0, 2.0]], [1.0])


def test_bilinear_form_is_the_measure_integral():
    rng = np.random.default_rng(31)
    for _ in range(10):
        mu = separated_measure(rng, 4, lo=-2.0, hi=2.0, gap=0.2)
        s = moments_from_measure(mu, 7)
        f = rng.uniform(-1, 1, 4)
        g = rng.uniform(-1, 1, 4)
        direct = np.sum(np.polyval(f[::-1], mu.nodes) * np.polyval(g[::-1], mu.nodes) * mu.weights)
        assert abs(moment_bilinear_form(s, f, g) - direct) < 1e-10
