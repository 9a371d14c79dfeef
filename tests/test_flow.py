import math
import tracemalloc

import numpy as np
import pytest

import todaflow.moments
from todaflow import (
    DegenerateMeasureError,
    DiscreteMeasure,
    JacobiMatrix,
    MOMENT_METHOD,
    PoleProximityError,
    TodaTrajectory,
    eigendecompose,
    evolve_moments,
    log_omega,
    moment_recurrence_residual,
    moments_from_measure,
    moser_evolve,
    rk4_toda,
    solve_toda_finite,
    weyl_evolution_residual,
    weyl_function,
)
from todaflow.flow import _evolve_block, _evolved_moments

PM1 = DiscreteMeasure([-1.0, 1.0], [0.5, 0.5])


def random_jacobi(rng, n):
    return JacobiMatrix(diag=rng.uniform(-2, 2, n), offdiag=rng.uniform(0.5, 2, n - 1))


def test_moser_single_node_is_fixed():
    mu = DiscreteMeasure([3.0], [1.0])
    for t in (0.0, 0.7, 25.0):
        out = moser_evolve(mu, t)
        assert out.weights.tolist() == [1.0]


def test_moser_identity_at_t0():
    out = moser_evolve(PM1, 0.0)
    np.testing.assert_array_equal(out.nodes, PM1.nodes)
    np.testing.assert_array_equal(out.weights, PM1.weights)


def test_moser_two_node_closed_form():
    for t in (0.1, 0.5, 2.0):
        out = moser_evolve(PM1, t)
        z = math.exp(-2.0 * t) + math.exp(2.0 * t)
        np.testing.assert_allclose(out.weights, [math.exp(-2.0 * t) / z, math.exp(2.0 * t) / z], rtol=1e-15)


def test_moser_rejects_negative_time():
    with pytest.raises(ValueError):
        moser_evolve(PM1, -0.1)


def test_moser_mass_stays_one_under_extreme_spread():
    # spectral radius 3, t = 50: raw exponents span e^300, the shifted
    # evaluation must still produce unit mass and positive weights
    mu = DiscreteMeasure([-3.0, 0.0, 3.0], [0.2, 0.3, 0.5])
    out = moser_evolve(mu, 50.0)
    assert abs(out.mass - 1.0) < 1e-12
    assert np.all(out.weights > 0.0)


def test_moser_semigroup():
    for t1, t2 in [(0.3, 0.9), (1.0, 2.5)]:
        two_step = moser_evolve(moser_evolve(PM1, t1), t2)
        one_step = moser_evolve(PM1, t1 + t2)
        np.testing.assert_allclose(two_step.weights, one_step.weights, atol=1e-12)


def test_log_omega_examples():
    assert abs(log_omega(PM1, 1.0) - math.log(math.cosh(2.0))) < 1e-14
    assert log_omega(PM1, 0.0) == 0.0
    assert abs(log_omega(DiscreteMeasure([3.0], [1.0]), 2.0) - 12.0) < 1e-14


def test_evolve_moments_identity_at_t0():
    mu = eigendecompose(JacobiMatrix([0.2, -0.4, 1.0], [0.8, 1.1]))
    np.testing.assert_allclose(
        evolve_moments(mu, 0.0, 5).values,
        moments_from_measure(mu, 5).values,
        atol=1e-14,
    )
    for bad in (5.0, True, "5"):
        with pytest.raises(ValueError, match="^count:"):
            evolve_moments(mu, 0.0, bad)


def test_evolve_moments_two_node_closed_form():
    for t in (0.25, 1.0, 3.0):
        s = evolve_moments(PM1, t, 2)
        np.testing.assert_allclose(s.values, [1.0, math.tanh(2.0 * t)], rtol=1e-14)
        full = evolve_moments(PM1, t, 8)
        np.testing.assert_allclose(full.values[::2], np.ones(4), atol=1e-14)
    assert s.time == 3.0


def test_evolve_moments_matches_moser_route():
    rng = np.random.default_rng(13)
    for _ in range(10):
        j = random_jacobi(rng, int(rng.integers(2, 7)))
        mu = eigendecompose(j)
        t = rng.uniform(0.0, 2.0)
        direct = evolve_moments(mu, t, 9).values
        via_measure = moments_from_measure(moser_evolve(mu, t), 9).values
        np.testing.assert_allclose(direct, via_measure, atol=1e-11)


def test_s0_is_exactly_one():
    rng = np.random.default_rng(14)
    j = random_jacobi(rng, 5)
    mu = eigendecompose(j)
    for t in (0.0, 0.5, 5.0, 50.0):
        assert evolve_moments(mu, t, 3).values[0] == 1.0


def test_stacked_moments_equal_the_one_time_call():
    # each row of the stacked accumulator carries the bits of its own time
    rng = np.random.default_rng(23)
    mu = eigendecompose(random_jacobi(rng, 9))
    times = np.concatenate((np.linspace(0.0, 2.0, 21), [50.0]))
    stacked = _evolved_moments(mu, times, 7)
    assert stacked.shape == (times.size, 7)
    for i, t in enumerate(times):
        np.testing.assert_array_equal(stacked[i], evolve_moments(mu, t, 7).values)


def test_recurrence_residual_point_mass():
    mu = DiscreteMeasure([1.7], [1.0])
    resid = moment_recurrence_residual(mu, 0.8, 5, 1e-4)
    assert np.all(resid < 1e-9)


def test_recurrence_residual_two_node():
    resid = moment_recurrence_residual(PM1, 0.5, 4, 1e-4)
    assert np.all(resid < 1e-6)


def test_recurrence_residual_is_second_order():
    resid_h = moment_recurrence_residual(PM1, 0.5, 4, 1e-3)
    resid_half = moment_recurrence_residual(PM1, 0.5, 4, 5e-4)
    ratios = resid_h / resid_half
    assert np.all((ratios > 3.5) & (ratios < 4.5))


def test_recurrence_residual_preconditions():
    with pytest.raises(ValueError):
        moment_recurrence_residual(PM1, 1e-5, 4, 1e-4)
    with pytest.raises(ValueError):
        moment_recurrence_residual(PM1, 0.5, 1, 1e-4)
    for bad in (4.0, True, "4"):
        with pytest.raises(ValueError, match="^count:"):
            moment_recurrence_residual(PM1, 0.5, bad, 1e-4)


def test_solve_constant_for_1x1():
    traj = solve_toda_finite(JacobiMatrix([0.7], []), np.linspace(0.0, 2.0, 9))
    assert all(state.diag[0] == 0.7 for state in traj.states)
    assert traj.method == MOMENT_METHOD


def test_solve_2x2_closed_form():
    j = JacobiMatrix([0.0, 0.0], [1.0])
    times = np.linspace(0.0, 1.0, 11)
    traj = solve_toda_finite(j, times)
    for t, state in zip(times, traj.states):
        assert abs(state.diag[0] - math.tanh(2.0 * t)) < 1e-12
        assert abs(state.diag[1] + math.tanh(2.0 * t)) < 1e-12
        assert abs(state.offdiag[0] - 1.0 / math.cosh(2.0 * t)) < 1e-12


def test_solve_initial_state_is_exact():
    rng = np.random.default_rng(15)
    j = random_jacobi(rng, 6)
    traj = solve_toda_finite(j, np.linspace(0.0, 1.0, 5))
    np.testing.assert_array_equal(traj.states[0].diag, j.diag)
    np.testing.assert_array_equal(traj.states[0].offdiag, j.offdiag)


def test_evolve_block_rows_do_not_depend_on_the_grid():
    # a row's bits do not depend on which other times share the sweep
    rng = np.random.default_rng(21)
    j = random_jacobi(rng, 16)
    mu0 = eigendecompose(j)
    times = np.linspace(0.0, 1.0, 101)
    diag, offdiag = _evolve_block(j, mu0, times, j.n)
    np.testing.assert_array_equal(diag[0], j.diag)
    np.testing.assert_array_equal(offdiag[0], j.offdiag)
    for i in range(1, times.size):
        d, e = _evolve_block(j, mu0, np.array([0.0, times[i]]), j.n)
        np.testing.assert_array_equal(d[1], diag[i])
        np.testing.assert_array_equal(e[1], offdiag[i])


def test_evolve_block_does_not_depend_on_chunking(monkeypatch):
    rng = np.random.default_rng(22)
    j = random_jacobi(rng, 12)
    mu0 = eigendecompose(j)
    times = np.linspace(0.0, 1.0, 41)
    diag, offdiag = _evolve_block(j, mu0, times, j.n)
    # a basis budget of three rows splits the 40 reconstructed rows into 14 chunks
    monkeypatch.setattr(todaflow.moments, "_BASIS_BYTES", 3 * j.n * j.n * 8)
    chunked = _evolve_block(j, mu0, times, j.n)
    np.testing.assert_array_equal(chunked[0], diag)
    np.testing.assert_array_equal(chunked[1], offdiag)


def test_evolve_block_memory_is_bounded():
    # an unchunked (N, T, N) basis at N = 128, T = 1001 would take 131 MB
    j = JacobiMatrix(np.zeros(128), np.full(127, 0.5))
    mu0 = eigendecompose(j)
    times = np.linspace(0.0, 1.0, 1001)
    tracemalloc.start()
    try:
        diag, _ = _evolve_block(j, mu0, times, j.n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert diag.shape == (1001, 128)
    # a 16.8 MB basis chunk, the (T, N) weight stack and the results
    assert peak < 40e6


def test_large_time_reconstruction_still_raises():
    # the t = 50 weights span far more than double precision resolves;
    # the batched sweep must stay loud about it
    rng = np.random.default_rng(0)
    j = random_jacobi(rng, 8)
    with pytest.raises(DegenerateMeasureError, match="numerically supported on fewer than 8 points"):
        solve_toda_finite(j, [0.0, 0.5, 50.0])


def test_trajectory_holds_readonly_arrays():
    traj = TodaTrajectory([0.0, 1.0], [[0.0, 1.0], [0.5, 0.5]], [[1.0], [0.8]], MOMENT_METHOD)
    assert traj.size == 2
    np.testing.assert_array_equal(traj.diag_array(), [[0.0, 1.0], [0.5, 0.5]])
    np.testing.assert_array_equal(traj.states[1].offdiag, [0.8])
    assert not traj.diag.flags.writeable
    assert not traj.offdiag.flags.writeable
    copy = traj.offdiag_array()
    copy[1, 0] = -1.0
    assert traj.offdiag[1, 0] == 0.8


@pytest.mark.parametrize(
    "diag, offdiag, method, reason",
    [
        ([[0.0, 1.0]], [[1.0]], MOMENT_METHOD, "one row per grid time"),
        ([[0.0, 1.0], [0.5, 0.5]], [[1.0, 1.0], [0.8, 0.8]], MOMENT_METHOD, "offdiag must have shape"),
        ([[0.0, 1.0], [0.5, 0.5]], [[1.0], [0.0]], MOMENT_METHOD, "strictly positive"),
        ([[0.0, np.nan], [0.5, 0.5]], [[1.0], [0.8]], MOMENT_METHOD, "finite"),
        ([[0.0, 1.0], [0.5, 0.5]], [[1.0], [0.8]], "euler", "unknown method"),
        ([[0.0, 1.0], [0.5, True]], [[1.0], [0.8]], MOMENT_METHOD, "diag: need real numbers"),
        ([[0.0, 1.0], [0.5, 0.5]], [[1.0], [True]], MOMENT_METHOD, "offdiag: need real numbers"),
    ],
)
def test_trajectory_rejects_malformed_arrays(diag, offdiag, method, reason):
    with pytest.raises(ValueError, match=reason):
        TodaTrajectory([0.0, 1.0], diag, offdiag, method)


def test_solve_requires_grid_from_zero():
    j = JacobiMatrix([0.0, 0.0], [1.0])
    with pytest.raises(ValueError):
        solve_toda_finite(j, [0.5, 1.0])
    with pytest.raises(ValueError):
        solve_toda_finite(j, [0.0, 1.0, 1.0])


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_every_grid_entry_point_rejects_non_finite_times(bad):
    j = JacobiMatrix([0.0, 0.0], [1.0])
    with pytest.raises(ValueError, match="finite"):
        TodaTrajectory([0.0, bad], [[0.0, 0.0], [0.0, 0.0]], [[1.0], [1.0]], MOMENT_METHOD)
    with pytest.raises(ValueError, match="finite"):
        solve_toda_finite(j, [0.0, bad])
    with pytest.raises(ValueError, match="finite"):
        rk4_toda(j, [0.0, bad], 1e-3)


def test_isospectrality_and_conserved_traces():
    rng = np.random.default_rng(16)
    j = random_jacobi(rng, 6)
    lam0 = eigendecompose(j).nodes
    trace0 = np.sum(j.diag)
    trace2_0 = np.sum(j.diag**2) + 2.0 * np.sum(j.offdiag**2)
    traj = solve_toda_finite(j, np.linspace(0.0, 1.5, 7))
    for state in traj.states:
        lam = eigendecompose(state).nodes
        assert np.max(np.abs(lam - lam0)) < 1e-10
        assert abs(np.sum(state.diag) - trace0) < 1e-9
        assert abs(np.sum(state.diag**2) + 2.0 * np.sum(state.offdiag**2) - trace2_0) < 1e-8


def test_weight_ode_holds_along_the_flow():
    # central difference of sigma_k against -(b_1(t) - lam_k) sigma_k
    rng = np.random.default_rng(17)
    j = random_jacobi(rng, 5)
    mu0 = eigendecompose(j)
    t, h = 0.6, 1e-4
    sig_plus = np.sqrt(moser_evolve(mu0, t + h).weights)
    sig_minus = np.sqrt(moser_evolve(mu0, t - h).weights)
    mid = moser_evolve(mu0, t)
    sig_mid = np.sqrt(mid.weights)
    b1 = np.sum(mid.nodes * mid.weights)
    lhs = (sig_plus - sig_minus) / (2.0 * h)
    rhs = -(b1 - mid.nodes) * sig_mid
    assert np.max(np.abs(lhs - rhs)) < 1e-6


def test_weyl_evolution_residual_1x1():
    # for N = 1 the matrix is constant and the law reduces to 0 = 0
    assert weyl_evolution_residual(JacobiMatrix([0.5], []), 3.0, 0.5, 1e-4) < 1e-12


def test_weyl_evolution_residual_2x2():
    j = JacobiMatrix([0.0, 0.0], [1.0])
    assert weyl_evolution_residual(j, 3.0, 0.5, 1e-4) < 1e-6


def test_weyl_evolution_residual_is_second_order():
    j = JacobiMatrix([0.0, 0.0], [1.0])
    r_h = weyl_evolution_residual(j, 3.0, 0.5, 1e-2)
    r_half = weyl_evolution_residual(j, 3.0, 0.5, 5e-3)
    assert 3.5 < r_h / r_half < 4.5


def test_weyl_sign_convention_check_at_n2():
    # the convention check that froze the implementation: the resolvent
    # sign m = -weyl_function satisfies the evolution law (residual -> 0),
    # the raw partial-fraction sign leaves an O(1) defect (4 at N = 1)
    j = JacobiMatrix([0.0, 0.0], [1.0])
    lam, t, h = 3.0, 0.5, 1e-4
    traj = solve_toda_finite(j, np.array([0.0, t - h, t, t + h]))
    m = [weyl_function(state, lam) for state in traj.states[1:]]
    b1 = traj.states[2].diag[0]
    wrong = abs((m[2] - m[0]) / (2.0 * h) - 2.0 * (1.0 - (b1 - lam) * m[1]))
    assert wrong > 1.0
    assert weyl_evolution_residual(j, lam, t, h) < 1e-6
    n1 = JacobiMatrix([0.5], [])
    m1 = weyl_function(n1, lam)
    assert abs(0.0 - 2.0 * (1.0 - (0.5 - lam) * m1) - (-4.0)) < 1e-12


def test_weyl_evolution_residual_requires_spectral_gap():
    j = JacobiMatrix([0.0, 0.0], [1.0])
    with pytest.raises(PoleProximityError):
        weyl_evolution_residual(j, 1.2, 0.5, 1e-4)
    with pytest.raises(ValueError, match="finite"):
        weyl_evolution_residual(j, math.nan, 1.0, 0.1)
