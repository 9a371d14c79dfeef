import hashlib
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import todaflow.flow
import todaflow.jacobi
import todaflow.moments
from todaflow import (
    DegenerateMeasureError,
    DiscreteMeasure,
    EigenConvergenceError,
    JacobiMatrix,
    OverlapError,
    PoleProximityError,
    TodaTrajectory,
    compare_trajectories,
    eigendecompose,
    jacobi_from_measure,
    evolve_moments,
    log_omega,
    moment_recurrence_residual,
    moments_from_measure,
    moser_evolve,
    make_initial_data,
    rk4_toda,
    solve_toda_finite,
    solve_toda_semi_infinite,
    weyl_evolution_residual,
    weyl_function,
)
from todaflow.flow import _evolve_lattice, _evolved_moments, _tilted_log_weights
from todaflow.jacobi import _spectral_measures, _unchecked, _weighted_sums
from todaflow.moments import _stieltjes

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
    assert abs(moments_from_measure(out, 1).values[0] - 1.0) < 1e-12
    assert np.all(out.weights > 0.0)


def test_moser_raises_when_2_lambda_t_overflows():
    # 2 * 1e308 is beyond the double range; the weights would read NaN
    with pytest.raises(OverflowError, match="2 lambda t"):
        moser_evolve(PM1, 1e308)
    with pytest.raises(OverflowError, match="2 lambda t"):
        evolve_moments(DiscreteMeasure([0.0, 1e200], [0.5, 0.5]), 1e200, 3)
    with pytest.raises(OverflowError, match="2 lambda t"):
        log_omega(PM1, 1e308)
    # 2 t max|lambda| = 1.6e308 is in range, but the spread 2 t (1 - (-1))
    # that subtracting the maximum reaches is not; it gave a zero weight
    for evolve in (moser_evolve, log_omega, lambda mu, t: evolve_moments(mu, t, 3)):
        with pytest.raises(OverflowError, match="2 lambda t"):
            evolve(PM1, 8e307)
    assert np.all(np.isfinite(moser_evolve(PM1, 4e307).log_weights))


def test_moser_semigroup():
    for t1, t2 in [(0.3, 0.9), (1.0, 2.5)]:
        two_step = moser_evolve(moser_evolve(PM1, t1), t2)
        one_step = moser_evolve(PM1, t1 + t2)
        np.testing.assert_allclose(two_step.weights, one_step.weights, atol=1e-12)


def test_log_omega_examples():
    assert abs(log_omega(PM1, 1.0) - math.log(math.cosh(2.0))) < 1e-14
    assert log_omega(PM1, 0.0) == 0.0
    assert abs(log_omega(DiscreteMeasure([3.0], [1.0]), 2.0) - 12.0) < 1e-14


def test_moser_log_weights_are_the_tilt_less_log_omega():
    # Omega comes from one accumulator: the evolved log weights are the tilt
    # less log_omega, bit for bit, and log_omega is evolve_moments' s_0 shift
    rng = np.random.default_rng(31)
    for _ in range(20):
        mu = eigendecompose(random_jacobi(rng, int(rng.integers(2, 40))))
        for t in (0.3, 1.0, 5.0, 50.0):
            expected = _tilted_log_weights(mu, t) - log_omega(mu, t)
            np.testing.assert_array_equal(moser_evolve(mu, t).log_weights, expected)
            assert log_omega(mu, t) == _evolved_moments(mu, t, 1)[1]


def test_import_and_solves_leave_scipy_special_and_linalg_unloaded():
    # log-sum-exp is taken in numpy and dstemr comes from scipy's compiled
    # wrapper alone; scipy.special or scipy.linalg's package init would only
    # add import time and memory to every run, so neither may come in at
    # import or lazily inside a solver
    env = dict(os.environ, PYTHONPATH=str(Path(todaflow.moments.__file__).parents[1]))
    code = """
import sys, todaflow as td, todaflow.cli
j = td.JacobiMatrix([0.0, 0.5, -0.5], [1.0, 0.5])
td.solve_toda_finite(j, [0.0, 0.5, 1.0])
td.solve_toda_semi_infinite(td.make_initial_data("linear_b"), [0.0, 0.5], 1, 1e-8, 16)
td.jacobi_from_moments(td.moments_from_measure(td.eigendecompose(j), 6), 3)
print(sorted(name for name in ("scipy.special", "scipy.linalg") if name in sys.modules))
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.strip() == "[]"


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


def test_evolve_moments_matches_moser_route():
    rng = np.random.default_rng(13)
    for _ in range(10):
        j = random_jacobi(rng, int(rng.integers(2, 7)))
        mu = eigendecompose(j)
        t = rng.uniform(0.0, 2.0)
        direct = evolve_moments(mu, t, 9).values
        via_measure = moments_from_measure(moser_evolve(mu, t), 9).values
        np.testing.assert_allclose(direct, via_measure, atol=1e-11)


def test_evolve_moments_raises_where_a_term_leaves_the_double_range():
    # moser_evolve forms no power of a node, so it returns on these nodes
    # near 1e100, whose 4th powers are past the double range
    mu = eigendecompose(JacobiMatrix([1e100, 2e100, 3e100], [1e99, 1e99]))
    assert np.all(np.isfinite(moser_evolve(mu, 0.0).weights))
    with pytest.raises(OverflowError, match=r"^\|node\|\^k \* weight for some k < 5 left the double-precision range$"):
        evolve_moments(mu, 0.0, 5)


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
    stacked = _evolved_moments(mu, times, 7)[0]
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
    # t + h and t - h both round to t: every difference would read 0
    with pytest.raises(ValueError, match="^h: 1.0 is below the spacing of doubles"):
        moment_recurrence_residual(PM1, 1e307, 3, 1.0)
    # only t + h rounds to t
    with pytest.raises(ValueError, match="^h:"):
        moment_recurrence_residual(PM1, 1.0, 3, 1e-16)
    for bad in (4.0, True, "4"):
        with pytest.raises(ValueError, match="^count:"):
            moment_recurrence_residual(PM1, 0.5, bad, 1e-4)


def test_solve_constant_for_1x1():
    traj = solve_toda_finite(JacobiMatrix([0.7], []), np.linspace(0.0, 2.0, 9))
    assert all(state.diag[0] == 0.7 for state in traj.states)


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


def test_one_time_grid_returns_the_initial_state():
    j = random_jacobi(np.random.default_rng(16), 6)
    traj = solve_toda_finite(j, [0.0])
    np.testing.assert_array_equal(traj.diag, [j.diag])
    np.testing.assert_array_equal(traj.offdiag, [j.offdiag])


def one_ended(j, first, times, size):
    # the leading size x size block at every grid time as the semi-infinite
    # solver builds it: j's own at t = 0 above one front-end sweep of the rest
    d, e = _stieltjes(first.nodes, _tilted_log_weights(first, times[1:]), size)
    return np.vstack((j.diag[:size], d)), np.vstack((j.offdiag[: size - 1], e))


def both_routes(j):
    # the grid -> (diag, offdiag) maps of the one-ended route, which the
    # semi-infinite windows take, and of the two-ended one of whole lattices
    first, last = _spectral_measures(j, last=True)
    return (
        lambda times: one_ended(j, first, times, j.n),
        lambda times: _evolve_lattice(j, first, last, times),
    )


def test_evolve_block_rows_do_not_depend_on_the_grid():
    # a row's bits do not depend on which other times share the sweep
    rng = np.random.default_rng(21)
    j = random_jacobi(rng, 16)
    times = np.linspace(0.0, 1.0, 101)
    for evolve in both_routes(j):
        diag, offdiag = evolve(times)
        np.testing.assert_array_equal(diag[0], j.diag)
        np.testing.assert_array_equal(offdiag[0], j.offdiag)
        for i in range(1, times.size):
            d, e = evolve(np.array([0.0, times[i]]))
            np.testing.assert_array_equal(d[1], diag[i])
            np.testing.assert_array_equal(e[1], offdiag[i])


def test_evolve_block_does_not_depend_on_chunking(monkeypatch):
    rng = np.random.default_rng(22)
    j = random_jacobi(rng, 12)
    times = np.linspace(0.0, 1.0, 41)
    for evolve in both_routes(j):
        diag, offdiag = evolve(times)
        # a budget of three rows of 12 steps, which the sweep's four work
        # buffers share with the basis, splits the 40 rows of the one-ended
        # route into 20 chunks and the 80 rows of 6 steps of the two-ended
        # route into 27
        with monkeypatch.context() as patch:
            patch.setattr(todaflow.moments, "_CHUNK_BYTES", 3 * j.n * j.n * 8)
            chunked = evolve(times)
        np.testing.assert_array_equal(chunked[0], diag)
        np.testing.assert_array_equal(chunked[1], offdiag)


def projected_row_steps(monkeypatch):
    # counts, per call of the whole-basis pass, the rows it projects and
    # the rows of the sweep
    calls = []
    reorthogonalize = todaflow.moments._reorthogonalize

    def counting(span, v, project, *rest):
        calls.append((np.count_nonzero(project), project.size))
        return reorthogonalize(span, v, project, *rest)

    monkeypatch.setattr(todaflow.moments, "_reorthogonalize", counting)
    return calls


def test_each_row_is_its_own_sweep_where_rows_project_apart(monkeypatch):
    # at N = 12 and 16 rows take the whole-basis pass on at most three late
    # steps, so the two tests above see little of a rule that read other
    # rows; at N = 64 the rows split on 12 to 28 steps, and every row,
    # chunked or not, is still bitwise its sweep over the one time alone
    j = random_jacobi(np.random.default_rng(25), 64)
    times = np.linspace(0.0, 1.0, 41)
    for evolve in both_routes(j):
        with monkeypatch.context() as patch:
            calls = projected_row_steps(patch)
            diag, offdiag = evolve(times)
        assert any(0 < projected < rows for projected, rows in calls)
        with monkeypatch.context() as patch:
            patch.setattr(todaflow.moments, "_CHUNK_BYTES", 3 * j.n * j.n * 8)
            chunked = evolve(times)
        np.testing.assert_array_equal(chunked[0], diag)
        np.testing.assert_array_equal(chunked[1], offdiag)
        for i in range(1, times.size):
            d, e = evolve(np.array([0.0, times[i]]))
            np.testing.assert_array_equal(d[1], diag[i])
            np.testing.assert_array_equal(e[1], offdiag[i])


def test_rows_take_the_whole_basis_pass_only_on_some_steps(monkeypatch):
    # the two-ended N = 16 sweep has 200 rows of 8 steps and projects none
    # of those 1600 row-steps; the N = 64 one projects 1200 of 6400 in 13
    # passes.  Both counts are the rule's own, so a sweep that skips its
    # bookkeeping on quiet steps must take exactly the same decisions
    times = np.linspace(0.0, 1.0, 101)
    for n, row_steps, passes in ((16, 0, 0), (64, 1200, 13)):
        j = random_jacobi(np.random.default_rng(0), n)
        with monkeypatch.context() as patch:
            calls = projected_row_steps(patch)
            solve_toda_finite(j, times)
        assert sum(count for count, _ in calls) == row_steps
        assert len(calls) == passes
        assert row_steps < 0.5 * 2 * (times.size - 1) * ((n + 1) // 2)


def test_evolve_block_memory_is_bounded():
    # an unchunked (N, T, N) basis at N = 128, T = 1001 would take 131 MB,
    # and the two-ended (2 T, N / 2, N) one 131 MB
    j = JacobiMatrix(np.zeros(128), np.full(127, 0.5))
    times = np.linspace(0.0, 1.0, 1001)
    for evolve in both_routes(j):
        tracemalloc.start()
        try:
            diag, _ = evolve(times)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert diag.shape == (1001, 128)
        # a 16.8 MB basis chunk, the weight stack and the results
        assert peak < 40e6


def test_evolved_moment_sums_hold_bounded_memory():
    # 1000 moments of 1024 nodes at 11 times, as the report of a CLI run
    # with m = 500 sums them: all 11 x 1000 x 1024 terms at once, listed as
    # Python floats, peaked at 550 MB; the 8 MB power table stays whole
    mu = eigendecompose(JacobiMatrix(np.zeros(1024), np.full(1023, 0.25)))
    times = np.linspace(0.0, 1.0, 11)
    tracemalloc.start()
    try:
        sums = _evolved_moments(mu, times, 1000)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 80e6
    # each entry is still one math.fsum over its row of terms
    tilt = _tilted_log_weights(mu, times)
    tilt -= tilt.max(axis=-1, keepdims=True)
    weights = np.exp(tilt)
    with np.errstate(over="ignore"):
        powers = np.vander(mu.nodes, 1000, increasing=True).T
    for i, k in ((0, 0), (0, 999), (5, 1), (10, 500), (10, 998)):
        s0 = math.fsum(weights[i].tolist())
        assert sums[i, k] == math.fsum((powers[k] * weights[i]).tolist()) / s0


def test_moment_sums_chunks_do_not_change_the_sums(monkeypatch):
    # semi_infinite_floor's report sums 6 moments of 64 nodes at 11 times,
    # 66 rows of 64 terms: one chunk; summed a weight row at a time, the
    # sums are the same, and _weighted_sums checks every term of its stack
    # before it sums any, so a sum past the double range in the first row
    # still gives way to an inf term in a later one
    mu = eigendecompose(JacobiMatrix(np.full(64, 0.3), np.full(63, 0.9)))
    times = np.linspace(0.0, 4.0, 11)
    assert times.size * 6 * mu.nodes.size * 8 <= todaflow.moments._CHUNK_BYTES
    whole = _evolved_moments(mu, times, 6)[0]
    monkeypatch.setattr(todaflow.moments, "_CHUNK_BYTES", 1)
    np.testing.assert_array_equal(_evolved_moments(mu, times, 6)[0], whole)
    table = np.ones((1, 2))
    big = np.array([[1e308, 1e308], [1.0, 1.0]])
    with pytest.raises(OverflowError, match="intermediate overflow in fsum"):
        _weighted_sums(table, big, "a term")
    with pytest.raises(OverflowError, match="a term left the double-precision range"):
        _weighted_sums(table, np.vstack([big, [1.0, np.inf]]), "a term")


@pytest.mark.parametrize(
    "nodes, weights, times, count, message",
    [
        (
            np.array([-2.0, 0.5, 3.0]) * 1e154,
            [0.2, 0.3, 0.5],
            np.linspace(0.0, 1e-300, 7),
            3,
            r"\|node\|\^k \* weight for some k < 3 left the double-precision range",
        ),
        ([1e308, 1.5e308], [0.5, 0.5], np.array([0.0, 1e-320, 2e-320]), 2, "intermediate overflow in fsum"),
    ],
)
def test_moment_sums_chunks_do_not_change_the_error(monkeypatch, nodes, weights, times, count, message):
    # the stacked weights are at most 1, so a term leaves the double range
    # in every row or in none: a row per chunk raises what one chunk does
    mu = DiscreteMeasure(nodes, weights)
    with pytest.raises(OverflowError) as whole:
        _evolved_moments(mu, times, count)
    monkeypatch.setattr(todaflow.moments, "_CHUNK_BYTES", 1)
    with pytest.raises(OverflowError, match=message) as chunked:
        _evolved_moments(mu, times, count)
    assert str(chunked.value) == str(whole.value)


def test_two_ended_top_rows_are_the_one_ended_block():
    # each end runs q = (N + 1) // 2 steps: the front's centers b_1..b_q are
    # bitwise those of the one-ended leading q x q block and a_1..a_{q-1}
    # its norms; the rest agree with the one-ended full reconstruction to
    # roundoff, and a one-node lattice is j0 at every time
    times = np.linspace(0.0, 1.0, 11)
    for n in (1, 2, 3, 7, 16, 17):
        j = random_jacobi(np.random.default_rng(n), n)
        first, last = _spectral_measures(j, last=True)
        q = (n + 1) // 2
        diag, offdiag = _evolve_lattice(j, first, last, times)
        top_diag, top_offdiag = one_ended(j, first, times, q)
        np.testing.assert_array_equal(diag[:, :q], top_diag)
        np.testing.assert_array_equal(offdiag[:, : q - 1], top_offdiag)
        full_diag, full_offdiag = one_ended(j, first, times, n)
        np.testing.assert_allclose(diag, full_diag, rtol=0, atol=1e-12)
        np.testing.assert_allclose(offdiag, full_offdiag, rtol=0, atol=1e-12)
    j = random_jacobi(np.random.default_rng(1), 1)
    traj = solve_toda_finite(j, times)
    np.testing.assert_array_equal(traj.diag, np.tile(j.diag, (times.size, 1)))
    assert traj.offdiag.shape == (times.size, 0)


def test_two_ended_solve_takes_no_pass_at_its_last_step(monkeypatch):
    # both ends run (N + 1) // 2 steps and record as many norms; the last
    # step forms no next vector, so no whole-basis pass spans all of its
    # basis (a pass on step k spans k vectors)
    times = np.linspace(0.0, 1.0, 41)
    stieltjes = todaflow.flow._stieltjes
    reorthogonalize = todaflow.moments._reorthogonalize
    for n in (2, 3, 16, 17, 64):
        sweeps, spans = [], []

        def sweeping(nodes, log_weights, steps, **options):
            diag, offdiag = stieltjes(nodes, log_weights, steps, **options)
            sweeps.append((steps, offdiag.shape[1]))
            return diag, offdiag

        def projecting(span, *rest):
            spans.append(span.shape[0])
            return reorthogonalize(span, *rest)

        with monkeypatch.context() as patch:
            patch.setattr(todaflow.flow, "_stieltjes", sweeping)
            patch.setattr(todaflow.moments, "_reorthogonalize", projecting)
            solve_toda_finite(random_jacobi(np.random.default_rng(0), n), times)
        q = (n + 1) // 2
        assert sweeps == [(q, q)]
        assert all(span < q for span in spans), (n, spans)
        # the rule still projects on earlier steps where it must
        assert spans or n < 17


def test_overlap_check_catches_a_wrong_back_end():
    # the check can fail: the back end tilted by +2 lam t instead of
    # -2 lam t (log w' + 4 lam t, less the route's 2 lam t), or fed the
    # front end's measure, rebuilds another lattice's bottom rows; both
    # ends rebuild a_q, q = (N + 1) // 2
    t = 0.5
    times = np.array([0.0, t])
    for n, q in ((16, 8), (17, 9)):
        j = random_jacobi(np.random.default_rng(24), n)
        first, last = _spectral_measures(j, last=True)
        _evolve_lattice(j, first, last, times)
        flipped = _unchecked(
            DiscreteMeasure, nodes=last.nodes, log_weights=last.log_weights + 4.0 * t * last.nodes
        )
        for back in (flipped, first):
            with pytest.raises(OverlapError, match=f"disagree by .* on a_{q} at t = 0.5"):
                _evolve_lattice(j, first, back, times)


def test_large_time_reconstruction_still_raises():
    # the t = 50 weights span far more than double precision resolves;
    # the batched sweep must stay loud about it.  Each end runs
    # (N + 1) // 2 = 4 of the N = 8 steps and records 4 norms, for which
    # its measure needs 5 points, and it is supported on fewer
    rng = np.random.default_rng(0)
    j = random_jacobi(rng, 8)
    with pytest.raises(DegenerateMeasureError, match="numerically supported on fewer than 5 points"):
        solve_toda_finite(j, [0.0, 0.5, 50.0])


@pytest.mark.parametrize("n", [32, 64, 256])
def test_random_lattices_match_rk4(n):
    # the CLI random distribution on 11 times in [0, 1]: with weights from
    # LAPACK dstev, accurate only in absolute terms, 4 of these 20 lattices
    # at N = 32 and all 20 at N = 64 came back wrong without raising
    times = np.linspace(0.0, 1.0, 11)
    for seed in range(20):
        j = random_jacobi(np.random.default_rng(seed), n)
        deviation = compare_trajectories(solve_toda_finite(j, times), rk4_toda(j, times, 1e-3))
        assert deviation <= 1e-6, (seed, deviation)


def test_random_n512_matches_rk4():
    # weights down to 1e-463: below the double range, but not their square
    # roots, from which the reconstruction starts (it raised at step 504
    # when it started from the weights themselves)
    times = np.array([0.0, 0.5, 1.0])
    for seed in range(5):
        j = random_jacobi(np.random.default_rng(seed), 512)
        deviation = compare_trajectories(solve_toda_finite(j, times), rk4_toda(j, times, 1e-3))
        assert deviation <= 1e-6, (seed, deviation)
        back = jacobi_from_measure(eigendecompose(j), 512)
        error = max(np.max(np.abs(back.diag - j.diag)), np.max(np.abs(back.offdiag - j.offdiag)))
        assert error <= 1e-9, (seed, error)


def test_round_trip_at_n64_is_at_roundoff():
    # was 1.2 to 3.2 off with dstev weights
    for seed in range(20):
        j = random_jacobi(np.random.default_rng(seed), 64)
        back = jacobi_from_measure(eigendecompose(j), 64)
        error = max(np.max(np.abs(back.diag - j.diag)), np.max(np.abs(back.offdiag - j.offdiag)))
        assert error <= 1e-10, (seed, error)


def digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()[:16]


# SHA-256 prefixes of the one-ended outputs (numpy 2.4 and the OpenBLAS and
# LAPACK of scipy 1.17 on x86-64; another BLAS or LAPACK build may round
# differently and must record its own).  The eigendecompose entries are as
# the one-ended solver gave them, before the finite solver went two-ended;
# the semi-infinite ones were recorded when the sweep went from complete to
# partial reorthogonalization, from outputs within 1.6e-13 max |lambda| of
# the complete kernel's, and the jacobi_from_measure ones when the last
# step stopped taking the whole-basis pass, from outputs within 1.2e-16
# max |lambda| of the partial kernel's
ONE_ENDED_DIGESTS = {
    "eigendecompose 16": "16d6d9cb05854457",
    "jacobi_from_measure 16": "8aaefe52a75f2f0f",
    "eigendecompose 256": "08d46e86d76cbe0b",
    "jacobi_from_measure 256": "c5bbff7a2e778279",
    "eigendecompose 1024": "4aff867a68f339cc",
    "semi_infinite linear_b": "dd79b6d6501af891",
    "semi_infinite linear_b beta 0": "372e66d45cd83d77",
}


def test_one_ended_outputs_are_bitwise_unchanged():
    # eigendecompose, jacobi_from_measure and the semi-infinite windows and
    # reports never take the two-ended route
    got = {}
    for n in (16, 256, 1024):
        j = random_jacobi(np.random.default_rng(0), n)
        mu = eigendecompose(j)
        got[f"eigendecompose {n}"] = digest(mu.nodes, mu.log_weights)
        if n < 1024:
            back = jacobi_from_measure(mu, n)
            got[f"jacobi_from_measure {n}"] = digest(back.diag, back.offdiag)
    for name, params, t_end, m, tol, n_max in (
        ("linear_b", {"beta": -1.0, "alpha": 1.0}, 1.0, 3, 1e-10, 32),
        ("linear_b beta 0", {"alpha": 1.0}, 4.0, 3, 1e-15, 256),
    ):
        times = np.linspace(0.0, t_end, 11)
        window, report = solve_toda_semi_infinite(make_initial_data("linear_b", params), times, m, tol, n_max)
        got[f"semi_infinite {name}"] = digest(
            window.diag, window.offdiag, *report.diag_history, *report.offdiag_history,
            report.moments, report.deviations, report.spectral_maxima,
        )
    assert got == ONE_ENDED_DIGESTS


# SHA-256 prefixes of solve_toda_finite's diag and offdiag on random data,
# seed 0, at 101 times on [0, 1] (same build caveat as above): N = 16 is the
# finite_dense_grid benchmark's shape, N = 17 has an odd number of rows and
# N = 64 has rows that project onto their whole basis.  Recorded when the
# two ends went to meet at a_q, q = (N + 1) // 2, from outputs within
# 2.4e-15, 1.5e-15 and 1.8e-13 max |lambda| of those of the ends that met
# at b_{N // 2 + 1}
TWO_ENDED_DIGESTS = {16: "1fb991b5f98ae164", 17: "e0973617d89884be", 64: "ccbc57f0a509022b"}


def test_two_ended_outputs_are_bitwise_unchanged():
    times = np.linspace(0.0, 1.0, 101)
    got = {}
    for n in TWO_ENDED_DIGESTS:
        traj = solve_toda_finite(random_jacobi(np.random.default_rng(0), n), times)
        got[n] = digest(traj.diag, traj.offdiag)
    assert got == TWO_ENDED_DIGESTS


@pytest.mark.parametrize("n", [768, 1024])
def test_two_ended_route_reaches_n1024(n):
    # one end alone ran out of support at random N = 768 (seed 1, step 767)
    # and N = 1024 (steps 1005-1018); N = 512 is test_random_n512_matches_rk4
    times = np.array([0.0, 0.5, 1.0])
    for seed in range(5):
        j = random_jacobi(np.random.default_rng(seed), n)
        deviation = compare_trajectories(solve_toda_finite(j, times), rk4_toda(j, times, 1e-3))
        assert deviation <= 1e-6, (seed, deviation)


def test_random_n1536_raises_the_overlap_error():
    # past the reach of double precision the two ends disagree by O(1)
    # without any Lanczos breakdown; the lattice came out 3.1 off RK4 with
    # the check bypassed
    j = random_jacobi(np.random.default_rng(0), 1536)
    with pytest.raises(OverlapError, match="N = 1536 lattice"):
        solve_toda_finite(j, [0.0, 1.0])


def wilkinson(n):
    # W+ of odd size n: b_i = |m - i| about the middle row m, a = 1; its
    # top eigenvalues pair up, with gaps 4.0e-8 at n = 15 and 7.1e-14 at 21
    m = (n - 1) // 2
    return JacobiMatrix(np.abs(m - np.arange(n)).astype(float), np.ones(n - 1))


def test_close_pairs_below_the_separation_check_still_raise():
    # at n = 21 a weight's error grows like eps / gap, and the lattice came
    # out 0.02 off with the check bypassed, accurate weights or not
    with pytest.raises(EigenConvergenceError, match="relative separation 1e-12"):
        eigendecompose(wilkinson(21))


def test_close_pairs_above_the_separation_check_match_rk4():
    times = np.linspace(0.0, 1.0, 11)
    j = wilkinson(15)
    assert compare_trajectories(solve_toda_finite(j, times), rk4_toda(j, times, 1e-3)) <= 1e-6


def test_moser_keeps_weights_below_the_double_range():
    # a weight of e^-1000 next to one of 1/2: no clamp changes it
    mu = eigendecompose(JacobiMatrix([0.0, 0.0], [1.0]))
    tilted = moser_evolve(mu, 250.0)
    np.testing.assert_allclose(tilted.log_weights, [-1000.0, 0.0], rtol=0, atol=1e-12)
    assert tilted.weights.tolist() == [0.0, 1.0]
    np.testing.assert_allclose(moser_evolve(tilted, 0.0).log_weights, tilted.log_weights, rtol=0, atol=1e-12)


def test_trajectory_holds_readonly_arrays():
    traj = TodaTrajectory([0.0, 1.0], [[0.0, 1.0], [0.5, 0.5]], [[1.0], [0.8]])
    assert traj.size == 2
    np.testing.assert_array_equal(traj.diag_array(), [[0.0, 1.0], [0.5, 0.5]])
    np.testing.assert_array_equal(traj.states[1].offdiag, [0.8])
    assert not traj.diag.flags.writeable
    assert not traj.offdiag.flags.writeable
    copy = traj.offdiag_array()
    copy[1, 0] = -1.0
    assert traj.offdiag[1, 0] == 0.8


def test_solver_trajectories_hold_readonly_arrays():
    # the solvers build their trajectories unchecked, and read-only all the same
    j = JacobiMatrix([0.0, 1.0, -0.5], [1.0, 0.5])
    window, report = solve_toda_semi_infinite(make_initial_data("linear_b"), [0.0, 0.5], 1, 1e-8, 16)
    for traj in (solve_toda_finite(j, [0.0, 0.5]), rk4_toda(j, [0.0, 0.5], 0.01), window):
        for values in (traj.times, traj.diag, traj.offdiag):
            assert not values.flags.writeable
    # and so is the report: no write can change what to_dict says
    for values in (report.times, report.moments, *report.diag_history, *report.offdiag_history):
        assert not values.flags.writeable
    # the window shares no memory with the report it came with
    assert not np.shares_memory(window.diag, report.diag_history[-1])


def test_unchecked_outputs_pass_the_checked_constructors():
    # the solvers build their values unchecked; what the checks test still holds
    j = random_jacobi(np.random.default_rng(3), 16)
    times = np.linspace(0.0, 1.0, 11)
    window, _ = solve_toda_semi_infinite(make_initial_data("linear_b", {"beta": -1.0}), times, 3, 1e-10, 64)
    for traj in (solve_toda_finite(j, times), window, rk4_toda(j, times, 1e-3)):
        checked = TodaTrajectory(traj.times, traj.diag, traj.offdiag)
        assert np.array_equal(checked.diag, traj.diag) and np.array_equal(checked.offdiag, traj.offdiag)
    mu = eigendecompose(j)
    for measure in (mu, moser_evolve(mu, 0.5), moser_evolve(mu, 1.0)):
        # normal weights, so that the checked constructor reads each as > 0
        assert measure.weights.min() >= sys.float_info.min
        DiscreteMeasure(measure.nodes, measure.weights)


@pytest.mark.parametrize("n", [16, 17, 64])
def test_finite_pipeline_is_covariant_under_powers_of_two(n):
    # 2^k J at times 2^-k t is 2^k times the lattice of J at t, bit for bit:
    # eigendecompose, the tilt and the reconstruction all run at unit scale
    j = random_jacobi(np.random.default_rng(n), n)
    times = np.linspace(0.0, 1.0, 11)
    traj = solve_toda_finite(j, times)
    mu0 = eigendecompose(j)
    back = jacobi_from_measure(mu0, n)
    # weyl_function at a point above the spectrum and one between its two lowest nodes
    points = (mu0.nodes[-1] + 0.75, 0.5 * (mu0.nodes[0] + mu0.nodes[1]))
    weyl = [weyl_function(j, point) for point in points]
    # the Weyl-law probe at a point max |lambda| above the spectrum
    lam = mu0.nodes[-1] + max(-mu0.nodes[0], mu0.nodes[-1])
    residual = weyl_evolution_residual(j, lam, 0.5, 1e-3)
    for k in (-1000, -60, 60, 1000):
        jk = JacobiMatrix(np.ldexp(j.diag, k), np.ldexp(j.offdiag, k))
        scaled = solve_toda_finite(jk, np.ldexp(times, -k))
        assert np.array_equal(scaled.diag, np.ldexp(traj.diag, k)), k
        assert np.array_equal(scaled.offdiag, np.ldexp(traj.offdiag, k)), k
        mu = eigendecompose(jk)
        assert np.array_equal(mu.nodes, np.ldexp(mu0.nodes, k)), k
        assert np.array_equal(mu.log_weights, mu0.log_weights), k
        scaled_back = jacobi_from_measure(mu, n)
        assert np.array_equal(scaled_back.diag, np.ldexp(back.diag, k)), k
        assert np.array_equal(scaled_back.offdiag, np.ldexp(back.offdiag, k)), k
        for point, value in zip(points, weyl):
            assert weyl_function(jk, np.ldexp(point, k)) == np.ldexp(value, -k), k
        assert weyl_evolution_residual(jk, np.ldexp(lam, k), np.ldexp(0.5, -k), np.ldexp(1e-3, -k)) == residual, k


@pytest.mark.parametrize(
    "diag, offdiag, reason",
    [
        ([[0.0, 1.0]], [[1.0]], "one row per grid time"),
        ([[0.0, 1.0], [0.5, 0.5]], [[1.0, 1.0], [0.8, 0.8]], "offdiag must have shape"),
        ([[0.0, 1.0], [0.5, 0.5]], [[1.0], [0.0]], "strictly positive"),
        ([[0.0, np.nan], [0.5, 0.5]], [[1.0], [0.8]], "finite"),
        ([[0.0, 1.0], [0.5, True]], [[1.0], [0.8]], "diag: need real numbers"),
        ([[0.0, 1.0], [0.5, 0.5]], [[1.0], [True]], "offdiag: need real numbers"),
    ],
    # explicit ids keep the names these cases were recorded under, from when
    # the constructor also took a method tag
    ids=[
        "diag0-offdiag0-moment_method-one row per grid time",
        "diag1-offdiag1-moment_method-offdiag must have shape",
        "diag2-offdiag2-moment_method-strictly positive",
        "diag3-offdiag3-moment_method-finite",
        "diag5-offdiag5-moment_method-diag: need real numbers",
        "diag6-offdiag6-moment_method-offdiag: need real numbers",
    ],
)
def test_trajectory_rejects_malformed_arrays(diag, offdiag, reason):
    with pytest.raises(ValueError, match=reason):
        TodaTrajectory([0.0, 1.0], diag, offdiag)


def test_solve_requires_grid_from_zero():
    j = JacobiMatrix([0.0, 0.0], [1.0])
    with pytest.raises(ValueError):
        solve_toda_finite(j, [0.5, 1.0])
    with pytest.raises(ValueError):
        solve_toda_finite(j, [0.0, 1.0, 1.0])
    with pytest.raises(ValueError, match="^times: need at least one entry"):
        solve_toda_finite(j, [])


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_every_grid_entry_point_rejects_non_finite_times(bad):
    j = JacobiMatrix([0.0, 0.0], [1.0])
    with pytest.raises(ValueError, match="finite"):
        TodaTrajectory([0.0, bad], [[0.0, 0.0], [0.0, 0.0]], [[1.0], [1.0]])
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


def test_probes_decompose_and_tilt_once(monkeypatch):
    # the Weyl-law probe decomposes j0 once, for its gap test and its lattice,
    # and each of the three states once; the moment probe reads s_k and
    # log Omega at t - h, t and t + h from one three-row tilt
    calls = {"dstemr": 0, "tilt": 0}
    dstemr, tilt = todaflow.jacobi.lapack.dstemr, todaflow.flow._tilted_log_weights

    def counted_dstemr(*args):
        calls["dstemr"] += 1
        return dstemr(*args)

    def counted_tilt(*args):
        calls["tilt"] += 1
        return tilt(*args)

    monkeypatch.setattr(todaflow.jacobi.lapack, "dstemr", counted_dstemr)
    monkeypatch.setattr(todaflow.flow, "_tilted_log_weights", counted_tilt)
    j = random_jacobi(np.random.default_rng(8), 8)
    weyl_evolution_residual(j, 10.0, 0.5, 1e-3)
    assert calls["dstemr"] == 4
    mu = eigendecompose(j)
    calls["tilt"] = 0
    moment_recurrence_residual(mu, 0.5, 4, 1e-3)
    assert calls["tilt"] == 1


def test_weyl_probe_at_t_equal_h_reads_j0s_measure(monkeypatch):
    # at t = h the state at t - h is j0, which the probe has decomposed
    # already: one dstemr call for j0 and one for each of t and t + h
    calls = []
    dstemr = todaflow.jacobi.lapack.dstemr

    def counted_dstemr(*args):
        calls.append(args)
        return dstemr(*args)

    monkeypatch.setattr(todaflow.jacobi.lapack, "dstemr", counted_dstemr)
    j = JacobiMatrix([0.0, 0.5, -0.3], [1.0, 0.7])
    weyl_evolution_residual(j, 10.0, 1e-3, 1e-3)
    assert len(calls) == 3


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
    # the gap is relative to max |lambda|: 2^-40 J at 3 * 2^-40 is as far
    # from its spectrum as J at 3, and 2^-40 J at 1.2 * 2^-40 as near
    small = JacobiMatrix([0.0, 0.0], [2.0**-40])
    assert weyl_evolution_residual(small, 3.0 * 2.0**-40, 0.5 * 2.0**40, 1e-4 * 2.0**40) == weyl_evolution_residual(
        j, 3.0, 0.5, 1e-4
    )
    with pytest.raises(PoleProximityError):
        weyl_evolution_residual(small, 1.2 * 2.0**-40, 0.5 * 2.0**40, 1e-4 * 2.0**40)
    with pytest.raises(ValueError, match="finite"):
        weyl_evolution_residual(j, math.nan, 1.0, 0.1)


def test_weyl_evolution_residual_rejects_a_step_below_double_spacing():
    # t + h rounds to t, so the central difference would be half a
    # one-sided one (a defect of 1.8e-2 where h = 1e-4 gives 4e-10)
    j = JacobiMatrix([0.0, 0.0], [1.0])
    with pytest.raises(ValueError, match="^h: 1e-16 is below the spacing of doubles"):
        weyl_evolution_residual(j, 3.0, 1.0, 1e-16)
