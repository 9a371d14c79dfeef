import math

import numpy as np
import pytest

from todaflow import (
    BlowUpError,
    JacobiMatrix,
    compare_trajectories,
    eigendecompose,
    rk4_toda,
    solve_toda_finite,
)


def random_jacobi(rng, n):
    return JacobiMatrix(diag=rng.uniform(-2, 2, n), offdiag=rng.uniform(0.5, 2, n - 1))


def _toda_rhs(y, n):
    a = y[: n - 1]
    b = y[n - 1 :]
    da = a * (b[1:] - b[:-1])
    asq = np.zeros(n + 1)
    asq[1:n] = a * a
    db = 2.0 * (asq[1:] - asq[:-1])
    return np.concatenate((da, db))


def reference_rk4(j0, times, dt, guards=True):
    """The allocate-per-stage RK4 loop that rk4_toda must match bit for bit.

    With guards=False it checks no step and returns whatever the steps give.
    """
    n = j0.n
    y = np.concatenate((j0.offdiag, j0.diag))
    diag, offdiag = [j0.diag], [j0.offdiag]
    for width in np.diff(times):
        for _ in range(round(width / dt)):
            k1 = _toda_rhs(y, n)
            k2 = _toda_rhs(y + (0.5 * dt) * k1, n)
            k3 = _toda_rhs(y + (0.5 * dt) * k2, n)
            k4 = _toda_rhs(y + dt * k3, n)
            y = y + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
            if not guards:
                continue
            if np.max(np.abs(y)) > 1e8:
                raise BlowUpError("an entry exceeded 1e+08 in magnitude; reduce dt")
            if n > 1 and np.min(y[: n - 1]) <= 0.0:
                raise BlowUpError("an off-diagonal entry left the positive cone; reduce dt")
        diag.append(y[n - 1 :])
        offdiag.append(y[: n - 1])
    return np.array(diag), np.array(offdiag)


def test_rk4_constant_for_1x1():
    traj = rk4_toda(JacobiMatrix([0.3], []), np.linspace(0.0, 1.0, 5), 1e-2)
    assert all(state.diag[0] == 0.3 for state in traj.states)


def test_rk4_2x2_closed_form():
    j = JacobiMatrix([0.0, 0.0], [1.0])
    times = np.linspace(0.0, 1.0, 11)
    traj = rk4_toda(j, times, 1e-4)
    for t, state in zip(times, traj.states):
        assert abs(state.diag[0] - math.tanh(2.0 * t)) < 1e-8
        assert abs(state.diag[1] + math.tanh(2.0 * t)) < 1e-8
        assert abs(state.offdiag[0] - 1.0 / math.cosh(2.0 * t)) < 1e-8


def test_rk4_is_fourth_order():
    j = JacobiMatrix([0.0, 0.0], [1.0])
    times = np.array([0.0, 1.0])

    def error(dt):
        state = rk4_toda(j, times, dt).states[-1]
        return abs(state.diag[0] - math.tanh(2.0))

    ratio = error(2e-3) / error(1e-3)
    assert 12.0 < ratio < 20.0


def test_rk4_grid_divisibility():
    j = JacobiMatrix([0.0, 0.0], [1.0])
    with pytest.raises(ValueError, match="^dt: 0.02 does not divide the grid spacing 0.05 within 1e-12$"):
        rk4_toda(j, [0.0, 0.05], 0.02)
    with pytest.raises(ValueError):
        rk4_toda(j, [0.0, 1.0], -1e-3)
    # a step given as a string is rejected, not parsed
    with pytest.raises(ValueError, match="finite real"):
        rk4_toda(j, [0.0, 0.5], "0.25")
    # numpy would read this grid as [0.0, 1.0]
    with pytest.raises(ValueError, match="^times: need real numbers"):
        rk4_toda(j, [0, True], 0.5)


def test_rk4_blow_up_guard():
    # a step far above the stability limit destroys positivity/boundedness
    j = JacobiMatrix([0.0, 0.0], [100.0])
    with pytest.raises(BlowUpError):
        rk4_toda(j, [0.0, 10.0], 0.5)
    # a first step that overflows straight to inf/NaN fails the guards too
    with pytest.raises(BlowUpError, match="exceeded"):
        rk4_toda(JacobiMatrix([0.0, 0.0, 0.0], [1e60, 1e60]), [0.0, 0.01], 1e-3)
    # every entry positive and finite, the diagonal above 1e8 from step 1 on
    with pytest.raises(BlowUpError, match="exceeded"):
        rk4_toda(JacobiMatrix([2e8, 2e8], [1.0]), [0.0, 1.0], 0.1)


@pytest.mark.parametrize("n", [1, 2, 3, 8, 32, 64])
def test_rk4_matches_reference_loop_bitwise(n):
    grids = [
        # uneven spans, one of a single step
        (np.concatenate(([0.0], np.cumsum([3e-3, 40e-3, 1e-3, 17e-3, 100e-3]))), 1e-3),
        # a coarse step over a long grid
        (np.linspace(0.0, 5.0, 11), 0.05),
        # the grid and step of a verify run: 10 spans of 100 steps
        (np.linspace(0.0, 1.0, 11), 1e-3),
    ]
    for seed in (100 + n, 200 + n, 300 + n):
        j = random_jacobi(np.random.default_rng(seed), n)
        for times, dt in grids:
            traj = rk4_toda(j, times, dt)
            diag, offdiag = reference_rk4(j, times, dt)
            assert traj.diag.tobytes() == diag.tobytes(), (seed, dt)
            assert traj.offdiag.tobytes() == offdiag.tobytes(), (seed, dt)


@pytest.mark.parametrize("a, dt", [(100.0, 0.5), (3.0, 0.5)])  # magnitude guard, positivity guard
def test_rk4_guard_message_matches_reference_loop(a, dt):
    j = JacobiMatrix([0.0, 0.0], [a])
    with pytest.raises(BlowUpError) as expected:
        reference_rk4(j, [0.0, 10.0], dt)
    with pytest.raises(BlowUpError) as got:
        rk4_toda(j, [0.0, 10.0], dt)
    assert str(got.value) == str(expected.value)


def test_rk4_guards_every_step_of_a_span():
    # positivity fails on step 2, inside the second span, and an entry
    # exceeds 1e8 from step 3 on: a check at the span end (t = 0.9) would
    # raise the magnitude message instead
    j = JacobiMatrix([0.0, 0.0, 1.0], [5.0, 5.0])
    times = [0.0, 0.3, 0.9]
    with pytest.raises(BlowUpError) as expected:
        reference_rk4(j, times, 0.3)
    with pytest.raises(BlowUpError, match="positive cone") as got:
        rk4_toda(j, times, 0.3)
    assert str(got.value) == str(expected.value)


def test_rk4_guards_a_transient_inside_a_span():
    # the off-diagonal leaves the positive cone on step 1 and is back inside
    # by step 2, the span's end: the end state passes both guards
    j = JacobiMatrix([0.0, -1.1, -0.7], [2.0, 1.7])
    times, dt = [0.0, 1.66], 0.83
    with np.errstate(over="ignore", invalid="ignore"):
        diag, offdiag = reference_rk4(j, times, dt, guards=False)
    assert np.max(np.abs(diag[-1])) <= 1e8 and np.min(offdiag[-1]) > 0.0
    with pytest.raises(BlowUpError) as expected:
        reference_rk4(j, times, dt)
    with pytest.raises(BlowUpError, match="positive cone") as got:
        rk4_toda(j, times, dt)
    assert str(got.value) == str(expected.value)


@pytest.mark.parametrize(
    "b, a, dt, first, match",
    [([2.0, 0.8], [1.7], 0.6, 32, "exceeded"), ([0.3, 0.6, 1.2], [1.3, 1.3], 1.02, 4, "positive cone")],
)
def test_rk4_replays_a_long_span_to_its_first_failing_step(b, a, dt, first, match):
    # one span of 100 steps that ends in inf/NaN; step `first` is the
    # first to break a guard, and every step before it passes them all
    j = JacobiMatrix(b, a)
    with np.errstate(over="ignore", invalid="ignore"):
        diag, offdiag = reference_rk4(j, np.arange(101) * dt, dt, guards=False)
    states = np.hstack((offdiag, diag))
    passing = (np.max(np.abs(states), axis=1) <= 1e8) & (np.min(offdiag, axis=1) > 0.0)
    assert passing[:first].all() and not passing[first] and not np.isfinite(states[-1]).all()
    traj = rk4_toda(j, [0.0, (first - 1) * dt], dt)
    assert traj.diag.tobytes() == diag[[0, first - 1]].tobytes()
    assert traj.offdiag.tobytes() == offdiag[[0, first - 1]].tobytes()
    with pytest.raises(BlowUpError) as expected:
        reference_rk4(j, [0.0, 100 * dt], dt)
    with pytest.raises(BlowUpError, match=match) as got:
        rk4_toda(j, [0.0, 100 * dt], dt)
    assert str(got.value) == str(expected.value)


def test_rk4_conserves_trace_and_spectrum():
    rng = np.random.default_rng(21)
    j = random_jacobi(rng, 6)
    lam0 = eigendecompose(j).nodes
    trace0 = np.sum(j.diag)
    traj = rk4_toda(j, np.linspace(0.0, 1.0, 6), 1e-4)
    for state in traj.states:
        assert abs(np.sum(state.diag) - trace0) < 1e-10
        assert np.max(np.abs(eigendecompose(state).nodes - lam0)) < 1e-7
        assert np.all(state.offdiag > 0.0)


def test_compare_identical_and_shifted():
    j = JacobiMatrix([0.4], [])
    times = np.linspace(0.0, 1.0, 5)
    a = rk4_toda(j, times, 1e-2)
    assert compare_trajectories(a, a) == 0.0
    b = rk4_toda(JacobiMatrix([-0.1], []), times, 1e-2)
    assert abs(compare_trajectories(a, b) - 0.5) < 1e-15


def test_compare_rejects_mismatched_grids():
    j = JacobiMatrix([0.4], [])
    a = rk4_toda(j, np.linspace(0.0, 1.0, 5), 1e-2)
    b = rk4_toda(j, np.linspace(0.0, 1.0, 3), 1e-2)
    with pytest.raises(ValueError):
        compare_trajectories(a, b)
    c = rk4_toda(JacobiMatrix([0.4, 0.0], [1.0]), np.linspace(0.0, 1.0, 5), 1e-2)
    with pytest.raises(ValueError, match="^trajectories have different matrix sizes"):
        compare_trajectories(c, a)


def test_moment_method_matches_rk4():
    rng = np.random.default_rng(99)
    j = random_jacobi(rng, 5)
    times = np.linspace(0.0, 1.0, 11)
    dev = compare_trajectories(solve_toda_finite(j, times), rk4_toda(j, times, 1e-4))
    assert dev < 1e-6
