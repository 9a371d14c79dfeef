import math

import numpy as np
import pytest

from todaflow import (
    eigendecompose,
    evolve_moments,
    make_initial_data,
    solve_toda_finite,
    solve_toda_semi_infinite,
)


def test_generator_builtins():
    init = make_initial_data("linear_b", {"beta": -1.0, "alpha": 1.0})
    assert init.coefficients(3) == (1.0, -3.0)
    block = init.truncation(4)
    np.testing.assert_array_equal(block.diag, [-1.0, -2.0, -3.0, -4.0])
    np.testing.assert_array_equal(block.offdiag, [1.0, 1.0, 1.0])

    init = make_initial_data("constant", {"alpha": 0.5, "gamma": 2.0})
    assert init.coefficients(10) == (0.5, 2.0)

    init = make_initial_data("decay", {"alpha": 2.0})
    assert init.coefficients(4) == (0.5, 0.0)

    init = make_initial_data("table", {"a": [1.0, 2.0], "b": [0.0, 1.0, 2.0], "upper_bound": 5.0})
    assert init.declared_upper_bound == 5.0
    block = init.truncation(3)
    np.testing.assert_array_equal(block.offdiag, [1.0, 2.0])
    with pytest.raises(ValueError):
        init.truncation(4)
    for bad in (2.0, True, "2"):
        with pytest.raises(ValueError, match="^n:"):
            init.truncation(bad)

    with pytest.raises(ValueError):
        make_initial_data("nonsense")
    # each generator takes only its own parameters, as finite real numbers
    rejected = [
        ("constant", {"epsilon": 1.0}),
        ("constant", {"beta": -1.0}),
        ("decay", {"beta": 3.0}),
        ("table", {"a": [1.0], "b": [0.0, 0.0], "alpha": 5.0}),
        ("linear_b", {"beta": 1.0, "upper_bound": float("nan")}),
        ("linear_b", {"alpha": "0.5"}),
        ("linear_b", {"alpha": [1]}),
        ("table", {"a": ["1"], "b": ["0", "0.5"]}),
        ("table", {"a": [float("nan")], "b": [0.0, 0.5]}),
    ]
    for name, params in rejected:
        with pytest.raises(ValueError):
            make_initial_data(name, params)


@pytest.mark.parametrize("params", [{"a": [], "b": 5}, {"a": [[1.0]], "b": [[1.0, 2.0]]}])
def test_table_rejects_non_1d_arrays_at_construction(params):
    with pytest.raises(ValueError, match="1-d"):
        make_initial_data("table", params)


def test_truncation_rejects_nonpositive_a():
    init = make_initial_data("linear_b", {"alpha": -1.0})
    with pytest.raises(ValueError):
        init.truncation(3)


def test_preconditions():
    init = make_initial_data("constant", {"alpha": 0.5})
    times = np.linspace(0.0, 1.0, 3)
    with pytest.raises(ValueError):
        solve_toda_semi_infinite(init, times, 0, 1e-8, 64)
    with pytest.raises(ValueError):
        solve_toda_semi_infinite(init, times, 2, -1.0, 64)
    # an infinite tol would be met by any first deviation
    with pytest.raises(ValueError, match="finite"):
        solve_toda_semi_infinite(init, times, 2, math.inf, 64)
    with pytest.raises(ValueError):
        solve_toda_semi_infinite(init, times, 2, 1e-8, 5)
    with pytest.raises(ValueError):
        solve_toda_semi_infinite(init, [0.5, 1.0], 2, 1e-8, 64)
    # sizes are integers: an infinite n_max would leave the doubling unbounded
    for m, n_max, name in [
        (2.0, 64, "m"), (True, 64, "m"), ("2", 64, "m"),
        (2, 64.0, "n_max"), (2, True, "n_max"), (2, "64", "n_max"), (1, math.inf, "n_max"),
    ]:
        with pytest.raises(ValueError, match=f"^{name}:"):
            solve_toda_semi_infinite(init, times, m, 1e-8, n_max)


def test_initial_entries_are_exact():
    init = make_initial_data("linear_b", {"beta": -1.0, "alpha": 1.0})
    traj, report = solve_toda_semi_infinite(init, np.linspace(0.0, 0.5, 3), 2, 1e-8, 64)
    np.testing.assert_array_equal(traj.states[0].diag, [-1.0, -2.0])
    np.testing.assert_array_equal(traj.states[0].offdiag, [1.0])
    assert traj.size == 2
    assert report.entries == 2


def test_unbounded_below_data_stabilizes():
    # b_n = -n, a_n = 1: spectrum bounded above by 1, the method's domain
    init = make_initial_data("linear_b", {"beta": -1.0, "alpha": 1.0, "upper_bound": 1.0})
    times = np.linspace(0.0, 1.0, 6)
    traj, report = solve_toda_semi_infinite(init, times, 2, 1e-8, 64)
    assert report.converged
    assert report.achieved < 1e-8
    assert max(report.spectral_maxima) <= 1.0 + 1e-6
    assert report.moments.shape == (6, 4)
    np.testing.assert_allclose(report.moments[:, 0], np.ones(6), atol=1e-12)
    # deviations of the first diagonal entry shrink under refinement
    first = [np.max(np.abs(report.diag_history[i + 1][:, 0] - report.diag_history[i][:, 0]))
             for i in range(len(report.diag_history) - 1)]
    if len(first) >= 2:
        assert first[-1] <= first[-2]


def test_bounded_data_agrees_with_direct_finite_solve():
    # free discrete Laplacian: b = 0, a = 1/2
    init = make_initial_data("constant", {"alpha": 0.5})
    times = np.linspace(0.0, 1.0, 5)
    traj, report = solve_toda_semi_infinite(init, times, 1, 1e-8, 64)
    assert report.converged
    assert report.stop_reason == "tol"
    reference = solve_toda_finite(init.truncation(32), times)
    ref_b = reference.diag_array()[:, :1]
    got_b = traj.diag_array()
    assert np.max(np.abs(ref_b - got_b)) < 1e-8


def test_window_matches_full_solution():
    init = make_initial_data("linear_b", {"beta": -1.0, "alpha": 1.0})
    times = np.linspace(0.0, 1.0, 4)
    traj, report = solve_toda_semi_infinite(init, times, 3, 1e-10, 32)
    full = solve_toda_finite(init.truncation(report.truncation_sizes[-1]), times)
    # the leading block takes the same Lanczos steps as the full reconstruction
    np.testing.assert_array_equal(traj.diag_array(), full.diag_array()[:, :3])
    np.testing.assert_array_equal(traj.offdiag_array(), full.offdiag_array()[:, :2])


def test_roundoff_floor_stops_the_doubling():
    # tol 1e-15 is below what double precision resolves: from N = 64 on
    # the window only moves by roundoff, so the solve stops there
    init = make_initial_data("constant", {"alpha": 1.0})
    times = np.linspace(0.0, 4.0, 11)
    traj, report = solve_toda_semi_infinite(init, times, 3, 1e-15, 256)
    assert report.truncation_sizes == (8, 16, 32, 64)
    assert report.converged
    assert report.stop_reason == "floor_limited"
    assert report.to_dict()["stop_reason"] == "floor_limited"
    capped, _ = solve_toda_semi_infinite(init, times, 3, 1e-15, 64)
    np.testing.assert_array_equal(traj.diag_array(), capped.diag_array())
    np.testing.assert_array_equal(traj.offdiag_array(), capped.offdiag_array())
    _, short = solve_toda_semi_infinite(init, times, 3, 1e-15, 32)
    assert short.truncation_sizes == (8, 16, 32)
    assert not short.converged
    assert short.stop_reason == "n_max"
    # an n_max off the doubling sequence is itself the last size tried
    _, odd = solve_toda_semi_infinite(init, times, 3, 1e-15, 48)
    assert odd.truncation_sizes == (8, 16, 32, 48)
    assert odd.stop_reason == "floor_limited"


def test_spectrum_escaping_upward_is_flagged():
    # b_n = +n has no upper spectral bound, so eigenvalue maxima grow with
    # the truncation and pass the declared bound.  The flow still exists
    # (accurate spectral weights give b_1(3) = 20.8878708832), but in double
    # precision the window moves by 4.8 between N = 16 and 32 at t = 3 and
    # N = 128 raises, so the solve must not report convergence by n_max = 32
    init = make_initial_data("linear_b", {"beta": 1.0, "alpha": 1.0, "upper_bound": 2.0})
    times = np.linspace(0.0, 3.0, 4)
    with pytest.warns(UserWarning, match="upper bound"):
        traj, report = solve_toda_semi_infinite(init, times, 1, 1e-8, 32)
    assert not report.converged
    maxima = list(report.spectral_maxima)
    assert all(b > a for a, b in zip(maxima, maxima[1:]))
    assert maxima[-1] > 2.0


def test_s0_unit_on_every_truncation():
    init = make_initial_data("decay", {"alpha": 1.0})
    times = np.linspace(0.0, 1.0, 4)
    _, report = solve_toda_semi_infinite(init, times, 1, 1e-9, 32)
    np.testing.assert_allclose(report.moments[:, 0], np.ones(4), atol=1e-12)


def test_report_moments_are_those_of_the_largest_truncation():
    init = make_initial_data("linear_b", {"beta": -1.0, "alpha": 1.0})
    times = np.linspace(0.0, 1.0, 6)
    _, report = solve_toda_semi_infinite(init, times, 2, 1e-8, 64)
    mu0 = eigendecompose(init.truncation(report.truncation_sizes[-1]))
    for i, t in enumerate(times):
        np.testing.assert_array_equal(report.moments[i], evolve_moments(mu0, t, 4).values)
