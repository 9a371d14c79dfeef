import dataclasses
import json
import math

import numpy as np
import pytest

from todaflow import (
    DegenerateMeasureError,
    NumericalError,
    eigendecompose,
    evolve_moments,
    jacobi_from_measure,
    make_initial_data,
    solve_toda_finite,
    solve_toda_semi_infinite,
    truncation,
)


def test_generator_builtins():
    init = make_initial_data("linear_b", {"beta": -1.0, "alpha": 1.0})
    assert init(3) == (1.0, -3.0)
    block = truncation(init, 4)
    np.testing.assert_array_equal(block.diag, [-1.0, -2.0, -3.0, -4.0])
    np.testing.assert_array_equal(block.offdiag, [1.0, 1.0, 1.0])

    init = make_initial_data("linear_b", {"alpha": 0.5, "gamma": 2.0})
    assert init(10) == (0.5, 2.0)

    init = make_initial_data("decay", {"alpha": 2.0})
    assert init(4) == (0.5, 0.0)

    init = make_initial_data("table", {"a": [1.0, 2.0], "b": [0.0, 1.0, 2.0]})
    block = truncation(init, 3)
    np.testing.assert_array_equal(block.offdiag, [1.0, 2.0])
    with pytest.raises(ValueError):
        truncation(init, 4)
    for bad in (2.0, True, "2"):
        with pytest.raises(ValueError, match="^n:"):
            truncation(init, bad)

    with pytest.raises(ValueError):
        make_initial_data("nonsense")
    # each generator takes only its own parameters, as finite real numbers
    rejected = [
        ("linear_b", {"epsilon": 1.0}),
        ("decay", {"beta": -1.0}),
        # constant data is linear_b's default beta = 0, not a generator of its own
        ("constant", {}),
        ("decay", {"beta": 3.0}),
        ("table", {"a": [1.0], "b": [0.0, 0.0], "alpha": 5.0}),
        ("linear_b", {"beta": 1.0, "upper_bound": float("nan")}),
        ("linear_b", {"upper_bound": 1.0}),
        ("linear_b", {"alpha": "0.5"}),
        ("linear_b", {"alpha": [1]}),
        ("table", {"a": ["1"], "b": ["0", "0.5"]}),
        ("table", {"a": [float("nan")], "b": [0.0, 0.5]}),
        ("table", {"b": [1.0, 2.0]}),
        # every a_n > 0, also an a_n past the last b_n
        ("linear_b", {"alpha": -1.0}),
        ("linear_b", {"alpha": 0.0}),
        ("decay", {"alpha": -1.0}),
        ("decay", {"alpha": 5e-324}),
        # and every b_n finite for n < 2**52
        ("linear_b", {"beta": 1e308}),
        ("table", {"a": [1.0, -1.0], "b": [0.0, 0.0, 0.0]}),
        ("table", {"a": [1.0, 0.0], "b": [0.0, 0.0]}),
        (["linear_b"], {}),
    ]
    for name, params in rejected:
        with pytest.raises(ValueError):
            make_initial_data(name, params)
    with pytest.raises(ValueError, match=r"^params\.a: need len\(a\) = len\(b\) - 1 or len\(b\), got 1 for len\(b\) = 3$"):
        make_initial_data("table", {"a": [1.0], "b": [1.0, 2.0, 3.0]})
    # a subnormal decay alpha would make alpha / n round to 0
    with pytest.raises(ValueError, match=r"^params\.alpha: need at least 2.2250738585072014e-308, the smallest normal double"):
        make_initial_data("decay", {"alpha": 1e-310})


@pytest.mark.parametrize("params", [5, "ab", [("alpha", 2.0)], 0, []])
def test_make_initial_data_takes_a_dict_or_none(params):
    # params is a dict or None; anything else is a bad argument named as params
    with pytest.raises(ValueError, match="^params: need a dict"):
        make_initial_data("linear_b", params)
    assert make_initial_data("linear_b", None)(3) == (1.0, 0.0)


@pytest.mark.parametrize("params", [{"a": [], "b": 5}, {"a": [[1.0]], "b": [[1.0, 2.0]]}])
def test_table_rejects_non_1d_arrays_at_construction(params):
    with pytest.raises(ValueError, match="1-d"):
        make_initial_data("table", params)


def test_table_starts_at_n_1():
    # numpy would read n = 0 and n = -1 from the end of the table
    init = make_initial_data("table", {"a": [1.0, 2.0], "b": [3.0, 4.0, 5.0]})
    for n in (0, -1):
        with pytest.raises(ValueError, match=rf"^n: table initial data starts at n=1, got n={n}$"):
            init(n)
    assert init(1) == (1.0, 3.0)
    assert init(3) == (1.0, 5.0)
    with pytest.raises(ValueError, match="^table initial data exhausted at n=4: the table holds 3 entries; "):
        init(4)


def test_truncation_rejects_nonpositive_a():
    init = lambda n: (-1.0, 0.0)
    with pytest.raises(ValueError):
        truncation(init, 3)


@pytest.mark.parametrize(
    "coefficients",
    [lambda k: (1.0,), lambda k: (1.0, 2.0, 3.0), lambda k: (1.0, 2.0, 3.0) if k == 2 else (1.0, 2.0)],
    ids=["short", "long", "one_long"],
)
def test_values_that_are_not_pairs_raise(coefficients):
    with pytest.raises(ValueError):
        truncation(coefficients, 3)
    with pytest.raises(ValueError):
        solve_toda_semi_infinite(coefficients, [0.0, 0.5], 1, 1e-8, 16)


def test_each_coefficient_is_fetched_once():
    # a 20-entry table runs sizes 8 and 16 and runs out when 32 is needed
    rng = np.random.default_rng(4)
    table = make_initial_data("table", {"a": rng.uniform(0.5, 2.0, 19), "b": rng.uniform(-2.0, 2.0, 20)})
    asked = []

    def coefficients(n):
        asked.append(n)
        return table(n)

    with pytest.raises(ValueError, match="table initial data exhausted at n=21"):
        solve_toda_semi_infinite(coefficients, np.linspace(0.0, 1.0, 3), 1, 1e-14, 64)
    assert asked == list(range(1, 22))


def test_preconditions():
    init = make_initial_data("linear_b", {"alpha": 0.5})
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


def test_n_max_at_the_first_size_is_rejected():
    # N1 = max(2m+2, 8) is 8 at m = 1 and 2: n_max 8 would run that one size,
    # which can measure no deviation; n_max 9 runs two
    init = make_initial_data("linear_b", {"alpha": 0.5})
    times = np.linspace(0.0, 1.0, 3)
    for m in (1, 2):
        with pytest.raises(ValueError, match=r"^n_max: need an integer >= 9, got 8$"):
            solve_toda_semi_infinite(init, times, m, 1e-8, 8)
        _, report = solve_toda_semi_infinite(init, times, m, 1e-8, 9)
        assert report.truncation_sizes == (8, 9)
        assert len(report.deviations) == 1


def test_initial_entries_are_exact():
    init = make_initial_data("linear_b", {"beta": -1.0, "alpha": 1.0})
    traj, report = solve_toda_semi_infinite(init, np.linspace(0.0, 0.5, 3), 2, 1e-8, 64)
    np.testing.assert_array_equal(traj.states[0].diag, [-1.0, -2.0])
    np.testing.assert_array_equal(traj.states[0].offdiag, [1.0])
    assert traj.size == 2
    assert report.entries == 2


def test_unbounded_below_data_stabilizes():
    # b_n = -n, a_n = 1: spectrum bounded above by 1, the method's domain
    init = make_initial_data("linear_b", {"beta": -1.0, "alpha": 1.0})
    times = np.linspace(0.0, 1.0, 6)
    traj, report = solve_toda_semi_infinite(init, times, 2, 1e-8, 64)
    assert report.converged
    assert report.deviations[-1] < 1e-8
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
    init = make_initial_data("linear_b", {"alpha": 0.5})
    times = np.linspace(0.0, 1.0, 5)
    traj, report = solve_toda_semi_infinite(init, times, 1, 1e-8, 64)
    assert report.converged
    assert report.stop_reason == "tol"
    reference = solve_toda_finite(truncation(init, 32), times)
    ref_b = reference.diag_array()[:, :1]
    got_b = traj.diag_array()
    assert np.max(np.abs(ref_b - got_b)) < 1e-8


def _random_table():
    rng = np.random.default_rng(3)
    b = rng.uniform(-2.0, 2.0, 64)  # drawn before a
    return make_initial_data("table", {"a": rng.uniform(0.5, 2.0, 64), "b": b})


@pytest.mark.parametrize("m", [1, 3, 6])
@pytest.mark.parametrize(
    "init",
    [
        make_initial_data("linear_b", {"beta": -1.0, "alpha": 1.0}),
        make_initial_data("decay", {"alpha": 2.0}),
        _random_table(),
    ],
    ids=["linear_b", "decay", "table"],
)
def test_window_matches_full_solution(init, m):
    times = np.linspace(0.0, 1.0, 4)
    traj, report = solve_toda_semi_infinite(init, times, m, 1e-10, 64)
    full = solve_toda_finite(truncation(init, report.truncation_sizes[-1]), times)
    # the leading block takes the same Lanczos steps as the full reconstruction
    np.testing.assert_array_equal(traj.diag_array(), full.diag_array()[:, :m])
    np.testing.assert_array_equal(traj.offdiag_array(), full.offdiag_array()[:, : m - 1])


def test_roundoff_floor_stops_the_doubling():
    # tol 1e-15 is below what double precision resolves: from N = 64 on
    # the window only moves by roundoff, so the solve stops there
    init = make_initial_data("linear_b", {"alpha": 1.0})
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


def test_report_dict_is_its_fields_as_json():
    # one report where two sizes ran and one where three did
    init = make_initial_data("linear_b", {"alpha": 0.5, "gamma": 2.0})
    times = np.linspace(0.0, 1.0, 5)
    for m, n_max, runs in ((2, 64, 2), (3, 64, 3)):
        _, report = solve_toda_semi_infinite(init, times, m, 1e-8, n_max)
        assert len(report.truncation_sizes) == runs
        d = json.loads(json.dumps(report.to_dict(), allow_nan=False))
        assert list(d) == [field.name for field in dataclasses.fields(report)]
        assert len(d["deviations"]) == runs - 1
        for name in ("entries", "converged", "stop_reason"):
            assert d[name] == getattr(report, name)
        for name in ("truncation_sizes", "deviations", "spectral_maxima"):
            assert tuple(d[name]) == getattr(report, name)
        for name in ("times", "moments"):
            np.testing.assert_array_equal(np.array(d[name]), getattr(report, name))
        for name in ("diag_history", "offdiag_history"):
            assert len(d[name]) == runs
            for entry, history in zip(d[name], getattr(report, name)):
                np.testing.assert_array_equal(np.array(entry), history)


def test_histories_are_one_readonly_array_per_family():
    # sizes 8, 16 and 32 run and 64 does not: one (sizes run, times, m)
    # array per coefficient family, its last page the window
    times = np.linspace(0.0, 1.0, 5)
    window, report = solve_toda_semi_infinite(make_initial_data("linear_b", {"beta": -1.0}), times, 3, 1e-10, 64)
    assert report.truncation_sizes == (8, 16, 32)
    for history in (report.diag_history, report.offdiag_history):
        assert type(history) is np.ndarray and not history.flags.writeable
        assert history.shape == (3, times.size, 3)
    np.testing.assert_array_equal(report.diag_history[-1], window.diag)
    np.testing.assert_array_equal(report.offdiag_history[-1, :, :2], window.offdiag)


def test_spectrum_escaping_upward_is_flagged():
    # b_n = +n has no upper spectral bound, so eigenvalue maxima grow with
    # the truncation.  The flow still exists (b_1(3) = 20.8878708832), but
    # the window moves by 4.8 between N = 16 and 32 at t = 3, with accurate
    # weights too, and settles only from N = 64 on, so the solve must not
    # report convergence by n_max = 32
    init = make_initial_data("linear_b", {"beta": 1.0, "alpha": 1.0})
    times = np.linspace(0.0, 3.0, 4)
    traj, report = solve_toda_semi_infinite(init, times, 1, 1e-8, 32)
    assert not report.converged
    maxima = list(report.spectral_maxima)
    assert all(b > a for a, b in zip(maxima, maxima[1:]))
    assert maxima[-1] > 2.0


def test_unbounded_above_data_converges():
    # b_n = +n, a_n = 1: the paper's semi-infinite flow for data without an
    # upper spectral bound; the leading entry settles from N = 64 on
    init = make_initial_data("linear_b", {"beta": 1.0, "alpha": 1.0})
    traj, report = solve_toda_semi_infinite(init, np.arange(4.0), 1, 1e-8, 512)
    assert report.converged
    assert abs(traj.diag[-1, 0] - 20.8878708832) <= 1e-9


def test_one_time_grid_returns_the_leading_block():
    init = make_initial_data("linear_b", {"beta": -1.0, "alpha": 1.0})
    traj, report = solve_toda_semi_infinite(init, [0.0], 3, 1e-8, 64)
    block = truncation(init, 3)
    np.testing.assert_array_equal(traj.diag, [block.diag])
    np.testing.assert_array_equal(traj.offdiag, [block.offdiag])
    assert report.converged


def test_weights_below_the_double_range_rebuild():
    # the N = 128 truncation of b_n = +n has weights down to 1e-430, which
    # read 0 as doubles; the reconstruction starts from their square roots
    # and rebuilds the block to roundoff
    j = truncation(make_initial_data("linear_b", {"beta": 1.0, "alpha": 1.0}), 128)
    mu = eigendecompose(j)
    assert np.min(mu.log_weights) < -900.0
    back = jacobi_from_measure(mu, 128)
    np.testing.assert_allclose(back.diag, j.diag, rtol=1e-12, atol=0)
    np.testing.assert_allclose(back.offdiag, j.offdiag, rtol=1e-12, atol=0)


def test_underflowed_weights_raise_instead_of_rebuilding():
    # the N = 192 truncation of b_n = +n has weights down to 1e-712, which
    # keep their value as logs but whose square roots read 0 as doubles: its
    # full block cannot be rebuilt, and that must raise, never return NaN or
    # a wrong block
    mu = eigendecompose(truncation(make_initial_data("linear_b", {"beta": 1.0, "alpha": 1.0}), 192))
    assert np.all(np.isfinite(mu.log_weights))
    assert np.min(mu.log_weights) < -1600.0
    with pytest.raises(NumericalError):
        jacobi_from_measure(mu, 192)


def test_s0_unit_on_every_truncation():
    init = make_initial_data("decay", {"alpha": 1.0})
    times = np.linspace(0.0, 1.0, 4)
    _, report = solve_toda_semi_infinite(init, times, 1, 1e-9, 32)
    np.testing.assert_allclose(report.moments[:, 0], np.ones(4), atol=1e-12)


def test_report_moments_are_those_of_the_largest_truncation():
    init = make_initial_data("linear_b", {"beta": -1.0, "alpha": 1.0})
    times = np.linspace(0.0, 1.0, 6)
    _, report = solve_toda_semi_infinite(init, times, 2, 1e-8, 64)
    mu0 = eigendecompose(truncation(init, report.truncation_sizes[-1]))
    for i, t in enumerate(times):
        np.testing.assert_array_equal(report.moments[i], evolve_moments(mu0, t, 4).values)


# Exact semi-infinite flows for data without an upper spectral bound: each
# tilts its orthogonality measure by e^{2 lam t}.  family -> (the initial
# (a_n, b_n), the flow (b_n(t), a_n(t)) on arrays of n and t).
EXACT_FLOWS = {
    # Charlier, c = 1: the Poisson(1) measure on -N
    "charlier": (
        lambda n: (math.sqrt(n), -float(n)),
        lambda n, t: (-(n - 1 + np.exp(-2 * t)), np.sqrt(n) * np.exp(-t)),
    ),
    # Laguerre, alpha = 1/2, reflected to (-inf, 0]
    "laguerre": (
        lambda n: (math.sqrt(n * (n + 0.5)), 0.5 - 2 * n),
        lambda n, t: ((0.5 - 2 * n) / (1 + 2 * t), np.sqrt(n * (n + 0.5)) / (1 + 2 * t)),
    ),
    # Hermite: the Gaussian measure, whose support is all of R
    "hermite": (
        lambda n: (math.sqrt(n / 2), 0.0),
        lambda n, t: (t, np.sqrt(n / 2)),
    ),
    # Meixner-Pollaczek, a_n = n, b_n = 0: the flow blows up at t = pi/4
    "meixner_pollaczek": (
        lambda n: (float(n), 0.0),
        lambda n, t: ((2 * n - 1) * np.tan(2 * t), n / np.cos(2 * t)),
    ),
}


@pytest.mark.parametrize(
    "family, t_end, steps, m",
    [(family, 1.0, 10, m) for family in ("charlier", "laguerre", "hermite") for m in (3, 10)]
    + [("meixner_pollaczek", 0.7, 7, m) for m in (3, 10)]
    + [("laguerre", 5.0, 1, m) for m in (3, 10)]
    + [("charlier", 20.0, 1, m) for m in (3, 10)],
)
def test_unbounded_data_matches_exact_flow(family, t_end, steps, m):
    initial, flow = EXACT_FLOWS[family]
    times = np.linspace(0.0, t_end, steps + 1)
    traj, report = solve_toda_semi_infinite(initial, times, m, 1e-14, 1024)
    assert report.converged
    b, a = (np.broadcast_to(x, (times.size, m)) for x in flow(np.arange(1, m + 1), times[:, np.newaxis]))
    exact = np.hstack([b, a[:, :-1]])
    error = np.max(np.abs(np.hstack([traj.diag, traj.offdiag]) - exact))
    assert error <= 1e-12 * np.max(np.abs(exact))


def test_no_solution_past_blow_up_is_not_converged():
    # a_n = n, b_n = 0 at t = 0.8 > pi/4: b_1 of the truncation grows with
    # its size N (about 2N), so no two sizes agree.  At t = 0.7 the same
    # data settle.  Both runs start from the same a_n, so the Carleman sums
    # sum 1/a_n cannot tell them apart; the b_1 history can.
    initial, _ = EXACT_FLOWS["meixner_pollaczek"]
    data = initial
    _, report = solve_toda_semi_infinite(data, [0.0, 0.8], 1, 1e-14, 256)
    assert report.converged is False
    assert report.stop_reason == "n_max"
    b1 = np.array([h[-1, 0] for h in report.diag_history])
    assert np.all(b1[1:] >= 2.0 * b1[:-1])
    _, report = solve_toda_semi_infinite(data, [0.0, 0.7], 1, 1e-14, 256)
    assert report.converged
    b1 = np.array([h[-1, 0] for h in report.diag_history])
    moves = np.abs(np.diff(b1))
    assert np.all(moves[1:] < moves[:-1]) and moves[-1] <= 1e-12 * abs(b1[-1])


def test_a_breakdown_is_raised_not_reported():
    # b_n = n at t = 30: the evolved weights of a truncation sit on
    # fewer nodes than the m + 1 Lanczos steps need
    init = make_initial_data("linear_b", {"beta": 1.0})
    with pytest.raises(DegenerateMeasureError, match="^orthogonalization norm .* at step 1; measure is numerically "
                       "supported on fewer than 4 points$"):
        solve_toda_semi_infinite(init, [0.0, 30.0], 3, 1e-8, 64)
    # a_n = 1e40: the report's moments sum |lam|^k w up to k = 15, past the
    # double range, while 2 t lam stays small on the grid [0, 1e-41]
    init = make_initial_data("linear_b", {"alpha": 1e40})
    with pytest.raises(OverflowError, match=r"^\|node\|\^k \* weight for some k < 16 left the double-precision range$"):
        solve_toda_semi_infinite(init, [0.0, 1e-41], 8, 1e-8, 64)
