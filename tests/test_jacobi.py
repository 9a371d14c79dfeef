import importlib.machinery
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

import todaflow.jacobi
from todaflow import (
    DiscreteMeasure,
    EigenConvergenceError,
    JacobiMatrix,
    MomentSequence,
    NumericalError,
    PoleProximityError,
    TodaTrajectory,
    chebyshev_u,
    eigendecompose,
    make_initial_data,
    moment_bilinear_form,
    moments_from_measure,
    rk4_toda,
    solve_toda_finite,
    solve_toda_semi_infinite,
    weyl_function,
)
from todaflow.cli import RunConfig
from todaflow.jacobi import _first_log_weights, _spectral_measures, _twisted_log_weights

SQRT2 = np.sqrt(2.0)


def random_jacobi(rng, n):
    return JacobiMatrix(diag=rng.uniform(-2, 2, n), offdiag=rng.uniform(0.5, 2, n - 1))


def test_matrix_construction_rejects_bad_input():
    with pytest.raises(ValueError):
        JacobiMatrix(diag=[], offdiag=[])
    with pytest.raises(ValueError):
        JacobiMatrix(diag=[0.0, 0.0], offdiag=[-1.0])
    with pytest.raises(ValueError):
        JacobiMatrix(diag=[0.0, 0.0], offdiag=[0.0])
    with pytest.raises(ValueError):
        JacobiMatrix(diag=[0.0, 0.0], offdiag=[1.0, 2.0])
    with pytest.raises(ValueError):
        JacobiMatrix(diag=[np.nan, 0.0], offdiag=[1.0])
    # only integer and float arrays are read; nothing else is converted
    not_real = [
        (["0", "0.5"], ["1"]),
        (np.array([1 + 2j, 0.0]), [1.0]),
        ([True, False], [1.0]),
        (np.array([0.0, 0.5], dtype=object), [1.0]),
        # numpy reads a bool among numbers as 1.0
        ([True, 0.5], [1.0]),
        ([np.True_, 0.5], (1.0,)),
    ]
    for diag, offdiag in not_real:
        with pytest.raises(ValueError, match="real numbers"):
            JacobiMatrix(diag=diag, offdiag=offdiag)


def test_measure_construction_rejects_bad_input():
    with pytest.raises(ValueError):
        DiscreteMeasure(nodes=[1.0, 0.0], weights=[0.5, 0.5])
    with pytest.raises(ValueError):
        DiscreteMeasure(nodes=[0.0, 0.0], weights=[0.5, 0.5])
    with pytest.raises(ValueError, match="^weights: entries must be strictly positive"):
        DiscreteMeasure(nodes=[0.0, 1.0], weights=[0.5, 0.0])
    with pytest.raises(ValueError, match="^weights: entries must be strictly positive"):
        DiscreteMeasure(nodes=[0.0, 1.0], weights=[0.5, -0.5])
    with pytest.raises(ValueError, match="^weights must match nodes in length"):
        DiscreteMeasure(nodes=[0.0, 1.0], weights=[1.0])
    with pytest.raises(ValueError, match="^nodes: need a 1-d array, got a ragged nesting"):
        DiscreteMeasure(nodes=[[0.0], [1.0, 2.0]], weights=[1.0])
    not_real = [
        (["0", "1"], [0.5, 0.5]),
        ([0.0, 1.0], np.array([0.5, 0.5 + 0.5j])),
        ([False, True], [0.5, 0.5]),
        (np.array([0.0, 1.0], dtype=object), [0.5, 0.5]),
        ([0, 1], [True, 0.5]),
    ]
    for nodes, weights in not_real:
        with pytest.raises(ValueError, match="real numbers"):
            DiscreteMeasure(nodes=nodes, weights=weights)


def test_every_public_array_argument_rejects_a_hidden_bool_array():
    # numpy reads a bool array among numbers, or as a row among rows, as
    # 1.0 and 0.0; each public array argument is given one in a list
    hidden = np.array(True)
    j = JacobiMatrix(diag=[0.0, 0.5], offdiag=[1.0])
    s = MomentSequence([1.0, 0.5, 1.0])
    calls = [
        ("diag", lambda: JacobiMatrix(diag=[1.0, hidden], offdiag=[1.0])),
        ("offdiag", lambda: JacobiMatrix(diag=[0.0, 0.5], offdiag=(hidden,))),
        ("nodes", lambda: DiscreteMeasure(nodes=[-1.0, hidden], weights=[0.5, 0.5])),
        ("weights", lambda: DiscreteMeasure(nodes=[0.0, 1.0], weights=[0.5, hidden])),
        ("values", lambda: MomentSequence([1.0, hidden])),
        ("times", lambda: TodaTrajectory(times=[0.0, hidden], diag=[[0.0, 0.5]] * 2, offdiag=[[1.0]] * 2)),
        ("diag", lambda: TodaTrajectory(times=[0, 1], diag=[[1.0, 2.0], np.array([True, False])], offdiag=[[1.0]] * 2)),
        ("offdiag", lambda: TodaTrajectory(times=[0, 1], diag=[[0.0, 0.5]] * 2, offdiag=[[1.0], [hidden]])),
        ("f", lambda: moment_bilinear_form(s, [1.0, True], [1.0])),
        ("f", lambda: moment_bilinear_form(s, hidden, [1.0])),
        ("g", lambda: moment_bilinear_form(s, [1.0], [0.5, hidden])),
        ("lam", lambda: chebyshev_u(2, [0.5, hidden])),
        ("times", lambda: solve_toda_finite(j, [0.0, hidden])),
        ("times", lambda: rk4_toda(j, [0.0, hidden], 0.5)),
        ("times", lambda: solve_toda_semi_infinite(make_initial_data("linear_b"), [0.0, hidden], 1, 1e-8, 64)),
        ("params.a", lambda: make_initial_data("table", {"a": [1.0, hidden], "b": [0.0, 0.5]})),
        ("params.b", lambda: make_initial_data("table", {"a": [1.0], "b": [0.0, hidden]})),
    ]
    for name, call in calls:
        with pytest.raises(ValueError, match=f"^{name}: need real numbers, got (true/false|bool) entries"):
            call()


def test_ragged_arguments_are_named():
    # numpy's own message on a ragged list names no parameter
    s = MomentSequence([1.0, 0.5, 1.0])
    ragged = [1.0, [2.0, 3.0]]
    calls = [
        ("f", lambda: moment_bilinear_form(s, ragged, [1.0])),
        ("g", lambda: moment_bilinear_form(s, [1.0], ragged)),
        ("lam", lambda: chebyshev_u(2, ragged)),
    ]
    for name, call in calls:
        with pytest.raises(ValueError, match=f"^{name}: need a rectangular array, got a ragged nesting$"):
            call()
    # a scalar stays a scalar point and a one-entry polynomial
    value = chebyshev_u(3, 0.5)
    assert type(value) is float and value == -0.75
    assert moment_bilinear_form(s, 2.0, [1.0, 1.0]) == 3.0


def test_nodes_whose_difference_overflows_construct_without_a_warning():
    # neighbours are compared, not subtracted: 1e308 - (-1e308) overflows,
    # and under the suite's error::RuntimeWarning that warning would fail
    mu = DiscreteMeasure([-1e308, 1e308], [0.5, 0.5])
    np.testing.assert_array_equal(mu.nodes, [-1e308, 1e308])


def test_equal_huge_nodes_are_still_rejected():
    with pytest.raises(ValueError, match="strictly increasing"):
        DiscreteMeasure([1e308, 1e308], [0.5, 0.5])


def test_values_are_immutable():
    j = JacobiMatrix(diag=[0.0, 0.0], offdiag=[1.0])
    with pytest.raises(ValueError):
        j.diag[0] = 1.0
    mu = eigendecompose(j)
    with pytest.raises(ValueError):
        mu.weights[0] = 1.0


def test_eigendecompose_1x1():
    mu = eigendecompose(JacobiMatrix(diag=[3.0], offdiag=[]))
    assert mu.nodes.tolist() == [3.0]
    assert mu.weights.tolist() == [1.0]


def test_eigendecompose_2x2_symmetric():
    mu = eigendecompose(JacobiMatrix(diag=[0.0, 0.0], offdiag=[1.0]))
    np.testing.assert_allclose(mu.nodes, [-1.0, 1.0], atol=1e-14)
    np.testing.assert_allclose(mu.weights, [0.5, 0.5], atol=1e-14)


def test_eigendecompose_3x3_against_dense_oracle():
    j = JacobiMatrix(diag=[0.0, 0.0, 0.0], offdiag=[1.0, 1.0])
    mu = eigendecompose(j)
    np.testing.assert_allclose(mu.nodes, [-SQRT2, 0.0, SQRT2], atol=1e-14)
    np.testing.assert_allclose(mu.weights, [0.25, 0.5, 0.25], atol=1e-14)
    lam, vec = np.linalg.eigh(j.to_dense())
    np.testing.assert_allclose(mu.nodes, lam, atol=1e-13)
    np.testing.assert_allclose(mu.weights, vec[0, :] ** 2, atol=1e-13)


def test_weights_sum_to_one_and_b1_proposition():
    rng = np.random.default_rng(42)
    for _ in range(30):
        j = random_jacobi(rng, int(rng.integers(1, 9)))
        mu = eigendecompose(j)
        mass, b1 = moments_from_measure(mu, 2).values
        assert abs(mass - 1.0) < 1e-12
        assert abs(b1 - j.diag[0]) < 1e-10


def test_b1_from_measure_examples():
    # b_1 of a unit-mass spectral measure is its first moment
    def b1(mu):
        return moments_from_measure(mu, 2).values[1]

    assert b1(DiscreteMeasure([-1.0, 1.0], [0.5, 0.5])) == 0.0
    assert b1(DiscreteMeasure([3.0], [1.0])) == 3.0
    assert abs(b1(DiscreteMeasure([-SQRT2, 0.0, SQRT2], [0.25, 0.5, 0.25]))) < 1e-16


def test_measure_moments_match_matrix_powers():
    # moments of the spectral measure equal e_1^T J^k e_1
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(1, 9))
        j = random_jacobi(rng, n)
        mu = eigendecompose(j)
        dense = j.to_dense()
        power = np.eye(n)
        for k in range(7):
            direct = power[0, 0]
            spectral = np.sum(mu.nodes**k * mu.weights)
            assert abs(spectral - direct) < 1e-9
            power = power @ dense


def test_eigen_collision_is_reported_as_breakdown(monkeypatch):
    # offdiag 1e-300 is positive, but the eigenvalue gap 2e-300 is far below
    # the 1e-12 simplicity threshold against ||J|| = 1
    with pytest.raises(EigenConvergenceError):
        eigendecompose(JacobiMatrix(diag=[1.0, 1.0], offdiag=[1e-300]))
    # MRRR sets over a hundred first components of random N = 256 to 0; a
    # twisted pass that cannot recompute them yields no measure
    rng = np.random.default_rng(0)
    j = JacobiMatrix(diag=rng.uniform(-2.0, 2.0, 256), offdiag=rng.uniform(0.5, 2.0, 255))
    monkeypatch.setattr(todaflow.jacobi, "_twisted_log_weights", lambda d, e, lam, vec: np.full(lam.shape, np.nan))
    with pytest.raises(EigenConvergenceError, match="^a log weight is not finite"):
        eigendecompose(j)
    # an MRRR iteration that fails is reported with LAPACK's info
    monkeypatch.setattr(todaflow.jacobi.lapack, "dstemr", lambda *args: (None, None, None, 22))
    with pytest.raises(EigenConvergenceError, match=r"dstemr info=22\)$"):
        eigendecompose(JacobiMatrix(diag=[0.0, 0.0], offdiag=[1.0]))


def test_separation_is_relative_at_every_scale():
    # [[0, 1], [1, 0]] * 1e-300: a gap of 2 ||J||, at any scale
    mu = eigendecompose(JacobiMatrix(diag=[0.0, 0.0], offdiag=[1e-300]))
    np.testing.assert_allclose(mu.nodes, [-1e-300, 1e-300], rtol=1e-15)
    np.testing.assert_allclose(mu.weights, [0.5, 0.5], rtol=1e-15)


def test_eigenvalues_near_the_double_range():
    mu = eigendecompose(JacobiMatrix(diag=[1e308, -1e308], offdiag=[1e308]))
    np.testing.assert_allclose(mu.nodes, [-SQRT2 * 1e308, SQRT2 * 1e308], rtol=1e-15)
    np.testing.assert_allclose(mu.weights, [(2 - SQRT2) / 4, (2 + SQRT2) / 4], rtol=1e-14)
    # 1.7e308 + 1e308 is beyond it
    with pytest.raises(OverflowError, match="beyond the double range"):
        eigendecompose(JacobiMatrix(diag=[1.7e308, 1.7e308], offdiag=[1e308]))


def test_subnormal_nodes_increase_strictly_or_raise():
    # random N = 3-19 lattices scaled by 2^k: at subnormal scale neighbouring
    # eigenvalues can round to one double, and eigendecompose then raises
    # rather than return nodes its own type refuses
    rng = np.random.default_rng(0)
    outcomes = {"returned": 0, "raised": 0}
    for _ in range(1000):
        n = int(rng.integers(3, 20))
        b, a = rng.uniform(-2.0, 2.0, n), rng.uniform(0.5, 2.0, n - 1)
        for k in (-1040, -1050, -1060, -1066, -1070):
            j = JacobiMatrix(diag=np.ldexp(b, k), offdiag=np.ldexp(a, k))
            try:
                mu = eigendecompose(j)
            except NumericalError:
                outcomes["raised"] += 1
                continue
            assert (np.diff(mu.nodes) > 0).all(), (n, k)
            outcomes["returned"] += 1
    assert outcomes["raised"] and outcomes["returned"], outcomes


def mpmath_log_weights(j, digits):
    # log squared first components of the eigenvectors, by mpmath at the
    # given precision, in increasing order of the eigenvalues
    with mpmath.workdps(digits):
        values, vectors = mpmath.eigsy(mpmath.matrix(j.to_dense().tolist()))
        order = sorted(range(j.n), key=lambda k: values[k])
        return np.array([float(2 * mpmath.log(abs(vectors[0, k]))) for k in order])


def test_log_weights_match_mpmath():
    # 60-digit eigenvectors of random N = 32 lattices; the twisted pass is
    # checked on every node, not only on those MRRR sets to 0
    for seed in (0, 1):
        j = random_jacobi(np.random.default_rng(seed), 32)
        exact = mpmath_log_weights(j, 60)
        mu = eigendecompose(j)
        assert np.max(np.abs(mu.log_weights - exact)) <= 1e-10
        lam, vec = eigh_tridiagonal(j.diag, j.offdiag, lapack_driver="stemr")
        twisted = _twisted_log_weights(j.diag, j.offdiag, lam, vec)
        assert np.max(np.abs(twisted - exact)) <= 1e-10


def test_weights_below_the_double_range_match_mpmath():
    # a coupling of 1e-170 splits the lattice in two: the weights of the
    # lower block reach e^-800, and a_5^2 underflows in the pivots
    j = random_jacobi(np.random.default_rng(1), 12)
    j = JacobiMatrix(j.diag, np.where(np.arange(11) == 5, 1e-170, j.offdiag))
    exact = mpmath_log_weights(j, 400)
    assert np.min(exact) < -745.0
    assert np.max(np.abs(eigendecompose(j).log_weights - exact)) <= 1e-10


def test_power_of_two_scaling_is_exact():
    # LAPACK's MRRR fails on this lattice times 2^48; eigendecompose
    # scales all three to the same matrix
    j = random_jacobi(np.random.default_rng(3), 256)
    mu = eigendecompose(j)
    for k in (48, 200, -200):
        big = eigendecompose(JacobiMatrix(j.diag * 2.0**k, j.offdiag * 2.0**k))
        np.testing.assert_array_equal(big.nodes, mu.nodes * 2.0**k)
        np.testing.assert_array_equal(big.log_weights, mu.log_weights)


def test_twisted_pass_agrees_with_the_mrrr_components():
    # at random N = 256 MRRR sets over a hundred first components to 0;
    # the pass must agree with every one it kept, and so must the weights
    # eigendecompose makes of both
    j = random_jacobi(np.random.default_rng(3), 256)
    lam, vec = eigh_tridiagonal(j.diag, j.offdiag, lapack_driver="stemr")
    first = np.abs(vec[0])
    kept = first > 0.0
    assert np.count_nonzero(~kept) > 100
    twisted = _twisted_log_weights(j.diag, j.offdiag, lam, vec)
    np.testing.assert_allclose(twisted[kept], 2.0 * np.log(first[kept]), rtol=0, atol=1e-10)
    np.testing.assert_allclose(eigendecompose(j).log_weights, twisted, rtol=0, atol=1e-10)


def test_twisted_repair_holds_bounded_memory():
    # at random N = 1024 MRRR sets most first components to 0; repaired all
    # at once, the pass held about six (N, K) arrays for the K lost ones
    # (38 MB), and 256 at a time it holds 11 MB, bitwise the same weights
    j = random_jacobi(np.random.default_rng(0), 1024)
    lam, vec = eigh_tridiagonal(j.diag, j.offdiag, lapack_driver="stemr")
    lost = vec[0] == 0.0
    assert np.count_nonzero(lost) > 3 * 256
    tracemalloc.start()
    try:
        log_weights = _first_log_weights(j.diag, j.offdiag, lam, vec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6
    whole = _twisted_log_weights(j.diag, j.offdiag, lam[lost], vec[:, lost])
    np.testing.assert_array_equal(log_weights[lost], whole)


def test_last_component_measure_is_that_of_the_reversed_chain():
    # random N = 256: MRRR sets over a hundred last components to 0 as
    # well; the twisted pass on the reversed chain recomputes them, and the
    # first-component measure is eigendecompose's, bitwise
    j = random_jacobi(np.random.default_rng(3), 256)
    first, last = _spectral_measures(j, last=True)
    mu = eigendecompose(j)
    np.testing.assert_array_equal(first.nodes, mu.nodes)
    np.testing.assert_array_equal(first.log_weights, mu.log_weights)
    assert last.nodes is first.nodes
    _, vec = eigh_tridiagonal(j.diag, j.offdiag, lapack_driver="stemr")
    assert np.count_nonzero(vec[-1] == 0.0) > 100
    reversed_mu = eigendecompose(JacobiMatrix(j.diag[::-1], j.offdiag[::-1]))
    np.testing.assert_allclose(last.log_weights, reversed_mu.log_weights, rtol=0, atol=1e-10)
    single = JacobiMatrix([0.3], [])
    assert [m.log_weights.tolist() for m in _spectral_measures(single, last=True)] == [[0.0], [0.0]]


def test_twisted_pass_through_zero_pivots():
    # b = 0 at lam = 0: every other pivot is exactly 0 and the next one
    # -inf, above the twist at the last row; a = (2, 1) has the
    # eigenvector (1, 0, -2) / sqrt 5, a = (2, 1, 1, 1/2) one along
    # (1, 0, -2, 0, 4), of squared norm 21
    for offdiag, vector, weight in (
        ([2.0, 1.0], [1.0, 0.0, -2.0], 1.0 / 5.0),
        ([2.0, 1.0, 1.0, 0.5], [1.0, 0.0, -2.0, 0.0, 4.0], 1.0 / 21.0),
    ):
        vec = np.array(vector)[:, np.newaxis] / np.linalg.norm(vector)
        log_w = _twisted_log_weights(np.zeros(vec.shape[0]), np.array(offdiag), np.zeros(1), vec)
        assert abs(log_w[0] - np.log(weight)) < 1e-15


def test_log_weight_of_a_lowest_node_far_below_the_double_range():
    # random N = 1024: MRRR sets the lowest node's first component to 0;
    # the reference is mpmath bisection and a twisted vector, the same at
    # 60 and 100 digits
    mu = eigendecompose(random_jacobi(np.random.default_rng(0), 1024))
    assert abs(mu.log_weights[0] - -1947.5618453889479) <= 1e-9


def test_measure_holds_log_weights():
    mu = DiscreteMeasure([-1.0, 1.0], [0.25, 0.75])
    np.testing.assert_array_equal(mu.log_weights, np.log([0.25, 0.75]))
    np.testing.assert_array_equal(mu.weights, np.exp(mu.log_weights))
    assert not mu.log_weights.flags.writeable
    assert not mu.weights.flags.writeable


def test_weyl_function_examples():
    assert weyl_function(JacobiMatrix([0.0], []), 2.0) == 0.5
    assert abs(weyl_function(JacobiMatrix([0.0, 0.0], [1.0]), 2.0) - 2.0 / 3.0) < 1e-15
    assert abs(weyl_function(JacobiMatrix([0.0, 0.0], [1.0]), 0.0)) < 1e-15


def test_weyl_function_matches_direct_linear_solve():
    # oracle: first component of (lam I - J)^{-1} e_1 (the sign that matches
    # the partial-fraction examples)
    rng = np.random.default_rng(11)
    for _ in range(15):
        n = int(rng.integers(1, 9))
        j = random_jacobi(rng, n)
        mu = eigendecompose(j)
        lam = mu.nodes[-1] + 0.5 + rng.uniform(0.0, 2.0)
        e1 = np.zeros(n)
        e1[0] = 1.0
        x = np.linalg.solve(lam * np.eye(n) - j.to_dense(), e1)
        assert abs(weyl_function(j, lam) - x[0]) < 1e-9


def test_weyl_function_pole_proximity():
    j = JacobiMatrix([0.0, 0.0], [1.0])
    with pytest.raises(PoleProximityError):
        weyl_function(j, 1.0 + 1e-12)
    # NaN is at no distance from the spectrum; it is bad input, not a pole
    with pytest.raises(ValueError, match="finite"):
        weyl_function(j, np.nan)


def test_weyl_function_pole_tolerance_is_relative():
    # the point 3 is as far from the spectrum of 2^-40 J, relative to it, as
    # from that of J; an absolute tolerance of 1e-10 refused the scaled point
    j = JacobiMatrix([0.0, 0.5, -0.3], [1.0, 0.7])
    value = weyl_function(j, 3.0)
    assert abs(value - 0.38839) < 1e-5
    small = JacobiMatrix(np.ldexp(j.diag, -40), np.ldexp(j.offdiag, -40))
    assert weyl_function(small, np.ldexp(3.0, -40)) == np.ldexp(value, 40)
    # the gap is relative to max |lambda|, so lambda = 0 on J = [0] is still a pole
    with pytest.raises(PoleProximityError, match="within 0.000e"):
        weyl_function(JacobiMatrix([0.0], []), 0.0)


def test_weyl_function_overflow_is_loud():
    # nodes +-2^-1020 and a point 2^-1040 above the top one: outside the
    # relative pole tolerance (about 2^-1053), but the term 0.5 / 2^-1040 is
    # 2^1039, past the double range, which numpy would return as inf
    j = JacobiMatrix([0.0, 0.0], [2.0**-1020])
    with pytest.raises(OverflowError, match="left the double-precision range"):
        weyl_function(j, 2.0**-1020 + 2.0**-1040)


@pytest.mark.parametrize(
    "make",
    [
        lambda: JacobiMatrix([0.0, 1.0], [1.0]),
        lambda: DiscreteMeasure([0.0, 1.0], [0.5, 0.5]),
        lambda: TodaTrajectory([0.0, 1.0], [[0.0, 1.0]] * 2, [[1.0]] * 2),
        lambda: MomentSequence([1.0, 0.0, 1.0]),
        lambda: solve_toda_semi_infinite(make_initial_data("linear_b"), [0.0, 1.0], 1, 1e-8, 16)[1],
        lambda: RunConfig("finite", np.linspace(0.0, 1.0, 3), JacobiMatrix([0.0, 1.0], [1.0]), {}, {}),
    ],
    ids=["JacobiMatrix", "DiscreteMeasure", "TodaTrajectory", "MomentSequence", "StabilizationReport", "RunConfig"],
)
def test_equality_is_identity(make):
    # the fields hold numpy arrays, which a field-by-field == cannot compare
    first, second = make(), make()
    assert first == first
    assert first != second
    assert hash(first) == hash(first)


@pytest.mark.parametrize("first", ["todaflow", "scipy.linalg"])
def test_scipy_linalg_imports_beside_todaflow_and_runs_the_same_dstemr(first):
    # todaflow loads scipy's compiled LAPACK wrapper without scipy.linalg's
    # package init; in either import order scipy.linalg still imports, and
    # its dstemr returns the arrays that todaflow's does, bit for bit
    env = dict(os.environ, PYTHONPATH=str(Path(todaflow.jacobi.__file__).parents[1]))
    code = f"""
import importlib
import numpy as np
importlib.import_module({first!r})
import todaflow.jacobi
import scipy.linalg
rng = np.random.default_rng(0)
d = rng.uniform(-2, 2, 64)
e = np.append(rng.uniform(0.5, 2, 63), 0.0)
ours = todaflow.jacobi.lapack.dstemr(d, e.copy(), 0, 0.0, 0.0, 0, 0)
theirs = scipy.linalg.lapack.dstemr(d, e.copy(), 0, 0.0, 0.0, 0, 0)
print(ours[3], theirs[3], all(np.array_equal(x, y) for x, y in zip(ours, theirs)))
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.split() == ["0", "0", "True"]


def test_a_scipy_without_its_lapack_wrapper_fails_at_import():
    env = dict(os.environ, PYTHONPATH=str(Path(todaflow.jacobi.__file__).parents[1]))
    code = """
import importlib.machinery
find_spec = importlib.machinery.PathFinder.find_spec
def hide_flapack(name, path=None, target=None):
    return None if name == "scipy.linalg._flapack" else find_spec(name, path, target)
importlib.machinery.PathFinder.find_spec = hide_flapack
try:
    import todaflow
except ImportError as e:
    print(e.name, "|", e)
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    name, message = proc.stdout.strip().split(" | ")
    assert name == "scipy.linalg._flapack"
    assert message.startswith("scipy ") and message.endswith(" has no scipy.linalg._flapack")


def test_a_missing_lapack_wrapper_raises_an_import_error_naming_it(monkeypatch):
    # the same raise in process, where the loader is called again
    monkeypatch.setattr(importlib.machinery.PathFinder, "find_spec", lambda *args: None)
    with pytest.raises(ImportError, match=r"^scipy \S+ has no scipy\.linalg\._flapack$") as exc:
        todaflow.jacobi._compiled_lapack()
    assert exc.value.name == "scipy.linalg._flapack"
