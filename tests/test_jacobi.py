import numpy as np
import pytest

from todaflow import (
    DiscreteMeasure,
    EigenConvergenceError,
    JacobiMatrix,
    PoleProximityError,
    b1_from_measure,
    eigendecompose,
    weyl_function,
)

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
    with pytest.raises(ValueError):
        DiscreteMeasure(nodes=[0.0, 1.0], weights=[0.5, 0.0])
    with pytest.raises(ValueError):
        DiscreteMeasure(nodes=[0.0, 1.0], weights=[0.5, -0.5])
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
        assert abs(mu.mass - 1.0) < 1e-12
        assert abs(b1_from_measure(mu) - j.diag[0]) < 1e-10


def test_b1_from_measure_examples():
    assert b1_from_measure(DiscreteMeasure([-1.0, 1.0], [0.5, 0.5])) == 0.0
    assert b1_from_measure(DiscreteMeasure([3.0], [1.0])) == 3.0
    assert abs(b1_from_measure(DiscreteMeasure([-SQRT2, 0.0, SQRT2], [0.25, 0.5, 0.25]))) < 1e-16


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


def test_eigen_collision_is_reported_as_breakdown():
    # offdiag 1e-300 is positive, but the eigenvalue gap 2e-300 is far below
    # the 1e-12 simplicity threshold
    with pytest.raises(EigenConvergenceError):
        eigendecompose(JacobiMatrix(diag=[0.0, 0.0], offdiag=[1e-300]))


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
