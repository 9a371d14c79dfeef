"""Dictionary between power moments and the dynamic response vector.

The response vector of the discrete boundary-control system associated
with a Jacobi matrix has entries r_{k-1} = integral of T_k against the
spectral measure, where T_k are second-kind Chebyshev polynomials in the
normalization T_0 = 0, T_1 = 1, T_{j+1} = lambda T_j - T_{j-1}.  Expanding
T_k in monomials turns this into an integer matrix applied to the moment
vector; both routes are implemented and must agree.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .jacobi import DiscreteMeasure, _count, _real_array, _weighted_sums
from .moments import MomentSequence

__all__ = [
    "chebyshev_u",
    "lambda_matrix",
    "response_from_moments",
    "response_from_measure",
]

# Matrix entries are exact in int64 far beyond this, but moment/response
# conversions are meaningless in double precision for longer vectors.
_K_MAX = 30


def _chebyshev_rows(lam: np.ndarray):
    # T_0(lam), T_1(lam), ... without end, from T_{-1} = -1; an entry past the
    # double range turns inf or NaN, silently, and stays so in every later row
    prev, cur = -np.ones_like(lam), np.zeros_like(lam)
    while True:
        yield cur
        with np.errstate(over="ignore", invalid="ignore"):
            prev, cur = cur, lam * cur - prev


def chebyshev_u(k: int, lam):
    """Second-kind Chebyshev value T_k(lam) by the forward recurrence.

    T_0 = 0, T_1 = 1, T_{j+1} = lam * T_j - T_{j-1}.  Accepts a scalar or
    an ndarray of evaluation points.  Raises OverflowError if T_k(lam) is
    beyond the double range.
    """
    k = _count("k", k, 0)
    arr = _real_array("lam", lam, None)
    cur = next(itertools.islice(_chebyshev_rows(arr), k, None))
    if not np.isfinite(cur).all():
        raise OverflowError(f"T_{k}(lam) left the double-precision range")
    return float(cur) if arr.ndim == 0 else cur


def lambda_matrix(size: int) -> np.ndarray:
    """Integer matrix taking the moment vector (s_0..s_{K-1}) to (r_0..r_{K-1}).

    Row i, column j (0-based) is the coefficient of s_j in the monomial
    expansion of T_{i+1}:

        binom((i+j)/2, j) * (-1)^((i+j)/2 + j)   for j <= i with i+j even,
        0 otherwise.

    T_{i+1} has degree i and only exponents of i's parity, which forces the
    lower-triangular checkerboard support.  Entries are computed in exact
    integer arithmetic; size is capped at 30 (no entry above 203490).
    """
    size = _count("size", size, 1, _K_MAX)
    out = np.zeros((size, size), dtype=np.int64)
    for i in range(size):
        for j in range(i % 2, i + 1, 2):
            out[i, j] = math.comb((i + j) // 2, j) * (-1) ** ((i + j) // 2 + j)
    return out


def response_from_moments(s: MomentSequence) -> np.ndarray:
    """Response entries r_0..r_{K-1}, K = len(s), as the integer-matrix image of
    the moment vector, each entry a compensated sum; r_0 = s_0 since T_1 = 1.
    Raises OverflowError if a term exceeds the floating-point range."""
    table = lambda_matrix(_count("len(s)", len(s), 1, _K_MAX)).astype(float)
    return _weighted_sums(table, s.values, "lambda_matrix entry * s_j")


def response_from_measure(mu: DiscreteMeasure, count: int) -> np.ndarray:
    """Response entries r_{k-1} = sum_j T_k(node_j) * weight_j, k = 1..count.

    One forward-recurrence sweep over the nodes; each entry is accumulated
    by compensated summation, as moments_from_measure's are.

    Raises OverflowError if any term exceeds the floating-point range.
    """
    count = _count("count", count, 1)
    table = np.array(list(itertools.islice(_chebyshev_rows(mu.nodes), 1, count + 1)))
    what = f"T_k(node) * weight for some k <= {count}"
    return _weighted_sums(table, mu.weights, what)
