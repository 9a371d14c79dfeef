"""Dictionary between power moments and the dynamic response vector.

The response vector of the discrete boundary-control system associated
with a Jacobi matrix has entries r_{k-1} = integral of T_k against the
spectral measure, where T_k are second-kind Chebyshev polynomials in the
normalization T_0 = 0, T_1 = 1, T_{j+1} = lambda T_j - T_{j-1}.  Expanding
T_k in monomials turns this into an integer matrix applied to the moment
vector; both routes are implemented and must agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .jacobi import DiscreteMeasure, _count, _real_array
from .moments import MomentSequence

__all__ = [
    "ResponseVector",
    "chebyshev_u",
    "lambda_matrix",
    "response_from_moments",
    "response_from_measure",
]

# Matrix entries are exact in int64 far beyond this, but moment/response
# conversions are meaningless in double precision for longer vectors.
_K_MAX = 30


@dataclass(frozen=True)
class ResponseVector:
    """Response entries r_0..r_{K-1}; r_0 always equals s_0 since T_1 = 1."""

    values: np.ndarray

    def __post_init__(self):
        v = _real_array("values", self.values, 1)
        if v.size < 1:
            raise ValueError("values must have at least one entry")
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return self.values.size


def chebyshev_u(k: int, lam):
    """Second-kind Chebyshev value T_k(lam) by the forward recurrence.

    T_0 = 0, T_1 = 1, T_{j+1} = lam * T_j - T_{j-1}.  Accepts a scalar or
    an ndarray of evaluation points.
    """
    k = _count("k", k, 0)
    arr = _real_array("lam", lam, np.ndim(lam))
    scalar = arr.ndim == 0
    prev = np.zeros_like(arr)
    cur = np.ones_like(arr)
    if k == 0:
        return float(prev) if scalar else prev
    for _ in range(k - 1):
        prev, cur = cur, arr * cur - prev
    return float(cur) if scalar else cur


def lambda_matrix(size: int) -> np.ndarray:
    """Integer matrix taking the moment vector (s_0..s_{K-1}) to (r_0..r_{K-1}).

    Row i, column j (0-based) is the coefficient of s_j in the monomial
    expansion of T_{i+1}:

        binom((i+j)/2, j) * (-1)^((i+j)/2 + j)   for j <= i with i+j even,
        0 otherwise.

    T_{i+1} has degree i and only exponents of i's parity, which forces the
    lower-triangular checkerboard support.  Entries are computed in exact
    integer arithmetic; size is capped at 30.
    """
    size = _count("size", size, 1, _K_MAX)
    out = np.zeros((size, size), dtype=np.int64)
    for i in range(size):
        for j in range(i % 2, i + 1, 2):
            entry = math.comb((i + j) // 2, j) * (-1) ** ((i + j) // 2 + j)
            if abs(entry) >= 2**62:
                raise OverflowError("lambda matrix entry exceeds int64 range")
            out[i, j] = entry
    return out


def response_from_moments(s: MomentSequence) -> ResponseVector:
    """Response vector as the integer-matrix image of the moment vector."""
    return ResponseVector(values=lambda_matrix(len(s)).astype(float) @ s.values)


def response_from_measure(mu: DiscreteMeasure, count: int) -> ResponseVector:
    """Response entries r_{k-1} = sum_j T_k(node_j) * weight_j, k = 1..count.

    One forward-recurrence sweep over the nodes; each entry is accumulated
    by compensated summation, mirroring moments_from_measure.
    """
    count = _count("count", count, 1)
    prev = np.zeros_like(mu.nodes)
    cur = np.ones_like(mu.nodes)
    vals = np.empty(count)
    vals[0] = math.fsum(cur * mu.weights)
    for k in range(1, count):
        prev, cur = cur, mu.nodes * cur - prev
        vals[k] = math.fsum(cur * mu.weights)
    return ResponseVector(values=vals)
