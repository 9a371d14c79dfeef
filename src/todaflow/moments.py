"""Power moments of discrete measures and inverse spectral reconstruction.

s_k = integral of lambda^k against the measure.  A real sequence consists
of moments of a positive measure exactly when the Hankel matrices built
from it are positive definite (all of them for infinite support, the
leading ones up to the support size otherwise), and the leading N x N
Jacobi block is recoverable from s_0..s_{2N-1}: either by orthogonalizing
1, lambda, lambda^2, ... directly against the measure (Stieltjes/Lanczos)
or by Cholesky factorization of the Hankel matrix.  The first route is the
robust one; the Hankel route loses accuracy exponentially with N and is
kept for moment-only inputs.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DegenerateMeasureError, PositivityError
from .jacobi import DiscreteMeasure, JacobiMatrix, _count, _finite_real, _real_array

__all__ = [
    "MomentSequence",
    "MomentClassification",
    "POSITIVE_DEFINITE",
    "FINITE_SUPPORT",
    "INVALID",
    "moments_from_measure",
    "hankel_matrix",
    "check_moment_positivity",
    "jacobi_from_measure",
    "jacobi_from_moments",
    "moment_bilinear_form",
]

POSITIVE_DEFINITE = "positive_definite"
FINITE_SUPPORT = "finite_support"
INVALID = "invalid"

# Relative pivot threshold separating genuine Hankel rank deficiency from
# roundoff at desk scale.
_ZERO_PIVOT_REL = 1e-10

_DEGENERATE_NORM = 1e-12

_CONDITION_WARN = 1e12


@dataclass(frozen=True)
class MomentSequence:
    """Moments s_0..s_{K-1}, tagged with the flow time they belong to."""

    values: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        v = _real_array("values", self.values, 1)
        if not (v.size and v[0] > 0.0):
            raise ValueError("values must start with a positive s_0")
        time = _finite_real("time", self.time)
        if time < 0.0:
            raise ValueError("time must be >= 0")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "time", time)

    def __len__(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class MomentClassification:
    """Outcome of the Hankel positivity test.

    kind is one of POSITIVE_DEFINITE, FINITE_SUPPORT, INVALID; order holds
    the largest certified Hankel size, the support size, or the first
    failing size respectively.
    """

    kind: str
    order: int


def _power_terms(nodes: np.ndarray, weights: np.ndarray, count: int) -> np.ndarray:
    # Entry [..., k, j] holds nodes[j]**k * weights[..., j]; finite-ness of
    # every term is the overflow guard demanded of moment accumulation.
    with np.errstate(over="ignore"):
        powers = np.vander(nodes, count, increasing=True).T
        terms = powers * weights[..., np.newaxis, :]
    if not np.all(np.isfinite(terms)):
        raise OverflowError(
            f"|node|^k * weight left the double-precision range before k={count}"
        )
    return terms


def _moment_sums(nodes: np.ndarray, weights: np.ndarray, count: int) -> np.ndarray:
    """Compensated sums of nodes**k * weights, k < count: (count,) for one
    weight row (N,), (rows, count) for a (rows, N) stack over the nodes."""
    terms = _power_terms(nodes, weights, count)
    sums = [math.fsum(row) for row in terms.reshape(-1, nodes.size).tolist()]
    return np.array(sums).reshape(terms.shape[:-1])


def moments_from_measure(mu: DiscreteMeasure, count: int, *, time: float = 0.0) -> MomentSequence:
    """First `count` moments of mu, each accumulated by compensated summation.

    values[k] = sum_j nodes[j]**k * weights[j], k = 0..count-1.

    Raises OverflowError if any term exceeds the floating-point range.
    """
    count = _count("count", count, 1)
    return MomentSequence(values=_moment_sums(mu.nodes, mu.weights, count), time=time)


def hankel_matrix(s: MomentSequence, size: int) -> np.ndarray:
    """Dense size x size Hankel matrix with entries s_{i+j} (0-based)."""
    size = _count("size", size, 1)
    if len(s) < 2 * size - 1:
        raise ValueError(
            f"need {2 * size - 1} moments for a {size}x{size} Hankel matrix, have {len(s)}"
        )
    v = s.values
    return scipy.linalg.hankel(v[:size], v[size - 1 : 2 * size - 1])


def check_moment_positivity(s: MomentSequence) -> MomentClassification:
    """Classify a moment sequence by Cholesky pivots of its Hankel matrices.

    Factorizes the largest Hankel matrix the sequence supports.  The i-th
    pivot is det S_i / det S_{i-1}: all pivots positive certifies positive
    definiteness up to the largest testable size; a pivot below
    -1e-10 * ||S|| marks an impossible sequence.  A pivot within
    1e-10 * ||S|| of zero marks candidate finite support of size i-1 --
    confirmed only if the factorization residual vanishes from there on
    (zero pivot with a nonzero residual row, or a later nonzero pivot,
    means the matrix is indefinite and the sequence invalid, e.g.
    [1, 0, 0, 0, 1]).
    """
    t_max = (len(s) + 1) // 2
    h = hankel_matrix(s, t_max)
    thresh = _ZERO_PIVOT_REL * float(np.linalg.norm(h))
    r, support, pivot = _hankel_cholesky(h, thresh)
    if support == t_max:
        return MomentClassification(kind=POSITIVE_DEFINITE, order=t_max)
    if pivot < -thresh:
        return MomentClassification(kind=INVALID, order=support + 1)
    # a zero pivot: finite support of that size only if the Schur
    # complement of the factored block vanishes from there on
    for i in range(support, t_max):
        if np.max(np.abs(h[i, i:] - r[:i, i] @ r[:i, i:])) > thresh:
            return MomentClassification(kind=INVALID, order=i + 1)
    return MomentClassification(kind=FINITE_SUPPORT, order=support)


def _hankel_cholesky(h: np.ndarray, floor: float) -> tuple[np.ndarray, int, float | None]:
    """Rows of the upper-triangular R with R^T R = h until a pivot is <= floor.

    h is square or bordered (more columns than rows).  Returns (r, i, pivot):
    r holds rows 0..i-1 of R above zero rows, i is the first row whose
    pivot is <= floor and pivot is that pivot; i = h.shape[0] and pivot =
    None when every pivot exceeds floor.
    """
    r = np.zeros(h.shape)
    for i in range(h.shape[0]):
        pivot = h[i, i] - float(r[:i, i] @ r[:i, i])
        if pivot <= floor:
            return r, i, pivot
        r[i, i] = math.sqrt(pivot)
        r[i, i + 1 :] = (h[i, i + 1 :] - r[:i, i] @ r[:i, i + 1 :]) / r[i, i]
    return r, h.shape[0], None


def jacobi_from_measure(mu: DiscreteMeasure, n: int) -> JacobiMatrix:
    """Jacobi matrix whose spectral measure reproduces mu's moments through s_{2n-1}.

    Stieltjes/Lanczos procedure: orthonormalize 1, lambda, lambda^2, ...
    in L^2(mu) -- a finite weighted sum over the nodes, exact for discrete
    measures -- and read the three-term recurrence off the sequence.
    Diagonal entries are the recurrence centers, off-diagonal entries the
    (positive) norms.  When mu has exactly n nodes this inverts
    eigendecompose.  Vectors are reorthogonalized twice per step, which
    keeps the round trip at roundoff level for desk-scale n.  This is the
    one-row call of the batched kernel that solve_toda_finite runs over
    all grid times at once.

    Raises
    ------
    DegenerateMeasureError
        If an intermediate norm drops below 1e-12 before n coefficients
        are produced (mu is numerically supported on fewer than n points).
    """
    n = _count("n", n, 1)
    if mu.nodes.size < n:
        raise ValueError(f"measure has {mu.nodes.size} nodes, fewer than n={n}")
    diag, offdiag = _stieltjes(mu.nodes, mu.weights[np.newaxis], n)
    return JacobiMatrix(diag=diag[0], offdiag=offdiag[0])


# Cap on the (n, rows, nodes) basis that one sweep of _stieltjes holds; a
# longer stack of weight rows is reconstructed in chunks of rows.  Each
# row's arithmetic is the same whatever rows share its chunk.
_BASIS_BYTES = 1 << 24


def _stieltjes(nodes: np.ndarray, weights: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Recurrence coefficients of every weight row over the shared nodes.

    weights is a (rows, N) stack of positive weight rows on the N nodes;
    returns (rows, n) diagonals and (rows, n-1) off-diagonals, row i being
    the Jacobi block of the measure (nodes, weights[i]).  The recurrence
    of jacobi_from_measure runs over all rows at once, so its loop is over
    the n steps only.  The basis is stored as (n, rows, N): step k reads
    the leading slice basis[:k+1], whose layout does not depend on n, so
    a leading block is bitwise the prefix of a larger reconstruction.
    """
    rows_per_chunk = max(1, _BASIS_BYTES // (n * nodes.size * weights.itemsize))
    diag = np.empty((weights.shape[0], n))
    offdiag = np.empty((weights.shape[0], n - 1))
    for start in range(0, weights.shape[0], rows_per_chunk):
        chunk = slice(start, start + rows_per_chunk)
        _stieltjes_sweep(nodes, weights[chunk], diag[chunk], offdiag[chunk])
    return diag, offdiag


# an overflow ends as inf/NaN in a center or a norm, which the check after
# the loop turns into OverflowError; NaN never reads as degenerate
@np.errstate(over="ignore", invalid="ignore")
def _stieltjes_sweep(x: np.ndarray, w: np.ndarray, diag: np.ndarray, offdiag: np.ndarray) -> None:
    n = diag.shape[1]
    basis = np.empty((n,) + w.shape)
    basis[0] = 1.0 / np.sqrt(np.sum(w, axis=1, keepdims=True))
    q = basis[0]
    q_prev = np.zeros_like(q)
    beta = np.zeros((w.shape[0], 1))
    for k in range(n):
        xq = x * q
        diag[:, k] = np.sum(xq * q * w, axis=1)
        if k == n - 1:
            break
        resid = xq - diag[:, k, np.newaxis] * q - beta * q_prev
        # one (k+1, N) matrix per row: project out the basis twice
        rows_basis = basis[: k + 1].transpose(1, 0, 2)
        for _ in range(2):
            coeffs = rows_basis @ (resid * w)[:, :, np.newaxis]
            resid -= (rows_basis.transpose(0, 2, 1) @ coeffs)[:, :, 0]
        norm = np.sqrt(np.sum(resid * resid * w, axis=1))
        low = np.flatnonzero(norm < _DEGENERATE_NORM)
        if low.size:
            raise DegenerateMeasureError(
                f"orthogonalization norm {norm[low[0]]:.3e} below 1e-12 at step {k + 1}; "
                f"measure is numerically supported on fewer than {n} points"
            )
        offdiag[:, k] = norm
        beta = norm[:, np.newaxis]
        q_prev = q
        q = resid / beta
        basis[k + 1] = q
    # written so that NaN fails it
    if not (np.abs(diag).max() < np.inf and np.max(offdiag, initial=0.0) < np.inf):
        raise OverflowError("a recurrence center or norm left the double-precision range")


def jacobi_from_moments(s: MomentSequence, n: int) -> JacobiMatrix:
    """n x n Jacobi block recovered from moments s_0..s_{2n-1} alone.

    Factorizes the bordered n x (n+1) Hankel block [s_{i+j}] as R^T R with
    R upper triangular; the recurrence coefficients are entry ratios:

        a_k = R[k+1, k+1] / R[k, k]
        b_k = R[k, k+1] / R[k, k] - R[k-1, k] / R[k-1, k-1]

    Agrees with jacobi_from_measure when the moments come from a measure,
    but the Hankel condition number grows exponentially with n, so expect
    full accuracy only for n up to about 8 in double precision.

    Raises PositivityError on a nonpositive pivot; warns if the Hankel
    condition estimate exceeds 1e12.
    """
    n = _count("n", n, 1)
    if len(s) < 2 * n:
        raise ValueError(
            f"need 2n={2 * n} moments (the last diagonal entry requires s_{2 * n - 1}), have {len(s)}"
        )
    cond = float(np.linalg.cond(hankel_matrix(s, n)))
    if cond > _CONDITION_WARN:
        warnings.warn(
            f"Hankel matrix condition {cond:.3e} exceeds 1e12; "
            "reconstructed entries may be meaningless",
            stacklevel=2,
        )
    v = s.values
    r, i, pivot = _hankel_cholesky(scipy.linalg.hankel(v[:n], v[n - 1 : 2 * n]), 0.0)
    if i < n:
        raise PositivityError(
            f"Hankel pivot {i + 1} is nonpositive ({pivot:.3e}); the sequence is "
            f"not positive definite through order {n}"
        )
    pivots = np.diagonal(r)
    centers = np.diagonal(r, 1) / pivots
    return JacobiMatrix(diag=np.diff(centers, prepend=0.0), offdiag=pivots[1:] / pivots[:-1])


def moment_bilinear_form(s: MomentSequence, f, g) -> float:
    """<F, G> = sum_{n,m} s_{n+m} f_n g_m for monomial-basis coefficients."""
    f = _real_array("f", np.atleast_1d(f), 1)
    g = _real_array("g", np.atleast_1d(g), 1)
    size = max(f.size, g.size)
    if len(s) < 2 * size - 1:
        raise ValueError(
            f"need {2 * size - 1} moments for degree-{size - 1} polynomials, have {len(s)}"
        )
    fp = np.zeros(size)
    fp[: f.size] = f
    gp = np.zeros(size)
    gp[: g.size] = g
    return float(fp @ hankel_matrix(s, size) @ gp)
