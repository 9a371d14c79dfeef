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
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateMeasureError, PositivityError
from .jacobi import DiscreteMeasure, JacobiMatrix, _count, _freeze, _real_array, _unchecked, _weighted_sums

__all__ = [
    "MomentSequence",
    "MomentClassification",
    "POSITIVE_DEFINITE",
    "FINITE_SUPPORT",
    "INVALID",
    "moments_from_measure",
    "check_moment_positivity",
    "jacobi_from_measure",
    "jacobi_from_moments",
    "moment_bilinear_form",
]

POSITIVE_DEFINITE = "positive_definite"
FINITE_SUPPORT = "finite_support"
INVALID = "invalid"

# Hankel pivot threshold, relative to the pivot's own diagonal entry,
# separating genuine rank deficiency from roundoff.
_ZERO_PIVOT_REL = 1e-10

_DEGENERATE_NORM = 1e-12

_MOMENT_PIVOT_FLOOR = 1e-5


@dataclass(frozen=True, eq=False)
class MomentSequence:
    """Moments s_0..s_{K-1}."""

    values: np.ndarray

    def __post_init__(self):
        v = _real_array("values", self.values, 1)
        if not (v.size and v[0] > 0.0):
            raise ValueError("values must start with a positive s_0")
        _freeze(self, values=v)

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


# The working set of a stack of weight rows: each row's arithmetic is the
# same whatever rows share its chunk, so a longer stack is taken in chunks
# of rows that hold at most this many bytes.  One sweep of _stieltjes holds
# the (n, rows, nodes) basis and its four (rows, nodes) work buffers, and
# one call of _weighted_sums from _moment_sums the (rows, count, nodes) terms.
_CHUNK_BYTES = 1 << 24


def _moment_sums(nodes: np.ndarray, weights: np.ndarray, count: int) -> np.ndarray:
    """Compensated sums of nodes**k * weights, k < count: (count,) for one
    weight row (N,), (rows, count) for a (rows, N) stack over the nodes.

    The (count, N) power table is formed whole.  The CLI asks for at most
    30 moments, or 2m < n_max of at most n_max nodes, so the table holds
    fewer doubles than the n_max x n_max eigenvectors that its n_max cap
    already admits.  The weight rows go to _weighted_sums in chunks of as
    many as keep their terms within _CHUNK_BYTES (at least one).
    """
    with np.errstate(over="ignore"):
        powers = np.vander(nodes, count, increasing=True).T
    what = f"|node|^k * weight for some k < {count}"
    stack = weights.reshape(-1, nodes.size)
    sums = np.empty((stack.shape[0], count))
    # Chunking cannot change which error is raised: the one stacked caller,
    # _evolved_moments, passes weights exp(tilt - max) <= 1, so a term is
    # non-finite in one row only if its power is, and then it is in every
    # row; the first chunk's check finds it before any chunk is summed.
    rows = max(1, _CHUNK_BYTES // powers.nbytes)
    for start in range(0, stack.shape[0], rows):
        sums[start : start + rows] = _weighted_sums(powers, stack[start : start + rows], what)
    return sums.reshape(weights.shape[:-1] + (count,))


def moments_from_measure(mu: DiscreteMeasure, count: int) -> MomentSequence:
    """First `count` moments of mu, each accumulated by compensated summation.

    values[k] = sum_j nodes[j]**k * weights[j], k = 0..count-1.

    Raises OverflowError if any term exceeds the floating-point range.
    """
    return _unchecked(MomentSequence, values=_moment_sums(mu.nodes, mu.weights, _count("count", count, 1)))


@np.errstate(over="ignore", invalid="ignore")
def check_moment_positivity(s: MomentSequence) -> MomentClassification:
    """Classify a moment sequence by Cholesky pivots of its Hankel matrices.

    Factorizes the largest Hankel matrix the sequence supports.  The i-th
    pivot is det S_i / det S_{i-1}, and each is judged against its own
    diagonal entry s_{2i}, so the test does not depend on how far the
    moments spread in magnitude.  All pivots above 1e-10 * |s_{2i}|
    certify positive definiteness up to the largest testable size; a pivot
    below -1e-10 * |s_{2i}| marks an impossible sequence.  A pivot within
    that band of zero marks candidate finite support of size i-1 --
    confirmed only if the Schur complement vanishes from there on, each
    entry (i, j) within 1e-10 * sqrt(|s_{2i}| |s_{2j}|) (a nonzero
    residual means the matrix is indefinite and the sequence invalid, e.g.
    [1, 0, 0, 0, 1]).
    """
    t_max = (len(s) + 1) // 2
    # the largest Hankel block, as a read-only view: row i is s_i..s_{i+t_max-1}
    h = np.lib.stride_tricks.sliding_window_view(s.values[: 2 * t_max - 1], t_max)
    r, support, pivot = _hankel_cholesky(h, _ZERO_PIVOT_REL)
    if support == t_max:
        return MomentClassification(kind=POSITIVE_DEFINITE, order=t_max)
    if pivot < -_ZERO_PIVOT_REL * abs(h[support, support]):
        return MomentClassification(kind=INVALID, order=support + 1)
    # a zero pivot: finite support of that size only if the Schur complement
    # of the factored block vanishes (NaN fails) from there on; square roots
    # taken apart keep the products of huge moments finite
    scale = np.sqrt(np.abs(np.diagonal(h)))
    for i in range(support, t_max):
        residual = np.abs(h[i, i:] - r[:i, i] @ r[:i, i:])
        if not (residual <= _ZERO_PIVOT_REL * scale[i] * scale[i:]).all():
            return MomentClassification(kind=INVALID, order=i + 1)
    return MomentClassification(kind=FINITE_SUPPORT, order=support)


def _hankel_cholesky(h: np.ndarray, rel: float) -> tuple[np.ndarray, int, float | None]:
    """Rows of the upper-triangular R with R^T R = h until pivot i is <= rel * |h[i, i]|.

    h is square or bordered (more columns than rows).  Returns (r, i, pivot):
    r holds rows 0..i-1 of R above zero rows, i is the first row whose pivot
    is at or below that floor and pivot is that pivot (a NaN one raises
    OverflowError); i = h.shape[0] and pivot = None when all exceed it.
    """
    r = np.zeros(h.shape)
    for i in range(h.shape[0]):
        pivot = h[i, i] - float(r[:i, i] @ r[:i, i])
        if not pivot > rel * abs(h[i, i]):
            if math.isnan(pivot):
                raise OverflowError(f"Hankel row {i + 1}: the pivot is NaN, as the factor left the double range")
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
    eigendecompose.  Each step runs the three-term recurrence in the unit
    vectors q sqrt(w) and projects onto the whole basis only on the steps
    where a bound on the lost orthogonality passes sqrt(eps), and on the
    step after (partial reorthogonalization), which keeps the round trip at
    roundoff level for desk-scale n.  The last step forms no next vector:
    it takes the center u . (lambda u) alone, with no remainder and no
    pass.  This is the one-row call of the batched kernel that
    solve_toda_finite runs over all grid times and both ends of the chain
    at once; it stays one-ended, so its coefficients but the last center
    do not depend on n.

    Raises
    ------
    DegenerateMeasureError
        If an intermediate norm drops below 1e-12 times 2^e, the power of
        two with max |node| in [2^(e-1), 2^e), before n coefficients are
        produced (mu is numerically supported on fewer than n points, as
        when weights below about 1e-616 of the total drop out).  The floor
        is relative, so scaling the nodes by a power of two scales the
        result by it, bit for bit; the message names the norm over 2^e.
        Also if a norm underflows to 0 multiplied back by 2^e (subnormal nodes).
    OverflowError
        If an entry is beyond the double range (none exceeds max |node|
        in exact arithmetic).
    """
    # at most one coefficient pair per node
    n = _count("n", n, 1, mu.nodes.size)
    diag, offdiag = _stieltjes(mu.nodes, mu.log_weights[np.newaxis], n)
    return _unchecked(JacobiMatrix, diag=diag[0], offdiag=offdiag[0])


_EPS = float(np.finfo(float).eps)

# semiorthogonality: the bound past which a row takes the whole-basis pass
_SEMIORTHOGONAL = math.sqrt(_EPS)


def _stieltjes(
    nodes: np.ndarray, log_weights: np.ndarray, n: int, last_norm: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Recurrence coefficients of every weight row over the shared nodes.

    log_weights is a (rows, N) stack of finite log weight rows on the N
    nodes, each shifted as the caller likes (every row is normalized to
    unit mass first); returns (rows, n) diagonals and (rows, n-1)
    off-diagonals, row i being the Jacobi block of the measure
    (nodes, exp(log_weights[i])), or (rows, n) off-diagonals with
    last_norm, the n-th being the norm of the last step's three-term
    remainder.  The recurrence of jacobi_from_measure runs over all rows
    at once, so its loop is over the n steps only.  The basis is stored
    as (n, rows, N), so that each step's vectors are contiguous: step k
    reads each row's vectors basis[:k+1, i], laid out the same whatever
    n is, and decides from that row's earlier steps alone, so every
    entry but the last step's is bitwise that of a larger
    reconstruction, whose step there may add a whole-basis correction.
    The rows are swept in chunks, so that the basis and the sweep's four
    (rows, N) buffers of a chunk hold at most _CHUNK_BYTES, 16 MiB.
    The sweep runs on the nodes divided by the power of two 2^e that
    brings max |node| into [1/2, 1), which is exact, and its results are
    multiplied back by 2^e: so its norm floor reads relative to 2^e, and
    the coefficients of 2^k times the nodes are 2^k times these, bit for
    bit, unless an entry leaves the normal doubles.  Callers build values of
    the results unchecked: an entry rounded past the double range raises
    OverflowError, and a norm that underflows to 0 DegenerateMeasureError.
    """
    e = math.frexp(max(-nodes[0], nodes[-1]))[1]
    x = np.ldexp(nodes, -e)
    rows_per_chunk = max(1, _CHUNK_BYTES // ((n + 4) * nodes.size * log_weights.itemsize))
    diag = np.empty((log_weights.shape[0], n))
    offdiag = np.empty((log_weights.shape[0], n if last_norm else n - 1))
    for start in range(0, log_weights.shape[0], rows_per_chunk):
        chunk = slice(start, start + rows_per_chunk)
        _stieltjes_sweep(x, log_weights[chunk], diag[chunk], offdiag[chunk])
    with np.errstate(over="ignore"):
        np.ldexp(diag, e, out=diag)
        np.ldexp(offdiag, e, out=offdiag)
    if not (np.isfinite(diag).all() and np.isfinite(offdiag).all()):
        raise OverflowError("a recurrence center or norm left the double-precision range")
    if not offdiag.all():
        raise DegenerateMeasureError(f"a norm above the floor underflowed to 0 when multiplied back by 2^{e}")
    return diag, offdiag


# Lanczos on diag(x) in the unit vectors u = q sqrt(w), with partial
# reorthogonalization, from sqrt(w / sum w) formed as exp((log w - max) / 2) over its
# norm: only that root has to be a double, and an entry that underflows drops its
# node.  Each step takes x u_k less its three-term part alpha u_k + a_{k-1} u_{k-1},
# the only components it has in exact arithmetic.  Each row carries a bound m_k on
# max_j |u_k . u_j|, from m_0 = eps:
#     m_{k+1} = ((2 top + spread) m_k + top m_{k-1} + noise) / a_k,
# with top the row's largest norm so far, spread = x_N - x_1 and noise = 2 eps max|x|.
# As every center lies in [x_1, x_N], it bounds the row's omega recurrence of
# H. D. Simon, Math. Comp. 42 (1984) 115.  A row whose bound passes sqrt(eps)
# projects its remainder once onto its whole basis u_0..u_k on this step and the
# next, the recurrence being the first of the two projections that suffice (Parlett,
# The Symmetric Eigenvalue Problem, 1998, sec. 6.9), and its bound restarts at eps;
# its center is alpha plus the second u_k coefficient.  Every other row keeps its
# three-term remainder and center alpha.  The decision reads only the row's own
# earlier steps, so no other row, chunk or sweep length changes a row's bits.  The
# remainder's norm is the next off-diagonal.  The last step forms no next vector, so
# it takes no bound and no pass: its center is alpha, which a pass would move by
# u_k . v = O(eps max|x|) only, as consecutive vectors stay locally orthogonal
# (Paige), and with n norms asked for its norm is that of its three-term remainder;
# with n - 1 it stops at the center.  With |x| < 1 every vector, center and norm is
# bounded, so a norm below the floor is the only way out.
# Besides the basis the sweep holds four (rows, N) buffers: the remainder v, the
# three-term part, x in every row and the last norm in every entry of its row.
# With the last two, x u_k, v / a_k and a_k u_k each run as one contiguous loop;
# an operand broadcast along the short node axis makes numpy run one loop per
# row, which at N = 16 costs about twice as much.
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _stieltjes_sweep(x: np.ndarray, log_w: np.ndarray, diag: np.ndarray, offdiag: np.ndarray) -> None:
    n, norms = diag.shape[1], offdiag.shape[1]
    basis = np.empty((n,) + log_w.shape)
    # the rows are finite, so fmax is their max, and numpy reduces short rows
    # faster with it (5 against 16 us for 200 rows of 16)
    u = np.subtract(log_w, np.fmax.reduce(log_w, axis=1, keepdims=True), out=basis[0])
    u *= 0.5
    np.exp(u, out=u)
    u /= np.sqrt(np.vecdot(u, u))[:, np.newaxis]
    v, term, nodes, scale = np.empty((4,) + log_w.shape)
    nodes[:] = x
    # per row: the bounds m_k and m_{k-1}, the next one and the largest norm
    # so far; again marks the rows whose bound passed on the step before, and
    # due whether any does
    bound, prior, estimate, top = np.zeros((4, log_w.shape[0]))
    bound[:] = _EPS
    again = np.zeros(log_w.shape[0], dtype=bool)
    due = False
    spread = x[-1] - x[0]
    noise = 2.0 * _EPS * max(-x[0], x[-1])
    for k in range(n):
        u = basis[k]
        np.multiply(nodes, u, out=v)
        alpha = np.vecdot(u, v, out=diag[:, k])
        if k == norms:
            break
        # a broadcast alpha: spreading it out would cost as much as the product
        v -= np.multiply(alpha[:, np.newaxis], u, out=term)
        if k:
            v -= np.multiply(scale, basis[k - 1], out=term)
        norm = np.sqrt(np.vecdot(v, v), out=offdiag[:, k])
        if k < n - 1:
            # the next vector's bound, in place: m_{k-1} is not read again
            np.add(bound, bound, out=estimate)
            estimate += prior
            estimate *= top
            estimate += np.multiply(bound, spread, out=prior)
            estimate += noise
            estimate /= norm
            trigger = estimate > _SEMIORTHOGONAL
            if due or trigger.any():
                project = trigger | again
                np.greater(trigger, again, out=again)
                due = again.any()
                _reorthogonalize(basis[: k + 1], v, project, alpha, norm)
                np.copyto(estimate, _EPS, where=project)
        if np.fmin.reduce(norm) < _DEGENERATE_NORM:
            raise DegenerateMeasureError(
                f"orthogonalization norm {norm[norm < _DEGENERATE_NORM][0]:.3e} below 1e-12 at step {k + 1}; "
                f"measure is numerically supported on fewer than {norms + 1} points"
            )
        if k == n - 1:
            break
        np.maximum(top, norm, out=top)
        bound, prior, estimate = estimate, bound, prior
        np.copyto(scale, norm[:, np.newaxis])
        np.divide(v, scale, out=basis[k + 1])


def _reorthogonalize(
    span: np.ndarray, v: np.ndarray, project: np.ndarray, center: np.ndarray, norm: np.ndarray
) -> None:
    """The whole-basis pass of the rows marked in project, in place.

    span is the (k+1, rows, N) basis u_0..u_k and v the (rows, N)
    remainders.  Each marked row adds its u_k coefficient to its center,
    takes its projection off its remainder and recomputes its norm.  The
    pass runs over every row but writes only the marked ones, so unmarked
    rows keep their bits.
    """
    span = span.transpose(1, 0, 2)
    column = v[:, :, np.newaxis]
    c = span @ column
    np.add(center, c[:, -1, 0], out=center, where=project)
    np.subtract(column, span.transpose(0, 2, 1) @ c, out=column, where=project[:, np.newaxis, np.newaxis])
    np.sqrt(np.vecdot(v, v), out=norm)


@np.errstate(over="ignore", invalid="ignore")
def jacobi_from_moments(s: MomentSequence, n: int) -> JacobiMatrix:
    """n x n Jacobi block recovered from moments s_0..s_{2n-1} alone.

    Factorizes the bordered n x (n+1) Hankel block [s_{i+j}] as R^T R with
    R upper triangular; the recurrence coefficients are entry ratios:

        a_k = R[k+1, k+1] / R[k, k]
        b_k = R[k, k+1] / R[k, k] - R[k-1, k] / R[k-1, k-1]

    Returns only when each pivot exceeds 1e-5 s_{2i}: over 864 measured
    lattices of sizes 1-24, every block returned was within 3.0e-9 max|entry|
    of its lattice.  Raises PositivityError on a nonpositive pivot,
    DegenerateMeasureError on a positive one at or below that floor, and
    OverflowError on a center or a ratio of pivots past the double range.
    """
    n = _count("n", n, 1)
    if len(s) < 2 * n:
        raise ValueError(
            f"need 2n={2 * n} moments (the last diagonal entry requires s_{2 * n - 1}), have {len(s)}"
        )
    # row i of the read-only view is s_i..s_{i+n}
    h = np.lib.stride_tricks.sliding_window_view(s.values[: 2 * n], n + 1)
    r, i, pivot = _hankel_cholesky(h, _MOMENT_PIVOT_FLOOR)
    if i < n and pivot <= 0.0:
        raise PositivityError(f"Hankel pivot {i + 1} is nonpositive ({pivot:.3e}); not positive definite through order {n}")
    if i < n:
        raise DegenerateMeasureError(
            f"Hankel row {i + 1}: pivot / s_{2 * i} = {pivot / h[i, i]:.3e}, at or below the floor {_MOMENT_PIVOT_FLOOR:g}; "
            f"the measure is numerically supported on fewer than {n} points"
        )
    pivots = np.diagonal(r)
    diag, offdiag = np.diff(np.diagonal(r, 1) / pivots, prepend=0.0), pivots[1:] / pivots[:-1]
    if not (np.isfinite(diag).all() and np.isfinite(offdiag).all()):
        raise OverflowError("a recurrence center or a ratio of Hankel pivots left the double-precision range")
    return _unchecked(JacobiMatrix, diag=diag, offdiag=offdiag)


def _polynomial(name: str, coefficients) -> np.ndarray:
    # monomial coefficients as a 1-d array, a scalar as a one-entry one
    arr = _real_array(name, coefficients, None)
    if arr.ndim > 1:
        raise ValueError(f"{name}: need a 1-d array, got {arr.ndim}-d")
    return arr.reshape(-1)


def moment_bilinear_form(s: MomentSequence, f, g) -> float:
    """<F, G> = sum_{n,m} s_{n+m} f_n g_m for monomial-basis coefficients, one compensated
    sum; raises OverflowError if a product s_{n+m} f_n or a term exceeds the floating-point range."""
    f, g = _polynomial("f", f), _polynomial("g", g)
    size = max(f.size, g.size)
    if len(s) < 2 * size - 1:
        raise ValueError(
            f"need {2 * size - 1} moments for degree-{size - 1} polynomials, have {len(s)}"
        )
    if not (f.size and g.size):
        return 0.0
    with np.errstate(over="ignore"):
        table = s.values[np.add.outer(np.arange(f.size), np.arange(g.size))] * f[:, np.newaxis]
    return float(_weighted_sums(table.reshape(1, -1), np.tile(g, f.size), "s_{n+m} f_n g_m")[0])
