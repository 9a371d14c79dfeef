"""Finite Jacobi matrices and their spectral measures.

A symmetric tridiagonal matrix with strictly positive off-diagonal has
simple spectrum, and its spectral data condenses into a discrete measure:
a mass sigma_k^2 (the squared first component of the k-th unit-norm
eigenvector) sitting at each eigenvalue lambda_k.  Everything downstream
(moment evolution, inverse reconstruction) works with this measure.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import numbers
import os
from dataclasses import dataclass

import numpy as np
import scipy

from .errors import EigenConvergenceError, PoleProximityError

__all__ = [
    "JacobiMatrix",
    "DiscreteMeasure",
    "eigendecompose",
    "weyl_function",
]

# A Jacobi matrix with positive off-diagonal cannot have a repeated
# eigenvalue, so a collision at this relative separation is numerical
# breakdown, not physics.
_EIGEN_SEPARATION = 1e-12

# weyl_function's pole tolerance, relative to max |lambda| as above
_POLE_TOL = 1e-10


def _compiled_lapack():
    # scipy's compiled LAPACK wrapper, loaded by itself: dstemr is all this
    # package takes from scipy, and scipy.linalg's package init would cost
    # about 200 ms and 27 MB at import.  `import scipy` sets up the shared
    # library paths the wrapper needs.  The wrapper enters itself in
    # sys.modules, so scipy.linalg, imported before or after, holds this
    # same module.
    name = "scipy.linalg._flapack"
    spec = importlib.machinery.PathFinder.find_spec(name, [os.path.join(scipy.__path__[0], "linalg")])
    if spec is None:
        raise ImportError(f"scipy {scipy.__version__} has no {name}", name=name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


lapack = _compiled_lapack()


def _finite_real(name: str, value, *, positive: bool = False) -> float:
    """value as a float, if it is a finite real number and not a bool,
    and greater than 0 when positive is set.

    Strings, complex numbers and arrays are rejected, never converted; the
    message starts with name, so a caller can pass the field it checks.
    """
    try:
        ok = isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)
    except OverflowError:
        ok = False
    if not (ok and (value > 0 or not positive)):
        raise ValueError(f"{name}: need a finite real number{' > 0' if positive else ''}, got {value!r}")
    return float(value)


def _count(name: str, value, low: int, high: int | None = None) -> int:
    """value as an int, if it is an integer, not a bool, in [low, high].

    Floats and strings are rejected, never converted; the message starts
    with name, as those of _finite_real do.
    """
    if not (
        isinstance(value, numbers.Integral)
        and not isinstance(value, bool)
        and low <= value
        and (high is None or value <= high)
    ):
        bounds = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise ValueError(f"{name}: need an integer {bounds}, got {value!r}")
    return int(value)


# numpy reads True inside a list of numbers as 1.0
_BOOL_TYPES = frozenset((bool, np.bool_))


def _hides_bool(values, ndim: int) -> bool:
    # a bool inside the (nested) lists or tuples of an ndim-d array, as a
    # scalar or as a bool array among them; a flat list is scanned by one
    # map(type), and its entries again only if an array is among them
    if not isinstance(values, (list, tuple)):
        return isinstance(values, np.ndarray) and values.dtype.kind == "b"
    if ndim > 1:
        return any(_hides_bool(row, ndim - 1) for row in values)
    types = set(map(type, values))
    return not _BOOL_TYPES.isdisjoint(types) or (
        any(issubclass(t, np.ndarray) for t in types) and any(_hides_bool(v, 0) for v in values)
    )


def _real_array(name: str, values, ndim: int | None, *, positive: bool = False) -> np.ndarray:
    """Read-only float copy of an ndim-d array (any number of axes when
    ndim is None) of finite real numbers, each greater than 0 when
    positive is set.

    Only integer and float dtypes pass: strings, bools (also inside a list
    of numbers, as a bool or a bool array), complex and object entries are
    rejected, never converted.
    Messages start with name.
    """
    try:
        arr = np.asarray(values)
    except ValueError as exc:
        wanted = "a rectangular" if ndim is None else f"a {ndim}-d"
        raise ValueError(f"{name}: need {wanted} array, got a ragged nesting") from exc
    if arr.dtype.kind not in "iuf":
        raise ValueError(f"{name}: need real numbers, got {arr.dtype} entries")
    if ndim is None:
        ndim = arr.ndim
    if arr.ndim != ndim:
        raise ValueError(f"{name}: need a {ndim}-d array, got {arr.ndim}-d")
    if _hides_bool(values, ndim):
        raise ValueError(f"{name}: need real numbers, got true/false entries")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name}: entries must be finite")
    if positive and arr.size and arr.min() <= 0.0:
        raise ValueError(f"{name}: entries must be strictly positive")
    arr = arr.astype(float)
    arr.flags.writeable = False
    return arr


def _increasing(name: str, values) -> np.ndarray:
    # _real_array of a non-empty 1-d sequence that increases strictly
    arr = _real_array(name, values, 1)
    if arr.size < 1:
        raise ValueError(f"{name}: need at least one entry")
    # neighbours compared directly: their difference can overflow
    if (arr[1:] <= arr[:-1]).any():
        raise ValueError(f"{name}: must be strictly increasing")
    return arr


def _jacobi_arrays(diag, offdiag, ndim: int, names=("diag", "offdiag")) -> tuple[np.ndarray, np.ndarray]:
    """Read-only copies of diag (..., N) and offdiag (..., N-1), checked once.

    Both must hold finite reals, diag with ndim axes and N >= 1, offdiag
    the matching shape with every entry strictly positive.
    ndim = 1 is one matrix, ndim = 2 a trajectory with one row per time.
    Messages start with the names of the two arrays.
    """
    d_name, e_name = names
    d = _real_array(d_name, diag, ndim)
    e = _real_array(e_name, offdiag, ndim, positive=True)
    if d.shape[-1] < 1:
        raise ValueError(f"{d_name} must not be empty")
    expected = d.shape[:-1] + (d.shape[-1] - 1,)
    if e.shape != expected:
        raise ValueError(f"{e_name} must have shape {expected}, got {e.shape}")
    return d, e


def _freeze(instance, **arrays: np.ndarray) -> None:
    # the one way a frozen value type holds its arrays: each is made
    # read-only and set on the instance
    for name, value in arrays.items():
        value.flags.writeable = False
        object.__setattr__(instance, name, value)


def _unchecked(cls, **arrays: np.ndarray):
    # cls built without its checks, for every value the library makes: its
    # maker guarantees what they test and hands over arrays nothing else writes to
    instance = object.__new__(cls)
    _freeze(instance, **arrays)
    return instance


@dataclass(frozen=True, eq=False)
class JacobiMatrix:
    """Symmetric tridiagonal matrix: diag holds b_1..b_N, offdiag a_1..a_{N-1}.

    Off-diagonal entries must be strictly positive.  Instances are
    immutable and safe to share between threads.
    """

    diag: np.ndarray
    offdiag: np.ndarray

    def __post_init__(self):
        d, e = _jacobi_arrays(self.diag, self.offdiag, 1)
        _freeze(self, diag=d, offdiag=e)

    @property
    def n(self) -> int:
        return self.diag.size

    def to_dense(self) -> np.ndarray:
        """Dense N x N copy (small-N convenience for tests and oracles)."""
        m = np.diag(self.diag)
        if self.offdiag.size:
            m += np.diag(self.offdiag, 1) + np.diag(self.offdiag, -1)
        return m


@dataclass(frozen=True, init=False, eq=False)
class DiscreteMeasure:
    """Finitely many point masses: weight weights[k] > 0 at node nodes[k].

    Nodes are strictly increasing.  The masses are stored as their
    logarithms, log_weights, so a mass below the double-precision range
    keeps its value (the spectral weights of the N = 128 truncation of
    b_n = n, a_n = 1 reach 1e-430); weights is derived as
    exp(log_weights), in which such a mass reads 0.  jacobi_from_measure
    takes log_weights, so such a mass still counts there.
    The total mass is the zeroth moment, moments_from_measure(mu, 1);
    spectral measures of Jacobi matrices carry mass 1.
    """

    nodes: np.ndarray
    log_weights: np.ndarray

    def __init__(self, nodes, weights):
        nodes = _increasing("nodes", nodes)
        weights = _real_array("weights", weights, 1, positive=True)
        if weights.shape != nodes.shape:
            raise ValueError("weights must match nodes in length")
        _freeze(self, nodes=nodes, log_weights=np.log(weights))

    @property
    def weights(self) -> np.ndarray:
        """exp(log_weights), read-only."""
        w = np.exp(self.log_weights)
        w.flags.writeable = False
        return w


def eigendecompose(j: JacobiMatrix) -> DiscreteMeasure:
    """Spectral measure of a finite Jacobi matrix, with log weights.

    Nodes are the eigenvalues in increasing order; the weight at node k is
    the squared first component of the k-th unit-norm eigenvector.  Both
    come from LAPACK's MRRR (dstemr, the twisted-factorization method of
    Dhillon and Parlett), O(N^2) in all, whose nonzero eigenvector
    components are accurate relative to their own size; the log weights
    are read off them.  A first component that MRRR sets to exactly 0
    (it drops those outside a vector's numerical support, over a hundred
    of them at random N = 256) is recomputed in logs from MRRR's own
    vector: its largest component times the ratios that the top-down
    pivots of J - lam I give above that row.  So weights far below the
    double-precision range keep their relative accuracy.  At random
    N = 32, mpmath agrees to about 1e-12 in log w.

    Raises
    ------
    EigenConvergenceError
        If the iteration fails, if two computed eigenvalues lie closer
        than 1e-12 times the largest |eigenvalue| (the error of a weight
        grows like eps / gap, so closer pairs are beyond double
        precision), or if a log weight is not finite.
    OverflowError
        If an eigenvalue is beyond the double range.
    """
    return _spectral_measures(j, last=False)[0]


def _spectral_measures(j: JacobiMatrix, last: bool) -> tuple[DiscreteMeasure, ...]:
    # eigendecompose(j) as a 1-tuple or, with last set, followed by j's
    # last-component measure on the same nodes; raises as eigendecompose
    # does.  The last-component measure weighs node k by the squared last
    # component of the k-th eigenvector, read off the same MRRR vectors; the
    # components MRRR sets to 0 are recomputed by the same twisted pass, run
    # on the reversed chain, whose first components they are.  It is the
    # first-component measure of j with its index order reversed.  At
    # N = 1 dstemr returns the one node, diag[0], and its unit vector.
    # MRRR runs on J divided by a power of two that brings every entry to
    # at most 1, which is exact: at random N = 256 it fails (LAPACK info
    # 22) on J scaled by 2^48, not on J itself
    exponent = math.frexp(max(np.abs(j.diag).max(), j.offdiag.max(initial=0.0)))[1]
    d, e = np.ldexp(j.diag, -exponent), np.ldexp(j.offdiag, -exponent)
    # dstemr reads, and overwrites, an off-diagonal of length N; range 0
    # asks for every eigenpair, with the documented workspace as the default
    _, lam, vec, info = lapack.dstemr(d, np.append(e, 0.0), 0, 0.0, 0.0, 0, 0)
    if info:
        raise EigenConvergenceError(f"tridiagonal MRRR iteration failed (LAPACK dstemr info={info})")
    log_weights = [_first_log_weights(d, e, lam, vec)]
    if last:
        # the eigenvectors of the reversed chain are vec's rows reversed
        log_weights.append(_first_log_weights(d[::-1], e[::-1], lam, vec[::-1]))
    # the test runs on the scaled J, whose largest |eigenvalue| top lies in
    # [1/2, 3), so it reads the same at every power-of-two scale of J
    top = max(-lam[0], lam[-1])
    if (lam[1:] - lam[:-1]).min(initial=np.inf) < _EIGEN_SEPARATION * top:
        raise EigenConvergenceError(
            "computed eigenvalues collide below relative separation 1e-12; "
            "a Jacobi matrix has simple spectrum, so this signals breakdown"
        )
    if math.frexp(top)[1] + exponent > np.finfo(float).maxexp:
        raise OverflowError("an eigenvalue is beyond the double range")
    lam = np.ldexp(lam, exponent)
    # scaling back is exact for normal doubles; below them neighbouring
    # eigenvalues can round to one double
    if not (lam[1:] > lam[:-1]).all():
        raise EigenConvergenceError(
            "computed eigenvalues round together below the smallest normal double; "
            "the nodes would not increase strictly"
        )
    return tuple(_unchecked(DiscreteMeasure, nodes=lam, log_weights=w) for w in log_weights)


def _first_log_weights(d: np.ndarray, e: np.ndarray, lam: np.ndarray, vec: np.ndarray) -> np.ndarray:
    # 2 log|vec[0, k]|, the components MRRR set to 0 recomputed in logs
    with np.errstate(divide="ignore"):
        log_weights = 2.0 * np.log(np.abs(vec[0]))
    # 256 components at a time, so the pass holds (N, 256) arrays rather
    # than (N, K) ones for all K lost components
    lost = (log_weights == -np.inf).nonzero()[0]
    for start in range(0, lost.size, 256):
        cols = lost[start : start + 256]
        log_weights[cols] = _twisted_log_weights(d, e, lam[cols], vec[:, cols])
    if not np.isfinite(log_weights).all():
        raise EigenConvergenceError("a log weight is not finite: the entries are beyond double precision")
    return log_weights


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def _twisted_log_weights(d: np.ndarray, e: np.ndarray, lam: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """log of the squared first component of each unit eigenvector vec[:, k] at lam[k].

    The twist index r is the row of vec[:, k]'s largest component.  Above
    it the eigenvector has z_i / z_{i+1} = -a_i / D+_i, where D+ are the
    pivots of J - lam I = L D+ L^T, top down, so
    log|z_1| = log|vec[r, k]| + sum_{i<r} (log a_i - log|D+_i|), and vec's
    unit norm carries over.  The recurrence runs over every lam at once,
    down to the deepest twist: a step of two ufunc calls per row.  A zero
    pivot sends the next one to -inf and the one after it back to a
    finite value (IEEE); the two pivots' product is then -a_i^2, which
    stands in for their two logs.  (Parlett and Dhillon, Linear Algebra
    Appl. 267 (1997) 247.)  The anchor must be the largest component: a
    smaller one may carry no correct digits.
    """
    twist = np.argmax(np.abs(vec), axis=0)
    rows = twist.max() + 1
    piv = d[:rows, np.newaxis] - lam
    a = e[: rows - 1, np.newaxis]
    asq = a * a
    step = np.empty(lam.shape)
    for i in range(1, rows):
        np.divide(asq[i - 1], piv[i - 1], out=step)
        np.subtract(piv[i], step, out=piv[i])
    # log a_i apart from a_i^2, which may underflow
    log_a = np.log(a)
    blown = np.isinf(piv)
    log_piv = np.where(blown[1:], 2.0 * log_a, np.log(np.abs(piv[:-1])))
    log_piv[blown[:-1]] = 0.0
    above = np.arange(rows - 1)[:, np.newaxis] < twist
    log_ratio = np.where(above, log_a - log_piv, 0.0).sum(axis=0)
    return 2.0 * (np.log(np.abs(vec[twist, np.arange(lam.size)])) + log_ratio)


def weyl_function(j: JacobiMatrix, lam: float) -> float:
    """Stieltjes transform sum_k sigma_k^2 / (lam - lam_k) of the spectral measure.

    Note the sign: this is the partial-fraction form; the resolvent matrix
    element ((J - lam I)^{-1} e_1, e_1) is its negative.  Summed as a zeroth moment.

    Raises PoleProximityError if lam is within 1e-10 max |lam_k| of an
    eigenvalue, a gap relative to the spectrum as for the separation
    test of eigendecompose, so that 2^k J at 2^k lam gives 2^-k times
    the value, bit for bit, while the terms are normal doubles; and
    OverflowError if a term or the sum is beyond the double range.
    """
    lam = _finite_real("lam", lam)
    return _weyl_sum(eigendecompose(j), lam)


def _weyl_sum(mu: DiscreteMeasure, lam: float) -> float:
    # weyl_function of the matrix whose spectral measure is mu, at a checked lam
    with np.errstate(over="ignore", divide="ignore"):
        diff = lam - mu.nodes
        terms = mu.weights / diff
    gap = float(np.abs(diff).min())
    tol = _POLE_TOL * float(np.abs(mu.nodes).max())
    if gap <= tol:
        raise PoleProximityError(
            f"lambda={lam!r} is within {gap:.3e} of an eigenvalue (tolerance {tol:.3e}, {_POLE_TOL:g} max |lambda|)"
        )
    return float(_weighted_sums(np.ones((1, mu.nodes.size)), terms, "a term sigma_k^2 / (lam - lam_k)")[0])


def _weighted_sums(table: np.ndarray, weights: np.ndarray, what: str) -> np.ndarray:
    """Compensated sums over the nodes of table[k, j] * weights[..., j].

    table is (count, N); the sums are (count,) for one weight row (N,) and
    (rows, count) for a (rows, N) stack.  Every term must be finite, else
    OverflowError names what left the double-precision range: the moment
    and response accumulator of the library.  All the terms are formed and
    checked before any is summed, and math.fsum reads each row of terms
    straight from their buffer, so it holds table.size terms per weight
    row: a caller with a long stack passes it in chunks.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        terms = table * weights[..., np.newaxis, :]
    if not np.isfinite(terms).all():
        raise OverflowError(f"{what} left the double-precision range")
    size = table.shape[-1]
    flat = memoryview(terms.reshape(-1))
    sums = [math.fsum(flat[i : i + size]) for i in range(0, terms.size, size)]
    return np.array(sums).reshape(terms.shape[:-1])
