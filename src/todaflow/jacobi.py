"""Finite Jacobi matrices and their spectral measures.

A symmetric tridiagonal matrix with strictly positive off-diagonal has
simple spectrum, and its spectral data condenses into a discrete measure:
a mass sigma_k^2 (the squared first component of the k-th unit-norm
eigenvector) sitting at each eigenvalue lambda_k.  Everything downstream
(moment evolution, inverse reconstruction) works with this measure.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import EigenConvergenceError, PoleProximityError

__all__ = [
    "JacobiMatrix",
    "DiscreteMeasure",
    "eigendecompose",
    "weyl_function",
    "b1_from_measure",
]

# A Jacobi matrix with positive off-diagonal cannot have a repeated
# eigenvalue, so a collision at this relative separation is numerical
# breakdown, not physics.
_EIGEN_SEPARATION = 1e-12

_POLE_TOL = 1e-10


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
    # a bool inside the (nested) lists or tuples of an ndim-d array
    if not isinstance(values, (list, tuple)):
        return False
    if ndim == 1:
        return not _BOOL_TYPES.isdisjoint(map(type, values))
    return any(_hides_bool(row, ndim - 1) for row in values)


def _real_array(name: str, values, ndim: int) -> np.ndarray:
    """Read-only float copy of an ndim-d array of finite real numbers.

    Only integer and float dtypes pass: strings, bools (also inside a list
    of numbers), complex and object entries are rejected, never converted.
    Messages start with name.
    """
    try:
        arr = np.asarray(values)
    except ValueError as exc:
        raise ValueError(f"{name}: need a {ndim}-d array, got a ragged nesting") from exc
    if arr.dtype.kind not in "iuf":
        raise ValueError(f"{name}: need real numbers, got {arr.dtype} entries")
    if arr.ndim != ndim:
        raise ValueError(f"{name}: need a {ndim}-d array, got {arr.ndim}-d")
    if _hides_bool(values, ndim):
        raise ValueError(f"{name}: need real numbers, got true/false entries")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name}: entries must be finite")
    arr = arr.astype(float)
    arr.flags.writeable = False
    return arr


def _increasing(name: str, values) -> np.ndarray:
    # _real_array of a non-empty 1-d sequence that increases strictly
    arr = _real_array(name, values, 1)
    if arr.size < 1:
        raise ValueError(f"{name}: need at least one entry")
    if np.any(np.diff(arr) <= 0.0):
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
    e = _real_array(e_name, offdiag, ndim)
    if d.shape[-1] < 1:
        raise ValueError(f"{d_name} must not be empty")
    expected = d.shape[:-1] + (d.shape[-1] - 1,)
    if e.shape != expected:
        raise ValueError(f"{e_name} must have shape {expected}, got {e.shape}")
    if e.size and np.min(e) <= 0.0:
        raise ValueError(f"{e_name} entries must be strictly positive")
    return d, e


@dataclass(frozen=True)
class JacobiMatrix:
    """Symmetric tridiagonal matrix: diag holds b_1..b_N, offdiag a_1..a_{N-1}.

    Off-diagonal entries must be strictly positive.  Instances are
    immutable and safe to share between threads.
    """

    diag: np.ndarray
    offdiag: np.ndarray

    def __post_init__(self):
        d, e = _jacobi_arrays(self.diag, self.offdiag, 1)
        object.__setattr__(self, "diag", d)
        object.__setattr__(self, "offdiag", e)

    @property
    def n(self) -> int:
        return self.diag.size

    def to_dense(self) -> np.ndarray:
        """Dense N x N copy (small-N convenience for tests and oracles)."""
        m = np.diag(self.diag)
        if self.offdiag.size:
            m += np.diag(self.offdiag, 1) + np.diag(self.offdiag, -1)
        return m


@dataclass(frozen=True)
class DiscreteMeasure:
    """Finitely many point masses: weight weights[k] > 0 at node nodes[k].

    Nodes are strictly increasing.  Total mass equals the zeroth moment;
    spectral measures of Jacobi matrices carry mass 1.
    """

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes = _increasing("nodes", self.nodes)
        weights = _real_array("weights", self.weights, 1)
        if weights.shape != nodes.shape:
            raise ValueError("weights must match nodes in length")
        if np.min(weights) <= 0.0:
            raise ValueError("weights must be strictly positive")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    @property
    def mass(self) -> float:
        return math.fsum(self.weights)


def eigendecompose(j: JacobiMatrix) -> DiscreteMeasure:
    """Spectral measure of a finite Jacobi matrix.

    Nodes are the eigenvalues in increasing order; the weight at node k is
    the squared first component of the k-th unit-norm eigenvector, so the
    weights sum to 1 (to roundoff).  Uses the implicitly shifted QL/QR
    iteration for symmetric tridiagonal matrices (LAPACK dstev), which
    accumulates the plane rotations and therefore obtains eigenvector
    first components without inverse iteration.

    Raises
    ------
    EigenConvergenceError
        If the iteration fails to converge, if two computed eigenvalues
        coincide to relative separation 1e-12, or if an eigenvector first
        component underflows to zero.
    """
    if j.n == 1:
        return DiscreteMeasure(nodes=j.diag, weights=np.ones(1))
    try:
        lam, vec = eigh_tridiagonal(j.diag, j.offdiag, lapack_driver="stev")
    except np.linalg.LinAlgError as exc:
        raise EigenConvergenceError(f"tridiagonal QL/QR iteration failed: {exc}") from exc
    gaps = np.diff(lam)
    scale = np.maximum(1.0, np.maximum(np.abs(lam[:-1]), np.abs(lam[1:])))
    if np.min(gaps - _EIGEN_SEPARATION * scale) < 0.0:
        raise EigenConvergenceError(
            "computed eigenvalues collide below relative separation 1e-12; "
            "a Jacobi matrix has simple spectrum, so this signals breakdown"
        )
    weights = vec[0, :] ** 2
    if np.min(weights) <= 0.0:
        raise EigenConvergenceError(
            "an eigenvector first component underflowed to zero"
        )
    return DiscreteMeasure(nodes=lam, weights=weights)


def weyl_function(j: JacobiMatrix, lam: float) -> float:
    """Stieltjes transform sum_k sigma_k^2 / (lam - lam_k) of the spectral measure.

    Note the sign: this is the partial-fraction form; the resolvent matrix
    element ((J - lam I)^{-1} e_1, e_1) is its negative.

    Raises PoleProximityError if lam is within 1e-10 of an eigenvalue.
    """
    lam = _finite_real("lam", lam)
    mu = eigendecompose(j)
    gap = float(np.min(np.abs(lam - mu.nodes)))
    if gap < _POLE_TOL:
        raise PoleProximityError(
            f"lambda={lam!r} is within {gap:.3e} of an eigenvalue (tolerance {_POLE_TOL})"
        )
    return float(math.fsum(mu.weights / (lam - mu.nodes)))


def b1_from_measure(mu: DiscreteMeasure) -> float:
    """First diagonal entry recovered from a unit-mass spectral measure.

    Equals the first moment sum_k lam_k sigma_k^2.
    """
    return float(math.fsum(mu.nodes * mu.weights))
