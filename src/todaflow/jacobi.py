"""Finite Jacobi matrices and their spectral measures.

A symmetric tridiagonal matrix with strictly positive off-diagonal has
simple spectrum, and its spectral data condenses into a discrete measure:
a mass sigma_k^2 (the squared first component of the k-th unit-norm
eigenvector) sitting at each eigenvalue lambda_k.  Everything downstream
(moment evolution, inverse reconstruction) works with this measure.
"""

from __future__ import annotations

import math
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


def _readonly(values) -> np.ndarray:
    arr = np.array(values, dtype=float)
    arr.flags.writeable = False
    return arr


def _jacobi_arrays(diag, offdiag, ndim: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only copies of diag (..., N) and offdiag (..., N-1), checked once.

    diag must have ndim axes and N >= 1, offdiag the matching shape; every
    entry must be finite and every off-diagonal strictly positive.
    ndim = 1 is one matrix, ndim = 2 a trajectory with one row per time.
    """
    d = _readonly(diag)
    e = _readonly(offdiag)
    if d.ndim != ndim or d.shape[-1] < 1:
        raise ValueError(f"diag must be a {ndim}-d array with at least one entry per row")
    expected = d.shape[:-1] + (d.shape[-1] - 1,)
    if e.shape != expected:
        raise ValueError(f"offdiag must have shape {expected}, got {e.shape}")
    if not (np.all(np.isfinite(d)) and np.all(np.isfinite(e))):
        raise ValueError("matrix entries must be finite")
    if e.size and np.min(e) <= 0.0:
        raise ValueError("offdiag entries must be strictly positive")
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
        nodes = _readonly(self.nodes)
        weights = _readonly(self.weights)
        if nodes.ndim != 1 or nodes.size < 1:
            raise ValueError("nodes must be a 1-d sequence with at least one entry")
        if weights.shape != nodes.shape:
            raise ValueError("weights must match nodes in length")
        if not (np.all(np.isfinite(nodes)) and np.all(np.isfinite(weights))):
            raise ValueError("nodes and weights must be finite")
        if nodes.size > 1 and np.min(np.diff(nodes)) <= 0.0:
            raise ValueError("nodes must be strictly increasing")
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
