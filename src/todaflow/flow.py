"""Isospectral evolution of spectral measures and the moment-method Toda solver.

The flow never moves the spectral nodes.  The weights evolve by an
explicit exponential reweighting, normalized back to unit mass; the
lattice coefficients at time t are then recovered from the evolved
measure.  The evolved measures of a whole grid share their nodes, so
their log weights form one (times, N) stack that a single batched
reconstruction turns into every grid row at once.  The reweighting
runs on log weights, log w + 2 lambda t less its maximum over the
nodes, so large lambda * t never overflows, and the normalizer Omega is
only ever held as a logarithm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PoleProximityError
from .jacobi import (
    DiscreteMeasure,
    JacobiMatrix,
    _count,
    _finite_real,
    _increasing,
    _jacobi_arrays,
    eigendecompose,
    weyl_function,
)
from .moments import MomentSequence, _moment_sums, _stieltjes

__all__ = [
    "MOMENT_METHOD",
    "DIRECT_ODE",
    "TodaTrajectory",
    "moser_evolve",
    "log_omega",
    "evolve_moments",
    "moment_recurrence_residual",
    "solve_toda_finite",
    "weyl_evolution_residual",
]

MOMENT_METHOD = "moment_method"
DIRECT_ODE = "direct_ode"

# The evolution law for the Weyl function requires a spectral gap; closer
# evaluation points make the residual meaningless.
_SPECTRAL_GAP = 0.5


@dataclass(frozen=True, eq=False)
class TodaTrajectory:
    """A time grid with the lattice coefficients at every grid point.

    diag is a read-only (n_times, N) array, offdiag a read-only
    (n_times, N-1) array with strictly positive entries; row i is the
    Jacobi matrix at times[i].  method records how the rows were produced
    (MOMENT_METHOD or DIRECT_ODE).
    """

    times: np.ndarray
    diag: np.ndarray
    offdiag: np.ndarray
    method: str

    def __post_init__(self):
        times = _increasing("times", self.times)
        diag, offdiag = _jacobi_arrays(self.diag, self.offdiag, 2)
        if diag.shape[0] != times.size:
            raise ValueError(f"need one row per grid time: {times.size} times, {diag.shape[0]} rows")
        if self.method not in (MOMENT_METHOD, DIRECT_ODE):
            raise ValueError(f"unknown method tag {self.method!r}")
        self._assign(times, diag, offdiag, self.method)

    @classmethod
    def _from_arrays(cls, times: np.ndarray, diag: np.ndarray, offdiag: np.ndarray, method: str) -> TodaTrajectory:
        # the unchecked constructor of the solvers: the caller guarantees what
        # __post_init__ checks and hands over arrays that nothing else writes to
        trajectory = object.__new__(cls)
        trajectory._assign(times, diag, offdiag, method)
        return trajectory

    def _assign(self, times: np.ndarray, diag: np.ndarray, offdiag: np.ndarray, method: str) -> None:
        for name, value in (("times", times), ("diag", diag), ("offdiag", offdiag)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)
        object.__setattr__(self, "method", method)

    @property
    def size(self) -> int:
        return self.diag.shape[1]

    @property
    def states(self) -> tuple[JacobiMatrix, ...]:
        """One JacobiMatrix per grid time, built from the rows on each access."""
        return tuple(JacobiMatrix(diag=d, offdiag=e) for d, e in zip(self.diag, self.offdiag))

    def diag_array(self) -> np.ndarray:
        """Writable (n_times, N) copy of the diagonal entries."""
        return self.diag.copy()

    def offdiag_array(self) -> np.ndarray:
        """Writable (n_times, N-1) copy of the off-diagonal entries."""
        return self.offdiag.copy()


def _check_time(t: float) -> float:
    t = _finite_real("t", t)
    if t < 0.0:
        raise ValueError("t must be >= 0")
    return t


def _check_grid(times) -> np.ndarray:
    times = _increasing("times", times)
    if times[0] != 0.0:
        raise ValueError("times must start at 0")
    return times


def moser_evolve(mu0: DiscreteMeasure, t: float) -> DiscreteMeasure:
    """Evolve spectral weights: w_k(t) proportional to w_k(0) e^{2 lam_k t}.

    Nodes are unchanged; the weights are renormalized to unit mass.  The
    reweighting runs on the log weights, log w_k + 2 lam_k t less its
    maximum, so any finite t >= 0 is safe and no weight is changed to
    keep it in range: one below the double-precision range keeps its
    value in log_weights and reads 0 in weights.
    """
    tilt = _tilted_log_weights(mu0, _check_time(t))
    tilt -= tilt.max()
    return DiscreteMeasure._from_log(mu0.nodes, tilt - np.log(np.sum(np.exp(tilt))))


def log_omega(mu0: DiscreteMeasure, t: float) -> float:
    """log of Omega(t) = integral e^{2 lambda t} dmu0, via log-sum-exp."""
    tilt = _tilted_log_weights(mu0, _check_time(t))
    top = tilt.max()
    return float(top + np.log(np.sum(np.exp(tilt - top))))


def _tilted_log_weights(mu0: DiscreteMeasure, times) -> np.ndarray:
    # log w_k + 2 lam_k t: a row per time for an array of times (possibly
    # none), one row for a scalar; raises where 2 |t| lam_k, or the spread
    # 2 |t| (lam_N - lam_1) that subtracting the maximum reaches, leaves
    # the double range (an inf term makes the difference inf or NaN)
    times = np.asarray(times)
    reach = 2.0 * float(np.abs(times).max(initial=0.0))
    if not math.isfinite(reach * float(mu0.nodes[-1]) - reach * float(mu0.nodes[0])):
        raise OverflowError("2 lambda t is beyond the double range")
    tilt = np.multiply.outer(2.0 * times, mu0.nodes)
    tilt += mu0.log_weights
    return tilt


def evolve_moments(mu0: DiscreteMeasure, t: float, count: int) -> MomentSequence:
    """Moments of the evolved measure straight from the t = 0 data.

    s_k(t) = (sum lam^k e^{2 lam t} w) / (sum e^{2 lam t} w), numerator
    and denominator sharing one exponent shift and each accumulated by
    compensated summation.  Equal to
    moments_from_measure(moser_evolve(mu0, t), count) up to roundoff,
    with s_0 = 1 exactly.
    """
    t = _check_time(t)
    count = _count("count", count, 1)
    return MomentSequence(values=_evolved_moments(mu0, t, count), time=t)


def _evolved_moments(mu0: DiscreteMeasure, times, count: int) -> np.ndarray:
    # s_0..s_{count-1} of the evolved measure, a row per time for an array
    # of times; each row is divided by its own s_0, so s_0 = 1 exactly
    tilt = _tilted_log_weights(mu0, times)
    tilt -= tilt.max(axis=-1, keepdims=True)
    sums = _moment_sums(mu0.nodes, np.exp(tilt, out=tilt), count)
    return sums / sums[..., :1]


def _central_step(t, h) -> tuple[float, float]:
    # t and h of a central difference: t >= h > 0, and t + h and t - h both
    # differ from t, else a difference quotient would read 0
    t, h = _finite_real("t", t), _finite_real("h", h)
    if not (h > 0.0 and t >= h):
        raise ValueError("need t >= h > 0")
    if t + h == t or t - h == t:
        raise ValueError(f"h: {h!r} is below the spacing of doubles at t = {t!r}")
    return t, h


def moment_recurrence_residual(mu0: DiscreteMeasure, t: float, count: int, h: float) -> np.ndarray:
    """Central-difference defect of sdot_k + (log Omega)' s_k - 2 s_{k+1}.

    Returns |defect| for k = 0..count-2, both time derivatives taken as
    central differences with step h, so the residuals are O(h^2).  A
    verification probe, not a solver.
    """
    t, h = _central_step(t, h)
    count = _count("count", count, 2)
    dlog = (log_omega(mu0, t + h) - log_omega(mu0, t - h)) / (2.0 * h)
    s_plus, s_minus, s_mid = _evolved_moments(mu0, np.array([t + h, t - h, t]), count)
    sdot = (s_plus - s_minus) / (2.0 * h)
    return np.abs(sdot[:-1] + dlog * s_mid[:-1] - 2.0 * s_mid[1:])


def solve_toda_finite(j0: JacobiMatrix, times) -> TodaTrajectory:
    """Moment-method solution of the finite lattice on a time grid.

    Decomposes once, then reweights and reconstructs every grid time in
    one batched sweep.  Nodes are never recomputed, so the spectrum of
    every state equals that of j0 exactly.  At t = 0 the pipeline is the
    identity and the initial matrix is returned as-is.
    """
    times = _check_grid(times)
    diag, offdiag = _evolve_block(j0, eigendecompose(j0), times, j0.n)
    return TodaTrajectory._from_arrays(times, diag, offdiag, MOMENT_METHOD)


def _evolve_block(j0: JacobiMatrix, mu0: DiscreteMeasure, times: np.ndarray, size: int):
    """Leading size x size block of the lattice at every grid time.

    mu0 is the spectral measure of j0 and times a grid that starts at 0
    and increases strictly.  Returns (n_times, size) and (n_times, size-1)
    arrays: j0's own leading block at t = 0, below it the blocks
    reconstructed from the reweighted measures of all later times in one
    batched sweep.  The first k Lanczos steps do the same arithmetic
    whatever the requested size, so a leading block is bitwise equal to
    the prefix of the full reconstruction, and it needs only the moments
    s_0..s_{2 size-1}.
    """
    diag = np.empty((times.size, size))
    offdiag = np.empty((times.size, size - 1))
    diag[0] = j0.diag[:size]
    offdiag[0] = j0.offdiag[: size - 1]
    diag[1:], offdiag[1:] = _stieltjes(mu0.nodes, _tilted_log_weights(mu0, times[1:]), size)
    return diag, offdiag


def weyl_evolution_residual(j0: JacobiMatrix, lam: float, t: float, h: float) -> float:
    """Central-difference defect of dm/dt = 2 (1 - (b_1 - lam) m).

    m is the resolvent matrix element ((H - lam I)^{-1} e_1, e_1)
    = sum_k w_k / (lam_k - lam), i.e. the negative of weyl_function; with
    the opposite (partial-fraction) sign the defect is identically 4 at
    N = 1 instead of 0.  The convention was fixed by the closed-form N = 2
    check in the test suite.  O(h^2) in the step.
    """
    t, h = _central_step(t, h)
    lam = _finite_real("lam", lam)
    mu0 = eigendecompose(j0)
    gap = float(np.min(np.abs(lam - mu0.nodes)))
    if gap < _SPECTRAL_GAP:
        raise PoleProximityError(
            f"lambda={lam!r} is within {gap:.3e} of the spectrum; need separation >= {_SPECTRAL_GAP}"
        )
    grid = np.unique(np.array([0.0, t - h, t, t + h]))
    diag, offdiag = _evolve_block(j0, mu0, grid, j0.n)
    state_at = {s: JacobiMatrix(diag=d, offdiag=e) for s, d, e in zip(grid.tolist(), diag, offdiag)}
    m_plus = -weyl_function(state_at[t + h], lam)
    m_minus = -weyl_function(state_at[t - h], lam)
    m_mid = -weyl_function(state_at[t], lam)
    b1 = state_at[t].diag[0]
    dm = (m_plus - m_minus) / (2.0 * h)
    return abs(dm - 2.0 * (1.0 - (b1 - lam) * m_mid))
