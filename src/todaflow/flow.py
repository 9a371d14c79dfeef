"""Isospectral evolution of spectral measures and the moment-method Toda solver.

The flow never moves the spectral nodes.  The weights evolve by an
explicit exponential reweighting, normalized back to unit mass; the
lattice coefficients at time t are then recovered from the evolved
measure.  A whole lattice is rebuilt from both ends of the chain, each
running q = (N + 1) // 2 Lanczos steps: the first-component measure,
reweighted by e^{2 lambda t}, gives the top q rows, and the
last-component measure, reweighted by e^{-2 lambda t} (reversing the
index order reverses time), the bottom ones.  The ends meet at the
off-diagonal entry a_q, which both rebuild, and OverlapError is raised
where they disagree.  The evolved measures of a whole grid share
their nodes, so the log weights of both ends form one (2 (times - 1), N)
stack that a single batched reconstruction turns into every grid row at
once.  The reweighting runs on log weights, log w + 2 lambda t less its
maximum over the nodes, so large lambda * t never overflows, and the
normalizer Omega is only ever held as a logarithm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import OverlapError, PoleProximityError
from .jacobi import (
    DiscreteMeasure,
    JacobiMatrix,
    _count,
    _finite_real,
    _freeze,
    _increasing,
    _jacobi_arrays,
    _spectral_measures,
    _unchecked,
    _weyl_sum,
    eigendecompose,
)
from .moments import MomentSequence, _moment_sums, _stieltjes

__all__ = [
    "TodaTrajectory",
    "moser_evolve",
    "log_omega",
    "evolve_moments",
    "moment_recurrence_residual",
    "solve_toda_finite",
    "weyl_evolution_residual",
]

# The Weyl evolution law needs lambda this many max |lambda| from the
# spectrum; closer evaluation points make the residual meaningless.
_SPECTRAL_GAP = 0.5

# Largest disagreement, relative to max |lambda|, between the two values of
# a_q that the two ends of a reconstruction rebuild: right lattices read at
# most 2.4e-11 up to random N = 1024, wrong ones 2.2e-2 and more (random
# N = 1536 and 2048; seeds 0-4 of each).
_OVERLAP_REL = 1e-8


@dataclass(frozen=True, eq=False)
class TodaTrajectory:
    """A time grid with the lattice coefficients at every grid point.

    diag is a read-only (n_times, N) array, offdiag a read-only
    (n_times, N-1) array with strictly positive entries; row i is the
    Jacobi matrix at times[i].
    """

    times: np.ndarray
    diag: np.ndarray
    offdiag: np.ndarray

    def __post_init__(self):
        times = _increasing("times", self.times)
        diag, offdiag = _jacobi_arrays(self.diag, self.offdiag, 2)
        if diag.shape[0] != times.size:
            raise ValueError(f"need one row per grid time: {times.size} times, {diag.shape[0]} rows")
        _freeze(self, times=times, diag=diag, offdiag=offdiag)

    @property
    def size(self) -> int:
        return self.diag.shape[1]

    @property
    def states(self) -> tuple[JacobiMatrix, ...]:
        """One JacobiMatrix per grid time, built from the rows on each access."""
        return tuple(_unchecked(JacobiMatrix, diag=d, offdiag=e) for d, e in zip(self.diag, self.offdiag))

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

    Nodes are unchanged; the log weights are log w_k + 2 lam_k t less
    log_omega(mu0, t), so the weights carry unit mass and no weight is
    changed to keep it in range: one below the double-precision range
    keeps its value in log_weights and reads 0 in weights.  Raises
    OverflowError where 2 t lam_1, 2 t lam_N or the spread
    2 t (lam_N - lam_1) is beyond the double range (nodes [-1, 1] at
    t = 8e307).
    """
    t = _check_time(t)
    log_weights = _tilted_log_weights(mu0, t) - _evolved_moments(mu0, t, 1)[1]
    return _unchecked(DiscreteMeasure, nodes=mu0.nodes, log_weights=log_weights)


def log_omega(mu0: DiscreteMeasure, t: float) -> float:
    """log Omega(t), Omega(t) = integral e^{2 lambda t} dmu0: the s_0 that evolve_moments divides by.

    Raises OverflowError where moser_evolve does.
    """
    return float(_evolved_moments(mu0, _check_time(t), 1)[1])


def _tilted_log_weights(mu0: DiscreteMeasure, times) -> np.ndarray:
    # log w_k + 2 lam_k t: a row per time for an array of times (possibly
    # none), one row for a scalar; raises where 2 |t| lam_k, or the spread
    # 2 |t| (lam_N - lam_1) that subtracting the maximum reaches, leaves the
    # double range (an inf term makes the difference inf or NaN)
    times, nodes = np.asarray(times), mu0.nodes
    reach = 2.0 * float(np.abs(times).max(initial=0.0))
    if not math.isfinite(reach * float(nodes[-1]) - reach * float(nodes[0])):
        raise OverflowError("2 lambda t is beyond the double range")
    tilt = np.multiply.outer(2.0 * times, nodes)
    tilt += mu0.log_weights
    return tilt


def evolve_moments(mu0: DiscreteMeasure, t: float, count: int) -> MomentSequence:
    """Moments of the evolved measure straight from the t = 0 data.

    s_k(t) = (sum lam^k e^{2 lam t} w) / (sum e^{2 lam t} w), numerator
    and denominator sharing one exponent shift and each accumulated by
    compensated summation.  Equal to
    moments_from_measure(moser_evolve(mu0, t), count) up to roundoff,
    with s_0 = 1 exactly.  Raises OverflowError where moser_evolve does,
    and where a term lam^k w of a sum, k < count, leaves the double range,
    which moser_evolve never forms (nodes near 1e100 at count 5).
    """
    t = _check_time(t)
    count = _count("count", count, 1)
    return _unchecked(MomentSequence, values=_evolved_moments(mu0, t, count)[0])


def _evolved_moments(mu0: DiscreteMeasure, times, count: int) -> tuple[np.ndarray, np.ndarray]:
    # a row and an entry per time for an array of times: s_0..s_{count-1} of
    # the evolved measure over its compensated s_0, and log Omega = shift + log s_0
    tilt = _tilted_log_weights(mu0, times)
    top = tilt.max(axis=-1, keepdims=True)
    sums = _moment_sums(mu0.nodes, np.exp(tilt - top), count)
    return sums / sums[..., :1], (top + np.log(sums[..., :1]))[..., 0]


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
    (s_plus, s_minus, s_mid), (log_plus, log_minus, _) = _evolved_moments(mu0, np.array([t + h, t - h, t]), count)
    dlog = (log_plus - log_minus) / (2.0 * h)
    sdot = (s_plus - s_minus) / (2.0 * h)
    return np.abs(sdot[:-1] + dlog * s_mid[:-1] - 2.0 * s_mid[1:])


def solve_toda_finite(j0: JacobiMatrix, times) -> TodaTrajectory:
    """Moment-method solution of the finite lattice on a time grid.

    Decomposes once, then reweights and reconstructs every grid time in
    one batched sweep of q = (N + 1) // 2 steps from both ends of the
    chain: the first-component measure, tilted by e^{2 lam t}, rebuilds
    b_1..b_q and a_1..a_q and the last-component measure, tilted by
    e^{-2 lam t}, the rest.
    Nodes are never recomputed, so the spectrum of every state equals
    that of j0 exactly.  At t = 0 the pipeline is the identity and the
    initial matrix is returned as-is.

    Raises OverlapError when the two ends disagree on a_q, which both
    rebuild, as they do where the spectral data no longer
    determine the lattice in double precision (random N = 1536),
    DegenerateMeasureError when either end's measure runs out of support,
    and OverflowError where 2 t lam_1, 2 t lam_N or the spread
    2 t (lam_N - lam_1) is beyond the double range at the last grid time
    t, lam being the eigenvalues of j0.
    """
    times = _check_grid(times)
    diag, offdiag = _evolve_lattice(j0, *_spectral_measures(j0, last=True), times)
    return _unchecked(TodaTrajectory, times=times, diag=diag, offdiag=offdiag)


def _evolve_lattice(j0: JacobiMatrix, first: DiscreteMeasure, last: DiscreteMeasure, times: np.ndarray):
    """The whole lattice at every grid time, rebuilt from both ends of the chain.

    first and last are j0's first- and last-component spectral measures
    on the same nodes, and times a grid that starts at 0 and increases
    strictly; returns (n_times, N) and (n_times, N-1) arrays with j0's
    own rows at t = 0.  Reversing the index order turns a Toda solution
    into one that runs backward in time, so the last-component measure
    evolves by e^{-2 lam t} and rebuilds the bottom of the chain, read
    upward, as the first-component one, evolving by e^{2 lam t},
    rebuilds the top (Hochstadt, Linear Algebra Appl. 8 (1974) 435).
    Both stacks go through one batched sweep of q = (N + 1) // 2 steps
    that records q norms: b_1..b_q and a_1..a_q come from the front,
    its centers and first q - 1 norms bitwise a one-ended sweep's, and
    b_{q+1}..b_N and a_{q+1}..a_{N-1} from the back, reversed.  Both
    ends rebuild a_q, and OverlapError is raised where the two values
    differ by more than 1e-8 max |lambda|, as they do once double
    precision no longer determines the lattice.  At N = 1 the lattice
    is its eigenvalue, j0 at every time.
    """
    n, rows = j0.n, times.size - 1
    # the front rows log w + 2 lam t above the back rows log w' - 2 lam t,
    # built at N = 1 too for their overflow check
    stack = np.concatenate((_tilted_log_weights(first, times[1:]), _tilted_log_weights(last, -times[1:])))
    diag, offdiag = np.empty((times.size, n)), np.empty((times.size, n - 1))
    diag[0], offdiag[0] = j0.diag, j0.offdiag
    if n == 1:
        diag[1:] = j0.diag
        return diag, offdiag
    q = (n + 1) // 2
    d, e = _stieltjes(first.nodes, stack, q, last_norm=True)
    mismatch = np.abs(e[:rows, q - 1] - e[rows:, n - 1 - q])
    tol = _OVERLAP_REL * max(-first.nodes[0], first.nodes[-1])
    bad = np.flatnonzero(mismatch > tol)
    if bad.size:
        i = bad[0]
        raise OverlapError(
            f"the two ends of the reconstruction disagree by {mismatch[i]:.3e} on a_{q} at "
            f"t = {float(times[i + 1])!r} (tolerance {tol:.3e}, {_OVERLAP_REL:g} max |lambda|): the spectral "
            f"data do not determine this N = {n} lattice in double precision"
        )
    diag[1:, :q], offdiag[1:, :q] = d[:rows], e[:rows]
    diag[1:, q:] = d[rows:, : n - q][:, ::-1]
    offdiag[1:, q:] = e[rows:, : n - 1 - q][:, ::-1]
    return diag, offdiag


def weyl_evolution_residual(j0: JacobiMatrix, lam: float, t: float, h: float) -> float:
    """Central-difference defect of dm/dt = 2 (1 - (b_1 - lam) m).

    m is the resolvent matrix element ((H - lam I)^{-1} e_1, e_1)
    = sum_k w_k / (lam_k - lam), i.e. the negative of weyl_function; with
    the opposite (partial-fraction) sign the defect is identically 4 at
    N = 1 instead of 0.  The convention was fixed by the closed-form N = 2
    check in the test suite.  O(h^2) in the step.  Decomposes j0 once.
    Raises PoleProximityError where lam is within 0.5 max |lambda| of the
    spectrum: relative, so 2^k j0 at 2^k lam, 2^-k t, 2^-k h reads the same.
    """
    t, h = _central_step(t, h)
    lam = _finite_real("lam", lam)
    first, last = _spectral_measures(j0, last=True)
    gap = float(np.abs(lam - first.nodes).min())
    tol = _SPECTRAL_GAP * max(-first.nodes[0], first.nodes[-1])
    if gap < tol:
        raise PoleProximityError(
            f"lambda={lam!r} is within {gap:.3e} of the spectrum; need {_SPECTRAL_GAP:g} max |lambda| = {tol:.3e}"
        )
    diag, offdiag = _evolve_lattice(j0, first, last, np.unique(np.array([0.0, t - h, t, t + h])))
    # the states at t - h (t = h: j0, whose measure is first), t and t + h
    states = [_unchecked(JacobiMatrix, diag=d, offdiag=e) for d, e in zip(diag[-3:], offdiag[-3:])]
    measures = [first if t == h else eigendecompose(states[0]), *map(eigendecompose, states[1:])]
    m_minus, m_mid, m_plus = (-_weyl_sum(mu, lam) for mu in measures)
    dm = (m_plus - m_minus) / (2.0 * h)
    return abs(dm - 2.0 * (1.0 - (states[1].diag[0] - lam) * m_mid))
