"""Semi-infinite Toda data solved by growing finite truncations.

When the initial operator is bounded above, its truncated spectral
measures converge and the leading lattice entries stabilize as the
truncation grows; the solver doubles the truncation size until the
first m entries stop moving (below a requested tolerance) on the whole
time grid, or until their change is down to the roundoff floor of the
truncation.  Convergence is detected empirically and reported, never
assumed: data without an upper spectral bound shows up as eigenvalue
maxima escaping upward and a report flagged non-converged.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .flow import MOMENT_METHOD, TodaTrajectory, _check_grid, _evolve_block, _evolved_moments
from .jacobi import JacobiMatrix, _count, _finite_real, _real_array, eigendecompose

__all__ = [
    "SemiInfiniteInitialData",
    "StabilizationReport",
    "make_initial_data",
    "solve_toda_semi_infinite",
]

_BOUND_SLACK = 1e-6

# A deviation at most this many eps * ||J_n||_inf is roundoff in the
# truncation J_n just run: measured on constant data, deviations from
# N = 64 on sit at 2-23 such units, the 16 -> 32 one at 4e3 or more.
_FLOOR_ULPS = 100.0


@dataclass(frozen=True)
class SemiInfiniteInitialData:
    """Initial lattice data (a_n, b_n) for every n >= 1, plus an optional
    a-priori upper bound on the limiting spectral support.

    coefficients(n) must return the pair (a_n, b_n) with a_n > 0 for any
    n >= 1 it is asked for.
    """

    coefficients: Callable[[int], tuple[float, float]]
    declared_upper_bound: Optional[float] = None

    def __post_init__(self):
        if self.declared_upper_bound is not None:
            bound = _finite_real("declared_upper_bound", self.declared_upper_bound)
            object.__setattr__(self, "declared_upper_bound", bound)

    def truncation(self, n: int) -> JacobiMatrix:
        """Leading n x n Jacobi block of the initial operator."""
        n = _count("n", n, 1)
        pairs = [self.coefficients(k) for k in range(1, n + 1)]
        return JacobiMatrix(diag=[p[1] for p in pairs], offdiag=[p[0] for p in pairs[: n - 1]])


def _linear_b(alpha: float, beta: float, gamma: float):
    return lambda n: (alpha, beta * n + gamma)


def _constant(alpha: float, gamma: float):
    return lambda n: (alpha, gamma)


def _decay(alpha: float, gamma: float):
    return lambda n: (alpha / n, gamma)


def _table(a, b):
    a, b = _real_array("a", a, 1), _real_array("b", b, 1)
    if a.size != b.size - 1 and a.size != b.size:
        raise ValueError("table needs len(a) in {len(b)-1, len(b)}")

    def coeff(n: int) -> tuple[float, float]:
        if n > b.size:
            raise ValueError(
                f"table initial data exhausted at n={n}; provide more entries or lower N_max"
            )
        if n <= a.size:
            return (float(a[n - 1]), float(b[n - 1]))
        # n == len(b) with len(a) == len(b)-1: this a_n lies outside every
        # truncated block, so any positive placeholder works
        return (1.0, float(b[n - 1]))

    return coeff


# generator -> (its own parameters with their defaults, coefficient maker)
_GENERATORS = {
    "linear_b": ({"alpha": 1.0, "beta": 0.0, "gamma": 0.0}, _linear_b),
    "constant": ({"alpha": 1.0, "gamma": 0.0}, _constant),
    "decay": ({"alpha": 1.0, "gamma": 0.0}, _decay),
}


def make_initial_data(name: str, params: Optional[dict] = None) -> SemiInfiniteInitialData:
    """Named built-in generators for initial data.

    "linear_b":  b_n = beta * n + gamma, a_n = alpha
    "constant":  b_n = gamma,            a_n = alpha
    "decay":     b_n = gamma,            a_n = alpha / n
    "table":     explicit finite arrays a, b

    Each generator takes only its own parameters, as finite real numbers;
    any of them may also carry "upper_bound" to declare the spectral bound.
    Defaults: alpha = 1.0, beta = 0.0, gamma = 0.0.
    """
    params = dict(params or {})
    bound = params.pop("upper_bound", None)
    if name == "table":
        coeff = _table(params.pop("a"), params.pop("b"))
    elif name in _GENERATORS:
        defaults, make = _GENERATORS[name]
        coeff = make(**{key: _finite_real(key, params.pop(key, value)) for key, value in defaults.items()})
    else:
        raise ValueError(f"unknown initial-data generator {name!r}")
    if params:
        raise ValueError(f"unused generator parameters: {sorted(params)}")
    return SemiInfiniteInitialData(coefficients=coeff, declared_upper_bound=bound)


@dataclass(frozen=True)
class StabilizationReport:
    """Everything observed while refining the truncation.

    diag_history / offdiag_history hold, per truncation size, the
    (n_times, m) trajectories of the requested leading entries;
    deviations[i] is the max-norm change between sizes i and i+1.
    stop_reason says why the refinement ended: "tol" (a deviation fell
    below tol), "floor_limited" (a deviation reached the roundoff floor
    100 eps ||J_n||_inf of the truncation J_n just run, which counts as
    converged) or "n_max" (size n_max ran without either).  moments holds
    s_0..s_{2m-1} per grid time from the largest truncation (the finite
    stand-in for the limiting moments).  achieved is the last deviation
    (inf when only one size ran).
    """

    entries: int
    times: np.ndarray
    truncation_sizes: tuple[int, ...]
    deviations: tuple[float, ...]
    converged: bool
    stop_reason: str
    achieved: float
    diag_history: tuple[np.ndarray, ...]
    offdiag_history: tuple[np.ndarray, ...]
    spectral_maxima: tuple[float, ...]
    moments: np.ndarray

    def to_dict(self) -> dict:
        """JSON-ready representation (achieved = null when only one size ran)."""
        return {
            "entries": self.entries,
            "times": self.times.tolist(),
            "truncation_sizes": list(self.truncation_sizes),
            "deviations": list(self.deviations),
            "converged": self.converged,
            "stop_reason": self.stop_reason,
            "achieved": self.achieved if math.isfinite(self.achieved) else None,
            "diag_history": [h.tolist() for h in self.diag_history],
            "offdiag_history": [h.tolist() for h in self.offdiag_history],
            "spectral_maxima": list(self.spectral_maxima),
            "moments": self.moments.tolist(),
        }


def _inf_norm(j: JacobiMatrix) -> float:
    rows = np.abs(j.diag)
    rows[:-1] += j.offdiag
    rows[1:] += j.offdiag
    return float(np.max(rows))


def _truncation_sizes(m, n_max, prefix: str = "") -> tuple[int, int]:
    """(m, n_max) as ints, if m >= 1 and n_max >= 2m+2; prefix goes
    before both names in the message."""
    m = _count(f"{prefix}m", m, 1)
    return m, _count(f"{prefix}n_max", n_max, 2 * m + 2)


def solve_toda_semi_infinite(
    init: SemiInfiniteInitialData,
    times,
    m: int,
    tol: float,
    n_max: int,
) -> tuple[TodaTrajectory, StabilizationReport]:
    """Doubling-truncation solve of the semi-infinite lattice.

    Decomposes the truncations of sizes N1, 2 N1, 4 N1, ... below n_max
    and then n_max itself (N1 = max(2m+2, 8), capped at n_max) once
    each and reconstructs only their leading (m+1) x (m+1) blocks over
    the grid: these hold the first m entries of both coefficient
    families and are bitwise the prefix of the full finite solution.
    Stops once those entries move by less than tol, in max norm over the
    whole grid, between consecutive sizes, or by no more than the
    roundoff floor 100 eps ||J_n||_inf of the truncation J_n just run
    (reported as converged, stop_reason "floor_limited"): past that
    floor a tighter tol cannot be met.
    Returns the last solution's leading m x m block together with the
    full refinement report.  Non-convergence is reported, not raised;
    eigenvalues above a declared spectral bound raise a warning.
    """
    times = _check_grid(times)
    tol = _finite_real("tol", tol, positive=True)
    m, n_max = _truncation_sizes(m, n_max)

    sizes_run: list[int] = []
    deviations: list[float] = []
    diag_hist: list[np.ndarray] = []
    offdiag_hist: list[np.ndarray] = []
    spectral_maxima: list[float] = []
    stop_reason = "n_max"

    n = min(max(2 * m + 2, 8), n_max)
    while True:
        block = init.truncation(n)
        mu0 = eigendecompose(block)
        top = float(mu0.nodes[-1])
        spectral_maxima.append(top)
        if init.declared_upper_bound is not None and top > init.declared_upper_bound + _BOUND_SLACK:
            warnings.warn(
                f"truncation N={n} has eigenvalue {top:.6g} above the declared "
                f"upper bound {init.declared_upper_bound:g}",
                stacklevel=2,
            )
        diag, offdiag = _evolve_block(block, mu0, times, m + 1)
        diag_hist.append(diag[:, :m])
        offdiag_hist.append(offdiag)
        sizes_run.append(n)
        if len(sizes_run) > 1:
            dev = max(
                float(np.max(np.abs(diag_hist[-1] - diag_hist[-2]))),
                float(np.max(np.abs(offdiag_hist[-1] - offdiag_hist[-2]))),
            )
            deviations.append(dev)
            if dev < tol:
                stop_reason = "tol"
                break
            if dev <= _FLOOR_ULPS * np.finfo(float).eps * _inf_norm(block):
                stop_reason = "floor_limited"
                break
        if n == n_max:
            break
        n = min(2 * n, n_max)

    # mu0 is the spectral measure of the largest truncation that ran
    moments = _evolved_moments(mu0, times, 2 * m)
    report = StabilizationReport(
        entries=m,
        times=times,
        truncation_sizes=tuple(sizes_run),
        deviations=tuple(deviations),
        converged=stop_reason != "n_max",
        stop_reason=stop_reason,
        achieved=deviations[-1] if deviations else math.inf,
        diag_history=tuple(diag_hist),
        offdiag_history=tuple(offdiag_hist),
        spectral_maxima=tuple(spectral_maxima),
        moments=moments,
    )
    window = TodaTrajectory(times=times, diag=diag[:, :m], offdiag=offdiag[:, : m - 1], method=MOMENT_METHOD)
    return window, report
