"""Semi-infinite Toda data solved by growing finite truncations.

The solver doubles the truncation size until the first m entries stop
moving (below a requested tolerance) on the whole time grid, or until
their change is down to the roundoff floor of the truncation.  That test
alone decides convergence, whatever the spectrum: b_n = +n and Hermite
data (spectrum all of R) converge, while a_n = n, b_n = 0 past its
blow-up at t = pi/4 runs to n_max and reports converged False.  The top
eigenvalue of each truncation is recorded (spectral_maxima), not tested.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, fields
from typing import Callable, Optional

import numpy as np

from .flow import TodaTrajectory, _check_grid, _evolved_moments, _tilted_log_weights
from .jacobi import JacobiMatrix, _count, _finite_real, _freeze, _real_array, _unchecked, eigendecompose
from .moments import _stieltjes

__all__ = [
    "StabilizationReport",
    "make_initial_data",
    "solve_toda_semi_infinite",
    "truncation",
]

# A deviation at most this many eps * ||J_n||_inf is roundoff in the
# truncation J_n just run: measured on constant data, deviations from
# N = 64 on sit at 2-23 such units, the 16 -> 32 one at 4e3 or more.
_FLOOR_ULPS = 100.0


def truncation(coefficients: Callable[[int], tuple[float, float]], n: int) -> JacobiMatrix:
    """Leading n x n Jacobi block of the initial data k -> (a_k, b_k), read
    at k = 1..n in order; a value of other than two entries raises ValueError."""
    a, b = zip(*map(coefficients, range(1, _count("n", n, 1) + 1)), strict=True)
    return JacobiMatrix(diag=b, offdiag=a[:-1])


def _linear_b(alpha: float, beta: float, gamma: float):
    # as for decay, every n < 2**52 must give a finite b_n
    if not math.isfinite(abs(beta) * 2.0**52 + abs(gamma)):
        raise ValueError(
            f"params.beta: need |beta| * 2**52 + |gamma| finite, so that every b_n = beta * n + gamma "
            f"is finite, got beta = {beta!r}, gamma = {gamma!r}"
        )
    return lambda n: (alpha, beta * n + gamma)


def _decay(alpha: float, gamma: float):
    # a normal alpha keeps alpha / n a positive double for every n < 2**52;
    # a subnormal one can round to a_n = 0 at a size a run reaches
    if alpha < sys.float_info.min:
        raise ValueError(
            f"params.alpha: need at least {sys.float_info.min!r}, the smallest normal double, "
            f"so that every a_n = alpha / n > 0, got {alpha!r}"
        )
    return lambda n: (alpha / n, gamma)


def _table(a, b):
    a, b = _real_array("params.a", a, 1, positive=True), _real_array("params.b", b, 1)
    if a.size != b.size - 1 and a.size != b.size:
        raise ValueError(f"params.a: need len(a) = len(b) - 1 or len(b), got {a.size} for len(b) = {b.size}")
    # a_{len(b)} lies outside every truncated block, so a missing one is
    # padded with any positive placeholder
    a = np.append(a, [1.0] * (b.size - a.size))

    def coeff(n: int) -> tuple[float, float]:
        if not 1 <= n <= b.size:
            if n < 1:
                raise ValueError(f"n: table initial data starts at n=1, got n={n}")
            raise ValueError(
                f"table initial data exhausted at n={n}: the table holds {b.size} entries; "
                "provide more entries or lower n_max"
            )
        return (float(a[n - 1]), float(b[n - 1]))

    return coeff


# generator -> (its own parameters with their defaults, coefficient maker)
_GENERATORS = {
    "linear_b": ({"alpha": 1.0, "beta": 0.0, "gamma": 0.0}, _linear_b),
    "decay": ({"alpha": 1.0, "gamma": 0.0}, _decay),
}


def make_initial_data(generator: str, params: Optional[dict] = None) -> Callable[[int], tuple[float, float]]:
    """Named built-in generators of initial data, returned as the
    coefficient function n -> (a_n, b_n), n >= 1.

    "linear_b":  b_n = beta * n + gamma, a_n = alpha (constant data at beta = 0)
    "decay":     b_n = gamma,            a_n = alpha / n
    "table":     explicit finite arrays a, b

    Each generator takes only its own parameters, as finite real numbers,
    with alpha > 0 (decay: alpha at least the smallest normal double, so
    that alpha / n does not underflow to 0) and every entry of a table's
    a > 0, so that every a_n > 0; linear_b needs |beta| * 2**52 + |gamma|
    finite, so that every b_n with n < 2**52 is finite.  Defaults:
    alpha = 1.0, beta = 0.0, gamma = 0.0.  params is a dict or None.  Each
    message starts with its argument: "generator:", "params:" or
    "params.<key>:".  A table's function raises ValueError when asked for
    an entry past its end, naming its length, or for n < 1.
    """
    if not (params is None or isinstance(params, dict)):
        raise ValueError(f"params: need a dict of the generator's parameters or None, got {params!r}")
    params = dict(params or {})
    if generator == "table":
        for key in ("a", "b"):
            if key not in params:
                raise ValueError(f"params.{key}: the table generator needs arrays a and b")
        coeff = _table(params.pop("a"), params.pop("b"))
    elif isinstance(generator, str) and generator in _GENERATORS:
        defaults, make = _GENERATORS[generator]
        coeff = make(**{
            key: _finite_real(f"params.{key}", params.pop(key, value), positive=key == "alpha")
            for key, value in defaults.items()
        })
    else:
        raise ValueError(f"generator: unknown initial-data generator {generator!r}")
    if params:
        raise ValueError(f"params.{next(iter(params))}: not a parameter of the {generator} generator")
    return coeff


@dataclass(frozen=True, eq=False)
class StabilizationReport:
    """Everything observed while refining the truncation.

    diag_history / offdiag_history are (sizes run, n_times, m) arrays:
    page i holds the trajectories of the requested leading entries of
    truncation_sizes[i]; deviations[i] is the max-norm change between
    pages i and i+1 (two sizes or more run, so there is one at least).
    stop_reason says why the refinement ended: "tol" (a deviation fell
    below tol), "floor_limited" (a deviation reached the roundoff floor
    100 eps ||J_n||_inf of the truncation J_n just run, which counts as
    converged) or "n_max" (size n_max ran without either).  moments holds
    s_0..s_{2m-1} per grid time from the largest truncation (the finite
    stand-in for the limiting moments).  Every array it holds is read-only.
    """

    entries: int
    times: np.ndarray
    truncation_sizes: tuple[int, ...]
    deviations: tuple[float, ...]
    converged: bool
    stop_reason: str
    diag_history: np.ndarray
    offdiag_history: np.ndarray
    spectral_maxima: tuple[float, ...]
    moments: np.ndarray

    def __post_init__(self):
        _freeze(self, times=self.times, diag_history=self.diag_history, offdiag_history=self.offdiag_history,
                moments=self.moments)

    def to_dict(self) -> dict:
        """JSON-ready representation: every field in class order, arrays and
        tuples as lists."""
        return {f.name: np.asarray(getattr(self, f.name)).tolist() for f in fields(self)}


def _inf_norm(j: JacobiMatrix) -> float:
    rows = np.abs(j.diag)
    rows[:-1] += j.offdiag
    rows[1:] += j.offdiag
    return float(rows.max())


def _truncation_sizes(m, n_max) -> tuple[int, list[int]]:
    """m as an int, if m >= 1, and the truncation sizes the solver may
    run, if n_max > N1 = max(2m+2, 8): N1, doubled while below n_max, then
    n_max itself, so that every run can compare two sizes."""
    m = _count("m", m, 1)
    sizes = [max(2 * m + 2, 8)]
    n_max = _count("n_max", n_max, sizes[0] + 1)
    while 2 * sizes[-1] < n_max:
        sizes.append(2 * sizes[-1])
    return m, sizes + [n_max]


def solve_toda_semi_infinite(
    init: Callable[[int], tuple[float, float]],
    times,
    m: int,
    tol: float,
    n_max: int,
) -> tuple[TodaTrajectory, StabilizationReport]:
    """Doubling-truncation solve of the semi-infinite lattice.

    init is the initial data as its coefficient function: init(n) returns
    the pair (a_n, b_n), with b_n finite and a_n > 0, for every n >= 1 it
    is asked for, once each; each block is built checked by truncation,
    so a pair that breaks this, or a value of other than two entries,
    raises ValueError.
    Decomposes the truncations of sizes N1, 2 N1, 4 N1, ... below n_max
    and then n_max itself (N1 = max(2m+2, 8) < n_max, so two sizes at
    least) once each and reconstructs only their leading (m+1) x (m+1)
    blocks over the grid, by m + 1 Lanczos steps from the top of the
    chain: these hold the first m entries of both coefficient families
    and are bitwise the prefix of the full finite solution.
    Stops once those entries move by less than tol, in max norm over the
    whole grid, between consecutive sizes, or by no more than the
    roundoff floor 100 eps ||J_n||_inf of the truncation J_n just run
    (reported as converged, stop_reason "floor_limited"): past that
    floor a tighter tol cannot be met.
    Returns the last solution's leading m x m block together with the
    full refinement report, whose histories hold one (n_times, m) page
    per size run.  Non-convergence is reported, not raised; a breakdown
    is raised.  Raises ValueError naming n_max when n_max <= N1;
    DegenerateMeasureError where the weights of a truncation that runs,
    evolved to a grid time, are numerically supported on fewer than
    m + 1 nodes (linear_b, beta = 1, m = 3 at t = 30); and OverflowError
    where 2 t lam_1, 2 t lam_N or the spread 2 t (lam_N - lam_1) is
    beyond the double range at the last grid time t, lam being the
    eigenvalues of a truncation that runs, or where a term |lam|^k w,
    k < 2m, of the report's moments leaves it (linear_b, alpha = 1e40,
    m = 8).
    """
    times = _check_grid(times)
    tol = _finite_real("tol", tol, positive=True)
    m, sizes = _truncation_sizes(m, n_max)

    deviations: list[float] = []
    spectral_maxima: list[float] = []
    stop_reason = "n_max"
    # page i holds sizes[i]'s leading entries; pages of sizes that never run are never written
    diag_hist, offdiag_hist = np.empty((2, len(sizes), times.size, m))

    fetch = functools.cache(init)  # the cache fetches each coefficient once
    for i, n in enumerate(sizes):
        block = truncation(fetch, n)
        mu0 = eigendecompose(block)
        spectral_maxima.append(float(mu0.nodes[-1]))
        d, e = _stieltjes(mu0.nodes, _tilted_log_weights(mu0, times[1:]), m + 1)
        diag_hist[i, 0], offdiag_hist[i, 0] = block.diag[:m], block.offdiag[:m]
        diag_hist[i, 1:], offdiag_hist[i, 1:] = d[:, :m], e
        if i:
            dev = max(float(np.abs(hist[i] - hist[i - 1]).max()) for hist in (diag_hist, offdiag_hist))
            deviations.append(dev)
            if dev < tol:
                stop_reason = "tol"
                break
            if dev <= _FLOOR_ULPS * np.finfo(float).eps * _inf_norm(block):
                stop_reason = "floor_limited"
                break

    # mu0 is the spectral measure of the largest truncation that ran
    moments = _evolved_moments(mu0, times, 2 * m)[0]
    report = StabilizationReport(
        entries=m,
        times=times,
        truncation_sizes=tuple(sizes[: i + 1]),
        deviations=tuple(deviations),
        converged=stop_reason != "n_max",
        stop_reason=stop_reason,
        diag_history=diag_hist[: i + 1],
        offdiag_history=offdiag_hist[: i + 1],
        spectral_maxima=tuple(spectral_maxima),
        moments=moments,
    )
    # copies, so that the window shares no memory with the report
    window = _unchecked(TodaTrajectory, times=times, diag=diag_hist[i].copy(), offdiag=offdiag_hist[i, :, : m - 1].copy())
    return window, report
