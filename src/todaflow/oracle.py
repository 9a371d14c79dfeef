"""Direct fixed-step integration of the finite Toda system.

An independent cross-check on the moment method: classical RK4 on the
2N-1 lattice unknowns

    adot_n = a_n (b_{n+1} - b_n),   n = 1..N-1
    bdot_n = 2 (a_n^2 - a_{n-1}^2), n = 1..N,  a_0 = a_N = 0.

Nothing here touches spectral data, so agreement with the moment route
validates both.
"""

from __future__ import annotations

import numpy as np

from .errors import BlowUpError
from .flow import DIRECT_ODE, TodaTrajectory
from .jacobi import JacobiMatrix

__all__ = ["rk4_toda", "compare_trajectories"]

_BLOWUP_LIMIT = 1e8
_GRID_DIVISION_TOL = 1e-12


def _toda_rhs(y: np.ndarray, n: int) -> np.ndarray:
    a = y[: n - 1]
    b = y[n - 1 :]
    da = a * (b[1:] - b[:-1])
    asq = np.zeros(n + 1)
    asq[1:n] = a * a
    db = 2.0 * (asq[1:] - asq[:-1])
    return np.concatenate((da, db))


def rk4_toda(j0: JacobiMatrix, times, dt: float) -> TodaTrajectory:
    """Classical 4th-order Runge-Kutta on the lattice unknowns.

    The grid must be increasing and dt must divide every grid spacing
    within 1e-12; states are sampled exactly at the grid times.

    Raises
    ------
    BlowUpError
        If any entry exceeds 1e8 in magnitude or an off-diagonal entry
        stops being positive.  The exact flow does neither, so either
        guard firing means dt is too large (or a boundary convention is
        broken), not genuine dynamics.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 1:
        raise ValueError("times must be a 1-d grid with at least one point")
    if times.size > 1 and np.min(np.diff(times)) <= 0.0:
        raise ValueError("times must be strictly increasing")
    dt = float(dt)
    if not (dt > 0.0):
        raise ValueError("dt must be positive")
    spans = []
    for width in np.diff(times):
        steps = round(width / dt)
        if steps < 1 or abs(steps * dt - width) > _GRID_DIVISION_TOL:
            raise ValueError(
                f"dt={dt!r} does not divide the grid spacing {width!r} within 1e-12"
            )
        spans.append(steps)

    n = j0.n
    y = np.concatenate((j0.offdiag, j0.diag))
    diag = np.empty((times.size, n))
    offdiag = np.empty((times.size, n - 1))
    diag[0], offdiag[0] = j0.diag, j0.offdiag
    for i, steps in enumerate(spans, start=1):
        for _ in range(steps):
            k1 = _toda_rhs(y, n)
            k2 = _toda_rhs(y + (0.5 * dt) * k1, n)
            k3 = _toda_rhs(y + (0.5 * dt) * k2, n)
            k4 = _toda_rhs(y + dt * k3, n)
            y = y + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
            if np.max(np.abs(y)) > _BLOWUP_LIMIT:
                raise BlowUpError(
                    f"an entry exceeded {_BLOWUP_LIMIT:g} in magnitude; reduce dt"
                )
            if n > 1 and np.min(y[: n - 1]) <= 0.0:
                raise BlowUpError(
                    "an off-diagonal entry left the positive cone; reduce dt"
                )
        diag[i], offdiag[i] = y[n - 1 :], y[: n - 1]
    return TodaTrajectory(times=times, diag=diag, offdiag=offdiag, method=DIRECT_ODE)


def compare_trajectories(first: TodaTrajectory, second: TodaTrajectory) -> float:
    """Max entrywise |difference| over all grid times, diagonals and off-diagonals."""
    if first.size != second.size:
        raise ValueError("trajectories have different matrix sizes")
    if not np.array_equal(first.times, second.times):
        raise ValueError("trajectories are sampled on different grids")
    dev = np.max(np.abs(first.diag_array() - second.diag_array()))
    if first.size > 1:
        dev = max(dev, np.max(np.abs(first.offdiag_array() - second.offdiag_array())))
    return float(dev)
