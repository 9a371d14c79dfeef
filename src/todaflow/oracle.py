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
from .jacobi import JacobiMatrix, _finite_real, _increasing

__all__ = ["rk4_toda", "compare_trajectories"]

_BLOWUP_LIMIT = 1e8
_GRID_DIVISION_TOL = 1e-12


def rk4_toda(j0: JacobiMatrix, times, dt: float) -> TodaTrajectory:
    """Classical 4th-order Runge-Kutta on the lattice unknowns.

    The grid must be increasing and dt must divide every grid spacing
    within 1e-12; states are sampled exactly at the grid times.

    Raises
    ------
    BlowUpError
        If any entry exceeds 1e8 in magnitude or is not finite, or an
        off-diagonal entry stops being positive.  The exact flow does neither, so either
        guard firing means dt is too large (or a boundary convention is
        broken), not genuine dynamics.
    """
    times = _increasing("times", times)
    dt = _finite_real("dt", dt, positive=True)
    spans = []
    for width in np.diff(times):
        steps = round(width / dt)
        if steps < 1 or abs(steps * dt - width) > _GRID_DIVISION_TOL:
            raise ValueError(
                f"dt={dt!r} does not divide the grid spacing {width!r} within 1e-12"
            )
        spans.append(steps)

    n, m = j0.n, 2 * j0.n
    diag = np.empty((times.size, n))
    offdiag = np.empty((times.size, n - 1))
    diag[0], offdiag[0] = j0.diag, j0.offdiag
    # An evaluation buffer is [a (n-1), pad, b (n) | 0, a^2 (n-1), 0]: one
    # subtract over its b | 0, a^2, 0 window writes [db, junk, d(a^2)] into
    # k, so k holds bdot / 2.  The factor 2 sits in the b half of the
    # per-entry steps (a power of two, so exact), and their 0 keeps the pad
    # at 0.  Every buffer and view is made once; each stage writes through
    # out= in the order of y + (dt/2) k1, ..., y + (dt/6)(k1 + 2(k2 + k3) + k4),
    # so the doubles match an allocate-per-stage loop bit for bit.
    y, stage = np.zeros((2, 3 * n + 1))
    y[: n - 1], y[n:m] = j0.offdiag, j0.diag
    acc, k1, k2, k3, k4 = np.empty((5, m))
    half, full, sixth = (
        np.concatenate((np.full(n - 1, h), [0.0], np.full(n, 2.0 * h))) for h in (0.5 * dt, dt, dt / 6.0)
    )

    def views(v, k):
        return v[: n - 1], v[m + 1 : -1], v[n + 1 :], v[n:-1], k, k[: n - 1]

    def rhs(a, asq, hi, lo, k, k_a):
        np.multiply(a, a, out=asq)
        np.subtract(hi, lo, out=k)
        np.multiply(a, k_a, out=k_a)

    at_y, at_k2, at_k3, at_k4 = views(y, k1), views(stage, k2), views(stage, k3), views(stage, k4)
    y_s, y_a, y_b, stage_s = y[:m], y[: n - 1], y[n:m], stage[:m]
    # an overflow ends as inf/NaN in y, which the guards below turn into BlowUpError
    with np.errstate(over="ignore", invalid="ignore"):
        for i, steps in enumerate(spans, start=1):
            for _ in range(steps):
                rhs(*at_y)
                np.add(y_s, np.multiply(half, k1, out=stage_s), out=stage_s)
                rhs(*at_k2)
                np.add(y_s, np.multiply(half, k2, out=stage_s), out=stage_s)
                rhs(*at_k3)
                np.add(y_s, np.multiply(full, k3, out=stage_s), out=stage_s)
                rhs(*at_k4)
                np.add(k2, k3, out=acc)
                np.add(acc, acc, out=acc)  # 2 acc exactly, without a scalar operand
                np.add(k1, acc, out=acc)
                np.add(acc, k4, out=acc)
                np.add(y_s, np.multiply(sixth, acc, out=acc), out=y_s)
                # written so that NaN fails both comparisons; the ufunc
                # reductions skip the dispatch of np.max / np.min
                if not (np.maximum.reduce(np.abs(y_s, out=acc)) <= _BLOWUP_LIMIT):
                    raise BlowUpError(
                        f"an entry exceeded {_BLOWUP_LIMIT:g} in magnitude; reduce dt"
                    )
                if n > 1 and not (np.minimum.reduce(y_a) > 0.0):
                    raise BlowUpError(
                        "an off-diagonal entry left the positive cone; reduce dt"
                    )
            diag[i], offdiag[i] = y_b, y_a
    return TodaTrajectory(times=times, diag=diag, offdiag=offdiag, method=DIRECT_ODE)


def compare_trajectories(first: TodaTrajectory, second: TodaTrajectory) -> float:
    """Max entrywise |difference| over all grid times, diagonals and off-diagonals."""
    if first.size != second.size:
        raise ValueError("trajectories have different matrix sizes")
    if not np.array_equal(first.times, second.times):
        raise ValueError("trajectories are sampled on different grids")
    diag_dev = np.max(np.abs(first.diag - second.diag))
    return float(max(diag_dev, np.max(np.abs(first.offdiag - second.offdiag), initial=0.0)))
