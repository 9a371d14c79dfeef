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

    n = j0.n
    y = np.concatenate((j0.offdiag, j0.diag))
    diag = np.empty((times.size, n))
    offdiag = np.empty((times.size, n - 1))
    diag[0], offdiag[0] = j0.diag, j0.offdiag
    # Every buffer and slice view is made once; each stage writes through
    # out= in the order of y + (dt/2) k1, ..., y + (dt/6)(k1 + 2(k2 + k3) + k4),
    # so the doubles match an allocate-per-stage loop bit for bit.
    stage, acc, k1, k2, k3, k4 = np.empty((6, y.size))
    asq = np.zeros(n + 1)
    asq_in, asq_hi, asq_lo = asq[1:n], asq[1:], asq[:-1]

    def state(v):
        return v[: n - 1], v[n - 1 : -1], v[n:]  # a, b[:-1], b[1:]

    def deriv(v):
        return v[: n - 1], v[n - 1 :]  # da, db

    def rhs(src, dst):
        a, b_lo, b_hi = src
        da, db = dst
        np.subtract(b_hi, b_lo, out=da)
        np.multiply(a, da, out=da)
        np.multiply(a, a, out=asq_in)
        np.subtract(asq_hi, asq_lo, out=db)
        np.multiply(2.0, db, out=db)

    y_v, stage_v = state(y), state(stage)
    k1_v, k2_v, k3_v, k4_v = map(deriv, (k1, k2, k3, k4))
    y_a, y_b = y[: n - 1], y[n - 1 :]
    half, sixth = 0.5 * dt, dt / 6.0
    # an overflow ends as inf/NaN in y, which the guards below turn into BlowUpError
    with np.errstate(over="ignore", invalid="ignore"):
        for i, steps in enumerate(spans, start=1):
            for _ in range(steps):
                rhs(y_v, k1_v)
                np.add(y, np.multiply(half, k1, out=stage), out=stage)
                rhs(stage_v, k2_v)
                np.add(y, np.multiply(half, k2, out=stage), out=stage)
                rhs(stage_v, k3_v)
                np.add(y, np.multiply(dt, k3, out=stage), out=stage)
                rhs(stage_v, k4_v)
                np.add(k2, k3, out=acc)
                np.multiply(2.0, acc, out=acc)
                np.add(k1, acc, out=acc)
                np.add(acc, k4, out=acc)
                np.add(y, np.multiply(sixth, acc, out=acc), out=y)
                # written so that NaN fails both comparisons
                if not (np.abs(y, out=acc).max() <= _BLOWUP_LIMIT):
                    raise BlowUpError(
                        f"an entry exceeded {_BLOWUP_LIMIT:g} in magnitude; reduce dt"
                    )
                if n > 1 and not (y_a.min() > 0.0):
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
