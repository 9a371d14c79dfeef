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
from .flow import TodaTrajectory
from .jacobi import JacobiMatrix, _finite_real, _increasing, _unchecked

__all__ = ["rk4_toda", "compare_trajectories"]

_BLOWUP_LIMIT = 1e8
_GRID_DIVISION_TOL = 1e-12


def _grid_steps(times: np.ndarray, dt: float) -> list[int]:
    # steps of dt per grid spacing, if dt divides each within 1e-12
    spans = []
    for width in np.diff(times).tolist():
        steps = round(width / dt)
        if steps < 1 or abs(steps * dt - width) > _GRID_DIVISION_TOL:
            raise ValueError(f"dt: {dt!r} does not divide the grid spacing {width!r} within 1e-12")
        spans.append(steps)
    return spans


def _broken_guard(top: np.ndarray, low: np.ndarray, n: int) -> str | None:
    # the message of the first guard that entries within [low, top] break,
    # or None; written so that NaN fails every comparison
    if not (np.maximum.reduce(top) <= _BLOWUP_LIMIT and np.minimum.reduce(low) >= -_BLOWUP_LIMIT):
        return f"an entry exceeded {_BLOWUP_LIMIT:g} in magnitude; reduce dt"
    if n > 1 and not (np.minimum.reduce(low[: n - 1]) > 0.0):
        return "an off-diagonal entry left the positive cone; reduce dt"
    return None


def rk4_toda(j0: JacobiMatrix, times, dt: float) -> TodaTrajectory:
    """Classical 4th-order Runge-Kutta on the lattice unknowns.

    The grid must be increasing and dt must divide every grid spacing
    within 1e-12; states are sampled exactly at the grid times.

    The guards below hold at every step.  They are checked once per grid
    span, on the running extrema of its steps; a span that breaks them is
    replayed from its start state with a check after each step, so the
    error names the first failing step, as a per-step check would.

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

    n, m = j0.n, 2 * j0.n
    diag = np.empty((times.size, n))
    offdiag = np.empty((times.size, n - 1))
    diag[0], offdiag[0] = j0.diag, j0.offdiag
    # An evaluation buffer is [a (n-1), pad, b (n) | 0, a^2 (n-1), 0]: one
    # subtract over its b | 0, a^2, 0 window writes [db, junk, d(a^2)] into
    # k, so k holds bdot / 2.  The factor 2 sits in the b half of the
    # per-entry steps (a power of two, so exact), and their 0 keeps the pad
    # at 0.  Every buffer and view is made once; each stage writes into its
    # buffer in the order of y + (dt/2) k1, ..., y + (dt/6)(k1 + 2(k2 + k3) + k4),
    # so the doubles match an allocate-per-stage loop bit for bit.
    y, stage = np.zeros((2, 3 * n + 1))
    y[: n - 1], y[n:m] = j0.offdiag, j0.diag
    acc, k1, k2, k3, k4, start, top, low = np.empty((8, m))
    half, full, sixth = (
        np.concatenate((np.full(n - 1, h), [0.0], np.full(n, 2.0 * h))) for h in (0.5 * dt, dt, dt / 6.0)
    )
    y_s, y_a, y_b, y_sq, y_hi, y_lo = y[:m], y[: n - 1], y[n:m], y[m + 1 : -1], y[n + 1 :], y[n:-1]
    s_s, s_a, s_sq, s_hi, s_lo = stage[:m], stage[: n - 1], stage[m + 1 : -1], stage[n + 1 :], stage[n:-1]
    k1_a, k2_a, k3_a, k4_a = k1[: n - 1], k2[: n - 1], k3[: n - 1], k4[: n - 1]
    # bound ufuncs with a positional out, which dispatches faster than out=;
    # maximum and minimum take out= (a third positional is deprecated there)
    mul, add, sub = np.multiply, np.add, np.subtract

    def step():
        mul(y_a, y_a, y_sq)
        sub(y_hi, y_lo, k1)
        mul(y_a, k1_a, k1_a)
        add(y_s, mul(half, k1, s_s), s_s)
        mul(s_a, s_a, s_sq)
        sub(s_hi, s_lo, k2)
        mul(s_a, k2_a, k2_a)
        add(y_s, mul(half, k2, s_s), s_s)
        mul(s_a, s_a, s_sq)
        sub(s_hi, s_lo, k3)
        mul(s_a, k3_a, k3_a)
        add(y_s, mul(full, k3, s_s), s_s)
        mul(s_a, s_a, s_sq)
        sub(s_hi, s_lo, k4)
        mul(s_a, k4_a, k4_a)
        add(k2, k3, acc)
        add(acc, acc, acc)  # 2 acc exactly, without a scalar operand
        add(k1, acc, acc)
        add(acc, k4, acc)
        add(y_s, mul(sixth, acc, acc), y_s)

    maximum, minimum = np.maximum, np.minimum
    # an overflow ends as inf/NaN in y; NaN carries through the extrema
    with np.errstate(over="ignore", invalid="ignore"):
        for i, steps in enumerate(_grid_steps(times, dt), start=1):
            start[:] = y_s
            top.fill(-np.inf)
            low.fill(np.inf)
            for _ in range(steps):
                step()
                maximum(top, y_s, out=top)
                minimum(low, y_s, out=low)
            if _broken_guard(top, low, n) is not None:
                # the replay forms the same doubles, so some step breaks a guard
                y_s[:] = start
                for _ in range(steps):
                    step()
                    message = _broken_guard(y_s, y_s, n)
                    if message is not None:
                        raise BlowUpError(message)
            diag[i], offdiag[i] = y_b, y_a
    return _unchecked(TodaTrajectory, times=times, diag=diag, offdiag=offdiag)


def compare_trajectories(first: TodaTrajectory, second: TodaTrajectory) -> float:
    """Max entrywise |difference| over all grid times, diagonals and off-diagonals."""
    if first.size != second.size:
        raise ValueError("trajectories have different matrix sizes")
    if not np.array_equal(first.times, second.times):
        raise ValueError("trajectories are sampled on different grids")
    diag_dev = np.abs(first.diag - second.diag).max()
    return float(max(diag_dev, np.abs(first.offdiag - second.offdiag).max(initial=0.0)))
