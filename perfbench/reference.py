"""Reference trajectories and the correctness gate, computed without todaflow.

The reference integrates the lattice equations

    adot_n = a_n (b_{n+1} - b_n),   bdot_n = 2 (a_n^2 - a_{n-1}^2),  a_0 = a_N = 0

with scipy's adaptive DOP853 at rtol = atol = 1e-12: a different method
from both the spectral solver under test and its fixed-step RK4 oracle.
The ops of a run are stacked BATCH at a time into one system, which costs
about as much as integrating one of them.  The stacked error norm is an
RMS over all components, so a single lattice may carry up to sqrt(BATCH)
times the per-step tolerance; that stays many orders below the 1e-6 gate
(the self-tests compare stacked and single solves).
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import solve_ivp

from inputs import OUTPUT_TIMES, SEMI_M, TOLERANCE, constant_truncation

RTOL = ATOL = 1e-12
BATCH = 64

# Truncation sizes for the semi-infinite reference.  The leading entries
# must not move between them, or the reference itself is not converged.
SEMI_REF_N = (64, 128)
SEMI_REF_AGREEMENT = 1e-10


class ReferenceUnavailable(RuntimeError):
    """The reference could not be computed to the accuracy the gate needs."""


def toda_reference(b0: np.ndarray, a0: np.ndarray, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Integrate K lattices at once: b0 (K, N), a0 (K, N-1) -> diag (K, T, N), offdiag (K, T, N-1)."""
    b0 = np.asarray(b0, dtype=float)
    a0 = np.asarray(a0, dtype=float).reshape(b0.shape[0], b0.shape[1] - 1)
    k, n = b0.shape

    def rhs(_t, y):
        y = y.reshape(k, 2 * n - 1)
        a, b = y[:, : n - 1], y[:, n - 1 :]
        asq = np.zeros((k, n + 1))
        asq[:, 1:n] = a * a
        return np.concatenate((a * (b[:, 1:] - b[:, :-1]), 2.0 * (asq[:, 1:] - asq[:, :-1])), axis=1).ravel()

    y0 = np.concatenate((a0, b0), axis=1).ravel()
    sol = solve_ivp(rhs, (times[0], times[-1]), y0, method="DOP853", t_eval=times, rtol=RTOL, atol=ATOL)
    if not sol.success:
        raise ReferenceUnavailable(f"DOP853 failed: {sol.message}")
    y = sol.y.T.reshape(times.size, k, 2 * n - 1).transpose(1, 0, 2)
    return y[:, :, n - 1 :], y[:, :, : n - 1]


def _batched(b0: np.ndarray, a0: np.ndarray, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    parts = [toda_reference(b0[i : i + BATCH], a0[i : i + BATCH], times) for i in range(0, len(b0), BATCH)]
    return np.concatenate([p[0] for p in parts]), np.concatenate([p[1] for p in parts])


def references(workload: str, inputs: list[dict]) -> tuple[np.ndarray, np.ndarray]:
    """Expected (diag, offdiag) per op, shaped like the program's output.

    For the semi-infinite workload that is the leading m x m window,
    taken from the larger of two reference truncations after checking
    that doubling the truncation does not move it.
    """
    times = OUTPUT_TIMES[workload]
    if workload != "semi_infinite_floor":
        return _batched(np.array([x["b"] for x in inputs]), np.array([x["a"] for x in inputs]), times)
    windows = []
    for n in SEMI_REF_N:
        blocks = [constant_truncation(x, n) for x in inputs]
        diag, off = _batched(np.array([b for b, _ in blocks]), np.array([a for _, a in blocks]), times)
        windows.append((diag[:, :, :SEMI_M], off[:, :, : SEMI_M - 1]))
    (d_small, o_small), (d_big, o_big) = windows
    moved = max(float(np.max(np.abs(d_big - d_small))), float(np.max(np.abs(o_big - o_small))))
    if moved > SEMI_REF_AGREEMENT:
        raise ReferenceUnavailable(f"reference truncation {SEMI_REF_N[0]} is not converged: doubling moves it by {moved:.3e}")
    return d_big, o_big


def state_errors(diag, offdiag, ref_diag, ref_offdiag) -> np.ndarray:
    """Max entry error of each output state against the reference (inf if shapes differ)."""
    diag, offdiag = np.asarray(diag, dtype=float), np.asarray(offdiag, dtype=float)
    if diag.shape != ref_diag.shape or offdiag.shape != ref_offdiag.shape:
        return np.full(ref_diag.shape[0], np.inf)
    err = np.abs(diag - ref_diag).max(axis=1)
    if offdiag.shape[1]:
        err = np.maximum(err, np.abs(offdiag - ref_offdiag).max(axis=1))
    return np.where(np.isnan(err), np.inf, err)


def states_passing(diag, offdiag, ref_diag, ref_offdiag) -> np.ndarray:
    """Boolean per output state: every entry within TOLERANCE of the reference."""
    return state_errors(diag, offdiag, ref_diag, ref_offdiag) <= TOLERANCE
