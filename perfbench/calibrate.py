"""Fixed CPU kernels that measure how fast the machine runs at the moment.

On a shared host the same op takes up to twice as long from one minute to
the next: over five minutes the 10-second medians of one
finite_dense_grid op ranged from 35 to 73 ms, and raw medians of
30-second runs spread by 15-40% between runs.  The harness therefore
times a kernel between consecutive ops (and around each set-up) and
reports every time at the reference speed, the speed at which one kernel
run takes REFERENCE_S:

    reported = measured * REFERENCE_S / kernel time next to it

How much a slow phase slows code depends on what the code does, so each
workload is scaled by a kernel that does the kind of work its ops do.  A
240-second probe alternating all three workloads with candidate kernels
picked, per workload, the kernel whose ratio to the op moved least
between fast and slow phases and whose 15-second medians of scaled op
time spread least (log-std 0.012-0.019, against 0.13-0.20 unscaled); ten
30-second runs per workload then confirmed it:

- finite_dense_grid, cli_verify: Stieltjes steps on a 16-point measure
  (3/5 of the time) and on a 256-point measure (2/5), like the
  reconstructions and small-array numpy work of N <= 32 solves;
- semi_infinite_floor: projections against a 200 x 256 basis with
  compensated norms, like the reconstructions at N = 256 (3/4 of the
  time), and Stieltjes steps on a 16-point measure (1/4).

The kernels never touch todaflow, so a change to the program cannot
change the yardstick.
"""

from __future__ import annotations

import math
import time

import numpy as np

REFERENCE_S = 2.5e-3

_BASIS = np.linspace(-1.0, 1.0, 200 * 256).reshape(200, 256) / 256.0
_WEIGHTS = np.linspace(0.5, 1.5, 256)
_MEASURES = {n: (np.linspace(-3.0, 3.0, n), np.linspace(1.0, 2.0, n) / (1.5 * n)) for n in (16, 256)}


def stieltjes(n: int, steps: int) -> float:
    """Recurrence steps with two reorthogonalisations on a fixed n-point measure."""
    x, w = _MEASURES[n]
    basis = np.zeros((steps + 1, n))
    q = np.ones(n) / math.sqrt(math.fsum(w))
    basis[0] = q
    q_prev = np.zeros(n)
    beta = 0.0
    for k in range(steps):
        xq = x * q
        alpha = math.fsum(xq * q * w)
        r = xq - alpha * q - beta * q_prev
        for _ in range(2):
            r -= basis[: k + 1].T @ (basis[: k + 1] @ (r * w))
        beta = math.sqrt(math.fsum(r * r * w))
        q_prev, q = q, r / beta
        basis[k + 1] = q
    return beta


def projections(steps: int) -> float:
    """Projections against a 200 x 256 basis with compensated norms."""
    x = np.ones(256)
    for _ in range(steps):
        y = _BASIS @ (x * _WEIGHTS)
        x = x - _BASIS.T @ y
        x /= math.sqrt(math.fsum(x * x * _WEIGHTS))
    return float(x[0])


def _small_lattices() -> None:
    for _ in range(5):
        stieltjes(16, 15)
    stieltjes(256, 18)


def _large_lattices() -> None:
    for _ in range(2):
        stieltjes(16, 15)
    projections(50)


# Each kernel takes about 2.5 ms at the host's faster speed.
KERNELS = {
    "finite_dense_grid": _small_lattices,
    "semi_infinite_floor": _large_lattices,
    "cli_verify": _small_lattices,
}


def measure(workload: str) -> float:
    """Seconds one run of the workload's kernel takes now."""
    kernel = KERNELS[workload]
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start
