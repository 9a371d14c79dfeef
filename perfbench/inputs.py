"""Workload definitions and seeded inputs, shared by the harness and the worker.

Nothing here imports todaflow: the harness regenerates every input from
the seed to build its own reference, so the generator must not depend on
the code under test.  Each op draws from its own stream keyed by
(seed, workload, op index), which makes the input of op i independent of
how many ops ran before it and gives every op a fresh input.
"""

from __future__ import annotations

import numpy as np

WORKLOADS = ("finite_dense_grid", "semi_infinite_floor", "cli_verify")

# The repository's advertised accuracy against an independent integration
# (tests/test_acceptance.py, criterion 1).
TOLERANCE = 1e-6

FINITE_N = 16
FINITE_TIMES = np.linspace(0.0, 1.0, 101)

SEMI_M = 3
SEMI_TOL = 1e-15
SEMI_N_MAX = 256
SEMI_TIMES = np.linspace(0.0, 4.0, 11)

CLI_N = 32
CLI_T_END = 1.0
CLI_STEPS = 10
CLI_DT = 1e-3
CLI_TIMES = np.linspace(0.0, CLI_T_END, CLI_STEPS + 1)

OUTPUT_TIMES = {
    "finite_dense_grid": FINITE_TIMES,
    "semi_infinite_floor": SEMI_TIMES,
    "cli_verify": CLI_TIMES,
}

# Ops per second of --seconds.  A run makes a fixed number of ops,
# round(seconds * rate), so the same seed always gives the same inputs,
# the same reference batches and therefore the same count of failed ops.
# The rates are about the slowest the seed library ran on the 2-vCPU host
# the benchmark was built on, op loop included (cli_verify 10/s: its loop
# ran 9.5-16/s), so a run of the seed takes at most about --seconds of op
# loop and all runs the benchmark contract asks for fit its time limit.
OPS_PER_SECOND = {
    "finite_dense_grid": 18.0,
    "semi_infinite_floor": 2.0,
    "cli_verify": 10.0,
}

_OP_STREAM = 0
_WARMUP_STREAM = 1


def op_count(workload: str, seconds: float) -> int:
    """Ops one run makes; at least 2, so a traced run has an untraced and a traced op."""
    return max(2, round(seconds * OPS_PER_SECOND[workload]))


def loop_limit(seconds: float) -> float:
    """Longest the op loop may take.  A program several times slower than the
    seed stops early and makes fewer ops, so that every run ends in time."""
    return min(4.0 * seconds, 120.0)


def _rng(workload: str, seed: int, stream: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload), stream, index])


def random_lattice(rng: np.random.Generator, n: int) -> dict:
    """Same distribution as the CLI "random" generator: b ~ U[-2,2], a ~ U[0.5,2]."""
    b = rng.uniform(-2.0, 2.0, n)
    a = rng.uniform(0.5, 2.0, n - 1)
    return {"b": b, "a": a}


def op_input(workload: str, seed: int, index: int, *, warmup: bool = False) -> dict:
    """Input of op `index`; warm-up ops draw from a separate stream."""
    rng = _rng(workload, seed, _WARMUP_STREAM if warmup else _OP_STREAM, index)
    if workload == "finite_dense_grid":
        return random_lattice(rng, FINITE_N)
    if workload == "semi_infinite_floor":
        return {"alpha": rng.uniform(0.5, 1.5), "gamma": rng.uniform(-1.0, 1.0)}
    if workload == "cli_verify":
        return random_lattice(rng, CLI_N)
    raise ValueError(f"unknown workload {workload!r}")


def constant_truncation(inp: dict, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Leading n x n block (b, a) of constant semi-infinite data."""
    return np.full(n, inp["gamma"]), np.full(n - 1, inp["alpha"])
