"""Command-line front end: JSON config in, trajectory CSV and JSON reports out.

    todaflow --config run.json [--out DIR] [--quiet]

A config is one JSON object: "mode", "initial" and the fields of its mode,
here with their defaults (the grid has none):

    finite          grid {t_end, steps}
                    output {trajectory: "trajectory.csv", report: "report.json"}
    verify          grid {t_end, steps}, options {dt: 1e-4 (RK4 oracle step)}
                    output {trajectory: "trajectory.csv", report: "report.json"}
    semi_infinite   grid {t_end, steps}, options {tol: 1e-8, n_max: 64, m: 1}
                    output {trajectory: "trajectory.csv", report: "report.json"}
    response        options {k: 8 (vector length)}
                    output {table: "response.csv", report: "report.json"}

"initial" is {"b": [...], "a": [...]} or {"random": {"n": 5, "seed": 7}}
(b ~ U[-2,2], a ~ U[0.5,2]); in semi_infinite mode it is a generator,
{"generator": "linear_b", "params": {"alpha": 1.0, "beta": -1.0, "gamma":
0.0}}, or {"generator": "table", "params": {"b": [...], "a": [...]}}.  The
grid is steps + 1 equal times on [0, t_end]; grid.steps is at most
1000000, the size N (len(initial.b), initial.random.n or options.n_max)
at most 16384, and (steps + 1) * N at most 2**24.  Any other field is
rejected with a message naming it, and so, before any output is made,
are generator parameters that make some a_n <= 0 or some b_n infinite
(linear_b: |beta| * 2**52 + |gamma| must be finite), an n_max at most
the first truncation size max(2m+2, 8), and a table shorter than the
second, whose message is the table's own ("options.n_max: table initial
data exhausted at n=16: ..."), as it is when a table runs out later in
the run.  Every config error is a ValueError.
Exit codes: 0 success, 1 config/validation or write failure, 2 numerical failure
(a semi_infinite run that does not converge by n_max is one, and writes nothing).
Trajectory CSV: header "t,b1,...,bN,a1,...,a{N-1}", one row per grid time,
values printed with 17 significant digits so a written file re-reads to
the exact same doubles.
"""

from __future__ import annotations

import argparse
import errno
import functools
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .errors import NumericalError
from .flow import TodaTrajectory, solve_toda_finite
from .jacobi import JacobiMatrix, _count, _finite_real, _increasing, _jacobi_arrays, _unchecked, eigendecompose
from .moments import check_moment_positivity, moments_from_measure
from .oracle import _grid_steps, compare_trajectories, rk4_toda
from .response import _K_MAX, response_from_measure
from .semi_infinite import _truncation_sizes, make_initial_data, solve_toda_semi_infinite

__all__ = [
    "RunConfig",
    "load_config",
    "run",
    "main",
    "write_trajectory_csv",
]

_TRAJECTORY_FILES = {"trajectory": "trajectory.csv", "report": "report.json"}

# mode -> (reads grid.t_end and grid.steps, option -> default, output file ->
# default name in the order written): all that a config of the mode may set.
# verify and semi_infinite pass their options to their solver by name
_MODES = {
    "finite": (True, {}, _TRAJECTORY_FILES),
    "verify": (True, {"dt": 1e-4}, _TRAJECTORY_FILES),
    "semi_infinite": (True, {"tol": 1e-8, "n_max": 64, "m": 1}, _TRAJECTORY_FILES),
    "response": (False, {"k": 8}, {"table": "response.csv", "report": "report.json"}),
}
MODES = tuple(_MODES)

# Upper bounds on the sizes a config may ask for: a larger grid, matrix or
# semi_infinite truncation (one eigendecomposition of random data, both
# ends, peaked at 209 MB at N = 4096, 636 MB at 8192 and 2257 MB at 16384:
# about 8 N**2 bytes of eigenvectors), or a grid of more than 2**24 times x
# N (the solvers hold a few (steps + 1, N) arrays of doubles, 128 MB each at
# the bound), would only fail later, in an allocation that names no field,
# and more RK4 steps in verify mode would run for hours without a message.
_MAX_STEPS = 1_000_000
_MAX_N = 16_384
_MAX_GRID_VALUES = 2**24

# option -> its value rule, called with the dotted field name.
# semi_infinite mode then holds n_max above max(2m+2, 8) and verify mode dt
# to the grid, by the rules solve_toda_semi_infinite and rk4_toda use
_OPTIONS = {
    "dt": lambda name, v: _finite_real(name, v, positive=True),
    "tol": lambda name, v: _finite_real(name, v, positive=True),
    "n_max": lambda name, v: _count(name, v, 2, _MAX_N),
    "m": lambda name, v: _count(name, v, 1),
    "k": lambda name, v: _count(name, v, 1, _K_MAX),
}


@dataclass(eq=False)
class RunConfig:
    """A validated run: all that run() needs but the output directory,
    resolved to library objects.

    initial is a JacobiMatrix, or in semi_infinite mode the coefficient
    function n -> (a_n, b_n) that make_initial_data returns, whose errors
    name options.n_max;
    times is None in response mode; options and output are filled from _MODES.
    """

    mode: str
    times: Optional[np.ndarray]
    initial: JacobiMatrix | Callable[[int], tuple[float, float]]
    options: dict
    output: dict


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


def _field(prefix: str, call, *args):
    # call(*args); prefix, a config path, goes before a ValueError's message
    try:
        return call(*args)
    except ValueError as exc:
        raise ValueError(prefix + str(exc)) from exc


def _known_fields(obj: dict, fields, prefix: str) -> None:
    for key in obj:
        _require(key in fields, f"{prefix}{key}: unknown field, expected one of {sorted(fields)}")


def _section(raw: dict, key: str, fields) -> dict:
    # raw[key] ({} when absent), an object that holds only fields
    obj = raw.get(key, {})
    _require(isinstance(obj, dict), f"{key}: must be an object")
    _known_fields(obj, fields, f"{key}.")
    return obj


def _build_matrix(initial: dict) -> JacobiMatrix:
    if "random" in initial:
        _known_fields(initial, ("random",), "initial.")
        params = initial["random"]
        _require(isinstance(params, dict), "initial.random: must be an object")
        _known_fields(params, ("n", "seed"), "initial.random.")
        n = _count("initial.random.n", params.get("n"), 1, _MAX_N)
        rng = np.random.default_rng(_count("initial.random.seed", params.get("seed", 0), 0))
        return _unchecked(JacobiMatrix, diag=rng.uniform(-2.0, 2.0, n), offdiag=rng.uniform(0.5, 2.0, n - 1))
    _require("b" in initial, "initial.b: required for explicit initial data")
    _known_fields(initial, ("b", "a"), "initial.")
    b, a = _jacobi_arrays(initial["b"], initial.get("a", []), 1, names=("initial.b", "initial.a"))
    _require(b.size <= _MAX_N, f"initial.b: need at most {_MAX_N} entries, got {b.size}")
    return _unchecked(JacobiMatrix, diag=b, offdiag=a)


def _build_generator(initial: dict) -> Callable[[int], tuple[float, float]]:
    _known_fields(initial, ("generator", "params"), "initial.")
    params = initial.get("params", {})
    # make_initial_data also takes None; a config gives an object
    _require(isinstance(params, dict), "initial.params: must be an object")
    coefficients = _field("initial.", make_initial_data, initial.get("generator"), params)
    # a table asked past its end, at the load probe or in the run, names n_max
    return functools.partial(_field, "options.n_max: ", coefficients)


def load_config(path) -> RunConfig:
    """Read, validate and resolve a JSON config file.

    Raises ValueError, whose message starts with the offending field: the
    value rules of todaflow.jacobi start theirs with the field name the
    CLI passes them.
    """
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except OSError as exc:
        raise ValueError(f"config: cannot read {path} ({exc})") from exc
    except ValueError as exc:
        # a JSONDecodeError, or an integer literal too long for int()
        raise ValueError(f"config: cannot parse {path} as JSON ({exc})") from exc
    _require(isinstance(raw, dict), "config: top level must be an object")
    mode = raw.get("mode")
    _require(mode in MODES, f"mode: must be one of {MODES}, got {mode!r}")
    reads_grid, defaults, files = _MODES[mode]
    _known_fields(raw, ("mode", "initial", "options", "output") + ("grid",) * reads_grid, "")

    times = None
    if reads_grid:
        grid = _section(raw, "grid", ("t_end", "steps"))
        t_end = _finite_real("grid.t_end", grid.get("t_end"), positive=True)
        steps = _count("grid.steps", grid.get("steps"), 1, _MAX_STEPS)
        # a spacing below the smallest double gives equal times
        times = _increasing("grid", np.linspace(0.0, t_end, steps + 1))

    options = dict(defaults)
    for key, value in _section(raw, "options", defaults).items():
        options[key] = _OPTIONS[key](f"options.{key}", value)

    initial = raw.get("initial")
    _require(isinstance(initial, dict), "initial: must be an object")
    if mode == "semi_infinite":
        initial = _build_generator(initial)
        # every run reaches its second truncation, which the table must hold;
        # a run that outgrows a table later fails then, with the same message
        initial(_field("options.", _truncation_sizes, options["m"], options["n_max"])[1][1])
    else:
        initial = _build_matrix(initial)
    if reads_grid:
        n = options["n_max"] if mode == "semi_infinite" else initial.n
        _require(
            (steps + 1) * n <= _MAX_GRID_VALUES,
            f"grid.steps: need (steps + 1) * N <= {_MAX_GRID_VALUES}, got {steps + 1} * {n}",
        )
    if mode == "verify":
        oracle_steps = sum(_field("options.", _grid_steps, times, options["dt"]))
        _require(
            oracle_steps <= _MAX_STEPS,
            f"options.dt: {options['dt']!r} makes {oracle_steps} RK4 steps over the grid, more than {_MAX_STEPS}",
        )

    output = dict(files)
    for key, name in _section(raw, "output", files).items():
        _require(isinstance(name, str) and name, f"output.{key}: need a non-empty path")
        output[key] = name
    return RunConfig(mode, times, initial, options, output)


def _write_csv(path, header: list[str], columns) -> None:
    # every CSV of the CLI: a header line, then rows of numbers printed with
    # 17 significant digits, which re-read to the same doubles (and print
    # an integer as %d does); written through a handle, as savetxt would
    # gzip a path that ends in .gz
    with Path(path).open("w") as fh:
        np.savetxt(fh, np.column_stack(columns), fmt="%.17g", delimiter=",", header=",".join(header), comments="")


def write_trajectory_csv(path, traj: TodaTrajectory) -> None:
    """Write "t,b1,...,bN,a1,...,a{N-1}" rows with full 17-digit precision."""
    n = traj.size
    header = ["t"] + [f"b{i}" for i in range(1, n + 1)] + [f"a{i}" for i in range(1, n)]
    _write_csv(path, header, (traj.times, traj.diag, traj.offdiag))


def _check_targets(*paths: Path) -> None:
    # every file of the run is checked before the first is written, so a
    # target that cannot take a file fails the run without leaving part of it
    for path in paths:
        if path.is_dir():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
        if not path.parent.is_dir():
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), str(path))


def run(config: RunConfig, out_dir) -> list[Path]:
    """Execute one validated run into out_dir; returns the paths written.

    Checks that the two output paths name two files, makes out_dir and
    checks that both paths can take a file, then computes the whole run
    (the trajectory or the k,s,r table, and the report) with nothing
    written, and only then writes the mode's first file and the report.
    So a run that fails, on its outputs or in its numerics, writes none
    of its files; a semi_infinite run that does not converge by n_max
    raises NumericalError.
    """
    out_dir = Path(out_dir)
    first, report_path = (out_dir / name for name in config.output.values())
    first_key, report_key = config.output
    _require(first.resolve() != report_path.resolve(), f"output.{report_key}: same path as output.{first_key}")
    out_dir.mkdir(parents=True, exist_ok=True)
    _check_targets(first, report_path)
    report = {"mode": config.mode}
    if config.mode == "response":
        k = config.options["k"]
        mu = eigendecompose(config.initial)
        s = moments_from_measure(mu, k)
        verdict = check_moment_positivity(s)
        report.update(k=k, classification={"kind": verdict.kind, "order": verdict.order})
        _write_csv(first, ["k", "s", "r"], (np.arange(k), s.values, response_from_measure(mu, k)))
    else:
        if config.mode == "semi_infinite":
            traj, stabilization = solve_toda_semi_infinite(config.initial, config.times, **config.options)
            if not stabilization.converged:
                raise NumericalError(
                    f"semi_infinite: not converged (stop_reason {stabilization.stop_reason!r}): last deviation "
                    f"{stabilization.deviations[-1]:.3e}, tol {config.options['tol']!r}, n_max {config.options['n_max']}"
                )
            report.update(stabilization.to_dict())
        else:
            traj = solve_toda_finite(config.initial, config.times)
            report["n"] = traj.size
        if config.mode == "verify":
            report["deviation"] = compare_trajectories(traj, rk4_toda(config.initial, config.times, **config.options))
            report["dt"] = config.options["dt"]
        write_trajectory_csv(first, traj)
    report_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return [first, report_path]


def _parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="todaflow",
        description="Solve finite and truncated semi-infinite Toda lattices by moment evolution.",
    )
    parser.add_argument("--config", required=True, help="path to the JSON run configuration")
    parser.add_argument("--out", default=".", help="directory for output artifacts")
    parser.add_argument("--quiet", action="store_true", help="suppress the artifact listing")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        artifacts = run(load_config(args.config), args.out)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (NumericalError, OverflowError) as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # run's mkdir and writes; load_config turns a failed read into a ValueError
        print(f"error: output: cannot write {exc.filename or args.out} ({exc.strerror or exc})", file=sys.stderr)
        return 1
    if not args.quiet:
        for path in artifacts:
            print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
