"""Command-line front end: JSON config in, trajectory CSV and JSON reports out.

Config document::

    {
      "mode": "finite" | "verify" | "semi_infinite" | "response",
      "initial": {"b": [...], "a": [...]}                      # explicit arrays
                 | {"random": {"n": 5, "seed": 7}}             # b ~ U[-2,2], a ~ U[0.5,2]
                 | {"generator": "linear_b",                   # semi_infinite only
                    "params": {"alpha": 1.0, "beta": -1.0, "gamma": 0.0,
                               "upper_bound": 1.0}},
      "grid": {"t_end": 1.0, "steps": 10},                     # t_start is always 0
      "options": {"dt": 1e-4,                                  # verify: oracle step
                  "tol": 1e-8, "n_max": 64, "m": 2,            # semi_infinite
                  "k": 8},                                     # response: vector length
      "output": {"trajectory": "trajectory.csv",
                 "report": "report.json",
                 "table": "response.csv"}
    }

Each object accepts only its own fields (initial: those of the shape it
uses, plus "upper_bound" next to semi_infinite tables); any other field
is rejected with a message naming it.
Exit codes: 0 success, 1 config/validation failure, 2 numerical failure.
Trajectory CSV: header "t,b1,...,bN,a1,...,a{N-1}", one row per grid time,
values printed with 17 significant digits so a written file re-reads to
the exact same doubles.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import NumericalError
from .flow import TodaTrajectory, solve_toda_finite
from .jacobi import JacobiMatrix, _count, _finite_real, _jacobi_arrays, _real_array, eigendecompose
from .moments import check_moment_positivity, moments_from_measure
from .oracle import compare_trajectories, rk4_toda
from .response import _K_MAX, response_from_moments
from .semi_infinite import SemiInfiniteInitialData, _truncation_sizes, make_initial_data, solve_toda_semi_infinite

__all__ = [
    "ConfigError",
    "RunConfig",
    "load_config",
    "run",
    "main",
    "write_trajectory_csv",
    "read_trajectory_csv",
]

MODES = ("finite", "verify", "semi_infinite", "response")

_DEFAULT_OUTPUT = {
    "trajectory": "trajectory.csv",
    "report": "report.json",
    "table": "response.csv",
}

# Upper bounds on the sizes a config may ask for: a larger grid or random
# matrix would only fail later, in an allocation that names no field.
_MAX_STEPS = 1_000_000
_MAX_RANDOM_N = 16_384

# option -> its value rule, called with the dotted field name; the
# defaults live on RunConfig, and semi_infinite mode then holds n_max to
# 2m+2 by the rule solve_toda_semi_infinite uses
_OPTIONS = {
    "dt": lambda name, v: _finite_real(name, v, positive=True),
    "tol": lambda name, v: _finite_real(name, v, positive=True),
    "n_max": lambda name, v: _count(name, v, 2),
    "m": lambda name, v: _count(name, v, 1),
    "k": lambda name, v: _count(name, v, 1, _K_MAX),
}


class ConfigError(ValueError):
    """Configuration rejected; the message names the offending field."""


@dataclass
class RunConfig:
    """A validated run: everything main() needs, resolved to library objects.

    initial is a JacobiMatrix, or SemiInfiniteInitialData in semi_infinite mode.
    """

    mode: str
    times: np.ndarray
    out_dir: Path
    initial: JacobiMatrix | SemiInfiniteInitialData
    dt: float = 1e-4
    tol: float = 1e-8
    n_max: int = 64
    m: int = 1
    k: int = 8
    output: dict = field(default_factory=lambda: dict(_DEFAULT_OUTPUT))


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def _known_fields(obj: dict, fields, prefix: str) -> None:
    for key in obj:
        _require(key in fields, f"{prefix}{key}: unknown field, expected one of {sorted(fields)}")


def _build_matrix(initial: dict) -> JacobiMatrix:
    if "random" in initial:
        _known_fields(initial, ("random",), "initial.")
        params = initial["random"]
        _require(isinstance(params, dict), "initial.random: must be an object")
        _known_fields(params, ("n", "seed"), "initial.random.")
        n = _count("initial.random.n", params.get("n"), 1, _MAX_RANDOM_N)
        rng = np.random.default_rng(_count("initial.random.seed", params.get("seed", 0), 0))
        return JacobiMatrix(diag=rng.uniform(-2.0, 2.0, n), offdiag=rng.uniform(0.5, 2.0, n - 1))
    _require("b" in initial, "initial.b: required for explicit initial data")
    _known_fields(initial, ("b", "a"), "initial.")
    b, a = _jacobi_arrays(initial["b"], initial.get("a", []), 1, names=("initial.b", "initial.a"))
    return JacobiMatrix(diag=b, offdiag=a)


def _generator_params(params: dict, prefix: str) -> dict:
    # tables a, b are arrays; every other generator parameter is one number
    return {
        key: _real_array(f"{prefix}.{key}", value, 1)
        if key in ("a", "b")
        else _finite_real(f"{prefix}.{key}", value)
        for key, value in params.items()
    }


def _build_generator(initial: dict) -> SemiInfiniteInitialData:
    if "generator" in initial:
        _known_fields(initial, ("generator", "params"), "initial.")
        name, field, params = initial["generator"], "initial.generator", initial.get("params", {})
        _require(isinstance(params, dict), "initial.params: must be an object")
        params = _generator_params(params, "initial.params")
    elif "b" in initial:
        _known_fields(initial, ("b", "a", "upper_bound"), "initial.")
        name, field = "table", "initial"
        params = _generator_params({"a": initial.get("a", []), "b": initial["b"], **initial}, "initial")
    else:
        raise ConfigError("initial: semi_infinite mode needs a generator name or explicit tables")
    try:
        return make_initial_data(name, params)
    except (ValueError, KeyError) as exc:
        raise ConfigError(f"{field}: {exc}") from exc


def load_config(path, *, mode_override: Optional[str] = None, out_dir: str = ".") -> RunConfig:
    """Read, validate and resolve a JSON config file.

    Raises ConfigError, whose message starts with the offending field.
    """
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path} ({exc})") from exc
    except ValueError as exc:
        # a JSONDecodeError, or an integer literal too long for int()
        raise ConfigError(f"config: cannot parse {path} as JSON ({exc})") from exc
    try:
        return _resolve(raw, mode_override, Path(out_dir))
    except ConfigError:
        raise
    except ValueError as exc:
        # the value rules of todaflow.jacobi start their message with the
        # field name the CLI passed them
        raise ConfigError(str(exc)) from exc


def _resolve(raw, mode_override: Optional[str], out_dir: Path) -> RunConfig:
    _require(isinstance(raw, dict), "config: top level must be an object")
    _known_fields(raw, ("mode", "initial", "grid", "options", "output"), "")

    mode = mode_override or raw.get("mode")
    _require(mode in MODES, f"mode: must be one of {MODES}, got {mode!r}")

    grid = raw.get("grid", {})
    _require(isinstance(grid, dict), "grid: must be an object")
    _known_fields(grid, ("t_end", "steps"), "grid.")
    t_end = _finite_real("grid.t_end", grid.get("t_end"), positive=True)
    steps = _count("grid.steps", grid.get("steps"), 1, _MAX_STEPS)
    times = np.linspace(0.0, t_end, steps + 1)

    options = raw.get("options", {})
    _require(isinstance(options, dict), "options: must be an object")
    _known_fields(options, _OPTIONS, "options.")
    settings = {key: rule(f"options.{key}", options[key]) for key, rule in _OPTIONS.items() if key in options}

    initial = raw.get("initial")
    _require(isinstance(initial, dict), "initial: must be an object")
    build = _build_generator if mode == "semi_infinite" else _build_matrix
    config = RunConfig(mode, times, out_dir, build(initial), **settings)
    if mode == "semi_infinite":
        _truncation_sizes(config.m, config.n_max, "options.")

    output = raw.get("output", {})
    _require(isinstance(output, dict), "output: must be an object")
    _known_fields(output, _DEFAULT_OUTPUT, "output.")
    for key in config.output:
        if key in output:
            _require(isinstance(output[key], str) and output[key], f"output.{key}: need a non-empty path")
    config.output.update(output)
    return config


def write_trajectory_csv(path, traj: TodaTrajectory) -> None:
    """Write "t,b1,...,bN,a1,...,a{N-1}" rows with full 17-digit precision."""
    n = traj.size
    header = ",".join(["t"] + [f"b{i}" for i in range(1, n + 1)] + [f"a{i}" for i in range(1, n)])
    rows = np.column_stack((traj.times, traj.diag, traj.offdiag))
    fmt = ",".join(["%.17g"] * rows.shape[1])
    lines = [header] + [fmt % tuple(row) for row in rows.tolist()]
    Path(path).write_text("\n".join(lines) + "\n")


def read_trajectory_csv(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read a trajectory CSV back as (times, diag (nt, N), offdiag (nt, N-1))."""
    lines = Path(path).read_text().strip().split("\n")
    header = lines[0].split(",")
    n = sum(1 for name in header if name.startswith("b"))
    data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return data[:, 0], data[:, 1 : 1 + n], data[:, 1 + n :]


def _write_report(config: RunConfig, report: dict) -> Path:
    path = config.out_dir / config.output["report"]
    path.write_text(json.dumps({"mode": config.mode, **report}, indent=2, sort_keys=True) + "\n")
    return path


def _write_run(config: RunConfig, traj: TodaTrajectory, report: dict) -> list[Path]:
    csv_path = config.out_dir / config.output["trajectory"]
    write_trajectory_csv(csv_path, traj)
    return [csv_path, _write_report(config, report)]


def _run_response(config: RunConfig) -> list[Path]:
    mu = eigendecompose(config.initial)
    s = moments_from_measure(mu, config.k)
    r = response_from_moments(s)
    table_path = config.out_dir / config.output["table"]
    rows = zip(range(config.k), s.values.tolist(), r.values.tolist())
    lines = ["k,s,r"] + ["%d,%.17g,%.17g" % row for row in rows]
    table_path.write_text("\n".join(lines) + "\n")
    verdict = check_moment_positivity(s)
    report = {"k": config.k, "classification": {"kind": verdict.kind, "order": verdict.order}}
    return [table_path, _write_report(config, report)]


def run(config: RunConfig) -> list[Path]:
    """Execute one validated run; returns the paths written."""
    config.out_dir.mkdir(parents=True, exist_ok=True)
    if config.mode == "response":
        return _run_response(config)
    if config.mode == "semi_infinite":
        traj, report = solve_toda_semi_infinite(config.initial, config.times, config.m, config.tol, config.n_max)
        return _write_run(config, traj, report.to_dict())
    traj = solve_toda_finite(config.initial, config.times)
    traces = np.sum(traj.diag, axis=1)
    report = {"n": traj.size, "trace_drift": float(np.max(np.abs(traces - traces[0])))}
    if config.mode == "verify":
        report["deviation"] = compare_trajectories(traj, rk4_toda(config.initial, config.times, config.dt))
        report["dt"] = config.dt
    return _write_run(config, traj, report)


def _parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="todaflow",
        description="Solve finite and truncated semi-infinite Toda lattices by moment evolution.",
    )
    parser.add_argument("--config", required=True, help="path to the JSON run configuration")
    parser.add_argument("--mode", choices=MODES, default=None, help="override the config's mode")
    parser.add_argument("--out", default=".", help="directory for output artifacts")
    parser.add_argument("--quiet", action="store_true", help="suppress the artifact listing")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        config = load_config(args.config, mode_override=args.mode, out_dir=args.out)
        artifacts = run(config)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (NumericalError, OverflowError, FloatingPointError) as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    if not args.quiet:
        for path in artifacts:
            print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
