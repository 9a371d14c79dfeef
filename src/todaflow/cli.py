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
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import NumericalError
from .flow import TodaTrajectory, solve_toda_finite
from .jacobi import JacobiMatrix, eigendecompose
from .moments import check_moment_positivity, moments_from_measure
from .oracle import compare_trajectories, rk4_toda
from .response import _K_MAX, response_from_moments
from .semi_infinite import SemiInfiniteInitialData, make_initial_data, solve_toda_semi_infinite

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

# option -> (type, range test, required value); the defaults live on RunConfig
_OPTIONS = {
    "dt": (float, lambda v: v > 0, "a number > 0"),
    "tol": (float, lambda v: v > 0, "a number > 0"),
    "n_max": (int, lambda v: v >= 2, "an integer >= 2"),
    "m": (int, lambda v: v >= 1, "an integer >= 1"),
    "k": (int, lambda v: 1 <= v <= _K_MAX, f"an integer in [1, {_K_MAX}]"),
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


def _is_int(value) -> bool:
    # JSON true/false arrive as bool, which Python counts as int
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    # JSON NaN and Infinity arrive as non-finite floats; an integer literal
    # too large for a double overflows
    try:
        return (_is_int(value) or isinstance(value, float)) and math.isfinite(value)
    except OverflowError:
        return False


def _number_array(value, name: str) -> np.ndarray:
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{name}: need an array of numbers") from exc
    _require(arr.ndim == 1 and bool(np.all(np.isfinite(arr))), f"{name}: need an array of finite numbers")
    return arr


def _build_matrix(initial: dict) -> JacobiMatrix:
    if "random" in initial:
        _known_fields(initial, ("random",), "initial.")
        params = initial["random"]
        _require(isinstance(params, dict), "initial.random: must be an object")
        _known_fields(params, ("n", "seed"), "initial.random.")
        n = params.get("n")
        seed = params.get("seed", 0)
        _require(_is_int(n) and n >= 1, "initial.random.n: need an integer >= 1")
        _require(_is_int(seed) and seed >= 0, "initial.random.seed: need an integer >= 0")
        rng = np.random.default_rng(seed)
        return JacobiMatrix(diag=rng.uniform(-2.0, 2.0, n), offdiag=rng.uniform(0.5, 2.0, n - 1))
    _require("b" in initial, "initial.b: required for explicit initial data")
    _known_fields(initial, ("b", "a"), "initial.")
    b = _number_array(initial["b"], "initial.b")
    a = _number_array(initial.get("a", []), "initial.a")
    _require(b.size >= 1, "initial.b: need a non-empty array")
    _require(a.shape == (b.size - 1,), f"initial.a: need exactly {b.size - 1} entries")
    _require(a.size == 0 or bool(np.all(a > 0.0)), "initial.a: off-diagonal entries must be strictly positive")
    return JacobiMatrix(diag=b, offdiag=a)


def _generator_params(params: dict, prefix: str) -> dict:
    # tables a, b are arrays; every other generator parameter is one number
    checked = {}
    for key, value in params.items():
        if key in ("a", "b"):
            checked[key] = _number_array(value, f"{prefix}.{key}")
        else:
            _require(_is_number(value), f"{prefix}.{key}: need a number")
            checked[key] = value
    return checked


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
    """Read, validate and resolve a JSON config file."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path} ({exc})") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: {path} is not valid JSON ({exc})") from exc
    _require(isinstance(raw, dict), "config: top level must be an object")
    _known_fields(raw, ("mode", "initial", "grid", "options", "output"), "")

    mode = mode_override or raw.get("mode")
    _require(mode in MODES, f"mode: must be one of {MODES}, got {mode!r}")

    grid = raw.get("grid", {})
    _require(isinstance(grid, dict), "grid: must be an object")
    _known_fields(grid, ("t_end", "steps"), "grid.")
    t_end = grid.get("t_end")
    steps = grid.get("steps")
    _require(_is_number(t_end) and t_end > 0, "grid.t_end: need a number > 0")
    _require(_is_int(steps) and steps >= 1, "grid.steps: need an integer >= 1")
    times = np.linspace(0.0, float(t_end), steps + 1)

    options = raw.get("options", {})
    _require(isinstance(options, dict), "options: must be an object")
    _known_fields(options, _OPTIONS, "options.")
    settings = {}
    for key, (kind, in_range, need) in _OPTIONS.items():
        if key in options:
            value = options[key]
            typed = _is_int(value) if kind is int else _is_number(value)
            _require(typed and in_range(value), f"options.{key}: need {need}")
            settings[key] = kind(value)

    initial = raw.get("initial")
    _require(isinstance(initial, dict), "initial: must be an object")
    build = _build_generator if mode == "semi_infinite" else _build_matrix
    try:
        config = RunConfig(mode, times, Path(out_dir), build(initial), **settings)
    except ValueError as exc:
        raise ConfigError(str(exc) if isinstance(exc, ConfigError) else f"initial: {exc}") from exc
    if mode == "semi_infinite":
        _require(config.n_max >= 2 * config.m + 2, f"options.n_max: need >= 2m+2 = {2 * config.m + 2}")

    output = raw.get("output", {})
    _require(isinstance(output, dict), "output: must be an object")
    _known_fields(output, _DEFAULT_OUTPUT, "output.")
    for key in config.output:
        if key in output:
            _require(isinstance(output[key], str) and output[key], f"output.{key}: need a non-empty path")
    config.output.update(output)
    return config


def _format(x: float) -> str:
    return f"{x:.17g}"


def write_trajectory_csv(path, traj: TodaTrajectory) -> None:
    """Write "t,b1,...,bN,a1,...,a{N-1}" rows with full 17-digit precision."""
    n = traj.size
    header = ",".join(["t"] + [f"b{i}" for i in range(1, n + 1)] + [f"a{i}" for i in range(1, n)])
    rows = np.column_stack((traj.times, traj.diag_array(), traj.offdiag_array()))
    lines = [header] + [",".join(_format(v) for v in row) for row in rows]
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


def _invariant_report(traj: TodaTrajectory) -> dict:
    """Drift of the spectrum and the trace from those of row 0, the initial matrix."""
    spectra = [eigendecompose(state).nodes for state in traj.states]
    traces = np.sum(traj.diag, axis=1)
    return {
        "eigen_drift": max(float(np.max(np.abs(nodes - spectra[0]))) for nodes in spectra),
        "trace_drift": float(np.max(np.abs(traces - traces[0]))),
    }


def _run_response(config: RunConfig) -> list[Path]:
    mu = eigendecompose(config.initial)
    s = moments_from_measure(mu, config.k)
    r = response_from_moments(s)
    table_path = config.out_dir / config.output["table"]
    lines = ["k,s,r"]
    for k in range(config.k):
        lines.append(f"{k},{_format(s.values[k])},{_format(r.values[k])}")
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
    report = {"n": traj.size, **_invariant_report(traj)}
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
