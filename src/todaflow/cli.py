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
from .flow import TodaTrajectory, evolve_moments, solve_toda_finite
from .jacobi import JacobiMatrix, eigendecompose
from .moments import check_moment_positivity, moments_from_measure
from .oracle import compare_trajectories, rk4_toda
from .response import response_from_moments
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

_K_RANGE = (1, 30)


class ConfigError(ValueError):
    """Configuration rejected; the message names the offending field."""


@dataclass
class RunConfig:
    """A validated run: everything main() needs, resolved to library objects."""

    mode: str
    times: np.ndarray
    out_dir: Path
    initial_matrix: Optional[JacobiMatrix] = None
    initial_data: Optional[SemiInfiniteInitialData] = None
    dt: float = 1e-4
    tol: float = 1e-8
    n_max: int = 64
    m: int = 1
    k: int = 8
    output: dict = field(default_factory=lambda: dict(_DEFAULT_OUTPUT))


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def _is_int(value) -> bool:
    # JSON true/false arrive as bool, which Python counts as int
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _number_array(value, name: str) -> np.ndarray:
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name}: need an array of numbers") from exc
    _require(arr.ndim == 1, f"{name}: need an array of numbers")
    return arr


def _build_matrix(initial: dict) -> JacobiMatrix:
    if "random" in initial:
        params = initial["random"]
        _require(isinstance(params, dict), "initial.random: must be an object")
        n = params.get("n")
        seed = params.get("seed", 0)
        _require(_is_int(n) and n >= 1, "initial.random.n: need an integer >= 1")
        _require(_is_int(seed) and seed >= 0, "initial.random.seed: need an integer >= 0")
        rng = np.random.default_rng(seed)
        return JacobiMatrix(diag=rng.uniform(-2.0, 2.0, n), offdiag=rng.uniform(0.5, 2.0, n - 1))
    _require("b" in initial, "initial.b: required for explicit initial data")
    b = _number_array(initial["b"], "initial.b")
    a = _number_array(initial.get("a", []), "initial.a")
    _require(b.size >= 1, "initial.b: need a non-empty array")
    _require(a.shape == (b.size - 1,), f"initial.a: need exactly {b.size - 1} entries")
    _require(bool(np.all(np.isfinite(b))) and bool(np.all(np.isfinite(a))), "initial: entries must be finite")
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
        name, field, params = initial["generator"], "initial.generator", initial.get("params", {})
        _require(isinstance(params, dict), "initial.params: must be an object")
        params = _generator_params(params, "initial.params")
    elif "b" in initial:
        name, field = "table", "initial"
        params = {"a": initial.get("a", []), "b": initial["b"]}
        if "upper_bound" in initial:
            params["upper_bound"] = initial["upper_bound"]
        params = _generator_params(params, "initial")
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

    mode = mode_override or raw.get("mode")
    _require(mode in MODES, f"mode: must be one of {MODES}, got {mode!r}")

    grid = raw.get("grid", {})
    _require(isinstance(grid, dict), "grid: must be an object")
    t_end = grid.get("t_end")
    steps = grid.get("steps")
    _require(_is_number(t_end) and t_end > 0, "grid.t_end: need a number > 0")
    _require(_is_int(steps) and steps >= 1, "grid.steps: need an integer >= 1")
    times = np.linspace(0.0, float(t_end), steps + 1)

    options = raw.get("options", {})
    _require(isinstance(options, dict), "options: must be an object")
    config = RunConfig(mode=mode, times=times, out_dir=Path(out_dir))

    if "dt" in options:
        _require(_is_number(options["dt"]) and options["dt"] > 0, "options.dt: need a number > 0")
        config.dt = float(options["dt"])
    if "tol" in options:
        _require(_is_number(options["tol"]) and options["tol"] > 0, "options.tol: need a number > 0")
        config.tol = float(options["tol"])
    if "n_max" in options:
        _require(_is_int(options["n_max"]) and options["n_max"] >= 2, "options.n_max: need an integer >= 2")
        config.n_max = options["n_max"]
    if "m" in options:
        _require(_is_int(options["m"]) and options["m"] >= 1, "options.m: need an integer >= 1")
        config.m = options["m"]
    if "k" in options:
        _require(
            _is_int(options["k"]) and _K_RANGE[0] <= options["k"] <= _K_RANGE[1],
            f"options.k: need an integer in [{_K_RANGE[0]}, {_K_RANGE[1]}]",
        )
        config.k = options["k"]

    initial = raw.get("initial")
    _require(isinstance(initial, dict), "initial: must be an object")
    if mode == "semi_infinite":
        config.initial_data = _build_generator(initial)
        _require(config.n_max >= 2 * config.m + 2, f"options.n_max: need >= 2m+2 = {2 * config.m + 2}")
    else:
        try:
            config.initial_matrix = _build_matrix(initial)
        except ValueError as exc:
            raise ConfigError(str(exc) if isinstance(exc, ConfigError) else f"initial: {exc}") from exc

    output = raw.get("output", {})
    _require(isinstance(output, dict), "output: must be an object")
    config.output = dict(_DEFAULT_OUTPUT)
    for key in config.output:
        if key in output:
            _require(isinstance(output[key], str) and output[key], f"output.{key}: need a non-empty path")
            config.output[key] = output[key]
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


def _write_report(path, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _spectrum_drift(traj: TodaTrajectory, lam0: np.ndarray) -> float:
    return max(float(np.max(np.abs(eigendecompose(state).nodes - lam0))) for state in traj.states)


def _invariant_report(traj: TodaTrajectory, j0: JacobiMatrix) -> dict:
    mu0 = eigendecompose(j0)
    trace0 = float(np.sum(j0.diag))
    trace_drift = float(np.max(np.abs(np.sum(traj.diag_array(), axis=1) - trace0)))
    s0_drift = max(abs(evolve_moments(mu0, t, 1).values[0] - 1.0) for t in traj.times)
    return {
        "eigen_drift": _spectrum_drift(traj, mu0.nodes),
        "trace_drift": trace_drift,
        "s0_drift": s0_drift,
    }


def _run_finite(config: RunConfig) -> list[Path]:
    traj = solve_toda_finite(config.initial_matrix, config.times)
    csv_path = config.out_dir / config.output["trajectory"]
    write_trajectory_csv(csv_path, traj)
    report = {"mode": config.mode, "n": traj.size, **_invariant_report(traj, config.initial_matrix)}
    if config.mode == "verify":
        reference = rk4_toda(config.initial_matrix, config.times, config.dt)
        report["deviation"] = compare_trajectories(traj, reference)
        report["dt"] = config.dt
    report_path = config.out_dir / config.output["report"]
    _write_report(report_path, report)
    return [csv_path, report_path]


def _run_semi_infinite(config: RunConfig) -> list[Path]:
    traj, report = solve_toda_semi_infinite(
        config.initial_data, config.times, config.m, config.tol, config.n_max
    )
    csv_path = config.out_dir / config.output["trajectory"]
    write_trajectory_csv(csv_path, traj)
    report_path = config.out_dir / config.output["report"]
    _write_report(report_path, {"mode": config.mode, **report.to_dict()})
    return [csv_path, report_path]


def _run_response(config: RunConfig) -> list[Path]:
    mu = eigendecompose(config.initial_matrix)
    s = moments_from_measure(mu, config.k)
    r = response_from_moments(s)
    table_path = config.out_dir / config.output["table"]
    lines = ["k,s,r"]
    for k in range(config.k):
        lines.append(f"{k},{_format(s.values[k])},{_format(r.values[k])}")
    table_path.write_text("\n".join(lines) + "\n")
    verdict = check_moment_positivity(s)
    report_path = config.out_dir / config.output["report"]
    _write_report(
        report_path,
        {
            "mode": config.mode,
            "k": config.k,
            "classification": {"kind": verdict.kind, "order": verdict.order},
        },
    )
    return [table_path, report_path]


def run(config: RunConfig) -> list[Path]:
    """Execute one validated run; returns the paths written."""
    config.out_dir.mkdir(parents=True, exist_ok=True)
    if config.mode in ("finite", "verify"):
        return _run_finite(config)
    if config.mode == "semi_infinite":
        return _run_semi_infinite(config)
    return _run_response(config)


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
