import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import todaflow.cli
from todaflow import JacobiMatrix, NumericalError, TodaTrajectory, eigendecompose, response_from_measure
from todaflow.cli import main


def write_config(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def finite_config(tmp_path, **extra):
    payload = {
        "mode": "finite",
        "initial": {"b": [0.0, 0.0], "a": [1.0]},
        "grid": {"t_end": 1.0, "steps": 10},
    }
    payload.update(extra)
    if payload["mode"] == "response":
        # the one mode that reads no grid
        del payload["grid"]
    return write_config(tmp_path / "config.json", payload)


def read_trajectory(path):
    # numpy's CSV reader, independent of the library; a row is t, b1..bN,
    # a1..a{N-1}, so 2N columns
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    n = data.shape[1] // 2
    return data[:, 0], data[:, 1 : 1 + n], data[:, 1 + n :]


def test_finite_mode_writes_closed_form_trajectory(tmp_path):
    cfg = finite_config(tmp_path)
    assert main(["--config", cfg, "--out", str(tmp_path), "--quiet"]) == 0
    times, diag, offdiag = read_trajectory(tmp_path / "trajectory.csv")
    np.testing.assert_allclose(times, np.linspace(0, 1, 11), atol=1e-15)
    for t, b1, a1 in zip(times, diag[:, 0], offdiag[:, 0]):
        assert abs(b1 - math.tanh(2.0 * t)) < 1e-8
        assert abs(a1 - 1.0 / math.cosh(2.0 * t)) < 1e-8
    header = (tmp_path / "trajectory.csv").read_text().split("\n")[0]
    assert header == "t,b1,b2,a1"
    report = json.loads((tmp_path / "report.json").read_text())
    assert "eigen_drift" not in report
    assert "trace_drift" not in report
    assert "s0_drift" not in report


def test_verify_mode_reports_oracle_deviation(tmp_path):
    cfg = write_config(tmp_path / "c.json", {
        "mode": "verify",
        "initial": {"random": {"n": 5, "seed": 12}},
        "grid": {"t_end": 1.0, "steps": 10},
        "options": {"dt": 1e-4},
    })
    assert main(["--config", cfg, "--out", str(tmp_path), "--quiet"]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["deviation"] < 1e-6


def test_run_lists_the_written_paths(tmp_path, capsys):
    # without --quiet, main prints the trajectory path, then the report path
    cfg = write_config(tmp_path / "c.json", {
        "mode": "verify",
        "initial": {"random": {"n": 5, "seed": 12}},
        "grid": {"t_end": 1.0, "steps": 10},
        "options": {"dt": 1e-3},
    })
    assert main(["--config", cfg, "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out == f"{tmp_path / 'trajectory.csv'}\n{tmp_path / 'report.json'}\n"


def test_csv_round_trips_exactly(tmp_path):
    cfg = write_config(tmp_path / "c.json", {
        "mode": "finite",
        "initial": {"random": {"n": 4, "seed": 3}},
        "grid": {"t_end": 0.7, "steps": 6},
    })
    assert main(["--config", cfg, "--out", str(tmp_path), "--quiet"]) == 0
    times, diag, offdiag = read_trajectory(tmp_path / "trajectory.csv")

    from todaflow import JacobiMatrix, solve_toda_finite

    rng = np.random.default_rng(3)
    j = JacobiMatrix(diag=rng.uniform(-2, 2, 4), offdiag=rng.uniform(0.5, 2, 3))
    traj = solve_toda_finite(j, np.linspace(0.0, 0.7, 7))
    np.testing.assert_array_equal(diag, traj.diag_array())
    np.testing.assert_array_equal(offdiag, traj.offdiag_array())
    np.testing.assert_array_equal(times, traj.times)


def test_trajectory_csv_bytes(tmp_path):
    # %.17g: an integral value prints as an integer, -0 keeps its sign, and
    # the extremes of the double range print in full
    traj = TodaTrajectory([0.0, 0.1], [[-0.0, 5e-324], [1.7976931348623157e308, 0.1]], [[1.0], [2.5e-300]])
    todaflow.cli.write_trajectory_csv(tmp_path / "t.csv", traj)
    assert (tmp_path / "t.csv").read_text() == (
        "t,b1,b2,a1\n"
        "0,-0,4.9406564584124654e-324,1\n"
        "0.10000000000000001,1.7976931348623157e+308,0.10000000000000001,2.5e-300\n"
    )


def test_identical_configs_are_byte_identical(tmp_path):
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    cfg = write_config(tmp_path / "c.json", {
        "mode": "finite",
        "initial": {"random": {"n": 5, "seed": 7}},
        "grid": {"t_end": 1.0, "steps": 8},
    })
    assert main(["--config", cfg, "--out", str(out1), "--quiet"]) == 0
    assert main(["--config", cfg, "--out", str(out2), "--quiet"]) == 0
    assert (out1 / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()


def test_malformed_offdiag_exits_1(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json", {
        "mode": "finite",
        "initial": {"b": [0.0, 0.0], "a": [-1.0]},
        "grid": {"t_end": 1.0, "steps": 10},
    })
    assert main(["--config", cfg, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "initial.a" in err and "positive" in err
    # the shape rule of JacobiMatrix, under the config's own field name
    cfg = write_config(tmp_path / "c.json", {
        "mode": "finite",
        "initial": {"b": [0.0, 0.0], "a": [1.0, 2.0]},
        "grid": {"t_end": 1.0, "steps": 10},
    })
    assert main(["--config", cfg, "--out", str(tmp_path)]) == 1
    assert "error: initial.a must have shape (1,)" in capsys.readouterr().err


def test_validation_failures_exit_1(tmp_path, capsys):
    bad_grid = write_config(tmp_path / "g.json", {
        "mode": "finite",
        "initial": {"b": [0.0], "a": []},
        "grid": {"t_end": -1.0, "steps": 10},
    })
    assert main(["--config", bad_grid, "--out", str(tmp_path)]) == 1
    bad_mode = write_config(tmp_path / "m.json", {
        "mode": "nonsense",
        "initial": {"b": [0.0], "a": []},
        "grid": {"t_end": 1.0, "steps": 10},
    })
    assert main(["--config", bad_mode, "--out", str(tmp_path)]) == 1
    assert main(["--config", str(tmp_path / "missing.json"), "--out", str(tmp_path)]) == 1
    not_json = tmp_path / "nj.json"
    not_json.write_text("{broken")
    assert main(["--config", str(not_json), "--out", str(tmp_path)]) == 1
    # an integer literal past Python's 4300-digit int() limit fails as a config error
    too_long = tmp_path / "tl.json"
    too_long.write_text('{"mode": "finite", "initial": {"b": [0.0]}, "grid": {"t_end": 1.0, "steps": %s}}' % ("1" * 5000))
    capsys.readouterr()
    assert main(["--config", str(too_long), "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: config: cannot parse {too_long} as JSON")
    # mistyped fields are rejected with a message naming the field, not a TypeError
    mistyped = [
        ("finite", {"random": {"n": 3, "seed": "x"}}, "initial.random.seed"),
        ("finite", {"random": {"n": 3, "seed": 1.5}}, "initial.random.seed"),
        ("finite", {"random": {"n": True}}, "initial.random.n"),
        ("finite", {"b": {"x": 1}}, "initial.b"),
        ("semi_infinite", {"generator": "table", "params": {"b": {"x": 1}, "a": []}}, "initial.params.b"),
        ("semi_infinite", {"generator": "table", "params": {"b": 5, "a": []}}, "initial.params.b"),
        ("semi_infinite", {"generator": "linear_b", "params": [1]}, "initial.params"),
        ("semi_infinite", {"generator": "linear_b", "params": {"alpha": [1]}}, "initial.params.alpha"),
        ("semi_infinite", {"generator": "table", "params": {"b": [1.0, 2.0]}}, "initial.params.a"),
        ("semi_infinite", {"generator": ["linear_b"]}, "initial.generator"),
        # every semi_infinite config names its generator; constant data is linear_b's default beta = 0
        ("semi_infinite", {"params": {"alpha": 1.0}}, "initial.generator"),
        ("semi_infinite", {"generator": "constant"}, "initial.generator"),
    ]
    capsys.readouterr()
    for mode, initial, name in mistyped:
        cfg = write_config(tmp_path / "t.json", {
            "mode": mode,
            "initial": initial,
            "grid": {"t_end": 1.0, "steps": 2},
        })
        assert main(["--config", cfg, "--out", str(tmp_path)]) == 1, name
        assert f"error: {name}:" in capsys.readouterr().err
    # random data make one finite matrix, not data for every n
    cfg = write_config(tmp_path / "t.json", {
        "mode": "semi_infinite",
        "initial": {"random": {"n": 3, "seed": 1}},
        "grid": {"t_end": 1.0, "steps": 2},
    })
    assert main(["--config", cfg, "--out", str(tmp_path)]) == 1
    assert "error: initial.random: unknown field" in capsys.readouterr().err
    # JSON NaN and Infinity are rejected by the field that carries them
    escaping = {"generator": "linear_b", "params": {"beta": 1.0}}
    non_finite = [
        ("semi_infinite", escaping, {"t_end": 1.0, "steps": 2}, {"tol": math.inf}, "options.tol"),
        ("semi_infinite", {"generator": "linear_b", "params": {"beta": -1.0, "upper_bound": math.nan}},
         {"t_end": 1.0, "steps": 2}, {}, "initial.params.upper_bound"),
        ("semi_infinite", {"generator": "table", "params": {"b": [0.0, math.nan], "a": [1.0]}},
         {"t_end": 1.0, "steps": 2}, {}, "initial.params.b"),
        ("finite", {"b": [0.0, 0.0], "a": [1.0]}, {"t_end": math.inf, "steps": 2}, {}, "grid.t_end"),
        ("finite", {"b": [0.0, math.nan], "a": [1.0]}, {"t_end": 1.0, "steps": 2}, {}, "initial.b"),
        ("finite", {"b": [0.0, 0.0], "a": [-math.inf]}, {"t_end": 1.0, "steps": 2}, {}, "initial.a"),
        ("verify", {"b": [0.0, 0.0], "a": [1.0]}, {"t_end": 1.0, "steps": 2}, {"dt": math.nan}, "options.dt"),
    ]
    for mode, initial, grid, options, name in non_finite:
        cfg = write_config(tmp_path / "t.json", {
            "mode": mode,
            "initial": initial,
            "grid": grid,
            "options": options,
        })
        assert main(["--config", cfg, "--out", str(tmp_path)]) == 1, name
        assert f"error: {name}:" in capsys.readouterr().err
    # an integer literal too large for a double is a config error, not an overflow
    huge = 10**400
    explicit = {"b": [0.0, 0.0], "a": [1.0]}
    grid = {"t_end": 1.0, "steps": 2}
    oversized = [
        ("finite", explicit, {"t_end": huge, "steps": 2}, {}, "grid.t_end"),
        ("verify", explicit, grid, {"dt": huge}, "options.dt"),
        ("finite", {"b": [0.0, huge], "a": [1.0]}, grid, {}, "initial.b"),
        ("semi_infinite", {"generator": "linear_b", "params": {"alpha": huge}}, grid, {}, "initial.params.alpha"),
        ("semi_infinite", {"generator": "table", "params": {"b": [0.0, huge], "a": [1.0]}}, grid, {},
         "initial.params.b"),
        ("finite", explicit, {"t_end": 1.0, "steps": huge}, {}, "grid.steps"),
        ("finite", {"random": {"n": huge}}, grid, {}, "initial.random.n"),
        # a truncation's eigenvectors take n_max**2 doubles
        ("semi_infinite", escaping, grid, {"n_max": 16385}, "options.n_max"),
        ("finite", {"b": [0.0] * 40000, "a": [1.0] * 39999}, grid, {}, "initial.b"),
        # the solvers hold (steps + 1, N) arrays: 1000001 x 4096 doubles take 30.5 GiB
        ("finite", {"random": {"n": 4096, "seed": 0}}, {"t_end": 1.0, "steps": 1000000}, {}, "grid.steps"),
        ("semi_infinite", escaping, {"t_end": 1.0, "steps": 1000000}, {"n_max": 64}, "grid.steps"),
    ]
    # every option is checked against its own range
    out_of_range = [
        ("semi_infinite", escaping, grid, {"m": 0}, "options.m"),
        ("semi_infinite", escaping, grid, {"n_max": 1}, "options.n_max"),
        ("response", explicit, None, {"k": 31}, "options.k"),
        ("semi_infinite", escaping, grid, {"tol": 0}, "options.tol"),
        ("verify", explicit, grid, {"dt": True}, "options.dt"),
        # initial data whose a_n are not all > 0 are rejected as they are read
        ("semi_infinite", {"generator": "linear_b", "params": {"alpha": -1.0}}, grid, {}, "initial.params.alpha"),
        ("semi_infinite", {"generator": "linear_b", "params": {"alpha": 0.0}}, grid, {}, "initial.params.alpha"),
        ("semi_infinite", {"generator": "decay", "params": {"alpha": -1.0}}, grid, {}, "initial.params.alpha"),
        ("semi_infinite", {"generator": "decay", "params": {"alpha": 5e-324}}, grid, {}, "initial.params.alpha"),
        # and whose b_n are not all finite
        ("semi_infinite", {"generator": "linear_b", "params": {"beta": 1e308}}, grid, {}, "initial.params.beta"),
        ("semi_infinite", {"generator": "table", "params": {"b": [0.0] * 4, "a": [1.0, -1.0, 1.0]}},
         grid, {"n_max": 4}, "initial.params.a"),
        ("semi_infinite", {"generator": "table", "params": {"b": [0.0] * 4, "a": [1.0, 1.0, 1.0, 0.0]}},
         grid, {"n_max": 4}, "initial.params.a"),
    ]
    # array entries must be JSON numbers: strings and true/false are not read as numbers
    table = {"n_max": 4}
    not_numbers = [
        ("finite", {"b": ["0", "0.5"], "a": ["1"]}, grid, {}, "initial.b"),
        ("semi_infinite", {"generator": "table", "params": {"b": ["0", "0.5", "0", "0.5"], "a": [1.0, 1.0, 1.0]}},
         grid, table, "initial.params.b"),
        ("finite", {"b": [True, 0.5], "a": [1.0]}, grid, {}, "initial.b"),
        ("semi_infinite", {"generator": "table", "params": {"b": [True, 0.5, 0.0, 0.5], "a": [1.0, 1.0, 1.0]}},
         grid, table, "initial.params.b"),
    ]
    # a spacing below the smallest double would give equal grid times
    too_fine = [
        ("finite", explicit, {"t_end": 1e-320, "steps": 1000000}, {}, "grid"),
        ("verify", explicit, {"t_end": 1e-320, "steps": 1000000}, {}, "grid"),
    ]
    out = tmp_path / "out"
    for mode, initial, grid_, options, name in oversized + out_of_range + not_numbers + too_fine:
        payload = {"mode": mode, "initial": initial, "options": options}
        if grid_ is not None:
            payload["grid"] = grid_
        cfg = write_config(tmp_path / "t.json", payload)
        assert main(["--config", cfg, "--out", str(out)]) == 1, name
        assert f"error: {name}:" in capsys.readouterr().err
        assert not out.exists(), name
    # a field the config does not define is named, not ignored
    unknown = [
        ({"options": {"n_mx": 16}}, "options.n_mx"),
        ({"outptu": {"report": "r.json"}}, "outptu"),
        ({"grid": {"t_end": 1.0, "steps": 2, "step": 3}}, "grid.step"),
        ({"output": {"trajectroy": "t.csv"}}, "output.trajectroy"),
        ({"initial": {"random": {"n": 3, "sead": 1}}}, "initial.random.sead"),
        ({"initial": {"random": {"n": 3}, "a": [1.0, 1.0]}}, "initial.a"),
        ({"initial": {"b": [0.0], "upper_bound": 1.0}}, "initial.upper_bound"),
        ({"mode": "semi_infinite", "initial": {"generator": "linear_b", "b": [0.0]}}, "initial.b"),
        # explicit {b, a} arrays are a finite matrix: a semi_infinite table is the table generator's params
        ({"mode": "semi_infinite", "initial": {"b": [0.0, 0.0], "a": [1.0], "params": {}}}, "initial.b"),
        # each mode takes only the fields it reads
        ({"options": {"dt": 1e-4}}, "options.dt"),
        ({"output": {"table": "x.csv"}}, "output.table"),
        ({"mode": "semi_infinite", "initial": {"generator": "linear_b"}, "options": {"k": 8}}, "options.k"),
        ({"mode": "response"}, "grid"),
    ]
    for extra, name in unknown:
        payload = {"mode": "finite", "initial": explicit, "grid": grid}
        payload.update(extra)
        cfg = write_config(tmp_path / "t.json", payload)
        assert main(["--config", cfg, "--out", str(tmp_path)]) == 1, name
        assert f"error: {name}: unknown field" in capsys.readouterr().err


def test_n_max_below_2m_plus_2_is_rejected_before_the_run(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "c.json", {
        "mode": "semi_infinite",
        "initial": {"generator": "linear_b", "params": {"alpha": 1.0}},
        "grid": {"t_end": 1.0, "steps": 2},
        "options": {"m": 2, "n_max": 4},
    })
    assert main(["--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: options.n_max: need an integer >= 9, got 4\n"
    assert not out.exists()
    # a table must hold the second truncation, of size 16 at the default n_max 64
    cfg = write_config(tmp_path / "c.json", {
        "mode": "semi_infinite",
        "initial": {"generator": "table", "params": {"b": [0.0, 0.0, 0.0, 0.0], "a": [1.0, 1.0, 1.0]}},
        "grid": {"t_end": 1.0, "steps": 2},
    })
    assert main(["--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: options.n_max: table initial data exhausted at n=16: the table holds 4 entries; "
        "provide more entries or lower n_max\n"
    )
    assert not out.exists()
    # a table shorter than n_max runs when the sizes converge before passing its end
    cfg = write_config(tmp_path / "c.json", {
        "mode": "semi_infinite",
        "initial": {"generator": "table", "params": {"b": [0.0] * 16, "a": [0.5] * 16}},
        "grid": {"t_end": 1.0, "steps": 2},
    })
    assert main(["--config", cfg, "--out", str(out), "--quiet"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["truncation_sizes"] == [8, 16] and report["stop_reason"] == "tol"


def test_upper_bound_is_not_a_semi_infinite_field(tmp_path, capsys):
    out = tmp_path / "out"
    for initial in (
        {"generator": "table", "params": {"b": [0.0, 0.0, 0.0, 0.0], "a": [1.0, 1.0, 1.0], "upper_bound": 1.0}},
        {"generator": "linear_b", "params": {"beta": -1.0, "upper_bound": 1.0}},
    ):
        cfg = write_config(tmp_path / "c.json", {
            "mode": "semi_infinite",
            "initial": initial,
            "grid": {"t_end": 1.0, "steps": 2},
            "options": {"n_max": 4},
        })
        assert main(["--config", cfg, "--out", str(out)]) == 1
        assert "upper_bound" in capsys.readouterr().err
        assert not out.exists()


def test_verify_dt_is_checked_before_the_run(tmp_path, capsys):
    # the default dt 1e-4 does not divide the spacing 1/3
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "c.json", {
        "mode": "verify",
        "initial": {"b": [0.0, 0.0], "a": [1.0]},
        "grid": {"t_end": 1.0, "steps": 3},
    })
    assert main(["--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: options.dt: 0.0001 does not divide the grid spacing 0.3333333333333333 within 1e-12\n"
    )
    assert not out.exists()


def test_outputs_that_share_a_path_are_rejected(tmp_path, capsys):
    out = tmp_path / "out"
    cases = [
        ("finite", {"trajectory": "x", "report": "x"}, "output.report: same path as output.trajectory"),
        ("verify", {"trajectory": "./report.json"}, "output.report: same path as output.trajectory"),
        # two spellings of one file under --out
        ("finite", {"trajectory": "../out/t.csv", "report": "t.csv"}, "output.report: same path as output.trajectory"),
        ("response", {"table": "x", "report": "x"}, "output.report: same path as output.table"),
    ]
    for mode, output, message in cases:
        cfg = finite_config(tmp_path, mode=mode, output=output)
        assert main(["--config", cfg, "--out", str(out)]) == 1, output
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()
    # response mode writes no trajectory, so it takes no trajectory path
    cfg = finite_config(tmp_path, mode="response", output={"trajectory": "report.json"})
    assert main(["--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: output.trajectory: unknown field")
    assert not out.exists()


def test_output_write_failures_exit_1(tmp_path, capsys):
    cfg = finite_config(tmp_path)
    a_file = tmp_path / "a_file"
    a_file.write_text("")
    assert main(["--config", cfg, "--out", str(a_file)]) == 1
    assert capsys.readouterr().err == f"error: output: cannot write {a_file} (File exists)\n"

    cfg = finite_config(tmp_path, output={"trajectory": "sub/x.csv"})
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: output: cannot write {out / 'sub' / 'x.csv'} (No such file or directory)\n"

    cfg = finite_config(tmp_path)
    (out / "report.json").mkdir()
    assert main(["--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: output: cannot write {out / 'report.json'} (Is a directory)\n"


def test_verify_oracle_step_count_is_bounded(tmp_path, capsys):
    # dt 1e-9 divides the one spacing of 1000, in 1e12 RK4 steps
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "c.json", {
        "mode": "verify",
        "initial": {"b": [0.0, 0.0], "a": [1.0]},
        "grid": {"t_end": 1000, "steps": 1},
        "options": {"dt": 1e-9},
    })
    assert main(["--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: options.dt: 1e-09 makes 1000000000000 RK4 steps")
    assert not out.exists()


def test_a_failed_output_leaves_no_partial_run(tmp_path, capsys):
    cases = [
        ("finite", {}, "trajectory.csv"),
        ("verify", {"report": "sub/report.json"}, "trajectory.csv"),
        ("response", {}, "response.csv"),
    ]
    for mode, output, first in cases:
        out = tmp_path / mode
        out.mkdir()
        if not output:
            (out / "report.json").mkdir()
        cfg = finite_config(tmp_path, mode=mode, output=output)
        assert main(["--config", cfg, "--out", str(out)]) == 1, mode
        assert capsys.readouterr().err.startswith("error: output: cannot write")
        assert not (out / first).exists(), mode


@pytest.mark.parametrize(
    "mode, last_step",
    [
        ("finite", "solve_toda_finite"),
        ("verify", "compare_trajectories"),
        ("semi_infinite", "solve_toda_semi_infinite"),
        ("response", "check_moment_positivity"),
    ],
)
def test_a_failed_computation_leaves_no_partial_run(tmp_path, monkeypatch, capsys, mode, last_step):
    def fail(*args, **kwargs):
        raise NumericalError("injected")

    monkeypatch.setattr(todaflow.cli, last_step, fail)
    initial = {"generator": "linear_b"} if mode == "semi_infinite" else {"b": [0.0, 0.0], "a": [1.0]}
    payload = {"mode": mode, "initial": initial, "options": {"dt": 0.5} if mode == "verify" else {}}
    if mode != "response":
        payload["grid"] = {"t_end": 1.0, "steps": 2}
    cfg = write_config(tmp_path / "c.json", payload)
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == "numerical failure: NumericalError: injected\n"
    assert list(out.iterdir()) == []


def test_verify_on_random_n64_matches_rk4(tmp_path):
    # every random N = 64 lattice came back wrong while the weights were
    # accurate only in absolute terms
    cfg = write_config(tmp_path / "c.json", {
        "mode": "verify",
        "initial": {"random": {"n": 64, "seed": 3}},
        "grid": {"t_end": 1.0, "steps": 10},
        "options": {"dt": 1e-3},
    })
    assert main(["--config", cfg, "--out", str(tmp_path), "--quiet"]) == 0
    assert json.loads((tmp_path / "report.json").read_text())["deviation"] <= 1e-6


def test_numerical_failure_exits_2(tmp_path, monkeypatch, capsys):
    cfg = write_config(tmp_path / "c.json", {
        "mode": "verify",
        "initial": {"b": [0.0, 0.0], "a": [100.0]},
        "grid": {"t_end": 10.0, "steps": 10},
        "options": {"dt": 0.5},
    })
    assert main(["--config", cfg, "--out", str(tmp_path)]) == 2
    assert "numerical failure" in capsys.readouterr().err
    # an overflow inside the solver is numerical, not bad input
    cfg = write_config(tmp_path / "c.json", {
        "mode": "finite",
        "initial": {"b": [0.0, 0.0], "a": [1.0]},
        "grid": {"t_end": 1e308, "steps": 1},
    })
    assert main(["--config", cfg, "--out", str(tmp_path)]) == 2
    assert "numerical failure: OverflowError" in capsys.readouterr().err
    # a failed MRRR iteration in the eigendecomposition
    monkeypatch.setattr(todaflow.jacobi.lapack, "dstemr", lambda *args: (None, None, None, 22))
    out = tmp_path / "out"
    assert main(["--config", finite_config(tmp_path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "numerical failure: EigenConvergenceError: tridiagonal MRRR iteration failed (LAPACK dstemr info=22)\n"
    )
    assert list(out.iterdir()) == []


def test_overlap_failure_exits_2_and_writes_nothing(tmp_path, capsys):
    # random N = 1536 is past what double precision determines: the two
    # ends of the reconstruction disagree, and the run stops before it writes
    cfg = write_config(tmp_path / "c.json", {
        "mode": "finite",
        "initial": {"random": {"n": 1536, "seed": 0}},
        "grid": {"t_end": 1.0, "steps": 1},
    })
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("numerical failure: OverlapError: the two ends")
    assert list(out.iterdir()) == []


def test_unconverged_semi_infinite_run_exits_2_and_writes_nothing(tmp_path, capsys):
    # a_n = n, b = 0 blows up at t = pi/4: at n_max 32 the run would write
    # b_1(0.8) = 37.03 and b_1(0.7) = 5.7957 (exact tan 1.4 = 5.7979)
    cfg = write_config(tmp_path / "c.json", {
        "mode": "semi_infinite",
        "initial": {"generator": "table", "params": {"b": [0.0] * 32, "a": list(range(1, 33))}},
        "grid": {"t_end": 0.8, "steps": 8},
        "options": {"n_max": 32},
    })
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "numerical failure: NumericalError: semi_infinite: not converged (stop_reason 'n_max'): "
        "last deviation 2.138e+01, tol 1e-08, n_max 32\n"
    )
    assert list(out.iterdir()) == []
    # one size could record no deviation, so such a run is refused at load
    cfg = write_config(tmp_path / "c.json", {
        "mode": "semi_infinite",
        "initial": {"generator": "linear_b"},
        "grid": {"t_end": 1.0, "steps": 2},
        "options": {"n_max": 4},
    })
    out = tmp_path / "one_size"
    assert main(["--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: options.n_max: need an integer >= 9, got 4\n"
    assert not out.exists()


def test_semi_infinite_run_that_breaks_down_exits_2_and_writes_nothing(tmp_path, capsys):
    # a_n = 1e40: the report's moments leave the double range at the end of the run
    cfg = write_config(tmp_path / "c.json", {
        "mode": "semi_infinite",
        "initial": {"generator": "linear_b", "params": {"alpha": 1e40}},
        "grid": {"t_end": 1e-41, "steps": 1},
        "options": {"m": 8},
    })
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "numerical failure: OverflowError: |node|^k * weight for some k < 16 left the double-precision range\n"
    )
    assert list(out.iterdir()) == []


def test_table_that_runs_out_during_the_run_names_n_max(tmp_path, capsys):
    # a 20-entry table holds the second size, 16, so it passes the load
    # probe, and runs out when this run needs size 32
    rng = np.random.default_rng(4)
    cfg = write_config(tmp_path / "c.json", {
        "mode": "semi_infinite",
        "initial": {"generator": "table", "params": {
            "a": rng.uniform(0.5, 2.0, 19).tolist(), "b": rng.uniform(-2.0, 2.0, 20).tolist()}},
        "grid": {"t_end": 1.0, "steps": 2},
        "options": {"m": 1, "tol": 1e-14, "n_max": 64},
    })
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: options.n_max: table initial data exhausted at n=21: the table holds 20 entries; "
        "provide more entries or lower n_max\n"
    )
    assert list(out.iterdir()) == []


def test_n_max_at_the_first_size_is_refused_at_load(tmp_path, capsys):
    # n_max 8 is the first size at m = 1, so the ladder would hold one size
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "c.json", {
        "mode": "semi_infinite",
        "initial": {"generator": "linear_b", "params": {"alpha": 0.5}},
        "grid": {"t_end": 1.0, "steps": 2},
        "options": {"n_max": 8},
    })
    assert main(["--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: options.n_max: need an integer >= 9, got 8\n"
    assert not out.exists()


def test_table_shorter_than_the_second_size_is_refused_at_load(tmp_path, capsys):
    # every run reaches size 16 at the default n_max 64, so a 12-entry table
    # is refused before the first truncation runs or the output exists
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "c.json", {
        "mode": "semi_infinite",
        "initial": {"generator": "table", "params": {"b": [0.0] * 12, "a": [0.5] * 12}},
        "grid": {"t_end": 1.0, "steps": 2},
    })
    assert main(["--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: options.n_max: table initial data exhausted at n=16: the table holds 12 entries; "
        "provide more entries or lower n_max\n"
    )
    assert not out.exists()


def test_semi_infinite_mode(tmp_path):
    cfg = write_config(tmp_path / "c.json", {
        "mode": "semi_infinite",
        "initial": {"generator": "linear_b", "params": {"beta": -1.0, "alpha": 1.0}},
        "grid": {"t_end": 1.0, "steps": 5},
        "options": {"tol": 1e-8, "n_max": 64, "m": 2},
    })
    assert main(["--config", cfg, "--out", str(tmp_path), "--quiet"]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["converged"] is True
    assert report["deviations"][-1] < 1e-8
    assert "achieved" not in report
    times, diag, offdiag = read_trajectory(tmp_path / "trajectory.csv")
    assert diag.shape == (6, 2)
    assert offdiag.shape == (6, 1)


def test_response_mode(tmp_path):
    cfg = write_config(tmp_path / "c.json", {
        "mode": "response",
        "initial": {"b": [0.0, 0.0], "a": [1.0]},
        "options": {"k": 6},
    })
    assert main(["--config", cfg, "--out", str(tmp_path), "--quiet"]) == 0
    lines = (tmp_path / "response.csv").read_text().strip().split("\n")
    assert lines[0] == "k,s,r"
    rows = [line.split(",") for line in lines[1:]]
    s = np.array([float(r[1]) for r in rows])
    r_vec = np.array([float(r[2]) for r in rows])
    # measure (+-1, 1/2 each): even moments 1, odd 0
    np.testing.assert_allclose(s, [1, 0, 1, 0, 1, 0], atol=1e-14)
    # r_0 = s_0 exactly, r_2 = s_2 - s_0 = 0
    assert r_vec[0] == s[0]
    assert abs(r_vec[2]) < 1e-14
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["classification"]["kind"] == "finite_support"
    assert report["classification"]["order"] == 2
    # r is summed over the measure: the integer matrix times moments near
    # 2^k loses about 8 digits at k = 30 (r_26 reads 4.0e-9 there, not 1e-14)
    free = JacobiMatrix([0.0] * 8, [1.0] * 7)
    cfg = write_config(tmp_path / "c.json", {
        "mode": "response",
        "initial": {"b": free.diag.tolist(), "a": free.offdiag.tolist()},
        "options": {"k": 30},
    })
    assert main(["--config", cfg, "--out", str(tmp_path), "--quiet"]) == 0
    lines = (tmp_path / "response.csv").read_text().strip().split("\n")
    r_vec = np.array([float(line.split(",")[2]) for line in lines[1:]])
    np.testing.assert_array_equal(r_vec, response_from_measure(eigendecompose(free), 30))


def test_console_invocation(tmp_path):
    cfg = finite_config(tmp_path)
    # the child does not inherit pytest's pythonpath, so it is handed src explicitly
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "todaflow.cli", "--config", cfg, "--out", str(tmp_path)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert "trajectory.csv" in proc.stdout


def test_readme_command_line_matches_the_cli(capsys):
    # README's Command line section states the flags the parser defines,
    # the modes, and each mode's fields with the defaults cli fills in
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## Command line\n")[1].split("\n## ")[0]
    usage = next(line for line in section.splitlines() if line.startswith("todaflow --config "))
    with pytest.raises(SystemExit):
        todaflow.cli._parse_args(["--help"])
    defined = re.findall(r"--[\w-]+", capsys.readouterr().out.split("\n\n")[0])
    assert re.findall(r"--[\w-]+", usage) == defined
    modes = re.findall(r"^- `(\w+)` reads (.*?)(?=^- |^$)", section, re.M | re.S)
    assert tuple(mode for mode, _ in modes) == todaflow.cli.MODES
    for mode, text in modes:
        reads_grid, options, files = todaflow.cli._MODES[mode]
        expected = {"grid.t_end": None, "grid.steps": None} if reads_grid else {}
        expected.update({f"options.{key}": value for key, value in options.items()})
        expected.update({f"output.{key}": value for key, value in files.items()})
        stated = re.findall(r"`((?:grid|options|output)\.\w+)`(?:\s+\(`([^`]+)`)?", text)
        assert {name: json.loads(value) if value else None for name, value in stated} == expected, mode
