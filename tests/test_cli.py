import json
import math
import subprocess
import sys

import numpy as np

from todaflow.cli import main, read_trajectory_csv


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
    return write_config(tmp_path / "config.json", payload)


def test_finite_mode_writes_closed_form_trajectory(tmp_path):
    cfg = finite_config(tmp_path)
    assert main(["--config", cfg, "--out", str(tmp_path), "--quiet"]) == 0
    times, diag, offdiag = read_trajectory_csv(tmp_path / "trajectory.csv")
    np.testing.assert_allclose(times, np.linspace(0, 1, 11), atol=1e-15)
    for t, b1, a1 in zip(times, diag[:, 0], offdiag[:, 0]):
        assert abs(b1 - math.tanh(2.0 * t)) < 1e-8
        assert abs(a1 - 1.0 / math.cosh(2.0 * t)) < 1e-8
    header = (tmp_path / "trajectory.csv").read_text().split("\n")[0]
    assert header == "t,b1,b2,a1"
    report = json.loads((tmp_path / "report.json").read_text())
    assert "eigen_drift" not in report
    assert report["trace_drift"] < 1e-9
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


def test_csv_round_trips_exactly(tmp_path):
    cfg = write_config(tmp_path / "c.json", {
        "mode": "finite",
        "initial": {"random": {"n": 4, "seed": 3}},
        "grid": {"t_end": 0.7, "steps": 6},
    })
    assert main(["--config", cfg, "--out", str(tmp_path), "--quiet"]) == 0
    times, diag, offdiag = read_trajectory_csv(tmp_path / "trajectory.csv")

    from todaflow import JacobiMatrix, solve_toda_finite

    rng = np.random.default_rng(3)
    j = JacobiMatrix(diag=rng.uniform(-2, 2, 4), offdiag=rng.uniform(0.5, 2, 3))
    traj = solve_toda_finite(j, np.linspace(0.0, 0.7, 7))
    np.testing.assert_array_equal(diag, traj.diag_array())
    np.testing.assert_array_equal(offdiag, traj.offdiag_array())
    np.testing.assert_array_equal(times, traj.times)


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
        ("semi_infinite", {"b": {"x": 1}}, "initial.b"),
        ("semi_infinite", {"b": 5}, "initial.b"),
        ("semi_infinite", {"generator": "constant", "params": [1]}, "initial.params"),
        ("semi_infinite", {"generator": "constant", "params": {"alpha": [1]}}, "initial.params.alpha"),
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
    # JSON NaN and Infinity are rejected by the field that carries them
    escaping = {"generator": "linear_b", "params": {"beta": 1.0}}
    non_finite = [
        ("semi_infinite", escaping, {"t_end": 1.0, "steps": 2}, {"tol": math.inf}, "options.tol"),
        ("semi_infinite", {"generator": "linear_b", "params": {"beta": -1.0, "upper_bound": math.nan}},
         {"t_end": 1.0, "steps": 2}, {}, "initial.params.upper_bound"),
        ("semi_infinite", {"b": [0.0, math.nan], "a": [1.0]}, {"t_end": 1.0, "steps": 2}, {}, "initial.b"),
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
        ("finite", explicit, grid, {"dt": huge}, "options.dt"),
        ("finite", {"b": [0.0, huge], "a": [1.0]}, grid, {}, "initial.b"),
        ("semi_infinite", {"generator": "constant", "params": {"alpha": huge}}, grid, {}, "initial.params.alpha"),
        ("semi_infinite", {"b": [0.0, huge], "a": [1.0]}, grid, {}, "initial.b"),
        ("finite", explicit, {"t_end": 1.0, "steps": huge}, {}, "grid.steps"),
        ("finite", {"random": {"n": huge}}, grid, {}, "initial.random.n"),
    ]
    # every option is checked against its own range
    out_of_range = [
        ("semi_infinite", escaping, grid, {"m": 0}, "options.m"),
        ("semi_infinite", escaping, grid, {"n_max": 1}, "options.n_max"),
        ("response", explicit, grid, {"k": 31}, "options.k"),
        ("semi_infinite", escaping, grid, {"tol": 0}, "options.tol"),
        ("verify", explicit, grid, {"dt": True}, "options.dt"),
    ]
    # array entries must be JSON numbers: strings and true/false are not read as numbers
    table = {"n_max": 4}
    not_numbers = [
        ("finite", {"b": ["0", "0.5"], "a": ["1"]}, grid, {}, "initial.b"),
        ("semi_infinite", {"b": ["0", "0.5", "0", "0.5"], "a": [1.0, 1.0, 1.0]}, grid, table, "initial.b"),
        ("finite", {"b": [True, 0.5], "a": [1.0]}, grid, {}, "initial.b"),
        ("semi_infinite", {"b": [True, 0.5, 0.0, 0.5], "a": [1.0, 1.0, 1.0]}, grid, table, "initial.b"),
    ]
    for mode, initial, grid_, options, name in oversized + out_of_range + not_numbers:
        cfg = write_config(tmp_path / "t.json", {
            "mode": mode,
            "initial": initial,
            "grid": grid_,
            "options": options,
        })
        assert main(["--config", cfg, "--out", str(tmp_path)]) == 1, name
        assert f"error: {name}:" in capsys.readouterr().err
    # a field the config does not define is named, not ignored
    unknown = [
        ({"options": {"n_mx": 16}}, "options.n_mx"),
        ({"outptu": {"report": "r.json"}}, "outptu"),
        ({"grid": {"t_end": 1.0, "steps": 2, "step": 3}}, "grid.step"),
        ({"output": {"trajectroy": "t.csv"}}, "output.trajectroy"),
        ({"initial": {"random": {"n": 3, "sead": 1}}}, "initial.random.sead"),
        ({"initial": {"random": {"n": 3}, "a": [1.0, 1.0]}}, "initial.a"),
        ({"initial": {"b": [0.0], "upper_bound": 1.0}}, "initial.upper_bound"),
        ({"mode": "semi_infinite", "initial": {"generator": "constant", "b": [0.0]}}, "initial.b"),
        ({"mode": "semi_infinite", "initial": {"b": [0.0, 0.0], "a": [1.0], "params": {}}}, "initial.params"),
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
        "initial": {"generator": "constant", "params": {"alpha": 1.0}},
        "grid": {"t_end": 1.0, "steps": 2},
        "options": {"m": 2, "n_max": 4},
    })
    assert main(["--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: options.n_max: need an integer >= 6, got 4\n"
    assert not out.exists()


def test_numerical_failure_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json", {
        "mode": "verify",
        "initial": {"b": [0.0, 0.0], "a": [100.0]},
        "grid": {"t_end": 10.0, "steps": 10},
        "options": {"dt": 0.5},
    })
    assert main(["--config", cfg, "--out", str(tmp_path)]) == 2
    assert "numerical failure" in capsys.readouterr().err
    # an overflow inside the reconstruction is numerical, not bad input
    cfg = write_config(tmp_path / "c.json", {
        "mode": "finite",
        "initial": {"b": [1e155, -1e155, 5e154], "a": [1e155, 3e154]},
        "grid": {"t_end": 1e-170, "steps": 1},
    })
    assert main(["--config", cfg, "--out", str(tmp_path)]) == 2
    assert "numerical failure: OverflowError" in capsys.readouterr().err


def test_mode_override_flag(tmp_path):
    cfg = finite_config(tmp_path)
    assert main(["--config", cfg, "--mode", "verify", "--out", str(tmp_path), "--quiet"]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert "deviation" in report


def test_semi_infinite_mode(tmp_path):
    cfg = write_config(tmp_path / "c.json", {
        "mode": "semi_infinite",
        "initial": {"generator": "linear_b", "params": {"beta": -1.0, "alpha": 1.0, "upper_bound": 1.0}},
        "grid": {"t_end": 1.0, "steps": 5},
        "options": {"tol": 1e-8, "n_max": 64, "m": 2},
    })
    assert main(["--config", cfg, "--out", str(tmp_path), "--quiet"]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["converged"] is True
    assert report["achieved"] < 1e-8
    times, diag, offdiag = read_trajectory_csv(tmp_path / "trajectory.csv")
    assert diag.shape == (6, 2)
    assert offdiag.shape == (6, 1)


def test_response_mode(tmp_path):
    cfg = write_config(tmp_path / "c.json", {
        "mode": "response",
        "initial": {"b": [0.0, 0.0], "a": [1.0]},
        "grid": {"t_end": 1.0, "steps": 1},
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


def test_console_invocation(tmp_path):
    cfg = finite_config(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-m", "todaflow.cli", "--config", cfg, "--out", str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "trajectory.csv" in proc.stdout
