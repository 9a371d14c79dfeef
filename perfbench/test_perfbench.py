"""Self-checks of the benchmark: the gate, the reference, the declared metrics.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import todaflow as td  # noqa: E402
import todaflow.cli  # noqa: E402,F401

import run  # noqa: E402
import worker  # noqa: E402
from inputs import FINITE_TIMES, op_input  # noqa: E402
from tracing import aggregate  # noqa: E402
from reference import references, state_errors, states_passing, toda_reference  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def _write_outputs(path: Path, outputs) -> None:
    with open(path, "wb") as fh:
        for diag, offdiag in outputs:
            np.save(fh, diag)
            np.save(fh, offdiag)


def test_gate_flags_one_entry_perturbed_by_1e_5(tmp_path):
    seed = 5
    outputs = []
    for i in range(2):
        inp = op_input("finite_dense_grid", seed, i)
        traj = td.solve_toda_finite(td.JacobiMatrix(inp["b"], inp["a"]), FINITE_TIMES)
        outputs.append((traj.diag_array(), traj.offdiag_array()))
    outputs[1][1][40, 7] += 1e-5
    _write_outputs(tmp_path / "outputs.npy", outputs)
    records = [{"index": 0, "status": "ok"}, {"index": 1, "status": "ok"}]
    verdicts = run.gate("finite_dense_grid", seed, records, tmp_path / "outputs.npy")
    assert verdicts[0] == {"states": FINITE_TIMES.size, "failure": None}
    assert verdicts[1] == {"states": FINITE_TIMES.size - 1, "failure": "missed_reference"}


def test_raised_numerical_error_is_a_failure(tmp_path):
    def raising(_op, _td, *_args):
        raise td.DegenerateMeasureError("forced breakdown")

    inp = op_input("finite_dense_grid", 1, 0)
    record, diag, _off = worker.run_one(td, "finite_dense_grid", inp, tmp_path, raising)
    assert record["status"] == "raised:DegenerateMeasureError" and diag is None
    _write_outputs(tmp_path / "outputs.npy", [])
    verdicts = run.gate("finite_dense_grid", 1, [{**record, "index": 0}], tmp_path / "outputs.npy")
    assert verdicts == [{"states": 0, "failure": "raised:DegenerateMeasureError"}]


def test_nonzero_cli_exit_is_a_failure(tmp_path, monkeypatch):
    def blow_up(*_args, **_kwargs):
        raise td.BlowUpError("forced")

    monkeypatch.setattr(td.cli, "rk4_toda", blow_up)
    inp = op_input("cli_verify", 1, 0)
    record, diag, _off = worker.run_one(td, "cli_verify", inp, tmp_path / "op", worker._plain)
    assert record["status"] == "exit:2" and diag is None
    _write_outputs(tmp_path / "outputs.npy", [])
    verdicts = run.gate("cli_verify", 1, [{**record, "index": 0}], tmp_path / "outputs.npy")
    assert verdicts == [{"states": 0, "failure": "exit:2"}]


def test_cli_csv_is_parsed_and_passes_the_gate(tmp_path):
    inp = op_input("cli_verify", 2, 3)
    record, diag, offdiag = worker.run_one(td, "cli_verify", inp, tmp_path / "op", worker._plain)
    assert record["status"] == "ok" and record["extras"]["bytes"] > 0
    ref_diag, ref_off = references("cli_verify", [inp])
    assert state_errors(diag, offdiag, ref_diag[0], ref_off[0])[0] == 0.0  # t = 0 is the input itself
    assert diag.shape == ref_diag[0].shape and offdiag.shape == ref_off[0].shape


def test_gate_rejects_nan_and_wrong_shape():
    ref = np.zeros((3, 4)), np.ones((3, 3))
    nan = ref[0].copy()
    nan[1, 2] = np.nan
    assert list(states_passing(nan, ref[1], *ref)) == [True, False, True]
    assert not states_passing(ref[0][:, :3], ref[1][:, :2], *ref).any()


def test_span_self_time_subtracts_direct_children():
    spans = [("op", 0.0, 10.0, -1, 0), ("a", 1.0, 5.0, 0, 0), ("b", 2.0, 3.0, 1, 0), ("a", 6.0, 7.0, 0, 0)]
    agg = aggregate(spans, {0: 2.0})
    assert agg["op"] == {"calls": 1, "busy_s": 20.0, "self_s": 10.0}
    assert agg["a"] == {"calls": 2, "busy_s": 10.0, "self_s": 8.0}
    assert agg["b"] == {"calls": 1, "busy_s": 2.0, "self_s": 2.0}


def test_batched_reference_matches_single_lattice_solves():
    lattices = [op_input("cli_verify", 9, i) for i in range(64)]
    times = np.linspace(0.0, 1.0, 11)
    diag, off = toda_reference(np.array([x["b"] for x in lattices]), np.array([x["a"] for x in lattices]), times)
    for k in (0, 31, 63):
        d1, o1 = toda_reference(lattices[k]["b"][None], lattices[k]["a"][None], times)
        assert np.max(np.abs(diag[k] - d1[0])) < 1e-9 and np.max(np.abs(off[k] - o1[0])) < 1e-9


def test_reference_matches_closed_form_2x2():
    times = np.linspace(0.0, 1.0, 11)
    diag, off = toda_reference(np.zeros((1, 2)), np.ones((1, 1)), times)
    assert np.max(np.abs(diag[0, :, 0] - np.tanh(2 * times))) < 1e-10
    assert np.max(np.abs(off[0, :, 0] - 1 / np.cosh(2 * times))) < 1e-10


def test_inputs_are_seeded_and_fresh_per_op():
    a = op_input("finite_dense_grid", 3, 7)
    assert np.array_equal(a["b"], op_input("finite_dense_grid", 3, 7)["b"])
    assert not np.array_equal(a["b"], op_input("finite_dense_grid", 3, 8)["b"])
    assert not np.array_equal(a["b"], op_input("finite_dense_grid", 4, 7)["b"])
    assert not np.array_equal(a["b"], op_input("finite_dense_grid", 3, 7, warmup=True)["b"])


def test_declared_metrics_match_the_harness():
    declared_e2e = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in DECLARED["per_layer"]}
    assert run.END_TO_END == declared_e2e
    assert run.PER_LAYER == declared_layer
    assert [w["name"] for w in DECLARED["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
def test_every_printed_metric_is_declared(trace):
    key = "end_to_end" if trace == 0 else "per_layer"
    declared = {m["name"]: m["unit"] for m in DECLARED[key]}
    cmd = [*DECLARED["command"], "--workload", "finite_dense_grid", "--seed", "1", "--seconds", "1",
           "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1 and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    printed = {line.split()[0]: line.split()[-1] for line in lines[:-1] if line.startswith("  ")}
    assert printed == declared


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in DECLARED["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [*DECLARED["command"], "--workload", "cli_verify", "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_same_seed_gives_the_same_ops_and_failures():
    """The op count comes from --seconds, not the clock, so failures on cli_verify repeat exactly."""
    cmd = [*DECLARED["command"], "--workload", "cli_verify", "--seed", "3", "--seconds", "1", "--trace", "0"]
    results = []
    for _ in range(2):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
        results.append(json.loads(done.stdout.strip().splitlines()[-1]))
    assert results[0]["attempted"] == results[1]["attempted"] == 10
    assert results[0]["failed"] == results[1]["failed"]
