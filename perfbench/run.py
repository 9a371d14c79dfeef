"""todaflow benchmark: seeded workloads, end-to-end metrics, traced per-module layers.

Run from the root of a checkout:

    python3 perfbench/run.py --workload finite_dense_grid --seed 1 --seconds 30 --trace 0

The harness itself never imports todaflow.  It starts fresh worker
processes (worker.py) that import the checkout's src/todaflow, times
their set-up, lets one of them run a closed loop of a fixed number of
ops (about --seconds of work for the seed library), then regenerates
every op's input from the seed, integrates it with its own reference
(reference.py) and checks each output state to 1e-6.

--trace 0 prints the end-to-end metrics; --trace 1 runs a separate
traced worker and prints the per-layer metrics.  Human-readable lines
come first; the last line of stdout is one JSON object.  Run records,
op outputs and spans go to .perfbench_out/ in the checkout.
"""

from __future__ import annotations

import os

# The plain single-threaded baseline: fixed before numpy is imported here
# and inherited by every worker.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import select  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import calibrate  # noqa: E402
from inputs import OUTPUT_TIMES, SEMI_M, TOLERANCE, WORKLOADS, loop_limit, op_input  # noqa: E402
from reference import ReferenceUnavailable, references, states_passing  # noqa: E402
from tracing import aggregate  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

SETUP_RUNS = 5
STARTUP_TIMEOUT = 60.0
EXIT_GRACE = 30.0
TAIL_SAMPLES = 10

END_TO_END = {
    "setup_s": "s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "states_per_s": "1/s",
    "passed_fraction": "1",
    "peak_rss_mb": "MB",
}

_SPAN_METRICS = (
    ("jacobi.eigendecompose", ("calls", "busy_ms")),
    ("flow.solve_toda_finite", ("calls", "self_ms")),
    ("flow.moser_evolve", ("calls", "busy_ms")),
    ("flow.evolve_moments", ("calls", "busy_ms")),
    ("moments.jacobi_from_measure", ("calls", "busy_ms")),
    ("oracle.rk4_toda", ("calls", "busy_ms")),
    ("oracle.compare_trajectories", ("busy_ms",)),
    ("semi_infinite.solve_toda_semi_infinite", ("self_ms",)),
    ("cli.load_config", ("busy_ms",)),
    ("cli.run", ("self_ms",)),
    ("cli.write_trajectory_csv", ("busy_ms",)),
)
_COUNTER_METRICS = (
    "jacobi.eigendecompose.rows",
    "jacobi.JacobiMatrix.builds",
    "moments.jacobi_from_measure.steps",
    "moments.jacobi_from_measure.errors",
    "oracle.rk4_toda.steps",
)
PER_LAYER = {
    **{f"{span}.{q}": ("ms" if q.endswith("_ms") else "count") for span, qs in _SPAN_METRICS for q in qs},
    **{name: "count" for name in _COUNTER_METRICS},
    "moments.roundtrip_err_t0": "1",
    "semi_infinite.truncations": "count",
    "semi_infinite.max_n": "count",
    "semi_infinite.floor_truncations": "count",
    "semi_infinite.kept_entry_fraction": "1",
    "semi_infinite.converged_fraction": "1",
    "cli.bytes_written": "B",
    "trace.overhead_fraction": "1",
}


class HarnessError(RuntimeError):
    """The benchmark could not produce a trustworthy result."""


def provenance() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "commit": commit,
    }


def pin_to_one_cpu():
    """Keep the harness and its workers on one CPU, so kernel and op times come from the same core."""
    try:
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


def _stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def start_worker(args, out: Path, *, setup_only: bool):
    """Start a fresh worker; returns (process, seconds until it reported ready)."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", str(out),
    ]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], STARTUP_TIMEOUT)
        line = proc.stdout.readline() if ready else ""
        elapsed = time.perf_counter() - start
        if line.strip() != "ready":
            raise HarnessError(f"worker did not become ready (exit code {proc.poll()})")
    except BaseException:
        _stop(proc)
        raise
    return proc, elapsed


def finish(proc: subprocess.Popen, timeout: float) -> None:
    try:
        proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        _stop(proc)
        raise HarnessError(f"worker still running after {timeout:.0f} s; stopped") from None
    except BaseException:
        _stop(proc)
        raise
    if proc.returncode != 0:
        raise HarnessError(f"worker exited with code {proc.returncode}")


def tail_percentile(n: int) -> float:
    """Percentile reported as op_ms_p90: 90, or the highest with TAIL_SAMPLES beyond it, never below 50."""
    if n <= TAIL_SAMPLES + 1:
        return 50.0
    return min(90.0, max(50.0, 100.0 * (n - 1 - TAIL_SAMPLES) / (n - 1)))


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (numpy's default) that keeps +inf samples as +inf."""
    v = sorted(values)
    pos = (len(v) - 1) * q / 100.0
    i = int(pos)
    frac = pos - i
    if frac == 0.0 or v[i] == v[i + 1]:
        return v[i]
    return v[i] + (v[i + 1] - v[i]) * frac


def gate(workload: str, seed: int, records: list, outputs: Path) -> list[dict]:
    """Verdict per op: passing states and the reason it failed, if it did."""
    ok = [r for r in records if r["status"] == "ok"]
    ref_diag, ref_off = references(workload, [op_input(workload, seed, r["index"]) for r in ok]) if ok else ([], [])
    passing = {}
    with open(outputs, "rb") as fh:
        for k, r in enumerate(ok):
            diag, off = np.load(fh), np.load(fh)
            passing[r["index"]] = states_passing(diag, off, ref_diag[k], ref_off[k])
    n_states = OUTPUT_TIMES[workload].size
    verdicts = []
    for r in records:
        states = passing.get(r["index"])
        if states is None:
            verdicts.append({"states": 0, "failure": r["status"]})
        else:
            good = int(np.sum(states))
            verdicts.append({"states": good, "failure": None if good == n_states else "missed_reference"})
    return verdicts


def scaled_seconds(r: dict) -> float:
    """Op time at the reference speed (calibrate.py)."""
    return r["seconds"] * calibrate.REFERENCE_S / r["cal"]


def end_to_end(records, verdicts, setups, peak_rss_kb) -> dict:
    times_ms = [scaled_seconds(r) * 1e3 for r in records]
    passed = sum(v["failure"] is None for v in verdicts)
    return {
        "setup_s": statistics.median(setups),
        "op_ms_p50": percentile(times_ms, 50.0),
        "op_ms_p90": percentile(times_ms, tail_percentile(len(times_ms))),
        "states_per_s": sum(v["states"] for v in verdicts) / (sum(times_ms) / 1e3),
        "passed_fraction": passed / len(records),
        "peak_rss_mb": peak_rss_kb * 1024 / 1e6,
    }


def _semi_metrics(ops: list) -> dict:
    """Truncation statistics of the semi-infinite ops: (extras, input) of each op that returned."""
    if not ops:
        return {"truncations": 0.0, "max_n": 0.0, "floor_truncations": 0.0,
                "kept_entry_fraction": 0.0, "converged_fraction": 0.0}
    eps = np.finfo(float).eps
    floor_runs, kept, built = [], 0, 0
    for extras, inp in ops:
        sizes, devs = extras["sizes"], extras["deviations"]
        floor = 100.0 * eps * (abs(inp["gamma"]) + 2.0 * inp["alpha"])  # infinity norm of J
        first = next((i for i, d in enumerate(devs) if d < floor), None)
        # deviation i compares sizes i and i+1, so sizes i+2.. ran after the floor
        floor_runs.append(0 if first is None else len(sizes) - (first + 2))
        kept += 2 * SEMI_M - 1
        built += sum(2 * n - 1 for n in sizes)
    return {
        "truncations": statistics.fmean(len(e["sizes"]) for e, _ in ops),
        "max_n": statistics.fmean(max(e["sizes"]) for e, _ in ops),
        "floor_truncations": statistics.fmean(floor_runs),
        "kept_entry_fraction": kept / built,
        "converged_fraction": statistics.fmean(float(e["converged"]) for e, _ in ops),
    }


def per_layer(workload, seed, records, spans, counts, roundtrip) -> dict:
    """Per-op means over the traced ops; times at the reference speed."""
    traced = [r for r in records if r["traced"]]
    untraced = [r for r in records if not r["traced"]]
    n = max(len(traced), 1)
    agg = aggregate(spans, {r["index"]: calibrate.REFERENCE_S / r["cal"] for r in traced})
    metrics = {}
    for span, quantities in _SPAN_METRICS:
        entry = agg.get(span, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        for q in quantities:
            metrics[f"{span}.{q}"] = entry["calls"] / n if q == "calls" else entry[q.replace("_ms", "_s")] * 1e3 / n
    for name in _COUNTER_METRICS:
        metrics[name] = counts.get(name, 0) / n
    metrics["moments.roundtrip_err_t0"] = roundtrip
    semi = [(r["extras"], op_input(workload, seed, r["index"])) for r in traced if "sizes" in r["extras"]]
    metrics.update({f"semi_infinite.{k}": v for k, v in _semi_metrics(semi).items()})
    written = [r["extras"]["bytes"] for r in traced if "bytes" in r["extras"]]
    metrics["cli.bytes_written"] = statistics.fmean(written) if written else 0.0
    metrics["trace.overhead_fraction"] = (
        statistics.median(map(scaled_seconds, traced)) / statistics.median(map(scaled_seconds, untraced)) - 1.0
        if traced and untraced else 0.0
    )
    return metrics


def timed_setup(args, out: Path) -> dict:
    """One fresh process to its "ready" line, with the calibration kernel run just before and after."""
    before = calibrate.measure(args.workload)
    proc, elapsed = start_worker(args, out, setup_only=True)
    finish(proc, EXIT_GRACE)
    cal = (before + calibrate.measure(args.workload)) / 2
    return {"seconds": elapsed, "cal": cal, "scaled": elapsed * calibrate.REFERENCE_S / cal}


def measure(args) -> dict:
    """Run the workers and the gate; returns the run record, whose "result" is the output line."""
    out = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    cpu = pin_to_one_cpu()
    calibrate.measure(args.workload)
    setups = [] if args.trace else [timed_setup(args, out) for _ in range(SETUP_RUNS)]
    proc, _ = start_worker(args, out, setup_only=False)
    finish(proc, loop_limit(args.seconds) + EXIT_GRACE)

    worker = json.loads((out / "ops.json").read_text())
    records = worker["records"]
    if not records:
        raise HarnessError("no op completed")
    correct = True
    try:
        verdicts = gate(args.workload, args.seed, records, out / "outputs.npy")
    except ReferenceUnavailable as exc:
        print(f"reference failed, no op could be checked: {exc}")
        correct = False
        verdicts = [{"states": 0, "failure": "unchecked"} for _ in records]
    if args.trace:
        spans = json.loads((out / "spans.json").read_text())
        metrics = per_layer(args.workload, args.seed, records, spans, worker["counts"], worker["roundtrip_err_t0"])
        units = PER_LAYER
    else:
        metrics = end_to_end(records, verdicts, [s["scaled"] for s in setups], worker["peak_rss_kb"])
        units = END_TO_END
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "provenance": {**provenance(), "pinned_cpu": cpu},
        "result": {
            "correct": correct,
            "attempted": len(records),
            "failed": sum(v["failure"] is not None for v in verdicts),
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        },
        "setups": setups,
        "ops": [{**r, **v} for r, v in zip(records, verdicts)],
    }
    (out / "record.json").write_text(json.dumps(record, indent=1))
    return record


def report(record: dict) -> None:
    """Human-readable summary; metric rows are the lines indented by two spaces."""
    line = record["result"]
    ops = record["ops"]
    print(f"perfbench workload={record['workload']} seed={record['seed']} "
          f"seconds={record['seconds']} trace={record['trace']}")
    print("provenance " + json.dumps(record["provenance"], sort_keys=True))
    for name, m in line["metrics"].items():
        print(f"  {name:<48} {m['value']:>14.6g} {m['unit']}")
    reasons = {}
    for op in ops:
        if op["failure"]:
            reasons[op["failure"]] = reasons.get(op["failure"], 0) + 1
    why = "".join(f", {count} {kind}" for kind, count in sorted(reasons.items()))
    print(f"ops: {line['attempted']} attempted, {line['failed']} failed{why} "
          f"(failed_fraction {line['failed'] / line['attempted']:.4g}; "
          f"an op passes when every output state is within {TOLERANCE:g} of the reference)")
    cal_ms = statistics.median(op["cal"] for op in ops) * 1e3
    print(f"times are at the reference speed: calibration kernel {cal_ms:.4g} ms here against "
          f"{calibrate.REFERENCE_S * 1e3:g} ms; unscaled op median "
          f"{statistics.median(op['seconds'] for op in ops) * 1e3:.6g} ms")
    if not record["trace"]:
        n = len(ops)
        print(f"op_ms_p90 is p{tail_percentile(n):.4g} of {n} op times; setup_s is the median of "
              f"{len(record['setups'])} fresh processes (unscaled "
              f"{statistics.median(s['seconds'] for s in record['setups']):.4g} s)")
        if line["failed"]:
            ms = [float("inf") if op["failure"] else scaled_seconds(op) * 1e3 for op in ops]
            print(f"with failed ops counted as missing every limit: op_ms_p50 = "
                  f"{percentile(ms, 50.0):.6g}, op_ms_p90 = {percentile(ms, tail_percentile(n)):.6g}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="todaflow benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "todaflow" / "__init__.py").is_file():
        print(f"error: no todaflow sources at {ROOT / 'src' / 'todaflow'}", file=sys.stderr)
        return 2
    try:
        record = measure(args)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report(record)
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
