"""One fresh process that runs one workload's ops against the checkout's todaflow.

Started by run.py.  It imports todaflow from <checkout>/src, completes
one warm-up op and prints "ready"; the harness times set-up up to that
line.  With --setup-only it stops there.  Otherwise it runs a closed loop
of back-to-back ops, each on a fresh seeded input, and writes into --out.
The number of ops is fixed by --seconds (inputs.op_count), not by the
clock, so a seed always yields the same ops; only a program far slower
than the seed is cut short (inputs.loop_limit).  Files:

  ops.json     one record per op (index, seconds, status, traced, extras, cal),
               peak RSS, and with --trace 1 the counts and round-trip error
  outputs.npy  diag and offdiag arrays of every op that returned, in order
  spans.json   with --trace 1, every span (name, start, end, parent, op)

With --trace 1 the first half of the ops runs untraced and the second
half traced, so both op-time medians come from the same warm process.
Only the call into the program is timed; drawing the input, writing the
CLI config and reading back its CSV are not.  The calibration kernel runs
between consecutive ops; each record carries the mean of the two runs
around its op as `cal` (see calibrate.py).
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import time
from pathlib import Path

import numpy as np

import calibrate
import inputs
from inputs import op_input
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent


class ExitStatus(Exception):
    """The CLI returned a non-zero exit code."""

    def __init__(self, code):
        super().__init__(f"exit code {code}")
        self.code = code


def finite_prepare(inp, _workdir):
    return inp["b"], inp["a"]


def finite_op(td, b, a):
    traj = td.solve_toda_finite(td.JacobiMatrix(b, a), inputs.FINITE_TIMES)
    return traj.diag_array(), traj.offdiag_array(), {}


def semi_prepare(inp, _workdir):
    n = inputs.SEMI_N_MAX
    return np.full(n, inp["alpha"]), np.full(n, inp["gamma"])


def semi_op(td, a, b):
    init = td.make_initial_data("table", {"a": a, "b": b})
    traj, report = td.solve_toda_semi_infinite(
        init, inputs.SEMI_TIMES, inputs.SEMI_M, inputs.SEMI_TOL, inputs.SEMI_N_MAX
    )
    extras = {
        "sizes": [int(n) for n in report.truncation_sizes],
        "deviations": [float(d) for d in report.deviations],
        "converged": bool(report.converged),
    }
    return traj.diag_array(), traj.offdiag_array(), extras


def cli_prepare(inp, workdir: Path):
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    config = {
        "mode": "verify",
        "initial": {"b": inp["b"].tolist(), "a": inp["a"].tolist()},
        "grid": {"t_end": inputs.CLI_T_END, "steps": inputs.CLI_STEPS},
        "options": {"dt": inputs.CLI_DT},
        "output": {"trajectory": "trajectory.csv", "report": "report.json"},
    }
    path = workdir / "config.json"
    path.write_text(json.dumps(config))
    return str(path), str(workdir)


def cli_op(td, config, out):
    return td.cli.main(["--config", config, "--out", out, "--quiet"])


def read_csv(path: Path, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Parse "t,b1..bN,a1..a{N-1}" rows; the grid column must match the requested times."""
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    expected = ["t"] + [f"b{i}" for i in range(1, n + 1)] + [f"a{i}" for i in range(1, n)]
    if header != expected:
        raise ValueError(f"unexpected CSV header {header[:3]}...")
    data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    if data.shape != (inputs.CLI_TIMES.size, 2 * n) or np.max(np.abs(data[:, 0] - inputs.CLI_TIMES)) > 1e-12:
        raise ValueError(f"CSV rows do not match the {inputs.CLI_TIMES.size}-point grid")
    return data[:, 1 : 1 + n], data[:, 1 + n :]


def cli_collect(code, config, out):
    if code != 0:
        raise ExitStatus(code)
    out = Path(out)
    diag, offdiag = read_csv(out / "trajectory.csv", inputs.CLI_N)
    written = sum(p.stat().st_size for p in out.iterdir() if p.name != Path(config).name)
    return diag, offdiag, {"bytes": written}


# workload -> (prepare input, timed op, untimed collect)
WORKLOADS = {
    "finite_dense_grid": (finite_prepare, finite_op, None),
    "semi_infinite_floor": (semi_prepare, semi_op, None),
    "cli_verify": (cli_prepare, cli_op, cli_collect),
}


def run_one(td, workload, inp, workdir, call):
    """Run one op; returns (record, diag, offdiag), record = {seconds, status, extras}.

    Any exception from the program is recorded as the op's failure, never
    retried: the loop must keep going and count it.
    """
    prepare, op, collect = WORKLOADS[workload]
    args = prepare(inp, workdir)
    start = time.perf_counter()
    try:
        raw = call(op, td, *args)
    except Exception as exc:  # noqa: BLE001 - every failure is counted
        return {"seconds": time.perf_counter() - start, "status": f"raised:{type(exc).__name__}", "extras": {}}, None, None
    record = {"seconds": time.perf_counter() - start, "status": "ok", "extras": {}}
    try:
        diag, offdiag, record["extras"] = collect(raw, *args) if collect else raw
    except ExitStatus as exc:
        record["status"] = f"exit:{exc.code}"
        return record, None, None
    except (OSError, ValueError) as exc:
        record["status"] = f"unreadable:{type(exc).__name__}"
        return record, None, None
    return record, np.asarray(diag, dtype=float), np.asarray(offdiag, dtype=float)


def _plain(op, td, *args):
    return op(td, *args)


def roundtrip_error(td, workload, inp, record) -> float:
    """Max entry error of jacobi_from_measure(eigendecompose(j0), N) against j0.

    j0 is the op's initial matrix; for the semi-infinite workload, the
    largest truncation the op ran.  A reconstruction that raises is
    reported as the largest double.
    """
    if workload == "semi_infinite_floor":
        sizes = record["extras"].get("sizes") or [inputs.SEMI_N_MAX]
        b, a = inputs.constant_truncation(inp, max(sizes))
    else:
        b, a = inp["b"], inp["a"]
    try:
        back = td.jacobi_from_measure(td.eigendecompose(td.JacobiMatrix(b, a)), b.size)
    except td.NumericalError:
        return float(np.finfo(float).max)
    return float(max(np.max(np.abs(back.diag - b)), np.max(np.abs(back.offdiag - a), initial=0.0)))


ROUNDTRIP_SAMPLE = 20


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import todaflow as td
    import todaflow.cli  # noqa: F401 - binds td.cli, the CLI workload's entry point

    if Path(td.__file__).resolve().parent != (ROOT / "src" / "todaflow").resolve():
        print(f"todaflow imported from {td.__file__}, not from the checkout", file=sys.stderr)
        return 2
    out = Path(args.out)
    scratch = out / "op"
    run_one(td, args.workload, op_input(args.workload, args.seed, 0, warmup=True), scratch, _plain)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    calibrate.measure(args.workload)
    tracer = Tracer()
    records = []
    cals = [calibrate.measure(args.workload)]
    n_ops = inputs.op_count(args.workload, args.seconds)
    halves = [(False, n_ops // 2), (True, n_ops - n_ops // 2)] if args.trace else [(False, n_ops)]
    deadline = time.perf_counter() + inputs.loop_limit(args.seconds)
    with open(out / "outputs.npy", "wb") as fh:
        for traced, count in halves:
            if traced:
                tracer.install()

                def call(op, td_, *op_args):
                    return tracer.run_op(len(records), op, td_, *op_args)
            else:
                call = _plain
            for _ in range(count):
                if time.perf_counter() > deadline:
                    break
                inp = op_input(args.workload, args.seed, len(records))
                record, diag, offdiag = run_one(td, args.workload, inp, scratch, call)
                cals.append(calibrate.measure(args.workload))
                if diag is not None:
                    np.save(fh, diag)
                    np.save(fh, offdiag)
                record.update(index=len(records), traced=traced, cal=(cals[-2] + cals[-1]) / 2)
                records.append(record)
        tracer.uninstall()
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    shutil.rmtree(scratch, ignore_errors=True)

    result = {"records": records, "peak_rss_kb": peak_rss_kb}
    if args.trace:
        sample = [r for r in records if r["traced"]][:ROUNDTRIP_SAMPLE]
        errs = [roundtrip_error(td, args.workload, op_input(args.workload, args.seed, r["index"]), r) for r in sample]
        result["counts"] = dict(tracer.counts)
        result["roundtrip_err_t0"] = max(errs) if errs else 0.0
        (out / "spans.json").write_text(json.dumps(tracer.spans))
    (out / "ops.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
