"""Run the benchmark over several seeds and report each metric's median and spread.

    python3 perfbench/repeat.py --workloads cli_verify --seeds 1-10 --seconds 30 [--trace 1] [--json out.json]

Runs are sequential, one process at a time.  For every metric it prints
the median, the quartiles (statistics.quantiles, n=4) and the spread,
(q3 - q1) / median, which is what the bound in BENCHMARK.json limits.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """One benchmark run: (result line, provenance)."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=600, check=True)
    lines = done.stdout.strip().splitlines()
    prov = next((json.loads(x.split(" ", 1)[1]) for x in lines if x.startswith("provenance ")), {})
    return json.loads(lines[-1]), prov


def summarize(results: list[dict]) -> dict:
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
        out[name] = {
            "unit": results[0]["metrics"][name]["unit"],
            "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "values": values,
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", required=True, help="comma-separated workload names")
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", help="also write the summary to this file")
    args = parser.parse_args(argv)
    summary = {}
    for workload in args.workloads.split(","):
        runs = [run_once(workload, s, args.seconds, args.trace) for s in seeds(args.seeds)]
        results = [r for r, _ in runs]
        metrics = summarize(results)
        summary[workload] = {
            "seeds": args.seeds, "seconds": args.seconds, "trace": args.trace, "provenance": runs[0][1],
            "attempted": [r["attempted"] for r in results], "failed": [r["failed"] for r in results],
            "correct": all(r["correct"] for r in results), "metrics": metrics,
        }
        print(f"{workload}: attempted {summary[workload]['attempted']} failed {summary[workload]['failed']}")
        for name, m in metrics.items():
            print(f"  {name:<44} median {m['median']:<12.6g} q1 {m['q1']:<12.6g} q3 {m['q3']:<12.6g} "
                  f"spread {m['spread']:.4f} {m['unit']}")
        sys.stdout.flush()
    if args.json:
        Path(args.json).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
