"""Repeat run.py over seeds and report each metric's median and spread.

    python3 perfbench/spread.py --runs 10 --seconds 30 [--workloads a,b] [--trace 0]

Round k runs every workload once with seed first_seed + k; the order of
the workloads is reversed on every other round, so that no workload
always runs first. For each workload and metric it prints the median,
the quartiles as statistics.quantiles(values, n=4) gives them, their
distance as a share of the median, and the share of failed operations.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")

    results = {w: [] for w in workloads}
    for k in range(args.runs):
        seed = args.first_seed + k
        for w in workloads if k % 2 == 0 else workloads[::-1]:
            cmd = [
                sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
            ]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            lines = proc.stdout.strip().splitlines()
            last = json.loads(lines[-1])
            for name, value in json.loads(lines[-2]).get("unscaled", {}).items():
                last["metrics"][f"unscaled.{name}"] = {"value": value}
            results[w].append(last)
            values = {m: round(v["value"], 4) for m, v in last["metrics"].items() if v["value"] is not None}
            print(f"{w} seed {seed}: correct {last['correct']} "
                  f"{last['failed']}/{last['attempted']} failed {values}", flush=True)

    summary = {}
    for w, runs in results.items():
        summary[w] = {"failed_share": [r["failed"] / r["attempted"] for r in runs]}
        for metric in runs[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in runs]
            if None in values:
                continue
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else float("nan")
            summary[w][metric] = {"median": median, "q1": q1, "q3": q3, "spread": spread}
            print(f"{w:12s} {metric:14s} median {median:10.4f} "
                  f"q1 {q1:10.4f} q3 {q3:10.4f} spread {spread:.3f}")
    out = Path(".perfbench_out")
    out.mkdir(exist_ok=True)
    (out / "spread.json").write_text(json.dumps({"runs": results, "summary": summary}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
