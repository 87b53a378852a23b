"""Benchmark entry point; run it from the root of a source checkout.

    python3 perfbench/run.py --workload paper-mnpp --seed 1 --seconds 30 --trace 0

Each pass runs in a fresh interpreter (worker.py) with ``PYTHONPATH=src``
and nothing installed: set-up, then the workload's bench configs through
the entry point of ``netpricing bench``. Passes repeat until the next one
would end after ``--seconds``, with at least two. Every ``runs.csv`` row
is an operation; it fails if its status is not ``ok`` or a check of
oracle.py rejects it. Every pass must write artifacts byte-identical to
the first pass.

With ``--trace 0`` the last line of stdout reports the end-to-end metrics:
``runs_per_s`` (rows per second of bench pass, over all passes),
``setup_s`` (interpreter start to ready, median over passes and extra
set-up-only interpreters) and ``peak_rss_mb`` (the larger of the worker's
and its solver children's peak RSS, median over passes).

The machine's speed drifts: the same pass ran a third slower within an
hour, and CPU time moved with wall time. So every worker times a fixed
pure-Python loop (worker.calibration_loop) after set-up and after each
bench config, and both times are scaled to a machine on which that loop
takes REFERENCE_LOOP_S, by the median of all the loops of the run. With
``--trace 1`` passes
alternate between plain and traced, and the last line reports the
per-layer metrics of layers.py, medians over traced passes, and the
tracing overhead. The line before the last records the machine and the
unscaled figures.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

import oracle
from layers import METRICS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
REFERENCE_LOOP_S = 0.2
MIN_PASSES = 2
SETUP_SAMPLES = 5
LAST_START_S = 120.0  # no pass starts later; one run ends well within 180 s
KILL_AFTER_S = 170.0
ENUMERATION_LIMIT = 20_000  # price vectors; enough for every tiny instance


class BenchError(RuntimeError):
    pass


def machine() -> dict:
    def version(name):
        try:
            return metadata.version(name)
        except metadata.PackageNotFoundError:
            return None

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
    }


class Runner:
    def __init__(self, root: Path, workload: str, seed: int):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.out = root / ".perfbench_out" / workload
        shutil.rmtree(self.out, ignore_errors=True)
        (self.out / "tmp").mkdir(parents=True)
        self.env = dict(os.environ)
        self.env.update(PYTHONPATH="src", TMPDIR=str(self.out / "tmp"), PYTHONHASHSEED="0")
        self.t0 = time.perf_counter()
        self.count = 0

    def elapsed(self) -> float:
        return time.perf_counter() - self.t0

    def spawn(self, mode: str) -> dict:
        """Run one worker; returns its report with set-up time added."""
        self.count += 1
        pass_dir = self.out / f"{self.count:02d}-{mode}"
        pass_dir.mkdir()
        cmd = [sys.executable, str(HERE / "worker.py"), self.workload, str(self.seed), str(pass_dir), mode]
        report = {"dir": pass_dir, "mode": mode}
        with open(pass_dir / "worker.err", "w") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                cmd, cwd=self.root, env=self.env, stdout=subprocess.PIPE, stderr=err,
                text=True, start_new_session=True,
            )
            watchdog = threading.Timer(
                max(1.0, KILL_AFTER_S - self.elapsed()), os.killpg, (proc.pid, signal.SIGKILL)
            )
            watchdog.start()
            try:
                for line in proc.stdout:
                    event = json.loads(line)
                    if event["event"] == "ready":
                        report["setup_s"] = time.perf_counter() - start
                        report["netpricing"] = event["netpricing"]
                    elif event["event"] == "done":
                        report.update(event)
                code = proc.wait()
            finally:
                watchdog.cancel()
                if proc.poll() is None:
                    os.killpg(proc.pid, signal.SIGKILL)
                    proc.wait()
                proc.stdout.close()
        report["wall_s"] = time.perf_counter() - start
        if code != 0 or "setup_s" not in report or "loop_s" not in report:
            tail = (pass_dir / "worker.err").read_text(errors="replace").strip()[-2000:]
            raise BenchError(f"worker {mode} exited {code}: {tail}")
        expected = (self.root / "src" / "netpricing").resolve()
        if Path(report["netpricing"]) != expected:
            raise BenchError(f"worker imported {report['netpricing']}, not {expected}")
        return report

    def warm_up(self):
        """Compile the package's bytecode and load scipy from disk once."""
        subprocess.run(
            [sys.executable, "-c", "import netpricing.cli, netpricing.lpsolve, scipy.optimize"],
            cwd=self.root, env=self.env, check=True, timeout=120,
        )

    def passes(self, modes, seconds: float) -> list[dict]:
        """Passes cycling through modes until the next would end late."""
        done = []
        start = self.elapsed()
        while True:
            done.append(self.spawn(modes[len(done) % len(modes)]))
            end = self.elapsed() + done[-1]["wall_s"]
            if len(done) >= MIN_PASSES and (end - start > seconds or end > LAST_START_S):
                return done


def check_pass(report: dict) -> tuple[int, int, list[str]]:
    """Check every runs.csv row of one pass.

    Returns (rows, failed rows, problems); problems name the wrong results
    among rows whose status is ok.
    """
    pass_dir = report["dir"]
    rows, failed, problems = 0, 0, []
    for runs_csv in sorted((pass_dir / "out").glob("*.runs.csv")):
        suite = runs_csv.name[: -len(".runs.csv")]
        markets, optima = {}, {}
        for row in oracle.read_runs(runs_csv):
            rows += 1
            iid = row["instance"]
            if row["status"] != "ok":
                failed += 1
                print(f"{suite} {iid} {row['algorithm']}: {row['status']} {row['message']}", file=sys.stderr)
                continue
            if iid not in markets:
                market = oracle.load_market(pass_dir / "instances" / suite / f"{iid}.json")
                markets[iid] = market
                small = len(market.grid) ** market.n_outlets <= ENUMERATION_LIMIT
                optima[iid] = oracle.enumerate_optimum(market) if small else None
            found = oracle.check_row(row, markets[iid], optima[iid])
            failed += bool(found)
            problems += [f"{suite} {iid} {row['algorithm']}: {p}" for p in found]
    return rows, failed, problems


def artifacts(report: dict) -> dict[str, bytes]:
    out = report["dir"] / "out"
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "netpricing" / "__init__.py").is_file():
        print(f"error: no netpricing source under {root / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    runner = Runner(root, args.workload, args.seed)
    try:
        runner.warm_up()
        modes = ("plain", "traced") if args.trace else ("plain",)
        passes = runner.passes(modes, args.seconds)
        setups = [] if args.trace else [
            runner.spawn("setup") for _ in range(SETUP_SAMPLES - len(passes))
        ]
    except (BenchError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted, failed, problems = 0, 0, []
    for report in passes:
        report["rows"], bad, found = check_pass(report)
        attempted += report["rows"]
        failed += bad
        problems += found
    first = artifacts(passes[0])
    identical = all(artifacts(r) == first for r in passes[1:])
    if not identical:
        problems.append("artifacts differ between passes")
    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)

    # Times scaled to a machine on which the calibration loop takes
    # REFERENCE_LOOP_S, using the median of every loop the run timed.
    loop_s = statistics.median(x for r in passes + setups for x in r["loop_s"])
    scale = REFERENCE_LOOP_S / loop_s
    unscaled = {
        "runs_per_s": attempted / sum(r["bench_s"] for r in passes),
        "setup_s": statistics.median(r["setup_s"] for r in passes + setups),
    }
    if args.trace:
        traced = [r for r in passes if r["mode"] == "traced"]
        plain = statistics.median(r["bench_s"] for r in passes if r["mode"] == "plain")
        metrics = {}
        for name, (unit, _) in METRICS.items():
            values = [r["layers"][name] for r in traced]
            value = None if None in values else statistics.median(values)
            metrics[name] = {"value": value, "unit": unit}
            if value is None:
                metrics[name]["missing"] = True
        overhead = statistics.median(r["bench_s"] for r in traced) - plain
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        metrics["trace.overhead_pct"] = {"value": 100.0 * overhead / plain, "unit": "%"}
    else:
        metrics = {
            "runs_per_s": {"value": unscaled["runs_per_s"] / scale, "unit": "1/s"},
            "setup_s": {"value": unscaled["setup_s"] * scale, "unit": "s"},
            "peak_rss_mb": {
                "value": statistics.median(r["peak_rss_mb"] for r in passes),
                "unit": "MB",
            },
        }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "machine": machine(),
        "loop_s": loop_s,
        "unscaled": unscaled,
        "passes": [
            {k: v for k, v in r.items() if k not in ("dir", "layers")} for r in passes
        ],
    }
    (runner.out / "result.json").write_text(json.dumps({**record, "metrics": metrics}, indent=2))
    print(json.dumps({k: record[k] for k in ("machine", "loop_s", "unscaled")} | {"passes": len(passes)}))
    print(
        json.dumps(
            {
                "correct": identical and not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
