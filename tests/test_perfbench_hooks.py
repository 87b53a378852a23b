"""The benchmark's per-layer tracer still reads every metric.

perfbench/layers.py wraps functions at the module attributes where their
callers look them up and reads their arguments by position. A rewrite of
those functions can leave a metric without a source, so that a traced
pass ends without a usable report. This test installs the tracer in a
fresh interpreter, runs a small bench suite through the command line's
entry point and checks that no metric reads as missing. It writes nothing
under perfbench/.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

SCRIPT = """
import contextlib, io, json, sys
import netpricing
import netpricing.cli
from layers import Tracer

tracer = Tracer(netpricing)
tracer.install()
with contextlib.redirect_stdout(io.StringIO()):
    code = netpricing.cli.main(
        ["bench", "--config", sys.argv[1], "--out-dir", sys.argv[2], "--jobs", "1"]
    )
print(json.dumps({"code": code, "metrics": tracer.metrics()}))
"""


def test_traced_bench_reads_every_metric(tmp_path):
    config = {
        "suite_id": "traced",
        "algorithms": ["sp", "greedy", "order", "fi", "greedyI", "orderI"],
        "exact": "ladder",
        "instances": {
            "generate": [
                {
                    "model": "mnpp",
                    "outlets": 4,
                    "demands": 6,
                    "density": 0.5,
                    "seeds": [0, 1],
                    "grid_max": "10",
                    "grid_step": "1",
                }
            ]
        },
    }
    config_path = tmp_path / "traced.config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(REPO / "src"), str(REPO / "perfbench")])
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(config_path), str(tmp_path / "out")],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["code"] == 0
    metrics = report["metrics"]
    assert [name for name, value in metrics.items() if value is None] == []
    assert metrics["exact.orderings"] == 2 * 24
    assert metrics["heuristics.insertion_slots"] > 0
    assert metrics["model.table_builds"] == 2
