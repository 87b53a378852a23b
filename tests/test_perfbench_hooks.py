"""The benchmark's per-layer tracer still reads every metric.

perfbench/layers.py wraps functions at the module attributes where their
callers look them up and reads their arguments by position, and reads a
built model's size through its variables and constraints. A rewrite of
those functions can leave a metric without a source, so that a traced
pass ends without a usable report. These tests install the tracer in a
fresh interpreter, run bench suites through the command line's entry
point and check that no metric reads as missing. They write nothing
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


def run_traced(script, args, tmp_path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(REPO / "src"), str(REPO / "perfbench")])
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


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
    report = run_traced(SCRIPT, [str(config_path), str(tmp_path / "out")], tmp_path)
    assert report["code"] == 0
    metrics = report["metrics"]
    assert [name for name, value in metrics.items() if value is None] == []
    assert metrics["exact.orderings"] == 2 * 24
    # Slots tried through heuristics.best_insertion, per 4-outlet instance:
    # fi 4*1 + 3*2 + 2*3 + 1*4 = 20, greedyI and orderI 1 + 2 + 3 + 4 = 10
    # each. An insertion that bypasses the module attribute reads fewer.
    assert metrics["heuristics.insertion_slots"] == 2 * (20 + 10 + 10)
    assert metrics["model.table_builds"] == 2


MIP_SCRIPT = """
import contextlib, io, json, sys
from pathlib import Path
import netpricing
import netpricing.cli
from layers import Tracer
from worker import set_up

tracer = Tracer(netpricing)
tracer.install()
pass_dir = Path(sys.argv[1])
codes = []
for cfg in set_up(netpricing, "mip-builtin", 1, pass_dir):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(netpricing.cli.main(
            ["bench", "--config", str(cfg), "--out-dir", str(pass_dir / "out"), "--jobs", "1"]
        ))
print(json.dumps({"codes": codes, "metrics": tracer.metrics()}))
"""


def test_traced_builtin_mip_bench_sizes_its_models(tmp_path):
    # The mip-builtin workload at seed 1: ip1 and ip2 on three tiny mnpp
    # instances, then an ip2I relaxation at 10 x 30. The counts are the
    # sizes of the models it builds and the number of solves; how a model
    # is stored must not change them.
    pass_dir = tmp_path / "pass"
    pass_dir.mkdir()
    report = run_traced(MIP_SCRIPT, [str(pass_dir)], tmp_path)
    assert report["codes"] == [0, 0]
    metrics = report["metrics"]
    sizes = {key: metrics[key] for key in ("mip.rows", "mip.cols", "mip.nnz", "mip.solves")}
    assert sizes == {"mip.rows": 7913, "mip.cols": 4546, "mip.nnz": 236883, "mip.solves": 7}
