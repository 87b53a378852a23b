"""Two reference measurements quoted in README.md.

    PYTHONPATH=src python3 perfbench/probes.py cache
    PYTHONPATH=src python3 perfbench/probes.py solver-start

``cache`` runs ``netpricing bench`` with ``sp`` and ``order`` on 60 and
on 70 bmnpp paper-grid instances of 5x15 (12 and 14 draws of the five
densities), each in a fresh interpreter, and prints the bench time and
the revenue-table cache misses. ``solver-start`` times five spawns of
``python -c "import netpricing.lpsolve, scipy.optimize"``, the start-up
every builtin solve pays, and prints their median.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

CACHE_CHILD = """
import json, sys, time
from pathlib import Path
import netpricing
from netpricing.cli import main
draws, out = int(sys.argv[1]), Path(sys.argv[2]).resolve()
files = []
for _, _, params, inst in netpricing.paper_grid("bmnpp", 1, draws):
    if (params.n_outlets, params.n_demands) > (5, 15):
        break
    files.append(str(netpricing.save_instance(inst, out / f"{len(files)}.json")))
config = out / "config.json"
config.write_text(json.dumps({"suite_id": "cache", "algorithms": ["sp", "order"],
                              "instances": {"files": files}}))
t0 = time.perf_counter()
code = main(["bench", "--config", str(config), "--out-dir", str(out), "--jobs", "1"])
info = netpricing.revenue_table.cache_info()
print(json.dumps({"instances": len(files), "bench_s": time.perf_counter() - t0,
                  "misses": info.misses, "code": code}), file=sys.stderr)
"""


def cache():
    for draws in (12, 14):
        with tempfile.TemporaryDirectory(dir=".") as out:
            proc = subprocess.run(
                [sys.executable, "-c", CACHE_CHILD, str(draws), out],
                capture_output=True, text=True, check=True,
            )
        print(proc.stderr.strip().splitlines()[-1])


def solver_start():
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import netpricing.lpsolve, scipy.optimize"],
            check=True, env=dict(os.environ),
        )
        times.append(time.perf_counter() - t0)
    print(json.dumps({"solver_start_s": statistics.median(times), "samples": times}))


if __name__ == "__main__":
    {"cache": cache, "solver-start": solver_start}[sys.argv[1]]()
