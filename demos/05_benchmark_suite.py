"""A small benchmark suite end to end.

A suite is a JSON config naming the instances (files, generated, or
both), the algorithms to run, and an optional exact reference for gap
reporting. Running it produces three artifacts per suite: a runs CSV
with one row per (instance, algorithm), a long CSV with one
(run, metric, value) row per metric for plotting, and a plain-text
summary grouped by instance shape. Everything is seeded, so reruns are byte-identical.
"""

import json
import tempfile
from pathlib import Path

from netpricing import load_config, run_suite

CONFIG = {
    "suite_id": "demo",
    "algorithms": ["sp", "greedy", "order", "fi", "orderI"],
    "exact": "ladder",
    "instances": {
        "generate": [
            {
                "model": "mnpp",
                "outlets": 4,
                "demands": 8,
                "density": 0.5,
                "seeds": [0, 1, 2],
                "grid_max": "10",
                "grid_step": "0.5",
            },
            {
                "model": "bmnpp",
                "outlets": 4,
                "demands": 8,
                "density": 0.5,
                "seeds": [0, 1, 2],
                "grid_max": "10",
                "grid_step": "0.5",
            },
        ]
    },
}


def main():
    workdir = Path(tempfile.mkdtemp(prefix="netpricing_demo_"))
    config_path = workdir / "suite.json"
    config_path.write_text(json.dumps(CONFIG, indent=2))

    paths, records = run_suite(load_config(config_path), workdir / "out", jobs=1)
    print(f"{len(records)} runs -> {paths['runs'].parent}")
    print()
    print(Path(paths["summary"]).read_text())

    worst = max(records, key=lambda r: r.opt_gap_pct or 0.0)
    print(f"largest gap: {worst.algorithm} on {worst.instance_id} "
          f"({worst.opt_gap_pct:.2f}%)")


if __name__ == "__main__":
    main()
