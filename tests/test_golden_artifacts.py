"""Bench and CLI artifacts pinned byte for byte against tests/golden.

The golden files hold every artifact of two small mnpp suites and two
result JSONs. MIP rows and bmnpp are left out, so the bytes depend on
neither the HiGHS version nor libm. Wall times are not recorded.

To rewrite the golden files after an intended output change, run

    PYTHONPATH=src python tests/test_golden_artifacts.py
"""

import sys
from pathlib import Path

from netpricing.bench import run_suite
from netpricing.cli import main

GOLDEN = Path(__file__).parent / "golden"
TINY = GOLDEN / "tiny_disjoint.json"
ALGORITHMS = ["sp", "greedy", "order", "fi", "greedyI", "orderI"]


def suite_config(suite_id, **overrides):
    config = {
        "suite_id": suite_id,
        "algorithms": ALGORITHMS,
        "exact": "ladder",
        "instances": {
            "files": [TINY.name],
            "generate": [
                {"outlets": 4, "demands": 8, "density": 0.5, "seeds": [1, 2]},
                # A coarse grid under a cap: some nodes are price matches.
                {
                    "outlets": 5,
                    "demands": 10,
                    "density": 0.4,
                    "seeds": [3],
                    "grid_step": "2.5",
                    "pi": "2",
                },
                # Past the ladder reference's outlet limit: the reference
                # is skipped and every row of the instance says so.
                {"outlets": 11, "demands": 6, "density": 0.5, "seeds": [4]},
            ],
        },
    }
    config.update(overrides)
    return config


def write_artifacts(out_dir: Path) -> list[str]:
    """Write every golden artifact into out_dir; returns the file names."""
    out_dir.mkdir(parents=True, exist_ok=True)
    names = []
    for config in (
        suite_config("golden"),
        suite_config("golden_timeout", time_limit=0),
    ):
        paths, _ = run_suite(config, out_dir, base_dir=GOLDEN)
        names += [Path(paths[kind]).name for kind in ("runs", "summary", "long")]
    for name, argv in (
        ("solve_fi.json", ["solve", "--alg", "fi"]),
        ("exact_ladder.json", ["exact", "--method", "ladder"]),
    ):
        assert main(argv + ["--in", str(TINY), "--out", str(out_dir / name)]) == 0
        names.append(name)
    return names


def test_artifacts_match_golden(tmp_path):
    names = write_artifacts(tmp_path)
    assert len(names) == 8
    for name in names:
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name


if __name__ == "__main__":
    for name in write_artifacts(GOLDEN):
        print(f"wrote {GOLDEN / name}", file=sys.stderr)
