"""One pass of a workload, in a fresh interpreter.

    PYTHONPATH=src python perfbench/worker.py WORKLOAD SEED PASS_DIR MODE

MODE is ``setup`` (set up, then exit), ``plain`` (set up, then the timed
bench pass) or ``traced`` (the same with per-layer spans). Set-up imports
netpricing, generates the workload's instances, saves them, loads them
back and writes one bench config per suite. The bench pass runs each
config through ``netpricing.cli.main(["bench", ...])``, the entry point of
``netpricing bench``.

The worker prints ``ready`` when set-up is done, so that the parent can
time set-up from the interpreter's start, and a JSON report at the end.

The worker also times a fixed pure-Python loop after set-up and after
each bench config; run.py scales its times by these (see run.py).
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

def emit(event: str, **fields):
    print(json.dumps({"event": event, **fields}), flush=True)


def calibration_loop() -> float:
    """Seconds a fixed loop of Fraction sums, tuple-keyed dict stores and
    integer arithmetic (the kinds of work netpricing's hot paths do) takes.

    The garbage collector is off meanwhile, so the loop's time does not
    depend on how many objects the program left on the heap.
    """
    gc.disable()
    try:
        t0 = time.perf_counter()
        total = Fraction(0)
        table = {}
        for i in range(40_000):
            total += Fraction(i % 97, 100)
            table[(i % 1000, i % 7)] = total
        acc = 0
        for i in range(400_000):
            acc += i * i % 7
        return time.perf_counter() - t0
    finally:
        gc.enable()


def set_up(np, workload: str, seed: int, pass_dir: Path) -> list[Path]:
    from workloads import WORKLOADS

    configs = []
    for suite_id, config, instances in WORKLOADS[workload](np, seed):
        inst_dir = pass_dir / "instances" / suite_id
        inst_dir.mkdir(parents=True)
        files = []
        for label, inst in instances:
            path = np.instgen.save_instance(inst, inst_dir / f"{label}.json")
            if np.instgen.load_instance(path) != inst:
                raise SystemExit(f"{path}: load(save(instance)) differs")
            files.append(str(path.relative_to(pass_dir)))
        cfg = {"suite_id": suite_id, **config, "instances": {"files": files}}
        cfg_path = pass_dir / f"{suite_id}.config.json"
        cfg_path.write_text(json.dumps(cfg, indent=2) + "\n", encoding="utf-8")
        configs.append(cfg_path)
    return configs


def main(argv) -> int:
    workload, seed, pass_dir, mode = argv[0], int(argv[1]), Path(argv[2]), argv[3]
    import netpricing
    import netpricing.cli

    tracer = None
    if mode == "traced":
        from layers import Tracer

        tracer = Tracer(netpricing)
        tracer.install()
    configs = set_up(netpricing, workload, seed, pass_dir)
    emit("ready", netpricing=str(Path(netpricing.__file__).resolve().parent))
    loops = [calibration_loop()]
    if mode == "setup":
        emit("done", loop_s=loops)
        return 0

    bench_s = 0.0
    for cfg in configs:
        if tracer is not None:
            span = tracer.open("pass")
        captured = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(captured):
            code = netpricing.cli.main(
                ["bench", "--config", str(cfg), "--out-dir", str(pass_dir / "out"), "--jobs", "1"]
            )
        bench_s += time.perf_counter() - t0
        if tracer is not None:
            tracer.close(span)
        loops.append(calibration_loop())
        if code != 0:
            raise SystemExit(f"bench {cfg.name} exited {code}: {captured.getvalue()}")

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    report = {
        "bench_s": bench_s,
        "loop_s": loops,
        "peak_rss_mb": max(own, children) / 1024.0,
    }
    if tracer is not None:
        report["layers"] = tracer.metrics()
        tracer.write(pass_dir / "trace.jsonl")
    emit("done", **report)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
