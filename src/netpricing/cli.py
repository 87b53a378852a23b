"""Command line entry points.

Subcommands: generate, solve, exact, bench, report. Exit codes are part
of the interface: 0 success, 2 usage errors, 3 unreadable or malformed
inputs, 4 solver unavailable or failed, 5 timeout (a single timed-out
solve, or a bench where every run timed out).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields, replace
from pathlib import Path

from .bench import (
    MIP_ALGORITHMS,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_TIMEOUT,
    ConfigError,
    RunRecord,
    load_config,
    pm_accounting,
    records_from_csv,
    run_one,
    run_suite,
    write_summary,
)
from .exact import (
    ENUMERATION_LIMIT,
    EnumerationTooLarge,
    TooManyOutlets,
    brute_force,
    ladder_exact,
)
from .heuristics import ALGORITHMS
from .instgen import (
    GenParams,
    InstanceFormatError,
    generate,
    instance_label,
    load_instance,
    paper_grid,
    save_instance,
)
from .mip import ModelError, SolverUnavailable, resolve_adapter
from .model import MODELS, InvalidInstance
from .money import MoneyError, money_str, number_str, parse_money

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_SOLVER = 4
EXIT_TIMEOUT = 5

RESULT_SCHEMA = "netpricing-result-v1"


def _write_result(path, payload: dict):
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def _result_payload(rec: RunRecord, record_times: bool = False) -> dict:
    payload = {
        "schema": RESULT_SCHEMA,
        "instance": rec.instance_id,
        "algorithm": rec.algorithm,
        "status": rec.status,
        "revenue": None if rec.revenue is None else number_str(rec.revenue),
        "prices": None if rec.prices is None else [money_str(p) for p in rec.prices],
        "ladder": None if rec.ladder is None else list(rec.ladder),
    }
    pm = rec.pm
    if pm is not None:
        payload["pm"] = {
            "pm_count": pm.pm_count,
            "pw_count": pm.pw_count,
            "d_pm": number_str(pm.d_pm),
            "d_pw": number_str(pm.d_pw),
            "d_pm_pct": round(pm.d_pm_pct, 6),
            "r_pm_pct": round(pm.r_pm_pct, 6),
        }
    if record_times:
        payload["wall_time"] = rec.wall_time
    if rec.message:
        payload["message"] = rec.message
    return payload


def cmd_generate(args) -> int:
    if args.paper_grid:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        count = 0
        for _, draw, _, inst in paper_grid(args.model, args.seed):
            name = f"{instance_label(inst)}_d{draw}.json"
            save_instance(inst, out_dir / name)
            count += 1
        print(f"wrote {count} instances to {out_dir}")
        return EXIT_OK
    names = {f.name for f in fields(GenParams)}
    inst = generate(GenParams(**{k: v for k, v in vars(args).items() if k in names}))
    save_instance(inst, args.out)
    print(f"wrote {instance_label(inst)} to {args.out}")
    return EXIT_OK


def cmd_solve(args) -> int:
    inst = load_instance(args.input)
    instance_id = Path(args.input).stem
    if args.pi is not None:
        # One cap for every algorithm, MIP formulations and relaxations too.
        inst = replace(inst, pi=parse_money(args.pi))
    rec = run_one(inst, args.alg, resolve_adapter(args.solver_cmd), args.time_limit, instance_id)
    if rec.status == STATUS_ERROR:
        print(f"error: solver {rec.message}", file=sys.stderr)
        return EXIT_SOLVER
    if args.out:
        _write_result(args.out, _result_payload(rec, args.record_times))
    revenue = "" if rec.revenue is None else f" revenue {number_str(rec.revenue)}"
    print(f"{instance_id} {args.alg}: {rec.status}{revenue}")
    return EXIT_TIMEOUT if rec.status == STATUS_TIMEOUT else EXIT_OK


def cmd_exact(args) -> int:
    inst = load_instance(args.input)
    if args.method == "brute":
        revenue, prices = brute_force(inst, limit=args.limit)
        ladder = None
    else:
        revenue, ladder, prices = ladder_exact(inst)
    rec = RunRecord.of(
        Path(args.input).stem,
        inst,
        f"exact-{args.method}",
        STATUS_OK,
        revenue=revenue,
        prices=prices,
        ladder=ladder,
        pm=pm_accounting(inst, prices),
    )
    if args.out:
        _write_result(args.out, _result_payload(rec))
    print(f"{rec.instance_id} {rec.algorithm}: revenue {number_str(revenue)}")
    return EXIT_OK


def cmd_bench(args) -> int:
    config = load_config(args.config)
    paths, records = run_suite(
        config,
        args.out_dir,
        jobs=args.jobs,
        base_dir=Path(args.config).resolve().parent,
    )
    print(f"wrote {paths['runs']}")
    print(f"wrote {paths['summary']}")
    print(f"wrote {paths['long']}")
    if records and all(r.status == STATUS_TIMEOUT for r in records):
        print("every run timed out", file=sys.stderr)
        return EXIT_TIMEOUT
    return EXIT_OK


def cmd_report(args) -> int:
    runs_dir = Path(args.runs)
    files = sorted(runs_dir.glob("*.runs.csv"))
    if not files:
        print(f"error: no *.runs.csv under {runs_dir}", file=sys.stderr)
        return EXIT_INPUT
    records = []
    for path in files:
        records.extend(records_from_csv(path))
    write_summary(args.out, f"report over {len(files)} suites", records)
    print(f"wrote {args.out} ({len(records)} runs)")
    return EXIT_OK


def _seconds(text: str) -> float:
    value = float(text)
    if not value >= 0:  # also false for NaN
        raise argparse.ArgumentTypeError(f"{text!r} is not a non-negative number")
    return value


def _jobs(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive job count")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netpricing",
        description="Network min-pricing: generation, solving, benchmarking.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate an instance file")
    gen.add_argument("--model", choices=MODELS, default=GenParams.model)
    gen.add_argument("--outlets", dest="n_outlets", type=int, default=GenParams.n_outlets)
    gen.add_argument("--demands", dest="n_demands", type=int, default=GenParams.n_demands)
    gen.add_argument("--density", type=float, default=GenParams.density)
    gen.add_argument("--seed", type=int, default=GenParams.seed)
    gen.add_argument("--grid-min", default=GenParams.grid_min)
    gen.add_argument("--grid-max", default=GenParams.grid_max)
    gen.add_argument("--grid-step", default=GenParams.grid_step)
    gen.add_argument("--beta", default=GenParams.beta)
    gen.add_argument("--gamma", default=GenParams.gamma)
    gen.add_argument("--pi", default=GenParams.pi, help="price spread cap, e.g. 2.50")
    gen.add_argument(
        "--paper-grid",
        action="store_true",
        help="emit the full 45-graph x 10-draw benchmark collection",
    )
    gen.add_argument("--out", required=True, help="file, or directory with --paper-grid")
    gen.set_defaults(func=cmd_generate)

    solve = sub.add_parser("solve", help="run one algorithm on an instance")
    solve.add_argument("--in", dest="input", required=True)
    solve.add_argument("--alg", choices=ALGORITHMS + MIP_ALGORITHMS, required=True)
    solve.add_argument("--out", default=None, help="result JSON path")
    solve.add_argument(
        "--pi", default=None, help="price spread cap; default: the instance's own"
    )
    solve.add_argument("--time-limit", type=_seconds, default=None)
    solve.add_argument("--solver-cmd", default=None)
    solve.add_argument("--record-times", action="store_true")
    solve.set_defaults(func=cmd_solve)

    ex = sub.add_parser("exact", help="solve an instance exactly")
    ex.add_argument("--in", dest="input", required=True)
    ex.add_argument("--method", choices=("brute", "ladder"), default="brute")
    ex.add_argument("--limit", type=int, default=ENUMERATION_LIMIT)
    ex.add_argument("--out", default=None)
    ex.set_defaults(func=cmd_exact)

    bench = sub.add_parser("bench", help="run a benchmark config")
    bench.add_argument("--config", required=True)
    bench.add_argument("--out-dir", required=True)
    bench.add_argument("--jobs", type=_jobs, default=1)
    bench.set_defaults(func=cmd_bench)

    report = sub.add_parser("report", help="aggregate runs CSVs into a summary")
    report.add_argument("--runs", required=True, help="directory of *.runs.csv files")
    report.add_argument("--out", required=True)
    report.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (
        InstanceFormatError,
        ConfigError,
        MoneyError,
        InvalidInstance,
        EnumerationTooLarge,
        TooManyOutlets,
        ModelError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except SolverUnavailable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
