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
from dataclasses import replace
from pathlib import Path

from .bench import (
    STATUS_TIMEOUT,
    ConfigError,
    load_config,
    pm_accounting,
    records_from_csv,
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
from .heuristics import ALGORITHMS, HeuristicTimeout, run_algorithm
from .instgen import (
    GenParams,
    InstanceFormatError,
    generate,
    instance_label,
    load_instance,
    paper_grid,
    save_instance,
)
from .mip import (
    FEASIBLE_TIMEOUT,
    OPTIMAL,
    SolverUnavailable,
    resolve_adapter,
    solve_ip,
)
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


def _result_payload(
    instance_id: str,
    algorithm: str,
    status: str,
    revenue=None,
    prices=None,
    ladder=None,
    pm=None,
    wall_time=None,
    message: str = "",
) -> dict:
    payload = {
        "schema": RESULT_SCHEMA,
        "instance": instance_id,
        "algorithm": algorithm,
        "status": status,
        "revenue": None if revenue is None else number_str(revenue),
        "prices": None if prices is None else [money_str(p) for p in prices],
        "ladder": None if ladder is None else list(ladder),
    }
    if pm is not None:
        payload["pm"] = {
            "pm_count": pm.pm_count,
            "pw_count": pm.pw_count,
            "d_pm": number_str(pm.d_pm),
            "d_pw": number_str(pm.d_pw),
            "d_pm_pct": round(pm.d_pm_pct, 6),
            "r_pm_pct": round(pm.r_pm_pct, 6),
        }
    if wall_time is not None:
        payload["wall_time"] = wall_time
    if message:
        payload["message"] = message
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
    params = GenParams(
        model=args.model,
        n_outlets=args.outlets,
        n_demands=args.demands,
        density=args.density,
        seed=args.seed,
        grid_min=args.grid_min,
        grid_max=args.grid_max,
        grid_step=args.grid_step,
        beta=args.beta,
        gamma=args.gamma,
        pi=args.pi,
    )
    inst = generate(params)
    save_instance(inst, args.out)
    print(f"wrote {instance_label(inst)} to {args.out}")
    return EXIT_OK


def cmd_solve(args) -> int:
    inst = load_instance(args.input)
    instance_id = Path(args.input).stem
    if args.pi is not None:
        # One cap for every algorithm, MIP formulations and relaxations too.
        inst = replace(inst, pi=parse_money(args.pi))
    if args.alg in ("ip1", "ip2"):
        adapter = resolve_adapter(args.solver_cmd)
        if adapter is None:
            print(
                "error: --alg ip1/ip2 needs --solver-cmd or NETPRICING_SOLVER_CMD",
                file=sys.stderr,
            )
            return EXIT_SOLVER
        outcome, prices = solve_ip(inst, args.alg, adapter, time_limit=args.time_limit)
        if outcome.status not in (OPTIMAL, FEASIBLE_TIMEOUT):
            print(f"error: solver {outcome.status}: {outcome.message}", file=sys.stderr)
            return EXIT_SOLVER
        status = "ok" if outcome.status == OPTIMAL else STATUS_TIMEOUT
        pm = pm_accounting(inst, prices) if prices is not None else None
        payload = _result_payload(
            instance_id,
            args.alg,
            status,
            revenue=outcome.objective,
            prices=prices,
            pm=pm,
            wall_time=None,
            message=outcome.message,
        )
        if args.out:
            _write_result(args.out, payload)
        rev = "" if outcome.objective is None else f" revenue {outcome.objective:.4f}"
        print(f"{instance_id} {args.alg}: {status}{rev}")
        return EXIT_TIMEOUT if status == STATUS_TIMEOUT else EXIT_OK
    try:
        result = run_algorithm(
            inst,
            args.alg,
            time_limit=args.time_limit,
            adapter=resolve_adapter(args.solver_cmd),
        )
    except HeuristicTimeout as exc:
        payload = _result_payload(
            instance_id, args.alg, STATUS_TIMEOUT, message=str(exc)
        )
        if args.out:
            _write_result(args.out, payload)
        print(f"{instance_id} {args.alg}: timeout")
        return EXIT_TIMEOUT
    pm = pm_accounting(inst, result.prices) if result.ladder is not None else None
    payload = _result_payload(
        instance_id,
        args.alg,
        "ok",
        revenue=result.revenue,
        prices=result.prices,
        ladder=result.ladder,
        pm=pm,
        wall_time=result.wall_time if args.record_times else None,
    )
    if args.out:
        _write_result(args.out, payload)
    print(f"{instance_id} {args.alg}: ok revenue {number_str(result.revenue)}")
    return EXIT_OK


def cmd_exact(args) -> int:
    inst = load_instance(args.input)
    instance_id = Path(args.input).stem
    if args.method == "brute":
        revenue, prices = brute_force(inst, limit=args.limit)
        ladder = None
    else:
        revenue, ladder, prices = ladder_exact(inst)
    pm = pm_accounting(inst, prices)
    payload = _result_payload(
        instance_id,
        f"exact-{args.method}",
        "ok",
        revenue=revenue,
        prices=prices,
        ladder=ladder,
        pm=pm,
    )
    if args.out:
        _write_result(args.out, payload)
    print(f"{instance_id} exact-{args.method}: revenue {number_str(revenue)}")
    return EXIT_OK


def cmd_bench(args) -> int:
    config = load_config(args.config)
    paths = run_suite(
        config,
        args.out_dir,
        jobs=args.jobs,
        base_dir=Path(args.config).resolve().parent,
    )
    records = records_from_csv(paths["runs"])
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netpricing",
        description="Network min-pricing: generation, solving, benchmarking.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate an instance file")
    gen.add_argument("--model", choices=MODELS, default="mnpp")
    gen.add_argument("--outlets", type=int, default=5)
    gen.add_argument("--demands", type=int, default=15)
    gen.add_argument("--density", type=float, default=0.5)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--grid-min", default="0")
    gen.add_argument("--grid-max", default="25")
    gen.add_argument("--grid-step", default="0.5")
    gen.add_argument("--beta", default="0.5")
    gen.add_argument("--gamma", default="1")
    gen.add_argument("--pi", default=None, help="price spread cap, e.g. 2.50")
    gen.add_argument(
        "--paper-grid",
        action="store_true",
        help="emit the full 45-graph x 10-draw benchmark collection",
    )
    gen.add_argument("--out", required=True, help="file, or directory with --paper-grid")
    gen.set_defaults(func=cmd_generate)

    solve = sub.add_parser("solve", help="run one algorithm on an instance")
    solve.add_argument("--in", dest="input", required=True)
    solve.add_argument("--alg", choices=ALGORITHMS + ("ip1", "ip2"), required=True)
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
    bench.add_argument("--jobs", type=int, default=1)
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
        ValueError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except SolverUnavailable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
