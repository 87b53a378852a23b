"""Benchmark orchestration, gap metrics, and price-match accounting.

run_one runs one algorithm on one instance and returns the run's
RunRecord; the CLI's result JSON and every artifact are rendered from
that record. run_suite executes a config-driven grid of (instance,
algorithm) runs and writes three artifacts into an output directory:

* <suite>.runs.csv     one row per run, full metric set
* <suite>.summary.txt  group means in the (nodes, outlets, density) grid
* <suite>.long.csv     tidy (run, metric, value) rows for plotting

Outputs are deterministic for a fixed config: rows follow config order,
numbers are rendered canonically, and wall times are only recorded when
the config opts in (timing is measurement noise, not a result).
Failures are isolated per run; a run that times out or errors is recorded
with its status and the suite continues. An exact reference too large to
compute is left blank, and its instance's rows say why in their message.
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import dataclass, replace
from fractions import Fraction
from operator import attrgetter
from pathlib import Path
from statistics import fmean
from typing import Optional

from . import exact as exact_mod
from .heuristics import ALGORITHMS, HeuristicTimeout, run_algorithm, single_price
from .instgen import GenParams, generate, instance_label, load_instance
from .mip import (
    FEASIBLE_TIMEOUT,
    OPTIMAL,
    SolveFailed,
    SolverUnavailable,
    resolve_adapter,
    solve_ip,
)
from .model import (
    BMNPP,
    MNPP,
    Instance,
    _served,
    adjacency,
    demand_bmnpp,
    evaluate_prices,
)
from .money import (
    MONEY_SCALE,
    Money,
    MoneyError,
    money_str,
    number_str,
    parse_fraction,
    parse_money,
)

RUNS_SCHEMA = "netpricing-runs-v1"
LONG_SCHEMA = "netpricing-long-v1"

MIP_ALGORITHMS = ("ip1", "ip2")

STATUS_OK = "ok"
STATUS_TIMEOUT = "timeout"
STATUS_ERROR = "error"
STATUS_UNAVAILABLE = "unavailable"


class ConfigError(ValueError):
    """Malformed benchmark configuration."""


def opt_gap(revenue, best) -> Optional[float]:
    """Percent left on the table against a reference optimum.

    100 * (best - revenue) / best; None when the reference is not positive
    (the ratio would be meaningless).
    """
    best = float(best)
    if best <= 0:
        return None
    return 100.0 * (best - float(revenue)) / best


def gain_over_sp(revenue, sp_revenue) -> Optional[float]:
    """Percent improvement over the uniform-price score, None at zero."""
    sp_revenue = float(sp_revenue)
    if sp_revenue == 0:
        return None
    return 100.0 * (float(revenue) - sp_revenue) / sp_revenue


@dataclass(frozen=True)
class PmStats:
    """Captured-demand split between price matches and price wars."""

    pm_count: int
    pw_count: int
    d_pm: object
    d_pw: object
    r_pm: object
    r_pw: object

    @property
    def d_pm_pct(self) -> float:
        total = float(self.d_pm) + float(self.d_pw)
        return 100.0 * float(self.d_pm) / total if total > 0 else 0.0

    @property
    def r_pm_pct(self) -> float:
        total = float(self.r_pm) + float(self.r_pw)
        return 100.0 * float(self.r_pm) / total if total > 0 else 0.0


def pm_accounting(inst: Instance, prices) -> PmStats:
    """Classify each served demand node as a price match or a price war.

    The served nodes are evaluate_prices's, and a node's money is the
    revenue-table image entry evaluate_prices adds up for it. Each part
    is summed on the image and converted once, so under MNPP r_pm + r_pw
    is exactly the evaluated revenue of prices, and under BMNPP each part
    is its exact sum rounded once. An MNPP volume times the table's lcm
    (scale / MONEY_SCALE) is the entry over its price, an exact int, so
    the volumes are summed as ints and each made a Fraction once. A BMNPP
    volume is demand_bmnpp's float, summed in node order.
    """
    table, served = _served(inst, prices)
    grid, demands = inst.grid.prices, inst.demands
    mnpp = inst.model == MNPP
    edge_of = adjacency(inst)[2]
    pm_count = pw_count = 0
    raw_pm = raw_pw = 0
    d_pm = d_pw = 0 if mnpp else 0.0
    for e, f, m, entry in served:
        node, price = demands[e], grid[m]
        if mnpp:
            volume = entry // price
        else:
            volume = demand_bmnpp(node, edge_of[(e, f)], price, inst.grid)
        if price == node.c:
            pm_count += 1
            d_pm += volume
            raw_pm += entry
        else:
            pw_count += 1
            d_pw += volume
            raw_pw += entry
    if mnpp:
        lcm = table.scale // MONEY_SCALE
        d_pm, d_pw = Fraction(d_pm, lcm), Fraction(d_pw, lcm)
    return PmStats(
        pm_count, pw_count, d_pm, d_pw, table.revenue(raw_pm), table.revenue(raw_pw)
    )


def cross_model_gap(
    inst: Instance,
    prices,
    best_revenue=None,
) -> Optional[float]:
    """Logit revenue lost by using prices tuned for fixed-fraction demand.

    inst must carry logit coefficients, and may be either twin: both the
    achieved revenue of prices (which come from solving the fixed-fraction
    twin) and the default best_revenue, ladder_exact's best revenue over
    all outlet orderings, are scored under logit demand.
    """
    logit = replace(inst, model=BMNPP)
    achieved, _, _ = evaluate_prices(logit, prices)
    if best_revenue is None:
        best_revenue, _, _ = exact_mod.ladder_exact(logit)
    return opt_gap(achieved, best_revenue)


@dataclass
class RunRecord:
    instance_id: str
    model: str
    n_outlets: int
    n_demands: int
    density: float
    algorithm: str
    status: str
    revenue: object = None
    prices: Optional[tuple[Money, ...]] = None
    wall_time: Optional[float] = None
    pm: Optional[PmStats] = None
    r_opt: object = None
    r_sp: object = None
    message: str = ""
    ladder: Optional[tuple] = None

    @classmethod
    def of(cls, instance_id: str, inst: Instance, algorithm: str, status: str, **fields):
        """The record of algorithm on inst; fields are the run's outcome."""
        return cls(
            instance_id,
            inst.model,
            inst.n_outlets,
            inst.n_demands,
            inst.density,
            algorithm,
            status,
            **fields,
        )

    @property
    def opt_gap_pct(self) -> Optional[float]:
        if self.revenue is None or self.r_opt is None:
            return None
        return opt_gap(self.revenue, self.r_opt)

    @property
    def gain_over_sp_pct(self) -> Optional[float]:
        if self.revenue is None or self.r_sp is None:
            return None
        return gain_over_sp(self.revenue, self.r_sp)


_CONFIG_KEYS = (
    "suite_id",
    "instances",
    "algorithms",
    "exact",
    "time_limit",
    "solver_cmd",
    "record_times",
    "pi",
)


def load_config(path) -> dict:
    path = Path(path)
    try:
        config = json.loads(path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError(f"{path}: expected a JSON object")
    for key in config:
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{path}: unknown config field {key!r}")
    return config


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# A config generate block's keys, beside "seeds", and the GenParams field
# each sets; a key left out keeps the field's default.
_GENERATE_FIELDS = {
    "model": "model",
    "outlets": "n_outlets",
    "demands": "n_demands",
    "density": "density",
    "grid_min": "grid_min",
    "grid_max": "grid_max",
    "grid_step": "grid_step",
    "pi": "pi",
    "beta": "beta",
    "gamma": "gamma",
}


def _config_instances(config: dict, base_dir: Path) -> list[tuple[str, Instance]]:
    spec = config.get("instances")
    if not isinstance(spec, dict):
        raise ConfigError("config needs an 'instances' object")
    for key in spec:
        if key not in ("files", "generate"):
            raise ConfigError(f"instances: unknown field {key!r}")
    for key in ("files", "generate"):
        if not isinstance(spec.get(key, []), list):
            raise ConfigError(f"instances: {key!r} must be a list")
    out: list[tuple[str, Instance]] = []
    for entry in spec.get("files", []):
        if not isinstance(entry, str):
            raise ConfigError("instances: 'files' entries must be strings")
        path = Path(entry)
        if not path.is_absolute():
            path = base_dir / path
        inst = load_instance(path)
        out.append((path.stem, inst))
    for block in spec.get("generate", []):
        if not isinstance(block, dict):
            raise ConfigError("instances.generate entries must be objects")
        for key in block:
            if key != "seeds" and key not in _GENERATE_FIELDS:
                raise ConfigError(f"instances.generate: unknown field {key!r}")
        seeds = block.get("seeds", [0])
        if not isinstance(seeds, list) or not all(map(_is_int, seeds)):
            raise ConfigError("instances.generate: 'seeds' must be a list of integers")
        for key in ("outlets", "demands"):
            if key in block and not _is_int(block[key]):
                raise ConfigError(f"instances.generate: {key!r} must be an integer")
        if "density" in block and not _is_number(block["density"]):
            raise ConfigError("instances.generate: 'density' must be a number")
        given = {_GENERATE_FIELDS[k]: v for k, v in block.items() if k != "seeds"}
        for key in ("grid_min", "grid_max", "grid_step", "beta", "gamma"):
            if key in given:
                given[key] = str(given[key])
        for seed in seeds:
            inst = generate(GenParams(seed=seed, **given))
            out.append((instance_label(inst), inst))
    if not out:
        raise ConfigError("config selects no instances")
    return out


def run_one(
    inst: Instance,
    algorithm: str,
    adapter: Optional[str],
    time_limit: Optional[float],
    instance_id: str = "",
) -> RunRecord:
    """One (instance, algorithm) execution, as its record.

    ip1 and ip2 go to the solver, every other name to run_algorithm. The
    record's wall_time covers the whole run: selection and relaxation
    solves included, the price-match accounting of its prices left out.
    A solver status other than optimal or feasible-timeout, or a failed
    relaxation (SolveFailed), is an error run and a HeuristicTimeout a
    timeout run; every other failure, SolverUnavailable included, is
    raised. The reference scores r_opt and r_sp are left for the caller.
    """
    rec = RunRecord.of(instance_id, inst, algorithm, STATUS_OK)
    t0 = time.perf_counter()
    try:
        if algorithm in MIP_ALGORITHMS:
            outcome, prices = solve_ip(inst, algorithm, adapter, time_limit=time_limit)
            if outcome.status in (OPTIMAL, FEASIBLE_TIMEOUT):
                rec.revenue, rec.prices = outcome.objective, prices
                rec.message = outcome.message
                if outcome.status == FEASIBLE_TIMEOUT:
                    rec.status = STATUS_TIMEOUT
            else:
                rec.status = STATUS_ERROR
                rec.message = f"{outcome.status}: {outcome.message}"
        else:
            result = run_algorithm(inst, algorithm, time_limit=time_limit, adapter=adapter)
            rec.revenue, rec.prices, rec.ladder = result.revenue, result.prices, result.ladder
    except HeuristicTimeout as exc:
        rec.status, rec.message = STATUS_TIMEOUT, str(exc)
    except SolveFailed as exc:
        rec.status, rec.message = STATUS_ERROR, str(exc)
    rec.wall_time = time.perf_counter() - t0
    if rec.prices is not None:
        rec.pm = pm_accounting(inst, rec.prices)
    return rec


def _run_instance(
    iid: str,
    inst: Instance,
    algorithms: list[str],
    exact_method: Optional[str],
    adapter: Optional[str],
    time_limit: Optional[float],
) -> list[RunRecord]:
    """Runs, reference scores and PM accounting of one instance.

    All the work on one instance happens together: its revenue table,
    with the stage memo that the reference and every ladder heuristic
    share, is built once and kept on the instance, and run_suite lets the
    instance go when its records are made. A failed run is recorded, not
    raised. The sp reference is the sp run's revenue when that run
    succeeded.
    """
    records = []
    for alg in algorithms:
        try:
            rec = run_one(inst, alg, adapter, time_limit, iid)
        except SolverUnavailable as exc:
            rec = RunRecord.of(iid, inst, alg, STATUS_UNAVAILABLE, message=str(exc))
        except Exception as exc:  # isolate per-run failures
            message = f"{type(exc).__name__}: {exc}"
            rec = RunRecord.of(iid, inst, alg, STATUS_ERROR, message=message)
        records.append(rec)
    # A successful sp run has computed the sp reference already.
    sp = [r.revenue for r in records if r.algorithm == "sp" and r.status == STATUS_OK]
    r_sp = sp[0] if sp else single_price(inst)[1]
    r_opt = None
    skipped = ""
    try:
        if exact_method == "ladder":
            r_opt, _, _ = exact_mod.ladder_exact(inst)
        elif exact_method == "brute":
            r_opt, _ = exact_mod.brute_force(inst)
    except (exact_mod.TooManyOutlets, exact_mod.EnumerationTooLarge) as exc:
        skipped = f"reference skipped: {exc}"
    for rec in records:
        rec.r_opt, rec.r_sp = r_opt, r_sp
        rec.message = "; ".join(m for m in (rec.message, skipped) if m)
    return records


def run_suite(
    config: dict, out_dir, jobs: int = 1, base_dir=None
) -> tuple[dict, list[RunRecord]]:
    """Execute a benchmark config; returns (paths of the written artifacts,
    the run records they were written from)."""
    base_dir = Path(base_dir) if base_dir is not None else Path.cwd()
    suite_id = config.get("suite_id", "suite")
    if not isinstance(suite_id, str) or suite_id in ("", ".", "..") or (
        {"/", "\\"} & set(suite_id)
    ):
        raise ConfigError("config 'suite_id' must name a file in the output directory")
    algorithms = config.get("algorithms")
    if not isinstance(algorithms, list) or not algorithms:
        raise ConfigError("config needs a non-empty 'algorithms' list")
    for alg in algorithms:
        if alg not in ALGORITHMS and alg not in MIP_ALGORITHMS:
            raise ConfigError(f"unknown algorithm {alg!r}")
    exact_method = config.get("exact")
    if exact_method not in (None, "ladder", "brute"):
        raise ConfigError("config 'exact' must be 'ladder', 'brute', or null")
    record_times = config.get("record_times", False)
    if not isinstance(record_times, bool):
        raise ConfigError("config 'record_times' must be true or false")
    solver_cmd = config.get("solver_cmd")
    if solver_cmd is not None and not isinstance(solver_cmd, str):
        raise ConfigError("config 'solver_cmd' must be a string or null")
    time_limit = config.get("time_limit")
    if time_limit is not None and not (_is_number(time_limit) and 0 <= time_limit < math.inf):
        raise ConfigError("config 'time_limit' must be a finite non-negative number or null")
    try:
        pi = None if config.get("pi") is None else parse_money(config["pi"])
    except MoneyError as exc:
        raise ConfigError(f"config 'pi': {exc}") from exc

    # A config cap is one cap for the references and every run on an instance.
    shared = (algorithms, exact_method, resolve_adapter(solver_cmd), time_limit)
    tasks = [
        (iid, inst if pi is None else replace(inst, pi=pi), *shared)
        for iid, inst in _config_instances(config, base_dir)
    ]
    # Instances are handled one at a time, in config order.
    if jobs > 1 and len(tasks) > 1:
        # Imported here: multiprocessing is slow to load and only --jobs uses it.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            per_instance = list(pool.map(_run_instance, *zip(*tasks)))
    else:
        # Each instance keeps its revenue table, so each task is popped as
        # it runs: no finished instance stays alive.
        tasks.reverse()
        per_instance = [_run_instance(*tasks.pop()) for _ in range(len(tasks))]
    records = [rec for recs in per_instance for rec in recs]

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {
        "runs": out_dir / f"{suite_id}.runs.csv",
        "summary": out_dir / f"{suite_id}.summary.txt",
        "long": out_dir / f"{suite_id}.long.csv",
    }
    write_runs_csv(paths["runs"], records, record_times=record_times)
    write_summary(paths["summary"], f"suite {suite_id}", records)
    write_long_csv(paths["long"], records)
    return paths, records


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, float):
        return f"{value:.6f}"
    return number_str(value)


def _pm(name):
    return lambda rec: None if rec.pm is None else getattr(rec.pm, name)


# (column, cell) of a run's identity, the first columns of both CSVs.
_ID_COLUMNS = (
    ("instance", attrgetter("instance_id")),
    ("model", attrgetter("model")),
    ("n_outlets", attrgetter("n_outlets")),
    ("n_demands", attrgetter("n_demands")),
    ("density", lambda rec: f"{rec.density:.4f}"),
    ("algorithm", attrgetter("algorithm")),
)

# (column, cell) of a runs.csv row; each cell is rendered by _fmt.
_RUNS_COLUMNS = (
    *_ID_COLUMNS,
    *(
        (name, attrgetter(name))
        for name in ("status", "revenue", "r_opt", "r_sp", "opt_gap_pct", "gain_over_sp_pct")
    ),
    *(
        (name, _pm(name))
        for name in ("pm_count", "pw_count", "d_pm", "d_pw", "d_pm_pct")
        + ("r_pm", "r_pw", "r_pm_pct")
    ),
    ("prices", lambda rec: " ".join(map(money_str, rec.prices)) if rec.prices else None),
    ("message", attrgetter("message")),
)

# (metric, value) of a long.csv row; summarise takes the mean of every
# metric but revenue over a group's successful runs.
_METRICS = (
    ("revenue", attrgetter("revenue")),
    ("opt_gap_pct", attrgetter("opt_gap_pct")),
    ("gain_over_sp_pct", attrgetter("gain_over_sp_pct")),
    ("pm_count", _pm("pm_count")),
    ("d_pm_pct", _pm("d_pm_pct")),
    ("r_pm_pct", _pm("r_pm_pct")),
)


def write_runs_csv(path, records, record_times: bool = False):
    columns = _RUNS_COLUMNS + ((("wall_time", attrgetter("wall_time")),) if record_times else ())
    with open(Path(path), "w", encoding="utf-8", newline="") as out:
        out.write(f"# {RUNS_SCHEMA}\n")
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(name for name, _ in columns)
        for rec in records:
            writer.writerow(_fmt(cell(rec)) for _, cell in columns)


def write_long_csv(path, records):
    with open(Path(path), "w", encoding="utf-8", newline="") as out:
        out.write(f"# {LONG_SCHEMA}\n")
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow((*(name for name, _ in _ID_COLUMNS), "metric", "value"))
        for rec in records:
            key = [_fmt(cell(rec)) for _, cell in _ID_COLUMNS]
            for name, metric in _METRICS:
                value = metric(rec)
                if value is not None:
                    writer.writerow((*key, name, _fmt(value)))


def _mean(values) -> Optional[float]:
    values = [float(v) for v in values if v is not None]
    return fmean(values) if values else None


def summarise(records) -> list[dict]:
    """Group means in the (model, nodes, outlets, density) grid."""
    groups: dict[tuple, list[RunRecord]] = {}
    for rec in records:
        key = (rec.model, rec.n_demands, rec.n_outlets, round(rec.density, 4))
        groups.setdefault(key, []).append(rec)
    rows = []
    for key in sorted(groups):
        model, n_demands, n_outlets, density = key
        by_alg: dict[str, list[RunRecord]] = {}
        for rec in groups[key]:
            by_alg.setdefault(rec.algorithm, []).append(rec)
        for alg in sorted(by_alg):
            recs = by_alg[alg]
            done = [r for r in recs if r.status == STATUS_OK]
            row = {
                "model": model,
                "n_demands": n_demands,
                "n_outlets": n_outlets,
                "density": density,
                "algorithm": alg,
                "runs": len(recs),
                "ok": len(done),
                "timeouts": sum(1 for r in recs if r.status == STATUS_TIMEOUT),
            }
            for name, metric in _METRICS:
                if name != "revenue":
                    row[f"mean_{name}"] = _mean(map(metric, done))
            rows.append(row)
    return rows


def write_summary(path, title: str, records):
    path = Path(path)
    rows = summarise(records)
    col = (
        f"{'model':<6} {'N':>3} {'O':>3} {'dens':>6} {'alg':<8} {'runs':>4} "
        f"{'ok':>3} {'t/o':>3} {'gap%':>9} {'gainSP%':>9} {'PM#':>7} "
        f"{'dPM%':>7} {'rPM%':>7}"
    )
    lines = [f"{title}: {len(records)} runs", col, "-" * len(col)]

    def cell(value, width, digits=2):
        return f"{'':>{width}}" if value is None else f"{value:>{width}.{digits}f}"

    for row in rows:
        lines.append(
            f"{row['model']:<6} {row['n_demands']:>3} {row['n_outlets']:>3} "
            f"{row['density']:>6.2f} {row['algorithm']:<8} {row['runs']:>4} "
            f"{row['ok']:>3} {row['timeouts']:>3} "
            f"{cell(row['mean_opt_gap_pct'], 9)} "
            f"{cell(row['mean_gain_over_sp_pct'], 9)} "
            f"{cell(row['mean_pm_count'], 7)} "
            f"{cell(row['mean_d_pm_pct'], 7)} "
            f"{cell(row['mean_r_pm_pct'], 7)}"
        )
    if any(r.model == BMNPP and r.algorithm == "sp" for r in records):
        lines.append(
            "note: sp scores undercut revenue with the best outlet per node; "
            "under logit demand an equal-priced tie may serve a different "
            "outlet than the lowest-id rule used everywhere else."
        )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def read_runs_csv(path) -> list[dict]:
    """Read a runs CSV back into dict rows (strings as written)."""
    path = Path(path)
    with open(path, encoding="utf-8", newline="") as handle:
        first = handle.readline()
        if not first.startswith("#"):
            raise ConfigError(f"{path}: missing schema comment line")
        if RUNS_SCHEMA not in first:
            raise ConfigError(f"{path}: unsupported schema {first.strip()!r}")
        return list(csv.DictReader(handle))


def _csv_number(text: str):
    if text is None or text == "":
        return None
    try:
        return float(text)
    except ValueError:
        return float(parse_fraction(text))


def records_from_csv(path) -> list[RunRecord]:
    """Rebuild summarisable records from a runs CSV; a malformed one raises ConfigError."""
    records = []
    try:
        for row in read_runs_csv(path):
            rec = RunRecord(
                instance_id=row["instance"],
                model=row["model"],
                n_outlets=int(row["n_outlets"]),
                n_demands=int(row["n_demands"]),
                density=float(row["density"]),
                algorithm=row["algorithm"],
                status=row["status"],
                revenue=_csv_number(row["revenue"]),
                r_opt=_csv_number(row["r_opt"]),
                r_sp=_csv_number(row["r_sp"]),
                message=row.get("message", ""),
            )
            if row["pm_count"] != "":
                rec.pm = PmStats(
                    pm_count=int(row["pm_count"]),
                    pw_count=int(row["pw_count"]),
                    d_pm=_csv_number(row["d_pm"]),
                    d_pw=_csv_number(row["d_pw"]),
                    r_pm=_csv_number(row["r_pm"]),
                    r_pw=_csv_number(row["r_pw"]),
                )
            records.append(rec)
    except ConfigError:
        raise
    except (ValueError, KeyError, TypeError) as exc:  # bad UTF-8, a bad number, a short row
        raise ConfigError(f"{path}: not a runs CSV: {type(exc).__name__}: {exc}") from exc
    return records
