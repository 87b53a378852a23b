"""Per-layer spans recorded from outside netpricing.

Each traced function is replaced at the module attribute where its
callers look it up (``dp_prices`` is wrapped as
``netpricing.heuristics.dp_prices``, ``netpricing.ladder.dp_prices`` and
``netpricing.exact.dp_prices``), so the program itself is not changed.
Only names that ``netpricing.__all__`` exports are wrapped. A name that
a later version drops, or a counter whose source is gone, turns the
metrics it feeds into missing ones instead of failing the run.

Spans are kept in memory as (name, start, end, parent) and written out
when the pass ends. A layer's self time is its span minus the child spans
inside it; the pass is serial, so children never overlap.
"""

from __future__ import annotations

import inspect
import json
import math
import resource
import time
from collections import defaultdict
from pathlib import Path

# (module, attribute) pairs where callers look each traced function up.
TARGETS = {
    "instgen.generate": [("instgen", "generate"), ("instgen", "paper_grid")],
    "instgen.save": [("instgen", "save_instance")],
    "instgen.load": [("instgen", "load_instance"), ("bench", "load_instance")],
    "model.revenue_table": [
        ("model", "revenue_table"),
        ("ladder", "revenue_table"),
        ("heuristics", "revenue_table"),
    ],
    "model.evaluate_prices": [
        ("model", "evaluate_prices"),
        ("exact", "evaluate_prices"),
        ("bench", "evaluate_prices"),
    ],
    "ladder.dp": [
        ("ladder", "dp_prices"),
        ("heuristics", "dp_prices"),
        ("exact", "dp_prices"),
    ],
    "ladder.allocate": [("heuristics", "allocate"), ("exact", "allocate")],
    "heuristics": [("bench", "run_algorithm")],
    "heuristics.insertion_slots": [("heuristics", "best_insertion")],
    "exact.ladder_exact": [("exact", "ladder_exact")],
    "exact.brute_force": [("exact", "brute_force")],
    "mip.build": [("mip", "build_ip1"), ("mip", "build_ip2")],
    "mip.lp_write": [("mip", "write_lp")],
    "mip.solve": [("mip", "solve_external")],
    "bench.references": [("bench", "single_price")],
    "bench.pm_accounting": [("bench", "pm_accounting")],
    "bench.write": [("bench", "write_runs_csv"), ("bench", "write_summary")],
    "bench.run_suite": [("cli", "run_suite")],
}

HEURISTICS = ("sp", "greedy", "order", "fi", "greedyI", "orderI", "ip2I")

# Self-time metrics not named "<span>_s".
SPAN_METRICS = {"mip.solve": "mip.solve_wait_s", "bench.run_suite": "bench.self_s"}

# metric name -> (unit, the TARGETS entries it needs)
METRICS = {
    "instgen.generate_s": ("s", ["instgen.generate"]),
    "instgen.save_s": ("s", ["instgen.save"]),
    "instgen.load_s": ("s", ["instgen.load"]),
    "model.revenue_table_calls": ("count", ["model.revenue_table"]),
    "model.revenue_table_s": ("s", ["model.revenue_table"]),
    "model.table_builds": ("count", ["model.revenue_table", "cache_info"]),
    "model.table_builds_per_instance": ("ratio", ["model.revenue_table", "cache_info"]),
    "model.evaluate_prices_calls": ("count", ["model.evaluate_prices"]),
    "model.evaluate_prices_s": ("s", ["model.evaluate_prices"]),
    "ladder.dp_calls": ("count", ["ladder.dp"]),
    "ladder.dp_cells": ("count", ["ladder.dp", "dp_arguments"]),
    "ladder.dp_s": ("s", ["ladder.dp"]),
    "ladder.dp_cells_per_s": ("1/s", ["ladder.dp", "dp_arguments"]),
    "ladder.allocate_s": ("s", ["ladder.allocate"]),
    **{f"heuristics.{alg}_s": ("s", ["heuristics"]) for alg in HEURISTICS},
    "heuristics.insertion_slots": ("count", ["heuristics.insertion_slots"]),
    "exact.ladder_exact_s": ("s", ["exact.ladder_exact"]),
    "exact.orderings": ("count", ["exact.ladder_exact"]),
    "exact.brute_force_s": ("s", ["exact.brute_force"]),
    "mip.build_s": ("s", ["mip.build"]),
    "mip.rows": ("count", ["mip.build", "model_size"]),
    "mip.cols": ("count", ["mip.build", "model_size"]),
    "mip.nnz": ("count", ["mip.build", "model_size"]),
    "mip.lp_write_s": ("s", ["mip.lp_write"]),
    "mip.lp_bytes": ("bytes", ["mip.lp_write"]),
    "mip.solves": ("count", ["mip.solve"]),
    "mip.solve_wait_s": ("s", ["mip.solve"]),
    "mip.solver_cpu_s": ("s", ["mip.solve"]),
    "bench.references_s": ("s", ["bench.references"]),
    "bench.pm_accounting_s": ("s", ["bench.pm_accounting"]),
    "bench.write_s": ("s", ["bench.write"]),
    "bench.self_s": ("s", ["bench.run_suite"]),
}


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


class Tracer:
    """Spans and counters for one pass, installed by wrapping attributes."""

    def __init__(self, netpricing):
        self.np = netpricing
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(int)
        self.installed: set[str] = set()
        self.broken: set[str] = set()
        self.tables: dict[tuple, object] = {}
        self._windows: dict[tuple, int] = {}

    # -- spans ---------------------------------------------------------
    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        index = len(self.spans) - 1
        self.stack.append(index)
        return index

    def close(self, index: int):
        self.spans[index][2] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, layer, module, attr, name_of, before=None, after=None, span=True):
        """Replace module.attr with a wrapper; returns the original.

        A hook that fails marks its layer broken, so that the metrics it
        feeds read missing, and the wrapped call still runs.
        """
        original = getattr(module, attr)
        tracer = self

        def hook(fn, *args):
            try:
                return fn(*args)
            except Exception:
                tracer.broken.add(layer)
                return layer

        def traced(*args, **kwargs):
            if before is not None:
                hook(before, args, kwargs)
            if not span:
                return original(*args, **kwargs)
            index = tracer.open(hook(name_of, args, kwargs))
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(index)
            if after is not None:
                hook(after, args, kwargs, result)
            return result

        def traced_generator(*args, **kwargs):
            items = original(*args, **kwargs)
            while True:
                index = tracer.open(layer)
                try:
                    item = next(items)
                except StopIteration:
                    return
                finally:
                    tracer.close(index)
                yield item

        wrapper = traced_generator if inspect.isgeneratorfunction(original) else traced
        wrapper.__wrapped__ = original
        setattr(module, attr, wrapper)
        return original

    def install(self):
        np = self.np
        exported = set(getattr(np, "__all__", ()))
        hooks = {
            "model.revenue_table": dict(before=self._on_table),
            "model.evaluate_prices": dict(before=self._count("model.evaluate_prices_calls")),
            "ladder.dp": dict(before=self._on_dp),
            "heuristics": dict(name_of=lambda a, k: "heuristics." + _arg(a, k, 1, "algorithm")),
            "heuristics.insertion_slots": dict(before=self._on_insertion, span=False),
            "exact.ladder_exact": dict(before=self._on_ladder_exact),
            "mip.build": dict(after=self._on_build),
            "mip.lp_write": dict(after=self._on_lp_write),
            "mip.solve": dict(before=self._on_solve_start, after=self._on_solve_end),
        }
        self._table_fn = None
        for layer, places in TARGETS.items():
            for module_name, attr in places:
                module = getattr(np, module_name, None)
                if attr not in exported or module is None or not callable(
                    getattr(module, attr, None)
                ):
                    continue
                options = dict(hooks.get(layer, {}))
                options.setdefault("name_of", lambda a, k, layer=layer: layer)
                original = self._wrap(layer, module, attr, **options)
                if layer == "model.revenue_table":
                    self._table_fn = original
                self.installed.add(layer)
        if self._table_fn is not None and hasattr(self._table_fn, "cache_info"):
            self._misses0 = self._table_fn.cache_info().misses
            self.installed.add("cache_info")
        self.installed.update(("dp_arguments", "model_size"))

    # -- counters --------------------------------------------------------
    def _count(self, name):
        def hook(args, kwargs):
            self.counts[name] += 1

        return hook

    def _on_table(self, args, kwargs):
        self.counts["model.revenue_table_calls"] += 1
        inst = _arg(args, kwargs, 0, "inst")
        model = _arg(args, kwargs, 1, "model")
        # Holding the instance keeps its id from being reused.
        self.tables.setdefault((id(inst), model), inst)

    def _on_dp(self, args, kwargs):
        self.counts["ladder.dp_calls"] += 1
        try:
            inst = _arg(args, kwargs, 0, "inst")
            ladder = _arg(args, kwargs, 1, "ladder")
            n_active = _arg(args, kwargs, 3, "n_active", None)
            pi = _arg(args, kwargs, 4, "pi", None)
            n_active = len(ladder) if n_active is None else n_active
            self.counts["ladder.dp_cells"] += n_active * self._window_cells(inst.grid.prices, pi)
        except (AttributeError, IndexError, KeyError, TypeError):
            self.broken.add("dp_arguments")

    def _window_cells(self, grid, pi) -> int:
        """Grid cells per ladder position: the full grid, or with a spread
        cap the sum of every window [p, p + pi] over floor prices p."""
        key = (grid, pi)
        if key not in self._windows:
            if pi is None:
                cells = len(grid)
            else:
                cells, hi = 0, 0
                for lo in range(len(grid)):
                    hi = max(hi, lo)
                    while hi + 1 < len(grid) and grid[hi + 1] - grid[lo] <= pi:
                        hi += 1
                    cells += hi - lo + 1
            self._windows[key] = cells
        return self._windows[key]

    def _on_insertion(self, args, kwargs):
        self.counts["heuristics.insertion_slots"] += len(_arg(args, kwargs, 1, "ladder")) + 1

    def _on_ladder_exact(self, args, kwargs):
        self.counts["exact.orderings"] += math.factorial(_arg(args, kwargs, 0, "inst").n_outlets)

    def _on_build(self, args, kwargs, model):
        try:
            rows = model.constraints
            self.counts["mip.rows"] += len(rows)
            self.counts["mip.cols"] += len(model.variables)
            self.counts["mip.nnz"] += sum(len(row.terms) for row in rows)
        except (AttributeError, TypeError):
            self.broken.add("model_size")

    def _on_lp_write(self, args, kwargs, path):
        self.counts["mip.lp_bytes"] += Path(path).stat().st_size

    def _on_solve_start(self, args, kwargs):
        self.counts["mip.solves"] += 1
        self._cpu0 = _children_cpu()

    def _on_solve_end(self, args, kwargs, outcome):
        self.counts["mip.solver_cpu_s"] += _children_cpu() - self._cpu0

    # -- results ----------------------------------------------------------
    def self_times(self) -> dict[str, float]:
        totals: dict[str, float] = defaultdict(float)
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        for (name, start, end, _), inner in zip(self.spans, covered):
            totals[name] += end - start - inner
        return totals

    def metrics(self) -> dict[str, object]:
        """Metric name -> value, or None where the source is missing."""
        values = dict(self.counts)
        for span, seconds in self.self_times().items():
            values[SPAN_METRICS.get(span, span + "_s")] = seconds
        if "cache_info" in self.installed:
            builds = self._table_fn.cache_info().misses - self._misses0
            values["model.table_builds"] = builds
            values["model.table_builds_per_instance"] = builds / max(1, len(self.tables))
        dp_s = values.get("ladder.dp_s", 0.0)
        cells = values.get("ladder.dp_cells", 0)
        values["ladder.dp_cells_per_s"] = cells / dp_s if dp_s > 0 else 0.0
        out = {}
        for name, (_, needs) in METRICS.items():
            ok = all(n in self.installed and n not in self.broken for n in needs)
            out[name] = values.get(name, 0) if ok else None
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent in self.spans:
                handle.write(json.dumps([name, start, end, parent]) + "\n")


def _arg(args, kwargs, position, name, default=KeyError):
    if name in kwargs:
        return kwargs[name]
    if position < len(args):
        return args[position]
    if default is KeyError:
        raise KeyError(name)
    return default
