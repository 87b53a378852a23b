"""Shipped guarantees, one test per criterion.

Each test's first docstring line is echoed with its outcome in the
terminal summary, so a full run doubles as the acceptance report.
Batteries are seeded and sized so the whole module stays in the
low minutes on one core.
"""

import importlib.util
import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path
from statistics import mean

import pytest

from netpricing import (
    ALGORITHMS,
    GenParams,
    Rng,
    brute_force,
    cross_model_gap,
    dp_prices,
    generate,
    ladder_exact,
    load_instance,
    pm_accounting,
    revenue_table,
    run_algorithm,
    save_instance,
    solve_ip,
)
from netpricing.mip import BUILTIN_SOLVER, OPTIMAL, build_ip2, lp_text, resolve_adapter

from tests.test_ladder import enumerate_ladder_optimum
from netpricing.cli import main as cli_main

GOLDEN = Path(__file__).parent / "golden"
DENSITIES = (0.9, 0.75, 0.5, 0.25, 0.1)

POOL_WORKERS = 8


def tiny_instance(i: int, model: str):
    """Battery member i: at most 3 outlets, 6 demand nodes, 11 grid prices."""
    return generate(
        GenParams(
            model=model,
            n_outlets=1 + i % 3,
            n_demands=1 + i % 6,
            density=DENSITIES[i % 5],
            seed=i,
            grid_max="10",
            grid_step="1",
        )
    )


def solver_or_skip():
    adapter = resolve_adapter(None)
    if adapter is None and importlib.util.find_spec("scipy") is not None:
        adapter = resolve_adapter(BUILTIN_SOLVER)
    if adapter is None:
        pytest.skip("no solver adapter configured (set NETPRICING_SOLVER_CMD)")
    return adapter


def test_c1_ladder_exact_agrees_with_brute_force():
    """C1: ladder_exact == brute_force exactly on 200 seeded tiny mnpp instances, under 60 s."""
    start = time.monotonic()
    for i in range(200):
        inst = tiny_instance(i, "mnpp")
        rev_brute, _ = brute_force(inst)
        rev_ladder, _, _ = ladder_exact(inst)
        assert rev_ladder == rev_brute, f"instance {i}: {rev_ladder} != {rev_brute}"
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"oracle battery took {elapsed:.1f}s"


def test_c2_dp_matches_exhaustive_enumeration():
    """C2: dp_prices equals exhaustive non-decreasing enumeration on 100 random ladder/allocation pairs."""
    for i in range(100):
        inst = generate(
            GenParams(
                model="mnpp",
                n_outlets=4,
                n_demands=5,
                density=0.7,
                seed=i,
                grid_max="7",
                grid_step="1",
            )
        )
        rng = Rng(1000 + i)
        ladder = list(range(inst.n_outlets))
        for k in range(len(ladder) - 1, 0, -1):
            j = rng.randbelow(k + 1)
            ladder[k], ladder[j] = ladder[j], ladder[k]
        n_active = 1 + rng.randbelow(3)
        active = set(ladder[:n_active])
        assignment = {}
        for edge in inst.edges:
            if edge.f in active and edge.e not in assignment and rng.random() < 0.8:
                assignment[edge.e] = edge.f
        pi = None if i % 3 else 200
        _, rev_dp = dp_prices(replace(inst, pi=pi), ladder[:n_active], assignment)
        rev_ref = enumerate_ladder_optimum(inst, ladder[:n_active], assignment, pi=pi)
        assert rev_dp == rev_ref, f"pair {i}: {rev_dp} != {rev_ref}"


def test_c3_mip_objectives_agree_with_brute_force():
    """C3: ip1 and ip2 match brute force on 50 tiny mnpp (rel 1e-6) and ip2 on 50 tiny bmnpp (rel 1e-4)."""
    adapter = solver_or_skip()

    def check_mnpp(i):
        inst = tiny_instance(i, "mnpp")
        best = float(brute_force(inst)[0])
        rels = []
        for formulation in ("ip1", "ip2"):
            outcome, _ = solve_ip(inst, formulation, adapter)
            assert outcome.status == OPTIMAL, (i, formulation, outcome.message)
            rels.append(abs(outcome.objective - best) / max(1.0, abs(best)))
        return max(rels)

    def check_bmnpp(i):
        inst = tiny_instance(i, "bmnpp")
        best = brute_force(inst)[0]
        outcome, _ = solve_ip(inst, "ip2", adapter)
        assert outcome.status == OPTIMAL, (i, outcome.message)
        return abs(outcome.objective - best) / max(1.0, abs(best))

    with ThreadPoolExecutor(max_workers=POOL_WORKERS) as pool:
        rels_mnpp = list(pool.map(check_mnpp, range(50)))
        rels_bmnpp = list(pool.map(check_bmnpp, range(50)))
    assert max(rels_mnpp) <= 1e-6, f"worst mnpp gap {max(rels_mnpp):.2e}"
    assert max(rels_bmnpp) <= 1e-4, f"worst bmnpp gap {max(rels_bmnpp):.2e}"
    # Grid-price ties can route a node to a different equally cheap outlet
    # than the evaluator's lowest-index rule, so small positive deviations
    # are possible under bmnpp; report how many showed up.
    ties = sum(r > 1e-9 for r in rels_bmnpp)
    print(f"bmnpp deviations above 1e-9: {ties} (max rel {max(rels_bmnpp):.2e})")


def test_c4_heuristics_never_beat_the_optimum():
    """C4: brute >= fi >= sp exactly on the mnpp battery; every heuristic <= brute on the bmnpp battery."""
    for i in range(200):
        inst = tiny_instance(i, "mnpp")
        best = brute_force(inst)[0]
        rev_fi = run_algorithm(inst, "fi").revenue
        rev_sp = run_algorithm(inst, "sp").revenue
        assert best >= rev_fi >= rev_sp, (i, best, rev_fi, rev_sp)

    adapter = resolve_adapter(BUILTIN_SOLVER)
    algorithms = [a for a in ALGORITHMS if a != "ip1I"]  # ip1 covers mnpp only
    if adapter is None:
        algorithms.remove("ip2I")
        print("no solver adapter: bmnpp battery runs without ip2I")

    def check(i):
        inst = tiny_instance(i, "bmnpp")
        best = brute_force(inst)[0]
        for alg in algorithms:
            rev = run_algorithm(inst, alg, adapter=adapter).revenue
            assert rev <= best * (1 + 1e-9) + 1e-9, (i, alg, rev, best)

    with ThreadPoolExecutor(max_workers=POOL_WORKERS) as pool:
        list(pool.map(check, range(30)))


def test_c5_logit_model_matches_more_and_gap_is_positive():
    """C5: bmnpp optima price-match more often than mnpp; cross-model gap has mean > 0 and max > mean."""
    pm_mnpp, pm_bmnpp, gaps = [], [], []
    for n_outlets in (3, 5):
        for n_demands in (6, 10):
            for seed in range(100):
                kwargs = dict(
                    n_outlets=n_outlets,
                    n_demands=n_demands,
                    density=DENSITIES[seed % 5],
                    seed=seed,
                )
                twin_m = generate(GenParams(model="mnpp", **kwargs))
                twin_b = generate(GenParams(model="bmnpp", **kwargs))
                rev_m, _, prices_m = ladder_exact(twin_m)
                rev_b, _, prices_b = ladder_exact(twin_b)
                pm_mnpp.append(pm_accounting(twin_m, prices_m).pm_count)
                pm_bmnpp.append(pm_accounting(twin_b, prices_b).pm_count)
                gap = cross_model_gap(twin_b, prices_m, best_revenue=rev_b)
                if gap is not None:
                    gaps.append(gap)
    assert mean(pm_bmnpp) > mean(pm_mnpp), (mean(pm_bmnpp), mean(pm_mnpp))
    assert mean(gaps) > 0.0, mean(gaps)
    assert max(gaps) > mean(gaps), (max(gaps), mean(gaps))
    print(
        f"pm counts: mnpp {mean(pm_mnpp):.2f} vs bmnpp {mean(pm_bmnpp):.2f}; "
        f"gap mean {mean(gaps):.2f}% max {max(gaps):.2f}% over {len(gaps)} pairs"
    )


def test_c6_dp_work_stays_within_stated_budgets():
    """C6: DP table work for order and orderI at 10 outlets stays within the selection and insertion budgets."""
    for seed in range(5):
        inst = generate(
            GenParams(
                model="mnpp", n_outlets=10, n_demands=15, density=0.5, seed=seed
            )
        )
        n_prices = len(inst.grid.prices)
        pairs = inst.n_outlets * (inst.n_outlets + 1) // 2
        selection_budget = pairs * n_prices
        insertion_budget = pairs * pairs * n_prices
        table = revenue_table(inst, inst.model)
        before = table.filled
        run_algorithm(inst, "order")
        cells = table.filled - before
        assert cells <= selection_budget, (seed, cells, selection_budget)
        before = table.filled
        run_algorithm(inst, "orderI")
        cells = table.filled - before
        assert cells <= insertion_budget, (seed, cells, insertion_budget)


def test_c7_cli_outputs_are_deterministic(tmp_path):
    """C7: generate, solve --alg fi, and bench --jobs 1 give byte-identical outputs across reruns."""
    gen_a, gen_b = tmp_path / "gen_a.json", tmp_path / "gen_b.json"
    for out in (gen_a, gen_b):
        assert cli_main(["generate", "--seed", "7", "--out", str(out)]) == 0
    assert gen_a.read_bytes() == gen_b.read_bytes()

    sol_a, sol_b = tmp_path / "sol_a.json", tmp_path / "sol_b.json"
    for out in (sol_a, sol_b):
        code = cli_main(
            ["solve", "--in", str(gen_a), "--alg", "fi", "--out", str(out)]
        )
        assert code == 0
    assert sol_a.read_bytes() == sol_b.read_bytes()

    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "suite_id": "det",
                "algorithms": ["sp", "fi"],
                "exact": "brute",
                "instances": {
                    "generate": [
                        {
                            "model": "mnpp",
                            "outlets": 3,
                            "demands": 4,
                            "density": 0.7,
                            "seeds": [0, 1],
                            "grid_max": "10",
                            "grid_step": "1",
                        }
                    ]
                },
            }
        )
    )
    for out_dir in (tmp_path / "run_a", tmp_path / "run_b"):
        code = cli_main(
            ["bench", "--config", str(config), "--out-dir", str(out_dir), "--jobs", "1"]
        )
        assert code == 0
    for name in ("det.runs.csv", "det.summary.txt", "det.long.csv"):
        a = (tmp_path / "run_a" / name).read_bytes()
        b = (tmp_path / "run_b" / name).read_bytes()
        assert a == b, name


def test_c8_save_load_identity_and_lp_golden(tmp_path):
    """C8: instance save/load round-trip and LP writer output match the frozen golden files byte for byte."""
    golden_json = GOLDEN / "tiny_disjoint.json"
    inst = load_instance(golden_json)
    resaved = tmp_path / "resaved.json"
    save_instance(inst, resaved)
    assert resaved.read_bytes() == golden_json.read_bytes()
    assert load_instance(resaved) == inst

    rendered = lp_text(build_ip2(inst))
    assert rendered.encode() == (GOLDEN / "tiny_disjoint.ip2.lp").read_bytes()
