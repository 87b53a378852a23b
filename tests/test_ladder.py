"""First-fit allocation and the non-decreasing price programme.

The reference oracle used throughout is brute enumeration of every
non-decreasing price tuple along the ladder, scoring each against the
same fixed allocation. dp_prices must agree exactly on fixed-point
revenue (MNPP) for any ladder and allocation.
"""

import itertools
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from fractions import Fraction

import pytest

from netpricing import (
    BMNPP,
    DP_CALLS,
    MNPP,
    GenParams,
    allocate,
    dp_prices,
    full_insertion,
    generate,
    ladder_exact,
    revenue_table,
    zero_revenue,
)
from netpricing.ladder import _Prefixes


def enumerate_ladder_optimum(inst, ladder, assignment, pi=None, model=None):
    """Reference: try every non-decreasing price tuple along the ladder."""
    model = model or inst.model
    table = revenue_table(inst, model)
    grid = inst.grid.prices
    by_pos = {k: [] for k in range(len(ladder))}
    pos_of = {f: k for k, f in enumerate(ladder)}
    for e, f in assignment.items():
        by_pos[pos_of[f]].append(e)
    best = None
    for combo in itertools.combinations_with_replacement(
        range(len(grid)), len(ladder)
    ):
        if pi is not None and grid[combo[-1]] - grid[combo[0]] > pi:
            continue
        rev = zero_revenue(model)
        for k, m in enumerate(combo):
            for e in by_pos[k]:
                rev += table.revenue(table.ints[(e, ladder[k])][m])
        if best is None or rev > best:
            best = rev
    return best


class TestAllocate:
    def test_first_fit_ignores_prices(self, tiny_connected):
        assert allocate(tiny_connected, (0, 1)) == {0: 0, 1: 1}
        assert allocate(tiny_connected, (1, 0)) == {0: 1, 1: 1}

    def test_prefix_only(self, tiny_connected):
        ladder = (1, 0)
        assert allocate(tiny_connected, ladder[:1]) == {0: 1, 1: 1}

    def test_uncovered_nodes_stay_out(self, tiny_disjoint):
        assert allocate(tiny_disjoint, (0,)) == {0: 0}


class TestDpPrices:
    def test_disjoint_oracle(self, tiny_disjoint):
        ladder = (1, 0)
        prices, revenue = dp_prices(tiny_disjoint, ladder, allocate(tiny_disjoint, ladder))
        assert prices == (700, 900)
        assert revenue == Fraction(1600)

    def test_single_outlet_oracle(self, tiny_single):
        prices, revenue = dp_prices(tiny_single, (0,), {0: 0})
        assert prices == (900,)
        assert revenue == Fraction(900)

    @pytest.mark.parametrize("pi", [None, 0, 100])
    @pytest.mark.parametrize("model", [MNPP, BMNPP])
    def test_empty_ladder(self, tiny_disjoint, model, pi):
        inst = replace(tiny_disjoint, model=model, pi=pi)
        prices, revenue = dp_prices(inst, (), {}, pi=pi)
        assert prices == ()
        assert revenue == 0
        assert type(revenue) is type(zero_revenue(model))
        prefixes = _Prefixes(inst, pi)
        assert prefixes.value(prefixes.root) == 0

    def test_prices_non_decreasing(self, tiny_connected):
        ladder = (0, 1)
        prices, _ = dp_prices(tiny_connected, ladder, allocate(tiny_connected, ladder))
        assert list(prices) == sorted(prices)

    def test_earning_nothing_pushes_price_up(self, tiny_disjoint):
        # Outlet 0 serves node 0 best at 9; outlet 1 is then free to sit
        # anywhere >= 9 and the tie-break sends it to the very top.
        assignment = allocate(tiny_disjoint, (0,))
        prices, revenue = dp_prices(tiny_disjoint, (0, 1), assignment)
        assert revenue == Fraction(900)
        assert prices[0] == 900
        assert prices[1] == 2500

    def test_spread_cap_restricts_window(self, tiny_disjoint):
        ladder = (1, 0)
        assignment = allocate(tiny_disjoint, ladder)
        prices, revenue = dp_prices(tiny_disjoint, ladder, assignment, pi=100)
        assert prices[1] - prices[0] <= 100
        assert revenue < Fraction(1600)
        uncapped = enumerate_ladder_optimum(tiny_disjoint, ladder, assignment, pi=100)
        assert revenue == uncapped

    def test_zero_spread_forces_uniform(self, tiny_disjoint):
        ladder = (1, 0)
        assignment = allocate(tiny_disjoint, ladder)
        prices, revenue = dp_prices(tiny_disjoint, ladder, assignment, pi=0)
        assert prices[0] == prices[1]
        assert revenue == Fraction(1400)

    def test_counter_advances(self, tiny_single):
        DP_CALLS.reset()
        dp_prices(tiny_single, (0,), {0: 0})
        assert DP_CALLS.count == 1
        assert DP_CALLS.cells == 26


@pytest.mark.parametrize("seed", range(12))
def test_dp_equals_enumeration_random(seed):
    """Spot sample of the exhaustive agreement the acceptance suite runs."""
    params = GenParams(
        model="mnpp",
        n_outlets=3,
        n_demands=4,
        density=0.7,
        seed=seed,
        grid_min="0",
        grid_max="7",
        grid_step="1",
    )
    inst = generate(params)
    ladder = tuple(inst.outlets())
    assignment = allocate(inst, ladder)
    pi = None if seed % 3 else 200
    _, got = dp_prices(inst, ladder, assignment, pi=pi)
    want = enumerate_ladder_optimum(inst, ladder, assignment, pi=pi)
    assert got == want


@pytest.mark.parametrize("model", ["mnpp", "bmnpp"])
def test_threads_share_the_stage_memo(model):
    # The ladder searches share one stage memo per revenue table without a
    # lock; a race may only sum a row twice, never change a result.
    inst = generate(GenParams(model=model, n_outlets=6, seed=5, pi="10"))

    def both(inst):
        fi = full_insertion(inst, pi=inst.pi)
        return repr((replace(fi, wall_time=0), ladder_exact(inst)))

    # Each copy of the instance starts with no table: the threads share
    # one cold table.
    serial = both(replace(inst))
    inst = replace(inst)
    start = threading.Barrier(8)

    def task(_):
        start.wait(timeout=60)
        return both(inst)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(task, range(8), timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert results == [serial] * 8
