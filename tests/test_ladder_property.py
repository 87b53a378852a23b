"""Property tests: the integer ladder programme against exact references.

dp_prices runs on the revenue table's integer image and converts back to
a Fraction (MNPP) or a once-rounded float (BMNPP) at the end. On random
tiny instances, ladders, prefixes and spread caps its revenue must equal
enumeration exactly (MNPP), and its prices and revenue must equal those
of the same programme run on the public table's entries as Fractions.

The searches that share prefix states (best_insertion, greedy_select,
ladder_exact) must give exactly what allocate + dp_prices from scratch on
every trial ladder gives; ladder_exact's completion bound must equal the
best completion of every prefix, under both models. The insertion runs
(full_insertion, insertion_with_order) share the instance's prefix trie
across all their best_insertion calls: they must place every outlet where
a from-scratch scan does, and an fi run fills one stage per distinct
prefix it pushes, a trie hit filling none. Every ladder run and
ladder_exact prices its final ladder from that trie, exactly as dp_prices
does from scratch. The stage memo the searches share on an
instance's revenue table must not change any result: a search on a cold
table and on one warmed by the other searches gives the same numbers, and
a memoised stage row equals its from-scratch sum.
"""

from dataclasses import replace
from fractions import Fraction
from itertools import permutations
from unittest.mock import patch

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from netpricing import (
    BMNPP,
    DP_CALLS,
    MNPP,
    DemandNode,
    Edge,
    Instance,
    PriceGrid,
    adjacency,
    allocate,
    best_insertion,
    dp_prices,
    full_insertion,
    greedy_select,
    insertion_with_order,
    ladder_exact,
    revenue_table,
    run_algorithm,
    zero_revenue,
)
from netpricing import heuristics
from netpricing.exact import _bound, _completions
from netpricing.ladder import _Prefixes
from tests.test_ladder import enumerate_ladder_optimum


def table_dp(inst, ladder, assignment, n_active, pi):
    """The ladder programme on the public table, summed as Fractions.

    Forward pass with prefix-best predecessors, ties to the highest grid
    index, then the best window; the same recurrence as dp_prices. Under
    BMNPP the exact best is rounded to a float once.
    """
    table = revenue_table(inst, inst.model)
    grid = inst.grid.prices
    by_position = [[] for _ in range(n_active)]
    pos_of = {ladder[k]: k for k in range(n_active)}
    for e, f in assignment.items():
        by_position[pos_of[f]].append(e)
    stage_rev = [
        [
            sum(
                Fraction(table.revenue(table.ints[(e, ladder[pos])][m]))
                for e in by_position[pos]
            )
            for m in range(len(grid))
        ]
        for pos in range(n_active)
    ]

    def run_window(lo, hi):
        value = stage_rev[0][lo : hi + 1]
        back = []
        for pos in range(1, n_active):
            best_j, best_val, choice, new_value = 0, value[0], [], []
            for m in range(len(value)):
                if value[m] >= best_val:
                    best_val, best_j = value[m], m
                choice.append(best_j)
                new_value.append(stage_rev[pos][lo + m] + best_val)
            back.append(choice)
            value = new_value
        top = 0
        for m in range(len(value)):
            if value[m] >= value[top]:
                top = m
        indices = [top]
        for choice in reversed(back):
            indices.append(choice[indices[-1]])
        return value[top], [lo + m for m in reversed(indices)]

    if pi is None:
        rev, idx = run_window(0, len(grid) - 1)
    else:
        rev, idx = None, None
        for lo in range(len(grid)):
            hi = lo
            while hi + 1 < len(grid) and grid[hi + 1] - grid[lo] <= pi:
                hi += 1
            window_rev, window_idx = run_window(lo, hi)
            if rev is None or window_rev > rev:
                rev, idx = window_rev, window_idx
    return tuple(grid[m] for m in idx), rev if inst.model == MNPP else float(rev)


@st.composite
def instances(draw, model, max_outlets=3, max_prices=6, max_demands=4):
    """Tiny instances, with no spread cap or a finite one."""
    step = draw(st.sampled_from([25, 50, 100]))
    grid = PriceGrid(
        tuple(step * k for k in range(draw(st.integers(1, max_prices))))
    )
    n_outlets = draw(st.integers(1, max_outlets))
    n_demands = draw(st.integers(1, max_demands))
    demands = []
    for e in range(n_demands):
        c = draw(st.sampled_from(grid.prices))
        beta = Fraction(draw(st.integers(1, 6)), 7)
        demands.append(
            DemandNode(
                id=e,
                c=c,
                c_bar=draw(st.sampled_from([p for p in grid.prices if p <= c])),
                d=Fraction(draw(st.integers(1, 300)), draw(st.integers(1, 12))),
                beta=beta,
                gamma=beta + (1 - beta) * Fraction(draw(st.integers(1, 3)), 3),
            )
        )
    pairs = draw(
        st.sets(
            st.tuples(st.integers(0, n_demands - 1), st.integers(0, n_outlets - 1)),
            min_size=1,
        )
    )
    coefficient = st.floats(-20.0, 20.0, allow_nan=False)
    slope = st.floats(0.0, 5.0, allow_nan=False)
    edges = tuple(
        Edge(e, f, draw(coefficient), draw(slope), draw(coefficient), draw(slope))
        for e, f in sorted(pairs)
    )
    pi = draw(st.none() | st.integers(0, grid.max + step))
    return Instance(n_outlets, tuple(demands), edges, grid, model=model, pi=pi)


@st.composite
def cases(draw, model):
    inst = draw(instances(model))
    ladder = tuple(draw(st.permutations(range(inst.n_outlets))))
    n_active = draw(st.integers(1, inst.n_outlets))
    assignment = {
        e: f
        for e, f in allocate(inst, ladder[:n_active]).items()
        if draw(st.booleans())
    }
    return inst, ladder, assignment, n_active, inst.pi


@settings(max_examples=300, deadline=None, derandomize=True)
@given(cases(MNPP))
def test_integer_dp_is_exact_on_mnpp(case):
    inst, ladder, assignment, n_active, pi = case
    prices, revenue = dp_prices(inst, ladder[:n_active], assignment, pi=pi)
    assert isinstance(revenue, Fraction)
    assert revenue == enumerate_ladder_optimum(
        inst, ladder[:n_active], assignment, pi=pi
    )
    assert (prices, revenue) == table_dp(inst, ladder, assignment, n_active, pi)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(cases(BMNPP))
def test_dp_on_bmnpp_matches_the_float_table(case):
    inst, ladder, assignment, n_active, pi = case
    prices, revenue = dp_prices(inst, ladder[:n_active], assignment, pi=pi)
    want_prices, want_revenue = table_dp(inst, ladder, assignment, n_active, pi)
    assert isinstance(revenue, float)
    assert revenue == want_revenue
    assert prices == want_prices


def scratch_revenue(inst, ladder, pi):
    return dp_prices(inst, ladder, allocate(inst, ladder), pi=pi)[1]


def scratch_insertion(inst, ladder, f, pi):
    best_pos, best_rev = None, None
    for j in range(len(ladder) + 1):
        rev = scratch_revenue(inst, ladder[:j] + (f,) + ladder[j:], pi)
        if best_rev is None or rev > best_rev:
            best_pos, best_rev = j, rev
    return best_pos, best_rev


def scratch_greedy(inst, pi):
    n_f = adjacency(inst)[1]
    pool = sorted(inst.outlets())
    active = set(range(inst.n_demands))
    ladder, revenue = [], zero_revenue(inst.model)
    while pool and active:
        best_f, best_rev = None, None
        for f in pool:
            rev = scratch_revenue(inst, tuple(ladder) + (f,), pi)
            if best_rev is None or rev > best_rev:
                best_f, best_rev = f, rev
        ladder.append(best_f)
        pool.remove(best_f)
        active -= set(n_f[best_f])
        revenue = best_rev
    return tuple(ladder + pool), revenue


def scratch_exact(inst):
    best = None
    for ladder in permutations(range(inst.n_outlets)):
        prices, revenue = dp_prices(inst, ladder, allocate(inst, ladder), pi=inst.pi)
        if best is None or revenue > best[0]:
            by_outlet = [0] * inst.n_outlets
            for pos, f in enumerate(ladder):
                by_outlet[f] = prices[pos]
            best = (revenue, ladder, tuple(by_outlet))
    return best


@st.composite
def insertions(draw, model):
    inst = draw(instances(model, max_outlets=4))
    order = draw(st.permutations(range(inst.n_outlets)))
    return inst, tuple(order[1:]), order[0]


MODELS = pytest.mark.parametrize("model", [MNPP, BMNPP])


@MODELS
def test_best_insertion_equals_scratch_dp(model):
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(insertions(model))
    def check(case):
        inst, ladder, f = case
        got = best_insertion(inst, ladder, f, pi=inst.pi)
        assert got == scratch_insertion(inst, ladder, f, inst.pi)
        assert type(got[1]) is type(zero_revenue(model))

    check()


@MODELS
def test_greedy_select_equals_scratch_dp(model):
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(instances(model, max_outlets=4))
    def check(inst):
        assert greedy_select(inst, pi=inst.pi) == scratch_greedy(inst, inst.pi)

    check()


@MODELS
def test_ladder_exact_equals_scratch_dp(model):
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(instances(model, max_outlets=4))
    def check(inst):
        assert ladder_exact(inst) == scratch_exact(inst)

    check()


@MODELS
def test_ladder_exact_keeps_the_first_best_ordering(model):
    # Up to 6 outlets on 1-3 point grids, where many orderings tie, so
    # pruning must not skip the first ordering attaining the optimum.
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(instances(model, max_outlets=6, max_prices=3))
    def check(inst):
        got = ladder_exact(inst)
        want = scratch_exact(inst)
        assert got == want
        assert repr(got[0]) == repr(want[0])

    check()


@MODELS
def test_completion_bound_is_the_best_completion(model):
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(instances(model, max_outlets=4))
    def check(inst):
        n = inst.n_outlets
        prefixes = _Prefixes(inst, inst.pi)
        rest = _completions(prefixes, n)

        def walk(state, subset, prefix):
            remaining = [f for f in range(n) if f not in prefix]
            best = max(
                scratch_revenue(inst, prefix + tail, inst.pi)
                for tail in permutations(remaining)
            )
            assert prefixes.revenue(_bound(state[1], rest[subset])) == best
            for f in remaining:
                walk(prefixes.push(state, f), subset | 1 << f, prefix + (f,))

        walk(prefixes.root, 0, ())

    check()


def scratch_full_insertion(inst, pi):
    remaining, ladder = sorted(inst.outlets()), ()
    while remaining:
        best = None
        for f in remaining:
            pos, rev = scratch_insertion(inst, ladder, f, pi)
            if best is None or rev > best[0]:
                best = (rev, f, pos)
        _, f, pos = best
        ladder = ladder[:pos] + (f,) + ladder[pos:]
        remaining.remove(f)
    return ladder


def scratch_insertion_with_order(inst, order, pi):
    ladder = ()
    for f in order:
        pos, _ = scratch_insertion(inst, ladder, f, pi)
        ladder = ladder[:pos] + (f,) + ladder[pos:]
    return ladder


def priced(inst, ladder, pi):
    prices, revenue = dp_prices(inst, ladder, allocate(inst, ladder), pi=pi)
    by_outlet = [0] * inst.n_outlets
    for pos, f in enumerate(ladder):
        by_outlet[f] = prices[pos]
    return ladder, tuple(by_outlet), revenue


@MODELS
@pytest.mark.parametrize("cap", [None, 150])
def test_insertion_runs_equal_scratch_dp(model, cap):
    # A run shares one prefix trie across all its best_insertion calls;
    # it must place every outlet where a from-scratch scan does.
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(insertions(model))
    def check(case):
        inst, rest, first = case
        inst = replace(inst, pi=cap)
        order = (first,) + rest
        got = full_insertion(inst, pi=cap)
        want = priced(inst, scratch_full_insertion(inst, cap), cap)
        assert (got.ladder, got.prices, got.revenue) == want
        got = insertion_with_order(inst, order, pi=cap)
        want = priced(inst, scratch_insertion_with_order(inst, order, cap), cap)
        assert (got.ladder, got.prices, got.revenue) == want

    check()


@MODELS
@pytest.mark.parametrize("cap", [None, 150])
def test_trie_pricing_equals_dp_prices(model, cap):
    # The ladder runs and ladder_exact price their final ladder from the
    # instance's one prefix trie, which the earlier runs grew; allocate +
    # dp_prices from scratch is the reference.
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(instances(model, max_outlets=4))
    def check(inst):
        inst = replace(inst, pi=cap)
        for algorithm in ("greedy", "order", "fi", "greedyI", "orderI"):
            got = run_algorithm(inst, algorithm)
            assert (got.ladder, got.prices, got.revenue) == priced(inst, got.ladder, cap)
        revenue, ladder, prices = ladder_exact(inst)
        assert (ladder, prices, revenue) == priced(inst, ladder, cap)

    check()


def pushed_prefixes(ladder, f):
    """The outlet sequences best_insertion(ladder, f) pushes: the base
    prefixes, and each slot's new outlet followed by the rest."""
    ladder = tuple(ladder)
    seen = {ladder[:j] for j in range(1, len(ladder) + 1)}
    for j in range(len(ladder) + 1):
        for k in range(j, len(ladder) + 1):
            seen.add(ladder[:j] + (f,) + ladder[j:k])
    return seen


@MODELS
def test_insertion_run_fills_one_stage_per_distinct_prefix(model):
    # Every best_insertion call of an fi run goes through the module
    # attribute heuristics.best_insertion, and a prefix the run pushed
    # before is a trie hit that fills no cells; so the run fills one
    # stage per distinct prefix, and pricing its ladder, all hits, none.
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(instances(model, max_outlets=5, max_demands=6))
    def check(inst):
        calls = []
        original = heuristics.best_insertion

        def recording(inst, ladder, f, *args, **kwargs):
            calls.append((tuple(ladder), f))
            return original(inst, ladder, f, *args, **kwargs)

        DP_CALLS.reset()
        with patch.object(heuristics, "best_insertion", recording):
            full_insertion(inst, pi=inst.pi)
        n = inst.n_outlets
        assert len(calls) == n * (n + 1) // 2
        distinct = set().union(*(pushed_prefixes(ladder, f) for ladder, f in calls))
        assert DP_CALLS.cells == len(distinct) * _Prefixes(inst, inst.pi).cells

        # A second identical call on the instance's trie is all hits.
        ladder = tuple(range(n - 1))
        first = best_insertion(inst, ladder, n - 1, pi=inst.pi)
        DP_CALLS.reset()
        again = best_insertion(inst, ladder, n - 1, pi=inst.pi)
        assert again == first
        assert DP_CALLS.cells == 0

    check()


def searches(inst):
    """The prefix searches on inst, each giving a repr of its result."""
    pi = inst.pi
    order = tuple(reversed(range(inst.n_outlets)))
    return {
        "ladder_exact": lambda: repr(ladder_exact(inst)),
        "fi": lambda: repr(replace(full_insertion(inst, pi=pi), wall_time=0)),
        "greedy": lambda: repr(greedy_select(inst, pi=pi)),
        "insertion": lambda: repr(
            replace(insertion_with_order(inst, order, pi=pi), wall_time=0)
        ),
    }


CAPS = pytest.mark.parametrize("cap", [None, 0, 150])


@MODELS
@CAPS
def test_warm_stage_memo_gives_cold_results(model, cap):
    # Up to 7 nodes, so outlets share many uncovered-node subsets.
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(instances(model, max_outlets=4, max_demands=7))
    def check(inst):
        inst = replace(inst, pi=cap)
        for name in searches(inst):
            # A copy of the instance starts with no table, so a cold memo.
            cold = searches(replace(inst))[name]()
            warm = replace(inst)
            runs = searches(warm)
            for other in reversed(runs):
                if other != name:
                    runs[other]()
            assert revenue_table(warm, model).stages
            assert runs[name]() == cold

        # Every stage, memoised or not, is the from-scratch column sum of
        # the uncovered nodes' rows in n_f[f] order.
        prefixes = _Prefixes(inst, inst.pi)
        n_f = adjacency(inst)[1]
        for covered in range(1 << inst.n_demands):
            for f in range(inst.n_outlets):
                nodes = [e for e in n_f[f] if not covered >> e & 1]
                new, row = prefixes.stage(covered, f)
                assert new == sum(1 << e for e in nodes)
                if not nodes:
                    assert row is None
                    continue
                rows = [prefixes.rows[(e, f)] for e in nodes]
                want = [sum(column) for column in zip(*rows)]
                assert list(row) == want
                assert list(map(type, row)) == list(map(type, want))

    check()
