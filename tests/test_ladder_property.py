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
prefix it pushes, dead outlets dropped, a trie hit filling none; a dead
push gives back its own state and stores no trie edge. Every ladder run
and ladder_exact prices its final ladder from that trie, exactly as
dp_prices does from scratch. The stage memo the searches share on an
instance's revenue table must not change any result: a search on a cold
table and on one warmed by the other searches gives the same numbers, and
a memoised stage row equals its from-scratch sum.

The per-cell kernels (prefix, suffix and pairwise maxima) must equal
their builtin-max definitions on any int lists, and no kernel may write
into the lists it reads: the trie's stored maxima and the subset table's
rows are shared. single_price and order_select must give what a
per-column max and per-round Fraction sums give. evaluate_prices and
pm_accounting must equal a node-by-node evaluation with demand_at
volumes.

The spread cap is instance data: dp_prices, the insertion runs, every
algorithm of run_algorithm and ladder_exact must price within inst.pi.
"""

from copy import deepcopy
from dataclasses import replace
from fractions import Fraction
from itertools import accumulate, permutations
from unittest.mock import patch

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from netpricing import (
    ALGORITHMS,
    BMNPP,
    MNPP,
    PM,
    PW,
    DemandNode,
    Edge,
    Instance,
    PmStats,
    PriceGrid,
    adjacency,
    allocate,
    best_insertion,
    demand_at,
    dp_prices,
    evaluate_prices,
    full_insertion,
    greedy_select,
    insertion_with_order,
    ladder_exact,
    logit_share,
    order_select,
    pm_accounting,
    revenue_table,
    run_algorithm,
    single_price,
)
from netpricing import heuristics
from netpricing.exact import _bound, _completions
from netpricing.ladder import (
    _advance,
    _pairwise_max,
    _prefix_max,
    _push,
    _stage,
    _suffix_max,
)
from netpricing.money import MONEY_SCALE, money_unit
from tests.conftest import filled_states, outlet_nodes
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
    prices, revenue = dp_prices(inst, ladder[:n_active], assignment)
    assert isinstance(revenue, Fraction)
    assert revenue == enumerate_ladder_optimum(
        inst, ladder[:n_active], assignment, pi=pi
    )
    assert (prices, revenue) == table_dp(inst, ladder, assignment, n_active, pi)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(cases(BMNPP))
def test_dp_on_bmnpp_matches_the_float_table(case):
    inst, ladder, assignment, n_active, pi = case
    prices, revenue = dp_prices(inst, ladder[:n_active], assignment)
    want_prices, want_revenue = table_dp(inst, ladder, assignment, n_active, pi)
    assert isinstance(revenue, float)
    assert revenue == want_revenue
    assert prices == want_prices


def scratch_revenue(inst, ladder, pi):
    return dp_prices(replace(inst, pi=pi), ladder, allocate(inst, ladder))[1]


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
    ladder, revenue = [], Fraction(0) if inst.model == MNPP else 0.0
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
        prices, revenue = dp_prices(inst, ladder, allocate(inst, ladder))
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
        got = best_insertion(inst, ladder, f)
        assert got == scratch_insertion(inst, ladder, f, inst.pi)
        assert type(got[1]) is type(Fraction(0) if model == MNPP else 0.0)

    check()


@MODELS
def test_greedy_select_equals_scratch_dp(model):
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(instances(model, max_outlets=4))
    def check(inst):
        assert greedy_select(inst) == scratch_greedy(inst, inst.pi)

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
        table = revenue_table(inst, model)
        rest = _completions(table, n)

        def walk(state, subset, prefix):
            remaining = [f for f in range(n) if f not in prefix]
            best = max(
                scratch_revenue(inst, prefix + tail, inst.pi)
                for tail in permutations(remaining)
            )
            assert table.revenue(_bound(state[1], rest[subset])) == best
            for f in remaining:
                walk(_push(table, state, f), subset | 1 << f, prefix + (f,))

        walk(table.root, 0, ())

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
    prices, revenue = dp_prices(replace(inst, pi=pi), ladder, allocate(inst, ladder))
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
        got = full_insertion(inst)
        want = priced(inst, scratch_full_insertion(inst, cap), cap)
        assert (got.ladder, got.prices, got.revenue) == want
        got = insertion_with_order(inst, order)
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


@MODELS
def test_every_pricing_path_keeps_the_instance_cap(model):
    # No pricing function takes a cap of its own: each prices within the
    # instance's inst.pi, the relaxation-guided insertions included (ip1
    # has no logit formulation).
    adapter = "builtin"
    algorithms = [alg for alg in ALGORITHMS if model == MNPP or alg != "ip1I"]

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(insertions(model), st.integers(0, 150))
    def check(case, cap):
        inst, rest, first = case
        inst = replace(inst, pi=cap)
        order = (first,) + rest
        results = [
            dp_prices(inst, order, allocate(inst, order))[0],
            full_insertion(inst).prices,
            insertion_with_order(inst, order).prices,
            ladder_exact(inst)[2],
        ]
        results += [
            run_algorithm(inst, alg, adapter=adapter).prices for alg in algorithms
        ]
        for prices in results:
            assert max(prices) - min(prices) <= cap

    check()


def pushed_prefixes(inst, ladder, f):
    """The outlet sequences best_insertion(inst, ladder, f) pushes: each
    slot's trial, the new outlet followed by the rest, up to the first
    slot where f is dead for the prefix before it; the base prefixes are
    prefixes of the trials after them."""
    ladder = tuple(ladder)
    nodes = outlet_nodes(inst)
    covered = set()
    pushed = []
    for j in range(len(ladder) + 1):
        pushed.append(ladder[:j] + (f,) + ladder[j:])
        if nodes[f] <= covered:
            break
        if j < len(ladder):
            covered |= nodes[ladder[j]]
    return pushed


@MODELS
def test_insertion_run_fills_one_stage_per_distinct_prefix(model):
    # Every best_insertion call of an fi run goes through the module
    # attribute heuristics.best_insertion, and a prefix the run pushed
    # before is a trie hit that fills no cells, as is a dead push; so the
    # run fills one stage per distinct prefix with its dead outlets
    # dropped, and pricing its ladder, all hits, none.
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(instances(model, max_outlets=5, max_demands=6))
    def check(inst):
        calls = []
        original = heuristics.best_insertion

        def recording(inst, ladder, f, *args, **kwargs):
            calls.append((tuple(ladder), f))
            return original(inst, ladder, f, *args, **kwargs)

        table = revenue_table(inst, model)
        before = table.filled
        with patch.object(heuristics, "best_insertion", recording):
            full_insertion(inst)
        n = inst.n_outlets
        assert len(calls) == n * (n + 1) // 2
        pushed = [seq for ladder, f in calls for seq in pushed_prefixes(inst, ladder, f)]
        distinct = filled_states(inst, pushed)
        assert table.filled - before == len(distinct) * table.cells

        # A second identical call on the instance's trie is all hits.
        ladder = tuple(range(n - 1))
        first = best_insertion(inst, ladder, n - 1)
        before = table.filled
        again = best_insertion(inst, ladder, n - 1)
        assert again == first
        assert table.filled == before

    check()


def searches(inst):
    """The prefix searches on inst, each giving a repr of its result."""
    order = tuple(reversed(range(inst.n_outlets)))
    return {
        "ladder_exact": lambda: repr(ladder_exact(inst)),
        "fi": lambda: repr(full_insertion(inst)),
        "greedy": lambda: repr(greedy_select(inst)),
        "insertion": lambda: repr(insertion_with_order(inst, order)),
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
        table = revenue_table(inst, model)
        n_f = adjacency(inst)[1]
        for covered in range(1 << inst.n_demands):
            for f in range(inst.n_outlets):
                nodes = [e for e in n_f[f] if not covered >> e & 1]
                new, row = _stage(table, covered, f)
                assert new == sum(1 << e for e in nodes)
                if not nodes:
                    assert row is None
                    continue
                rows = [table.ints[(e, f)] for e in nodes]
                want = [sum(column) for column in zip(*rows)]
                assert list(row) == want
                assert list(map(type, row)) == list(map(type, want))

    check()


# Ints around 0 and past 2^400, with many repeats so ties are common.
big_ints = st.one_of(
    st.integers(-3, 3),
    st.integers(2**400, 2**400 + 3),
    st.integers(-(2**410), 2**410),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(big_ints, min_size=1, max_size=12))
def test_prefix_and_suffix_max_equal_accumulate(values):
    frozen = list(values)
    assert _prefix_max(values) == list(accumulate(values, max))
    assert _prefix_max(iter(values)) == list(accumulate(values, max))
    assert _suffix_max(values) == list(accumulate(reversed(values), max))[::-1]
    assert values == frozen


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.tuples(big_ints, big_ints), min_size=1, max_size=12))
def test_pairwise_max_equals_map_max(pairs):
    a, b = [x for x, _ in pairs], [y for _, y in pairs]
    frozen = (list(a), list(b))
    assert _pairwise_max(a, b) == list(map(max, a, b))
    assert (a, b) == frozen


@MODELS
def test_kernels_never_write_into_shared_lists(model):
    # A trie state's maxima are shared by every child pushed onto it, and
    # _completions reads rest[S | f] for every S missing f; neither may
    # change once made.
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(instances(model, max_outlets=4))
    def check(inst):
        table = revenue_table(inst, model)
        n = inst.n_outlets
        state = table.root
        for f in range(n):
            before = deepcopy(state[1])
            stage = _stage(table, state[0], f)[1]
            after = _advance(table.windows, stage, state[1])
            assert state[1] == before
            if stage is not None:
                assert all(a is not b for a, b in zip(after, state[1]))
            state = _push(table, state, f)
        first = _completions(table, n)
        frozen = deepcopy(first)
        assert _completions(table, n) == first == frozen

    check()


def scratch_single_price(inst):
    """single_price as one builtin max call per (node, grid index)."""
    o_e = adjacency(inst)[0]
    table = revenue_table(inst, inst.model)
    grid = inst.grid
    score = [0] * len(grid)
    for node in inst.demands:
        outlets = o_e[node.id]
        below = grid.below_index(node.c)
        if not outlets or below is None:
            continue
        columns = zip(*(table.ints[(node.id, f)][: below + 1] for f in outlets))
        for m, column in enumerate(columns):
            score[m] += max(column)
    best = max(range(len(grid)), key=score.__getitem__)
    return grid.prices[best], table.revenue(score[best])


def scratch_order_select(inst):
    """order_select with its potentials summed afresh, as Fractions under
    MNPP, for every candidate of every round."""
    o_e, n_f, edge_of = adjacency(inst)
    pool = set(inst.outlets())
    active = set(range(inst.n_demands))
    ladder = []

    def potential(f):
        total = Fraction(0) if inst.model == MNPP else 0.0
        for e in n_f[f]:
            if e not in active:
                continue
            node = inst.demands[e]
            if inst.model == MNPP:
                total += money_unit(node.c) * node.d * node.gamma
            else:
                edge = edge_of[(e, f)]
                share = logit_share(edge.a_hat - edge.b_hat * (node.c / MONEY_SCALE))
                total += (node.c / MONEY_SCALE) * float(node.d) * share
        return total

    while pool and active:
        head = min(active, key=lambda e: (inst.demands[e].c, e))
        candidates = [f for f in sorted(pool) if f in set(o_e[head])]
        if not candidates:
            active.remove(head)
            continue
        scores = {f: potential(f) for f in candidates}
        chosen = min(candidates, key=lambda f: (scores[f], f))
        ladder.append(chosen)
        pool.remove(chosen)
        active -= set(n_f[chosen])
    ladder.extend(sorted(pool))
    return tuple(ladder)


@MODELS
@pytest.mark.parametrize("cap", [None, 150])
def test_single_price_equals_per_column_max(model, cap):
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(instances(model, max_outlets=4, max_demands=6))
    def check(inst):
        inst = replace(inst, pi=cap)
        got, want = single_price(inst), scratch_single_price(inst)
        assert got == want
        assert repr(got) == repr(want)

    check()


@MODELS
def test_order_select_equals_per_round_sums(model):
    # Small grids and few distinct volumes, so potentials often tie.
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(instances(model, max_outlets=5, max_prices=3, max_demands=7))
    def check(inst):
        assert order_select(inst) == scratch_order_select(inst)
        # Each outlet's terms are its potential with every node active:
        # exact on the table's scale under MNPP, the same floats under BMNPP.
        n_f, edge_of = adjacency(inst)[1:]
        for f, terms in enumerate(heuristics._potential_terms(inst)):
            assert [e for e, _ in terms] == list(n_f[f])
            for e, term in terms:
                node = inst.demands[e]
                if model == MNPP:
                    scale = revenue_table(inst, MNPP).scale
                    assert term == money_unit(node.c) * node.d * node.gamma * scale
                else:
                    edge = edge_of[(e, f)]
                    c = node.c / MONEY_SCALE
                    share = logit_share(edge.a_hat - edge.b_hat * c)
                    assert repr(term) == repr(c * float(node.d) * share)

    check()


@MODELS
def test_dead_push_gives_back_its_state_and_stores_no_edge(model):
    # _push returns the state itself exactly when f covers no node outside
    # the state's covered mask; such a push stores nothing, so no stored
    # child has its parent's covered mask.
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(instances(model, max_outlets=5, max_demands=6), st.data())
    def check(inst, data):
        table = revenue_table(inst, model)
        outlets = st.integers(0, inst.n_outlets - 1)
        for _ in range(data.draw(st.integers(1, 4))):
            state = table.root
            for f in data.draw(st.lists(outlets, max_size=8)):
                child = _push(table, state, f)
                assert (child is state) == (table.masks[f] & ~state[0] == 0)
                state = child
        stack = [table.root]
        while stack:
            state = stack.pop()
            for child in state[2].values():
                assert child[0] != state[0]
                stack.append(child)

    check()


def scratch_evaluation(inst, prices):
    """(evaluate_prices, pm_accounting) of prices, node by node: the
    lowest (price, id) outlet serves, the table entry is the money, and
    demand_at gives the volume."""
    o_e = adjacency(inst)[0]
    table = revenue_table(inst, inst.model)
    total = 0
    assignment, labels = {}, {}
    counts, raw = {PM: 0, PW: 0}, {PM: 0, PW: 0}
    zero = Fraction(0) if inst.model == MNPP else 0.0
    volumes = {PM: zero, PW: zero}
    for node in inst.demands:
        outlets = o_e[node.id]
        if not outlets:
            continue
        best = min(outlets, key=lambda f: (prices[f], f))
        price = prices[best]
        entry = table.ints[(node.id, best)][inst.grid.index_of(price)]
        if entry > 0:
            label = PM if price == node.c else PW
            total += entry
            assignment[node.id] = best
            labels[node.id] = label
            counts[label] += 1
            raw[label] += entry
            volumes[label] += demand_at(inst, node.id, best, price)
    stats = PmStats(
        counts[PM],
        counts[PW],
        volumes[PM],
        volumes[PW],
        table.revenue(raw[PM]),
        table.revenue(raw[PW]),
    )
    return (table.revenue(total), assignment, labels), stats


@MODELS
@pytest.mark.parametrize("cap", [None, 150])
def test_evaluation_and_pm_accounting_equal_per_node_scratch(model, cap):
    # Small grids, so that outlets often tie on price.
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(instances(model, max_outlets=4, max_prices=4, max_demands=7), st.data())
    def check(inst, data):
        inst = replace(inst, pi=cap)
        n = inst.n_outlets
        price = st.sampled_from(inst.grid.prices)
        prices = tuple(data.draw(st.lists(price, min_size=n, max_size=n)))
        evaluation, stats = scratch_evaluation(inst, prices)
        got = evaluate_prices(inst, prices)
        assert got == evaluation
        assert repr(got) == repr(evaluation)
        got = pm_accounting(inst, prices)
        assert got == stats
        assert repr(got) == repr(stats)

    check()
