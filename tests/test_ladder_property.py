"""Property test: the integer ladder programme against exact references.

dp_prices runs on the revenue table's integer image and converts back to
a Fraction at the end. On random tiny instances, ladders, prefixes and
spread caps its revenue must equal enumeration exactly (MNPP), and its
prices and revenue must equal those of the same programme run directly
on the public Fraction (MNPP) or float (BMNPP) table.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from netpricing import (
    BMNPP,
    MNPP,
    DemandNode,
    Edge,
    Instance,
    PriceGrid,
    allocate,
    dp_prices,
    revenue_table,
    zero_revenue,
)
from tests.test_ladder import enumerate_ladder_optimum


def table_dp(inst, ladder, assignment, n_active, pi):
    """The ladder programme on the public table, in its own number type.

    Forward pass with prefix-best predecessors, ties to the highest grid
    index, then the best window; the same recurrence as dp_prices.
    """
    table = revenue_table(inst, inst.model)
    zero = zero_revenue(inst.model)
    grid = inst.grid.prices
    by_position = [[] for _ in range(n_active)]
    pos_of = {ladder[k]: k for k in range(n_active)}
    for e, f in assignment.items():
        by_position[pos_of[f]].append(e)
    stage_rev = [
        [
            sum((table[(e, ladder[pos])][m] for e in by_position[pos]), zero)
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
    return tuple(grid[m] for m in idx), rev


@st.composite
def cases(draw, model):
    step = draw(st.sampled_from([25, 50, 100]))
    grid = PriceGrid(tuple(step * k for k in range(draw(st.integers(1, 6)))))
    n_outlets = draw(st.integers(1, 3))
    n_demands = draw(st.integers(1, 4))
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
    inst = Instance(n_outlets, tuple(demands), edges, grid, model=model)
    ladder = tuple(draw(st.permutations(range(n_outlets))))
    n_active = draw(st.integers(1, n_outlets))
    assignment = {
        e: f
        for e, f in allocate(inst, ladder, n_active).items()
        if draw(st.booleans())
    }
    pi = draw(st.none() | st.integers(0, grid.max + step))
    return inst, ladder, assignment, n_active, pi


@settings(max_examples=300, deadline=None, derandomize=True)
@given(cases(MNPP))
def test_integer_dp_is_exact_on_mnpp(case):
    inst, ladder, assignment, n_active, pi = case
    prices, revenue = dp_prices(inst, ladder, assignment, n_active=n_active, pi=pi)
    assert isinstance(revenue, Fraction)
    assert revenue == enumerate_ladder_optimum(
        inst, ladder[:n_active], assignment, pi=pi
    )
    assert (prices, revenue) == table_dp(inst, ladder, assignment, n_active, pi)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(cases(BMNPP))
def test_dp_on_bmnpp_matches_the_float_table(case):
    inst, ladder, assignment, n_active, pi = case
    prices, revenue = dp_prices(inst, ladder, assignment, n_active=n_active, pi=pi)
    want_prices, want_revenue = table_dp(inst, ladder, assignment, n_active, pi)
    assert isinstance(revenue, float)
    assert revenue == want_revenue
    assert prices == want_prices
