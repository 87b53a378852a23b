"""First-fit ladder allocation and optimal non-decreasing ladder pricing.

A price ladder is an ordering of a subset of outlets; posted prices must be
non-decreasing along it. Allocation is first-fit and structural: scanning
ladder positions in order, every still-unassigned demand node connected to
the current outlet is assigned to it, regardless of prices.

For a fixed ladder and allocation, optimal prices solve a dynamic
programme over (ladder position, grid index):

    G(1, m) = rev_1(m)
    G(k, m) = rev_k(m) + max_{j <= m} G(k-1, j)

where rev_k(m) is the revenue position k earns from its assigned nodes at
grid price m. The inner maximum is a prefix maximum carried incrementally,
so one pass costs O(positions * |grid|) plus the revenue table lookups.

A finite spread cap pi restricts max(price) - min(price). The programme is
then repeated once per candidate floor index, restricting the grid to the
window [b(m0), b(m0) + pi], and the best window wins.

Under the fixed-fraction model the programme runs on the revenue table's
integer image (every entry times one common scale, exactly), so its hot
loops add and compare plain integers; the result becomes a Fraction only
on the way out. Under the logit model it runs on the float table itself.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from typing import Optional, Sequence

from .model import Instance, adjacency, revenue_table, zero_revenue
from .money import Money


class DpCallCounter:
    """Tracks dynamic-programme work, for checking complexity budgets.

    count is the number of dp_prices invocations; cells is the total
    number of (stage, grid index) table entries filled across them, which
    is the unit the stated running-time bounds are expressed in.
    """

    __slots__ = ("count", "cells")

    def __init__(self):
        self.count = 0
        self.cells = 0

    def reset(self):
        self.count = 0
        self.cells = 0


DP_CALLS = DpCallCounter()


def allocate(
    inst: Instance, ladder: Sequence[int], n_active: Optional[int] = None
) -> dict[int, int]:
    """First-fit assignment of demand nodes to the first n_active outlets.

    Returns a map from demand id to the serving outlet. Nodes connected to
    none of the active outlets stay unassigned.
    """
    if n_active is None:
        n_active = len(ladder)
    if n_active > len(ladder):
        raise ValueError("n_active exceeds ladder length")
    _, n_f, _ = adjacency(inst)
    assignment: dict[int, int] = {}
    for pos in range(n_active):
        f = ladder[pos]
        for e in n_f[f]:
            if e not in assignment:
                assignment[e] = f
    return assignment


def dp_prices(
    inst: Instance,
    ladder: Sequence[int],
    assignment: dict[int, int],
    n_active: Optional[int] = None,
    pi: Optional[Money] = None,
):
    """Optimal non-decreasing prices for a ladder under a fixed allocation.

    Returns (prices, revenue) with one price per active ladder position.
    Ties are broken toward the highest price at every position, so an
    outlet that earns nothing is pushed to the top of its feasible range.
    """
    DP_CALLS.count += 1
    if n_active is None:
        n_active = len(ladder)
    if n_active > len(ladder):
        raise ValueError("n_active exceeds ladder length")
    zero = zero_revenue(inst.model)
    grid = inst.grid.prices
    n_prices = len(grid)
    if n_active == 0:
        return (), zero

    table = revenue_table(inst, inst.model)
    rows_of = table if table.ints is None else table.ints
    start = zero if table.ints is None else 0
    by_position = [[] for _ in range(n_active)]
    pos_of = {ladder[k]: k for k in range(n_active)}
    for e, f in assignment.items():
        by_position[pos_of[f]].append(e)
    stage_rev = []
    for pos in range(n_active):
        f = ladder[pos]
        rows = [rows_of[(e, f)] for e in by_position[pos]]
        if rows:
            stage_rev.append([sum(column, start) for column in zip(*rows)])
        else:
            stage_rev.append([start] * n_prices)

    def run_window(lo: int, hi: int):
        # Forward pass: each stage adds its revenue to the prefix maximum
        # of the stage before. The backward pass takes, at every stage,
        # the highest grid index attaining the maximum it continues from.
        DP_CALLS.cells += n_active * (hi - lo + 1)
        values = [stage_rev[0][lo : hi + 1]]
        prefix_best = []
        for pos in range(1, n_active):
            prefix_best.append(list(accumulate(values[-1], max)))
            values.append(
                [r + b for r, b in zip(stage_rev[pos][lo : hi + 1], prefix_best[-1])]
            )
        best = max(values[-1])
        target, m = best, hi - lo
        indices = [0] * n_active
        for pos in range(n_active - 1, -1, -1):
            value = values[pos]
            while value[m] != target:
                m -= 1
            indices[pos] = lo + m
            if pos:
                target = prefix_best[pos - 1][m]
        return best, indices

    if pi is None:
        best_rev, best_idx = run_window(0, n_prices - 1)
    else:
        best_rev, best_idx = None, None
        for lo in range(n_prices):
            hi = lo
            while hi + 1 < n_prices and grid[hi + 1] - grid[lo] <= pi:
                hi += 1
            rev, idx = run_window(lo, hi)
            if best_rev is None or rev > best_rev:
                best_rev, best_idx = rev, idx
    prices = tuple(grid[m] for m in best_idx)
    if table.scale is not None:
        best_rev = Fraction(best_rev, table.scale)
    return prices, best_rev

