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
One stage step, _advance, turns the prefix maxima after k-1 stages into
those after k, starting from all zeros; pricing and the prefix searches
below both run it. dp_prices keeps the chain of prefix maxima and walks
back through it, taking at every stage the highest grid index that
attains the maximum the next stage continues from.

A finite spread cap pi restricts max(price) - min(price). The programme is
then repeated once per candidate floor index, restricting the grid to the
window [b(m0), b(m0) + pi], and the best window wins.

The programme runs on the revenue table's integer image (every entry
times one common scale, exactly) under both demand models, so its hot
loops add and compare plain integers and every comparison is exact; the
result becomes a Fraction, or under the logit model a float rounded once,
only on the way out.

Under first-fit allocation a prefix's forward values do not depend on the
outlets that follow it. The searches that try many ladders sharing a
prefix (insertion, greedy selection, the ordering search) therefore keep
prefix states: the nodes the prefix covers, as a bitmask over node ids,
and, per window, the prefix maxima of its last stage. Pushing one outlet
onto a state adds one stage, at a cost of one cell per grid index of every
window; the state's value is the best revenue of any pricing of the
prefix. The states form a trie that lasts one search (an insertion
heuristic's whole run, say): a prefix pushed again is looked up, not
recomputed, and fills no cells. A stage's row, the sum of the outlet's
still-uncovered node rows, depends only on the outlet and those nodes, so
it is kept in the stage memo of the instance's revenue table and summed
once per instance. A search therefore gets exactly the numbers dp_prices gets,
from the same stage step.
"""

from __future__ import annotations

from itertools import accumulate
from operator import add
from typing import Optional, Sequence

from .model import Instance, adjacency, revenue_table
from .money import Money


class DpCallCounter:
    """Tracks dynamic-programme work, for checking complexity budgets.

    count is the number of dp_prices invocations; cells is the total
    number of (stage, grid index) table entries filled by them and by the
    prefix searches' stages, which is the unit the stated running-time
    bounds are expressed in. A prefix the search's trie already holds
    fills no cells.
    """

    __slots__ = ("count", "cells")

    def __init__(self):
        self.count = 0
        self.cells = 0

    def reset(self):
        self.count = 0
        self.cells = 0


DP_CALLS = DpCallCounter()


def allocate(inst: Instance, ladder: Sequence[int]) -> dict[int, int]:
    """First-fit assignment of demand nodes to the ladder's outlets.

    Returns a map from demand id to the serving outlet. Nodes connected to
    none of the ladder's outlets stay unassigned.
    """
    _, n_f, _ = adjacency(inst)
    assignment: dict[int, int] = {}
    for f in ladder:
        for e in n_f[f]:
            if e not in assignment:
                assignment[e] = f
    return assignment


def dp_prices(
    inst: Instance,
    ladder: Sequence[int],
    assignment: dict[int, int],
    *,
    pi: Optional[Money] = None,
):
    """Optimal non-decreasing prices for a ladder under a fixed allocation.

    Returns (prices, revenue) with one price per ladder position. Ties are
    broken toward the highest price at every position, so an outlet that
    earns nothing is pushed to the top of its feasible range.
    """
    DP_CALLS.count += 1
    table = revenue_table(inst, inst.model)
    grid = inst.grid.prices
    windows = _windows(grid, pi)
    DP_CALLS.cells += len(ladder) * sum(hi - lo + 1 for lo, hi in windows)
    by_outlet = {f: [] for f in ladder}
    for e, f in assignment.items():
        by_outlet[f].append(table.ints[(e, f)])
    stages = [
        [sum(column) for column in zip(*by_outlet[f])] if by_outlet[f] else None
        for f in ladder
    ]
    chain = [[[0] * (hi - lo + 1) for lo, hi in windows]]
    for stage in stages:
        chain.append(_advance(windows, stage, chain[-1]))
    # The first window attaining the best value wins; walking back, each
    # stage takes the highest grid index attaining the maximum the stage
    # after it continues from.
    finals = [maxima[-1] for maxima in chain[-1]]
    w = finals.index(max(finals))
    lo, hi = windows[w]
    target, m = finals[w], hi - lo
    indices = [0] * len(ladder)
    for pos in range(len(ladder) - 1, -1, -1):
        stage, before = stages[pos], chain[pos][w]
        while (stage[lo + m] if stage else 0) + before[m] != target:
            m -= 1
        indices[pos] = lo + m
        target = before[m]
    return tuple(grid[m] for m in indices), table.revenue(finals[w])


def _advance(windows, stage, before):
    """Per-window prefix maxima after one more stage.

    before holds the prefix maxima of the stages so far, one list per
    (lo, hi) window; stage is the new stage's row over the whole grid, or
    None when it earns nothing, which adds zero to every prefix maximum.
    """
    if stage is None:
        return before
    return [
        list(accumulate(map(add, stage[lo : hi + 1], maxima), max))
        for (lo, hi), maxima in zip(windows, before)
    ]


def _windows(grid: Sequence[Money], pi: Optional[Money]) -> list[tuple[int, int]]:
    """The (lo, hi) grid index windows the programme is run over.

    Without a cap that is the whole grid; with a spread cap pi it is one
    window [b(m0), b(m0) + pi] per floor index m0, in ascending order.
    """
    n_prices = len(grid)
    if pi is None:
        return [(0, n_prices - 1)]
    windows = []
    for lo in range(n_prices):
        hi = lo
        while hi + 1 < n_prices and grid[hi + 1] - grid[lo] <= pi:
            hi += 1
        windows.append((lo, hi))
    return windows


class _Prefixes:
    """A trie of prefix states of the ladder programme on one instance and cap.

    A state is (covered nodes as a bitmask, prefix maxima of the last
    stage per window, children by outlet); root is the empty prefix, whose
    maxima are all zero. push returns the stored child when the trie has
    it, so one object serves one search, such as an insertion run, and
    dies with it; it is never kept on the instance's revenue table. push
    and value work on the table's integer image; revenue turns a raw
    value into the public number type. Stage rows come from the revenue
    table's memo (RevenueTable.stages), which every search on the
    instance shares.
    """

    __slots__ = (
        "rows", "revenue", "n_f", "masks", "stages", "windows", "cells", "root"
    )

    def __init__(self, inst: Instance, pi: Optional[Money]):
        table = revenue_table(inst, inst.model)
        self.rows = table.ints
        self.revenue = table.revenue
        self.masks = table.masks
        self.stages = table.stages
        self.n_f = adjacency(inst)[1]
        self.windows = _windows(inst.grid.prices, pi)
        self.cells = sum(hi - lo + 1 for lo, hi in self.windows)
        self.root = (0, [[0] * (hi - lo + 1) for lo, hi in self.windows], {})

    def stage(self, covered: int, f: int):
        """Outlet f's nodes outside covered, as a bitmask, and their summed row.

        The row is None when there are no such nodes. Threads may share
        the memo without a lock: a race only sums a row twice.
        """
        new = self.masks[f] & ~covered
        if not new:
            return 0, None
        row = self.stages.get((f, new))
        if row is None:
            rows = [self.rows[(e, f)] for e in self.n_f[f] if new >> e & 1]
            row = tuple(sum(column) for column in zip(*rows))
            self.stages[(f, new)] = row
        return new, row

    def push(self, state, f: int):
        """The state of the prefix followed by outlet f."""
        covered, maxima, children = state
        child = children.get(f)
        if child is not None:
            return child
        DP_CALLS.cells += self.cells
        new, stage = self.stage(covered, f)
        child = children[f] = (covered | new, _advance(self.windows, stage, maxima), {})
        return child

    def value(self, state):
        """Best raw revenue of any pricing of the prefix."""
        return max(window[-1] for window in state[1])
