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
below both run it. Pricing keeps the chain of prefix maxima and walks
back through it (_walk_back), taking at every stage the highest grid
index that attains the maximum the next stage continues from.

The instance's spread cap inst.pi, when finite, restricts max(price) -
min(price). The programme is then repeated once per candidate floor index,
restricting the grid to the window [b(m0), b(m0) + pi], and the best
window wins. The windows are built with the revenue table (model._windows),
so every pricing path prices within the instance's own cap; to price under
another cap, pass replace(inst, pi=...).

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
window (_push); the state's value is the best revenue of any pricing of
the prefix (_value). The states form one trie per instance, rooted in the
instance's revenue table: a prefix any run on it pushed before is looked
up, not recomputed, and fills no cells. An outlet whose nodes the prefix
already covers is dead for it: pushing it gives back the prefix's own
state, so a trie state stands for its prefix with the dead outlets
dropped, and a dead push stores nothing and fills no cells. A stage's
row, the sum of the outlet's still-uncovered node rows, depends only on
the outlet and those nodes, so it is kept in the same table's stage memo
(_stage). The revenue table is the only per-instance object these
functions read. A run prices its final ladder by walking back through
the ladder's trie states (_price), so it gets exactly the numbers
dp_prices gets, from the same stage step and walk.

The per-cell kernels (_prefix_max, _suffix_max, _pairwise_max, and the
row sums of _sum_rows) compare plain integers in for loops rather than
calling the builtin max once per cell, which costs a function call per
grid index. They write only into lists they create: the trie's stored
maxima, the memoised stage rows and the table's own rows are shared by
every search on the instance, so no kernel may write into its inputs.
"""

from __future__ import annotations

from operator import add
from typing import Sequence

from .model import Instance, RevenueTable, adjacency, revenue_table


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


def dp_prices(inst: Instance, ladder: Sequence[int], assignment: dict[int, int]):
    """Optimal non-decreasing prices for a ladder under a fixed allocation,
    within the instance's spread cap inst.pi.

    Returns (prices, revenue) with one price per ladder position. Ties are
    broken toward the highest price at every position, so an outlet that
    earns nothing is pushed to the top of its feasible range. Each call
    adds its len(ladder) stages of cells to the revenue table's filled.
    """
    table = revenue_table(inst, inst.model)
    grid = inst.grid.prices
    windows = table.windows
    table.filled += len(ladder) * table.cells
    by_outlet = {f: [] for f in ladder}
    for e, f in assignment.items():
        by_outlet[f].append(table.ints[(e, f)])
    stages = [_sum_rows(by_outlet[f]) for f in ladder]
    chain = [table.root[1]]
    for stage in stages:
        chain.append(_advance(windows, stage, chain[-1]))
    indices, raw = _walk_back(windows, stages, chain)
    return tuple(grid[m] for m in indices), table.revenue(raw)


def _walk_back(windows, stages, chain):
    """Grid index per stage, and the best raw value, from the chain of
    per-window prefix maxima (chain[k] after k stages). The first window
    attaining the best value wins; walking back, each stage takes the
    highest grid index attaining the maximum the next stage continues from.
    """
    finals = [maxima[-1] for maxima in chain[-1]]
    w = finals.index(max(finals))
    lo, hi = windows[w]
    target, m = finals[w], hi - lo
    indices = [0] * len(stages)
    for pos in range(len(stages) - 1, -1, -1):
        stage, before = stages[pos], chain[pos][w]
        while (stage[lo + m] if stage else 0) + before[m] != target:
            m -= 1
        indices[pos] = lo + m
        target = before[m]
    return indices, finals[w]


def _advance(windows, stage, before):
    """Per-window prefix maxima after one more stage.

    before holds the prefix maxima of the stages so far, one list per
    (lo, hi) window; stage is the new stage's row over the whole grid, or
    None when it earns nothing, which adds zero to every prefix maximum.
    """
    if stage is None:
        return before
    return [
        _prefix_max(map(add, stage[lo : hi + 1], maxima))
        for (lo, hi), maxima in zip(windows, before)
    ]


def _sum_rows(rows):
    """Column sums of image rows, or None when there are no rows.

    A single row is returned as it is: the table's rows are tuples, never
    written into. Several are folded pairwise into a new tuple.
    """
    if not rows:
        return None
    total = rows[0]
    for row in rows[1:]:
        total = tuple(map(add, total, row))
    return total


def _prefix_max(values):
    """The running maxima of a non-empty iterable of ints, as a new list."""
    values = iter(values)
    best = next(values)
    out = [best]
    append = out.append  # bound once: the loop runs once per grid cell
    for x in values:
        if x > best:
            best = x
        append(best)
    return out


def _suffix_max(values):
    """out[m] = max(values[m:]) of a non-empty sequence of ints, as a new list."""
    best = values[-1]
    out = []
    append = out.append
    for x in reversed(values):
        if x > best:
            best = x
        append(best)
    out.reverse()
    return out


def _pairwise_max(a, b):
    """Elementwise maximum of two int iterables, as a new list.

    Ties keep a's element, as max(a, b) does.
    """
    return [x if x >= y else y for x, y in zip(a, b)]


def _stage(table: RevenueTable, covered: int, f: int):
    """Outlet f's nodes outside covered, as a bitmask, and their summed row.

    The row is None when there are no such nodes. Rows are kept in the
    table's stage memo, which threads may share without a lock: a race
    only sums a row twice.
    """
    new = table.masks[f] & ~covered
    if not new:
        return 0, None
    row = table.stages.get((f, new))
    if row is None:
        rows = [table.ints[(e, f)] for e in table.n_f[f] if new >> e & 1]
        row = table.stages[(f, new)] = _sum_rows(rows)
    return new, row


def _push(table: RevenueTable, state, f: int):
    """The trie state of the prefix followed by outlet f.

    A state is (covered nodes as a bitmask, prefix maxima of the last
    stage per window, children by outlet), and table.root is the empty
    prefix, whose maxima are all zero. The stored child is returned when
    the trie has it; a new one fills table.cells cells, which it adds to
    table.filled. An outlet that covers no node outside the state's
    covered mask is dead there: its stage earns nothing and leaves the
    maxima as they are, so the state itself is returned, with no trie
    edge stored (a self-edge would be a reference cycle) and no cells
    counted. Racing threads share the table, and so its trie, and may
    build a child twice, with equal values.
    """
    covered, maxima, children = state
    child = children.get(f)
    if child is None:
        new, stage = _stage(table, covered, f)
        if not new:
            return state
        table.filled += table.cells
        maxima = _advance(table.windows, stage, maxima)
        child = children[f] = (covered | new, maxima, {})
    return child


def _value(state):
    """Best raw revenue of any pricing of a prefix state."""
    return max(window[-1] for window in state[1])


def _price(inst: Instance, table: RevenueTable, ladder: Sequence[int]):
    """(prices by outlet id, revenue) of a whole ladder under first-fit
    allocation, as dp_prices gives them; outlets off it get 0. table is
    inst's revenue table."""
    states = [table.root]
    for f in ladder:
        states.append(_push(table, states[-1], f))
    stages = [_stage(table, state[0], f)[1] for state, f in zip(states, ladder)]
    indices, raw = _walk_back(table.windows, stages, [s[1] for s in states])
    grid = inst.grid.prices
    prices = [0] * inst.n_outlets
    for f, m in zip(ladder, indices):
        prices[f] = grid[m]
    return tuple(prices), table.revenue(raw)
