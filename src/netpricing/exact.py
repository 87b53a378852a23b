"""Exhaustive reference solvers for desk-scale instances.

brute_force enumerates every grid price vector and keeps the best, so it
is the ground truth everything else is checked against. ladder_exact finds
the best outlet ordering, each ordering priced optimally; for the
fixed-fraction model the two agree exactly.

ladder_exact is a subset pass followed by a descent over ladder prefixes.
Under first-fit allocation the nodes a prefix covers depend only on
its set of outlets S, so the best revenue the unplaced outlets can still
earn, in any order, is a function of S, the spread window w and the grid
index m the remaining prices may not go below:

    rest[full][w][m] = 0
    rest[S][w][m]    = max over f not in S, m' >= m, of
                       stage(S, f)[m'] + rest[S | f][w][m']

where stage(S, f) is the summed revenue row of f's nodes that S does not
cover yet, taken from the revenue table's stage memo. One backward pass
over the 2^n outlet sets (Held and Karp's subset programme, J. SIAM
10(1), 1962) fills the table at a cost of n * 2^(n-1) stages, with one
suffix maximum per set: the maximum over m' >= m commutes with the
maximum over f.

An unplaced outlet d is dead for S when S already covers all its nodes,
and then rest[S] == rest[S | d] exactly. d's own option is stage(S, d) =
0 plus rest[S | d], which is already a suffix maximum. Every other
option f has stage(S, f) == stage(S | d, f), since d adds no covered
node, and rest[S | f] == rest[S | f | d] by the same argument on the
larger set, which the backward pass has settled first. So the options
of S are those of S | d plus rest[S | d] itself. The pass therefore
shares rest[S | d]'s row object for S and works out no (S, f) stage at
all; the rows are read, never written into. On the paper grid's
5-outlet shapes this skips about 38% of the pairs. The pass still adds
the programme's nominal n * 2^(n-1) stages to the revenue table's filled
count, so the stated bound reads the same whatever the pass skips.

A prefix whose last stage has prefix maxima maxima[w][m] then completes
to at best

    max over w, m of maxima[w][m] + rest[S][w][m].

Both passes run on the revenue table's integer image, so this bound is
exactly the prefix's best completion under either demand model. The
first child, by outlet id, whose bound equals the optimum therefore
begins the lexicographically first optimal ordering, and the descent
never backtracks.
"""

from __future__ import annotations

from itertools import product
from operator import add

from .ladder import _pairwise_max, _price, _push, _stage, _suffix_max
from .model import Instance, RevenueTable, evaluate_prices, revenue_table

ENUMERATION_LIMIT = 5_000_000
# The subset table holds 2^n rows of one entry per window cell, so its
# memory doubles with every outlet; at 10 outlets with a spread cap a
# search already peaks near 70 MB.
LADDER_OUTLET_LIMIT = 10


class EnumerationTooLarge(ValueError):
    """The grid price vector space exceeds the enumeration budget."""


class TooManyOutlets(ValueError):
    """The ordering search's subset table would be too large."""


def brute_force(inst: Instance, limit: int = ENUMERATION_LIMIT):
    """Best revenue over all grid price vectors, by full enumeration.

    With a spread cap pi, each vector within it is met once, among the
    vectors of grid prices in [lo, lo + pi] whose lowest price is lo.
    Ties go to the lexicographically smallest price vector. Returns
    (revenue, prices).
    """
    n = inst.n_outlets
    grid = inst.grid.prices
    total = len(grid) ** n
    if total > limit:
        raise EnumerationTooLarge(
            f"{len(grid)}^{n} = {total} price vectors exceed the limit {limit}"
        )
    if inst.pi is None:
        vectors = product(grid, repeat=n)
    else:
        vectors = (
            prices
            for lo in grid
            for prices in product([p for p in grid if 0 <= p - lo <= inst.pi], repeat=n)
            if min(prices) == lo
        )
    best_rev = best_prices = None
    for prices in vectors:
        revenue, _, _ = evaluate_prices(inst, prices)
        if best_rev is None or revenue > best_rev or (revenue == best_rev and prices < best_prices):
            best_rev, best_prices = revenue, prices
    return best_rev, best_prices


def ladder_exact(inst: Instance):
    """Best revenue over all outlet orderings, each priced optimally.

    The subset pass gives every prefix's exact completion bound (see the
    module docstring) and the optimum. The descent then grows one prefix
    from the empty ladder: at each step it pushes the unplaced outlets in
    ascending id order and keeps the first whose bound equals the
    optimum, so the result is the first optimal ordering in
    lexicographic order, as if all |O|! orderings were walked. The winner
    is priced by walking back through the descent's own trie states. At n
    outlets, without a cap, on a trie no earlier search on the instance
    grew, the search fills (n * 2^(n-1) + sum(rank_i + 1)) rows of the
    grid: the subset pass and the pushes of the descent, where rank_i
    counts the unplaced outlets with an id below the i-th chosen one.
    rank_i + 1 counts live pushes only, each trie state once: a dead
    outlet fills nothing, and choosing one leaves the state as it was,
    so the next step's pushes of the outlets tried before are hits.
    Returns (revenue, ladder, prices) with prices indexed by outlet id.
    """
    n = inst.n_outlets
    if n > LADDER_OUTLET_LIMIT:
        raise TooManyOutlets(
            f"{n} outlets exceed the ordering search's limit of "
            f"{LADDER_OUTLET_LIMIT} ({2 ** n} outlet subsets)"
        )
    table = revenue_table(inst, inst.model)
    rest = _completions(table, n)
    target = max(window[0] for window in rest[0])
    state, subset, ladder = table.root, 0, []
    for _ in range(n):
        for f in range(n):
            if subset >> f & 1:
                continue
            child = _push(table, state, f)
            if _bound(child[1], rest[subset | 1 << f]) == target:
                break
        state, subset = child, subset | 1 << f
        ladder.append(f)
    prices, revenue = _price(inst, table, ladder)
    return revenue, tuple(ladder), prices


def _completions(table: RevenueTable, n: int) -> list:
    """rest[S][w][m] of the module docstring, for every outlet set S.

    table is the instance's revenue table, S a bitmask over outlet ids
    and m an index into window w. Entries are sums of the table's integer
    image, its stage rows come from the table's stage memo, and each
    (S, f) stage adds table.cells to table.filled, as one push does, also
    where S has a dead outlet and shares its row (see the module
    docstring).
    """
    full = (1 << n) - 1
    masks = table.masks
    covered = [0] * (full + 1)
    for subset in range(1, full + 1):
        low = subset & -subset
        covered[subset] = covered[subset ^ low] | masks[low.bit_length() - 1]
    rest = [None] * (full + 1)
    rest[full] = table.root[1]
    for subset in range(full - 1, -1, -1):
        uncovered = ~covered[subset]
        for d in range(n):
            if not (subset >> d & 1 or masks[d] & uncovered):
                # d is dead: S and S | d have the same rest (see the
                # module docstring), so the row is shared.
                rest[subset] = rest[subset | 1 << d]
                break
        else:
            rest[subset] = _live_row(table, n, subset, covered[subset], rest)
    table.filled += n * (1 << (n - 1)) * table.cells
    return rest


def _live_row(table: RevenueTable, n: int, subset: int, covered: int, rest: list):
    """rest[subset] from the rows of its supersets, when no unplaced
    outlet is dead, so that each one's stage row is a row, not None."""
    best = None
    for f in range(n):
        if subset >> f & 1:
            continue
        # rest[subset | 1 << f] is shared: read, never written into.
        stage = _stage(table, covered, f)[1]
        options = [
            map(add, stage[lo : hi + 1], tail)
            for (lo, hi), tail in zip(table.windows, rest[subset | 1 << f])
        ]
        if best is None:
            best = [list(w) for w in options]
        else:
            best = [_pairwise_max(a, b) for a, b in zip(best, options)]
    # max does no arithmetic, so one suffix maximum per subset gives
    # the same numbers as one per (subset, f).
    return [_suffix_max(w) for w in best]


def _bound(maxima, rest_of_subset):
    """Best raw revenue of any completion of a prefix state's maxima."""
    return max(
        max(map(add, before, after))
        for before, after in zip(maxima, rest_of_subset)
    )
