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
maximum over f. A prefix whose last stage has prefix maxima
maxima[w][m] then completes to at best

    max over w, m of maxima[w][m] + rest[S][w][m].

Both passes run on the revenue table's integer image, so this bound is
exactly the prefix's best completion under either demand model. The
first child, by outlet id, whose bound equals the optimum therefore
begins the lexicographically first optimal ordering, and the descent
never backtracks.
"""

from __future__ import annotations

from itertools import accumulate
from operator import add

from .ladder import DP_CALLS, _Prefixes, allocate, dp_prices
from .model import Instance, evaluate_prices

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

    Respects the instance's spread cap by pruning partial vectors whose
    spread already exceeds it. Ties go to the lexicographically smallest
    price vector. Returns (revenue, prices).
    """
    n = inst.n_outlets
    grid = inst.grid.prices
    total = len(grid) ** n
    if total > limit:
        raise EnumerationTooLarge(
            f"{len(grid)}^{n} = {total} price vectors exceed the limit {limit}"
        )
    pi = inst.pi
    best_rev = None
    best_prices = None
    current = [grid[0]] * n

    def walk(pos: int, lo, hi):
        nonlocal best_rev, best_prices
        if pos == n:
            revenue, _, _ = evaluate_prices(inst, current)
            if best_rev is None or revenue > best_rev:
                best_rev = revenue
                best_prices = tuple(current)
            return
        for price in grid:
            new_lo = price if lo is None or price < lo else lo
            new_hi = price if hi is None or price > hi else hi
            if pi is not None and new_hi - new_lo > pi:
                continue
            current[pos] = price
            walk(pos + 1, new_lo, new_hi)

    walk(0, None, None)
    del walk  # walk refers to itself: break the cycle, so inst is freed on return
    return best_rev, best_prices


def ladder_exact(inst: Instance):
    """Best revenue over all outlet orderings, each priced optimally.

    The subset pass gives every prefix's exact completion bound (see the
    module docstring) and the optimum. The descent then grows one prefix
    from the empty ladder: at each step it pushes the unplaced outlets in
    ascending id order and keeps the first whose bound equals the
    optimum, so the result is the first optimal ordering in
    lexicographic order, as if all |O|! orderings were walked. The winner
    is priced with dp_prices. At n outlets, without a cap, the search
    fills (n * 2^(n-1) + sum(rank_i + 1) + n) rows of the grid: the
    subset pass, the pushes of the descent, where rank_i counts the
    unplaced outlets with an id below the i-th chosen one, and the
    pricing. Returns (revenue, ladder, prices) with prices indexed by
    outlet id.
    """
    n = inst.n_outlets
    if n > LADDER_OUTLET_LIMIT:
        raise TooManyOutlets(
            f"{n} outlets exceed the ordering search's limit of "
            f"{LADDER_OUTLET_LIMIT} ({2 ** n} outlet subsets)"
        )
    prefixes = _Prefixes(inst, inst.pi)
    rest = _completions(prefixes, n)
    target = max(window[0] for window in rest[0])
    state, subset, ladder = prefixes.root, 0, []
    for _ in range(n):
        for f in range(n):
            if subset >> f & 1:
                continue
            child = prefixes.push(state, f)
            if _bound(child[1], rest[subset | 1 << f]) == target:
                break
        state, subset = child, subset | 1 << f
        ladder.append(f)
    prices, revenue = dp_prices(inst, ladder, allocate(inst, ladder), pi=inst.pi)
    by_outlet = [0] * n
    for pos, f in enumerate(ladder):
        by_outlet[f] = prices[pos]
    return revenue, tuple(ladder), tuple(by_outlet)


def _completions(prefixes: _Prefixes, n: int) -> list:
    """rest[S][w][m] of the module docstring, for every outlet set S.

    S is a bitmask over outlet ids and m an index into window w. Entries
    are sums of the table's integer image, and each (S, f) stage counts as
    one push in DP_CALLS.cells.
    """
    full = (1 << n) - 1
    covered = [0] * (full + 1)
    for subset in range(1, full + 1):
        low = subset & -subset
        covered[subset] = covered[subset ^ low] | prefixes.masks[low.bit_length() - 1]
    rest = [None] * (full + 1)
    rest[full] = [[0] * (hi - lo + 1) for lo, hi in prefixes.windows]
    for subset in range(full - 1, -1, -1):
        best = None
        for f in range(n):
            if subset >> f & 1:
                continue
            after = rest[subset | 1 << f]
            stage = prefixes.stage(covered[subset], f)[1]
            if stage is None:
                options = after
            else:
                options = [
                    list(map(add, stage[lo : hi + 1], tail))
                    for (lo, hi), tail in zip(prefixes.windows, after)
                ]
            if best is None:
                best = options
            else:
                best = [list(map(max, a, b)) for a, b in zip(best, options)]
        # max does no arithmetic, so one suffix maximum per subset gives
        # the same numbers as one per (subset, f).
        rest[subset] = [list(accumulate(reversed(w), max))[::-1] for w in best]
    DP_CALLS.cells += n * (1 << (n - 1)) * prefixes.cells
    return rest


def _bound(maxima, rest_of_subset):
    """Best raw revenue of any completion of a prefix state's maxima."""
    return max(
        max(map(add, before, after))
        for before, after in zip(maxima, rest_of_subset)
    )
