"""Exhaustive reference solvers for desk-scale instances.

brute_force enumerates every grid price vector and keeps the best, so it
is the ground truth everything else is checked against. ladder_exact finds
the best outlet ordering, each ordering priced optimally; for the
fixed-fraction model the two agree exactly.

ladder_exact is a branch and bound over ladder prefixes with an exact
bound. Under first-fit allocation the nodes a prefix covers depend only on
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

    max over w, m of maxima[w][m] + rest[S][w][m],

which is exact, so the depth-first search descends only into prefixes
that can still reach the optimum and beat the best ordering found so far.
"""

from __future__ import annotations

from itertools import accumulate
from operator import add

from .ladder import DP_CALLS, _Prefixes, allocate, dp_prices
from .model import Instance, evaluate_prices, zero_revenue

ENUMERATION_LIMIT = 5_000_000
# The subset table holds 2^n rows of one entry per window cell, so its
# memory doubles with every outlet; at 10 outlets with a spread cap a
# search already peaks near 70 MB.
LADDER_OUTLET_LIMIT = 10
# Under the logit model the forward (prefix) and backward (subset) sums
# add the same floats in different orders and differ by about 1e-14
# relative, so a bound is widened by this share of the optimum before it
# prunes anything.
FLOAT_SLACK = 1e-9


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
    if best_rev is None:  # only possible when pi prunes everything, n >= 1 guards rest
        return zero_revenue(inst.model), tuple([grid[0]] * n)
    return best_rev, best_prices


def ladder_exact(inst: Instance):
    """Best revenue over all outlet orderings, each priced optimally.

    A depth-first search over ladder prefixes that tries the remaining
    outlets in ascending id order, so orderings come in lexicographic
    order, and pushes one programme stage per outlet added to a prefix.
    A child prefix is pruned when its exact completion bound (see the
    module docstring) falls below the optimum or does not beat the best
    ordering found so far, so the first ordering attaining the best
    revenue wins, as if all |O|! orderings were walked. Under the logit
    model the bound is first widened by FLOAT_SLACK times the optimum.
    The winner is priced with dp_prices. At n outlets, without a cap and
    under the fixed-fraction model, the search fills
    (n * 2^(n-1) + n(n+1)/2 + n) rows of the grid: the subset pass, one
    push per child along the path to the winner, and its pricing.
    Returns (revenue, ladder, prices) with prices indexed by outlet id.
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
    slack = 0 if prefixes.scale is not None else FLOAT_SLACK * max(1.0, abs(target))
    best_rev = None
    best_ladder = None
    ladder: list[int] = []

    def walk(state, subset: int, remaining: list[int]):
        nonlocal best_rev, best_ladder
        if not remaining:
            revenue = prefixes.value(state)
            if best_rev is None or revenue > best_rev:
                best_rev = revenue
                best_ladder = tuple(ladder)
            return
        for f in remaining:
            child = prefixes.push(state, f)
            bound = _bound(child[1], rest[subset | 1 << f]) + slack
            if bound < target or (best_rev is not None and bound <= best_rev):
                continue
            ladder.append(f)
            walk(child, subset | 1 << f, [g for g in remaining if g != f])
            ladder.pop()

    walk(prefixes.EMPTY, 0, list(range(n)))
    prices, revenue = dp_prices(
        inst, best_ladder, allocate(inst, best_ladder), pi=inst.pi
    )
    by_outlet = [0] * n
    for pos, f in enumerate(best_ladder):
        by_outlet[f] = prices[pos]
    return revenue, best_ladder, tuple(by_outlet)


def _completions(prefixes: _Prefixes, n: int) -> list:
    """rest[S][w][m] of the module docstring, for every outlet set S.

    S is a bitmask over outlet ids and m an index into window w. Entries
    are the raw table numbers of prefixes, and each (S, f) stage counts as
    one push in DP_CALLS.cells.
    """
    full = (1 << n) - 1
    covered = [0] * (full + 1)
    for subset in range(1, full + 1):
        low = subset & -subset
        covered[subset] = covered[subset ^ low] | prefixes.masks[low.bit_length() - 1]
    rest = [None] * (full + 1)
    rest[full] = [[prefixes.start] * (hi - lo + 1) for lo, hi in prefixes.windows]
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
    if maxima is None:
        return max(window[0] for window in rest_of_subset)
    return max(
        max(map(add, before, after))
        for before, after in zip(maxima, rest_of_subset)
    )
