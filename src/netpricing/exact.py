"""Exhaustive reference solvers for desk-scale instances.

brute_force enumerates every grid price vector and keeps the best, so it
is the ground truth everything else is checked against. ladder_exact
enumerates outlet orderings as a depth-first search over ladder prefixes,
in lexicographic order, adding one programme stage per outlet appended to
a prefix; for the fixed-fraction model the two agree exactly.
"""

from __future__ import annotations

import math

from .ladder import _Prefixes, allocate, dp_prices
from .model import Instance, evaluate_prices, zero_revenue

ENUMERATION_LIMIT = 5_000_000
LADDER_OUTLET_LIMIT = 8


class EnumerationTooLarge(ValueError):
    """The grid price vector space exceeds the enumeration budget."""


class TooManyOutlets(ValueError):
    """Ordering enumeration would need more than factorial budget."""


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

    Walks the |O|! ladders as a depth-first search over prefixes, trying
    the remaining outlets in ascending id order, so the orderings come in
    lexicographic order; each prefix's programme stages are computed once
    and shared by every ordering that extends it. The first ordering
    attaining the best revenue wins, and is priced with dp_prices.
    Returns (revenue, ladder, prices) with prices indexed by outlet id.
    """
    n = inst.n_outlets
    if n > LADDER_OUTLET_LIMIT:
        raise TooManyOutlets(
            f"{n} outlets would need {math.factorial(n)} orderings"
        )
    prefixes = _Prefixes(inst, inst.pi)
    best_rev = None
    best_ladder = None
    ladder: list[int] = []

    def walk(state, remaining: list[int]):
        nonlocal best_rev, best_ladder
        if not remaining:
            revenue = prefixes.value(state)
            if best_rev is None or revenue > best_rev:
                best_rev = revenue
                best_ladder = tuple(ladder)
            return
        for f in remaining:
            ladder.append(f)
            walk(prefixes.push(state, f), [g for g in remaining if g != f])
            ladder.pop()

    walk(prefixes.EMPTY, list(range(n)))
    prices, revenue = dp_prices(
        inst, best_ladder, allocate(inst, best_ladder), pi=inst.pi
    )
    by_outlet = [0] * n
    for pos, f in enumerate(best_ladder):
        by_outlet[f] = prices[pos]
    return revenue, best_ladder, tuple(by_outlet)
