"""Constructive heuristics for network min-pricing.

Three families:

* single_price posts one uniform price everywhere and scores candidates by
  undercut revenue only.
* Selection heuristics (greedy_select, order_select) build a ladder left
  to right, committing one outlet per step.
* Insertion heuristics re-place outlets one at a time at the best position
  of a growing ladder. full_insertion chooses the next outlet itself;
  insertion_with_order follows a precomputed selection order, which is how
  the greedy, order, and relaxation-guided variants are composed.

All ties break toward the lower id or the earlier position, so every
heuristic is deterministic. Every ladder heuristic prices within the
instance's own spread cap, inst.pi.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from operator import add
from typing import Optional, Sequence

from .ladder import _pairwise_max, _price, _push, _value
from .ladder import allocate  # noqa: F401  (perfbench traces it here)
from .model import (
    MNPP,
    Instance,
    adjacency,
    logit_share,
    revenue_table,
)
from .money import MONEY_SCALE, Money

ALGORITHMS = ("sp", "greedy", "order", "fi", "greedyI", "orderI", "ip1I", "ip2I")


class HeuristicTimeout(RuntimeError):
    """A cooperative deadline expired between iterations."""


class Deadline:
    """Wall-clock budget checked at iteration boundaries."""

    def __init__(self, seconds: Optional[float]):
        self.seconds = seconds
        self._t0 = time.perf_counter()

    def check(self):
        if self.seconds is not None and time.perf_counter() - self._t0 >= self.seconds:
            raise HeuristicTimeout(f"exceeded {self.seconds} s budget")

    def remaining(self) -> Optional[float]:
        """Seconds left, at least 0; None without a budget."""
        if self.seconds is None:
            return None
        return max(0.0, self.seconds - (time.perf_counter() - self._t0))


@dataclass(frozen=True)
class HeuristicResult:
    """Outcome of one heuristic run.

    prices always covers every outlet. ladder is None for the uniform-price
    heuristic. revenue for ladder heuristics is the ladder programme's
    value for (ladder, prices), summed exactly on the revenue table's
    integer image and, under the logit model, rounded once; it equals
    evaluate_prices of prices whenever no demand node sees two of its
    outlets at the same price. For sp it is the undercut-only score the
    heuristic optimises, not what evaluate_prices gives for the uniform
    vector. It understates that whenever the price lands exactly on some
    competitor price, since it leaves out match revenue. Under BMNPP it
    can also overstate it: the score takes each node's best outlet, while
    evaluate_prices serves a tie, and a uniform price ties every outlet,
    from the node's lowest outlet id. A result is a plain value: two runs
    that agree compare equal. Timing a run is the caller's business
    (bench.run_one times the whole run).
    """

    algorithm: str
    ladder: Optional[tuple[int, ...]]
    prices: tuple[Money, ...]
    revenue: object


def single_price(inst: Instance):
    """Best uniform price by undercut revenue (price-war terms only).

    For each grid price, sums over nodes whose competitor can still be
    undercut at that price the best single-outlet revenue; the lowest
    price attaining the best score wins. Returns (price, score). The
    score is not the revenue evaluate_prices gives the uniform vector
    (see HeuristicResult): it omits match revenue, and under BMNPP a
    node's best outlet need not be the lowest-id outlet that serves it.

    One pass over the nodes adds each node's best row to the score of
    every grid price it counts at. The scores are sums of the revenue
    table's integer image, so they compare exactly under both models.
    """
    o_e, _, _ = adjacency(inst)
    table = revenue_table(inst, inst.model)
    grid = inst.grid
    score = [0] * len(grid)
    for node in inst.demands:
        outlets = o_e[node.id]
        below = grid.below_index(node.c)
        if not outlets or below is None:
            continue
        first = table.ints[(node.id, outlets[0])]
        row = first[: below + 1]
        for f in outlets[1:]:
            other = table.ints[(node.id, f)]
            if other is not first:  # an MNPP node's edges share one row
                row = _pairwise_max(row, other[: below + 1])
        # map stops at row's end, so only the first below + 1 scores move.
        score[: below + 1] = map(add, score, row)
    best = max(range(len(grid)), key=score.__getitem__)
    return grid.prices[best], table.revenue(score[best])


def greedy_select(inst: Instance, deadline: Optional[Deadline] = None):
    """Build a ladder by committing the outlet with the best marginal value.

    Each step appends, from the remaining outlets, the outlet whose tentative
    ladder (current ladder plus that outlet) has the best optimal revenue;
    ties keep the lowest id. The loop ends when no outlet remains or the
    ladder covers every demand node.
    Unused outlets are appended in ascending id order. Returns
    (ladder, revenue of the committed prefix).
    """
    pool = list(inst.outlets())
    all_nodes = (1 << inst.n_demands) - 1
    ladder: list[int] = []
    table = revenue_table(inst, inst.model)
    state = table.root
    while pool and state[0] != all_nodes:
        if deadline:
            deadline.check()
        best_f = None
        best_rev = None
        for f in pool:
            trial = _push(table, state, f)
            rev = _value(trial)
            if best_rev is None or rev > best_rev:
                best_rev = rev
                best_f = f
                best_state = trial
        ladder.append(best_f)
        pool.remove(best_f)
        state = best_state
    ladder.extend(pool)
    return tuple(ladder), table.revenue(_value(state))


def order_select(inst: Instance):
    """Build a ladder by serving the cheapest competitor first.

    Repeatedly takes the active node with the lowest competitor price
    (ties to the lowest id) and commits one of its connected outlets,
    scored by the coverage-weighted revenue potential

        mu_f = sum over active nodes covered by f of c_e * volume captured
               on undercut at c_e.

    The argmin of mu is committed; ties keep the lowest id. Covered nodes
    leave the active set; nodes with no remaining outlet are dropped.
    Unused outlets are appended ascending.
    """
    o_e, n_f, _ = adjacency(inst)
    pool = set(inst.outlets())
    active = set(range(inst.n_demands))
    ladder: list[int] = []
    terms = _potential_terms(inst)
    zero = 0 if inst.model == MNPP else 0.0

    def potential(f: int) -> object:
        total = zero
        for e, term in terms[f]:
            if e in active:
                total += term
        return total

    while pool and active:
        head = min(active, key=lambda e: (inst.demands[e].c, e))
        candidates = [f for f in o_e[head] if f in pool]
        if not candidates:
            active.remove(head)
            continue
        chosen = min(candidates, key=lambda f: (potential(f), f))
        ladder.append(chosen)
        pool.remove(chosen)
        active -= set(n_f[chosen])
    ladder.extend(sorted(pool))
    return tuple(ladder)


def _potential_terms(inst: Instance) -> list:
    """Per outlet f, the (e, term) pairs of order_select's mu_f, in n_f[f]
    order: term is c_e * volume captured on undercut at c_e.

    Under MNPP a term is that Fraction times the revenue table's scale,
    an exact int (the scale is MONEY_SCALE times a multiple of every
    node's d * gamma denominator) worked out in integers alone, so sums
    compare as the Fraction sums do. Under BMNPP it is the float of the
    logit formula, and potential sums the terms in n_f[f] order, so every
    float sum is reproducible.
    """
    _, n_f, edge_of = adjacency(inst)
    if inst.model == MNPP:
        lcm = revenue_table(inst, MNPP).scale // MONEY_SCALE
        node_term = {}
        for e in {e for es in n_f for e in es}:
            node = inst.demands[e]
            d, gamma = node.d, node.gamma
            # c * lcm * d * gamma, that is c * num * (lcm // den) for the
            # captured volume num / den, whose den divides lcm: the floor
            # division of the unreduced product is exact.
            node_term[e] = (
                node.c * d.numerator * gamma.numerator * lcm
                // (d.denominator * gamma.denominator)
            )
        return [[(e, node_term[e]) for e in es] for es in n_f]
    out = []
    for f, es in enumerate(n_f):
        row = []
        for e in es:
            node, edge = inst.demands[e], edge_of[(e, f)]
            share = logit_share(edge.a_hat - edge.b_hat * (node.c / MONEY_SCALE))
            row.append((e, (node.c / MONEY_SCALE) * float(node.d) * share))
        out.append(row)
    return out


def best_insertion(inst: Instance, ladder: Sequence[int], f: int):
    """Best position for one new outlet. Returns (position, revenue).

    Tries slots from the front and keeps the lowest position attaining
    the best optimal ladder revenue. The prefix before each slot is grown
    once and shared by the slots after it, and prefixes that earlier
    searches on inst pushed are looked up in the instance's prefix trie.
    The search stops at the first slot j where f is dead for the prefix
    P_j, its nodes all covered: f then earns nothing there, so slot j
    scores the ladder's own value, and so does every later slot, whose
    prefix covers at least P_j's nodes. The lowest best position is
    therefore among the slots tried.
    """
    table = revenue_table(inst, inst.model)
    prefix = table.root
    best_pos = None
    best_rev = None
    for j in range(len(ladder) + 1):
        trial = _push(table, prefix, f)
        dead = trial is prefix
        for g in ladder[j:]:
            trial = _push(table, trial, g)
        rev = _value(trial)
        if best_rev is None or rev > best_rev:
            best_rev = rev
            best_pos = j
        if dead:
            break
        if j < len(ladder):
            prefix = _push(table, prefix, ladder[j])
    return best_pos, table.revenue(best_rev)


def full_insertion(
    inst: Instance, deadline: Optional[Deadline] = None
) -> HeuristicResult:
    """Insertion heuristic choosing outlet and position jointly.

    Each round scores every remaining outlet at its best position and
    commits the best (outlet, position) pair; ties prefer the lower outlet
    id, then the lower position. Every trial of the run shares the
    instance's prefix trie.
    """
    remaining = sorted(inst.outlets())
    ladder: list[int] = []
    while remaining:
        if deadline:
            deadline.check()
        best = None  # (revenue, f, pos), strictly-better updates keep ties stable
        for f in remaining:
            pos, rev = best_insertion(inst, ladder, f)
            if best is None or rev > best[0]:
                best = (rev, f, pos)
        _, f, pos = best
        ladder.insert(pos, f)
        remaining.remove(f)
    return _finish(inst, "fi", tuple(ladder))


def insertion_with_order(
    inst: Instance,
    order: Sequence[int],
    deadline: Optional[Deadline] = None,
    algorithm: str = "insertion",
) -> HeuristicResult:
    """Insert outlets one at a time following a fixed selection order.

    Every trial of the run shares the instance's prefix trie.
    """
    if sorted(order) != list(inst.outlets()):
        raise ValueError("selection order must cover every outlet exactly once")
    ladder: list[int] = []
    for f in order:
        if deadline:
            deadline.check()
        pos, _ = best_insertion(inst, ladder, f)
        ladder.insert(pos, f)
    return _finish(inst, algorithm, tuple(ladder))


def _finish(inst: Instance, algorithm: str, ladder: tuple[int, ...]) -> HeuristicResult:
    """Price the final ladder from the prefix trie and assemble the result."""
    prices, revenue = _price(inst, revenue_table(inst, inst.model), ladder)
    return HeuristicResult(algorithm, ladder, prices, revenue)


def run_algorithm(
    inst: Instance,
    algorithm: str,
    time_limit: Optional[float] = None,
    adapter: Optional[str] = None,
) -> HeuristicResult:
    """Run one named heuristic and return its result.

    The spread cap is the instance's own, inst.pi. The relaxation-guided
    insertions (ip1I, ip2I) solve their relaxation with the solver adapter
    in the time left; a relaxation cut short raises HeuristicTimeout, one
    the solver fails raises mip.SolveFailed, and without a solver they
    raise SolverUnavailable rather than silently fall back to another
    selection rule.
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    deadline = Deadline(time_limit)
    if algorithm == "sp":
        price, revenue = single_price(inst)
        return HeuristicResult("sp", None, (price,) * inst.n_outlets, revenue)
    if algorithm == "fi":
        return full_insertion(inst, deadline=deadline)
    # An insertion variant is named after its selection rule plus "I".
    rule = algorithm.removesuffix("I")
    if rule == "greedy":
        order, _ = greedy_select(inst, deadline=deadline)
    elif rule == "order":
        order = order_select(inst)
    else:
        from .mip import SolveFailed, SolverUnavailable, relax_order

        try:
            order = relax_order(inst, rule, adapter, deadline.remaining())
        except (SolveFailed, SolverUnavailable):
            deadline.check()  # a relaxation cut short is a timeout
            raise
    if rule == algorithm:
        return _finish(inst, algorithm, order)
    return insertion_with_order(inst, order, deadline=deadline, algorithm=algorithm)
