"""Problem data model and demand evaluation for network min-pricing.

A bipartite network connects outlets (price setters) to demand nodes, each
of which already buys from a competitor at a posted price c_e. Outlets post
prices drawn from a finite ascending grid; demand at a node reacts only to
the cheapest connected outlet.

Two demand models share the instance structure. Under the fixed-fraction
model (MNPP) an outlet that matches the competitor price exactly captures a
beta fraction of the node's volume and one that undercuts to the next grid
point or below captures a gamma fraction. Under the binary-logit variant
(BMNPP) the captured fraction is a logistic share of the posted price, with
separate coefficient pairs for the match and undercut regimes.

All prices are integer minor units (see money.py), so price equality is
exact. MNPP volumes are Fractions and MNPP revenues are therefore exact.
BMNPP shares involve exp() and are floats, but every finite float is an
integer times a power of two, so a revenue table is held under both
models as one exact integer image. Revenues are summed on that image and
a BMNPP total is rounded to a float once, on the way out.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import namedtuple
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .money import MONEY_SCALE, Money, money_str

MNPP = "mnpp"
BMNPP = "bmnpp"
MODELS = (MNPP, BMNPP)

PM = "PM"
PW = "PW"

LOGIT_EXPONENT_CLAMP = 500.0


class InvalidInstance(ValueError):
    """Instance data violates a structural invariant."""


@dataclass(frozen=True)
class PriceGrid:
    """Strictly ascending tuple of allowed prices, in minor units."""

    prices: tuple[Money, ...]

    def __post_init__(self):
        if not self.prices:
            raise InvalidInstance("price grid is empty")
        object.__setattr__(self, "prices", tuple(int(p) for p in self.prices))
        for p in self.prices:
            if p < 0:
                raise InvalidInstance(f"negative grid price {money_str(p)}")
        for lo, hi in zip(self.prices, self.prices[1:]):
            if lo >= hi:
                raise InvalidInstance("grid prices must be strictly increasing")

    def __len__(self) -> int:
        return len(self.prices)

    @property
    def min(self) -> Money:
        return self.prices[0]

    @property
    def max(self) -> Money:
        return self.prices[-1]

    def index_of(self, price: Money) -> int:
        """Index of an exact grid member; KeyError for anything else."""
        i = bisect_left(self.prices, price)
        if i == len(self.prices) or self.prices[i] != price:
            raise KeyError(f"price {money_str(price)} is not on the grid")
        return i

    def __contains__(self, price: Money) -> bool:
        i = bisect_left(self.prices, price)
        return i < len(self.prices) and self.prices[i] == price

    def below_index(self, value: Money) -> Optional[int]:
        """Index of the largest grid price strictly below value, if any."""
        i = bisect_left(self.prices, value) - 1
        return i if i >= 0 else None


def price_below(grid: PriceGrid, value: Money) -> Optional[Money]:
    """Largest grid price strictly below value, or None at the grid floor."""
    i = grid.below_index(value)
    return None if i is None else grid.prices[i]


@dataclass(frozen=True)
class DemandNode:
    """One demand node and its competitor's standing offer.

    c is the competitor price, c_bar the lowest price at which undercutting
    still sells anything under the logit model, d the demand volume, and
    beta/gamma the captured fractions on match and undercut for the
    fixed-fraction model.
    """

    id: int
    c: Money
    c_bar: Money
    d: Fraction
    beta: Fraction = Fraction(1, 2)
    gamma: Fraction = Fraction(1)

    def __post_init__(self):
        if self.d <= 0:
            raise InvalidInstance(f"demand node {self.id}: volume must be positive")
        if not (0 < self.beta < 1):
            raise InvalidInstance(f"demand node {self.id}: beta must lie in (0, 1)")
        if not (self.beta < self.gamma <= 1):
            raise InvalidInstance(
                f"demand node {self.id}: gamma must lie in (beta, 1]"
            )
        if self.c_bar > self.c:
            raise InvalidInstance(
                f"demand node {self.id}: war floor exceeds competitor price"
            )


@dataclass(frozen=True)
class Edge:
    """Connection (e, f) with the logit coefficients for that pair.

    a_hat/b_hat parameterise the undercut (price-war) share, a_bar/b_bar
    the price-match share. They are ignored by the fixed-fraction model.
    """

    e: int
    f: int
    a_hat: float = 0.0
    b_hat: float = 0.0
    a_bar: float = 0.0
    b_bar: float = 0.0

    def __post_init__(self):
        if self.b_hat < 0 or self.b_bar < 0:
            raise InvalidInstance(
                f"edge ({self.e}, {self.f}): price slopes must be nonnegative"
            )


@dataclass(frozen=True)
class Instance:
    n_outlets: int
    demands: tuple[DemandNode, ...]
    edges: tuple[Edge, ...]
    grid: PriceGrid
    model: str = MNPP
    pi: Optional[Money] = None  # None means no spread cap
    seed: Optional[int] = None

    def __post_init__(self):
        if self.model not in MODELS:
            raise InvalidInstance(f"unknown demand model {self.model!r}")
        if self.n_outlets <= 0:
            raise InvalidInstance("instance needs at least one outlet")
        object.__setattr__(self, "demands", tuple(self.demands))
        object.__setattr__(self, "edges", tuple(self.edges))
        for i, node in enumerate(self.demands):
            if node.id != i:
                raise InvalidInstance("demand ids must be 0..n-1 in order")
        seen = set()
        for edge in self.edges:
            if not (0 <= edge.e < len(self.demands)):
                raise InvalidInstance(f"edge references unknown demand {edge.e}")
            if not (0 <= edge.f < self.n_outlets):
                raise InvalidInstance(f"edge references unknown outlet {edge.f}")
            if (edge.e, edge.f) in seen:
                raise InvalidInstance(f"duplicate edge ({edge.e}, {edge.f})")
            seen.add((edge.e, edge.f))
        if self.pi is not None and self.pi < 0:
            raise InvalidInstance("price spread cap must be nonnegative")
        if self.model == MNPP:
            for node in self.demands:
                if node.c not in self.grid:
                    raise InvalidInstance(
                        f"competitor price {money_str(node.c)} of demand "
                        f"{node.id} is off the grid"
                    )

    @property
    def n_demands(self) -> int:
        return len(self.demands)

    @property
    def density(self) -> float:
        cells = self.n_outlets * len(self.demands)
        return len(self.edges) / cells if cells else 0.0

    def outlets(self) -> range:
        return range(self.n_outlets)

    def __getstate__(self):
        # What adjacency and revenue_table keep on an instance (its "_"
        # keys) stays out of pickles and copies; each process builds its own.
        return {k: v for k, v in self.__dict__.items() if not k.startswith("_")}


def adjacency(inst: Instance):
    """(outlets per demand node, demand nodes per outlet, edge lookup),
    built on first use and kept on the instance like its revenue table."""
    try:
        return inst.__dict__["_adjacency"]
    except KeyError:
        pass
    o_e = [[] for _ in inst.demands]
    n_f = [[] for _ in range(inst.n_outlets)]
    edge_of = {}
    for edge in inst.edges:
        o_e[edge.e].append(edge.f)
        n_f[edge.f].append(edge.e)
        edge_of[(edge.e, edge.f)] = edge
    o_e = tuple(tuple(sorted(fs)) for fs in o_e)
    n_f = tuple(tuple(sorted(es)) for es in n_f)
    return inst.__dict__.setdefault("_adjacency", (o_e, n_f, edge_of))


def logit_share(exponent: float) -> float:
    """exp(x) / (1 + exp(x)) with the exponent clamped to +-500."""
    x = max(-LOGIT_EXPONENT_CLAMP, min(LOGIT_EXPONENT_CLAMP, exponent))
    return 1.0 / (1.0 + math.exp(-x))


def demand_mnpp(node: DemandNode, price: Money, grid: PriceGrid) -> Fraction:
    """Captured volume at a posted price under the fixed-fraction model.

    Exactly matching the competitor price captures d * beta. Posting at or
    below the next grid price under it captures d * gamma. Posting anywhere
    else sells nothing: between-grid undercutting is impossible by
    construction and overpricing loses the customer.
    """
    if price == node.c:
        return node.d * node.beta
    below = price_below(grid, node.c)
    if below is not None and price <= below:
        return node.d * node.gamma
    return Fraction(0)


def demand_bmnpp(
    node: DemandNode, edge: Edge, price: Money, grid: PriceGrid
) -> float:
    """Captured volume at a posted price under the binary-logit model.

    The match and undercut regimes are disjoint: matching uses the
    (a_bar, b_bar) share at the competitor price, undercutting uses
    (a_hat, b_hat) at the posted price and applies on grid prices from
    the node's war floor up to the grid price just under c_e.
    """
    if price == node.c:
        share = logit_share(edge.a_bar - edge.b_bar * (node.c / MONEY_SCALE))
        return float(node.d) * share
    below = price_below(grid, node.c)
    if below is not None and node.c_bar <= price <= below:
        share = logit_share(edge.a_hat - edge.b_hat * (price / MONEY_SCALE))
        return float(node.d) * share
    return 0.0


def demand_at(inst: Instance, e: int, f: int, price: Money):
    """Volume outlet f captures from node e at a posted price, under the
    instance's own demand model."""
    node = inst.demands[e]
    if inst.model == MNPP:
        return demand_mnpp(node, price, inst.grid)
    edge = adjacency(inst)[2][(e, f)]
    return demand_bmnpp(node, edge, price, inst.grid)


@dataclass(eq=False, slots=True)
class RevenueTable:
    """Per-edge revenue rows of one demand model, as an exact integer image.

    ints[(e, f)][m] is price * captured volume with the price at grid
    index m, times scale, exactly. Under MNPP, scale is MONEY_SCALE times
    the least common multiple of the denominators of the nodes' captured
    volumes d * beta and d * gamma, so every entry is a price times a
    volume numerator times an integer factor; under BMNPP it is the power
    of two 2^k that makes every float entry an integer. revenue(raw)
    turns a sum of entries back into the public number type: the exact
    Fraction under MNPP, the correctly rounded float under BMNPP. One
    entry's public value is revenue(ints[(e, f)][m]).

    The table also keeps per-instance data the ladder searches read:
    masks[f] is outlet f's demand nodes as a bitmask over node ids, and
    stages memoises, under the key (f, new), the summed image row of
    outlet f's nodes in new (a submask of masks[f]). It holds no search
    states: those live in a prefix trie that lasts one search (see
    ladder._Prefixes).
    """

    model: str
    scale: int
    ints: dict
    masks: tuple
    stages: dict = field(default_factory=dict)

    def revenue(self, raw: int):
        if self.model == MNPP:
            return Fraction(raw, self.scale)
        return raw / self.scale


CacheInfo = namedtuple("CacheInfo", "hits misses")
_table_counts = [0, 0]  # hits, misses


def revenue_table(inst: Instance, model: str) -> RevenueTable:
    """The instance's revenue table under a demand model (see RevenueTable).

    Built on first use and kept in the instance's __dict__, so every run
    on the instance shares it and its stage memo; setdefault makes threads
    racing on a first build share one table. revenue_table.cache_info()
    gives this process's (hits, misses): lookups a kept table answered,
    and tables built.
    """
    try:
        table = inst.__dict__["_tables"][model]
    except KeyError:
        _table_counts[1] += 1
        tables = inst.__dict__.setdefault("_tables", {})
        return tables.setdefault(model, _build_table(inst, model))
    _table_counts[0] += 1
    return table


revenue_table.cache_info = lambda: CacheInfo(*_table_counts)


def _build_table(inst: Instance, model: str) -> RevenueTable:
    """An MNPP row depends on its node only, so each node's image is built
    once, from integers alone, and shared by the node's edges. A BMNPP row
    is built from its own edge's coefficients and turned into its image."""
    grid = inst.grid
    masks = tuple(sum(1 << e for e in es) for es in adjacency(inst)[1])
    if model != MNPP:
        # Each nonzero entry is num / 2^j; under 2^k, the largest j, it
        # is num << (k - j). Shifts stay exact however far apart the
        # entries' exponents lie.
        ratios = {
            (edge.e, edge.f): _bmnpp_ratios(inst.demands[edge.e], edge, grid)
            for edge in inst.edges
        }
        k = max(
            (den.bit_length() - 1 for row in ratios.values() for _, den in row),
            default=0,
        )
        ints = {
            key: tuple(num << (k - den.bit_length() + 1) for num, den in row)
            for key, row in ratios.items()
        }
        return RevenueTable(model, 1 << k, ints, masks)
    nodes = {edge.e: inst.demands[edge.e] for edge in inst.edges}
    lcm = math.lcm(
        *(v.denominator for n in nodes.values() for v in (n.d * n.beta, n.d * n.gamma))
    )
    rows = {e: _mnpp_image(node, lcm, grid) for e, node in nodes.items()}
    ints = {(edge.e, edge.f): rows[edge.e] for edge in inst.edges}
    return RevenueTable(model, MONEY_SCALE * lcm, ints, masks)


def _mnpp_image(node: DemandNode, lcm: int, grid: PriceGrid) -> tuple:
    """money_unit(price) * demand_mnpp at every grid price, times
    MONEY_SCALE * lcm: price * num * (lcm // den) for the captured volume
    num / den, which is undercut (d * gamma) at or below the grid price
    just under c, match (d * beta) at c, and nothing elsewhere."""
    match, undercut = node.d * node.beta, node.d * node.gamma
    below = grid.below_index(node.c)
    n_under = 0 if below is None else below + 1
    per_unit = undercut.numerator * (lcm // undercut.denominator)
    row = [price * per_unit for price in grid.prices[:n_under]]
    row.extend([0] * (len(grid) - n_under))
    if node.c in grid:
        row[n_under] = node.c * match.numerator * (lcm // match.denominator)
    return tuple(row)


def _bmnpp_ratios(node: DemandNode, edge: Edge, grid: PriceGrid) -> list:
    """price * demand_bmnpp at every grid price, as float.as_integer_ratio()
    pairs, with the per-edge terms (volume, undercut ceiling, match share)
    worked out once."""
    d = float(node.d)
    below = price_below(grid, node.c)
    match = d * logit_share(edge.a_bar - edge.b_bar * (node.c / MONEY_SCALE))
    row = []
    for price in grid.prices:
        if price == node.c:
            volume = match
        elif below is not None and node.c_bar <= price <= below:
            volume = d * logit_share(edge.a_hat - edge.b_hat * (price / MONEY_SCALE))
        else:
            volume = 0.0
        row.append(((price / MONEY_SCALE) * volume).as_integer_ratio())
    return row


def zero_revenue(model: str):
    return Fraction(0) if model == MNPP else 0.0


def validate_prices(inst: Instance, prices: Sequence[Money]) -> tuple[Money, ...]:
    prices = tuple(prices)
    if len(prices) != inst.n_outlets:
        raise ValueError(
            f"price vector has {len(prices)} entries for {inst.n_outlets} outlets"
        )
    for p in prices:
        if p not in inst.grid:
            raise ValueError(f"price {money_str(p)} is not on the grid")
    return prices


def evaluate_prices(inst: Instance, prices: Sequence[Money]):
    """Revenue of a full price vector, with allocation and regime labels.

    Each demand node buys from the lowest-priced connected outlet, ties
    going to the lowest outlet id. The contributions are summed on the
    revenue table's integer image, so a BMNPP revenue is rounded once.
    Returns (revenue, assignment, labels) where assignment maps the node
    id to the serving outlet for every node with a positive contribution
    and labels marks each assigned node PM (price match) or PW (price
    war).
    """
    prices = validate_prices(inst, prices)
    o_e, _, _ = adjacency(inst)
    table = revenue_table(inst, inst.model)
    total = 0
    assignment: dict[int, int] = {}
    labels: dict[int, str] = {}
    for node in inst.demands:
        outlets = o_e[node.id]
        if not outlets:
            continue
        best = min(outlets, key=lambda f: (prices[f], f))
        price = prices[best]
        contribution = table.ints[(node.id, best)][inst.grid.index_of(price)]
        if contribution > 0:
            total += contribution
            assignment[node.id] = best
            labels[node.id] = PM if price == node.c else PW
    return table.revenue(total), assignment, labels
