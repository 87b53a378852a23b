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
from operator import itemgetter
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
        # The invariants below, on integer numerators and (positive)
        # denominators; any failure, or a field that is not rational,
        # falls through to the checks that name the broken invariant.
        try:
            beta, gamma = self.beta, self.gamma
            bn, bd = beta.numerator, beta.denominator
            gn, gd = gamma.numerator, gamma.denominator
            if (
                self.d.numerator > 0
                and 0 < bn < bd
                and bn * gd < gn * bd
                and gn <= gd
                and self.c_bar <= self.c
            ):
                return
        except AttributeError:
            pass
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
        if not (
            math.isfinite(self.a_hat)
            and math.isfinite(self.b_hat)
            and math.isfinite(self.a_bar)
            and math.isfinite(self.b_bar)
        ):
            raise InvalidInstance(
                f"edge ({self.e}, {self.f}): logit coefficients must be finite"
            )
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
    # Equal to max(-C, min(C, exponent)) in every case, NaN (to +C) and
    # signed zeros included, with plain comparisons in place of two calls.
    x = exponent if exponent < LOGIT_EXPONENT_CLAMP else LOGIT_EXPONENT_CLAMP
    if not x > -LOGIT_EXPONENT_CLAMP:
        x = -LOGIT_EXPONENT_CLAMP
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
    of two 2^k that makes every float entry an integer; only the cells
    where a node's logit demand can sell are evaluated (see _build_table).
    revenue(raw) turns a sum of entries back into the public number type:
    the exact Fraction under MNPP, the correctly rounded float under
    BMNPP. One entry's public value is revenue(ints[(e, f)][m]).

    The table is also the one per-instance view every ladder search
    reads. n_f[f] is outlet f's demand nodes in ascending id order, and
    masks[f] the same nodes as a bitmask over node ids. stages memoises,
    under the key (f, new), the summed image row of outlet f's nodes in
    new (a submask of masks[f]). windows are the grid index windows of
    the instance's spread cap (see _windows), and cells is their total
    width, the grid cells one ladder stage fills. root is the empty
    prefix of the one prefix trie every ladder search on the instance
    grows (see ladder._push), so a prefix one run pushed is a hit for
    the next. filled counts the grid cells filled on this table: cells per
    new trie state, one stage per ladder position priced by
    ladder.dp_prices, and the subset pass's nominal stages (see exact).
    The count is exact while one thread at a time works on the table;
    racing threads may lose an increment or fill a state twice. A run's
    own cells are filled's difference across it.
    """

    model: str
    scale: int
    ints: dict
    n_f: tuple
    masks: tuple
    windows: list
    cells: int
    root: tuple
    stages: dict = field(default_factory=dict)
    filled: int = 0

    def revenue(self, raw: int):
        if self.model == MNPP:
            return Fraction(raw, self.scale)
        return raw / self.scale


CacheInfo = namedtuple("CacheInfo", "misses")
_table_builds = [0]


def revenue_table(inst: Instance, model: str) -> RevenueTable:
    """The instance's revenue table under a demand model (see RevenueTable).

    Built on first use and kept in the instance's __dict__, so every run
    on the instance shares it and its stage memo; setdefault makes threads
    racing on a first build share one table. revenue_table.cache_info()
    gives this process's table builds as misses; lookups are not counted.
    """
    try:
        return inst.__dict__["_tables"][model]
    except KeyError:
        _table_builds[0] += 1
        tables = inst.__dict__.setdefault("_tables", {})
        return tables.setdefault(model, _build_table(inst, model))


revenue_table.cache_info = lambda: CacheInfo(*_table_builds)


def _build_table(inst: Instance, model: str) -> RevenueTable:
    """An MNPP row depends on its node only, so each node's image is built
    once, from integers alone, and shared by the node's edges. A BMNPP row
    is built from its own edge's coefficients and turned into its image.

    demand_bmnpp is 0 outside the node's support (_bmnpp_support): the
    undercut prices in [c_bar, c) and the match cell at c. So a BMNPP row
    evaluates the logit share only there, about half the paper grid's
    cells, and every other entry is 0, as the float 0.0 times the scale
    is. k is the largest denominator exponent over the support's entries,
    which is the largest over the whole row, since 0.0 has exponent 0."""
    grid = inst.grid
    n_f = adjacency(inst)[1]
    masks = tuple(sum(1 << e for e in es) for es in n_f)
    windows = _windows(grid.prices, inst.pi)
    cells = sum(hi - lo + 1 for lo, hi in windows)
    root = (0, [[0] * (hi - lo + 1) for lo, hi in windows], {})
    if model != MNPP:
        # Each nonzero entry is num / 2^j; under 2^k, the largest j (the
        # largest den is 2^k), it is num << (k - j). Shifts stay exact
        # however far apart the entries' exponents lie.
        units = [price / MONEY_SCALE for price in grid.prices]
        rows = {}
        for edge in inst.edges:
            node = inst.demands[edge.e]
            support = _bmnpp_support(node, grid)
            rows[(edge.e, edge.f)] = support, _bmnpp_ratios(node, edge, units, support)
        dens = (max(map(itemgetter(1), row)) for _, row in rows.values() if row)
        k = max(dens, default=1).bit_length() - 1
        n_prices = len(grid)
        ints = {
            key: (0,) * start
            + tuple([num << (k + 1 - den.bit_length()) for num, den in row])
            + (0,) * (n_prices - stop)
            for key, ((start, stop, _), row) in rows.items()
        }
        return RevenueTable(model, 1 << k, ints, n_f, masks, windows, cells, root)
    nodes = {edge.e: inst.demands[edge.e] for edge in inst.edges}
    lcm = math.lcm(
        *(v.denominator for n in nodes.values() for v in (n.d * n.beta, n.d * n.gamma))
    )
    rows = {e: _mnpp_image(node, lcm, grid) for e, node in nodes.items()}
    ints = {(edge.e, edge.f): rows[edge.e] for edge in inst.edges}
    scale = MONEY_SCALE * lcm
    return RevenueTable(model, scale, ints, n_f, masks, windows, cells, root)


def _windows(grid: Sequence[Money], pi: Optional[Money]) -> list[tuple[int, int]]:
    """The (lo, hi) grid index windows the ladder programme is run over.

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


def _bmnpp_support(node: DemandNode, grid: PriceGrid) -> tuple[int, int, bool]:
    """(start, stop, match): the grid index range [start, stop) outside
    which demand_bmnpp is 0, and whether its last index is the match.

    The range holds the undercut prices, from the first at or above the
    war floor c_bar up to the last below c, and then c itself when c is
    on the grid.
    """
    prices = grid.prices
    stop = bisect_left(prices, node.c)
    start = bisect_left(prices, node.c_bar)
    match = stop < len(prices) and prices[stop] == node.c
    return start, stop + match, match


def _bmnpp_ratios(node: DemandNode, edge: Edge, units: list, support) -> list:
    """price * demand_bmnpp over the support's grid indices (see
    _bmnpp_support), as float.as_integer_ratio() pairs. units[m] is grid
    price m in currency units; each entry is the same float expression
    demand_bmnpp and the price product give, with the volume worked out
    once per edge."""
    start, stop, match = support
    d = float(node.d)
    a_hat, b_hat = edge.a_hat, edge.b_hat
    row = [
        (unit * (d * logit_share(a_hat - b_hat * unit))).as_integer_ratio()
        for unit in units[start : stop - match]
    ]
    if match:
        share = logit_share(edge.a_bar - edge.b_bar * (node.c / MONEY_SCALE))
        row.append((units[stop - 1] * (d * share)).as_integer_ratio())
    return row


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
    table, served = _served(inst, prices)
    grid, demands = inst.grid.prices, inst.demands
    total = 0
    assignment: dict[int, int] = {}
    labels: dict[int, str] = {}
    for e, f, m, entry in served:
        total += entry
        assignment[e] = f
        labels[e] = PM if grid[m] == demands[e].c else PW
    return table.revenue(total), assignment, labels


def _served(inst: Instance, prices: Sequence[Money]):
    """The revenue table of inst's model, and the served demand nodes of
    a price vector as (e, f, m, entry) in node order.

    f is the node's lowest-priced connected outlet, ties going to the
    lowest id, m the grid index of its price and entry the table's image
    entry there; a node is served when that entry is positive. This is
    the one evaluation every price-vector score reads.
    """
    prices = validate_prices(inst, prices)
    index_of = inst.grid.index_of
    index = [index_of(p) for p in prices]
    table = revenue_table(inst, inst.model)
    ints = table.ints
    served = []
    for e, outlets in enumerate(adjacency(inst)[0]):
        if not outlets:
            continue
        best = outlets[0]
        low = prices[best]
        # outlets ascend, so a strict < keeps the lowest id among ties.
        for f in outlets:
            if prices[f] < low:
                best, low = f, prices[f]
        m = index[best]
        entry = ints[(e, best)][m]
        if entry > 0:
            served.append((e, best, m, entry))
    return table, served
