"""Reproducible instance generation and the canonical instance file format.

Generation is fully determined by (parameters, seed) through the pinned
PRNG in rng.py. One seeded stream drives three phases in a fixed order,
so files regenerate byte-identically anywhere:

1. Edges: the |O| * |N| cells are numbered e * n_outlets + f; a partial
   Fisher-Yates pass picks the required count without replacement and the
   chosen pairs are sorted by (e, f).
2. Demand nodes, in id order: competitor price drawn uniformly on
   [c_lo, c_hi] and snapped to the nearest grid price (ties snap down),
   then the volume drawn on a hundredth lattice over [d_lo, d_hi].
3. Logit coefficients, in sorted edge order: a_hat, b_hat, a_bar, b_bar
   drawn uniformly in that sequence. They are drawn for both demand
   models, which keeps the stream aligned so the same seed yields twin
   instances that differ only in the model tag.

The benchmark collection (paper_grid) crosses outlet counts, node counts,
and densities into 45 graph shapes with 10 value draws each. The edge set
is fixed per graph: it comes from a per-graph child seed, while each draw
redraws node values and logit coefficients from a per-draw child seed.

Files are JSON with decimal strings for money and volumes; load rejects
unknown fields and load(save(x)) reproduces x exactly.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path
from typing import Optional

from .model import MNPP, MODELS, DemandNode, Edge, Instance, InvalidInstance, PriceGrid
from .money import (
    Money,
    MoneyError,
    fraction_str,
    money_str,
    parse_fraction,
    parse_money,
)
from .rng import Rng, derive_seed

FORMAT_MARKER = "netpricing-instance-v1"

PAPER_OUTLETS = (5, 10, 15)
PAPER_DEMANDS = (15, 30, 50)
PAPER_DENSITIES = (0.9, 0.75, 0.5, 0.25, 0.1)
PAPER_DRAWS = 10
# The most price levels make_grid builds, far above the paper grid's 51:
# the ladder programme's tables grow with the level count.
GRID_LEVEL_LIMIT = 100_000


class InstanceFormatError(ValueError):
    """An instance file violates the canonical format."""


@dataclass(frozen=True)
class GenParams:
    """Generator knobs; defaults mirror the benchmark collection."""

    model: str = MNPP
    n_outlets: int = 5
    n_demands: int = 15
    density: float = 0.5
    seed: int = 0
    grid_min: str = "0"
    grid_max: str = "25"
    grid_step: str = "0.5"
    c_lo: float = 0.0
    c_hi: float = 25.0
    d_lo: int = 50
    d_hi: int = 150
    beta: str = "0.5"
    gamma: str = "1"
    a_lo: float = 200.0
    a_hi: float = 400.0
    b_lo: float = 0.0
    b_hi: float = 20.0
    pi: Optional[str] = None

    def __post_init__(self):
        if self.model not in MODELS:
            raise InvalidInstance(f"unknown demand model {self.model!r}")
        if self.n_outlets <= 0 or self.n_demands <= 0:
            raise InvalidInstance("instance shape must be positive")
        if not (0.0 < self.density <= 1.0):
            raise InvalidInstance("edge density must lie in (0, 1]")
        if self.d_lo <= 0 or self.d_hi < self.d_lo:
            raise InvalidInstance("volume range must be positive and ordered")
        if self.c_hi < self.c_lo:
            raise InvalidInstance("competitor price range must be ordered")


def make_grid(grid_min: str, grid_max: str, grid_step: str) -> PriceGrid:
    """Arithmetic price grid from decimal endpoints and step, of at most
    GRID_LEVEL_LIMIT levels."""
    lo, hi, step = parse_money(grid_min), parse_money(grid_max), parse_money(grid_step)
    if step <= 0:
        raise InvalidInstance("grid step must be positive")
    if hi < lo:
        raise InvalidInstance("grid endpoints must be ordered")
    if (hi - lo) // step + 1 > GRID_LEVEL_LIMIT:
        raise InvalidInstance(f"grid exceeds {GRID_LEVEL_LIMIT} price levels")
    return PriceGrid(tuple(range(lo, hi + 1, step)))


def edge_count(n_outlets: int, n_demands: int, density: float) -> int:
    """Number of edges: density * cells, rounded half up."""
    cells = n_outlets * n_demands
    count = int(density * cells + 0.5)
    return max(0, min(cells, count))


def snap_to_grid(grid: PriceGrid, value: float) -> Money:
    """Nearest grid price to a currency amount; exact ties snap down."""
    cents = value * 100.0
    prices = grid.prices
    i = bisect_left(prices, cents)
    if i <= 0:
        return prices[0]
    if i >= len(prices):
        return prices[-1]
    lo, hi = prices[i - 1], prices[i]
    return lo if cents - lo <= hi - cents else hi


def _sample_edges(rng: Rng, n_outlets: int, n_demands: int, density: float):
    cells = n_outlets * n_demands
    count = edge_count(n_outlets, n_demands, density)
    slots = list(range(cells))
    for i in range(count):
        j = i + rng.randbelow(cells - i)
        slots[i], slots[j] = slots[j], slots[i]
    pairs = sorted((slot // n_outlets, slot % n_outlets) for slot in slots[:count])
    return pairs


def _sample_nodes(rng: Rng, params: GenParams, grid: PriceGrid):
    beta = parse_fraction(params.beta)
    gamma = parse_fraction(params.gamma)
    nodes = []
    for e in range(params.n_demands):
        c = snap_to_grid(grid, rng.uniform(params.c_lo, params.c_hi))
        span = (params.d_hi - params.d_lo) * 100
        d = Fraction(params.d_lo * 100 + rng.randbelow(span + 1), 100)
        nodes.append(
            DemandNode(id=e, c=c, c_bar=grid.min, d=d, beta=beta, gamma=gamma)
        )
    return nodes


def _sample_logit(rng: Rng, pairs, params: GenParams):
    edges = []
    for e, f in pairs:
        a_hat = rng.uniform(params.a_lo, params.a_hi)
        b_hat = rng.uniform(params.b_lo, params.b_hi)
        a_bar = rng.uniform(params.a_lo, params.a_hi)
        b_bar = rng.uniform(params.b_lo, params.b_hi)
        edges.append(Edge(e, f, a_hat, b_hat, a_bar, b_bar))
    return edges


def _assemble(rng: Rng, params: GenParams, grid: PriceGrid, pairs) -> Instance:
    """Draw node values, then logit coefficients, on a fixed edge set."""
    nodes = _sample_nodes(rng, params, grid)
    edges = _sample_logit(rng, pairs, params)
    return Instance(
        n_outlets=params.n_outlets,
        demands=tuple(nodes),
        edges=tuple(edges),
        grid=grid,
        model=params.model,
        pi=None if params.pi is None else parse_money(params.pi),
        seed=params.seed,
    )


def generate(params: GenParams) -> Instance:
    """Generate one instance from a single seeded stream."""
    grid = make_grid(params.grid_min, params.grid_max, params.grid_step)
    rng = Rng(params.seed)
    pairs = _sample_edges(rng, params.n_outlets, params.n_demands, params.density)
    return _assemble(rng, params, grid, pairs)


def paper_grid(model: str, master_seed: int, draws: int = PAPER_DRAWS):
    """The full benchmark collection: 45 graphs x draws instances.

    Yields (graph_index, draw_index, params, instance). Child seeds come
    from derive_seed: stream 1 fixes each graph's edges, stream 2 redraws
    values per (graph, draw).
    """
    graph_index = 0
    for n_outlets in PAPER_OUTLETS:
        for n_demands in PAPER_DEMANDS:
            for density in PAPER_DENSITIES:
                graph_seed = derive_seed(master_seed, 1, graph_index)
                base = GenParams(
                    model=model,
                    n_outlets=n_outlets,
                    n_demands=n_demands,
                    density=density,
                    seed=graph_seed,
                )
                grid = make_grid(base.grid_min, base.grid_max, base.grid_step)
                pairs = _sample_edges(
                    Rng(graph_seed), n_outlets, n_demands, density
                )
                for draw in range(draws):
                    draw_seed = derive_seed(master_seed, 2, graph_index, draw)
                    params = replace(base, seed=draw_seed)
                    inst = _assemble(Rng(draw_seed), params, grid, pairs)
                    yield graph_index, draw, params, inst
                graph_index += 1


def instance_to_doc(inst: Instance) -> dict:
    return {
        "format": FORMAT_MARKER,
        "meta": {
            "model": inst.model,
            "pi": "inf" if inst.pi is None else money_str(inst.pi),
            "seed": inst.seed,
            "grid": [money_str(p) for p in inst.grid.prices],
        },
        "outlets": list(range(inst.n_outlets)),
        "demands": [
            {
                "id": node.id,
                "c": money_str(node.c),
                "c_bar": money_str(node.c_bar),
                "d": fraction_str(node.d),
                "beta": fraction_str(node.beta),
                "gamma": fraction_str(node.gamma),
            }
            for node in inst.demands
        ],
        "edges": [
            {
                "e": edge.e,
                "f": edge.f,
                "a_hat": edge.a_hat,
                "b_hat": edge.b_hat,
                "a_bar": edge.a_bar,
                "b_bar": edge.b_bar,
            }
            for edge in inst.edges
        ],
    }


def save_instance(inst: Instance, path) -> Path:
    path = Path(path)
    path.write_text(
        json.dumps(instance_to_doc(inst), indent=2) + "\n", encoding="utf-8"
    )
    return path


def _expect_keys(obj: dict, required: tuple, where: str, optional: tuple = ()):
    if not isinstance(obj, dict):
        raise InstanceFormatError(f"{where}: expected an object")
    for key in obj:
        if key not in required and key not in optional:
            raise InstanceFormatError(f"{where}: unknown field {key!r}")
    for key in required:
        if key not in obj:
            raise InstanceFormatError(f"{where}: missing field {key!r}")


def _list_field(obj, key, where) -> list:
    value = obj[key]
    if not isinstance(value, list):
        raise InstanceFormatError(f"{where}: field {key!r} must be a list")
    return value


def _int_field(obj, key, where) -> int:
    value = obj[key]
    if not isinstance(value, int) or isinstance(value, bool):
        raise InstanceFormatError(f"{where}: field {key!r} must be an integer")
    return value


def _float_field(obj, key, where) -> float:
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InstanceFormatError(f"{where}: field {key!r} must be a number")
    try:
        return float(value)
    except OverflowError as exc:
        raise InstanceFormatError(f"{where}: field {key!r} is out of range") from exc


_DEMAND_FIELDS = ("id", "c", "c_bar", "d", "beta", "gamma")
_EDGE_FIELDS = ("e", "f", "a_hat", "b_hat", "a_bar", "b_bar")
_DEMAND_KEYS = frozenset(_DEMAND_FIELDS)
_EDGE_KEYS = frozenset(_EDGE_FIELDS)


def _demand_from_entry(entry, where: str) -> DemandNode:
    # A canonical entry (a plain dict of the six keys, an int id) skips
    # the checks that name what is wrong.
    if type(entry) is not dict or entry.keys() != _DEMAND_KEYS:
        _expect_keys(entry, _DEMAND_FIELDS, where)
    node_id = entry["id"]
    if type(node_id) is not int:
        node_id = _int_field(entry, "id", where)
    try:
        return DemandNode(
            node_id,
            parse_money(entry["c"]),
            parse_money(entry["c_bar"]),
            parse_fraction(entry["d"]),
            parse_fraction(entry["beta"]),
            parse_fraction(entry["gamma"]),
        )
    except MoneyError as exc:
        raise InstanceFormatError(f"{where}: {exc}") from exc


def _edge_from_entry(entry, where: str) -> Edge:
    # What json.loads gives for a canonical file (plain ints and floats)
    # is used as it is; anything else goes through the checked fields.
    if type(entry) is not dict or entry.keys() != _EDGE_KEYS:
        _expect_keys(entry, _EDGE_FIELDS, where)
    e, f, a_hat, b_hat, a_bar, b_bar = map(entry.__getitem__, _EDGE_FIELDS)
    if not (
        type(e) is int
        and type(f) is int
        and type(a_hat) is float
        and type(b_hat) is float
        and type(a_bar) is float
        and type(b_bar) is float
    ):
        e, f = (_int_field(entry, key, where) for key in _EDGE_FIELDS[:2])
        a_hat, b_hat, a_bar, b_bar = (
            _float_field(entry, key, where) for key in _EDGE_FIELDS[2:]
        )
    return Edge(e, f, a_hat, b_hat, a_bar, b_bar)


# The literals of the last string-only grid loaded, and its PriceGrid.
_last_grid: tuple[Optional[list], Optional[PriceGrid]] = (None, None)


def _grid_of(literals: list) -> PriceGrid:
    """The PriceGrid of a document's grid literals.

    A file set shares one grid, so the last grid whose literals are all
    strings is kept and reused for an equal list: no JSON value other
    than a str equals a str, so an equal list holds the same strings.
    A grid that fails to parse is never kept.
    """
    global _last_grid
    kept, grid = _last_grid
    if literals == kept:
        return grid
    grid = PriceGrid(tuple(map(parse_money, literals)))
    if all(type(text) is str for text in literals):
        _last_grid = (list(literals), grid)
    return grid


def instance_from_doc(doc: dict) -> Instance:
    _expect_keys(doc, ("format", "meta", "outlets", "demands", "edges"), "document")
    if doc["format"] != FORMAT_MARKER:
        raise InstanceFormatError(f"unsupported format {doc['format']!r}")
    meta = doc["meta"]
    _expect_keys(meta, ("model", "pi", "seed", "grid"), "meta")
    model = meta["model"]
    if model not in MODELS:
        raise InstanceFormatError(f"meta: unknown model {model!r}")
    if meta["seed"] is not None and (
        not isinstance(meta["seed"], int) or isinstance(meta["seed"], bool)
    ):
        raise InstanceFormatError("meta: field 'seed' must be an integer or null")
    prices = _list_field(meta, "grid", "meta")
    try:
        pi = None if meta["pi"] == "inf" else parse_money(meta["pi"])
        grid = _grid_of(prices)
    except (MoneyError, TypeError) as exc:
        raise InstanceFormatError(f"meta: {exc}") from exc

    outlets = doc["outlets"]
    if not isinstance(outlets, list) or outlets != list(range(len(outlets))):
        raise InstanceFormatError("outlets: expected the list 0..n-1")

    nodes = [
        _demand_from_entry(entry, f"demands[{i}]")
        for i, entry in enumerate(_list_field(doc, "demands", "document"))
    ]
    edges = [
        _edge_from_entry(entry, f"edges[{i}]")
        for i, entry in enumerate(_list_field(doc, "edges", "document"))
    ]
    return Instance(
        n_outlets=len(outlets),
        demands=tuple(nodes),
        edges=tuple(edges),
        grid=grid,
        model=model,
        pi=pi,
        seed=meta["seed"],
    )


def load_instance(path) -> Instance:
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise InstanceFormatError(f"{path}: not valid JSON: {exc}") from exc
    try:
        return instance_from_doc(doc)
    except InstanceFormatError as exc:
        raise InstanceFormatError(f"{path}: {exc}") from exc


def instance_label(inst: Instance) -> str:
    """Short deterministic identifier used in reports and file names."""
    density = round(inst.density * 100)
    seed = "x" if inst.seed is None else inst.seed
    return (
        f"{inst.model}_o{inst.n_outlets:02d}_n{inst.n_demands:02d}"
        f"_p{density:03d}_s{seed}"
    )
