"""Result checks made apart from netpricing.

This module reads instance files and ``runs.csv`` artifacts as plain
data and recomputes revenues from the model definition, without
importing netpricing. Money is kept in integer cents. Under the
fixed-fraction model (mnpp) a node that sees its competitor price matched
keeps ``d * beta`` of its volume, one that is undercut keeps
``d * gamma``, and revenues are exact Fractions. Under the binary-logit
model (bmnpp) the kept share is a logistic function of the price and
revenues are floats.

``evaluate`` serves each node from its cheapest connected outlet, ties to
the lowest outlet id. ``enumerate_optimum`` tries every grid price vector
and is meant for grids of a few thousand vectors.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional

MNPP = "mnpp"
BMNPP = "bmnpp"

# Algorithms whose reported revenue is the ladder programme's value.
LADDER_ALGORITHMS = frozenset(
    ("greedy", "order", "fi", "greedyI", "orderI", "ip1I", "ip2I")
)
MIP_ALGORITHMS = frozenset(("ip1", "ip2"))

# runs.csv renders float revenues with 6 decimals.
CSV_ROUNDING = 1e-6
MIP_TOLERANCE = {MNPP: 1e-6, BMNPP: 1e-4}


@dataclass(frozen=True)
class Link:
    outlet: int
    a_hat: float
    b_hat: float
    a_bar: float
    b_bar: float


@dataclass(frozen=True)
class Node:
    c: int
    c_bar: int
    d: Fraction
    beta: Fraction
    gamma: Fraction
    links: tuple[Link, ...]  # sorted by outlet id


@dataclass(frozen=True)
class Market:
    model: str
    grid: tuple[int, ...]
    pi: Optional[int]
    n_outlets: int
    nodes: tuple[Node, ...]


def cents(text: str) -> int:
    value = Fraction(text) * 100
    if value.denominator != 1:
        raise ValueError(f"{text!r} is finer than a cent")
    return int(value)


def market_from_doc(doc: dict) -> Market:
    meta = doc["meta"]
    links: dict[int, list[Link]] = {}
    for edge in doc["edges"]:
        links.setdefault(edge["e"], []).append(
            Link(edge["f"], edge["a_hat"], edge["b_hat"], edge["a_bar"], edge["b_bar"])
        )
    nodes = tuple(
        Node(
            c=cents(node["c"]),
            c_bar=cents(node["c_bar"]),
            d=Fraction(node["d"]),
            beta=Fraction(node["beta"]),
            gamma=Fraction(node["gamma"]),
            links=tuple(sorted(links.get(node["id"], []), key=lambda k: k.outlet)),
        )
        for node in doc["demands"]
    )
    return Market(
        model=meta["model"],
        grid=tuple(cents(p) for p in meta["grid"]),
        pi=None if meta["pi"] == "inf" else cents(meta["pi"]),
        n_outlets=len(doc["outlets"]),
        nodes=nodes,
    )


def load_market(path) -> Market:
    return market_from_doc(json.loads(Path(path).read_text(encoding="utf-8")))


def logistic(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    z = math.exp(x)
    return z / (1.0 + z)


def link_revenue(model: str, node: Node, link: Link, price: int):
    """Revenue one outlet earns from one node at a posted grid price."""
    if model == MNPP:
        if price == node.c:
            volume = node.d * node.beta
        elif price < node.c:
            volume = node.d * node.gamma
        else:
            return Fraction(0)
        return Fraction(price, 100) * volume
    if price == node.c:
        share = logistic(link.a_bar - link.b_bar * (node.c / 100))
    elif node.c_bar <= price < node.c:
        share = logistic(link.a_hat - link.b_hat * (price / 100))
    else:
        return 0.0
    return (price / 100) * (float(node.d) * share)


def evaluate(market: Market, prices) -> object:
    """Revenue of a price vector; each node buys from its cheapest outlet,
    ties to the lowest outlet id."""
    total = Fraction(0) if market.model == MNPP else 0.0
    for node in market.nodes:
        if not node.links:
            continue
        link = min(node.links, key=lambda k: (prices[k.outlet], k.outlet))
        total += link_revenue(market.model, node, link, prices[link.outlet])
    return total


def enumerate_optimum(market: Market):
    """Best revenue over every grid price vector within the spread cap."""
    grid = market.grid
    level = {p: m for m, p in enumerate(grid)}
    table = [
        [[link_revenue(market.model, node, link, p) for p in grid] for link in node.links]
        for node in market.nodes
    ]
    zero = Fraction(0) if market.model == MNPP else 0.0
    best = None
    for prices in itertools.product(grid, repeat=market.n_outlets):
        if market.pi is not None and max(prices) - min(prices) > market.pi:
            continue
        total = zero
        for node, rows in zip(market.nodes, table):
            if not node.links:
                continue
            k = min(range(len(node.links)), key=lambda j: (prices[node.links[j].outlet], j))
            total += rows[k][level[prices[node.links[k].outlet]]]
        if best is None or total > best:
            best = total
    return best


def read_runs(path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as handle:
        first = handle.readline()
        if not first.startswith("# netpricing-runs-"):
            raise ValueError(f"{path}: unexpected header {first.strip()!r}")
        return list(csv.DictReader(handle))


def check_row(row: dict, market: Market, optimum=None) -> list[str]:
    """Every check that applies to one ok runs.csv row; returns the failures.

    optimum is the enumerated optimum for rows whose instance is small
    enough to enumerate (it is required for ip1 and ip2 rows).
    """
    alg = row["algorithm"]
    problems = []
    prices = tuple(cents(p) for p in row["prices"].split())
    if len(prices) != market.n_outlets:
        return [f"{len(prices)} prices for {market.n_outlets} outlets"]
    grid = set(market.grid)
    off = [p for p in prices if p not in grid]
    if off:
        return [f"prices off the grid: {off}"]
    exact = market.model == MNPP
    rounding = Fraction(0) if exact else Fraction(CSV_ROUNDING)
    evaluated = Fraction(evaluate(market, prices))
    reported = Fraction(row["revenue"])
    if exact and alg in LADDER_ALGORITHMS and reported != evaluated:
        problems.append(f"reported {reported} != evaluated {evaluated}")
    if exact and alg == "sp" and reported > evaluated:
        problems.append(f"sp reported {reported} > evaluated {evaluated}")
    if row["r_opt"]:
        r_opt = Fraction(row["r_opt"])
        if evaluated > r_opt + rounding:
            problems.append(f"evaluated {float(evaluated)} > r_opt {float(r_opt)}")
        slack = rounding
        if alg in MIP_ALGORITHMS:
            # A solver objective is a float, good to the MIP tolerance.
            slack = Fraction(MIP_TOLERANCE[market.model] * max(1.0, abs(float(r_opt))))
        if reported > r_opt + slack:
            problems.append(f"reported {float(reported)} > r_opt {float(r_opt)}")
        if optimum is not None and abs(r_opt - Fraction(optimum)) > rounding:
            problems.append(f"r_opt {float(r_opt)} != enumerated {float(optimum)}")
    if alg in MIP_ALGORITHMS:
        if optimum is None:
            problems.append("no enumerated optimum for a MIP row")
        else:
            gap = abs(float(reported) - float(optimum)) / max(1.0, abs(float(optimum)))
            if gap > MIP_TOLERANCE[market.model]:
                problems.append(
                    f"{alg} objective {float(reported)} vs optimum {float(optimum)}"
                )
    return problems
