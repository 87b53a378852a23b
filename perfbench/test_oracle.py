"""Checks of the benchmark's own evaluator against hand-derived optima.

    python -m pytest -q perfbench/test_oracle.py

The instances are those of tests/conftest.py, written here as instance
documents: prices 0..25 in whole units, two demand nodes with competitor
prices 10 and 8, volume 100, beta 1/2 and gamma 1.
"""

from fractions import Fraction

import pytest

import oracle

GRID = [f"{p}.00" for p in range(26)]


def doc(n_outlets, nodes, edges, model="mnpp"):
    return {
        "format": "netpricing-instance-v1",
        "meta": {"model": model, "pi": "inf", "seed": None, "grid": GRID},
        "outlets": list(range(n_outlets)),
        "demands": [
            {"id": i, "c": c, "c_bar": "0.00", "d": "100", "beta": "0.5", "gamma": "1"}
            for i, c in enumerate(nodes)
        ],
        "edges": [
            {"e": e, "f": f, "a_hat": 0.0, "b_hat": 0.0, "a_bar": 0.0, "b_bar": 0.0}
            for e, f in edges
        ],
    }


CONNECTED = oracle.market_from_doc(doc(2, ["10.00", "8.00"], [(0, 0), (0, 1), (1, 1)]))
DISJOINT = oracle.market_from_doc(doc(2, ["10.00", "8.00"], [(0, 0), (1, 1)]))
SINGLE = oracle.market_from_doc(doc(1, ["10.00"], [(0, 0)]))


def test_disjoint_optimum_at_9_and_7():
    assert oracle.evaluate(DISJOINT, (900, 700)) == 1600
    assert oracle.enumerate_optimum(DISJOINT) == 1600


def test_connected_optimum():
    assert oracle.enumerate_optimum(CONNECTED) == 1400
    # Node 0 buys from the cheaper outlet 1 at 7; outlet 0's 9 goes unused.
    assert oracle.evaluate(CONNECTED, (900, 700)) == 1400


def test_single_optimum_at_9():
    assert oracle.evaluate(SINGLE, (900,)) == 900
    assert oracle.evaluate(SINGLE, (1000,)) == 500  # match keeps beta = 1/2
    assert oracle.evaluate(SINGLE, (1100,)) == 0
    assert oracle.enumerate_optimum(SINGLE) == 900


def test_ties_go_to_the_lowest_outlet():
    data = doc(2, ["10.00"], [(0, 0), (0, 1)], model="bmnpp")
    data["edges"][1]["a_hat"] = 50.0  # outlet 1 would keep all the volume
    market = oracle.market_from_doc(data)
    assert oracle.evaluate(market, (900, 900)) == pytest.approx(450.0)
    assert oracle.evaluate(market, (900, 800)) == pytest.approx(800.0)


def test_logit_shares_at_zero_exponent():
    market = oracle.market_from_doc(doc(1, ["10.00"], [(0, 0)], model="bmnpp"))
    # A zero exponent keeps half the volume in either regime.
    assert oracle.evaluate(market, (900,)) == pytest.approx(450.0)
    assert oracle.evaluate(market, (1000,)) == pytest.approx(500.0)
    assert oracle.enumerate_optimum(market) == pytest.approx(500.0)


def row(**fields):
    base = {
        "algorithm": "fi",
        "status": "ok",
        "revenue": "1600",
        "r_opt": "1600",
        "prices": "9.00 7.00",
        "message": "",
    }
    return {**base, **fields}


def test_check_row_accepts_a_right_row():
    assert oracle.check_row(row(), DISJOINT, Fraction(1600)) == []


def test_check_row_rejects_wrong_results():
    assert oracle.check_row(row(revenue="1599"), DISJOINT)
    assert oracle.check_row(row(prices="9.00 7.50"), DISJOINT)
    assert oracle.check_row(row(prices="9.00"), DISJOINT)
    assert oracle.check_row(row(r_opt="1500", revenue="1600"), DISJOINT)
    assert oracle.check_row(row(algorithm="ip2", revenue="1590.0"), DISJOINT, Fraction(1600))
    assert oracle.check_row(row(algorithm="ip2"), DISJOINT) == ["no enumerated optimum for a MIP row"]
    assert oracle.check_row(row(algorithm="sp", revenue="1700", r_opt=""), DISJOINT)
