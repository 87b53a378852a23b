"""Shared fixtures: three tiny hand-checkable instances and solver access.

The tiny instances use an integer grid 0..25 and two demand nodes with
competitor prices 10 and 8, volume 100 each, beta 1/2, gamma 1. Their
optima are small enough to verify by hand and are frozen in the tests:

* connected (both nodes reachable, node 0 also sees outlet 1): optimum 1400
* disjoint (one private outlet per node): optimum 1600 at prices (9, 7)
* single (one outlet, one node, c=10): optimum 900 at price 9
"""

from fractions import Fraction

import pytest

from netpricing import DemandNode, Edge, Instance, builtin_adapter
from netpricing.instgen import make_grid


def grid_0_25_step1():
    return make_grid("0", "25", "1")


def two_node_instance(edges, model="mnpp", pi=None):
    return Instance(
        n_outlets=2,
        demands=(
            DemandNode(0, 1000, 0, Fraction(100)),
            DemandNode(1, 800, 0, Fraction(100)),
        ),
        edges=tuple(Edge(e, f) for e, f in edges),
        grid=grid_0_25_step1(),
        model=model,
        pi=pi,
    )


def outlet_nodes(inst):
    """Each outlet's demand nodes, as a set, read from the edge list."""
    nodes = [set() for _ in range(inst.n_outlets)]
    for edge in inst.edges:
        nodes[edge.f].add(edge.e)
    return nodes


def filled_states(inst, sequences):
    """The prefix-trie states that pushing every prefix of each outlet
    sequence, from the empty prefix, fills on a cold trie.

    An outlet whose nodes the outlets before it already cover is dead: its
    push gives back the state it started from and fills nothing. A state
    is therefore a sequence with its dead outlets dropped, and a live
    push fills one state, once. The cells filled are the number of
    states times the revenue table's cells.
    """
    nodes = outlet_nodes(inst)
    states = set()
    for sequence in sequences:
        covered, live = set(), ()
        for f in sequence:
            if not nodes[f] <= covered:
                covered |= nodes[f]
                live += (f,)
                states.add(live)
    return states


@pytest.fixture
def int_grid():
    return grid_0_25_step1()


@pytest.fixture
def tiny_connected():
    return two_node_instance([(0, 0), (0, 1), (1, 1)])


@pytest.fixture
def tiny_disjoint():
    return two_node_instance([(0, 0), (1, 1)])


@pytest.fixture
def tiny_single():
    return Instance(
        n_outlets=1,
        demands=(DemandNode(0, 1000, 0, Fraction(100)),),
        edges=(Edge(0, 0),),
        grid=grid_0_25_step1(),
    )


@pytest.fixture(scope="session")
def solver():
    return builtin_adapter()


_ACCEPTANCE_FILE = "test_acceptance.py"
_acceptance_docs: dict[str, str] = {}
_acceptance_outcomes: dict[str, str] = {}


def pytest_collection_modifyitems(items):
    for item in items:
        if _ACCEPTANCE_FILE in str(item.fspath):
            doc = (item.obj.__doc__ or item.name).strip().splitlines()[0]
            _acceptance_docs[item.nodeid] = doc


def pytest_runtest_logreport(report):
    if report.nodeid not in _acceptance_docs:
        return
    if report.when == "call":
        _acceptance_outcomes[report.nodeid] = report.outcome.upper()
    elif report.when == "setup" and report.outcome != "passed":
        _acceptance_outcomes[report.nodeid] = report.outcome.upper()


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_outcomes:
        return
    terminalreporter.section("acceptance criteria")
    for nodeid in _acceptance_docs:
        outcome = _acceptance_outcomes.get(nodeid, "NOT RUN")
        terminalreporter.write_line(f"[{outcome}] {_acceptance_docs[nodeid]}")
