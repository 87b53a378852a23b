"""Instance data model, demand functions, and the price-vector evaluator."""

import copy
import math
import pickle
import sys
from dataclasses import fields, replace
from fractions import Fraction
from types import SimpleNamespace
from unittest.mock import patch

import pytest

from netpricing import (
    BMNPP,
    MNPP,
    PM,
    PW,
    DemandNode,
    Edge,
    GenParams,
    Instance,
    InvalidInstance,
    PriceGrid,
    adjacency,
    demand_at,
    evaluate_prices,
    generate,
    logit_share,
    price_below,
    revenue_table,
    validate_prices,
)
from netpricing import model
from netpricing.model import LOGIT_EXPONENT_CLAMP, demand_bmnpp, demand_mnpp
from netpricing.money import MONEY_SCALE, money_unit
from tests.conftest import two_node_instance


class TestPriceGrid:
    def test_basic_accessors(self, int_grid):
        assert len(int_grid) == 26
        assert int_grid.min == 0
        assert int_grid.max == 2500
        assert 700 in int_grid
        assert 750 not in int_grid
        assert int_grid.index_of(700) == 7

    def test_below_index(self, int_grid):
        assert int_grid.below_index(1000) == 9
        assert int_grid.below_index(950) == 9
        assert int_grid.below_index(0) is None

    def test_price_below(self, int_grid):
        assert price_below(int_grid, 1000) == 900
        assert price_below(int_grid, 0) is None

    def test_rejects_empty(self):
        with pytest.raises(InvalidInstance):
            PriceGrid(())

    def test_rejects_unsorted_or_duplicate(self):
        with pytest.raises(InvalidInstance):
            PriceGrid((100, 50))
        with pytest.raises(InvalidInstance):
            PriceGrid((100, 100))


class TestNodeAndEdgeInvariants:
    def test_beta_must_be_interior(self):
        with pytest.raises(InvalidInstance):
            DemandNode(0, 1000, 0, Fraction(100), beta=Fraction(0))
        with pytest.raises(InvalidInstance):
            DemandNode(0, 1000, 0, Fraction(100), beta=Fraction(1))

    def test_gamma_must_exceed_beta(self):
        with pytest.raises(InvalidInstance):
            DemandNode(
                0, 1000, 0, Fraction(100), beta=Fraction(1, 2), gamma=Fraction(1, 2)
            )
        with pytest.raises(InvalidInstance):
            DemandNode(
                0, 1000, 0, Fraction(100), beta=Fraction(1, 2), gamma=Fraction(3, 2)
            )

    def test_volume_positive(self):
        with pytest.raises(InvalidInstance):
            DemandNode(0, 1000, 0, Fraction(0))

    def test_reservation_not_above_competitor(self):
        with pytest.raises(InvalidInstance):
            DemandNode(0, 1000, 1100, Fraction(100))

    def test_logit_slopes_nonnegative(self):
        with pytest.raises(InvalidInstance):
            Edge(0, 0, b_hat=-1.0)
        with pytest.raises(InvalidInstance):
            Edge(0, 0, b_bar=-0.5)

    @pytest.mark.parametrize("field", ["a_hat", "b_hat", "a_bar", "b_bar"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_logit_coefficients_finite(self, field, value):
        with pytest.raises(InvalidInstance, match=r"edge \(2, 1\): .* must be finite"):
            Edge(2, 1, **{field: value})

    # Each broken invariant, with Fraction and with int fields (and a float,
    # which has no numerator), and the message that names it; the first
    # broken one in this order is named.
    VOLUME = "volume must be positive"
    BETA = "beta must lie in \\(0, 1\\)"
    GAMMA = "gamma must lie in \\(beta, 1\\]"
    FLOOR = "war floor exceeds competitor price"

    @pytest.mark.parametrize(
        "fields,message",
        [
            (dict(d=Fraction(0)), VOLUME),
            (dict(d=0), VOLUME),
            (dict(d=Fraction(-1, 3)), VOLUME),
            (dict(d=-5, beta=0), VOLUME),
            (dict(beta=Fraction(0)), BETA),
            (dict(beta=0), BETA),
            (dict(beta=Fraction(1)), BETA),
            (dict(beta=1), BETA),
            (dict(beta=Fraction(-1, 2)), BETA),
            (dict(beta=Fraction(3, 2), gamma=2), BETA),
            (dict(beta=1.5), BETA),
            (dict(beta=Fraction(1, 2), gamma=Fraction(1, 2)), GAMMA),
            (dict(beta=Fraction(2, 3), gamma=Fraction(3, 5)), GAMMA),
            (dict(gamma=Fraction(3, 2)), GAMMA),
            (dict(gamma=2), GAMMA),
            (dict(gamma=0), GAMMA),
            (dict(c_bar=1100), FLOOR),
            (dict(c=900, c_bar=901, d=7), FLOOR),
        ],
    )
    def test_demand_node_names_the_broken_invariant(self, fields, message):
        values = dict(id=3, c=1000, c_bar=0, d=Fraction(100)) | fields
        with pytest.raises(InvalidInstance, match=f"^demand node 3: {message}$"):
            DemandNode(**values)

    @pytest.mark.parametrize(
        "fields",
        [
            dict(d=1, beta=Fraction(1, 2), gamma=1),
            dict(d=Fraction(1, 10**310), beta=Fraction(1, 10**9), gamma=Fraction(2, 10**9)),
            dict(d=100, beta=Fraction(999, 1000), gamma=Fraction(1)),
            dict(c=1000, c_bar=1000),
        ],
    )
    def test_demand_node_accepts_valid_fields(self, fields):
        values = dict(id=0, c=1000, c_bar=0, d=Fraction(100)) | fields
        node = DemandNode(**values)
        assert [getattr(node, k) for k in values] == list(values.values())


class TestInstanceValidation:
    def test_demand_ids_must_be_dense(self, int_grid):
        with pytest.raises(InvalidInstance):
            Instance(
                n_outlets=1,
                demands=(DemandNode(1, 1000, 0, Fraction(100)),),
                edges=(Edge(1, 0),),
                grid=int_grid,
            )

    def test_edges_must_be_unique(self, int_grid):
        with pytest.raises(InvalidInstance):
            Instance(
                n_outlets=1,
                demands=(DemandNode(0, 1000, 0, Fraction(100)),),
                edges=(Edge(0, 0), Edge(0, 0)),
                grid=int_grid,
            )

    def test_edge_endpoints_in_range(self, int_grid):
        with pytest.raises(InvalidInstance):
            Instance(
                n_outlets=1,
                demands=(DemandNode(0, 1000, 0, Fraction(100)),),
                edges=(Edge(0, 5),),
                grid=int_grid,
            )

    def test_mnpp_competitor_price_on_grid(self, int_grid):
        with pytest.raises(InvalidInstance):
            Instance(
                n_outlets=1,
                demands=(DemandNode(0, 1050, 0, Fraction(100)),),
                edges=(Edge(0, 0),),
                grid=int_grid,
            )

    def test_bmnpp_competitor_price_may_be_off_grid(self, int_grid):
        inst = Instance(
            n_outlets=1,
            demands=(DemandNode(0, 1050, 0, Fraction(100)),),
            edges=(Edge(0, 0),),
            grid=int_grid,
            model=BMNPP,
        )
        assert inst.demands[0].c == 1050

    def test_counts_and_density(self, tiny_connected):
        assert tiny_connected.n_demands == 2
        assert tiny_connected.density == pytest.approx(3 / 4)
        assert list(tiny_connected.outlets()) == [0, 1]


def test_adjacency_maps(tiny_connected):
    o_e, n_f, edge_of = adjacency(tiny_connected)
    assert o_e[0] == (0, 1)
    assert o_e[1] == (1,)
    assert n_f[1] == (0, 1)
    assert edge_of[(0, 1)].f == 1


class TestLogitShare:
    def test_zero_exponent_is_half(self):
        assert logit_share(0.0) == 0.5

    def test_saturates_without_overflow(self):
        assert logit_share(1e9) == pytest.approx(1.0)
        assert logit_share(-1e9) == pytest.approx(0.0, abs=1e-100)
        assert 0.0 <= logit_share(-1e9) <= logit_share(1e9) <= 1.0

    @staticmethod
    def assert_clamps_like_min_max(exponent):
        # logit_share passes math.exp the negated clamped exponent; it must
        # be bit for bit what max(-C, min(C, exponent)) gives.
        seen = []

        def exp(arg):
            seen.append(arg)
            return 1.0

        with patch.object(model, "math", SimpleNamespace(exp=exp)):
            logit_share(exponent)
        c = LOGIT_EXPONENT_CLAMP
        got, want = -seen[0], max(-c, min(c, exponent))
        assert repr(got) == repr(want)
        assert math.copysign(1.0, got) == math.copysign(1.0, want)

    @pytest.mark.parametrize(
        "exponent",
        [
            math.nan,
            -math.nan,
            math.inf,
            -math.inf,
            0.0,
            -0.0,
            1.5,
            -1.5,
            LOGIT_EXPONENT_CLAMP,
            -LOGIT_EXPONENT_CLAMP,
            math.nextafter(LOGIT_EXPONENT_CLAMP, math.inf),
            math.nextafter(LOGIT_EXPONENT_CLAMP, -math.inf),
            math.nextafter(-LOGIT_EXPONENT_CLAMP, math.inf),
            math.nextafter(-LOGIT_EXPONENT_CLAMP, -math.inf),
        ],
    )
    def test_clamp_equals_builtin_min_max(self, exponent):
        self.assert_clamps_like_min_max(exponent)

    def test_clamp_equals_builtin_min_max_on_any_float(self):
        pytest.importorskip("hypothesis")
        from hypothesis import given, settings
        from hypothesis import strategies as st

        @settings(max_examples=500, deadline=None, derandomize=True)
        @given(st.floats(allow_nan=True))
        def check(exponent):
            self.assert_clamps_like_min_max(exponent)

        check()


class TestDemandMnpp:
    def test_match_captures_beta(self, int_grid):
        node = DemandNode(0, 1000, 0, Fraction(100))
        assert demand_mnpp(node, 1000, int_grid) == Fraction(50)

    def test_undercut_captures_gamma(self, int_grid):
        node = DemandNode(0, 1000, 0, Fraction(100))
        assert demand_mnpp(node, 900, int_grid) == Fraction(100)
        assert demand_mnpp(node, 0, int_grid) == Fraction(100)

    def test_overpricing_sells_nothing(self, int_grid):
        node = DemandNode(0, 1000, 0, Fraction(100))
        assert demand_mnpp(node, 1100, int_grid) == Fraction(0)

    def test_war_branch_ignores_basket_floor(self, int_grid):
        # The fixed-fraction model keeps gamma all the way down the grid;
        # only the logit model gates the war regime on c_bar.
        node = DemandNode(0, 1000, 500, Fraction(100))
        assert demand_mnpp(node, 400, int_grid) == Fraction(100)
        assert demand_mnpp(node, 500, int_grid) == Fraction(100)

    def test_volumes_are_exact_fractions(self, int_grid):
        node = DemandNode(0, 1000, 0, Fraction(301, 3), beta=Fraction(1, 7))
        assert demand_mnpp(node, 1000, int_grid) == Fraction(301, 21)


class TestDemandBmnpp:
    def test_zero_exponent_undercut_share(self, int_grid):
        node = DemandNode(0, 2000, 0, Fraction(100))
        edge = Edge(0, 0, a_hat=300.0, b_hat=20.0)
        assert demand_bmnpp(node, edge, 1500, int_grid) == pytest.approx(50.0)

    def test_unit_weight_share(self, int_grid):
        node = DemandNode(0, 1000, 0, Fraction(100))
        edge = Edge(0, 0)
        assert demand_bmnpp(node, edge, 500, int_grid) == pytest.approx(50.0)

    def test_match_uses_match_coefficients(self, int_grid):
        node = DemandNode(0, 1000, 0, Fraction(100))
        edge = Edge(0, 0, a_hat=0.0, b_hat=0.0, a_bar=1000.0, b_bar=0.0)
        assert demand_bmnpp(node, edge, 1000, int_grid) == pytest.approx(100.0)
        # Undercutting ignores the match coefficients entirely.
        assert demand_bmnpp(node, edge, 900, int_grid) == pytest.approx(50.0)

    def test_regimes_disjoint_and_bounded(self, int_grid):
        node = DemandNode(0, 1000, 500, Fraction(100))
        edge = Edge(0, 0, a_hat=5.0, b_hat=0.1)
        assert demand_bmnpp(node, edge, 1100, int_grid) == 0.0
        assert demand_bmnpp(node, edge, 400, int_grid) == 0.0
        assert 0.0 < demand_bmnpp(node, edge, 700, int_grid) <= 100.0

    def test_huge_coefficients_do_not_overflow(self, int_grid):
        node = DemandNode(0, 1000, 0, Fraction(100))
        edge = Edge(0, 0, a_hat=1e6, b_hat=0.0)
        assert demand_bmnpp(node, edge, 900, int_grid) == pytest.approx(100.0)


def test_demand_at_dispatches_by_model(tiny_connected):
    vol = demand_at(tiny_connected, 0, 0, 1000)
    assert vol == Fraction(50)
    b = two_node_instance([(0, 0), (0, 1), (1, 1)], model=BMNPP)
    assert isinstance(demand_at(b, 0, 0, 900), float)


def test_revenue_table_shape_and_cache(tiny_connected):
    t1 = revenue_table(tiny_connected, MNPP)
    t2 = revenue_table(tiny_connected, MNPP)
    assert t1 is t2
    assert set(t1.ints) == {(0, 0), (0, 1), (1, 1)}
    row = t1.ints[(0, 0)]
    assert len(row) == 26
    assert t1.revenue(row[9]) == Fraction(900) * 1  # undercut at 9: gamma volume
    assert t1.revenue(row[10]) == Fraction(500)  # match at 10: beta volume


def test_revenue_table_integer_image():
    inst = generate(GenParams(model=MNPP, n_outlets=3, n_demands=6, seed=4, beta="0.3"))
    # A volume of 1e-310 is a subnormal float, so this node's logit entries
    # lie more than 2^1000 below the others.
    tiny = DemandNode(id=6, c=inst.demands[0].c, c_bar=0, d=Fraction(1, 10**310))
    inst = replace(
        inst,
        demands=inst.demands + (tiny,),
        edges=inst.edges + (Edge(6, 0, 300.0, 10.0, 300.0, 10.0),),
    )
    edge_of = adjacency(inst)[2]
    table = revenue_table(inst, MNPP)
    assert set(table.ints) == set(edge_of)
    for (e, f), image in table.ints.items():
        assert all(type(v) is int for v in image)
        assert tuple(map(table.revenue, image)) == tuple(
            money_unit(price) * demand_mnpp(inst.demands[e], price, inst.grid)
            for price in inst.grid.prices
        )
    logit = revenue_table(inst, BMNPP)
    assert set(logit.ints) == set(edge_of)
    assert logit.scale & (logit.scale - 1) == 0
    for (e, f), image in logit.ints.items():
        assert all(type(v) is int for v in image)
        row = tuple(
            (price / MONEY_SCALE)
            * demand_bmnpp(inst.demands[e], edge_of[(e, f)], price, inst.grid)
            for price in inst.grid.prices
        )
        assert tuple(Fraction(v, logit.scale) for v in image) == tuple(map(Fraction, row))
        assert tuple(map(logit.revenue, image)) == row
    tiny_row = [logit.revenue(v) for v in logit.ints[(6, 0)]]
    assert 0 < min(v for v in tiny_row if v) < sys.float_info.min


def test_mnpp_revenue_table_is_price_times_demand():
    # The MNPP image is built from integers alone and the Fraction rows
    # from the image; every entry must still be price times demand_mnpp.
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings
    from hypothesis import strategies as st

    odd = st.sampled_from(
        [Fraction(1, 3), Fraction(2, 7), Fraction(4, 9), Fraction(5, 11), Fraction(1, 2)]
    )

    @st.composite
    def instances(draw):
        step = draw(st.sampled_from([7, 25, 50, 100]))
        start = draw(st.sampled_from([0, step]))
        grid = PriceGrid(
            tuple(start + step * k for k in range(draw(st.integers(1, 8))))
        )
        demands = []
        for e in range(draw(st.integers(1, 4))):
            # Node 0's competitor sits on the grid floor: no undercut entries.
            c = grid.min if e == 0 else draw(st.sampled_from(grid.prices))
            beta = draw(odd)
            gamma = beta + (1 - beta) * draw(odd | st.just(Fraction(1)))
            d = Fraction(draw(st.integers(1, 500)), draw(st.integers(1, 21)))
            demands.append(DemandNode(id=e, c=c, c_bar=0, d=d, beta=beta, gamma=gamma))
        n_outlets = draw(st.integers(1, 3))
        pairs = draw(
            st.sets(
                st.tuples(st.integers(0, len(demands) - 1), st.integers(0, n_outlets - 1))
            )
        )
        edges = tuple(Edge(e, f) for e, f in sorted(pairs | {(0, 0)}))
        return Instance(n_outlets, tuple(demands), edges, grid, model=MNPP)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(instances())
    def check(inst):
        table = revenue_table(inst, MNPP)
        assert set(table.ints) == {(edge.e, edge.f) for edge in inst.edges}
        for (e, f), image in table.ints.items():
            node = inst.demands[e]
            row = tuple(map(table.revenue, image))
            assert row == tuple(
                money_unit(price) * demand_mnpp(node, price, inst.grid)
                for price in inst.grid.prices
            )
            assert all(type(v) is Fraction for v in row)
        floor_row = tuple(map(table.revenue, table.ints[(0, 0)]))
        node = inst.demands[0]
        assert floor_row[0] == money_unit(node.c) * node.d * node.beta
        assert not any(floor_row[1:])

    check()


def _logit_edge_cases():
    """A bmnpp instance whose nodes put the undercut window and the match
    cell at every edge the support-only rows must handle: prices 0..10."""
    grid = PriceGrid(tuple(range(0, 1001, 100)))
    demands = (
        DemandNode(0, c=550, c_bar=0, d=Fraction(100)),  # c off the grid
        DemandNode(1, c=0, c_bar=0, d=Fraction(75)),  # c on the floor: a price-0 cell
        DemandNode(2, c=700, c_bar=650, d=Fraction(120)),  # c_bar above every price below c
        DemandNode(3, c=800, c_bar=300, d=Fraction(1, 10**310)),  # subnormal volume
        DemandNode(4, c=1000, c_bar=200, d=Fraction(8753, 100)),  # c on the ceiling
        DemandNode(5, c=1100, c_bar=100, d=Fraction(60)),  # c above the grid
        DemandNode(6, c=400, c_bar=400, d=Fraction(90)),  # c_bar == c
    )
    coefficients = [(300.0, 10.0, 250.0, 7.5), (0.0, 0.0, 0.0, 0.0), (-2.0, 0.3, 1.0, 19.0)]
    edges = tuple(
        Edge(e, f, *coefficients[(e + f) % 3]) for e in range(len(demands)) for f in (0, 1)
    )
    return Instance(2, demands, edges, grid, model=BMNPP)


def test_bmnpp_revenue_table_is_price_times_demand():
    # The table evaluates each logit row only over its support, with the
    # per-edge terms hoisted; every entry, inside and outside the support,
    # must give the same float as demand_bmnpp price by price, and the
    # scale must be the smallest power of two that makes them integers.
    instances = [
        generate(GenParams(model=BMNPP, n_outlets=3, n_demands=8, seed=seed))
        for seed in range(5)
    ]
    for inst in instances + [_logit_edge_cases()]:
        edge_of = adjacency(inst)[2]
        table = revenue_table(inst, BMNPP)
        assert set(table.ints) == set(edge_of)
        for (e, f), image in table.ints.items():
            node = inst.demands[e]
            assert all(type(v) is int for v in image)
            assert tuple(map(table.revenue, image)) == tuple(
                (price / MONEY_SCALE) * demand_bmnpp(node, edge_of[(e, f)], price, inst.grid)
                for price in inst.grid.prices
            )
        assert table.scale & (table.scale - 1) == 0
        assert table.scale == 1 or any(v % 2 for image in table.ints.values() for v in image)


def test_logit_edge_cases_cover_every_support_shape():
    inst = _logit_edge_cases()
    table = revenue_table(inst, BMNPP)
    rows = {e: [table.revenue(v) for v in table.ints[(e, 0)]] for e in range(7)}
    nonzero = {e: [m for m, v in enumerate(row) if v] for e, row in rows.items()}
    assert nonzero[0] == [1, 2, 3, 4, 5]  # the undercut at price 0 earns 0; no match
    assert nonzero[1] == []  # only the price-0 match cell
    assert nonzero[2] == [7]  # no undercut, the match
    assert nonzero[3] == [3, 4, 5, 6, 7, 8]
    assert 0 < min(v for v in rows[3] if v) < sys.float_info.min
    assert nonzero[4] == list(range(2, 11))
    assert nonzero[5] == list(range(1, 11))
    assert nonzero[6] == [4]


def test_kept_tables_are_never_pickled():
    inst = generate(GenParams(model=BMNPP, n_outlets=3, n_demands=6, seed=9))
    table = revenue_table(inst, BMNPP)
    o_e = adjacency(inst)[0]
    names = {field.name for field in fields(Instance)}
    restored = pickle.loads(pickle.dumps(inst))
    assert set(restored.__dict__) == names
    assert set(copy.copy(inst).__dict__) == names
    assert restored == inst
    assert hash(restored) == hash(inst)
    # An unpickled instance builds its own, equal, table and adjacency.
    again = revenue_table(restored, BMNPP)
    assert again is not table
    assert (again.scale, again.ints, again.masks) == (table.scale, table.ints, table.masks)
    assert adjacency(restored)[0] == o_e


class TestValidatePrices:
    def test_wrong_length(self, tiny_connected):
        with pytest.raises(ValueError):
            validate_prices(tiny_connected, (100,))

    def test_off_grid(self, tiny_connected):
        with pytest.raises(ValueError):
            validate_prices(tiny_connected, (150, 100))

    def test_ok(self, tiny_connected):
        assert validate_prices(tiny_connected, [100, 200]) == (100, 200)


class TestEvaluatePrices:
    def test_connected_oracle(self, tiny_connected):
        revenue, assignment, labels = evaluate_prices(tiny_connected, (2500, 700))
        assert revenue == Fraction(1400)
        assert assignment == {0: 1, 1: 1}
        assert labels == {0: PW, 1: PW}

    def test_match_label(self, tiny_connected):
        revenue, assignment, labels = evaluate_prices(tiny_connected, (2500, 1000))
        assert labels[0] == PM
        assert revenue == Fraction(500)
        assert 1 not in assignment  # price 10 overshoots node 1's competitor

    def test_tie_goes_to_lowest_outlet_id(self, tiny_connected):
        _, assignment, _ = evaluate_prices(tiny_connected, (700, 700))
        assert assignment[0] == 0
        assert assignment[1] == 1

    def test_nothing_sold_when_priced_out(self, tiny_connected):
        revenue, assignment, _ = evaluate_prices(tiny_connected, (2500, 2500))
        assert revenue == Fraction(0)
        assert assignment == {}

    def test_grand_total_is_sum_of_parts(self, tiny_disjoint):
        revenue, _, _ = evaluate_prices(tiny_disjoint, (900, 700))
        assert revenue == Fraction(1600)
