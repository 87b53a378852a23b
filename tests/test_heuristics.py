"""Constructive heuristics against the hand-checked tiny oracles."""

from dataclasses import replace
from fractions import Fraction

import pytest

from netpricing import (
    ALGORITHMS,
    BMNPP,
    DP_CALLS,
    DemandNode,
    Edge,
    GenParams,
    HeuristicTimeout,
    Instance,
    adjacency,
    best_insertion,
    brute_force,
    evaluate_prices,
    full_insertion,
    generate,
    greedy_select,
    insertion_with_order,
    ladder_exact,
    order_select,
    revenue_table,
    run_algorithm,
    single_price,
)
from netpricing.instgen import make_grid
from tests.conftest import two_node_instance


def small_grid_params(model, seed, outlets=3, demands=5, density=0.7):
    """Instances small enough for brute_force to stay instant."""
    return GenParams(
        model=model,
        n_outlets=outlets,
        n_demands=demands,
        density=density,
        seed=seed,
        grid_min="0",
        grid_max="10",
        grid_step="1",
    )


class TestSinglePrice:
    def test_disjoint_oracle(self, tiny_disjoint):
        assert single_price(tiny_disjoint) == (700, Fraction(1400))

    def test_single_outlet_oracle(self, tiny_single):
        assert single_price(tiny_single) == (900, Fraction(900))

    def test_score_ignores_match_revenue(self, tiny_single):
        # Undercut-only scoring never considers posting exactly at c.
        price, _ = single_price(tiny_single)
        assert price != 1000

    def test_lowest_price_wins_score_ties(self, tiny_disjoint):
        price, _ = single_price(tiny_disjoint)
        assert price == 700

    @pytest.mark.parametrize("model", ["mnpp", BMNPP])
    def test_matches_a_scan_per_grid_price(self, model):
        def scan(inst):
            # Every grid price scored on its own: nodes in id order, each
            # adding its best outlet's table entry as an exact Fraction.
            o_e = adjacency(inst)[0]
            table = revenue_table(inst, inst.model)
            best_price, best_rev = None, None
            for m, price in enumerate(inst.grid.prices):
                rev = Fraction(0)
                for node in inst.demands:
                    if not o_e[node.id]:
                        continue
                    below = inst.grid.below_index(node.c)
                    war_ok = below is not None and price <= inst.grid.prices[below]
                    if war_ok:
                        rev += Fraction(
                            max(
                                table.revenue(table.ints[(node.id, f)][m])
                                for f in o_e[node.id]
                            )
                        )
                if best_rev is None or rev > best_rev:
                    best_price, best_rev = price, rev
            return best_price, best_rev if model == "mnpp" else float(best_rev)

        # Prices 1 and 2 both score 400 here (2 under the logit model's
        # even shares), so the lowest must win.
        tied = Instance(
            n_outlets=2,
            demands=(
                DemandNode(0, 200, 0, Fraction(200)),
                DemandNode(1, 300, 0, Fraction(200)),
            ),
            edges=(Edge(0, 0), Edge(1, 1)),
            grid=make_grid("0", "25", "1"),
            model=model,
        )
        instances = [tied]
        for seed in range(10):
            instances.append(
                generate(small_grid_params(model, seed, 4, 8, density=0.4))
            )
            instances.append(
                generate(GenParams(model=model, n_outlets=4, n_demands=8, seed=seed))
            )
        for inst in instances:
            got = single_price(inst)
            want = scan(inst)
            assert got == want
            assert type(got[1]) is type(want[1])
        assert single_price(tied)[0] == 100


class TestGreedySelect:
    def test_disjoint_trace(self, tiny_disjoint):
        # Standalone values: outlet 0 earns 900, outlet 1 earns 700, so
        # greedy commits outlet 0 first and the joint ladder stays at 1400.
        ladder, revenue = greedy_select(tiny_disjoint)
        assert ladder == (0, 1)
        assert revenue == Fraction(1400)

    def test_leftovers_appended_ascending(self, tiny_single):
        inst = two_node_instance([(0, 0), (1, 0)])
        ladder, _ = greedy_select(inst)
        assert ladder == (0, 1)  # outlet 1 serves nobody, appended at the end


class TestOrderSelect:
    def test_disjoint_trace(self, tiny_disjoint):
        # Node 1 has the cheaper competitor (8 < 10), so its outlet leads.
        assert order_select(tiny_disjoint) == (1, 0)

    def test_commits_the_lowest_potential(self):
        # Head node 0 (c=8) sees both outlets; outlet 1 also covers the
        # second node so its coverage potential is larger (1800 vs 800).
        inst = Instance(
            n_outlets=2,
            demands=(
                DemandNode(0, 800, 0, Fraction(100)),
                DemandNode(1, 1000, 0, Fraction(100)),
            ),
            edges=(Edge(0, 0), Edge(0, 1), Edge(1, 1)),
            grid=make_grid("0", "25", "1"),
        )
        assert order_select(inst) == (0, 1)

    def test_uncoverable_heads_are_dropped(self):
        # Node 1 has the cheaper competitor and so heads the queue first,
        # but no outlet reaches it: it is dropped, and node 0's outlet
        # leads, with the unused outlet appended.
        inst = two_node_instance([(0, 1)])
        assert order_select(inst) == (1, 0)


class TestInsertion:
    def test_best_position_front(self, tiny_disjoint):
        pos, rev = best_insertion(tiny_disjoint, (0,), 1)
        assert (pos, rev) == (0, Fraction(1600))

    def test_position_ties_keep_lowest(self, tiny_single):
        inst = two_node_instance([(0, 0), (1, 0)])
        pos, _ = best_insertion(inst, (0,), 1)
        assert pos == 0 or pos == 1  # all positions tie; lowest kept
        assert pos == 0

    @pytest.mark.parametrize("length", range(5))
    def test_one_stage_per_prefix_and_trial_suffix(self, length):
        # The base prefix grows once (length stages); slot j then pushes
        # the new outlet and the length - j outlets after it.
        inst = generate(small_grid_params("mnpp", 0, outlets=5, demands=8))
        assert inst.pi is None
        DP_CALLS.reset()
        best_insertion(inst, tuple(range(length)), 4)
        slots = (length + 1) * (length + 2) // 2
        assert DP_CALLS.cells == (slots + length) * len(inst.grid)

    def test_full_insertion_finds_disjoint_optimum(self, tiny_disjoint):
        result = full_insertion(tiny_disjoint)
        assert result.ladder == (1, 0)
        assert result.revenue == Fraction(1600)
        assert result.prices == (900, 700)

    def test_insertion_with_order_oracle(self, tiny_disjoint):
        result = insertion_with_order(
            tiny_disjoint, order_select(tiny_disjoint), algorithm="orderI"
        )
        assert result.algorithm == "orderI"
        assert result.revenue == Fraction(1600)

    def test_insertion_order_must_be_permutation(self, tiny_disjoint):
        with pytest.raises(ValueError):
            insertion_with_order(tiny_disjoint, (0,))
        with pytest.raises(ValueError):
            insertion_with_order(tiny_disjoint, (0, 0))


class TestRunAlgorithm:
    def test_unknown_name_rejected(self, tiny_disjoint):
        with pytest.raises(ValueError):
            run_algorithm(tiny_disjoint, "anneal")

    def test_sp_prices_are_uniform(self, tiny_disjoint):
        result = run_algorithm(tiny_disjoint, "sp")
        assert result.ladder is None
        assert result.prices == (700, 700)
        assert result.revenue == Fraction(1400)

    @pytest.mark.parametrize("algorithm", ["greedy", "order", "fi", "greedyI", "orderI"])
    def test_ladder_algorithms_cover_all_outlets(self, tiny_disjoint, algorithm):
        result = run_algorithm(tiny_disjoint, algorithm)
        assert sorted(result.ladder) == [0, 1]
        assert len(result.prices) == 2
        assert result.wall_time >= 0.0

    def test_order_and_insertions_reach_1600(self, tiny_disjoint):
        for algorithm in ("order", "fi", "orderI"):
            assert run_algorithm(tiny_disjoint, algorithm).revenue == Fraction(1600)

    def test_relaxation_guided_needs_solver(self, tiny_disjoint, monkeypatch):
        monkeypatch.delenv("NETPRICING_SOLVER_CMD", raising=False)
        from netpricing import SolverUnavailable

        with pytest.raises(SolverUnavailable):
            run_algorithm(tiny_disjoint, "ip1I")

    def test_relaxation_guided_with_builtin(self, tiny_disjoint, solver):
        result = run_algorithm(tiny_disjoint, "ip2I", adapter=solver)
        assert result.revenue == Fraction(1600)

    def test_algorithm_major_sweep_builds_one_table_per_instance(self):
        # Each algorithm in turn over every instance: the instances keep
        # their tables, however many there are.
        instances = [generate(small_grid_params("mnpp", seed)) for seed in range(10)]
        before = revenue_table.cache_info().misses
        for algorithm in ("greedyI", "orderI", "fi"):
            for inst in instances:
                run_algorithm(inst, algorithm)
        assert revenue_table.cache_info().misses - before == len(instances)

    def test_deadline_zero_raises(self):
        inst = generate(GenParams(n_outlets=6, n_demands=12, density=0.8, seed=3))
        with pytest.raises(HeuristicTimeout):
            run_algorithm(inst, "fi", time_limit=0.0)


def test_heuristic_chain_on_random_instances():
    """Exact dominance spot check: sp <= fi <= brute-force optimum."""
    for seed in range(6):
        inst = generate(small_grid_params("mnpp", seed))
        best = brute_force(inst)[0]
        fi = run_algorithm(inst, "fi").revenue
        sp = run_algorithm(inst, "sp").revenue
        assert sp <= fi <= best


def test_bmnpp_heuristics_bounded_by_optimum():
    for seed in range(4):
        inst = generate(small_grid_params(BMNPP, seed, demands=4))
        best = brute_force(inst)[0]
        for algorithm in ("sp", "greedy", "order", "fi", "greedyI", "orderI"):
            revenue = run_algorithm(inst, algorithm).revenue
            assert revenue <= best + 1e-9 * max(1.0, abs(best))


def test_reported_revenue_is_the_evaluated_revenue_bmnpp():
    """A ladder's reported revenue is what its prices earn, to the last bit.

    Both sum the revenue table's integer image and round once. The ladder
    programme serves a price tie from the earlier ladder position and
    evaluate_prices from the lowest outlet id, so runs where some node sees
    two of its outlets at one price are left out.
    """
    checked = 0
    for seed in range(40):
        params = GenParams(model=BMNPP, n_outlets=4, n_demands=8, density=0.5, seed=seed)
        inst = generate(params)
        o_e = adjacency(inst)[0]
        runs = []
        for alg in ("greedy", "order", "fi", "greedyI", "orderI"):
            result = run_algorithm(inst, alg)
            runs.append((alg, result.revenue, result.prices))
        revenue, _, prices = ladder_exact(inst)
        runs.append(("ladder_exact", revenue, prices))
        for alg, revenue, prices in runs:
            if any(len({prices[f] for f in fs}) < len(fs) for fs in o_e):
                continue
            checked += 1
            assert revenue == evaluate_prices(inst, prices)[0], (seed, alg)
    assert checked >= 50


def test_ladder_heuristics_honour_the_instance_spread_cap():
    """Every heuristic keeps inst.pi: fi broke a 2.00 cap on 10 of these 30."""
    broken_without_cap = 0
    for seed in range(30):
        params = small_grid_params("mnpp", seed, outlets=3, demands=6, density=0.5)
        inst = generate(replace(params, pi="2"))
        assert inst.pi == 200
        for algorithm in ("greedy", "order", "fi", "greedyI", "orderI"):
            prices = run_algorithm(inst, algorithm).prices
            assert max(prices) - min(prices) <= inst.pi, (seed, algorithm, prices)
        # With a looser cap of its own, the instance lets fi break 2.00.
        prices = run_algorithm(replace(inst, pi=1000), "fi").prices
        broken_without_cap += max(prices) - min(prices) > inst.pi
    assert broken_without_cap == 10


def test_algorithm_registry():
    assert ALGORITHMS == ("sp", "greedy", "order", "fi", "greedyI", "orderI", "ip1I", "ip2I")
