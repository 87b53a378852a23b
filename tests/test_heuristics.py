"""Constructive heuristics against the hand-checked tiny oracles."""

from dataclasses import replace
from fractions import Fraction

import pytest

from netpricing import (
    ALGORITHMS,
    BMNPP,
    DemandNode,
    Edge,
    GenParams,
    HeuristicTimeout,
    Instance,
    adjacency,
    allocate,
    best_insertion,
    brute_force,
    dp_prices,
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
from netpricing import heuristics
from netpricing.instgen import make_grid
from netpricing.ladder import _value as ladder_value
from tests.conftest import filled_states, outlet_nodes, two_node_instance


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
        # Outlet 4's nodes are a subset of outlet 0's, and outlet 3's of
        # outlets 0-2's. Slot 0 pushes 4 and the ladder after it; the base
        # prefix grows to (0,), where 4 is dead, so slot 1 walks the
        # ladder itself and the search stops. Dead pushes fill nothing.
        inst = generate(small_grid_params("mnpp", 0, outlets=5, demands=8))
        assert inst.pi is None
        nodes = outlet_nodes(inst)
        assert nodes[4] <= nodes[0] and nodes[3] <= nodes[0] | nodes[1] | nodes[2]
        table = revenue_table(inst, inst.model)
        before = table.filled
        ladder = tuple(range(length))
        best_insertion(inst, ladder, 4)
        stages = {0: 1, 1: 3, 2: 5, 3: 7, 4: 7}[length]
        assert table.filled - before == stages * len(inst.grid)
        pushed = [(4,) + ladder]  # slot 0's trial
        if ladder:  # the base prefix (0,) and slot 1's trial
            pushed.append(ladder[:1] + (4,) + ladder[1:])
        assert stages == len(filled_states(inst, pushed))

    def test_search_stops_at_the_first_dead_slot(self, monkeypatch):
        # Outlet 4 is dead after the prefix (0,): slots 0 and 1 are scored,
        # and the later slots, which would score slot 1's value, are not.
        inst = generate(small_grid_params("mnpp", 0, outlets=5, demands=8))
        scored = []

        def value(state):
            scored.append(state)
            return ladder_value(state)

        ladder = (0, 1, 2, 3)
        trials = [ladder[:j] + (4,) + ladder[j:] for j in range(5)]
        revenues = [dp_prices(inst, t, allocate(inst, t))[1] for t in trials]
        monkeypatch.setattr(heuristics, "_value", value)
        best = max(revenues)
        assert best_insertion(inst, ladder, 4) == (revenues.index(best), best)
        assert len(scored) == 2

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

    def test_second_run_on_an_instance_fills_no_cells(self):
        # The prefix trie lives on the instance's revenue table, so a
        # repeated run finds every prefix, and its ladder's pricing, there.
        inst = generate(small_grid_params("mnpp", 0, outlets=5, demands=8))
        first = run_algorithm(inst, "fi")
        before = revenue_table(inst, inst.model).filled
        again = run_algorithm(inst, "fi")
        assert revenue_table(inst, inst.model).filled == before
        assert again == first

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


@pytest.mark.parametrize("model", ["mnpp", BMNPP])
@pytest.mark.parametrize("pi", [None, "2"])
def test_run_order_on_one_instance_changes_no_result(model, pi):
    # Every run grows the instance's one prefix trie; whichever runs
    # first, each gets the same ladder, prices and revenue.
    params = replace(small_grid_params(model, 3, outlets=5, demands=10), pi=pi)
    names = ("sp", "greedy", "order", "fi", "greedyI", "orderI", "ladder_exact")

    def results(order):
        inst = generate(params)
        out = {}
        for name in order:
            if name == "ladder_exact":
                out[name] = ladder_exact(inst)
            else:
                result = run_algorithm(inst, name)
                out[name] = (result.ladder, result.prices, result.revenue)
        return out

    assert results(names) == results(names[::-1])


def test_algorithm_registry():
    assert ALGORITHMS == ("sp", "greedy", "order", "fi", "greedyI", "orderI", "ip1I", "ip2I")
