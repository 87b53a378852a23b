"""Exact solvers: full enumeration and ordering enumeration."""

from dataclasses import replace
from fractions import Fraction

import pytest

from netpricing import (
    BMNPP,
    EnumerationTooLarge,
    GenParams,
    TooManyOutlets,
    brute_force,
    evaluate_prices,
    generate,
    ladder_exact,
    revenue_table,
)
from netpricing.exact import _completions
from tests.conftest import filled_states, two_node_instance


def tiny_params(model, seed, outlets=3, demands=4):
    return GenParams(
        model=model,
        n_outlets=outlets,
        n_demands=demands,
        density=0.7,
        seed=seed,
        grid_min="0",
        grid_max="10",
        grid_step="1",
    )


class TestBruteForce:
    def test_disjoint_oracle(self, tiny_disjoint):
        revenue, prices = brute_force(tiny_disjoint)
        assert revenue == Fraction(1600)
        assert prices == (900, 700)

    def test_connected_oracle(self, tiny_connected):
        revenue, prices = brute_force(tiny_connected)
        assert revenue == Fraction(1400)
        # Several vectors attain 1400; ties keep the lexicographically first.
        assert prices == (700, 700)

    def test_returned_prices_reproduce_revenue(self, tiny_disjoint):
        revenue, prices = brute_force(tiny_disjoint)
        assert evaluate_prices(tiny_disjoint, prices)[0] == revenue

    def test_size_guard(self, tiny_disjoint):
        with pytest.raises(EnumerationTooLarge) as err:
            brute_force(tiny_disjoint, limit=10)
        assert "26" in str(err.value)

    def test_spread_cap_honoured(self):
        inst = two_node_instance([(0, 0), (1, 1)], pi=100)
        revenue, prices = brute_force(inst)
        assert max(prices) - min(prices) <= 100
        assert revenue == Fraction(1500)


class TestLadderExact:
    def test_disjoint_oracle(self, tiny_disjoint):
        revenue, ladder, prices = ladder_exact(tiny_disjoint)
        assert revenue == Fraction(1600)
        assert ladder == (1, 0)
        assert prices == (900, 700)

    def test_outlet_count_guard(self):
        params = GenParams(n_outlets=11, n_demands=3, density=0.5, seed=0)
        with pytest.raises(TooManyOutlets):
            ladder_exact(generate(params))

    def test_ten_outlets_agree_with_brute_force(self):
        for seed in range(3):
            params = GenParams(
                n_outlets=10,
                n_demands=12,
                density=0.3,
                seed=seed,
                grid_min="1",
                grid_max="2",
                grid_step="1",
            )
            inst = generate(params)
            assert ladder_exact(inst)[0] == brute_force(inst)[0]

    def test_agrees_with_brute_force_mnpp(self):
        for seed in range(20):
            inst = generate(tiny_params("mnpp", seed))
            assert ladder_exact(inst)[0] == brute_force(inst)[0]

    def test_dominates_brute_force_bmnpp(self):
        # Under logit demand an ordering can route a tied price to a more
        # profitable outlet than the evaluator's lowest-id rule, so the
        # ordering optimum is an upper bound rather than an exact match.
        for seed in range(10):
            inst = generate(tiny_params(BMNPP, seed))
            assert ladder_exact(inst)[0] >= brute_force(inst)[0]

    def test_spread_cap_honoured(self):
        inst = two_node_instance([(0, 0), (1, 1)], pi=100)
        revenue, _, prices = ladder_exact(inst)
        assert max(prices) - min(prices) <= 100
        assert revenue == Fraction(1500)

    @staticmethod
    def search_rows(inst, ladder):
        # The subset pass fills one stage per (outlet set, unplaced outlet)
        # pair, n * 2^(n-1). With an exact bound the descent pushes the
        # unplaced outlets in id order up to the first that can still reach
        # the optimum, rank_i + 1 of them at step i; only the live ones
        # fill a stage, each trie state once (a dead outlet chosen leaves
        # the state as it was, so the next step's first pushes are hits).
        # Pricing the winner walks back through the descent's states and
        # fills nothing.
        n = inst.n_outlets
        pushes = [
            ladder[:i] + (g,)
            for i, f in enumerate(ladder)
            for g in ladder[i:]
            if g <= f
        ]
        return n * 2 ** (n - 1) + len(filled_states(inst, pushes))

    @pytest.mark.parametrize("model", ["mnpp", BMNPP])
    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_one_stage_per_prefix(self, n, model):
        inst = generate(tiny_params(model, 0, outlets=n, demands=6))
        assert inst.pi is None
        table = revenue_table(inst, inst.model)
        before = table.filled
        _, ladder, _ = ladder_exact(inst)
        assert table.filled - before == self.search_rows(inst, ladder) * len(inst.grid)

    @pytest.mark.parametrize("seed, cells", [(0, 1_261_015), (1, 1_259_055)])
    def test_logit_search_descends_without_backtracking(self, seed, cells):
        # Logit orderings tie to within rounding here; on the exact image
        # the search still fills only the subset pass and one descent.
        params = GenParams(
            model=BMNPP, n_outlets=10, n_demands=30, density=0.25, seed=seed, pi="2"
        )
        inst = generate(params)
        table = revenue_table(inst, inst.model)
        before = table.filled
        _, ladder, _ = ladder_exact(inst)
        assert table.filled - before == cells
        assert cells == self.search_rows(inst, ladder) * revenue_table(inst, BMNPP).cells


def _reference_rest(table, n, width):
    """rest[S][w][m] by the subset recursion, from the table's image rows
    (width grid cells each) alone: no stage memo and no shared rows."""
    full = (1 << n) - 1
    rest = {full: [[0] * (hi - lo + 1) for lo, hi in table.windows]}
    for subset in range(full - 1, -1, -1):
        covered = 0
        for g in range(n):
            if subset >> g & 1:
                covered |= table.masks[g]
        rows = []
        for w, (lo, hi) in enumerate(table.windows):
            row = []
            for m in range(hi - lo + 1):
                best = None
                for f in range(n):
                    if subset >> f & 1:
                        continue
                    stage = [0] * width
                    for e in table.n_f[f]:
                        if not covered >> e & 1:
                            stage = [a + b for a, b in zip(stage, table.ints[(e, f)])]
                    tail = rest[subset | 1 << f][w]
                    for m2 in range(m, hi - lo + 1):
                        value = stage[lo + m2] + tail[m2]
                        if best is None or value > best:
                            best = value
                row.append(best)
            rows.append(row)
        rest[subset] = rows
    return rest


@pytest.mark.parametrize("model", ["mnpp", BMNPP])
@pytest.mark.parametrize("pi", [None, 0, 300])
def test_subset_rows_of_dead_outlets_are_shared(model, pi):
    # An unplaced outlet whose nodes S already covers is dead: S and S | d
    # complete alike, so the pass shares the row object. Every row,
    # shared or not, equals the plain recursion.
    dead_pairs = 0
    for seed in range(6):
        params = replace(tiny_params(model, seed, outlets=5, demands=5), density=0.4)
        inst = replace(generate(params), pi=pi)
        table = revenue_table(inst, model)
        n = inst.n_outlets
        before = table.filled
        rest = _completions(table, n)
        assert table.filled - before == n * 2 ** (n - 1) * table.cells
        reference = _reference_rest(table, n, len(inst.grid))
        assert rest == [reference[s] for s in range(1 << n)]
        for subset in range(1 << n):
            covered = 0
            for g in range(n):
                if subset >> g & 1:
                    covered |= table.masks[g]
            for d in range(n):
                if not subset >> d & 1 and not table.masks[d] & ~covered:
                    assert rest[subset] is rest[subset | 1 << d]
                    dead_pairs += 1
    assert dead_pairs > 20
