"""Benchmark metrics, accounting, and the suite runner's artifacts."""

import gc
import json
import weakref
from fractions import Fraction
from pathlib import Path

import pytest

from netpricing import (
    BMNPP,
    ConfigError,
    GenParams,
    PmStats,
    cross_model_gap,
    evaluate_prices,
    gain_over_sp,
    generate,
    ladder_exact,
    load_config,
    opt_gap,
    pm_accounting,
    read_runs_csv,
    records_from_csv,
    revenue_table,
    run_algorithm,
    run_suite,
    save_instance,
    summarise,
)
from netpricing import bench
from netpricing.model import RevenueTable


class TestGapMetrics:
    def test_opt_gap_basic(self):
        assert opt_gap(90, 100) == pytest.approx(10.0)
        assert opt_gap(100, 100) == 0.0

    def test_opt_gap_undefined_for_nonpositive_reference(self):
        assert opt_gap(0, 0) is None
        assert opt_gap(5, -1) is None

    def test_gain_over_sp_oracle_pair(self):
        assert gain_over_sp(Fraction(1600), Fraction(1400)) == pytest.approx(
            14.29, abs=0.005
        )

    def test_gain_over_sp_same_is_zero(self):
        assert gain_over_sp(1400, 1400) == 0.0

    def test_gain_over_sp_undefined_at_zero(self):
        assert gain_over_sp(100, 0) is None


class TestPmAccounting:
    def test_all_war(self, tiny_disjoint):
        stats = pm_accounting(tiny_disjoint, (900, 700))
        assert (stats.pm_count, stats.pw_count) == (0, 2)
        assert stats.d_pw == Fraction(200)
        assert stats.r_pw == Fraction(1600)
        assert stats.d_pm_pct == 0.0

    def test_mixed_regimes(self, tiny_disjoint):
        stats = pm_accounting(tiny_disjoint, (1000, 700))
        assert (stats.pm_count, stats.pw_count) == (1, 1)
        assert stats.d_pm == Fraction(50)
        assert stats.r_pm == Fraction(500)
        assert stats.r_pm_pct == pytest.approx(100.0 * 500 / 1200)

    def test_empty_when_nothing_sold(self, tiny_disjoint):
        stats = pm_accounting(tiny_disjoint, (2500, 2500))
        assert stats == PmStats(0, 0, Fraction(0), Fraction(0), Fraction(0), Fraction(0))
        assert stats.r_pm_pct == 0.0

    @pytest.mark.parametrize("algorithm", ["sp", "greedy", "order", "fi", "greedyI", "orderI"])
    def test_split_sums_to_evaluated_revenue(
        self, algorithm, tiny_connected, tiny_disjoint, tiny_single
    ):
        generated = [
            generate(GenParams(n_outlets=4, n_demands=8, density=0.5, seed=seed))
            for seed in range(20)
        ]
        for inst in [tiny_connected, tiny_disjoint, tiny_single] + generated:
            prices = run_algorithm(inst, algorithm).prices
            stats = pm_accounting(inst, prices)
            assert stats.r_pm + stats.r_pw == evaluate_prices(inst, prices)[0]

    @pytest.mark.parametrize("model", ["mnpp", BMNPP])
    def test_each_part_is_its_exact_sum_rounded_once(self, model):
        # Under MNPP the parts add up to the evaluated revenue exactly;
        # under BMNPP each part is the exact sum of its float entries,
        # rounded to a float once.
        for seed in range(10):
            inst = generate(
                GenParams(model=model, n_outlets=5, n_demands=15, density=0.5, seed=seed)
            )
            table = revenue_table(inst, model)
            for algorithm in ("greedy", "fi", "orderI"):
                prices = run_algorithm(inst, algorithm).prices
                stats = pm_accounting(inst, prices)
                revenue, assignment, labels = evaluate_prices(inst, prices)
                parts = {"PM": [], "PW": []}
                for e, f in assignment.items():
                    parts[labels[e]].append(
                        table.revenue(table.ints[(e, f)][inst.grid.index_of(prices[f])])
                    )
                if model == BMNPP:
                    assert stats.r_pm == float(sum(Fraction(v) for v in parts["PM"]))
                    assert stats.r_pw == float(sum(Fraction(v) for v in parts["PW"]))
                else:
                    assert stats.r_pm == sum(parts["PM"])
                    assert stats.r_pw == sum(parts["PW"])
                    assert stats.r_pm + stats.r_pw == revenue


class TestCrossModelGap:
    def test_nonnegative_on_twin_prices(self):
        # Price the fixed-fraction twin optimally, then measure how much
        # logit revenue those prices leave on the table.
        kwargs = dict(
            n_outlets=3,
            n_demands=5,
            density=0.7,
            seed=11,
            grid_min="0",
            grid_max="10",
            grid_step="1",
        )
        logit = generate(GenParams(model=BMNPP, **kwargs))
        twin = generate(GenParams(model="mnpp", **kwargs))
        twin_prices = ladder_exact(twin)[2]
        gap = cross_model_gap(logit, twin_prices)
        assert gap is not None and gap >= -1e-9

    def test_either_twin_scores_under_logit(self):
        # The achieved revenue and the default reference are both logit
        # revenues, whichever twin is passed; a fixed-fraction reference
        # against a logit achieved revenue reads -8.155% here.
        kwargs = dict(
            n_outlets=3,
            n_demands=5,
            density=0.7,
            seed=11,
            grid_min="0",
            grid_max="10",
            grid_step="1",
        )
        logit = generate(GenParams(model=BMNPP, **kwargs))
        twin = generate(GenParams(model="mnpp", **kwargs))
        twin_prices = ladder_exact(twin)[2]
        from_logit = cross_model_gap(logit, twin_prices)
        from_twin = cross_model_gap(twin, twin_prices)
        assert from_twin == from_logit
        assert from_logit == pytest.approx(10.818860408406405, abs=1e-12)

    def test_zero_at_own_optimum(self):
        from netpricing import brute_force

        inst = generate(
            GenParams(
                model=BMNPP,
                n_outlets=2,
                n_demands=3,
                density=1.0,
                seed=2,
                grid_min="0",
                grid_max="10",
                grid_step="1",
            )
        )
        best, prices = brute_force(inst)
        gap = cross_model_gap(inst, prices, best_revenue=best)
        assert gap == pytest.approx(0.0, abs=1e-12)


def suite_config(**overrides):
    config = {
        "suite_id": "t",
        "algorithms": ["sp", "order", "fi"],
        "exact": "brute",
        "instances": {
            "generate": [
                {
                    "model": "mnpp",
                    "outlets": 3,
                    "demands": 4,
                    "density": 0.7,
                    "seeds": [0, 1],
                    "grid_max": "10",
                    "grid_step": "1",
                }
            ]
        },
    }
    config.update(overrides)
    return config


class TestLoadConfig:
    def test_rejects_unknown_keys(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"algorithms": ["sp"], "surprise": 1}))
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert "surprise" in str(err.value)

    @pytest.mark.parametrize("key", ["sp_include_match", "order_prefer_max", "solver_time_limit"])
    def test_rejects_removed_variant_keys(self, tmp_path, key):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"algorithms": ["sp"], key: True}))
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert key in str(err.value)

    def test_rejects_non_object(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_rejects_bad_json(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_empty_generate_block_gives_the_default_params(self, tmp_path):
        # A key a generate block leaves out keeps GenParams' own default.
        out = bench._config_instances({"instances": {"generate": [{}]}}, tmp_path)
        assert [inst for _, inst in out] == [generate(GenParams())]

    def test_generate_block_keys_set_their_fields(self, tmp_path):
        block = {"outlets": 3, "demands": 4, "density": 0.75, "seeds": [2, 5],
                 "grid_max": 9, "grid_step": 0.25, "beta": "0.25", "pi": "1.50"}
        out = bench._config_instances({"instances": {"generate": [block]}}, tmp_path)
        want = GenParams(n_outlets=3, n_demands=4, density=0.75, grid_max="9",
                         grid_step="0.25", beta="0.25", pi="1.50")
        assert [inst for _, inst in out] == [
            generate(GenParams(**{**vars(want), "seed": seed})) for seed in (2, 5)
        ]


class TestRunSuite:
    def test_serial_suite_frees_each_finished_instance(self, tmp_path, monkeypatch):
        # An instance keeps its revenue table, so run_suite must let go of
        # each instance once its records are made.
        run_instance = bench._run_instance
        seen = []

        def spy(iid, inst, *rest):
            assert all(ref() is None for ref in seen)
            seen.append(weakref.ref(inst))
            return run_instance(iid, inst, *rest)

        monkeypatch.setattr(bench, "_run_instance", spy)
        config = suite_config()
        config["instances"]["generate"][0]["seeds"] = list(range(5))
        paths, _ = run_suite(config, tmp_path / "out")
        assert len(records_from_csv(paths["runs"])) == 15
        assert len(seen) == 5

    @pytest.mark.parametrize("model", ["mnpp", BMNPP])
    @pytest.mark.parametrize("pi", [None, "2"])
    def test_finished_instance_is_freed_without_the_collector(self, model, pi):
        # Reference counting alone must free an instance's revenue table
        # and prefix trie: a cycle in the trie (a dead push stored as a
        # self-edge, say) would keep its states until a full collection.
        params = GenParams(
            model=model, n_outlets=5, n_demands=15, density=0.5, seed=3, pi=pi
        )
        algorithms = ["sp", "greedy", "order", "fi", "greedyI", "orderI"]
        def tables():
            return {id(o) for o in gc.get_objects() if type(o) is RevenueTable}

        gc.collect()
        gc.disable()
        try:
            before = tables()
            inst = generate(params)
            records = bench._run_instance("i", inst, algorithms, "ladder", None, None)
            assert [r.status for r in records] == ["ok"] * len(algorithms)
            del inst
            assert tables() <= before
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_artifacts_and_statuses(self, tmp_path):
        paths, _ = run_suite(suite_config(), tmp_path / "out")
        records = records_from_csv(paths["runs"])
        assert len(records) == 6
        assert all(r.status == "ok" for r in records)
        assert Path(paths["summary"]).read_text().startswith("suite t:")

    def test_gap_invariants(self, tmp_path):
        paths, _ = run_suite(suite_config(), tmp_path / "out")
        for rec in records_from_csv(paths["runs"]):
            assert rec.opt_gap_pct is None or rec.opt_gap_pct >= -1e-9
            if rec.pm is not None and (float(rec.pm.r_pm) + float(rec.pm.r_pw)) > 0:
                share = float(rec.pm.r_pm) / (float(rec.pm.r_pm) + float(rec.pm.r_pw))
                assert rec.pm.r_pm_pct == pytest.approx(100.0 * share)

    def test_deterministic_artifacts(self, tmp_path):
        p1, _ = run_suite(suite_config(), tmp_path / "a")
        p2, _ = run_suite(suite_config(), tmp_path / "b")
        for key in ("runs", "summary", "long"):
            assert Path(p1[key]).read_bytes() == Path(p2[key]).read_bytes()

    def test_parallel_matches_serial(self, tmp_path):
        p1, _ = run_suite(suite_config(), tmp_path / "a", jobs=1)
        p2, _ = run_suite(suite_config(), tmp_path / "b", jobs=2)
        assert Path(p1["runs"]).read_bytes() == Path(p2["runs"]).read_bytes()

    def test_parallel_mip_matches_serial(self, tmp_path):
        # run_suite resolves the adapter once; each pool task carries it.
        config = suite_config(algorithms=["ip2", "fi"], solver_cmd="builtin")
        p1, _ = run_suite(config, tmp_path / "a", jobs=1)
        p2, _ = run_suite(config, tmp_path / "b", jobs=2)
        assert [r.status for r in records_from_csv(p1["runs"])] == ["ok"] * 4
        for key in ("runs", "summary", "long"):
            assert Path(p1[key]).read_bytes() == Path(p2[key]).read_bytes()

    def test_mip_timeout_row_carries_the_solver_message(self, tmp_path):
        config = suite_config(algorithms=["ip2"], solver_cmd="builtin", time_limit=0)
        records = records_from_csv(run_suite(config, tmp_path / "out")[0]["runs"])
        assert [(r.status, r.message) for r in records] == [("timeout", "time limit")] * 2

    def test_one_table_build_per_instance_past_the_cache_size(self, tmp_path):
        # Each of the 70 instances keeps its own table, so every algorithm
        # and the reference on an instance share one build.
        block = {
            "outlets": 2,
            "demands": 3,
            "seeds": list(range(70)),
            "grid_max": "5",
            "grid_step": "1",
        }
        config = suite_config(
            algorithms=["sp", "greedy", "fi"],
            exact="ladder",
            instances={"generate": [block]},
        )
        before = revenue_table.cache_info().misses
        paths, _ = run_suite(config, tmp_path / "out")
        assert len(records_from_csv(paths["runs"])) == 210
        assert revenue_table.cache_info().misses - before == 70

    def test_config_cap_also_caps_the_reference(self, tmp_path):
        # Generated with a 1.00 cap, run under 10.00: when the reference
        # kept the instance's own cap, 23 of these 90 runs beat it.
        block = {
            "model": "mnpp",
            "outlets": 3,
            "demands": 6,
            "density": 0.5,
            "seeds": list(range(30)),
            "grid_max": "10",
            "grid_step": "1",
            "pi": "1",
        }
        config = suite_config(
            algorithms=["greedy", "fi", "orderI"],
            exact="brute",
            pi="10",
            instances={"generate": [block]},
        )
        paths, _ = run_suite(config, tmp_path / "out")
        records = records_from_csv(paths["runs"])
        assert len(records) == 90
        assert all(r.status == "ok" for r in records)
        assert min(r.opt_gap_pct for r in records) >= 0

    def test_wall_time_column_is_opt_in(self, tmp_path):
        cold, _ = run_suite(suite_config(), tmp_path / "a")
        hot, _ = run_suite(suite_config(record_times=True), tmp_path / "b")
        cold_header = Path(cold["runs"]).read_text().splitlines()[1]
        hot_header = Path(hot["runs"]).read_text().splitlines()[1]
        assert "wall_time" not in cold_header
        assert "wall_time" in hot_header

    def test_missing_algorithms_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            run_suite(suite_config(algorithms=[]), tmp_path / "out")

    def test_unknown_algorithm_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            run_suite(suite_config(algorithms=["anneal"]), tmp_path / "out")

    def test_no_instances_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            run_suite(suite_config(instances={"generate": []}), tmp_path / "out")

    def test_instance_files_mode(self, tmp_path, tiny_disjoint):
        inst_path = tmp_path / "tiny.json"
        save_instance(tiny_disjoint, inst_path)
        config = suite_config(instances={"files": ["tiny.json"]})
        paths, _ = run_suite(config, tmp_path / "out", base_dir=tmp_path)
        records = records_from_csv(paths["runs"])
        assert {r.instance_id for r in records} == {"tiny"}
        fi = next(r for r in records if r.algorithm == "fi")
        assert float(fi.revenue) == 1600.0

    def test_mip_without_solver_marked_unavailable(self, tmp_path, monkeypatch):
        monkeypatch.delenv("NETPRICING_SOLVER_CMD", raising=False)
        config = suite_config(algorithms=["ip2"])
        paths, _ = run_suite(config, tmp_path / "out")
        records = records_from_csv(paths["runs"])
        assert all(r.status == "unavailable" for r in records)


class TestCsvRoundTrip:
    def test_records_survive_the_csv(self, tmp_path):
        paths, _ = run_suite(suite_config(), tmp_path / "out")
        records = records_from_csv(paths["runs"])
        rows = read_runs_csv(paths["runs"])
        assert len(rows) == len(records)
        assert summarise(records)  # grouping works on rebuilt records

    def test_summary_means_recomputable(self, tmp_path):
        paths, _ = run_suite(suite_config(), tmp_path / "out")
        records = records_from_csv(paths["runs"])
        rows = summarise(records)
        assert rows
        for row in rows:
            group = [
                r
                for r in records
                if (r.model, r.n_demands, r.n_outlets, round(r.density, 4), r.algorithm)
                == (
                    row["model"],
                    row["n_demands"],
                    row["n_outlets"],
                    row["density"],
                    row["algorithm"],
                )
                and r.status == "ok"
            ]
            assert len(group) == row["ok"]
            gaps = [r.opt_gap_pct for r in group if r.opt_gap_pct is not None]
            if gaps:
                assert row["mean_opt_gap_pct"] == pytest.approx(sum(gaps) / len(gaps))
