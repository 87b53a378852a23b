"""Command line surface: files in, files out, meaningful exit codes."""

import json
import time
from fractions import Fraction
from pathlib import Path

import pytest

from netpricing import (
    BMNPP,
    GenParams,
    bench,
    cli,
    generate,
    heuristics,
    instance_to_doc,
    mip,
    paper_grid,
    save_instance,
)
from netpricing.bench import MIP_ALGORITHMS, read_runs_csv, records_from_csv
from netpricing.cli import main
from netpricing.heuristics import ALGORITHMS

GOLDEN = Path(__file__).parent / "golden"
TINY = GOLDEN / "tiny_disjoint.json"


def run(*argv):
    return main([str(a) for a in argv])


class TestGenerate:
    def test_writes_file(self, tmp_path, capsys):
        out = tmp_path / "i.json"
        assert run("generate", "--seed", 3, "--out", out) == 0
        assert out.exists()
        assert "wrote" in capsys.readouterr().out

    def test_same_seed_identical_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run("generate", "--seed", 9, "--out", a) == 0
        assert run("generate", "--seed", 9, "--out", b) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_no_flags_give_the_default_params(self, tmp_path):
        out, want = tmp_path / "cli.json", tmp_path / "want.json"
        assert run("generate", "--out", out) == 0
        save_instance(generate(GenParams()), want)
        assert out.read_bytes() == want.read_bytes()

    def test_flags_set_their_fields(self, tmp_path):
        out, want = tmp_path / "cli.json", tmp_path / "want.json"
        assert run(
            "generate", "--model", "bmnpp", "--outlets", 3, "--demands", 4,
            "--density", "0.75", "--seed", 6, "--grid-min", "1", "--grid-max", "9",
            "--grid-step", "0.25", "--beta", "0.25", "--gamma", "0.75",
            "--pi", "1.50", "--out", out,
        ) == 0
        params = GenParams(
            model="bmnpp", n_outlets=3, n_demands=4, density=0.75, seed=6,
            grid_min="1", grid_max="9", grid_step="0.25", beta="0.25",
            gamma="0.75", pi="1.50",
        )
        save_instance(generate(params), want)
        assert out.read_bytes() == want.read_bytes()

    def test_paper_grid_writes_collection(self, tmp_path):
        out = tmp_path / "grid"
        assert run("generate", "--paper-grid", "--seed", 1, "--out", out) == 0
        files = sorted(out.glob("*.json"))
        assert len(files) == 450

    def test_bad_density_is_input_error(self, tmp_path):
        code = run("generate", "--density", "2.0", "--out", tmp_path / "x.json")
        assert code == 3

    def test_oversized_grid_exits_3(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        code = run(
            "generate", "--model", "mnpp", "--outlets", 2, "--demands", 3,
            "--seed", 1, "--grid-max", "1e400", "--out", out,
        )
        assert code == 3
        assert capsys.readouterr().err == "error: grid exceeds 100000 price levels\n"
        assert not out.exists()


    @pytest.mark.parametrize("value", ["inf", "-inf", "nan", "sNaN"])
    def test_non_finite_pi_exits_3(self, tmp_path, capsys, value):
        out = tmp_path / "x.json"
        assert run("generate", f"--pi={value}", "--out", out) == 3
        assert "not a finite money literal" in capsys.readouterr().err
        assert not out.exists()


class TestSolve:
    def test_fi_on_golden_tiny(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert run("solve", "--in", TINY, "--alg", "fi", "--out", out) == 0
        payload = json.loads(out.read_text())
        assert payload["schema"] == "netpricing-result-v1"
        assert payload["revenue"] == "1600"
        assert payload["prices"] == ["9.00", "7.00"]
        assert payload["ladder"] == [1, 0]
        assert "wall_time" not in payload

    def test_solve_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run("solve", "--in", TINY, "--alg", "fi", "--out", a)
        run("solve", "--in", TINY, "--alg", "fi", "--out", b)
        assert a.read_bytes() == b.read_bytes()

    def test_record_times_adds_wall_time(self, tmp_path):
        out = tmp_path / "r.json"
        run("solve", "--in", TINY, "--alg", "fi", "--out", out, "--record-times")
        assert "wall_time" in json.loads(out.read_text())

    def test_record_times_adds_wall_time_for_mip(self, tmp_path):
        out = tmp_path / "r.json"
        run(
            "solve", "--in", TINY, "--alg", "ip2", "--solver-cmd", "builtin",
            "--out", out, "--record-times",
        )
        assert "wall_time" in json.loads(out.read_text())

    def test_ip2_without_solver_exits_4(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("NETPRICING_SOLVER_CMD", raising=False)
        code = run("solve", "--in", TINY, "--alg", "ip2", "--out", tmp_path / "r.json")
        assert code == 4
        assert "solver" in capsys.readouterr().err

    def test_ip2_with_builtin(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        code = run(
            "solve", "--in", TINY, "--alg", "ip2", "--solver-cmd", "builtin",
            "--out", out,
        )
        assert code == 0, capsys.readouterr().err
        payload = json.loads(out.read_text())
        assert float(payload["revenue"]) == pytest.approx(1600.0)

    def test_solver_env_fallback(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("NETPRICING_SOLVER_CMD", "builtin")
        out = tmp_path / "r.json"
        code = run("solve", "--in", TINY, "--alg", "ip1", "--out", out)
        assert code == 0, capsys.readouterr().err

    def test_missing_input_exits_3(self, tmp_path):
        assert run("solve", "--in", tmp_path / "nope.json", "--alg", "fi") == 3

    def test_malformed_input_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"format": "wrong"}')
        assert run("solve", "--in", bad, "--alg", "fi") == 3
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["grid", "pi"])
    def test_non_finite_money_in_instance_exits_3(self, tmp_path, capsys, field):
        doc = json.loads(TINY.read_text())
        if field == "grid":
            doc["meta"]["grid"][-1] = "-inf"
        else:
            doc["meta"]["pi"] = "-inf"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert run("solve", "--in", bad, "--alg", "fi") == 3
        assert "not a finite money literal" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["a_hat", "b_hat", "a_bar", "b_bar"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_logit_coefficient_exits_3(self, tmp_path, capsys, field, value):
        # json reads NaN and Infinity; they must not reach the logit clamp.
        inst = next(paper_grid(BMNPP, 1, draws=1))[3]
        doc = instance_to_doc(inst)
        doc["edges"][3][field] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert "NaN" in bad.read_text() or "Infinity" in bad.read_text()
        assert run("solve", "--in", bad, "--alg", "fi") == 3
        edge = inst.edges[3]
        assert capsys.readouterr().err == (
            f"error: edge ({edge.e}, {edge.f}): logit coefficients must be finite\n"
        )

    @pytest.mark.parametrize(
        "field, literal, message",
        [
            ("d", "Infinity", "'Infinity' is not a finite number literal"),
            ("c", "1e999999", "'1e999999' is out of range"),
        ],
    )
    def test_out_of_range_number_exits_3(self, tmp_path, capsys, field, literal, message):
        doc = json.loads(TINY.read_text())
        doc["demands"][0][field] = literal
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert run("solve", "--in", bad, "--alg", "fi") == 3
        assert capsys.readouterr().err.endswith(f"demands[0]: {message}\n")

    def test_string_grid_exits_3(self, tmp_path, capsys):
        doc = json.loads(TINY.read_text())
        doc["meta"]["grid"] = "0123456789"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert run("solve", "--in", bad, "--alg", "fi") == 3
        assert capsys.readouterr().err.endswith("meta: field 'grid' must be a list\n")

    def test_timeout_exits_5(self, tmp_path):
        inst = tmp_path / "big.json"
        assert run("generate", "--outlets", 6, "--demands", 12, "--out", inst) == 0
        code = run("solve", "--in", inst, "--alg", "fi", "--time-limit", "0")
        assert code == 5

    @pytest.mark.parametrize("value", ["-1", "nan", "x"])
    def test_bad_time_limit_exits_2(self, value):
        with pytest.raises(SystemExit) as err:
            run("solve", "--in", TINY, "--alg", "fi", "--time-limit", value)
        assert err.value.code == 2

    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as err:
            run("solve", "--in", TINY, "--alg", "simplex")
        assert err.value.code == 2

    @pytest.mark.parametrize("alg", ["ip1", "ip2", "ip2I", "fi"])
    def test_pi_caps_every_algorithm(self, tmp_path, capsys, alg):
        # This instance has no cap of its own; uncapped, ip1 and ip2 post
        # 6.00/9.00/4.00 for 2311.46.
        inst = tmp_path / "i.json"
        run(
            "generate", "--outlets", 3, "--demands", 6, "--density", 0.6,
            "--seed", 0, "--grid-max", 10, "--grid-step", 1, "--out", inst,
        )
        out = tmp_path / "r.json"
        code = run(
            "solve", "--in", inst, "--alg", alg, "--pi", 0,
            "--solver-cmd", "builtin", "--out", out,
        )
        assert code == 0, capsys.readouterr().err
        payload = json.loads(out.read_text())
        assert payload["prices"] == ["5.00", "5.00", "5.00"]
        assert float(payload["revenue"]) == pytest.approx(1875.30)

    def test_removed_variant_flag_exits_2(self):
        with pytest.raises(SystemExit) as err:
            run("solve", "--in", TINY, "--alg", "sp", "--sp-include-match")
        assert err.value.code == 2

    def test_internal_value_error_is_not_an_input_error(self, monkeypatch):
        # Only the package's named input errors exit 3; a bug surfaces.
        def broken(*args, **kwargs):
            raise ValueError("internal")

        monkeypatch.setattr(bench, "run_algorithm", broken)
        with pytest.raises(ValueError, match="internal"):
            run("solve", "--in", TINY, "--alg", "fi")


@pytest.mark.parametrize("alg", ALGORITHMS + MIP_ALGORITHMS)
def test_solve_matches_the_bench_row(tmp_path, capsys, alg):
    inst = tmp_path / "tiny.json"
    run(
        "generate", "--outlets", 3, "--demands", 6, "--density", 0.6,
        "--seed", 0, "--grid-max", 10, "--grid-step", 1, "--out", inst,
    )
    out = tmp_path / "r.json"
    code = run("solve", "--in", inst, "--alg", alg, "--solver-cmd", "builtin", "--out", out)
    assert code == 0, capsys.readouterr().err
    payload = json.loads(out.read_text())
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "suite_id": "one",
        "algorithms": [alg],
        "solver_cmd": "builtin",
        "instances": {"files": [str(inst)]},
    }))
    assert run("bench", "--config", config, "--out-dir", tmp_path / "out") == 0
    [row] = read_runs_csv(tmp_path / "out" / "one.runs.csv")

    def same(csv_text, json_text):
        # runs.csv prints a float with six decimals, the result JSON in full.
        return float(Fraction(csv_text)) == pytest.approx(float(Fraction(json_text)), abs=1e-6)

    assert row["status"] == payload["status"] == "ok"
    assert same(row["revenue"], payload["revenue"])
    assert row["prices"].split() == payload["prices"]
    pm = payload["pm"]
    assert (int(row["pm_count"]), int(row["pw_count"])) == (pm["pm_count"], pm["pw_count"])
    for key in ("d_pm", "d_pw"):
        assert same(row[key], pm[key])
    for key in ("d_pm_pct", "r_pm_pct"):
        assert float(row[key]) == pytest.approx(pm[key], abs=1e-6)


class TestWholeRunWallTime:
    """wall_time covers the whole run, selection and relaxation included."""

    SLOW = 0.2

    @pytest.fixture(params=["ip2I", "greedyI"])
    def slow_selection(self, request, monkeypatch):
        if request.param == "ip2I":

            def relax_order(inst, which, adapter):
                time.sleep(self.SLOW)
                return tuple(inst.outlets())

            monkeypatch.setattr(mip, "relax_order", relax_order)
        else:
            greedy_select = heuristics.greedy_select

            def slow_greedy(*args, **kwargs):
                time.sleep(self.SLOW)
                return greedy_select(*args, **kwargs)

            monkeypatch.setattr(heuristics, "greedy_select", slow_greedy)
        return request.param

    def test_solve_json(self, tmp_path, slow_selection):
        out = tmp_path / "r.json"
        code = run(
            "solve", "--in", TINY, "--alg", slow_selection, "--out", out, "--record-times"
        )
        assert code == 0
        assert json.loads(out.read_text())["wall_time"] >= self.SLOW

    def test_bench_row(self, tmp_path, slow_selection):
        config = {
            "algorithms": [slow_selection],
            "instances": {"files": [str(TINY)]},
            "record_times": True,
        }
        paths, _ = bench.run_suite(config, tmp_path / "out")
        (row,) = read_runs_csv(paths["runs"])
        assert row["status"] == "ok"
        assert float(row["wall_time"]) >= self.SLOW


class TestExact:
    def test_brute_oracle(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert run("exact", "--in", TINY, "--method", "brute", "--out", out) == 0
        payload = json.loads(out.read_text())
        assert payload["revenue"] == "1600"
        assert payload["prices"] == ["9.00", "7.00"]

    def test_ladder_oracle(self, tmp_path):
        out = tmp_path / "r.json"
        assert run("exact", "--in", TINY, "--method", "ladder", "--out", out) == 0
        payload = json.loads(out.read_text())
        assert payload["ladder"] == [1, 0]

    def test_limit_exceeded_exits_3(self, tmp_path):
        assert run("exact", "--in", TINY, "--limit", "10") == 3


class TestBenchAndReport:
    def write_config(self, tmp_path):
        config = {
            "suite_id": "clismoke",
            "algorithms": ["sp", "fi"],
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
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        return path

    def test_bench_writes_artifacts(self, tmp_path, capsys):
        config = self.write_config(tmp_path)
        out_dir = tmp_path / "out"
        assert run("bench", "--config", config, "--out-dir", out_dir) == 0
        assert (out_dir / "clismoke.runs.csv").exists()
        assert (out_dir / "clismoke.summary.txt").exists()
        assert (out_dir / "clismoke.long.csv").exists()

    @pytest.mark.parametrize("algorithms, code", [(["fi"], 5), (["sp", "fi"], 0)])
    def test_bench_exits_5_only_when_every_run_times_out(
        self, tmp_path, monkeypatch, capsys, algorithms, code
    ):
        # The exit code comes from the records in memory, not from
        # reading back the runs.csv just written.
        def no_read_back(path):
            raise AssertionError(f"bench read back {path}")

        monkeypatch.setattr(cli, "records_from_csv", no_read_back)
        config = json.loads(self.write_config(tmp_path).read_text())
        config.update(algorithms=algorithms, time_limit=0)
        path = tmp_path / "timeout.json"
        path.write_text(json.dumps(config))
        assert run("bench", "--config", path, "--out-dir", tmp_path / "out") == code
        assert ("every run timed out" in capsys.readouterr().err) == (code == 5)

    def test_bench_deterministic(self, tmp_path):
        config = self.write_config(tmp_path)
        run("bench", "--config", config, "--out-dir", tmp_path / "a", "--jobs", 1)
        run("bench", "--config", config, "--out-dir", tmp_path / "b", "--jobs", 1)
        a = (tmp_path / "a" / "clismoke.runs.csv").read_bytes()
        b = (tmp_path / "b" / "clismoke.runs.csv").read_bytes()
        assert a == b

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_bench_jobs_below_one_exits_2(self, tmp_path, jobs):
        config = self.write_config(tmp_path)
        with pytest.raises(SystemExit) as err:
            run(
                "bench", "--config", config, "--out-dir", tmp_path / "out",
                "--jobs", jobs,
            )
        assert err.value.code == 2
        assert not (tmp_path / "out").exists()

    def test_bench_bad_config_exits_3(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"algorithms": ["sp"], "wat": 1}))
        assert run("bench", "--config", bad, "--out-dir", tmp_path / "out") == 3

    def test_bench_removed_variant_key_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"algorithms": ["sp"], "order_prefer_max": True}))
        assert run("bench", "--config", bad, "--out-dir", tmp_path / "out") == 3
        assert "order_prefer_max" in capsys.readouterr().err

    def test_bench_oversized_grid_exits_3(self, tmp_path, capsys):
        config = json.loads(self.write_config(tmp_path).read_text())
        config["instances"]["generate"][0]["grid_max"] = "1e400"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(config))
        assert run("bench", "--config", bad, "--out-dir", tmp_path / "out") == 3
        assert capsys.readouterr().err == "error: grid exceeds 100000 price levels\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("where", ["config", "generate"])
    def test_bench_non_finite_pi_exits_3(self, tmp_path, capsys, where):
        config = json.loads(self.write_config(tmp_path).read_text())
        target = config if where == "config" else config["instances"]["generate"][0]
        target["pi"] = "inf"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(config))
        assert run("bench", "--config", bad, "--out-dir", tmp_path / "out") == 3
        assert "not a finite money literal" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "where, key, value",
        [
            ("generate", "seeds", 3),
            ("generate", "seeds", ["a"]),
            ("generate", "outlets", "5"),
            ("generate", "outlets", True),
            ("generate", "density", "0.5"),
            ("config", "time_limit", "x"),
            ("config", "time_limit", -1),
            ("config", "record_times", "x"),
            ("config", "solver_cmd", 5),
            ("config", "suite_id", "../escaped"),
            ("config", "suite_id", "a\\b"),
            ("config", "suite_id", ".."),
            ("config", "suite_id", "."),
            ("config", "suite_id", ""),
            ("config", "suite_id", 7),
            ("instances", "files", 5),
            ("instances", "files", [5]),
            ("instances", "generate", 5),
        ],
    )
    def test_bench_malformed_value_exits_3(self, tmp_path, capsys, where, key, value):
        config = json.loads(self.write_config(tmp_path).read_text())
        target = {
            "config": config,
            "instances": config["instances"],
            "generate": config["instances"]["generate"][0],
        }[where]
        target[key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(config))
        assert run("bench", "--config", bad, "--out-dir", tmp_path / "out") == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and repr(key) in err
        # No artifact escapes the output directory, and a bad config
        # leaves no output directory behind.
        assert not list(tmp_path.glob("*.csv"))
        assert not (tmp_path / "out").exists()

    def test_reference_too_large_is_skipped_not_fatal(self, tmp_path, monkeypatch):
        monkeypatch.delenv("NETPRICING_SOLVER_CMD", raising=False)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "suite_id": "iso",
            "algorithms": ["sp", "ip2"],
            "exact": "ladder",
            "instances": {"generate": [
                {"model": "mnpp", "outlets": 4, "demands": 8, "seeds": [0]},
                {"model": "mnpp", "outlets": 11, "demands": 12, "seeds": [0]},
            ]},
        }))
        out_dir = tmp_path / "out"
        assert run("bench", "--config", config, "--out-dir", out_dir) == 0
        for suffix in ("runs.csv", "summary.txt", "long.csv"):
            assert (out_dir / f"iso.{suffix}").exists()
        rows = records_from_csv(out_dir / "iso.runs.csv")
        assert [(r.n_outlets, r.algorithm) for r in rows] == [
            (4, "sp"), (4, "ip2"), (11, "sp"), (11, "ip2"),
        ]
        assert all(r.r_opt is not None and "reference" not in r.message for r in rows[:2])
        skipped = "reference skipped: 11 outlets exceed the ordering search's limit"
        sp, ip2 = rows[2:]
        assert sp.r_opt is None and sp.revenue is not None
        assert sp.message.startswith(skipped)
        assert ip2.message.startswith(
            "no solver configured; pass --solver-cmd, set NETPRICING_SOLVER_CMD, "
            "or use 'builtin'; " + skipped
        )

    def test_report_aggregates(self, tmp_path, capsys):
        config = self.write_config(tmp_path)
        out_dir = tmp_path / "out"
        run("bench", "--config", config, "--out-dir", out_dir)
        report = tmp_path / "report.txt"
        assert run("report", "--runs", out_dir, "--out", report) == 0
        assert report.read_text().splitlines()[0].startswith("report over 1 suites")

    def test_report_without_runs_exits_3(self, tmp_path):
        assert run("report", "--runs", tmp_path, "--out", tmp_path / "r.txt") == 3

    def test_report_malformed_runs_exits_3(self, tmp_path, capsys):
        config = self.write_config(tmp_path)
        out_dir = tmp_path / "out"
        run("bench", "--config", config, "--out-dir", out_dir)
        runs = out_dir / "clismoke.runs.csv"
        runs.write_text(runs.read_text().replace(",3,4,", ",three,4,", 1))
        assert run("report", "--runs", out_dir, "--out", tmp_path / "r.txt") == 3
        assert "not a runs CSV" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "bench", "report"])
def test_non_utf8_input_exits_3(tmp_path, command):
    # A decode error is a ValueError, but only named input errors exit 3.
    bad = tmp_path / "bad.runs.csv"
    bad.write_bytes(b"\xff\xfe{}\n")
    argv = {
        "solve": ("solve", "--in", bad, "--alg", "sp"),
        "bench": ("bench", "--config", bad, "--out-dir", tmp_path / "out"),
        "report": ("report", "--runs", tmp_path, "--out", tmp_path / "r.txt"),
    }[command]
    assert run(*argv) == 3


def test_missing_subcommand_exits_2():
    with pytest.raises(SystemExit) as err:
        run()
    assert err.value.code == 2
