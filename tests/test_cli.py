"""Command line surface: files in, files out, meaningful exit codes."""

import json
from pathlib import Path

import pytest

from netpricing.bench import records_from_csv
from netpricing.cli import main

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

    def test_paper_grid_writes_collection(self, tmp_path):
        out = tmp_path / "grid"
        assert run("generate", "--paper-grid", "--seed", 1, "--out", out) == 0
        files = sorted(out.glob("*.json"))
        assert len(files) == 450

    def test_bad_density_is_input_error(self, tmp_path):
        code = run("generate", "--density", "2.0", "--out", tmp_path / "x.json")
        assert code == 3


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

    def test_bench_deterministic(self, tmp_path):
        config = self.write_config(tmp_path)
        run("bench", "--config", config, "--out-dir", tmp_path / "a", "--jobs", 1)
        run("bench", "--config", config, "--out-dir", tmp_path / "b", "--jobs", 1)
        a = (tmp_path / "a" / "clismoke.runs.csv").read_bytes()
        b = (tmp_path / "b" / "clismoke.runs.csv").read_bytes()
        assert a == b

    def test_bench_bad_config_exits_3(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"algorithms": ["sp"], "wat": 1}))
        assert run("bench", "--config", bad, "--out-dir", tmp_path / "out") == 3

    def test_bench_removed_variant_key_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"algorithms": ["sp"], "order_prefer_max": True}))
        assert run("bench", "--config", bad, "--out-dir", tmp_path / "out") == 3
        assert "order_prefer_max" in capsys.readouterr().err

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
        # No artifact escapes the output directory.
        assert not list(tmp_path.glob("*.csv"))

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
        assert ip2.message.startswith("mip algorithms need a solver adapter; " + skipped)

    def test_report_aggregates(self, tmp_path, capsys):
        config = self.write_config(tmp_path)
        out_dir = tmp_path / "out"
        run("bench", "--config", config, "--out-dir", out_dir)
        report = tmp_path / "report.txt"
        assert run("report", "--runs", out_dir, "--out", report) == 0
        assert report.read_text().splitlines()[0].startswith("report over 1 suites")

    def test_report_without_runs_exits_3(self, tmp_path):
        assert run("report", "--runs", tmp_path, "--out", tmp_path / "r.txt") == 3


def test_missing_subcommand_exits_2():
    with pytest.raises(SystemExit) as err:
        run()
    assert err.value.code == 2
