"""Formulation builders, LP text, and solving through solver strings."""

import os
import shlex
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

import pytest

import netpricing
from netpricing import (
    BMNPP,
    BUILTIN_SOLVER,
    DemandNode,
    Edge,
    GenParams,
    Instance,
    LinearModel,
    SolverUnavailable,
    brute_force,
    build_ip1,
    build_ip2,
    build_model,
    evaluate_prices,
    generate,
    lp_text,
    relax,
    relax_order,
    resolve_adapter,
    solve_external,
    solve_ip,
    write_lp,
)
from netpricing.mip import (
    BINARY,
    CONTINUOUS,
    ERROR,
    FEASIBLE_TIMEOUT,
    INFEASIBLE,
    OPTIMAL,
    ModelError,
    Row,
    SolutionParseError,
    SolveOutcome,
    Variable,
    _num,
    parse_solution,
)
from tests.conftest import two_node_instance

GOLDEN = Path(__file__).parent / "golden"
PACKAGE_ROOT = Path(netpricing.__file__).resolve().parent.parent


def full_edges_instance():
    return two_node_instance([(0, 0), (0, 1), (1, 0), (1, 1)])


def tiny_bmnpp():
    return generate(
        GenParams(
            model=BMNPP,
            n_outlets=3,
            n_demands=4,
            density=0.7,
            seed=5,
            grid_min="0",
            grid_max="10",
            grid_step="1",
        )
    )


def infeasible_model() -> LinearModel:
    m = LinearModel()
    x = m.add_var("x", kind=BINARY)
    m.add_row("force_on", [x], [1.0], ">=", 1.0)
    m.add_row("force_off", [x], [1.0], "<=", 0.0)
    m.set_objective([x], [1.0])
    return m


class TestLinearModel:
    def test_duplicate_names_rejected(self):
        m = LinearModel()
        m.add_var("x", 0, 1)
        with pytest.raises(ValueError):
            m.add_var("x", 0, 1)

    def test_bad_names_rejected(self):
        m = LinearModel()
        with pytest.raises(ValueError):
            m.add_var("2bad", 0, 1)

    def test_objective_value(self):
        m = LinearModel()
        x = m.add_var("x", 0, 10)
        y = m.add_var("y", 0, 10)
        m.set_objective([x, y], [2.0, 3.0])
        assert m.objective_value({"x": 1.0, "y": 2.0}) == 8.0

    def test_indices_objective_drops_zeros_and_rows_are_checked(self):
        m = LinearModel()
        assert m.add_var("x", 0, 10) == 0
        assert m.add_var("y", None, None) == 1
        m.add_row("c", [1], [2.0], ">=", 1)
        m.set_objective([0, 1], [0.0, -1.0])
        assert m.constraints == (Row("c", (("y", 2.0),), ">=", 1.0),)
        assert m.objective == (("y", -1.0),)
        assert m.variables[1] == Variable("y", None, None, CONTINUOUS)
        with pytest.raises(ModelError):
            m.add_row("c", [0], [1.0], "<=", 1.0)
        with pytest.raises(ModelError):
            m.add_row("e", [0], [1.0], "<>", 1.0)
        assert len(m.constraints) == 1

    def test_non_finite_bounds_rejected(self):
        # None is the way to leave a side unbounded; inf and nan are errors.
        m = LinearModel()
        with pytest.raises(ModelError):
            m.add_var("x", 0, float("inf"))
        with pytest.raises(ModelError):
            m.add_var("x", float("nan"), 1)
        assert m.variables == ()
        m.add_var("x", None, 2)
        assert m.variables == (Variable("x", None, 2.0, CONTINUOUS),)

    def test_non_finite_numbers_rejected(self):
        m = LinearModel()
        m.add_var("x", 0, 1)
        with pytest.raises(ModelError):
            m.add_row("c", [0], [1.0], "<=", float("inf"))
        with pytest.raises(ModelError):
            m.set_objective([0], [float("-inf")])
        assert m.constraints == ()
        assert m.objective == ()
        # A row's coefficients are checked when the model is written.
        m.add_row("c", [0], [float("nan")], "<=", 1.0)
        with pytest.raises(ModelError):
            lp_text(m)

    def test_non_finite_index_row_stops_lp_text_and_solve(self, solver):
        # add_row leaves its terms unchecked; the whole model is checked
        # once before it is written or handed to HiGHS.
        m = LinearModel()
        m.add_var("x", 0, 1)
        m.set_objective([0], [1.0])
        m.add_row("c", [0], [float("nan")], "<=", 1.0)
        with pytest.raises(ModelError):
            lp_text(m)
        with pytest.raises(ModelError):
            solve_external(m, solver)

    def test_relax_copies_instead_of_sharing(self, tiny_disjoint):
        model = build_ip2(tiny_disjoint)
        text = lp_text(model)
        relaxed = relax(model)
        extra = relaxed.add_var("extra", 0, 1)
        relaxed.add_row("extra_row", [extra, relaxed.names.index("v_0_0")], [1.0, 1.0], "<=", 1.0)
        assert lp_text(model) == text


class TestBuildIp1:
    def test_variable_count(self):
        model = build_ip1(full_edges_instance())
        assert len(model.names) == 22

    def test_war_blocked_when_no_lower_price_exists(self, int_grid):
        # Competitor at the grid floor: undercutting is impossible, so the
        # war revenue variable is fixed at zero.
        inst = Instance(
            n_outlets=1,
            demands=(DemandNode(0, 0, 0, Fraction(100)),),
            edges=(Edge(0, 0),),
            grid=int_grid,
        )
        model = build_ip1(inst)
        names = {v.name: v for v in model.variables}
        assert names["z_0"].ub == 0.0

    def test_mnpp_only(self):
        inst = two_node_instance([(0, 0), (1, 1)], model=BMNPP)
        with pytest.raises(ValueError):
            build_ip1(inst)


class TestBuildIp2:
    def test_variable_counts(self, tiny_disjoint):
        model = build_ip2(tiny_disjoint)
        v = [x for x in model.variables if x.name.startswith("v_")]
        y = [x for x in model.variables if x.name.startswith("y_")]
        assert len(v) == 52  # 2 outlets x 26 levels
        assert len(y) == 20  # purchase vars only where demand is positive

    def test_spread_rows_only_with_finite_cap(self, tiny_disjoint):
        uncapped = build_ip2(tiny_disjoint)
        capped = build_ip2(two_node_instance([(0, 0), (1, 1)], pi=100))
        assert not any(r.name.startswith("spread") for r in uncapped.constraints)
        assert any(r.name.startswith("spread") for r in capped.constraints)

    def test_build_model_dispatch(self, tiny_disjoint):
        ip2 = build_model(tiny_disjoint, "ip2")
        ip1 = build_model(tiny_disjoint, "ip1")
        assert any(v.name.startswith("v_") for v in ip2.variables)
        assert any(v.name.startswith("x_f") for v in ip1.variables)
        with pytest.raises(ValueError):
            build_model(tiny_disjoint, "ip9")


def test_relax_drops_integrality(tiny_disjoint):
    model = build_ip2(tiny_disjoint)
    relaxed = relax(model)
    assert all(v.kind == CONTINUOUS for v in relaxed.variables)
    assert all(v.kind == BINARY for v in model.variables if v.name.startswith("v_"))


class TestLpText:
    def test_header_and_sections(self, tiny_disjoint):
        text = lp_text(build_ip2(tiny_disjoint))
        lines = text.splitlines()
        assert lines[0] == "\\ netpricing linear model, lp dialect v1"
        assert "Maximize" in lines
        assert "Subject To" in lines
        assert "Binary" in lines
        assert lines[-1] == "End"

    def test_hand_built_model_text(self):
        m = LinearModel()
        x = m.add_var("x", -5, None)
        y = m.add_var("y", None, 3)
        z = m.add_var("z", None, None)
        w = m.add_var("w", 2, 2)
        u = m.add_var("u", 0.5, 4)
        b = m.add_var("b", kind=BINARY)
        m.add_row("neg", [x, y], [-2.5, 1.0], "<=", -7.25)
        m.add_row("mix", [z, w, b], [1.0, -1.0, 3.0], ">=", 0.0)
        m.add_row("fix", [u], [1.0], "=", 1.5)
        m.set_objective([x, z], [-1.0, 4.0])
        assert lp_text(m) == (
            "\\ netpricing linear model, lp dialect v1\n"
            "Maximize\n"
            " obj: - 1 x + 4 z\n"
            "Subject To\n"
            " neg: - 2.5 x + 1 y <= -7.25\n"
            " mix: 1 z - 1 w + 3 b >= 0\n"
            " fix: 1 u = 1.5\n"
            "Bounds\n"
            " x >= -5\n"
            " -inf <= y <= 3\n"
            " z free\n"
            " w = 2\n"
            " 0.5 <= u <= 4\n"
            " 0 <= b <= 1\n"
            "Binary\n"
            " b\n"
            "End\n"
        )

    def test_column_unbounded_below_writes_its_lower_bound(self):
        # LP readers take a missing lower bound as 0, not -inf.
        m = LinearModel()
        m.add_var("x", None, 5.0)
        m.set_objective([0], [1.0])
        lines = lp_text(m).splitlines()
        assert lines[lines.index("Bounds") + 1 : lines.index("End")] == [" -inf <= x <= 5"]

    @pytest.mark.parametrize("which", ["ip1", "ip2"])
    def test_one_line_per_row_and_variable_in_model_order(self, which):
        model = build_model(full_edges_instance(), which)
        lines = lp_text(model).splitlines()
        rows = lines[lines.index("Subject To") + 1 : lines.index("Bounds")]
        bounds = lines[lines.index("Bounds") + 1 : lines.index("Binary")]
        assert [line.split(":")[0].strip() for line in rows] == [
            r.name for r in model.constraints
        ]
        names = [v.name for v in model.variables]
        # The name is the first token, or the middle one of "lb <= name <= ub".
        assert [
            line.split()[2] if line.count("<=") == 2 else line.split()[0]
            for line in bounds
        ] == names

    def test_write_lp_is_byte_stable(self, tiny_disjoint, tmp_path):
        a = tmp_path / "a.lp"
        b = tmp_path / "b.lp"
        write_lp(build_ip2(tiny_disjoint), a)
        write_lp(build_ip2(tiny_disjoint), b)
        assert a.read_bytes() == b.read_bytes()

    def test_golden_bytes(self, tiny_disjoint):
        want = (GOLDEN / "tiny_disjoint.ip2.lp").read_bytes()
        assert lp_text(build_ip2(tiny_disjoint)).encode() == want


class TestParseSolution:
    def test_basic(self):
        assert parse_solution("x 1.5\n# note\n\ny 2\n") == {"x": 1.5, "y": 2.0}

    def test_unknown_names_dropped_with_filter(self):
        assert parse_solution("x 1\nstray 9\n", known={"x"}) == {"x": 1.0}

    def test_malformed_line_rejected(self):
        with pytest.raises(SolutionParseError):
            parse_solution("x\n")
        with pytest.raises(SolutionParseError):
            parse_solution("x one\n")


class TestResolveAdapter:
    def test_none_without_env(self, monkeypatch):
        monkeypatch.delenv("NETPRICING_SOLVER_CMD", raising=False)
        assert resolve_adapter(None) is None

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("NETPRICING_SOLVER_CMD", "mysolver {model} {solution} {seconds}")
        assert resolve_adapter(None) == "mysolver {model} {solution} {seconds}"

    def test_builtin_alias(self, monkeypatch):
        monkeypatch.delenv("NETPRICING_SOLVER_CMD", raising=False)
        assert resolve_adapter("builtin") == BUILTIN_SOLVER
        assert resolve_adapter(" builtin ") == BUILTIN_SOLVER

    def test_explicit_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("NETPRICING_SOLVER_CMD", "envsolver")
        assert resolve_adapter("mine {model}") == "mine {model}"


def fake_adapter(tmp_path, body: str) -> str:
    """A command template running an inline python script as the solver."""
    script = tmp_path / "fake_solver.py"
    script.write_text(body)
    exe = shlex.quote(sys.executable)
    return f"{exe} {script} {{model}} {{solution}} {{seconds}}"


class TestSolveExternal:
    def test_requires_adapter(self, tiny_disjoint):
        with pytest.raises(SolverUnavailable):
            solve_external(build_ip2(tiny_disjoint), None)

    def test_builtin_optimal(self, tiny_disjoint, solver):
        outcome = solve_external(build_ip2(tiny_disjoint), solver)
        assert outcome.status == OPTIMAL, outcome.message
        assert outcome.objective == pytest.approx(1600.0)

    def test_builtin_runs_in_process(self, tiny_disjoint, solver, tmp_path, monkeypatch):
        # No file, no child process: so a relative PYTHONPATH (such as the
        # checkout's PYTHONPATH=src) and the cwd cannot decide which
        # netpricing the builtin solver uses, nor whether it finds one.
        def refuse(*args, **kwargs):
            raise AssertionError("the builtin solver wrote a file or started a process")

        monkeypatch.setattr("netpricing.mip.write_lp", refuse)
        monkeypatch.setattr("netpricing.mip.subprocess.run", refuse)
        monkeypatch.setenv("PYTHONPATH", "no-such-dir")
        monkeypatch.chdir(tmp_path)
        outcome = solve_external(build_ip2(tiny_disjoint), solver)
        assert outcome.status == OPTIMAL, outcome.message
        assert outcome.objective == pytest.approx(1600.0)

    def test_builtin_reports_highs_diagnostics(self, tiny_disjoint, solver):
        outcome = solve_external(build_ip2(tiny_disjoint), solver)
        assert outcome.status == OPTIMAL, outcome.message
        assert outcome.bound == pytest.approx(outcome.objective)
        assert outcome.gap == 0
        assert outcome.nodes is not None

    def test_builtin_empty_model_is_optimal(self, solver):
        outcome = solve_external(LinearModel(), solver)
        assert outcome.status == OPTIMAL, outcome.message
        assert outcome.objective == 0
        assert outcome.values == {}

    def test_zero_budget_never_fabricates(self, tiny_disjoint, solver):
        outcome = solve_external(build_ip2(tiny_disjoint), solver, time_limit=0)
        assert outcome.status == FEASIBLE_TIMEOUT, outcome.message
        assert outcome.objective is None
        assert outcome.values == {}

    def test_missing_executable(self, tiny_disjoint):
        adapter = "/no/such/solver {model} {solution} {seconds}"
        outcome = solve_external(build_ip2(tiny_disjoint), adapter)
        assert outcome.status == ERROR
        assert "not found" in outcome.message

    def test_exit_zero_without_solution_file_is_error(self, tiny_disjoint, tmp_path):
        adapter = fake_adapter(tmp_path, "import sys; sys.exit(0)\n")
        outcome = solve_external(build_ip2(tiny_disjoint), adapter)
        assert outcome.status == ERROR
        assert "no solution" in outcome.message

    def test_malformed_solution_is_error(self, tiny_disjoint, tmp_path):
        body = (
            "import sys\n"
            "open(sys.argv[2], 'w').write('x 1 2\\n')\n"
            "sys.exit(0)\n"
        )
        outcome = solve_external(build_ip2(tiny_disjoint), fake_adapter(tmp_path, body))
        assert outcome.status == ERROR

    def test_infeasible_exit_code(self, solver):
        outcome = solve_external(infeasible_model(), solver)
        assert outcome.status == INFEASIBLE, outcome.message
        assert outcome.objective is None

    def test_objective_recomputed_from_values(self, tiny_disjoint, tmp_path):
        # A solver reporting junk variables cannot inflate the objective:
        # only declared variables count and the objective is recomputed.
        body = (
            "import sys\n"
            "open(sys.argv[2], 'w').write('v_0_9 1\\nbogus 99\\n')\n"
            "sys.exit(0)\n"
        )
        outcome = solve_external(build_ip2(tiny_disjoint), fake_adapter(tmp_path, body))
        assert outcome.status == OPTIMAL
        assert outcome.objective == 0.0  # v alone earns nothing
        assert "bogus" not in outcome.values


class TestCommandContract:
    """The exit-code and solution-file contract of external commands."""

    @pytest.mark.parametrize(
        "code, writes, status, objective",
        [
            pytest.param(0, True, OPTIMAL, 900.0, id="0-optimal"),
            pytest.param(2, True, FEASIBLE_TIMEOUT, 900.0, id="2-incumbent"),
            pytest.param(2, False, FEASIBLE_TIMEOUT, None, id="2-no-incumbent"),
            pytest.param(3, False, INFEASIBLE, None, id="3-infeasible"),
            pytest.param(1, False, ERROR, None, id="1-error"),
        ],
    )
    def test_exit_codes(self, code, writes, status, objective, tiny_disjoint, tmp_path):
        body = "import sys\nprint('first', file=sys.stderr)\n"
        if writes:
            # The objective is recomputed: y_0_0_9 alone earns 9 x 100.
            body += "open(sys.argv[2], 'w').write('v_0_9 1\\ny_0_0_9 1\\n')\n"
        body += f"print('exit {code}', file=sys.stderr)\nsys.exit({code})\n"
        outcome = solve_external(build_ip2(tiny_disjoint), fake_adapter(tmp_path, body))
        assert outcome.status == status, outcome.message
        assert outcome.objective == objective
        assert bool(outcome.values) == writes
        if status == ERROR:
            assert outcome.message == "solver exited 1: first | exit 1"

    def test_command_receives_lp_text_and_seconds(self, tiny_disjoint, tmp_path):
        seen = tmp_path / "seen"
        body = (
            "import shutil, sys\n"
            f"shutil.copy(sys.argv[1], {str(seen / 'model.lp')!r})\n"
            f"open({str(seen / 'seconds')!r}, 'w').write(sys.argv[3])\n"
            "sys.exit(3)\n"
        )
        seen.mkdir()
        model = build_ip2(tiny_disjoint)
        solve_external(model, fake_adapter(tmp_path, body), time_limit=2.5)
        assert (seen / "model.lp").read_text(encoding="utf-8") == lp_text(model)
        assert (seen / "seconds").read_text() == _num(2.5) == "2.5"

    @pytest.mark.parametrize(
        "time_limit, seconds", [(1e7, "10000000"), (1e308, "1e+308"), (float("inf"), "inf")]
    )
    def test_limit_past_the_longest_wait(self, time_limit, seconds, tiny_disjoint, tmp_path):
        # Twice the limit is more than subprocess can wait for, so the
        # command runs with no hard limit and its exit code decides.
        seen = tmp_path / "seconds"
        body = (
            "import sys\n"
            f"open({str(seen)!r}, 'w').write(sys.argv[3])\n"
            "open(sys.argv[2], 'w').write('v_0_9 1\\ny_0_0_9 1\\n')\n"
            "sys.exit(2)\n"
        )
        model = build_ip2(tiny_disjoint)
        outcome = solve_external(model, fake_adapter(tmp_path, body), time_limit=time_limit)
        assert outcome.status == FEASIBLE_TIMEOUT, outcome.message
        assert outcome.objective == 900.0
        assert seen.read_text() == seconds


def run_python(code: str) -> str:
    """Stdout of ``python -c code`` in a fresh interpreter importing this
    netpricing."""
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(PACKAGE_ROOT)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_builtin_keeps_highs_prints_off_stdout():
    # On this ip1 solve, scipy 1.17.1's HiGHS prints a debugging line to the
    # C-level stdout; in process it must not reach the caller's output.
    out = run_python(
        "from netpricing import GenParams, generate, solve_ip\n"
        "inst = generate(GenParams(model='mnpp', n_outlets=2, n_demands=5,"
        " density=0.9, seed=31402, grid_max='10', grid_step='1'))\n"
        "outcome, _ = solve_ip(inst, 'ip1', 'builtin')\n"
        "print(outcome.status)\n"
    )
    assert out == "optimal\n"


def test_overlapping_builtin_solves_restore_stdout(tiny_disjoint, solver):
    before = os.fstat(1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [
                pool.submit(solve_external, build_ip2(tiny_disjoint), solver)
                for _ in range(24)
            ]
            statuses = {f.result(timeout=60).status for f in futures}
    finally:
        sys.setswitchinterval(interval)
    assert statuses == {OPTIMAL}
    after = os.fstat(1)
    assert (after.st_dev, after.st_ino) == (before.st_dev, before.st_ino)


def test_import_does_not_load_scipy():
    out = run_python(
        "import sys, netpricing, netpricing.cli; "
        "print('scipy' in sys.modules, 'numpy' in sys.modules, "
        "'multiprocessing' in sys.modules)"
    )
    assert out == "False False False\n"


class TestSolveIp:
    def test_ip1_matches_oracle(self, tiny_disjoint, solver):
        outcome, prices = solve_ip(tiny_disjoint, "ip1", solver)
        assert outcome.status == OPTIMAL, outcome.message
        assert outcome.objective == pytest.approx(1600.0)
        assert prices == (900, 700)

    def test_capped_ip1_prices_keep_the_cap(self, solver):
        # An outlet serving nobody must not sit at the grid's top when the
        # cap puts that above the lowest assigned price plus pi.
        for seed in range(10):
            inst = generate(
                GenParams(
                    n_outlets=3, n_demands=4, density=0.5, seed=seed,
                    grid_min="0", grid_max="10", grid_step="1", pi="2",
                )
            )
            outcome, prices = solve_ip(inst, "ip1", solver)
            assert outcome.status == OPTIMAL, outcome.message
            assert max(prices) - min(prices) <= inst.pi, seed
            revenue = evaluate_prices(inst, prices)[0]
            assert float(revenue) == pytest.approx(outcome.objective, abs=1e-6), seed

    def test_ip2_matches_oracle(self, tiny_disjoint, solver):
        outcome, prices = solve_ip(tiny_disjoint, "ip2", solver)
        assert outcome.status == OPTIMAL, outcome.message
        assert outcome.objective == pytest.approx(1600.0)
        assert prices == (900, 700)

    def test_ip2_bmnpp(self, solver):
        inst = tiny_bmnpp()
        outcome, prices = solve_ip(inst, "ip2", solver)
        best = brute_force(inst)[0]
        assert outcome.status == OPTIMAL, outcome.message
        assert outcome.objective == pytest.approx(best, rel=1e-6, abs=1e-6)
        assert len(prices) == 3

    def test_relax_order_is_permutation(self, tiny_disjoint, solver):
        for which in ("ip1", "ip2"):
            order = relax_order(tiny_disjoint, which, solver)
            assert sorted(order) == [0, 1]

    def test_relaxation_budget_counts_the_build(self, tiny_disjoint, monkeypatch):
        # The model build spends the budget too: a build that outlasts the
        # limit leaves the solver 0 s.
        from netpricing import mip

        build = mip.build_model
        seen = []

        def slow_build(inst, which):
            time.sleep(0.1)
            return build(inst, which)

        def solve(model, adapter, time_limit=None):
            seen.append(time_limit)
            values = {name: 1.0 for name in ("v_0_0", "v_1_0")}
            return SolveOutcome(OPTIMAL, 0.0, values)

        monkeypatch.setattr(mip, "build_model", slow_build)
        monkeypatch.setattr(mip, "solve_external", solve)
        assert relax_order(tiny_disjoint, "ip2", "builtin", time_limit=0.05) == (0, 1)
        assert seen == [0.0]
