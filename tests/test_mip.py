"""Formulation builders, LP text round-trips, and the solver adapter."""

import os
import shlex
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

import pytest

import netpricing
from netpricing import (
    BMNPP,
    DemandNode,
    Edge,
    GenParams,
    Instance,
    LinearModel,
    SolverAdapter,
    SolverUnavailable,
    brute_force,
    build_ip1,
    build_ip2,
    build_model,
    builtin_adapter,
    generate,
    lp_text,
    read_lp,
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
    LpParseError,
    SolutionParseError,
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
    m.add_var("x", kind=BINARY)
    m.add_constr("force_on", [("x", 1.0)], ">=", 1.0)
    m.add_constr("force_off", [("x", 1.0)], "<=", 0.0)
    m.set_objective([("x", 1.0)])
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
        m.add_var("x", 0, 10)
        m.add_var("y", 0, 10)
        m.set_objective([("x", 2.0), ("y", 3.0)])
        assert m.objective_value({"x": 1.0, "y": 2.0}) == 8.0


class TestBuildIp1:
    def test_variable_count(self):
        model = build_ip1(full_edges_instance())
        assert len(model.variables) == 22

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

    def test_round_trip_ip1(self):
        model = build_ip1(full_edges_instance())
        assert read_lp(lp_text(model)) == model

    def test_round_trip_ip2(self, tiny_disjoint):
        model = build_ip2(tiny_disjoint)
        assert read_lp(lp_text(model)) == model

    def test_round_trip_negative_terms_and_rhs(self):
        m = LinearModel()
        m.add_var("x", -5, None)
        m.add_var("y", None, 3)
        m.add_var("z", None, None)
        m.add_constr("neg", [("x", -2.5), ("y", 1.0)], "<=", -7.25)
        m.set_objective([("x", -1.0), ("z", 4.0)])
        assert read_lp(lp_text(m)) == m

    def test_write_lp_is_byte_stable(self, tiny_disjoint, tmp_path):
        a = tmp_path / "a.lp"
        b = tmp_path / "b.lp"
        write_lp(build_ip2(tiny_disjoint), a)
        write_lp(build_ip2(tiny_disjoint), b)
        assert a.read_bytes() == b.read_bytes()

    def test_golden_bytes(self, tiny_disjoint):
        want = (GOLDEN / "tiny_disjoint.ip2.lp").read_bytes()
        assert lp_text(build_ip2(tiny_disjoint)).encode() == want

    def test_parse_error_is_named(self):
        with pytest.raises(LpParseError):
            read_lp("Maximize\n obj: 1 x\nSubject To\n r1: nonsense\nEnd\n")


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
        adapter = resolve_adapter(None)
        assert adapter.command.startswith("mysolver")

    def test_builtin_alias(self, monkeypatch):
        monkeypatch.delenv("NETPRICING_SOLVER_CMD", raising=False)
        assert resolve_adapter("builtin") == builtin_adapter()

    def test_explicit_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("NETPRICING_SOLVER_CMD", "envsolver")
        assert resolve_adapter("mine {model}").command == "mine {model}"


def fake_adapter(tmp_path, body: str) -> SolverAdapter:
    """An adapter running an inline python script as the solver."""
    script = tmp_path / "fake_solver.py"
    script.write_text(body)
    exe = shlex.quote(sys.executable)
    return SolverAdapter(f"{exe} {script} {{model}} {{solution}} {{seconds}}")


class TestSolveExternal:
    def test_requires_adapter(self, tiny_disjoint):
        with pytest.raises(SolverUnavailable):
            solve_external(build_ip2(tiny_disjoint), None)

    def test_builtin_optimal(self, tiny_disjoint, solver):
        outcome = solve_external(build_ip2(tiny_disjoint), solver)
        assert outcome.status == OPTIMAL, outcome.message
        assert outcome.objective == pytest.approx(1600.0)

    def test_builtin_runs_callers_package(self, tiny_disjoint, solver, tmp_path, monkeypatch):
        # A relative PYTHONPATH (such as the checkout's PYTHONPATH=src) and
        # the cwd must not decide which netpricing the builtin solver uses,
        # nor whether it finds one at all.
        monkeypatch.setenv("PYTHONPATH", "no-such-dir")
        monkeypatch.chdir(tmp_path)
        outcome = solve_external(build_ip2(tiny_disjoint), solver)
        assert outcome.status == OPTIMAL, outcome.message
        assert outcome.objective == pytest.approx(1600.0)

    def test_builtin_runs_in_process(self, tiny_disjoint, solver, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the builtin solver wrote a file or started a process")

        monkeypatch.setattr("netpricing.mip.write_lp", refuse)
        monkeypatch.setattr("netpricing.mip.subprocess.run", refuse)
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
        adapter = SolverAdapter("/no/such/solver {model} {solution} {seconds}")
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


def lpsolve_command(args: str = "{model} {solution} {seconds}") -> SolverAdapter:
    """``python -m netpricing.lpsolve`` as an external command (not the
    builtin alias), importing this netpricing through an absolute path."""
    exe = shlex.quote(sys.executable)
    root = shlex.quote(str(PACKAGE_ROOT))
    return SolverAdapter(f"env PYTHONPATH={root} {exe} -m netpricing.lpsolve {args}")


class TestLpsolveCommand:
    """The exit-code and solution-file contract of the bundled command."""

    def test_optimal_exits_zero_with_solution(self, tiny_disjoint, tmp_path):
        outcome = solve_external(build_ip2(tiny_disjoint), lpsolve_command(), workdir=tmp_path)
        assert outcome.status == OPTIMAL, outcome.message
        assert outcome.objective == pytest.approx(1600.0)
        assert (tmp_path / "model.sol").exists()

    def test_infeasible_exits_three(self, tmp_path):
        outcome = solve_external(infeasible_model(), lpsolve_command(), workdir=tmp_path)
        assert outcome.status == INFEASIBLE, outcome.message

    def test_zero_budget_exits_two_without_solution(self, tiny_disjoint, tmp_path):
        outcome = solve_external(
            build_ip2(tiny_disjoint), lpsolve_command(), time_limit=0, workdir=tmp_path
        )
        assert outcome.status == FEASIBLE_TIMEOUT, outcome.message
        assert outcome.values == {}
        assert not (tmp_path / "model.sol").exists()

    def test_bad_argv_exits_one(self, tiny_disjoint, tmp_path):
        adapter = lpsolve_command("{model} {solution}")
        outcome = solve_external(build_ip2(tiny_disjoint), adapter, workdir=tmp_path)
        assert outcome.status == ERROR
        assert outcome.message.startswith("solver exited 1: usage")


@pytest.mark.parametrize(
    "name", ["tiny_connected", "tiny_disjoint", "tiny_single", "tiny_bmnpp"]
)
def test_in_process_builtin_matches_child_command(name, request, solver):
    inst = tiny_bmnpp() if name == "tiny_bmnpp" else request.getfixturevalue(name)
    models = {"ip2": build_ip2(inst), "relax_ip2": relax(build_ip2(inst))}
    if inst.model != BMNPP:
        models["ip1"] = build_ip1(inst)
    for which, model in models.items():
        in_process = solve_external(model, solver)
        child = solve_external(model, lpsolve_command())
        assert in_process.status == child.status == OPTIMAL, (which, child.message)
        assert in_process.objective == child.objective, which
        assert in_process.values == child.values, which
        assert (child.bound, child.gap, child.nodes) == (None, None, None)


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
        "from netpricing import GenParams, builtin_adapter, generate, solve_ip\n"
        "inst = generate(GenParams(model='mnpp', n_outlets=2, n_demands=5,"
        " density=0.9, seed=31402, grid_max='10', grid_step='1'))\n"
        "outcome, _ = solve_ip(inst, 'ip1', builtin_adapter())\n"
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
        "print('scipy' in sys.modules, 'numpy' in sys.modules)"
    )
    assert out == "False False\n"


class TestSolveIp:
    def test_ip1_matches_oracle(self, tiny_disjoint, solver):
        outcome, prices = solve_ip(tiny_disjoint, "ip1", solver)
        assert outcome.status == OPTIMAL, outcome.message
        assert outcome.objective == pytest.approx(1600.0)
        assert prices == (900, 700)

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
