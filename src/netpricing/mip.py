"""Mixed-integer formulations, LP text export, and solving.

Two formulations of the same pricing problem:

* build_ip1: continuous outlet prices with big-M regime indicators per
  demand node. Fixed-fraction demand only; its revenue linearisation has
  no finite-coefficient counterpart for logit shares.
* build_ip2: one binary per (outlet, grid price) level plus purchase
  binaries per (node, outlet, price). Works for both demand models since
  demand enters only through coefficients.

Models are held in a small solver-agnostic IR (LinearModel): named
columns with bounds and binary flags, and the rows in compressed sparse
row arrays. Builders append whole rows of column indices, relax copies
the arrays, and both LP text for external solvers and the builtin solve
read the same arrays; the LP text is byte-stable for fixed inputs.

Solving goes through solve_external and a SolverAdapter. The builtin
adapter solves in this process with the bundled scipy/HiGHS backend
(netpricing.lpsolve.solve), passing HiGHS the model's arrays as they are,
columns and rows in model order; it writes no LP file and starts no
process, so it needs no install. An in-process solve cannot be killed, so
it relies on HiGHS's own time limit. Any other adapter holds a command
template with {model}, {solution}, and {seconds} placeholders, run on an
LP file in a temporary directory. The command must write a solution file
of "name value" lines (absent variables read as 0) and exit 0 when
optimal, 2 on a time limit, and 3 when infeasible; any other exit is an
error.
"""

from __future__ import annotations

import copy
import math
import os
import re
import shlex
import subprocess
import tempfile
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

from .model import (
    MNPP,
    Instance,
    adjacency,
    demand_at,
    price_below,
)
from .money import MONEY_SCALE, Money, money_float

CONTINUOUS = "continuous"
BINARY = "binary"

OPTIMAL = "optimal"
FEASIBLE_TIMEOUT = "feasible-timeout"
INFEASIBLE = "infeasible"
ERROR = "error"

BUILTIN_SOLVER = "builtin"
SOLVER_ENV_VAR = "NETPRICING_SOLVER_CMD"

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]{0,254}$")
_ONE = array("d", [1.0])


class ModelError(ValueError):
    """Malformed linear model construction."""


class SolverUnavailable(RuntimeError):
    """An operation needed an external solver and none was configured."""


class SolutionParseError(ValueError):
    """A solution file did not follow the "name value" line format."""


@dataclass(frozen=True)
class Variable:
    """Read-only view of one column; None bounds mean unbounded."""

    name: str
    lb: Optional[float]
    ub: Optional[float]
    kind: str = CONTINUOUS


@dataclass(frozen=True)
class Row:
    """Read-only view of one constraint row."""

    name: str
    terms: tuple[tuple[str, float], ...]
    sense: str  # "<=", ">=", "="
    rhs: float


class LinearModel:
    """Maximisation model over named columns, held as arrays.

    Columns are names, bounds lb/ub (-inf/+inf where the bound is None,
    i.e. unbounded) and a binary flag; the objective is (column,
    coefficient) arrays; the rows are compressed sparse rows: row i's
    terms are cols/coefs[row_start[i]:row_start[i + 1]], in the order they
    were added, with names, senses and rhs per row. Read the arrays, do
    not write them: add_var, add_row, add_constr and set_objective keep
    them consistent, and columns and rows are only ever appended, each
    with its final bounds or terms.

    add_row is the index-based primitive that builders call; it checks
    the row (name, sense, rhs) but not its terms, which must be valid
    column indices with finite, nonzero coefficients. add_constr and
    set_objective resolve names, drop zero coefficients and check every
    term. lp_text and the builtin solver call check_finite once per model.
    variables, constraints and objective are views built on each access.
    """

    def __init__(self):
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.lb = array("d")
        self.ub = array("d")
        self.binary = bytearray()
        self.obj_cols = array("i")
        self.obj_coefs = array("d")
        self.row_names: list[str] = []
        self._row_set: set[str] = set()
        self.senses: list[str] = []
        self.rhs = array("d")
        self.row_start = array("i", [0])
        self.cols = array("i")
        self.coefs = array("d")

    def add_var(
        self,
        name: str,
        lb: Optional[float] = 0.0,
        ub: Optional[float] = None,
        kind: str = CONTINUOUS,
    ) -> str:
        if not _NAME_RE.match(name):
            raise ModelError(f"bad variable name {name!r}")
        if name in self._index:
            raise ModelError(f"duplicate variable {name!r}")
        if kind not in (CONTINUOUS, BINARY):
            raise ModelError(f"unknown variable kind {kind!r}")
        lb, ub = (0.0, 1.0) if kind == BINARY else _bounds(name, lb, ub)
        self._index[name] = len(self.names)
        self.names.append(name)
        self.lb.append(lb)
        self.ub.append(ub)
        self.binary.append(kind == BINARY)
        return name

    def add_row(self, name: str, cols, coefs, sense: str, rhs: float):
        """Append a row over column indices; see the class docstring."""
        if not _NAME_RE.match(name):
            raise ModelError(f"bad constraint name {name!r}")
        if name in self._row_set:
            raise ModelError(f"duplicate constraint {name!r}")
        if sense not in ("<=", ">=", "="):
            raise ModelError(f"unknown sense {sense!r}")
        self.rhs.append(_finite(rhs, f"rhs of {name!r}"))
        self.row_names.append(name)
        self._row_set.add(name)
        self.senses.append(sense)
        self.cols.extend(cols)
        self.coefs.extend(coefs)
        self.row_start.append(len(self.cols))

    def _resolve(self, terms: Sequence[tuple[str, float]], where: str):
        cols, coefs = [], []
        for var, coef in terms:
            if var not in self._index:
                raise ModelError(f"{where} references unknown {var!r}")
            j = self._index[var]
            coef = _finite(coef, f"coefficient of {var!r} in {where}")
            if coef != 0.0:
                cols.append(j)
                coefs.append(coef)
        return cols, coefs

    def add_constr(
        self,
        name: str,
        terms: Sequence[tuple[str, float]],
        sense: str,
        rhs: float,
    ):
        self.add_row(name, *self._resolve(terms, f"constraint {name!r}"), sense, rhs)

    def set_objective(self, terms: Sequence[tuple[str, float]]):
        cols, coefs = self._resolve(terms, "objective")
        self.obj_cols = array("i", cols)
        self.obj_coefs = array("d", coefs)

    def check_finite(self):
        """Raise ModelError if a row coefficient is infinite or NaN.

        Every other number was checked where it entered the model.
        """
        if not all(map(math.isfinite, self.coefs)):
            raise ModelError("non-finite constraint coefficient")

    @property
    def variables(self) -> tuple[Variable, ...]:
        return tuple(
            Variable(
                name,
                None if lb == -math.inf else lb,
                None if ub == math.inf else ub,
                BINARY if flag else CONTINUOUS,
            )
            for name, lb, ub, flag in zip(self.names, self.lb, self.ub, self.binary)
        )

    @property
    def constraints(self) -> tuple[Row, ...]:
        return tuple(
            Row(name, self._terms(i), sense, rhs)
            for i, (name, sense, rhs) in enumerate(zip(self.row_names, self.senses, self.rhs))
        )

    def _terms(self, i: int) -> tuple[tuple[str, float], ...]:
        lo, hi = self.row_start[i], self.row_start[i + 1]
        return tuple(zip(map(self.names.__getitem__, self.cols[lo:hi]), self.coefs[lo:hi]))

    @property
    def objective(self) -> tuple[tuple[str, float], ...]:
        return tuple(zip(map(self.names.__getitem__, self.obj_cols), self.obj_coefs))

    def objective_value(self, values: dict[str, float]) -> float:
        names = self.names
        return sum(
            coef * values.get(names[j], 0.0) for j, coef in zip(self.obj_cols, self.obj_coefs)
        )


def _finite(x, what: str) -> float:
    x = float(x)
    if not math.isfinite(x):
        raise ModelError(f"{what} must be finite, got {x}")
    return x


def _bounds(name: str, lb: Optional[float], ub: Optional[float]) -> tuple[float, float]:
    """Stored bounds: None becomes -inf/+inf; a given bound must be finite."""
    hint = "(None is unbounded)"
    return (
        -math.inf if lb is None else _finite(lb, f"lower bound of {name!r} {hint}"),
        math.inf if ub is None else _finite(ub, f"upper bound of {name!r} {hint}"),
    )


def _big_m(inst: Instance) -> float:
    return money_float(inst.grid.max) + 1.0


def build_ip1(inst: Instance) -> LinearModel:
    """Continuous-price formulation with per-node regime indicators.

    Demand node e carries a price copy x_e tied to its assigned outlet, a
    match revenue y_e active only when x_e equals the competitor price,
    and an undercut revenue z_e active only when x_e is at most the grid
    price just below it. Assigned outlets must be cheapest among the
    node's connections. Rejects logit instances.
    """
    if inst.model != MNPP:
        raise ModelError("the continuous-price formulation needs fixed-fraction demand")
    o_e, _, _ = adjacency(inst)
    m = LinearModel()
    big = _big_m(inst)
    pi_c = None if inst.pi is None else money_float(inst.pi)
    link = big if pi_c is None else pi_c
    below = [price_below(inst.grid, node.c) for node in inst.demands]

    for f in inst.outlets():
        m.add_var(f"x_f{f}", 0.0, big)
    for node in inst.demands:
        e = node.id
        m.add_var(f"x_e{e}", 0.0, big)
        for f in o_e[e]:
            m.add_var(f"mu_{e}_{f}", kind=BINARY)
        m.add_var(f"y_{e}", 0.0, None)
        # With no grid price below c_e there is no undercut revenue.
        m.add_var(f"z_{e}", 0.0, 0.0 if below[e] is None else None)
        for k in range(1, 6):
            m.add_var(f"w{k}_{e}", kind=BINARY)

    m.set_objective(
        [(f"y_{node.id}", 1.0) for node in inst.demands]
        + [(f"z_{node.id}", 1.0) for node in inst.demands]
    )

    if pi_c is not None:
        # Spread cap applies to every posted price and every node's copy.
        entities = [(f"f{f}", f"x_f{f}") for f in inst.outlets()]
        entities += [(f"e{node.id}", f"x_e{node.id}") for node in inst.demands]
        for i in range(len(entities)):
            for j in range(i + 1, len(entities)):
                (tag_a, var_a), (tag_b, var_b) = entities[i], entities[j]
                m.add_constr(
                    f"diff_{tag_a}_{tag_b}_p",
                    [(var_a, 1.0), (var_b, -1.0)],
                    "<=",
                    pi_c,
                )
                m.add_constr(
                    f"diff_{tag_a}_{tag_b}_m",
                    [(var_b, 1.0), (var_a, -1.0)],
                    "<=",
                    pi_c,
                )

    for node in inst.demands:
        e = node.id
        outlets = o_e[e]
        mu = [f"mu_{e}_{f}" for f in outlets]
        if outlets:
            m.add_constr(f"assign_{e}", [(v, 1.0) for v in mu], "<=", 1.0)
            for f in outlets:
                # At most one assignment, and the assigned outlet carries
                # the node's price copy.
                m.add_constr(
                    f"link_lo_{e}_{f}",
                    [(f"x_e{e}", 1.0), (f"x_f{f}", -1.0), (f"mu_{e}_{f}", link)],
                    "<=",
                    link,
                )
                m.add_constr(
                    f"link_hi_{e}_{f}",
                    [(f"x_f{f}", 1.0), (f"x_e{e}", -1.0), (f"mu_{e}_{f}", link)],
                    "<=",
                    link,
                )
                for g in outlets:
                    if g == f:
                        continue
                    # Assignment only to a cheapest connected outlet.
                    m.add_constr(
                        f"cheapest_{e}_{f}_{g}",
                        [(f"x_f{f}", 1.0), (f"x_f{g}", -1.0), (f"mu_{e}_{f}", link)],
                        "<=",
                        link,
                    )

        c_e = money_float(node.c)
        cap_match = float(node.d * node.beta) * c_e
        m.add_constr(
            f"w1def_{e}",
            [(f"x_e{e}", -1.0), (f"w1_{e}", -big)],
            "<=",
            -c_e,
        )
        m.add_constr(
            f"w2def_{e}",
            [(f"x_e{e}", 1.0), (f"w2_{e}", -big)],
            "<=",
            c_e,
        )
        m.add_constr(
            f"match_cap_{e}",
            [(f"y_{e}", 1.0), (f"w3_{e}", -cap_match)],
            "<=",
            0.0,
        )
        m.add_constr(
            f"match_price_{e}",
            [(f"y_{e}", 1.0), (f"x_e{e}", -float(node.d * node.beta))],
            "<=",
            0.0,
        )
        m.add_constr(
            f"match_assigned_{e}",
            [(f"w3_{e}", 1.0)] + [(v, -1.0) for v in mu],
            "<=",
            0.0,
        )
        m.add_constr(
            f"regime_match_{e}",
            [(f"w1_{e}", 1.0), (f"w2_{e}", 1.0), (f"w3_{e}", 1.0)],
            "=",
            1.0,
        )

        if below[e] is None:
            # z_e is fixed at zero and the w4/w5 pair to the idle side.
            m.add_constr(f"war_off_{e}", [(f"w5_{e}", 1.0)], "<=", 0.0)
        else:
            below_c = money_float(below[e])
            m.add_constr(
                f"w4def_{e}",
                [(f"x_e{e}", 1.0), (f"w4_{e}", -big)],
                "<=",
                below_c,
            )
            m.add_constr(
                f"war_cap_{e}",
                [(f"z_{e}", 1.0), (f"w5_{e}", -float(node.d * node.gamma) * below_c)],
                "<=",
                0.0,
            )
            m.add_constr(
                f"war_price_{e}",
                [(f"z_{e}", 1.0), (f"x_e{e}", -float(node.d * node.gamma))],
                "<=",
                0.0,
            )
        m.add_constr(
            f"war_assigned_{e}",
            [(f"w5_{e}", 1.0)] + [(v, -1.0) for v in mu],
            "<=",
            0.0,
        )
        m.add_constr(
            f"regime_war_{e}",
            [(f"w4_{e}", 1.0), (f"w5_{e}", 1.0)],
            "=",
            1.0,
        )
    return m


def build_ip2(inst: Instance) -> LinearModel:
    """Grid-indexed formulation: one binary per outlet price level.

    v_{f}_{m} picks outlet f's grid price; y_{e}_{f}_{m} marks node e
    buying from f at level m and exists only where the captured volume is
    positive. A purchase requires the chosen level and forbids any other
    connected outlet from sitting strictly cheaper. The objective weighs
    captured volume by the price actually paid.

    One pass builds it: each outlet's level columns and its one_level
    row, then node by node the purchase columns and that node's one_buy,
    cheapest and uses_level rows, then the spread rows of a capped
    instance.
    """
    o_e, _, _ = adjacency(inst)
    m = LinearModel()
    grid = inst.grid.prices
    n_prices = len(grid)
    pi = inst.pi

    # Column v_{f}_{level} is f * n_prices + level.
    for f in inst.outlets():
        for level in range(n_prices):
            m.add_var(f"v_{f}_{level}", kind=BINARY)
        start = f * n_prices
        m.add_row(f"one_level_{f}", range(start, start + n_prices), _ONE * n_prices, "=", 1.0)

    obj = []
    for node in inst.demands:
        e = node.id
        k = len(o_e[e])
        # (outlet, level, column of y_{e}_{f}_{level}) of each purchase.
        buys = []
        bought = None
        for f in o_e[e]:
            if bought is None or inst.model != MNPP:
                # (level, objective coefficient) wherever f captures volume;
                # fixed-fraction volume does not depend on the outlet.
                bought = []
                for level, price in enumerate(grid):
                    vol = demand_at(inst, e, f, price)
                    if vol > 0:
                        bought.append((level, float(vol) * money_float(price)))
            for level, coef in bought:
                name = m.add_var(f"y_{e}_{f}_{level}", kind=BINARY)
                obj.append((name, coef))
                buys.append((f, level, len(m.names) - 1))
        if not buys:
            continue
        m.add_row(f"one_buy_{e}", [y for _, _, y in buys], _ONE * len(buys), "<=", 1.0)
        for f, level, y in buys:
            # Buying forces the level on and no rival strictly cheaper. The
            # grid ascends strictly, so a rival's cheaper levels are the
            # ones below this level.
            v = f * n_prices + level
            cols = [v]
            for g in o_e[e]:
                if g != f:
                    cols.extend(range(g * n_prices, g * n_prices + level))
            coefs = _ONE * len(cols)
            # With a single outlet the purchase's coefficient k - 1 is zero.
            if k > 1:
                cols.append(y)
                coefs.append(float(k - 1))
            m.add_row(f"cheapest_{e}_{f}_{level}", array("i", cols), coefs, "<=", float(k))
            m.add_row(f"uses_level_{e}_{f}_{level}", (y, v), (1.0, -1.0), "<=", 0.0)
    m.set_objective(obj)

    if pi is not None:
        for f in inst.outlets():
            for g in range(f + 1, inst.n_outlets):
                for a in range(n_prices):
                    for b in range(n_prices):
                        if abs(grid[a] - grid[b]) > pi:
                            m.add_row(
                                f"spread_{f}_{a}_{g}_{b}",
                                (f * n_prices + a, g * n_prices + b),
                                (1.0, 1.0),
                                "<=",
                                1.0,
                            )
    return m


def relax(model: LinearModel) -> LinearModel:
    """Continuous relaxation: binaries become [0, 1] continuous.

    Each array is copied whole. Binary columns already carry the bounds
    [0, 1], so only their flags are cleared.
    """
    out = copy.copy(model)
    vars(out).update((key, copy.copy(value)) for key, value in vars(model).items())
    out.binary = bytearray(len(model.binary))
    return out


def _num(x: float) -> str:
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(x)


def _terms_text(names: list[str], signed: dict[float, str], cols, coefs) -> str:
    text = " ".join([signed[coef] + names[j] for j, coef in zip(cols, coefs)])
    # The first term carries a sign only when negative.
    return text[2:] if text.startswith("+") else text


def lp_text(model: LinearModel) -> str:
    """Render the model in LP text form, deterministically."""
    model.check_finite()
    names, cols, coefs, starts = model.names, model.cols, model.coefs, model.row_start
    # "+ 1 ", "- 2.5 ", ...: each distinct coefficient is formatted once.
    signed = {
        coef: f"{'-' if coef < 0 else '+'} {_num(abs(coef))} "
        for coef in {*coefs, *model.obj_coefs}
    }
    lines = ["\\ netpricing linear model, lp dialect v1"]
    lines.append("Maximize")
    lines.append(f" obj: {_terms_text(names, signed, model.obj_cols, model.obj_coefs)}".rstrip())
    lines.append("Subject To")
    for i, (name, sense, rhs) in enumerate(zip(model.row_names, model.senses, model.rhs)):
        lo, hi = starts[i], starts[i + 1]
        terms = _terms_text(names, signed, cols[lo:hi], coefs[lo:hi])
        lines.append(f" {name}: {terms} {sense} {_num(rhs)}")
    lines.append("Bounds")
    for name, lb, ub in zip(names, model.lb, model.ub):
        if lb == -math.inf and ub == math.inf:
            lines.append(f" {name} free")
        elif lb == -math.inf:
            # LP readers take a missing lower bound as 0, so -inf is written.
            lines.append(f" -inf <= {name} <= {_num(ub)}")
        elif ub == math.inf:
            lines.append(f" {name} >= {_num(lb)}")
        elif lb == ub:
            lines.append(f" {name} = {_num(lb)}")
        else:
            lines.append(f" {_num(lb)} <= {name} <= {_num(ub)}")
    binaries = [name for name, flag in zip(names, model.binary) if flag]
    if binaries:
        lines.append("Binary")
        for name in binaries:
            lines.append(f" {name}")
    lines.append("End")
    return "\n".join(lines) + "\n"


def write_lp(model: LinearModel, path) -> Path:
    path = Path(path)
    path.write_text(lp_text(model), encoding="utf-8", newline="\n")
    return path


@dataclass(frozen=True)
class SolverAdapter:
    """External solver invocation: a shell-style command template.

    The template is split with shlex and each token formatted with the
    model path, solution path, and time limit in seconds. Example:

        cbc-wrapper.sh {model} {solution} {seconds}
    """

    command: str


def builtin_adapter() -> SolverAdapter:
    """The bundled scipy/HiGHS solver.

    Its command is the builtin alias, which solve_external recognises and
    solves in process with netpricing.lpsolve.solve: no LP file and no
    child process.
    """
    return SolverAdapter(BUILTIN_SOLVER)


def resolve_adapter(spec: Optional[str]) -> Optional[SolverAdapter]:
    """Map a command template, the builtin alias, or None to an adapter."""
    if spec is None:
        spec = os.environ.get(SOLVER_ENV_VAR)
    if spec is None or not str(spec).strip():
        return None
    if str(spec).strip() == BUILTIN_SOLVER:
        return builtin_adapter()
    return SolverAdapter(str(spec))


@dataclass
class SolveOutcome:
    """A solve's status, recomputed objective and variable values.

    bound (HiGHS's dual bound, in the maximisation sign), gap and nodes
    come from the builtin solver's mixed-integer solves; external adapters
    and pure LP solves leave them None.
    """

    status: str
    objective: Optional[float]
    values: dict[str, float]
    message: str = ""
    bound: Optional[float] = None
    gap: Optional[float] = None
    nodes: Optional[int] = None


def parse_solution(text: str, known: Optional[set] = None) -> dict[str, float]:
    """Parse "name value" lines; unknown names are dropped when known given."""
    values: dict[str, float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise SolutionParseError(
                f"solution line {lineno}: expected 'name value', got {raw!r}"
            )
        name, value = parts
        try:
            parsed = float(value)
        except ValueError as exc:
            raise SolutionParseError(
                f"solution line {lineno}: bad value {value!r}"
            ) from exc
        if known is None or name in known:
            values[name] = parsed
    return values


def solve_external(
    model: LinearModel,
    adapter: Optional[SolverAdapter],
    time_limit: Optional[float] = None,
) -> SolveOutcome:
    """Solve a model through an adapter; never fabricates results.

    The objective is always recomputed from the returned variable values,
    so a timeout without an incumbent reports no objective at all. The
    builtin adapter solves in process; any other runs its command on an LP
    file in a temporary directory.
    """
    if adapter is None:
        raise SolverUnavailable(
            "no solver configured; pass --solver-cmd, set "
            f"{SOLVER_ENV_VAR}, or use '{BUILTIN_SOLVER}'"
        )
    seconds = 1_000_000_000.0 if time_limit is None else float(time_limit)
    if adapter.command == BUILTIN_SOLVER:
        from .lpsolve import solve

        return solve(model, seconds)
    with tempfile.TemporaryDirectory(prefix="netpricing-mip-") as tmp:
        model_path = Path(tmp) / "model.lp"
        solution_path = Path(tmp) / "model.sol"
        write_lp(model, model_path)
        cmd = [
            tok.format(model=str(model_path), solution=str(solution_path), seconds=_num(seconds))
            for tok in shlex.split(adapter.command)
        ]
        hard_timeout = None if time_limit is None else max(time_limit * 2, time_limit + 30)
        try:
            proc = subprocess.run(
                cmd,
                cwd=tmp,
                capture_output=True,
                text=True,
                timeout=hard_timeout,
            )
        except FileNotFoundError as exc:
            return SolveOutcome(ERROR, None, {}, f"solver command not found: {exc}")
        except subprocess.TimeoutExpired:
            return SolveOutcome(
                FEASIBLE_TIMEOUT, None, {}, "solver killed at the hard time limit"
            )
        known = set(model.names)
        values: dict[str, float] = {}
        have_solution = solution_path.exists()
        if have_solution:
            try:
                values = parse_solution(
                    solution_path.read_text(encoding="utf-8"), known
                )
            except SolutionParseError as exc:
                return SolveOutcome(ERROR, None, {}, str(exc))
        if proc.returncode == 0:
            if not have_solution:
                return SolveOutcome(
                    ERROR, None, {}, "solver exited 0 but wrote no solution file"
                )
            return SolveOutcome(OPTIMAL, model.objective_value(values), values)
        if proc.returncode == 2:
            objective = model.objective_value(values) if have_solution else None
            return SolveOutcome(FEASIBLE_TIMEOUT, objective, values, "time limit")
        if proc.returncode == 3:
            return SolveOutcome(INFEASIBLE, None, {}, "reported infeasible")
        tail = (proc.stderr or proc.stdout or "").strip().splitlines()[-5:]
        return SolveOutcome(
            ERROR, None, {}, f"solver exited {proc.returncode}: " + " | ".join(tail)
        )


def decode_prices_ip2(inst: Instance, values: dict[str, float]) -> tuple[Money, ...]:
    """Posted prices from the grid-indexed solution's level binaries."""
    prices = []
    grid = inst.grid.prices
    for f in inst.outlets():
        chosen = None
        best_val = 0.5
        for level in range(len(grid)):
            val = values.get(f"v_{f}_{level}", 0.0)
            if val > best_val:
                best_val = val
                chosen = level
        if chosen is None:
            raise SolutionParseError(f"no price level chosen for outlet {f}")
        prices.append(grid[chosen])
    return tuple(prices)


def decode_prices_ip1(inst: Instance, values: dict[str, float]) -> tuple[Money, ...]:
    """Posted prices from the continuous solution, snapped to the grid.

    Outlets that serve nobody take the top grid price the cap allows: the
    highest at most the lowest assigned price plus inst.pi, or the grid's
    top without a cap. Their continuous value is arbitrary and must
    neither undercut the real assignments nor break the spread cap.
    """
    _, n_f, _ = adjacency(inst)
    grid = inst.grid.prices
    assigned = {}
    for f in inst.outlets():
        if any(values.get(f"mu_{e}_{f}", 0.0) > 0.5 for e in n_f[f]):
            x = values.get(f"x_f{f}", 0.0) * MONEY_SCALE
            assigned[f] = min(grid, key=lambda p: (abs(p - x), p))
    top = inst.grid.max
    if inst.pi is not None and assigned:
        top = max(p for p in grid if p <= min(assigned.values()) + inst.pi)
    return tuple(assigned.get(f, top) for f in inst.outlets())


def relax_order(
    inst: Instance,
    which: str,
    adapter: Optional[SolverAdapter],
) -> tuple[int, ...]:
    """Selection order from a relaxation's fractional prices.

    which is "ip1" (per-outlet continuous price) or "ip2" (expected grid
    price, i.e. the level-weighted sum), ascending, ties by id. Requires
    a solver adapter. The relaxation is solved without a time limit.
    """
    model = relax(build_model(inst, which))
    outcome = solve_external(model, adapter)
    if outcome.status not in (OPTIMAL, FEASIBLE_TIMEOUT) or not outcome.values:
        raise SolverUnavailable(
            f"relaxation solve failed: {outcome.status} {outcome.message}".strip()
        )
    fractional: dict[int, float] = {}
    if which == "ip1":
        for f in inst.outlets():
            fractional[f] = outcome.values.get(f"x_f{f}", 0.0)
    else:
        grid = inst.grid.prices
        for f in inst.outlets():
            fractional[f] = sum(
                money_float(grid[level]) * outcome.values.get(f"v_{f}_{level}", 0.0)
                for level in range(len(grid))
            )
    return tuple(sorted(fractional, key=lambda f: (fractional[f], f)))


def build_model(inst: Instance, which: str) -> LinearModel:
    if which == "ip1":
        return build_ip1(inst)
    if which == "ip2":
        return build_ip2(inst)
    raise ValueError(f"unknown formulation {which!r}")


def solve_ip(
    inst: Instance,
    which: str,
    adapter: Optional[SolverAdapter],
    time_limit: Optional[float] = None,
):
    """Build and solve a formulation. Returns (outcome, prices or None)."""
    model = build_model(inst, which)
    outcome = solve_external(model, adapter, time_limit=time_limit)
    prices = None
    if outcome.values and outcome.status in (OPTIMAL, FEASIBLE_TIMEOUT):
        decode = decode_prices_ip1 if which == "ip1" else decode_prices_ip2
        try:
            prices = decode(inst, outcome.values)
        except SolutionParseError:
            prices = None
    return outcome, prices
