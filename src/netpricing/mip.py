"""Mixed-integer formulations, LP text export, and solving.

Two formulations of the same pricing problem:

* build_ip1: continuous outlet prices with big-M regime indicators per
  demand node. Fixed-fraction demand only; its revenue linearisation has
  no finite-coefficient counterpart for logit shares.
* build_ip2: one binary per (outlet, grid price) level plus purchase
  binaries per (node, outlet, price). Works for both demand models since
  demand enters only through coefficients. Its relaxation is built in a
  cumulative level encoding: the same LP with far fewer nonzeros.

Models are held in a small solver-agnostic IR (LinearModel): named
columns with bounds and binary flags, and the rows in compressed sparse
row arrays. Builders keep the index add_var returns for each column and
write the objective and whole rows over those indices; no builder looks a
column up by name. relax copies the arrays, and both LP text for external
solvers and the builtin solve read the same arrays; the LP text is
byte-stable for fixed inputs.

Solving goes through solve_external, which takes the solver as a string.
"builtin" solves in this process with the bundled scipy/HiGHS backend
(netpricing.lpsolve.solve), passing HiGHS the model's arrays as they are,
columns and rows in model order; it writes no LP file and starts no
process, so it needs no install. An in-process solve cannot be killed, so
it relies on HiGHS's own time limit. Any other string is a command
template such as "cbc-wrapper.sh {model} {solution} {seconds}", split
with shlex and run on an LP file in a temporary directory. The command
must write a solution file of "name value" lines (absent variables read
as 0) and exit 0 when optimal, 2 on a time limit, and 3 when infeasible;
any other exit is an error. solve_ip and relax_order both solve through
_solve, which counts the build against the time limit and judges the answer.
"""

from __future__ import annotations

import copy
import math
import os
import re
import shlex
import subprocess
import tempfile
import time
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

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
# The longest wait subprocess can be given: poll() takes 2**31 - 1 ms.
_MAX_WAIT = 2_000_000.0

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]{0,254}$")
_ONE = array("d", [1.0])


class ModelError(ValueError):
    """Malformed linear model construction."""


class SolverUnavailable(RuntimeError):
    """An operation needed an external solver and none was configured."""


class SolveFailed(RuntimeError):
    """A configured solver gave no solution to use.

    The message is "status: solver message", or what a solution lacks.
    """


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
    """Maximisation model over indexed columns, held as arrays.

    Columns are names, bounds lb/ub (-inf/+inf where the bound is None,
    i.e. unbounded) and a binary flag; the objective is (column,
    coefficient) arrays; the rows are compressed sparse rows: row i's
    terms are cols/coefs[row_start[i]:row_start[i + 1]], in the order they
    were added, with names, senses and rhs per row. Read the arrays, do
    not write them: add_var, add_row and set_objective keep them
    consistent, and columns and rows are only ever appended, each with its
    final bounds or terms.

    Builders refer to a column by the index add_var returns. add_row
    checks the row (name, sense, rhs) but not its terms, which must be
    valid column indices with finite, nonzero coefficients; set_objective
    checks each coefficient and drops the zero ones. lp_text and the
    builtin solver call check_finite once per model. variables,
    constraints and objective are views built on each access, kept for
    perfbench's tracer and the pin tests; no solve reads them.
    """

    def __init__(self):
        self.names: list[str] = []
        self._name_set: set[str] = set()
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
    ) -> int:
        """Append a column and return its index."""
        if not _NAME_RE.match(name):
            raise ModelError(f"bad variable name {name!r}")
        if name in self._name_set:
            raise ModelError(f"duplicate variable {name!r}")
        if kind not in (CONTINUOUS, BINARY):
            raise ModelError(f"unknown variable kind {kind!r}")
        lb, ub = (0.0, 1.0) if kind == BINARY else _bounds(name, lb, ub)
        self._name_set.add(name)
        self.names.append(name)
        self.lb.append(lb)
        self.ub.append(ub)
        self.binary.append(kind == BINARY)
        return len(self.names) - 1

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

    def set_objective(self, cols, coefs):
        """Set the objective over column indices, without its zero terms.

        Every coefficient must be finite.
        """
        terms = [(j, float(coef)) for j, coef in zip(cols, coefs) if coef != 0.0]
        for j, coef in terms:
            if not math.isfinite(coef):
                name = self.names[j]
                raise ModelError(f"objective coefficient of {name!r} must be finite, got {coef}")
        self.obj_cols = array("i", [j for j, _ in terms])
        self.obj_coefs = array("d", [coef for _, coef in terms])

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

    def row(name, cols, coefs, sense, rhs):
        # A row with a coefficient worked out from the data leaves a zero
        # one out: link is 0 at pi = 0, the match cap at c_e = 0, and the
        # war cap when the grid price below c_e is 0.
        terms = [(j, coef) for j, coef in zip(cols, coefs) if coef != 0.0]
        m.add_row(name, [j for j, _ in terms], [coef for _, coef in terms], sense, rhs)

    x_f = [m.add_var(f"x_f{f}", 0.0, big) for f in inst.outlets()]
    # Per node: x_e, mu (in o_e[e] order), y, z and w1..w5.
    node_cols = []
    for node in inst.demands:
        e = node.id
        x_e = m.add_var(f"x_e{e}", 0.0, big)
        mu = [m.add_var(f"mu_{e}_{f}", kind=BINARY) for f in o_e[e]]
        y = m.add_var(f"y_{e}", 0.0, None)
        # With no grid price below c_e there is no undercut revenue.
        z = m.add_var(f"z_{e}", 0.0, 0.0 if below[e] is None else None)
        w = [m.add_var(f"w{k}_{e}", kind=BINARY) for k in range(1, 6)]
        node_cols.append((x_e, mu, y, z, w))

    revenue = [y for _, _, y, _, _ in node_cols] + [z for _, _, _, z, _ in node_cols]
    m.set_objective(revenue, _ONE * len(revenue))

    if pi_c is not None:
        # Spread cap applies to every posted price and every node's copy.
        entities = [(f"f{f}", x_f[f]) for f in inst.outlets()]
        entities += [(f"e{node.id}", cols[0]) for node, cols in zip(inst.demands, node_cols)]
        for i in range(len(entities)):
            for j in range(i + 1, len(entities)):
                (tag_a, var_a), (tag_b, var_b) = entities[i], entities[j]
                m.add_row(f"diff_{tag_a}_{tag_b}_p", (var_a, var_b), (1.0, -1.0), "<=", pi_c)
                m.add_row(f"diff_{tag_a}_{tag_b}_m", (var_b, var_a), (1.0, -1.0), "<=", pi_c)

    for node, (x_e, mu, y, z, (w1, w2, w3, w4, w5)) in zip(inst.demands, node_cols):
        e = node.id
        outlets = o_e[e]
        # Coefficients of w3 or w5 at most the node's assignment count.
        assigned = [1.0] + [-1.0] * len(mu)
        if outlets:
            m.add_row(f"assign_{e}", mu, _ONE * len(mu), "<=", 1.0)
            for f, mu_f in zip(outlets, mu):
                # At most one assignment, and the assigned outlet carries
                # the node's price copy.
                row(f"link_lo_{e}_{f}", (x_e, x_f[f], mu_f), (1.0, -1.0, link), "<=", link)
                row(f"link_hi_{e}_{f}", (x_f[f], x_e, mu_f), (1.0, -1.0, link), "<=", link)
                for g in outlets:
                    if g == f:
                        continue
                    # Assignment only to a cheapest connected outlet.
                    row(
                        f"cheapest_{e}_{f}_{g}",
                        (x_f[f], x_f[g], mu_f),
                        (1.0, -1.0, link),
                        "<=",
                        link,
                    )

        c_e = money_float(node.c)
        match, war = float(node.d * node.beta), float(node.d * node.gamma)
        m.add_row(f"w1def_{e}", (x_e, w1), (-1.0, -big), "<=", -c_e)
        m.add_row(f"w2def_{e}", (x_e, w2), (1.0, -big), "<=", c_e)
        row(f"match_cap_{e}", (y, w3), (1.0, -(match * c_e)), "<=", 0.0)
        row(f"match_price_{e}", (y, x_e), (1.0, -match), "<=", 0.0)
        m.add_row(f"match_assigned_{e}", [w3, *mu], assigned, "<=", 0.0)
        m.add_row(f"regime_match_{e}", (w1, w2, w3), (1.0, 1.0, 1.0), "=", 1.0)

        if below[e] is None:
            # z_e is fixed at zero and the w4/w5 pair to the idle side.
            m.add_row(f"war_off_{e}", (w5,), (1.0,), "<=", 0.0)
        else:
            below_c = money_float(below[e])
            m.add_row(f"w4def_{e}", (x_e, w4), (1.0, -big), "<=", below_c)
            row(f"war_cap_{e}", (z, w5), (1.0, -war * below_c), "<=", 0.0)
            row(f"war_price_{e}", (z, x_e), (1.0, -war), "<=", 0.0)
        m.add_row(f"war_assigned_{e}", [w5, *mu], assigned, "<=", 0.0)
        m.add_row(f"regime_war_{e}", (w4, w5), (1.0, 1.0), "=", 1.0)
    return m


def build_ip2(inst: Instance, *, cumulative: bool = False) -> LinearModel:
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

    By default cheapest_{e}_{f}_{m} lists each rival's levels below m.
    cumulative adds, after the one_level rows, continuous u_{g}_{m} =
    v_{g}_0 + ... + v_{g}_{m-1} (m >= 1) chained by cum_{g}_{m} rows, and
    lists one u per rival instead (Vielma, SIAM Review 57(1), 2015): the
    same LP under projection, O(|O_e|) terms a row, not O(|O_e| * |grid|).
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

    if cumulative:
        # Column u_{g}_{level} is first_u + g * (n_prices - 1) + level - 1;
        # row cum_{g}_{level} is u_{g}_{level} - u_{g}_{level - 1} -
        # v_{g}_{level - 1} = 0, without the u term at level 1.
        first_u = len(m.names)
        for g in inst.outlets():
            for level in range(1, n_prices):
                u = m.add_var(f"u_{g}_{level}")
                cols = (u, u - 1) if level > 1 else (u,)
                cols += (g * n_prices + level - 1,)
                m.add_row(f"cum_{g}_{level}", cols, (1.0,) + (-1.0,) * (len(cols) - 1), "=", 0.0)

    def cheaper(g, level):
        """Columns that sum to 1 when rival g sits below level."""
        if not cumulative:
            return range(g * n_prices, g * n_prices + level)
        return (first_u + g * (n_prices - 1) + level - 1,) if level else ()

    obj_cols, obj_coefs = array("i"), array("d")
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
                y = m.add_var(f"y_{e}_{f}_{level}", kind=BINARY)
                obj_cols.append(y)
                obj_coefs.append(coef)
                buys.append((f, level, y))
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
                    cols.extend(cheaper(g, level))
            coefs = _ONE * len(cols)
            # With a single outlet the purchase's coefficient k - 1 is zero.
            if k > 1:
                cols.append(y)
                coefs.append(float(k - 1))
            m.add_row(f"cheapest_{e}_{f}_{level}", array("i", cols), coefs, "<=", float(k))
            m.add_row(f"uses_level_{e}_{f}_{level}", (y, v), (1.0, -1.0), "<=", 0.0)
    m.set_objective(obj_cols, obj_coefs)

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
    if abs(x) < 1e15 and x == int(x):
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


def resolve_adapter(spec: Optional[str]) -> Optional[str]:
    """The solver string: spec, or $NETPRICING_SOLVER_CMD when spec is None.

    Blank is None, "builtin" with spaces around it is BUILTIN_SOLVER, and
    any other command template is returned as given.
    """
    if spec is None:
        spec = os.environ.get(SOLVER_ENV_VAR)
    if spec is None or not spec.strip():
        return None
    return BUILTIN_SOLVER if spec.strip() == BUILTIN_SOLVER else spec


@dataclass
class SolveOutcome:
    """A solve's status, recomputed objective and variable values.

    bound (HiGHS's dual bound, in the maximisation sign), gap and nodes
    come from the builtin solver's mixed-integer solves; command templates
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
    adapter: Optional[str],
    time_limit: Optional[float] = None,
) -> SolveOutcome:
    """Solve a model with a solver string; never fabricates results.

    The objective is always recomputed from the returned variable values,
    so a timeout without an incumbent reports no objective at all.
    BUILTIN_SOLVER solves in process. A command template runs on an LP
    file and is killed at max(2t, t + 30) seconds for a limit of t (1e9
    without one), unless that is past _MAX_WAIT: then only its own limit
    holds. None raises SolverUnavailable.
    """
    if adapter is None:
        raise SolverUnavailable(
            "no solver configured; pass --solver-cmd, set "
            f"{SOLVER_ENV_VAR}, or use '{BUILTIN_SOLVER}'"
        )
    seconds = 1_000_000_000.0 if time_limit is None else float(time_limit)
    if adapter == BUILTIN_SOLVER:
        from .lpsolve import solve

        return solve(model, seconds)
    with tempfile.TemporaryDirectory(prefix="netpricing-mip-") as tmp:
        model_path = Path(tmp) / "model.lp"
        solution_path = Path(tmp) / "model.sol"
        write_lp(model, model_path)
        cmd = [
            tok.format(model=str(model_path), solution=str(solution_path), seconds=_num(seconds))
            for tok in shlex.split(adapter)
        ]
        hard_timeout = max(seconds * 2, seconds + 30)
        try:
            proc = subprocess.run(
                cmd,
                cwd=tmp,
                capture_output=True,
                text=True,
                timeout=hard_timeout if hard_timeout <= _MAX_WAIT else None,
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
            raise SolveFailed(f"no price level chosen for outlet {f}")
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


def _solve(
    inst: Instance, which: str, adapter: Optional[str], time_limit: Optional[float], relaxed: bool
) -> SolveOutcome:
    """Build which, relaxed when asked, and solve it in what the build left
    of time_limit, at least 0. Only an optimal outcome with values or a
    feasible-timeout one is returned; any other raises SolveFailed."""
    start = time.perf_counter()
    model = build_model(inst, which, relaxed)
    if time_limit is not None:
        time_limit = max(0.0, time_limit - (time.perf_counter() - start))
    outcome = solve_external(model, adapter, time_limit)
    if outcome.status not in (OPTIMAL, FEASIBLE_TIMEOUT):
        raise SolveFailed(f"{outcome.status}: {outcome.message}")
    if outcome.status == OPTIMAL and not outcome.values:
        raise SolveFailed(f"{OPTIMAL}: the solver returned no variable values")
    return outcome


def relax_order(
    inst: Instance,
    which: str,
    adapter: Optional[str],
    time_limit: Optional[float] = None,
) -> tuple[int, ...]:
    """Selection order from a relaxation's fractional prices.

    which is "ip1" (per-outlet continuous price) or "ip2" (expected grid
    price, i.e. the level-weighted sum), ascending, ties by id; time_limit
    covers the build. ip2 is relaxed in build_ip2's cumulative encoding:
    where its optimal face holds more than one point, the solver's vertex,
    and so the order, may differ from the default encoding's. A solve that
    returns no values, failed or cut short, raises SolveFailed, and no
    solver (adapter None) raises SolverUnavailable.
    """
    outcome = _solve(inst, which, adapter, time_limit, relaxed=True)
    values = outcome.values
    if not values:
        raise SolveFailed(f"{outcome.status}: {outcome.message}")
    if which == "ip1":
        fractional = [values.get(f"x_f{f}", 0.0) for f in inst.outlets()]
    else:
        grid = list(map(money_float, inst.grid.prices))
        fractional = [
            sum(price * values.get(f"v_{f}_{level}", 0.0) for level, price in enumerate(grid))
            for f in inst.outlets()
        ]
    return tuple(sorted(inst.outlets(), key=lambda f: (fractional[f], f)))


def build_model(inst: Instance, which: str, relaxed: bool = False) -> LinearModel:
    """Formulation which ("ip1" or "ip2"), or its continuous relaxation;
    ip2's is built in build_ip2's cumulative encoding."""
    if which == "ip1":
        model = build_ip1(inst)
    elif which == "ip2":
        model = build_ip2(inst, cumulative=relaxed)
    else:
        raise ValueError(f"unknown formulation {which!r}")
    return relax(model) if relaxed else model


def solve_ip(
    inst: Instance,
    which: str,
    adapter: Optional[str],
    time_limit: Optional[float] = None,
):
    """Build and solve a formulation. Returns (outcome, prices or None).

    time_limit covers the build. A failed solve or a solution without prices
    raises SolveFailed; prices are None only for a timeout with no incumbent.
    """
    outcome = _solve(inst, which, adapter, time_limit, relaxed=False)
    decode = decode_prices_ip1 if which == "ip1" else decode_prices_ip2
    return outcome, decode(inst, outcome.values) if outcome.values else None
