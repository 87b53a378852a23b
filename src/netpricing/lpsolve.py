"""The bundled scipy/HiGHS solver for netpricing.mip's linear models.

solve() solves a LinearModel in the calling process; the builtin adapter
of netpricing.mip.solve_external calls it directly, passing HiGHS the
model's columns and rows in model order.
"""

from __future__ import annotations

import ctypes
import os
import sys
import threading

import numpy as np

from .mip import (
    ERROR,
    FEASIBLE_TIMEOUT,
    INFEASIBLE,
    OPTIMAL,
    LinearModel,
    SolveOutcome,
)


def _flush_c_stdio():
    fflush = ctypes.CDLL(None).fflush
    fflush.argtypes = [ctypes.c_void_p]
    fflush.restype = ctypes.c_int
    fflush(None)


class _MutedStdout:
    """Points file descriptor 1 at the null device while any solve runs.

    HiGHS can print to the C-level stdout whatever its log options say:
    the HiGHS in scipy 1.17.1 prints "HighsMipSolverData::
    transformNewIntegerFeasibleSolution tmpSolver.run();" on some ip1
    solves. In process, that line would land in the caller's own output,
    such as the JSON that ``netpricing solve`` prints. The descriptor is
    shared by all threads, so the first of overlapping solves redirects it
    and the last one restores it; output other threads write to stdout
    meanwhile is lost.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._users = 0
        self._saved = -1

    def __enter__(self):
        with self._lock:
            if self._users == 0:
                sys.stdout.flush()
                _flush_c_stdio()
                self._saved = os.dup(1)
                devnull = os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, 1)
                os.close(devnull)
            self._users += 1

    def __exit__(self, *exc_info):
        with self._lock:
            self._users -= 1
            if self._users == 0:
                _flush_c_stdio()
                os.dup2(self._saved, 1)
                os.close(self._saved)


_MUTED_STDOUT = _MutedStdout()


def _milp(model: LinearModel, seconds: float):
    # scipy is imported here, not at module level: importing netpricing
    # must not pay for it.
    from scipy import optimize, sparse

    n = len(model.variables)
    index = {v.name: i for i, v in enumerate(model.variables)}
    cost = np.zeros(n)
    for name, coef in model.objective:
        cost[index[name]] -= coef  # maximisation via negated minimisation
    integrality = np.array(
        [1 if v.kind == "binary" else 0 for v in model.variables]
    )
    lb = np.array([-np.inf if v.lb is None else v.lb for v in model.variables])
    ub = np.array([np.inf if v.ub is None else v.ub for v in model.variables])
    constraints = []
    if model.constraints:
        data, rows, cols = [], [], []
        clo = np.full(len(model.constraints), -np.inf)
        chi = np.full(len(model.constraints), np.inf)
        for i, row in enumerate(model.constraints):
            for name, coef in row.terms:
                rows.append(i)
                cols.append(index[name])
                data.append(coef)
            if row.sense in ("<=", "="):
                chi[i] = row.rhs
            if row.sense in (">=", "="):
                clo[i] = row.rhs
        matrix = sparse.csr_matrix(
            (data, (rows, cols)), shape=(len(model.constraints), n)
        )
        constraints = [optimize.LinearConstraint(matrix, clo, chi)]
    options = {"mip_rel_gap": 0.0, "time_limit": seconds}
    with _MUTED_STDOUT:
        return optimize.milp(
            c=cost,
            constraints=constraints,
            integrality=integrality,
            bounds=optimize.Bounds(lb, ub),
            options=options,
        )


def solve(model: LinearModel, seconds: float) -> SolveOutcome:
    """Solve with HiGHS in this process, within a time budget in seconds.

    The objective is recomputed from the returned values. A non-positive
    budget returns feasible-timeout with no values and never solves; an
    empty model is optimal. Mixed-integer solves also report HiGHS's dual
    bound (in the maximisation sign), relative gap and node count.
    """
    if seconds <= 0:
        return SolveOutcome(FEASIBLE_TIMEOUT, None, {}, "time limit")
    if not model.variables:
        return SolveOutcome(OPTIMAL, model.objective_value({}), {})
    result = _milp(model, seconds)
    if result.status == 2:
        return SolveOutcome(INFEASIBLE, None, {}, "reported infeasible")
    if result.status not in (0, 1):
        return SolveOutcome(ERROR, None, {}, f"solver failure: {result.message}")
    values = {}
    objective = None
    if result.x is not None:
        values = {v.name: float(x) for v, x in zip(model.variables, result.x)}
        objective = model.objective_value(values)
    dual = result.mip_dual_bound
    return SolveOutcome(
        OPTIMAL if result.status == 0 else FEASIBLE_TIMEOUT,
        objective,
        values,
        "" if result.status == 0 else "time limit",
        bound=None if dual is None else -dual,
        gap=result.mip_gap,
        nodes=result.mip_node_count,
    )
