"""The bundled scipy/HiGHS solver for netpricing.mip's linear models.

solve() solves a LinearModel in the calling process; the builtin adapter
of netpricing.mip.solve_external calls it directly. HiGHS gets numpy views
of the model's own arrays (the CSR rows become a column-wise matrix, as
milp requires), so columns and rows keep model order and no term is
copied one at a time.
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


def _view(buffer, dtype=np.float64) -> np.ndarray:
    """A read-only numpy view of one of the model's arrays: no copy, and
    nothing downstream can write into the model."""
    view = np.frombuffer(buffer, dtype=dtype)
    view.flags.writeable = False
    return view


def _milp(model: LinearModel, seconds: float):
    # scipy is imported here, not at module level: importing netpricing
    # must not pay for it.
    from scipy import optimize, sparse

    model.check_finite()
    n = len(model.names)
    cost = np.zeros(n)
    # Maximisation via negated minimisation.
    np.subtract.at(cost, _view(model.obj_cols, np.intc), _view(model.obj_coefs))
    constraints = []
    if model.row_names:
        rhs = _view(model.rhs)
        senses = np.array(model.senses)
        clo = np.where(senses == "<=", -np.inf, rhs)
        chi = np.where(senses == ">=", np.inf, rhs)
        matrix = sparse.csr_matrix(
            (_view(model.coefs), _view(model.cols, np.intc), _view(model.row_start, np.intc)),
            shape=(len(model.row_names), n),
        ).tocsc()
        # milp hands HiGHS the matrix by columns. Repeated terms of a row
        # are summed, on the fresh column arrays.
        matrix.sum_duplicates()
        constraints = [optimize.LinearConstraint(matrix, clo, chi)]
    options = {"mip_rel_gap": 0.0, "time_limit": seconds}
    with _MUTED_STDOUT:
        return optimize.milp(
            c=cost,
            constraints=constraints,
            integrality=_view(model.binary, np.uint8),
            bounds=optimize.Bounds(_view(model.lb), _view(model.ub)),
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
    if not model.names:
        return SolveOutcome(OPTIMAL, model.objective_value({}), {})
    result = _milp(model, seconds)
    if result.status == 2:
        return SolveOutcome(INFEASIBLE, None, {}, "reported infeasible")
    if result.status not in (0, 1):
        return SolveOutcome(ERROR, None, {}, f"solver failure: {result.message}")
    values = {}
    objective = None
    if result.x is not None:
        values = {name: float(x) for name, x in zip(model.names, result.x)}
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
