"""Sequential multi-objective optimization over one routing model.

Lexicographic solving optimizes the objectives in the given order,
freezing each stage's optimum as a budget row before moving on. The
Pareto sweep then relaxes the stage-1 budget in fixed increments and
re-runs the remaining stages, tracing how the secondary objective buys
improvement from the primary one.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .bipmodel import (BipProblem, Row, VariableSpace, assemble_problem, check_initial_map,
                       set_objective)
from .circuit import LayeredCircuit
from .extract import RoutedCircuit, decode
from .gatefid import FidelityModel
from .hwgraph import HardwareGraph
from .solver import (_OBJ_EPS, NoIncumbentError, NoRouteError, SolveError, SolveLimits,
                     SolveResult, SolveStatus, _check_order, solve_branch_and_bound)


@dataclass(frozen=True)
class LexResult:
    order: tuple[str, ...]
    stage_values: tuple[float, ...]
    result: SolveResult
    routed: RoutedCircuit  # the last stage's assignment, decoded
    closed: bool  # every stage proved its optimum


@dataclass(frozen=True)
class ParetoPoint:
    step_index: int
    primary_value: float
    secondary_value: float
    closed: bool  # stage 1 and every stage of this point proved optimal
    tertiary_value: float | None = None

    def values(self) -> tuple:
        more = () if self.tertiary_value is None else (self.tertiary_value,)
        return (self.primary_value, self.secondary_value, *more)


def _budget_row(vec: np.ndarray, rhs: float) -> Row:
    nz = [v for v in range(len(vec)) if vec[v] != 0.0]
    return Row(vars=tuple(nz), coefs=tuple(float(vec[v]) for v in nz),
               sense="<=", rhs=rhs, family="OBJ_CUTOFF")


def _stages(c: LayeredCircuit, g: HardwareGraph, fid: FidelityModel, order,
            initial_map=None, same_endpoints: bool = False
            ) -> tuple[VariableSpace, list[BipProblem]]:
    """One shared model, with the objective of each stage set once.
    ``initial_map`` pins every qubit's step-0 node (``PIN_INIT`` rows);
    ``same_endpoints`` makes the last step's layout equal the first's
    (``SAME_ENDPOINTS`` rows). A model with no steps has no placement to
    pin and takes neither. ``VariableSpace`` checks the other rules."""
    check_initial_map(initial_map, g.n)
    vs, p = assemble_problem(c, g, fid, objective=order[0],
                             crosstalk_mode="crosstalk" in order)
    pins = [] if initial_map is None or vs.m == 0 else [
        Row(vars=(vs.w(q, initial_map[q], 0),), coefs=(1.0,), sense="=", rhs=1.0,
            family="PIN_INIT") for q in range(g.n)]
    ends = [Row(vars=(vs.w(q, i, 0), vs.w(q, i, vs.m - 1)), coefs=(1.0, -1.0), sense="=",
                rhs=0.0, family="SAME_ENDPOINTS")
            for q in range(g.n) for i in range(g.n)] if same_endpoints and vs.m > 0 else []
    p = p.with_rows(pins + ends)
    return vs, [p] + [set_objective(p, vs, kind, fid) for kind in order[1:]]


class _RunLimits:
    """One deadline and one node budget shared by every stage of a run."""

    def __init__(self, lim: SolveLimits):
        self.deadline = None if lim.time_limit is None else time.perf_counter() + lim.time_limit
        self.nodes = lim.node_limit

    def left(self) -> SolveLimits | None:
        """The limits of the next stage, or None once either is spent."""
        seconds = None if self.deadline is None else self.deadline - time.perf_counter()
        if (seconds is not None and seconds <= 0) or (self.nodes is not None and self.nodes <= 0):
            return None
        return SolveLimits(time_limit=seconds, node_limit=self.nodes)

    def spend(self, nodes: int) -> None:
        if self.nodes is not None:
            self.nodes -= nodes


def _solve_stages(stages: list[BipProblem], rows: list[Row], run_lim: _RunLimits,
                  first: int = 0, incumbent: np.ndarray | None = None
                  ) -> tuple[list[float], SolveResult, bool]:
    """Solve ``stages[first:]`` in turn under ``rows`` plus a budget row
    pinning each solved stage to its optimum (within its ``_OBJ_EPS``
    slack). Each stage starts from the previous stage's assignment,
    which satisfies the new budget row; the first starts from
    ``incumbent``, which must satisfy ``rows``. Every stage draws on
    ``run_lim``; a stage that finds it spent keeps its incumbent,
    unproven. Returns the stage optima, the last stage's result, and
    whether every stage proved its optimum."""
    rows = list(rows)
    values: list[float] = []
    closed = True
    for k in range(first, len(stages)):
        problem = stages[k].with_rows(rows)
        lim = run_lim.left()
        if lim is None:  # spent: the incumbent, if any, stays unsearched
            objective = None if incumbent is None else problem.objective_value(incumbent)
            result = SolveResult(status=SolveStatus.FEASIBLE, objective=objective,
                                 assignment=incumbent, dual_bound=-math.inf, nodes=0)
        else:
            result = solve_branch_and_bound(problem, lim, incumbent=incumbent)
            run_lim.spend(result.nodes)
        # Only a stage started without an incumbent can end without one.
        if result.status == SolveStatus.INFEASIBLE:
            raise NoRouteError(f"stage {k + 1} problem is infeasible")
        if result.objective is None:
            raise NoIncumbentError(f"stage {k + 1} hit its budget with no incumbent")
        values.append(result.objective)
        closed = closed and result.status == SolveStatus.OPTIMAL
        incumbent = result.assignment
        if k + 1 < len(stages):
            rhs = result.objective + _OBJ_EPS[problem.objective_kind]
            rows.append(_budget_row(problem.objective, rhs))
    return values, result, closed


def lexicographic_solve(c: LayeredCircuit, g: HardwareGraph, fid: FidelityModel,
                        order, lim: SolveLimits | None = None, initial_map=None,
                        same_endpoints: bool = False) -> LexResult:
    """Optimize the objectives in sequence on one shared model.

    Stage i re-solves under budget rows pinning every earlier objective
    to its recorded optimum (1e-6 slack for the error objective, none
    for the integral ones), starting from stage i-1's assignment.
    Returns the final incumbent, decoded as ``routed``, plus the
    per-stage optima; ``closed`` holds only when every stage proved its
    optimum. ``lim`` bounds the whole run, not each stage: the stages
    share one deadline and one node budget. ``initial_map`` pins the
    step-0 node of every qubit, idle ones included, as in
    ``solver.solve_exhaustive`` (``bip_routing``); ``same_endpoints``
    makes the final layout equal the initial one (``bip_constrained``).
    Raises ``SolveError`` for a bad order, ``bipmodel.ModelError`` for an
    input its rules refuse, ``NoRouteError`` when a stage is infeasible,
    and its subclass ``NoIncumbentError`` when a stage spends the budget
    with no incumbent.
    """
    order = _check_order(order)
    vs, stages = _stages(c, g, fid, order, initial_map, same_endpoints)
    values, result, closed = _solve_stages(stages, [], _RunLimits(lim or SolveLimits()))
    routed = decode(vs, result.assignment, c, g, fid)
    if vs.m == 0 and initial_map is not None:  # no steps: the pinned map is the whole route
        pin = tuple(initial_map)
        routed = replace(routed, initial_map=pin, final_map=pin)
    return LexResult(order=order, stage_values=tuple(values), result=result,
                     routed=routed, closed=closed)


def default_step_size(objective: str, fid: FidelityModel) -> float:
    """Sweep increment: one average-edge SWAP for error, one unit else."""
    if objective == "error":
        return fid.mean_swap_error()
    return 1.0


def pareto_sweep(c: LayeredCircuit, g: HardwareGraph, fid: FidelityModel,
                 order, steps: int, lim: SolveLimits | None = None) -> list[ParetoPoint]:
    """Trace the trade-off curve by relaxing the stage-1 budget.

    Point s re-solves the later stages with the stage-1 budget widened
    to its optimum plus s times ``default_step_size``, starting from the
    previous point's assignment (point 0 from the stage-1 optimum); the
    budget only widens, so that assignment stays feasible. The secondary
    optimum is nonincreasing in s; values are read off the final
    incumbent of each point, which is ``closed`` when stage 1 and every
    stage of the point proved its optimum. ``lim`` is one deadline and
    one node budget for stage 1 and every point together; once it is
    spent, each later point keeps the previous point's assignment.
    """
    order = _check_order(order)
    if len(order) < 2:
        raise SolveError("a sweep needs at least two objectives")
    if steps < 1:
        raise SolveError("step count must be at least 1")
    delta = default_step_size(order[0], fid)
    if delta <= 0.0:
        raise SolveError("step size must be positive")

    _, stages = _stages(c, g, fid, order)
    run_lim = _RunLimits(lim or SolveLimits())
    (o1,), result, first_closed = _solve_stages(stages[:1], [], run_lim)
    points: list[ParetoPoint] = []
    for s in range(steps):
        ceiling = o1 + _OBJ_EPS[order[0]] + s * delta
        _, result, closed = _solve_stages(stages, [_budget_row(stages[0].objective, ceiling)],
                                          run_lim, first=1, incumbent=result.assignment)
        achieved = [st.objective_value(result.assignment) for st in stages]
        points.append(ParetoPoint(
            step_index=s,
            primary_value=achieved[0],
            secondary_value=achieved[1],
            closed=first_closed and closed,
            tertiary_value=achieved[2] if len(order) > 2 else None))
    return points


# Row statuses of the sweep and bench tables, named as their exit codes: every
# stage proved its optimum, a limit left one unproven, or no route was found.
OK, LIMIT, NO_ROUTE = "ok", "limit", "no_route"


def sweep_table(sweeps: dict[str, list[ParetoPoint] | None], order) -> str:
    """Batch sweeps as delimited text, one row per circuit, step and
    objective, with the increase relative to that circuit's own minimum
    (absolute difference when the minimum is zero) and the point's status.
    A circuit whose sweep is None found no route: one ``NO_ROUTE`` row
    without values."""
    order = _check_order(order)
    lines = ["circuit\tstep\tobjective\tvalue\tincrease_vs_min\tstatus"]
    for name in sorted(sweeps):
        points = sweeps[name]
        if points is None:
            lines.append(f"{name}\t\t\t\t\t{NO_ROUTE}")
            continue
        least = [min(col) for col in zip(*(pt.values() for pt in points))]
        for pt in points:
            for obj, v, vmin in zip(order, pt.values(), least):
                rel = (v - vmin) / vmin if vmin > 1e-12 else v - vmin
                lines.append(f"{name}\t{pt.step_index}\t{obj}\t"
                             f"{v:.12g}\t{rel:.12g}\t{OK if pt.closed else LIMIT}")
    return "\n".join(lines) + "\n"
