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
from dataclasses import dataclass

import numpy as np

from .bipmodel import BipProblem, Row, VariableSpace, assemble_problem, set_objective
from .circuit import LayeredCircuit
from .gatefid import FidelityModel
from .hwgraph import HardwareGraph
from .solver import _OBJ_EPS, SolveLimits, SolveResult, SolveStatus, solve_branch_and_bound


class LexError(ValueError):
    """Raised for bad objective orders or infeasible stage problems."""


@dataclass(frozen=True)
class LexResult:
    order: tuple[str, ...]
    stage_values: tuple[float, ...]
    result: SolveResult
    vs: object
    closed: bool  # every stage proved its optimum


@dataclass(frozen=True)
class ParetoPoint:
    step_index: int
    primary_value: float
    secondary_value: float
    closed: bool  # stage 1 and every stage of this point proved optimal
    tertiary_value: float | None = None

    def values(self) -> tuple:
        if self.tertiary_value is None:
            return (self.primary_value, self.secondary_value)
        return (self.primary_value, self.secondary_value, self.tertiary_value)


def _check_order(order) -> tuple[str, ...]:
    order = tuple(order)
    if not order:
        raise LexError("objective order is empty")
    for o in order:
        if o not in _OBJ_EPS:
            raise LexError(f"unknown objective {o!r}")
    if len(set(order)) != len(order):
        raise LexError("objective order repeats an objective")
    return order


def _budget_row(vec: np.ndarray, rhs: float) -> Row:
    nz = [v for v in range(len(vec)) if vec[v] != 0.0]
    return Row(vars=tuple(nz), coefs=tuple(float(vec[v]) for v in nz),
               sense="<=", rhs=rhs, family="OBJ_CUTOFF")


def _stages(c: LayeredCircuit, g: HardwareGraph, fid: FidelityModel, order,
            row_hook=None) -> tuple[VariableSpace, list[BipProblem]]:
    """One shared model, with the objective of each stage set once."""
    vs, p = assemble_problem(c, g, fid, objective=order[0],
                             crosstalk_mode="crosstalk" in order)
    if row_hook is not None:
        p = p.with_rows(list(row_hook(vs)))
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
        if lim is None:
            result = SolveResult(status=SolveStatus.FEASIBLE,
                                 objective=problem.objective_value(incumbent),
                                 assignment=incumbent, dual_bound=-math.inf, nodes=0)
        else:
            result = solve_branch_and_bound(problem, lim, incumbent=incumbent)
            run_lim.spend(result.nodes)
        # Only a stage started without an incumbent can end without one.
        if result.status == SolveStatus.INFEASIBLE:
            raise LexError(f"stage {k + 1} problem is infeasible")
        if result.objective is None:
            raise LexError(f"stage {k + 1} hit its budget with no incumbent")
        values.append(result.objective)
        closed = closed and result.status == SolveStatus.OPTIMAL
        incumbent = result.assignment
        if k + 1 < len(stages):
            rhs = result.objective + _OBJ_EPS[problem.objective_kind]
            rows.append(_budget_row(problem.objective, rhs))
    return values, result, closed


def lexicographic_solve(c: LayeredCircuit, g: HardwareGraph, fid: FidelityModel,
                        order, lim: SolveLimits | None = None,
                        row_hook=None) -> LexResult:
    """Optimize the objectives in sequence on one shared model.

    Stage i re-solves under budget rows pinning every earlier objective
    to its recorded optimum (1e-6 slack for the error objective, none
    for the integral ones), starting from stage i-1's assignment.
    Returns the final incumbent plus the per-stage optima; ``closed``
    holds only when every stage proved its optimum. ``lim`` bounds the
    whole run, not each stage: the stages share one deadline and one
    node budget. ``row_hook(vs)`` may contribute extra rows, which is how
    the pinned-layout and equal-endpoint variants are built.
    """
    order = _check_order(order)
    vs, stages = _stages(c, g, fid, order, row_hook)
    values, result, closed = _solve_stages(stages, [], _RunLimits(lim or SolveLimits()))
    return LexResult(order=order, stage_values=tuple(values),
                     result=result, vs=vs, closed=closed)


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
        raise LexError("a sweep needs at least two objectives")
    if steps < 1:
        raise LexError("step count must be at least 1")
    delta = default_step_size(order[0], fid)
    if delta <= 0.0:
        raise LexError("step size must be positive")

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


def sweep_table(sweeps: dict[str, list[ParetoPoint]], order) -> str:
    """Batch sweeps as delimited text, one row per circuit, step and
    objective, with the increase relative to that circuit's own minimum
    (absolute difference when the minimum is zero)."""
    order = _check_order(order)
    lines = ["circuit\tstep\tobjective\tvalue\tincrease_vs_min"]
    for name in sorted(sweeps):
        points = sweeps[name]
        per_obj: list[list[float]] = [[] for _ in order]
        for pt in points:
            for k, v in enumerate(pt.values()):
                per_obj[k].append(v)
        for pt in points:
            vals = pt.values()
            for k, obj in enumerate(order):
                vmin = min(per_obj[k])
                if vmin > 1e-12:
                    rel = (vals[k] - vmin) / vmin
                else:
                    rel = vals[k] - vmin
                lines.append(f"{name}\t{pt.step_index}\t{obj}\t"
                             f"{vals[k]:.12g}\t{rel:.12g}")
    return "\n".join(lines) + "\n"
