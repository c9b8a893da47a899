"""Sequential multi-objective optimization over one routing model.

Lexicographic solving optimizes the objectives in the given order,
freezing each stage's optimum as a budget row before moving on. The
Pareto sweep then relaxes the stage-1 budget in fixed increments and
re-runs the remaining stages, tracing how the secondary objective buys
improvement from the primary one.
"""

from __future__ import annotations

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
    problem: BipProblem
    vs: object

    @property
    def closed(self) -> bool:
        return self.result.status == SolveStatus.OPTIMAL


@dataclass(frozen=True)
class ParetoPoint:
    step_index: int
    primary_value: float
    secondary_value: float
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


def _solve_stages(stages: list[BipProblem], rows: list[Row], lim: SolveLimits,
                  first: int = 0) -> tuple[list[float], SolveResult, BipProblem]:
    """Solve ``stages[first:]`` in turn under ``rows`` plus a budget row
    pinning each solved stage to its optimum (within its ``_OBJ_EPS``
    slack). Returns the stage optima and the last stage's result and
    problem."""
    rows = list(rows)
    values: list[float] = []
    for k in range(first, len(stages)):
        problem = stages[k].with_rows(rows)
        result = solve_branch_and_bound(problem, lim)
        if result.status == SolveStatus.INFEASIBLE:
            if k == 0:
                raise LexError("stage-1 problem is infeasible")
            raise LexError(f"stage {k + 1} infeasible under earlier budgets")
        if result.objective is None:
            raise LexError(f"stage {k + 1} hit its budget with no incumbent")
        values.append(result.objective)
        if k + 1 < len(stages):
            rhs = result.objective + _OBJ_EPS[problem.objective_kind]
            rows.append(_budget_row(problem.objective, rhs))
    return values, result, problem


def lexicographic_solve(c: LayeredCircuit, g: HardwareGraph, fid: FidelityModel,
                        order, lim: SolveLimits | None = None,
                        row_hook=None) -> LexResult:
    """Optimize the objectives in sequence on one shared model.

    Stage i re-solves under budget rows pinning every earlier objective
    to its recorded optimum (1e-6 slack for the error objective, none
    for the integral ones). Returns the final incumbent plus the
    per-stage optima. ``row_hook(vs)`` may contribute extra rows, which
    is how the pinned-layout and equal-endpoint variants are built.
    """
    order = _check_order(order)
    vs, stages = _stages(c, g, fid, order, row_hook)
    values, result, problem = _solve_stages(stages, [], lim or SolveLimits())
    return LexResult(order=order, stage_values=tuple(values),
                     result=result, problem=problem, vs=vs)


def default_step_size(objective: str, fid: FidelityModel) -> float:
    """Sweep increment: one average-edge SWAP for error, one unit else."""
    if objective == "error":
        return fid.mean_swap_error()
    return 1.0


def pareto_sweep(c: LayeredCircuit, g: HardwareGraph, fid: FidelityModel,
                 order, steps: int, step_size: float | None = None,
                 lim: SolveLimits | None = None) -> list[ParetoPoint]:
    """Trace the trade-off curve by relaxing the stage-1 budget.

    Point s re-solves the later stages with the stage-1 budget widened
    to its optimum plus s times the step size. The secondary optimum is
    nonincreasing in s; values are read off the final incumbent of each
    point.
    """
    order = _check_order(order)
    if len(order) < 2:
        raise LexError("a sweep needs at least two objectives")
    if steps < 1:
        raise LexError("step count must be at least 1")
    lim = lim or SolveLimits()
    delta = default_step_size(order[0], fid) if step_size is None else float(step_size)
    if delta <= 0.0:
        raise LexError("step size must be positive")

    _, stages = _stages(c, g, fid, order)
    (o1,), _, _ = _solve_stages(stages[:1], [], lim)
    points: list[ParetoPoint] = []
    for s in range(steps):
        budget = o1 + _OBJ_EPS[order[0]] + s * delta
        try:
            _, result, _ = _solve_stages(stages, [_budget_row(stages[0].objective, budget)],
                                         lim, first=1)
        except LexError as exc:
            raise LexError(f"sweep point {s}: {exc}") from exc
        achieved = [float(np.dot(st.objective, result.assignment)) for st in stages]
        points.append(ParetoPoint(
            step_index=s,
            primary_value=achieved[0],
            secondary_value=achieved[1],
            tertiary_value=achieved[2] if len(order) > 2 else None))
    return points


@dataclass(frozen=True)
class TradeoffReport:
    primary: str
    secondary: str
    constrained_value: float
    unconstrained_value: float

    @property
    def gap(self) -> float:
        return self.constrained_value - self.unconstrained_value

    @property
    def tradeoff(self) -> bool:
        eps = max(_OBJ_EPS[self.secondary], 1e-6)
        return self.gap > eps


def tradeoff_report(c: LayeredCircuit, g: HardwareGraph, fid: FidelityModel,
                    primary: str, secondary: str,
                    lim: SolveLimits | None = None) -> TradeoffReport:
    """Does optimizing ``primary`` first cost anything in ``secondary``?

    Compares the stage-2 optimum of the lexicographic run against the
    unconstrained optimum of ``secondary`` on the same model.
    """
    lex = lexicographic_solve(c, g, fid, (primary, secondary), lim)
    vs, p = assemble_problem(c, g, fid, objective=secondary,
                             crosstalk_mode="crosstalk" in (primary, secondary))
    free = solve_branch_and_bound(p, lim or SolveLimits())
    if free.status == SolveStatus.INFEASIBLE or free.objective is None:
        raise LexError("unconstrained comparison solve did not close")
    return TradeoffReport(primary=primary, secondary=secondary,
                          constrained_value=lex.stage_values[1],
                          unconstrained_value=free.objective)


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
