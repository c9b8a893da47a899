import math

import numpy as np
import pytest

from helpers import prepared, random_layered_circuit
import qaroute.lexopt
from qaroute.bipmodel import Row, assemble_problem, set_objective
from qaroute.circuit import insert_dummy_steps, pad_qubits
from qaroute.extract import decode
from qaroute.gatefid import FidelityModel
from qaroute.hwgraph import HardwareGraph
from qaroute.lexopt import (LexError, ParetoPoint, _budget_row, default_step_size,
                            lexicographic_solve, pareto_sweep, sweep_table)
from qaroute.qvbench import gen_qv_circuit, lower_circuit
from qaroute.solver import _OBJ_EPS, SolveLimits, SolveStatus, solve_branch_and_bound


@pytest.fixture(scope="module")
def inst(line4):
    c = random_layered_circuit(4, (2, 2), seed=31)
    return prepared(c, line4, 2)


def test_two_stage_respects_stage_one_budget(inst, line4):
    c, fid = inst
    lex = lexicographic_solve(c, line4, fid, ("error", "depth"))
    assert lex.closed
    assert lex.order == ("error", "depth")
    _, p_err = assemble_problem(c, line4, fid, objective="error")
    pure = solve_branch_and_bound(p_err, SolveLimits())
    assert lex.stage_values[0] == pytest.approx(pure.objective, abs=1e-9)
    achieved_error = float(np.dot(p_err.objective, lex.result.assignment))
    assert achieved_error <= lex.stage_values[0] + 1e-6
    # The final incumbent's depth equals the recorded stage-2 optimum.
    n_dummy_used = sum(int(lex.result.assignment[lex.vs.z(t)])
                       for t in c.dummy_steps)
    assert n_dummy_used == lex.stage_values[1]


def test_order_validation(inst, line4):
    c, fid = inst
    for bad in ((), ("error", "error"), ("error", "speed")):
        with pytest.raises(LexError):
            lexicographic_solve(c, line4, fid, bad)


def test_three_stage_with_crosstalk(y6):
    c = random_layered_circuit(6, (2, 2), seed=32)
    c, fid = prepared(c, y6, 1)
    lex = lexicographic_solve(c, y6, fid, ("error", "depth", "crosstalk"))
    assert lex.closed
    assert len(lex.stage_values) == 3
    assert lex.stage_values[2] >= 0.0
    rc = decode(lex.vs, lex.result.assignment, c, y6, fid)
    assert rc.time_aligned


def test_default_step_size(inst):
    _, fid = inst
    assert default_step_size("error", fid) == pytest.approx(-3.0 * math.log(0.9936))
    assert default_step_size("depth", fid) == 1.0
    assert default_step_size("crosstalk", fid) == 1.0


def test_sweep_monotone_and_anchored(inst, line4):
    c, fid = inst
    lex = lexicographic_solve(c, line4, fid, ("error", "depth"))
    points = pareto_sweep(c, line4, fid, ("error", "depth"), steps=3)
    assert [pt.step_index for pt in points] == [0, 1, 2]
    assert points[0].secondary_value == pytest.approx(lex.stage_values[1], abs=1e-9)
    secondaries = [pt.secondary_value for pt in points]
    assert all(a >= b - 1e-9 for a, b in zip(secondaries, secondaries[1:]))
    for s, pt in enumerate(points):
        budget = lex.stage_values[0] + 1e-6 + s * default_step_size("error", fid)
        assert pt.primary_value <= budget + 1e-9
        assert pt.tertiary_value is None
        assert len(pt.values()) == 2


def test_sweep_point_never_dominated_by_the_previous(grid6):
    # A cold start could settle on a point with the same depth and more
    # error than the point before it; from the previous point's
    # assignment it keeps that point unless the depth strictly improves.
    raw = lower_circuit(gen_qv_circuit(4, [202, 0]), n_layers=3)
    c = insert_dummy_steps(pad_qubits(raw, grid6.n), 2)
    fid = FidelityModel.build(c, grid6)
    points = pareto_sweep(c, grid6, fid, ("error", "depth"), steps=3)
    for a, b in zip(points, points[1:]):
        no_worse = (a.primary_value <= b.primary_value + 1e-9
                    and a.secondary_value <= b.secondary_value)
        better = (a.primary_value < b.primary_value - 1e-9
                  or a.secondary_value < b.secondary_value)
        assert not (no_worse and better), (a, b)


def test_closed_needs_every_stage_proved(grid6):
    # Stage 1 stops at the node limit with an incumbent. The limit covers
    # the whole run, so stage 2 keeps that incumbent without a search: its
    # value is the incumbent's depth, unproven, and the run is not closed.
    c = insert_dummy_steps(pad_qubits(lower_circuit(gen_qv_circuit(4, [6, 0]), n_layers=2),
                                      grid6.n), 2)
    fid = FidelityModel.build(c, grid6)
    lim = SolveLimits(node_limit=50)
    vs, p_err = assemble_problem(c, grid6, fid, objective="error")
    first = solve_branch_and_bound(p_err, lim)
    assert first.status is SolveStatus.FEASIBLE
    lex = lexicographic_solve(c, grid6, fid, ("error", "depth"), lim)
    assert lex.stage_values[0] == first.objective
    assert lex.result.status is SolveStatus.FEASIBLE
    assert lex.result.nodes == 0
    assert np.array_equal(lex.result.assignment, first.assignment)
    depth = set_objective(p_err, vs, "depth", fid).objective_value(first.assignment)
    assert lex.stage_values[1] == depth
    assert not lex.closed


def record_limits(monkeypatch) -> list:
    """Record the limits and the result of every stage solve."""
    calls = []
    solve = qaroute.lexopt.solve_branch_and_bound

    def recording(p, lim, incumbent=None):
        calls.append((lim, solve(p, lim, incumbent=incumbent)))
        return calls[-1][1]

    monkeypatch.setattr(qaroute.lexopt, "solve_branch_and_bound", recording)
    return calls


def test_stages_share_one_limit(inst, line4, monkeypatch):
    # One node budget and one deadline cover both stages: stage 2 gets
    # what stage 1 left. A budget one node short of both proofs would
    # close each stage alone, but not the run.
    c, fid = inst
    calls = record_limits(monkeypatch)
    assert lexicographic_solve(c, line4, fid, ("error", "depth")).closed
    n1, n2 = (res.nodes for _, res in calls)
    assert n2 >= 2
    calls.clear()
    lex = lexicographic_solve(c, line4, fid, ("error", "depth"),
                              SolveLimits(time_limit=60.0, node_limit=n1 + n2 - 1))
    (lim1, res1), (lim2, res2) = calls
    assert lim1.node_limit == n1 + n2 - 1 and res1.nodes == n1
    assert res1.status is SolveStatus.OPTIMAL
    assert lim2.node_limit == n2 - 1
    assert lim2.time_limit < lim1.time_limit <= 60.0
    assert res2.status is SolveStatus.FEASIBLE
    assert not lex.closed


def test_sweep_points_share_the_run_limit(inst, line4, monkeypatch):
    # Stage 1 of the sweep proves its optimum with the last node of the
    # run's budget, so no sweep point searches: each keeps stage 1's
    # assignment, unproven.
    c, fid = inst
    calls = record_limits(monkeypatch)
    lexicographic_solve(c, line4, fid, ("error",))
    n1 = calls[0][1].nodes
    calls.clear()
    points = pareto_sweep(c, line4, fid, ("error", "depth"), steps=3,
                          lim=SolveLimits(node_limit=n1))
    assert len(calls) == 1
    first = calls[0][1]
    assert first.status is SolveStatus.OPTIMAL
    for pt in points:
        assert not pt.closed
        assert pt.primary_value == pytest.approx(first.objective, abs=1e-12)


def test_depth_stage_tries_no_swap_layer_first(grid6):
    # Stage 1 stops early at an incumbent of depth 4. The depth stage,
    # started from that incumbent under its loose error budget, branches
    # on its swap-layer indicators first, each at 0, so it finds a depth-0
    # routing within a few dozen nodes; placing qubits first took over
    # 12,000.
    c = insert_dummy_steps(pad_qubits(lower_circuit(gen_qv_circuit(4, [202, 0]), n_layers=4),
                                      grid6.n), 2)
    fid = FidelityModel.build(c, grid6)
    vs, p_err = assemble_problem(c, grid6, fid, objective="error")
    first = solve_branch_and_bound(p_err, SolveLimits(node_limit=2000))
    assert first.status is SolveStatus.FEASIBLE
    p_depth = set_objective(p_err, vs, "depth", fid)
    assert p_depth.objective_value(first.assignment) == 4.0
    budget = _budget_row(p_err.objective, first.objective + _OBJ_EPS["error"])
    second = solve_branch_and_bound(p_depth.with_rows([budget]), SolveLimits(node_limit=2000),
                                    incumbent=first.assignment)
    assert second.objective == 0.0
    assert second.status is SolveStatus.OPTIMAL
    assert second.nodes <= 100


def test_sweep_argument_validation(inst, line4):
    c, fid = inst
    with pytest.raises(LexError):
        pareto_sweep(c, line4, fid, ("error",), steps=2)
    with pytest.raises(LexError):
        pareto_sweep(c, line4, fid, ("error", "depth"), steps=0)
    # With every beta at 1 a swap costs nothing, so the error step is 0.
    perfect = HardwareGraph(n=4, edges=line4.edges, beta={e: 1.0 for e in line4.edges})
    with pytest.raises(LexError, match="step size"):
        pareto_sweep(c, perfect, FidelityModel.build(c, perfect), ("error", "depth"), steps=1)
    single = pareto_sweep(c, line4, fid, ("error", "depth"), steps=1)
    assert len(single) == 1


def test_sweep_table_layout():
    sweeps = {
        "a": [ParetoPoint(0, 2.0, 3.0, True), ParetoPoint(1, 2.5, 1.0, True)],
        "b": [ParetoPoint(0, 0.0, 4.0, True), ParetoPoint(1, 0.5, 4.0, True)],
    }
    text = sweep_table(sweeps, ("error", "depth"))
    lines = text.strip().split("\n")
    assert lines[0] == "circuit\tstep\tobjective\tvalue\tincrease_vs_min"
    assert len(lines) == 1 + 2 * 2 * 2
    # Relative increase for a nonzero minimum, absolute for a zero one.
    row_a = next(l for l in lines if l.startswith("a\t1\terror"))
    assert row_a.split("\t")[4] == "0.25"
    row_b = next(l for l in lines if l.startswith("b\t1\terror"))
    assert row_b.split("\t")[4] == "0.5"


def test_row_hook_pins_initial_layout(inst, line4):
    c, fid = inst
    free = lexicographic_solve(c, line4, fid, ("error", "depth"))
    layout = decode(free.vs, free.result.assignment, c, line4, fid).initial_map

    def pin_rows(vs):
        return [Row(vars=(vs.w(q, layout[q], 0),), coefs=(1.0,), sense="=",
                    rhs=1.0, family="PIN_INIT")
                for q in range(4)]

    lex = lexicographic_solve(c, line4, fid, ("error", "depth"), row_hook=pin_rows)
    rc = decode(lex.vs, lex.result.assignment, c, line4, fid)
    assert rc.initial_map == layout
    # Pinning to the free optimum's own layout cannot change the optimum.
    assert lex.stage_values[0] == pytest.approx(free.stage_values[0], abs=1e-9)
