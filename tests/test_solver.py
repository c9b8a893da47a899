import itertools
import math
import time
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import qaroute.qvbench
import qaroute.solver
from helpers import (CX, line4_five_gate_circuit, prepared, qv_prefix,
                     random_layered_circuit, reference_solution_text)
from qaroute.bipmodel import ModelError, Row, assemble_problem
from qaroute.circuit import Gate, LayeredCircuit, insert_dummy_steps
from qaroute.extract import FreeSwap, GateOp, routed_to_json, stats, verify_structural
from qaroute.gatefid import FidelityModel, load_fidelity_overrides
from qaroute.heuristic import heuristic_layout, heuristic_route, run_variant_full
from qaroute.hwgraph import HardwareGraph, builtin_topology, enumerate_matchings, norm_edge
from qaroute.lexopt import lexicographic_solve
from qaroute.modelio import export_model, export_solution, import_model, import_solution
from qaroute.qvbench import haar_su4
from qaroute.solver import (DPTooLarge, NoIncumbentError, NoRouteError, SolutionInfeasibleError,
                            SolveError, SolveLimits, SolveStatus, _Bound, _LayoutSpace,
                            _placements, _Prices, _swap_table, exhaustive_bytes,
                            solve_branch_and_bound, solve_exhaustive)


def small_instance(g, layer_sizes, seed, k=1, objective="error"):
    c = random_layered_circuit(4 if g.n == 4 else g.n, layer_sizes, seed)
    c, fid = prepared(c, g, k)
    vs, p = assemble_problem(c, g, fid, objective=objective)
    return c, fid, vs, p


def test_limits_validation():
    with pytest.raises(SolveError):
        SolveLimits(time_limit=0.0)
    with pytest.raises(SolveError):
        SolveLimits(time_limit=float("nan"))
    with pytest.raises(SolveError):
        SolveLimits(node_limit=0)
    SolveLimits(time_limit=5.0, node_limit=10)
    SolveLimits(time_limit=float("inf"))  # no limit


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_error_objective_matches_exhaustive(line4, seed):
    c, fid, vs, p = small_instance(line4, (2, 2), seed)
    res = solve_branch_and_bound(p, SolveLimits())
    assert res.status is SolveStatus.OPTIMAL
    (val,), rc = solve_exhaustive(c, line4, fid, ("error",))
    assert res.objective == pytest.approx(val, abs=1e-9)
    assert res.dual_bound == pytest.approx(res.objective, abs=1e-9)
    assert res.gap == pytest.approx(0.0, abs=1e-12)


def test_depth_objective_matches_exhaustive(line4):
    c, fid, vs, p = small_instance(line4, (2, 2), 5, k=2, objective="depth")
    res = solve_branch_and_bound(p, SolveLimits())
    (val,), rc = solve_exhaustive(c, line4, fid, ("depth",))
    assert res.status is SolveStatus.OPTIMAL
    assert res.objective == pytest.approx(val, abs=1e-9)


def test_crosstalk_objective_matches_exhaustive(y6):
    c = random_layered_circuit(6, (2, 2), seed=6)
    c, fid = prepared(c, y6, 1)
    vs, p = assemble_problem(c, y6, fid, objective="crosstalk")
    res = solve_branch_and_bound(p, SolveLimits())
    (val,), rc = solve_exhaustive(c, y6, fid, ("crosstalk",))
    assert res.status is SolveStatus.OPTIMAL
    assert res.objective == pytest.approx(val, abs=1e-9)


def test_exhaustive_lexicographic_tuple(line4):
    c, fid, vs, p = small_instance(line4, (2,), 7, k=1)
    val, rc = solve_exhaustive(c, line4, fid, ("error", "depth"))
    assert isinstance(val, tuple) and len(val) == 2
    res = solve_branch_and_bound(p, SolveLimits())
    assert val[0] == pytest.approx(res.objective, abs=1e-9)


def test_infeasible_detection(line4):
    c, fid, vs, p = small_instance(line4, (2,), 8)
    # Pin one qubit to two nodes at once.
    p2 = p.with_rows([
        Row(vars=(vs.w(0, 0, 0),), coefs=(1.0,), sense="=", rhs=1.0, family="PIN"),
        Row(vars=(vs.w(0, 1, 0),), coefs=(1.0,), sense="=", rhs=1.0, family="PIN"),
    ])
    res = solve_branch_and_bound(p2, SolveLimits())
    assert res.status is SolveStatus.INFEASIBLE
    assert res.assignment is None


def test_node_limit_reports_incumbent_or_gap(line4):
    c, fid, vs, p = small_instance(line4, (2, 2, 2), 10, k=2)
    res = solve_branch_and_bound(p, SolveLimits(node_limit=25))
    full = solve_branch_and_bound(p, SolveLimits())
    assert res.nodes <= 26
    if res.status is SolveStatus.FEASIBLE:
        assert res.objective >= full.objective - 1e-9
        assert res.dual_bound <= full.objective + 1e-9
        assert res.gap >= 0.0
    else:
        assert res.status is SolveStatus.OPTIMAL


def _depth_optimum(c, g, fid):
    """A feasible assignment of the error problem's rows, chosen for depth."""
    _, p_depth = assemble_problem(c, g, fid, objective="depth")
    return solve_branch_and_bound(p_depth, SolveLimits()).assignment


def test_infeasible_incumbent_raises(line4):
    c, fid, vs, p = small_instance(line4, (2, 2), 0)
    opt = solve_branch_and_bound(p, SolveLimits())
    with pytest.raises(SolutionInfeasibleError) as err:
        solve_branch_and_bound(p, SolveLimits(), incumbent=np.zeros(p.num_vars, np.int8))
    assert err.value.row.family == "QUBIT"
    # Only the last row is violated: a budget below the optimum.
    below = Row(vars=tuple(range(p.num_vars)), coefs=tuple(float(x) for x in p.objective),
                sense="<=", rhs=opt.objective - 0.01, family="OBJ_CUTOFF")
    with pytest.raises(SolutionInfeasibleError) as err:
        solve_branch_and_bound(p.with_rows([below]), SolveLimits(), incumbent=opt.assignment)
    assert err.value.row.family == "OBJ_CUTOFF"
    not_binary = opt.assignment.astype(float)
    not_binary[0] = 0.5
    for bad in (opt.assignment[:-1], not_binary):
        with pytest.raises(SolveError):
            solve_branch_and_bound(p, SolveLimits(), incumbent=bad)


def test_optimal_incumbent_returns_optimal(line4):
    c, fid, vs, p = small_instance(line4, (2, 2), 1)
    cold = solve_branch_and_bound(p, SolveLimits())
    warm = solve_branch_and_bound(p, SolveLimits(), incumbent=cold.assignment)
    assert warm.status is SolveStatus.OPTIMAL
    assert warm.objective == pytest.approx(cold.objective, abs=1e-12)
    assert warm.dual_bound == warm.objective
    assert np.array_equal(warm.assignment, cold.assignment)
    assert warm.nodes <= cold.nodes


def test_node_limit_keeps_the_incumbent(line4):
    c, fid, vs, p = small_instance(line4, (2, 2), 2)
    start = _depth_optimum(c, line4, fid)
    res = solve_branch_and_bound(p, SolveLimits(node_limit=1), incumbent=start)
    assert res.status is SolveStatus.FEASIBLE
    assert res.objective == pytest.approx(p.objective_value(start), abs=1e-12)
    assert np.array_equal(res.assignment, start)
    assert res.dual_bound <= res.objective


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_warm_and_cold_reach_the_same_optimum(line4, seed):
    c, fid, vs, p = small_instance(line4, (2, 2), seed)
    cold = solve_branch_and_bound(p, SolveLimits())
    warm = solve_branch_and_bound(p, SolveLimits(), incumbent=_depth_optimum(c, line4, fid))
    assert warm.status is SolveStatus.OPTIMAL
    assert warm.objective == pytest.approx(cold.objective, abs=1e-9)


# Every gate needs three CNOTs alone but none merged with a swap of its
# operands, so merging is cheaper than running plain and the movement
# variables that merge a swap carry negative costs.
MERGE_FOR_FREE = {"f": [0.1, 0.1, 0.1, 1.0], "f_swap": [1.0, 1.0, 1.0, 1.0]}


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_merged_gates_cheaper_than_plain_match_exhaustive(line4, seed):
    c = random_layered_circuit(4, (2, 2), seed)
    overrides = load_fidelity_overrides({str(gt.gid): MERGE_FOR_FREE for gt in c.gates()})
    c, fid = prepared(c, line4, 2, overrides=overrides)
    _, p = assemble_problem(c, line4, fid, objective="error")
    assert (p.objective < 0.0).any()
    (want,), _ = solve_exhaustive(c, line4, fid, ("error",))
    res = solve_branch_and_bound(p, SolveLimits())
    assert res.status is SolveStatus.OPTIMAL
    assert res.objective == pytest.approx(want, abs=1e-9)
    (err, depth), _ = solve_exhaustive(c, line4, fid, ("error", "depth"))
    lex = lexicographic_solve(c, line4, fid, ("error", "depth"))
    assert lex.closed
    assert lex.stage_values[0] == pytest.approx(err, abs=1e-9)
    assert lex.stage_values[1] == depth
    # An imported model has no gate arcs: its negative costs are bounded
    # as free variables.
    for fmt in ("lp", "mps"):
        back = solve_branch_and_bound(import_model(export_model(p, fmt)), SolveLimits())
        assert back.status is SolveStatus.OPTIMAL
        assert back.objective == pytest.approx(want, abs=1e-9)


def test_lp_round_trip_byte_identical(line4):
    c = line4_five_gate_circuit()
    fid = FidelityModel.build(c, line4)
    _, p = assemble_problem(c, line4, fid, objective="error")
    text = export_model(p, "lp")
    back = import_model(text)
    assert export_model(back, "lp") == text


def test_mps_round_trip_byte_identical(line4):
    c = line4_five_gate_circuit()
    fid = FidelityModel.build(c, line4)
    _, p = assemble_problem(c, line4, fid, objective="error")
    text = export_model(p, "mps")
    back = import_model(text)
    assert export_model(back, "mps") == text


def test_imported_model_solves_to_same_optimum(line4):
    c, fid, vs, p = small_instance(line4, (2, 2), 12)
    res = solve_branch_and_bound(p, SolveLimits())
    for fmt in ("lp", "mps"):
        back = import_model(export_model(p, fmt))
        res2 = solve_branch_and_bound(back, SolveLimits())
        assert res2.objective == pytest.approx(res.objective, abs=1e-9)


def test_export_unknown_format(line4):
    c, fid, vs, p = small_instance(line4, (1,), 13)
    with pytest.raises(SolveError):
        export_model(p, "gms")


def test_solution_round_trip(line4):
    c, fid, vs, p = small_instance(line4, (2, 2), 14)
    res = solve_branch_and_bound(p, SolveLimits())
    text = export_solution(p, res.assignment)
    back = import_solution(p, text)
    assert back.status is SolveStatus.FEASIBLE
    assert back.objective == pytest.approx(res.objective, abs=1e-12)
    assert np.array_equal(back.assignment, res.assignment)


def test_import_solution_rejects_gibberish(line4):
    c = line4_five_gate_circuit()
    fid = FidelityModel.build(c, line4)
    _, p = assemble_problem(c, line4, fid, objective="error")
    with pytest.raises(SolveError):
        import_solution(p, "w_0_0_0 2\n")
    with pytest.raises(SolveError):
        import_solution(p, "nonsense_var 1\n")
    with pytest.raises(SolveError):
        import_solution(p, "w_0_0_0\n")


def test_import_model_rejects_malformed_documents():
    with pytest.raises(SolveError):
        import_model("Minimize\n obj: + abc x\nSubject To\nBinary\n x\nEnd\n")
    with pytest.raises(SolveError):
        import_model("NAME          ROUTING\nROWS\n Q  r0\nENDATA\n")


def test_import_model_refuses_mps_ranges():
    # Row c_0 with RHS 2 and range 1 reads 1 <= x + y <= 2. The model
    # has no two-sided row, so the section is refused, not dropped.
    text = ("NAME          ROUTING\nROWS\n N  obj\n L  c_0\nCOLUMNS\n"
            "    x               c_0                 1\n"
            "    y               c_0                 1\n"
            "RHS\n    RHS             c_0                 2\n"
            "RANGES\n    RNG             c_0                 1\n"
            "BOUNDS\n BV BND          x\n BV BND          y\nENDATA\n")
    with pytest.raises(SolveError, match="RANGES"):
        import_model(text)
    # Without the section, the same document reads x + y <= 2.
    (row,) = import_model(text.replace("RANGES\n    RNG             c_0                 1\n",
                                       "")).rows
    assert (row.vars, row.coefs, row.sense, row.rhs) == ((0, 1), (1.0, 1.0), "<=", 2.0)


def test_import_solution_flags_violated_family(line4):
    c = line4_five_gate_circuit()
    fid = FidelityModel.build(c, line4)
    _, p = assemble_problem(c, line4, fid, objective="error")
    # All-zero assignment violates the first assignment row.
    with pytest.raises(SolutionInfeasibleError) as err:
        import_solution(p, "# nothing set\n")
    assert err.value.row.family == "QUBIT"
    assert "QUBIT" in str(err.value)


def test_import_solution_accepts_reference(line4):
    c = line4_five_gate_circuit()
    fid = FidelityModel.build(c, line4)
    _, p = assemble_problem(c, line4, fid, objective="error")
    res = import_solution(p, reference_solution_text())
    assert res.status is SolveStatus.FEASIBLE
    # Three merged three-CNOT units cost strictly more than the optimum.
    best = solve_branch_and_bound(p, SolveLimits())
    assert res.objective > best.objective - 1e-12


def qv_instance(g, width, layers, index=0, dummy_steps=2):
    _, c = qaroute.qvbench.qv_instance(width, [202, index], g.n, layers, dummy_steps)
    return c, FidelityModel.build(c, g)


def dp_need(c, g, objectives: int) -> int:
    """``exhaustive_bytes`` of solving ``c`` on ``g``, as the DP counts it."""
    active = len({q for gate in c.gates() for q in gate.operands})
    takeable = sum(math.comb(len(g.edges), k) for k in range(active + 1))
    return exhaustive_bytes(g.n, len(g.edges), active, c.num_steps, objectives, takeable)


@pytest.mark.parametrize("topology, n, width, layers", [
    ("grid", 8, 6, 3), ("grid", 8, 8, None), ("y", 8, 6, 4), ("line", 10, 6, 3),
    ("line", 12, 6, 3)],
    ids=["6-3", "8-None", "y-8/w6/4L", "line-10/w6/3L", "line-12/w6/3L"])
def test_byte_estimate_bounds_the_dp_peak(topology, n, width, layers):
    # grid-8/w6/3L/s0, grid-8/w8 at full depth (22 steps), y-8/w6/4L/s0
    # (most of its steps pull into the next step's states), line-10/w6/3L
    # and line-12/w6/3L (665,280 placements): the count the DP is
    # admitted by covers what it allocates, and not by much.
    g = builtin_topology(topology, n)
    c, fid = qv_instance(g, width, layers)
    estimate = dp_need(c, g, 2)
    tracemalloc.start()
    try:
        solve_exhaustive(c, g, fid, ("error", "depth"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= estimate <= 3 * peak


def test_instance_past_the_memory_bound_is_refused_at_once():
    # Eight active qubits on line-16 have 5.2e8 placements: refused before
    # the matchings are listed or any state array is built.
    g = builtin_topology("line", 16)
    c, fid = prepared(random_layered_circuit(8, (4, 4), seed=15), g, 1)
    tracemalloc.start()
    try:
        with pytest.raises(DPTooLarge):
            solve_exhaustive(c, g, fid, ("error", "depth"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def test_time_limit_stops_the_dp(line4):
    c, fid, _, _ = small_instance(line4, (2, 2), 0)
    with pytest.raises(NoIncumbentError):
        solve_exhaustive(c, line4, fid, ("error", "depth"), lim=SolveLimits(time_limit=1e-9))


def test_time_limit_stops_the_dp_while_it_builds_its_tables():
    # line-14 with six active qubits has 2,162,160 placements and 13
    # edge tables to build before the first step; the limit is checked
    # after the placements and after each table.
    line14 = builtin_topology("line", 14)
    c, fid = qv_instance(line14, 6, 3)
    start = time.perf_counter()
    with pytest.raises(NoIncumbentError):
        solve_exhaustive(c, line14, fid, ("error", "depth"), lim=SolveLimits(time_limit=0.01))
    assert time.perf_counter() - start < 2.0


def test_time_limit_stops_the_dp_after_it_lists_its_matchings(monkeypatch):
    # Three active qubits on line-62 can take 34,341 matchings, listed in
    # a few hundredths of a second; the limit is checked once they are
    # listed, before any placement.
    monkeypatch.setattr(qaroute.solver, "_placements",
                        lambda n, a: pytest.fail("placements built past the limit"))
    line62 = builtin_topology("line", 62)
    c, fid = prepared(qv_prefix(3, [202, 1], 2), line62, 1)
    start = time.perf_counter()
    with pytest.raises(NoIncumbentError):
        solve_exhaustive(c, line62, fid, ("error", "depth"), lim=SolveLimits(time_limit=0.01))
    assert time.perf_counter() - start < 2.0


def test_held_spaces_and_the_running_solve_fit_the_memory_bound(monkeypatch):
    # Spaces of other keys go, least recently used first, until the
    # solve's estimate and every space still held fit DP_MEMORY.
    graph = {"A": builtin_topology("line", 6), "B": builtin_topology("y", 6),
             "C": builtin_topology("grid", 8)}
    width = {"A": 4, "B": 4, "C": 6}  # QV circuits: every qubit is active
    inst = {k: qv_instance(graph[k], width[k], 3) for k in graph}
    name = {(graph[k].n, graph[k].edges, width[k]): k for k in graph}
    need = {k: dp_need(inst[k][0], graph[k], 2) for k in graph}
    held = {k: _LayoutSpace(graph[k].n, graph[k].edges, width[k], math.inf).nbytes
            for k in graph}
    memory = need["C"] + held["A"] + held["B"] - 1
    assert need["A"] + held["B"] <= memory and need["B"] + held["A"] <= memory
    monkeypatch.setattr(qaroute.solver, "DP_MEMORY", memory)
    seen = []
    relax = qaroute.solver._relax

    def spy(space, *args):
        seen.append(sum(s.nbytes for s in qaroute.solver._spaces.values() if s is not space))
        return relax(space, *args)

    monkeypatch.setattr(qaroute.solver, "_relax", spy)
    kept = []
    for k in "ABAC":
        seen.clear()
        c, fid = inst[k]
        solve_exhaustive(c, graph[k], fid, ("error", "depth"))
        assert seen and max(seen) + need[k] <= memory
        kept.append("".join(name[key] for key in qaroute.solver._spaces))
    assert kept == ["A", "AB", "BA", "AC"]  # B, used least recently, went first
    assert [s.nbytes for s in qaroute.solver._spaces.values()] == [held["A"], held["C"]]


def test_a_build_the_time_limit_stops_caches_nothing(monkeypatch):
    # The clock passes the limit at the third of grid-8's ten edge
    # tables: the solve stops there and keeps no half-built space.
    g = builtin_topology("grid", 8)
    c, fid = qv_instance(g, 6, 3)
    reads = itertools.count()
    monkeypatch.setattr(qaroute.solver, "time",
                        SimpleNamespace(perf_counter=lambda: 0.0 if next(reads) < 5 else 86400.0))
    with pytest.raises(NoIncumbentError):
        solve_exhaustive(c, g, fid, ("error", "depth"), lim=SolveLimits(time_limit=60.0))
    assert next(reads) == 6
    assert qaroute.solver._spaces == {}


def test_cached_spaces_reject_writes(grid8):
    c, fid = qv_instance(grid8, 6, 3)
    solve_exhaustive(c, grid8, fid, ("error", "depth"))
    (space,) = qaroute.solver._spaces.values()
    arrays = [x for x in vars(space).values() if isinstance(x, np.ndarray)]
    assert len(arrays) == 7
    for x in arrays:
        with pytest.raises(ValueError, match="read-only"):
            x[(0,) * x.ndim] = 0
    assert isinstance(space.matchings, tuple)


@pytest.mark.parametrize("graph", ["line4", "y6", "grid6", "grid8", "y8"])
def test_swap_tables_are_involutions_that_trade_the_edge_nodes(graph, request):
    g = request.getfixturevalue(graph)
    for a in range(2, g.n + 1):
        states = _placements(g.n, a)
        assert states.T.tolist() == [list(p) for p in itertools.permutations(range(g.n), a)]
        everyone = np.arange(states.shape[1])
        for i, j in g.edges:
            table = _swap_table(states, g.n, i, j)
            assert (table[table] == everyone).all()
            traded = np.where(states == i, j, np.where(states == j, i, states))
            assert (states[:, table] == traded).all()


# Seeded instances whose steps run both ways. A step pulls into the next
# step's valid states when they are fewer than its live states: from a
# free layout, out of a one-gate step into a two-gate step, or out of a
# dummy step (where every state is valid) into a gate step. The other
# steps push, as do most steps from a pinned layout, which starts from
# one state.
SWEEP = [("line4", 4, (1, 2, 1), ("error", "depth")),
         ("y6", 4, (1, 2, 1), ("error", "depth")),
         ("grid6", 6, (3, 2), ("error", "depth")),
         ("y6", 4, (1, 2), ("crosstalk", "error"))]


@pytest.mark.parametrize("graph, width, layers, order", SWEEP)
@pytest.mark.parametrize("dummies", [0, 1, 2])
@pytest.mark.parametrize("pinned", [False, True])
def test_dp_steps_match_branch_and_bound(graph, width, layers, order, dummies, pinned,
                                         request):
    g = request.getfixturevalue(graph)
    c, fid = prepared(random_layered_circuit(width, layers, [19, dummies]), g, dummies)
    layout = heuristic_layout(c, g, seed=dummies) if pinned else None
    lex = lexicographic_solve(c, g, fid, order, initial_map=layout)
    value, rc = solve_exhaustive(c, g, fid, order, initial_map=layout)
    assert lex.closed
    for o, got, want in zip(order, value, lex.stage_values):
        if o == "error":
            assert got == pytest.approx(want, abs=1e-9)
        else:
            assert got == want
    assert verify_structural(rc, c, g) is None


@pytest.mark.parametrize("graph, width, layers", [("line4", 3, (1, 1, 1)),
                                                  ("y6", 4, (2, 1, 2)), ("grid6", 5, (2, 2))])
@pytest.mark.parametrize("budget", [1, 40])
@pytest.mark.parametrize("pinned", [False, True])
def test_steps_split_into_passes_change_nothing(graph, width, layers, budget, pinned,
                                                request, monkeypatch):
    # A pass budget of one candidate relaxes one matching per pass; 40
    # puts a few matchings of mixed sizes in each pass. Either way every
    # step after its first pass folds into the values an earlier pass
    # kept, and values and routes equal one pass per step.
    g = request.getfixturevalue(graph)
    c, fid = prepared(random_layered_circuit(width, layers, [31, width]), g, 2)
    layout = heuristic_layout(c, g, seed=1) if pinned else None
    order = ("crosstalk", "error", "depth")
    value, rc = solve_exhaustive(c, g, fid, order, initial_map=layout)
    monkeypatch.setattr(qaroute.solver, "DP_PASS", budget)
    split, rc_split = solve_exhaustive(c, g, fid, order, initial_map=layout)
    assert split == value
    assert routed_to_json(rc_split) == routed_to_json(rc)


@pytest.mark.parametrize("topo, n, width, layers", [("line", 5, 3, (1, 1, 1)),
                                                    ("y", 6, 4, (2, 1, 2)),
                                                    ("grid", 6, 4, (2, 2, 1))],
                         ids=["line-5", "y-6", "grid-6"])
@pytest.mark.parametrize("pinned", [False, True])
@pytest.mark.parametrize("drawn", [False, True])
def test_dp_floor_is_consistent_on_every_transition(topo, n, width, layers, pinned, drawn):
    # On every transition the DP may take from a state reachable from
    # step 0, the floor (its lower bound on the error still to come)
    # never exceeds the transition's cost plus the floor where it lands,
    # and at the last step never exceeds the gates' cost. At a gate-free
    # step it charges a state that cannot run the next gate layer in place
    # at least the least swap error above the gates' least errors.
    base = builtin_topology(topo, n)
    rng = np.random.default_rng([47, n, pinned, drawn])
    g = HardwareGraph(n, base.edges, beta={e: float(rng.uniform(0.95, 0.999))
                                           for e in base.edges} if drawn else {})
    c, fid = prepared(random_layered_circuit(width, layers, [47, n]), g, 2)
    m = c.num_steps
    active = sorted({q for gate in c.gates() for q in gate.operands})
    space = _LayoutSpace(n, g.edges, len(active), math.inf)
    prices = _Prices(c, g, fid, ("error",), active, (), space)
    floor_at = _Bound(lambda: math.inf, 0.0, prices, g).floor
    least_swap = min(fid.swap_error(*e) for e in g.edges)
    least_gates = [sum(min(fid.gate_error(gt.gid, i, j, merged=merged)
                           for i, j in g.edges for merged in (False, True)) for gt in grp)
                   for grp in c.groups]
    everywhere = np.arange(space.places)
    if pinned:
        layout = heuristic_layout(c, g, seed=1)
        at = np.array([layout[q] for q in active])[:, None]
        alive = np.flatnonzero((space.states == at).all(axis=0))
    else:
        alive = np.flatnonzero(space.valid(prices.gates_at[0]))
    checked = 0
    for t in range(m):
        floor = floor_at(space, t, alive)
        pos = {s: dict(zip(active, space.states[:, s].tolist())) for s in alive.tolist()}
        if not c.groups[t] and any(c.groups[t:]):
            ahead = next(grp for grp in c.groups[t:] if grp)
            stuck = [k for k, s in enumerate(alive.tolist())
                     if not all(g.has_edge(pos[s][gt.p], pos[s][gt.q]) for gt in ahead)]
            assert all(floor[k] >= sum(least_gates[t:]) + least_swap - 1e-12 for k in stuck)
        if t == m - 1:
            for k, s in enumerate(alive.tolist()):
                cost = sum(fid.gate_error(gt.gid, pos[s][gt.p], pos[s][gt.q])
                           for gt in c.groups[t])
                assert floor[k] <= cost + 1e-12
            break
        floor_next = floor_at(space, t + 1, everywhere)
        valid_next = space.valid(prices.gates_at[t + 1])
        ok = space.allowed(prices.gates_at[t], alive)
        reached = set()
        for M in space.matchings:
            edges = [space.eid[e] for e in M]
            for k in np.flatnonzero(ok[edges].all(axis=0)).tolist():
                s = x = int(alive[k])
                for e in edges:
                    x = int(space.flat[e * space.places + x])
                if not valid_next[x]:
                    continue
                swapped, cost = set(M), 0.0
                for gt in c.groups[t]:
                    i, j = pos[s][gt.p], pos[s][gt.q]
                    cost += fid.gate_error(gt.gid, i, j, merged=norm_edge(i, j) in swapped)
                    swapped.discard(norm_edge(i, j))
                cost += sum(fid.swap_error(*e) for e in swapped)
                assert floor[k] <= cost + floor_next[x] + 1e-12, (t, s, M)
                reached.add(x)
                checked += 1
        alive = np.array(sorted(reached), dtype=np.int64)
    assert checked > 0


def test_a_solve_that_never_asks_for_the_bound_builds_no_bound_tables(line4, monkeypatch):
    # No step of this instance takes more than one pass, so the DP never
    # calls the incumbent and builds none of the floor's tables; with a
    # pass budget of 0 it does each once, from step 0.
    built, asked = [], []
    tables = _Bound._tables
    monkeypatch.setattr(_Bound, "_tables", lambda self: built.append(self) or tables(self))

    def incumbent():
        asked.append(True)
        return math.inf

    c, fid, _, _ = small_instance(line4, (2, 2), 0)
    want = solve_exhaustive(c, line4, fid, ("error", "depth"))
    assert solve_exhaustive(c, line4, fid, ("error", "depth"), incumbent=incumbent) == want
    assert asked == [] and built == []
    monkeypatch.setattr(qaroute.solver, "DP_PASS", 0)
    assert solve_exhaustive(c, line4, fid, ("error", "depth"), incumbent=incumbent) == want
    assert len(asked) == 1 and len(built) == 1


# Every gate runs at no error plain but at fidelity 0.5 with a swap of
# its operands merged in.
MERGE_DEAR = {"f": [1.0, 1.0, 1.0, 1.0], "f_swap": [0.5, 0.5, 0.5, 0.5]}


@pytest.mark.parametrize("seed, routable", [(5, True), (0, False)])
def test_a_bound_below_the_dp_optimum_solves_again_without_it(line4, seed, routable,
                                                              monkeypatch):
    # With no dummy step the DP moves qubits only by merging swaps into
    # gates, which MERGE_DEAR prices far above the greedy route's free
    # swaps: the greedy error lies below the DP's optimum. The bounded
    # solve (due from step 0) keeps nothing within its bound and runs
    # again without it, to the unbounded result, or to NoRouteError where
    # the model has no route.
    c = random_layered_circuit(4, (2, 1, 2), [59, seed])
    overrides = load_fidelity_overrides({str(gt.gid): MERGE_DEAR for gt in c.gates()})
    c, fid = prepared(c, line4, 0, overrides=overrides)
    greedy = stats(heuristic_route(c, line4, heuristic_layout(c, line4), fid), fid,
                   line4).error_objective_value
    runs, run = [], qaroute.solver._run

    def recorded(*args):
        runs.append(run(*args))
        return runs[-1]

    monkeypatch.setattr(qaroute.solver, "_run", recorded)
    monkeypatch.setattr(qaroute.solver, "DP_PASS", 0)
    if not routable:
        with pytest.raises(NoRouteError):
            solve_exhaustive(c, line4, fid, ("error", "depth"), incumbent=lambda: greedy)
        assert runs == [None, None]
        return
    bounded = solve_exhaustive(c, line4, fid, ("error", "depth"), incumbent=lambda: greedy)
    assert len(runs) == 2 and runs[1] is not None
    assert runs[0] is None or runs[0][0][0] > greedy
    runs.clear()
    value, rc = solve_exhaustive(c, line4, fid, ("error", "depth"))
    assert len(runs) == 1
    assert greedy < value[0]
    assert bounded[0] == value
    assert routed_to_json(bounded[1]) == routed_to_json(rc)


def error_in_dp_order(rc, c, g, fid) -> float:
    """The route's error summed as the DP sums it: per step 0.0, plus its
    gates' plain errors in group order, plus per edge of its swap set, in
    the order ``enumerate_matchings`` lists that set, the merged minus
    plain error on a gate's own edge and the swap error elsewhere; the
    steps added in turn."""
    active = len({q for gate in c.gates() for q in gate.operands})
    listed = {frozenset(M): M for M in enumerate_matchings(g, active)}
    value = 0.0
    for group, ops in zip(c.groups, rc.steps):
        x, own = 0.0, {}
        arcs = {op.gid: op.arc for op in ops if isinstance(op, GateOp)}
        for gate in group:
            plain = fid.gate_error(gate.gid, *arcs[gate.gid])
            x += plain
            own[norm_edge(*arcs[gate.gid])] = fid.gate_error(gate.gid, *arcs[gate.gid],
                                                             merged=True) - plain
        swapped = {op.edge if isinstance(op, FreeSwap) else norm_edge(*op.arc)
                   for op in ops if isinstance(op, FreeSwap) or op.merged_swap}
        for e in listed[frozenset(swapped)]:
            x += own[e] if e in own else fid.swap_error(*e)
        value = value + x
    return value


@pytest.mark.parametrize("order", [("error",), ("depth", "error")])
def test_dp_error_adds_up_in_its_documented_order(order):
    # With a distinct beta per edge, three or more swap errors summed in
    # another order differ in their last bits. These pinned grid-8
    # instances take at least three free swaps at their dummy step.
    base = builtin_topology("grid", 8)
    rng = np.random.default_rng(43)
    g = HardwareGraph(8, base.edges, beta={e: float(rng.uniform(0.95, 0.999))
                                           for e in base.edges})
    for seed in (17, 18, 19):
        c, fid = prepared(random_layered_circuit(8, (1, 4), [41, seed]), g, 1)
        rng = np.random.default_rng([42, seed])
        layout = None
        while layout is None:  # a random layout that runs the first gate
            draw = tuple(int(v) for v in rng.permutation(8))
            if g.has_edge(draw[c.groups[0][0].p], draw[c.groups[0][0].q]):
                layout = draw
        value, rc = solve_exhaustive(c, g, fid, order, initial_map=layout)
        assert sum(isinstance(op, FreeSwap) for op in rc.steps[1]) >= 3
        assert value[order.index("error")] == error_in_dp_order(rc, c, g, fid)


def test_noise_models_on_one_graph_share_its_space_and_keep_their_own_errors():
    # Uniform and drawn per-edge betas on grid-8, solved in turn on one
    # cached space, each give what they give on a cold cache: the space
    # holds no swap error.
    base = builtin_topology("grid", 8)
    rng = np.random.default_rng(43)
    drawn = HardwareGraph(8, base.edges, beta={e: float(rng.uniform(0.95, 0.999))
                                               for e in base.edges})
    c = prepared(random_layered_circuit(8, (1, 4), [41, 17]), base, 1)[0]
    rng = np.random.default_rng([42, 17])
    layout = None
    while layout is None:  # a random layout that runs the first gate
        draw = tuple(int(v) for v in rng.permutation(8))
        if base.has_edge(draw[c.groups[0][0].p], draw[c.groups[0][0].q]):
            layout = draw
    runs = []
    for g in (base, drawn):
        fid = FidelityModel.build(c, g)
        qaroute.solver._spaces.clear()
        value, rc = solve_exhaustive(c, g, fid, ("error",), initial_map=layout)
        assert sum(isinstance(op, FreeSwap) for op in rc.steps[1]) >= 3
        runs.append((g, fid, value, routed_to_json(rc)))
    assert runs[0][2] != runs[1][2]
    for g, fid, value, text in runs * 2:
        again, rc = solve_exhaustive(c, g, fid, ("error",), initial_map=layout)
        assert (again, routed_to_json(rc)) == (value, text)
        assert len(qaroute.solver._spaces) == 1


def line8_crosstalk():
    """line-8 whose couplers two apart interfere, like line-6's."""
    edges = tuple((i, i + 1) for i in range(7))
    return HardwareGraph(n=8, edges=edges, crosstalk_pairs=tuple(zip(edges, edges[2:])))


# Graphs whose largest matchings have more edges than the circuit has
# active qubits, so the DP lists fewer matchings than the graph has.
UNTAKEABLE = [(line8_crosstalk, 3, (1, 1, 1), ("crosstalk", "error")),
              (line8_crosstalk, 3, (1, 1, 1), ("error", "crosstalk", "depth")),
              (lambda: builtin_topology("y", 8), 3, (1, 1, 1), ("error", "depth")),
              (lambda: builtin_topology("grid", 6), 2, (1, 1), ("error", "crosstalk")),
              (lambda: builtin_topology("line", 10), 4, (2, 1, 2), ("depth", "error"))]


@pytest.mark.parametrize("graph, width, layers, order", UNTAKEABLE,
                         ids=["line-8/w3/xt,err", "line-8/w3/err,xt,depth", "y-8/w3",
                              "grid-6/w2", "line-10/w4"])
@pytest.mark.parametrize("dummies", [0, 1, 2])
@pytest.mark.parametrize("pinned", [False, True])
def test_matchings_the_dp_cannot_take_change_nothing(graph, width, layers, order,
                                                      dummies, pinned, monkeypatch):
    # A swapped edge must move an active qubit, so a matching with more
    # edges than there are active qubits is never taken: handing the DP
    # every matching of the graph gives the same values and routes.
    g = graph()
    c, fid = prepared(random_layered_circuit(width, layers, [23, dummies]), g, dummies)
    active = len({q for gate in c.gates() for q in gate.operands})
    every = enumerate_matchings(g, g.n // 2)
    assert len(enumerate_matchings(g, active)) < len(every)
    layout = heuristic_layout(c, g, seed=dummies) if pinned else None
    value, rc = solve_exhaustive(c, g, fid, order, initial_map=layout)
    calls = []
    monkeypatch.setattr(qaroute.solver, "enumerate_matchings",
                        lambda _g, most: calls.append(most) or every)
    monkeypatch.setattr(qaroute.solver, "_spaces", {})  # rebuild the space with them
    value_all, rc_all = solve_exhaustive(c, g, fid, order, initial_map=layout)
    assert calls == [active]
    assert value_all == value
    assert routed_to_json(rc_all) == routed_to_json(rc)


def test_a_swap_layer_may_move_every_active_qubit(line4):
    # Pinned to the ends of line-4, both qubits must swap with their idle
    # neighbours before the gate: one layer with an edge per active qubit.
    c = LayeredCircuit(4, ((), (Gate(0, 1, haar_su4(0), gid=0),)))
    fid = FidelityModel.build(c, line4)
    (value,), rc = solve_exhaustive(c, line4, fid, ("error",), initial_map=(0, 3, 1, 2))
    assert value == pytest.approx(2 * fid.swap_error(0, 1) + fid.gate_error(0, 1, 2),
                                  abs=1e-12)
    assert verify_structural(rc, c, line4) is None


def test_via_indexes_more_matchings_than_int16_holds():
    # line-62 has 34,341 matchings that three active qubits can take,
    # past int16, and each step's via names the one its states took. Three qubits on a line with equal betas need no more
    # room than line-4 gives them, so the optimum equals line-4's, which
    # the branch and bound proves.
    qv = qv_prefix(3, [202, 1], 2)
    line62 = builtin_topology("line", 62)
    c, fid = prepared(qv, line62, 1)
    assert len({q for gate in c.gates() for q in gate.operands}) == 3
    run = run_variant_full("bip", c, line62, fid)
    assert run.closed
    assert verify_structural(run.routed, c, line62) is None
    line4 = builtin_topology("line", 4)
    c4, fid4 = prepared(qv, line4, 1)
    lex = lexicographic_solve(c4, line4, fid4, ("error", "depth"))
    assert lex.closed
    assert run.stats.error_objective_value == pytest.approx(lex.stage_values[0], abs=1e-9)


def hub_graph(pairs_between):
    """Three hubs each joined to 22 leaves: 66 edges, so edge ids reach 65,
    but only 10,693 matchings. Hubs 0 and 2 couple better than hub 1;
    ``pairs_between`` lists the hub pairs whose node-disjoint edges
    interfere."""
    edges = [(h, 3 + x) for h in range(3) for x in range(22)]
    beta = {e: 0.95 if e[0] == 1 else 0.999 for e in edges}
    pairs = [((h1, 3 + x), (h2, 3 + y)) for h1, h2 in pairs_between
             for x in range(22) for y in range(22) if x != y]
    return HardwareGraph(n=25, edges=tuple(edges), beta=beta, crosstalk_pairs=tuple(pairs))


def test_crosstalk_counts_edges_with_high_ids():
    # The least error puts one gate on a hub-0 edge and the other on a
    # hub-2 edge, and every such pair interferes; edges (2, 23) and
    # (2, 24) have ids 64 and 65.
    g = hub_graph([(0, 2)])
    assert len(g.crosstalk_edges) == 44
    c, fid = prepared(random_layered_circuit(4, (2,), seed=0), g, 0)
    (err, xt), rc = solve_exhaustive(c, g, fid, ("error", "crosstalk"))
    assert xt == 1.0
    assert stats(rc, fid, g).crosstalk_count == 1


def test_a_circuit_with_no_steps_routes_to_nothing(line4):
    c = LayeredCircuit(4, ())
    values, rc = solve_exhaustive(c, line4, FidelityModel.build(c, line4), ("error", "depth"))
    assert values == (0.0, 0.0)
    assert rc.steps == () and rc.initial_map == rc.final_map == (0, 1, 2, 3)
    assert verify_structural(rc, c, line4) is None


def test_a_circuit_with_no_steps_keeps_its_pinned_map(line4):
    c = LayeredCircuit(4, ())
    fid = FidelityModel.build(c, line4)
    values, rc = solve_exhaustive(c, line4, fid, ("error",), initial_map=(3, 2, 1, 0))
    assert values == (0.0,)
    assert rc.steps == () and rc.initial_map == rc.final_map == (3, 2, 1, 0)
    assert verify_structural(rc, c, line4) is None


def test_a_circuit_with_no_steps_routes_alike_in_both_engines(line4):
    c = LayeredCircuit(4, ())
    fid = FidelityModel.build(c, line4)
    for pin in (None, (3, 2, 1, 0)):
        values, rc = solve_exhaustive(c, line4, fid, ("error", "depth"), initial_map=pin)
        lex = lexicographic_solve(c, line4, fid, ("error", "depth"), initial_map=pin)
        assert lex.stage_values == values == (0.0, 0.0)
        assert lex.routed.initial_map == rc.initial_map == lex.routed.final_map
        assert lex.routed.steps == rc.steps == ()
    assert lexicographic_solve(c, line4, fid, ("error",), initial_map=(3, 2, 1, 0),
                               same_endpoints=True).routed.final_map == (3, 2, 1, 0)


def test_a_circuit_with_steps_but_no_gates_routes_alike_in_both_engines(line4):
    # No active qubit: nothing moves, and the route holds the pinned map,
    # or the identity, at every step.
    c = LayeredCircuit(4, ((), (), ()))
    fid = FidelityModel.build(c, line4)
    order = ("error", "depth", "crosstalk")
    for pin in (None, (3, 2, 1, 0)):
        values, rc = solve_exhaustive(c, line4, fid, order, initial_map=pin)
        lex = lexicographic_solve(c, line4, fid, order, initial_map=pin)
        assert lex.stage_values == values == (0.0, 0.0, 0.0)
        assert rc.initial_map == rc.final_map == (pin or (0, 1, 2, 3))
        assert rc.steps == ((), (), ())
        assert verify_structural(rc, c, line4) is None


def test_a_pinned_map_that_parts_a_first_layer_gate_has_no_route(line4):
    # Qubits 0 and 1 pinned to nodes 0 and 2: the first gate cannot run,
    # so the DP starts from no state at all.
    c = LayeredCircuit(4, ((Gate(0, 1, CX, gid=0),), (), (Gate(2, 3, CX, gid=1),)))
    fid = FidelityModel.build(c, line4)
    for engine in (solve_exhaustive, lexicographic_solve):
        with pytest.raises(NoRouteError) as err:
            engine(c, line4, fid, ("error", "depth"), initial_map=(0, 2, 1, 3))
        assert not isinstance(err.value, NoIncumbentError)


def test_both_engines_refuse_a_layer_wider_than_any_matching():
    # Every edge of a 5-node star meets its centre, so its two gates never
    # run at once: a bad input to either engine, not an instance with no route.
    g = HardwareGraph(5, ((0, 1), (0, 2), (0, 3), (0, 4)))
    c = LayeredCircuit(5, ((Gate(1, 2, CX, gid=0), Gate(3, 4, CX, gid=1)),))
    c = insert_dummy_steps(c, 1)
    fid = FidelityModel.build(c, g)
    for engine in (solve_exhaustive, lexicographic_solve):
        with pytest.raises(ModelError, match="a layer holds 2 gates"):
            engine(c, g, fid, ("error", "depth"))


def _clock_past_the_limit_after_start(monkeypatch):
    """The branch and bound's clock reads 0 when the search starts and a
    day later ever after, so a time limit has passed by its first check,
    at node 512."""
    ticks = iter([0.0])
    monkeypatch.setattr(qaroute.solver, "time",
                        SimpleNamespace(perf_counter=lambda: next(ticks, 86400.0)))


def test_time_stop_returns_the_search_unproven(line4, monkeypatch):
    c, fid = prepared(line4_five_gate_circuit(), line4, 2)
    _, p = assemble_problem(c, line4, fid, objective="error")
    full = solve_branch_and_bound(p)
    assert full.nodes > 512
    _clock_past_the_limit_after_start(monkeypatch)
    res = solve_branch_and_bound(p, SolveLimits(time_limit=60.0))
    assert res.nodes == 512 and res.status is SolveStatus.FEASIBLE
    assert res.objective >= full.objective - 1e-9
    assert res.dual_bound <= full.objective + 1e-9


def test_time_stop_before_any_incumbent_raises_no_incumbent_error(line6, monkeypatch):
    # The depth stage first looks for a route with no swap layer, and
    # 512 nodes do not end that search on this instance.
    c, fid = prepared(random_layered_circuit(6, (3, 3, 3), 0), line6, 1)
    _clock_past_the_limit_after_start(monkeypatch)
    with pytest.raises(NoIncumbentError, match="stage 1 hit its budget with no incumbent"):
        lexicographic_solve(c, line6, fid, ("depth", "error"), SolveLimits(time_limit=60.0))


def test_crosstalk_on_more_than_63_edges_is_refused():
    g = hub_graph([(0, 1), (0, 2), (1, 2)])
    assert len(g.crosstalk_edges) == 66
    c, fid = prepared(random_layered_circuit(4, (2,), seed=0), g, 0)
    with pytest.raises(SolveError, match="63 edges"):
        solve_exhaustive(c, g, fid, ("crosstalk",))
    (err, depth), _ = solve_exhaustive(c, g, fid, ("error", "depth"))
    assert depth == 0.0


def test_pinned_dp_matches_branch_and_bound_past_eight_nodes():
    # bip_routing runs the DP on line-10 from the greedy layout; B&B from
    # the same initial_map proves the same instance independently.
    line10 = builtin_topology("line", 10)
    c, fid = prepared(random_layered_circuit(4, (1, 1), 3), line10, 1)
    layout = heuristic_layout(c, line10)
    (err, depth), _ = solve_exhaustive(c, line10, fid, ("error", "depth"), initial_map=layout)
    run = run_variant_full("bip_routing", c, line10, fid)
    assert run.closed
    assert run.routed.initial_map == layout
    assert run.stats.error_objective_value == pytest.approx(err, abs=1e-12)
    lex = lexicographic_solve(c, line10, fid, ("error", "depth"), initial_map=layout)
    assert lex.closed
    assert err == pytest.approx(lex.stage_values[0], abs=1e-9)
    assert depth == lex.stage_values[1]


def test_exhaustive_lexicographic_ties_within_slack(line6):
    # Two routes reach the same error up to float rounding (...645 vs
    # ...622); the depth component must decide between them, not the
    # rounding. Branch and bound and HiGHS both prove depth 2 here.
    c, fid = qv_instance(line6, 6, 3, index=1)
    (err, depth), rc = solve_exhaustive(c, line6, fid, ("error", "depth"))
    assert depth == 2.0
    assert err == pytest.approx(0.22806097054182645, abs=1e-9)
    assert stats(rc, fid, line6).error_objective_value == pytest.approx(err, abs=1e-12)


# Padded instances whose idle qubits the DP leaves out of its state:
# the width is below the node count.
IDLE_CASES = [("line4", 2, (1, 1, 1)), ("line4", 3, (1, 1)), ("y6", 4, (2, 2)),
              ("grid6", 4, (2, 1, 2))]


@pytest.mark.parametrize("graph, width, layers", IDLE_CASES)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_dp_with_idle_qubits_matches_branch_and_bound(graph, width, layers, seed, request):
    g = request.getfixturevalue(graph)
    c, fid = prepared(random_layered_circuit(width, layers, [17, seed]), g, 1)
    (err, depth), rc = solve_exhaustive(c, g, fid, ("error", "depth"))
    lex = lexicographic_solve(c, g, fid, ("error", "depth"))
    assert lex.closed
    assert err == pytest.approx(lex.stage_values[0], abs=1e-9)
    assert depth == lex.stage_values[1]
    assert verify_structural(rc, c, g) is None
    assert stats(rc, fid, g).error_objective_value == pytest.approx(err, abs=1e-12)


@pytest.mark.parametrize("graph, width, layers", IDLE_CASES)
def test_pinned_dp_matches_branch_and_bound_with_pinned_rows(graph, width, layers, request):
    g = request.getfixturevalue(graph)
    c, fid = prepared(random_layered_circuit(width, layers, [18, 0]), g, 1)
    layout = heuristic_layout(c, g, seed=3)
    (err, depth), rc = solve_exhaustive(c, g, fid, ("error", "depth"), initial_map=layout)
    lex = lexicographic_solve(c, g, fid, ("error", "depth"), initial_map=layout)
    assert lex.closed
    assert rc.initial_map == layout
    assert err == pytest.approx(lex.stage_values[0], abs=1e-9)
    assert depth == lex.stage_values[1]
    assert verify_structural(rc, c, g) is None


def test_import_solution_rejects_non_numeric_value(line4):
    _, _, _, p = small_instance(line4, (2,), 0)
    with pytest.raises(SolveError, match="not a number"):
        import_solution(p, f"{p.names[0]} one\n")
