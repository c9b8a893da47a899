import numpy as np
import pytest

from helpers import (line4_five_gate_circuit, prepared,
                     random_layered_circuit, reference_solution_text)
from qaroute.bipmodel import Row, assemble_problem
from qaroute.circuit import insert_dummy_steps, pad_qubits
from qaroute.extract import stats, verify_structural
from qaroute.gatefid import FidelityModel, load_fidelity_overrides
from qaroute.heuristic import heuristic_layout
from qaroute.lexopt import lexicographic_solve
from qaroute.qvbench import gen_qv_circuit, lower_circuit
from qaroute.solver import (SolutionInfeasibleError, SolveError, SolveLimits,
                            SolveStatus, export_model, export_solution,
                            exhaustive_fits, import_model, import_solution,
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
        SolveLimits(node_limit=0)
    SolveLimits(time_limit=5.0, node_limit=10)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_error_objective_matches_exhaustive(line4, seed):
    c, fid, vs, p = small_instance(line4, (2, 2), seed)
    res = solve_branch_and_bound(p, SolveLimits())
    assert res.status is SolveStatus.OPTIMAL
    val, rc = solve_exhaustive(c, line4, fid, objective="error")
    assert res.objective == pytest.approx(val, abs=1e-9)
    assert res.dual_bound == pytest.approx(res.objective, abs=1e-9)
    assert res.gap == pytest.approx(0.0, abs=1e-12)


def test_depth_objective_matches_exhaustive(line4):
    c, fid, vs, p = small_instance(line4, (2, 2), 5, k=2, objective="depth")
    res = solve_branch_and_bound(p, SolveLimits())
    val, rc = solve_exhaustive(c, line4, fid, objective="depth")
    assert res.status is SolveStatus.OPTIMAL
    assert res.objective == pytest.approx(val, abs=1e-9)


def test_crosstalk_objective_matches_exhaustive(y6):
    c = random_layered_circuit(6, (2, 2), seed=6)
    c, fid = prepared(c, y6, 1)
    vs, p = assemble_problem(c, y6, fid, objective="crosstalk")
    res = solve_branch_and_bound(p, SolveLimits())
    val, rc = solve_exhaustive(c, y6, fid, objective="crosstalk")
    assert res.status is SolveStatus.OPTIMAL
    assert res.objective == pytest.approx(val, abs=1e-9)


def test_exhaustive_lexicographic_tuple(line4):
    c, fid, vs, p = small_instance(line4, (2,), 7, k=1)
    val, rc = solve_exhaustive(c, line4, fid, objective=("error", "depth"))
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
    want = solve_exhaustive(c, line4, fid, objective="error")[0]
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


def test_exhaustive_guard():
    from qaroute.hwgraph import builtin_topology
    big = builtin_topology("line", 10)
    c = random_layered_circuit(10, (2,), seed=15)
    c, fid = prepared(c, big, 0)
    with pytest.raises(SolveError):
        solve_exhaustive(c, big, fid, objective="error")


def test_guard_counts_placements_of_active_qubits():
    # grid-8 has 71 matchings. Over 19 steps, 8! layouts exceed the cap of
    # 5e7 transitions; the 56 placements of two active qubits do not. Each
    # matching of each step also counts DP_STEP_OVERHEAD transitions, so
    # the two active qubits are refused over 178 steps.
    from qaroute.hwgraph import builtin_topology
    g = builtin_topology("grid", 8)
    full, fid_full = prepared(random_layered_circuit(8, (4,) * 7, seed=16), g, 2)
    pair, fid_pair = prepared(random_layered_circuit(2, (1,) * 7, seed=16), g, 2)
    assert full.num_steps == pair.num_steps == 19
    assert not exhaustive_fits(full, g)
    with pytest.raises(SolveError, match="too large"):
        solve_exhaustive(full, g, fid_full, "error")
    assert exhaustive_fits(pair, g)
    value, rc = solve_exhaustive(pair, g, fid_pair, "error")
    assert stats(rc, fid_pair, g).error_objective_value == pytest.approx(value, abs=1e-12)
    long_pair, _ = prepared(random_layered_circuit(2, (1,) * 60, seed=16), g, 2)
    assert long_pair.num_steps == 178
    assert not exhaustive_fits(long_pair, g)


def test_exhaustive_lexicographic_ties_within_slack(line6):
    # Two routes reach the same error up to float rounding (...645 vs
    # ...622); the depth component must decide between them, not the
    # rounding. Branch and bound and HiGHS both prove depth 2 here.
    qv = gen_qv_circuit(6, [202, 1])
    c = insert_dummy_steps(pad_qubits(lower_circuit(qv, n_layers=3), 6), 2)
    fid = FidelityModel.build(c, line6)
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
    layout = heuristic_layout(c, g, fid, seed=3)

    def pin_rows(vs):
        return [Row(vars=(vs.w(q, layout[q], 0),), coefs=(1.0,), sense="=",
                    rhs=1.0, family="PIN_INIT") for q in range(g.n)]

    (err, depth), rc = solve_exhaustive(c, g, fid, ("error", "depth"), initial_map=layout)
    lex = lexicographic_solve(c, g, fid, ("error", "depth"), row_hook=pin_rows)
    assert lex.closed
    assert rc.initial_map == layout
    assert err == pytest.approx(lex.stage_values[0], abs=1e-9)
    assert depth == lex.stage_values[1]
    assert verify_structural(rc, c, g) is None


def test_import_solution_rejects_non_numeric_value(line4):
    _, _, _, p = small_instance(line4, (2,), 0)
    with pytest.raises(SolveError, match="not a number"):
        import_solution(p, f"{p.names[0]} one\n")
