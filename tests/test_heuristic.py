import itertools

import numpy as np
import pytest

import qaroute.heuristic
import qaroute.lexopt
import qaroute.solver
from helpers import prepared, random_layered_circuit
from qaroute.circuit import Gate, LayeredCircuit, pad_qubits
from qaroute.extract import GateOp, verify_structural, verify_unitary
from qaroute.gatefid import FidelityModel
from qaroute.heuristic import (VARIANTS, HeuristicError, _repair_first_layer,
                               heuristic_layout, heuristic_route, run_variant_full)
from qaroute.hwgraph import HardwareGraph, builtin_topology, enumerate_matchings, matching_size
from qaroute.qvbench import haar_su4
from qaroute.solver import SolveLimits


@pytest.fixture(scope="module")
def inst(line4):
    c = random_layered_circuit(4, (2, 2, 2), seed=41)
    return prepared(c, line4, 1)


def test_route_is_structurally_valid(inst, line4):
    c, fid = inst
    rc = heuristic_route(c, line4, (0, 1, 2, 3), fid=fid)
    assert rc.origin == "sabre_like"
    assert not rc.time_aligned
    assert verify_structural(rc, c, line4) is None
    assert verify_unitary(rc, c) <= 1e-8


def test_route_deterministic(inst, line4):
    c, fid = inst
    a = heuristic_route(c, line4, (0, 1, 2, 3), fid=fid)
    b = heuristic_route(c, line4, (0, 1, 2, 3), fid=fid)
    assert a == b


def test_route_executes_adjacent_gates_without_swaps(line4):
    rng = np.random.default_rng(42)
    c = LayeredCircuit(4, ((Gate(0, 1, haar_su4(rng), 0),
                            Gate(2, 3, haar_su4(rng), 1)),
                           (Gate(1, 2, haar_su4(rng), 2),)))
    rc = heuristic_route(c, line4, (0, 1, 2, 3), FidelityModel.build(c, line4))
    assert all(isinstance(op, GateOp) for ops in rc.steps for op in ops)
    assert rc.final_map == rc.initial_map
    assert len(rc.steps) == 2


def test_route_input_validation(inst, line4, grid6):
    c, fid = inst
    with pytest.raises(HeuristicError):
        heuristic_route(c, line4, (0, 1, 2, 2), fid)
    with pytest.raises(HeuristicError):
        heuristic_route(c, grid6, (0, 1, 2, 3, 4, 5), fid)


def test_layout_is_permutation_and_deterministic(inst, line4):
    c, fid = inst
    a = heuristic_layout(c, line4, fid)
    b = heuristic_layout(c, line4, fid)
    assert a == b
    assert sorted(a) == [0, 1, 2, 3]
    # The chosen layout lets the whole first layer run at once.
    for gt in c.groups[0]:
        assert line4.has_edge(a[gt.p], a[gt.q])


def test_layout_of_gate_free_circuit_is_identity(line4):
    c = LayeredCircuit(4, ((), ()))
    assert heuristic_layout(c, line4, FidelityModel.build(c, line4)) == (0, 1, 2, 3)


def test_unknown_variant_rejected(inst, line4):
    c, fid = inst
    with pytest.raises(HeuristicError):
        run_variant_full("annealer", c, line4, fid)


@pytest.mark.parametrize("variant", VARIANTS)
def test_variants_produce_valid_schedules(inst, line4, variant):
    c, fid = inst
    run = run_variant_full(variant, c, line4, fid)
    assert verify_structural(run.routed, c, line4) is None
    assert verify_unitary(run.routed, c) <= 1e-8
    assert run.stats.error_objective_value >= 0.0
    assert run.routed.origin == ("sabre_like" if variant == "sabre_like" else variant)
    if variant != "sabre_like":
        assert run.closed


def record_solves(monkeypatch):
    """Record every layout-DP call that ``run_variant_full`` makes (its
    objective order and pinned layout) and every branch-and-bound solve
    of the stage loop (objective, incumbent, result)."""
    dp_calls, bb_calls = [], []
    dp = qaroute.heuristic.solve_exhaustive
    solve = qaroute.lexopt.solve_branch_and_bound

    def recording_dp(c, g, fid, objective, initial_map=None, limits=None):
        dp_calls.append((objective, initial_map))
        return dp(c, g, fid, objective, initial_map=initial_map, limits=limits)

    def recording_bb(p, lim, incumbent=None):
        bb_calls.append((p.objective_kind, incumbent, solve(p, lim, incumbent=incumbent)))
        return bb_calls[-1][2]

    monkeypatch.setattr(qaroute.heuristic, "solve_exhaustive", recording_dp)
    monkeypatch.setattr(qaroute.lexopt, "solve_branch_and_bound", recording_bb)
    return dp_calls, bb_calls


def assert_stage_loop(bb_calls, order):
    # One solve per objective; each stage after the first starts from the
    # previous stage's assignment, and the first starts cold.
    assert [kind for kind, _, _ in bb_calls] == list(order)
    assert bb_calls[0][1] is None
    for prev, (_, incumbent, _) in zip(bb_calls, bb_calls[1:]):
        assert incumbent is prev[2].assignment


@pytest.mark.parametrize("variant", VARIANTS)
def test_every_exact_variant_solves_through_the_stage_loop(inst, line4, variant,
                                                           monkeypatch):
    # Within the DP's memory bound, bip, bip_layout and bip_routing make one DP
    # call with their objective order (bip_routing pinned to its greedy
    # layout) and no branch-and-bound solve; bip_constrained solves
    # through the lexicographic stage loop; the greedy variant makes
    # neither.
    dp_calls, bb_calls = record_solves(monkeypatch)
    c, fid = inst
    run = run_variant_full(variant, c, line4, fid)
    if variant == "bip_constrained":
        assert dp_calls == []
        assert_stage_loop(bb_calls, ("error", "depth"))
    elif variant == "sabre_like":
        assert dp_calls == [] and bb_calls == []
    else:
        order = ("error",) if variant == "bip_layout" else ("error", "depth")
        pinned = heuristic_layout(c, line4, fid) if variant == "bip_routing" else None
        assert dp_calls == [(order, pinned)]
        assert bb_calls == []
        assert run.closed


@pytest.mark.parametrize("variant", ["bip", "bip_routing"])
def test_instance_past_the_guard_solves_through_the_stage_loop(variant, monkeypatch):
    # With no memory to spare, the DP refuses the instance and the model
    # variants fall back to the stage loop. bip's error stage spends the
    # run's 200 nodes, so its depth stage keeps that incumbent unsearched;
    # the pinned layout of bip_routing leaves little to search, and both
    # stages close.
    line10 = builtin_topology("line", 10)
    c, fid = prepared(random_layered_circuit(4, (1, 1), 3), line10, 1)
    monkeypatch.setattr(qaroute.solver, "DP_MEMORY", 0)
    dp_calls, bb_calls = record_solves(monkeypatch)
    run = run_variant_full(variant, c, line10, fid, SolveLimits(node_limit=200))
    assert len(dp_calls) == 1
    assert verify_structural(run.routed, c, line10) is None
    if variant == "bip":
        assert_stage_loop(bb_calls, ("error",))
        assert not run.closed
    else:
        assert_stage_loop(bb_calls, ("error", "depth"))
        assert run.closed
        assert run.routed.initial_map == heuristic_layout(c, line10, fid)


@pytest.mark.parametrize("variant", ["bip", "bip_layout", "bip_routing"])
def test_dp_past_the_time_limit_returns_the_greedy_route_unproven(inst, line4, variant):
    # The DP checks the deadline at its first matching and gives up; the
    # run hands back the greedy route from the greedy layout (bip_routing's
    # pinned layout is that same layout), and does not claim a proof.
    c, fid = inst
    run = run_variant_full(variant, c, line4, fid, SolveLimits(time_limit=1e-9))
    assert not run.closed
    greedy = heuristic_route(c, line4, heuristic_layout(c, line4, fid), fid)
    assert run.routed.steps == greedy.steps
    assert run.routed.origin == variant


def test_bip_dominates_heuristic(inst, line4):
    c, fid = inst
    exact = run_variant_full("bip", c, line4, fid)
    greedy = run_variant_full("sabre_like", c, line4, fid)
    assert exact.stats.error_objective_value <= greedy.stats.error_objective_value + 1e-9
    assert exact.stats.cnot_count <= greedy.stats.cnot_count


def test_constrained_variant_restores_layout(inst, line4):
    c, fid = inst
    run = run_variant_full("bip_constrained", c, line4, fid)
    assert run.routed.final_map == run.routed.initial_map
    free = run_variant_full("bip", c, line4, fid)
    assert run.stats.error_objective_value >= free.stats.error_objective_value - 1e-9


def test_routing_variant_pins_heuristic_layout(inst, line4):
    c, fid = inst
    layout = heuristic_layout(c, line4, fid)
    run = run_variant_full("bip_routing", c, line4, fid)
    assert run.routed.initial_map == layout
    free = run_variant_full("bip", c, line4, fid)
    assert run.stats.error_objective_value >= free.stats.error_objective_value - 1e-9


def test_variants_on_wider_hardware(grid6):
    c = random_layered_circuit(4, (2, 2), seed=43)
    c = pad_qubits(c, 6)
    fid = FidelityModel.build(c, grid6)
    run = run_variant_full("sabre_like", c, grid6, fid)
    assert verify_structural(run.routed, c, grid6) is None
    assert verify_unitary(run.routed, c) <= 1e-8


def repair_oracle(c, g, layout):
    """The first-layer repair by brute force: every matching of the
    layer's size, in every order and orientation, keeping the least
    ``(cost, ((gid, i, j), ...))``; the rest as in the library."""
    first = c.groups[0]
    pos = list(layout)
    if all(g.has_edge(pos[gt.p], pos[gt.q]) for gt in first):
        return tuple(pos)
    dist = g.distances()
    best = None
    for m in enumerate_matchings(g, len(first)):
        if len(m) != len(first):
            continue
        for perm in itertools.permutations(m):
            for flips in itertools.product((False, True), repeat=len(first)):
                arcs = [(j, i) if flip else (i, j) for (i, j), flip in zip(perm, flips)]
                cost = sum(dist[pos[gt.p]][i] + dist[pos[gt.q]][j]
                           for gt, (i, j) in zip(first, arcs))
                key = (cost, tuple((gt.gid, i, j) for gt, (i, j) in zip(first, arcs)))
                best = key if best is None or key < best else best
    if best is None:
        raise HeuristicError("first layer does not fit on the hardware")
    newpos = [-1] * g.n
    for gt, (_, i, j) in zip(first, best[1]):
        newpos[gt.p], newpos[gt.q] = i, j
    rest = [q for q in range(g.n) if newpos[q] < 0]
    for q in rest:
        if pos[q] not in newpos:
            newpos[q] = pos[q]
    for q in rest:
        if newpos[q] < 0:
            node = min((v for v in range(g.n) if v not in newpos),
                       key=lambda v: (dist[pos[q]][v], v))
            newpos[q] = node
    return tuple(newpos)


def random_first_layer(n: int, rng) -> tuple[LayeredCircuit, tuple[int, ...]]:
    k = int(rng.integers(1, n // 2 + 1))
    qubits = [int(q) for q in rng.permutation(n)[:2 * k]]
    gids = [int(x) for x in rng.permutation(k)]
    layer = tuple(Gate(qubits[2 * a], qubits[2 * a + 1], np.eye(4), gids[a])
                  for a in range(k))
    return LayeredCircuit(n, (layer,)), tuple(int(v) for v in rng.permutation(n))


def repair(c, g, layout):
    return _repair_first_layer(c, g, layout, matching_size(g))


def repair_outcome(repair, c, g, layout):
    try:
        return repair(c, g, layout)
    except HeuristicError as err:
        return str(err)


def test_repair_matches_brute_force_on_random_layers():
    rng = np.random.default_rng(2024)
    searched = 0
    for name, n in (("line", 4), ("line", 6), ("line", 8), ("y", 6), ("y", 8),
                    ("grid", 6), ("grid", 8)):
        g = builtin_topology(name, n)
        for _ in range(50):
            c, layout = random_first_layer(n, rng)
            want = repair_oracle(c, g, layout)
            assert repair(c, g, layout) == want
            searched += want != layout
    assert searched > 200  # most layers do not fit their random layout


def test_repair_of_a_layer_wider_than_any_matching():
    # Every edge of a star meets the centre, so two gates never fit.
    star = HardwareGraph(n=5, edges=((0, 1), (0, 2), (0, 3), (0, 4)))
    rng = np.random.default_rng(5)
    for _ in range(20):
        c, layout = random_first_layer(5, rng)
        want = repair_outcome(repair_oracle, c, star, layout)
        assert repair_outcome(repair, c, star, layout) == want
    c = LayeredCircuit(5, ((Gate(0, 1, np.eye(4), 0), Gate(2, 3, np.eye(4), 1)),))
    with pytest.raises(HeuristicError, match="does not fit"):
        repair(c, star, (0, 1, 2, 3, 4))


def test_repair_cap_keeps_the_best_placement_found(monkeypatch):
    # Gate 0 sits on nodes 2 and 4, gate 1 on nodes 3 and 1. The cheapest
    # arc of gate 0, (2, 3), leaves gate 1 a 3-hop arc; (3, 4) and (2, 1)
    # cost 2 in all.
    line8 = builtin_topology("line", 8)
    c = LayeredCircuit(8, ((Gate(0, 1, np.eye(4), 0), Gate(2, 3, np.eye(4), 1)),))
    layout = (2, 4, 3, 1, 0, 5, 6, 7)
    full = repair(c, line8, layout)
    assert full == repair_oracle(c, line8, layout)
    assert full[:4] == (3, 4, 2, 1)
    # Two placed arcs: only the first, cheapest-arc dive completes.
    monkeypatch.setattr(qaroute.heuristic, "REPAIR_NODES", 2)
    capped = repair(c, line8, layout)
    assert capped[:2] == (2, 3)
    assert sorted(capped) == list(range(8))
    assert all(line8.has_edge(capped[gt.p], capped[gt.q]) for gt in c.groups[0])
    monkeypatch.setattr(qaroute.heuristic, "REPAIR_NODES", 1)
    with pytest.raises(HeuristicError, match="gave up"):
        repair(c, line8, layout)
