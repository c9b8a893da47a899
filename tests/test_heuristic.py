import itertools
import time

import numpy as np
import pytest

import qaroute.heuristic
import qaroute.lexopt
import qaroute.solver
from helpers import (CX, prepared, qv_prefix, random_layered_circuit, reference_route,
                     shuffled_grid_document)
from qaroute.bipmodel import ModelError
from qaroute.circuit import Gate, LayeredCircuit, insert_dummy_steps, layerize, pad_qubits
from qaroute.extract import FreeSwap, GateOp, verify_structural, verify_unitary
from qaroute.gatefid import FidelityModel
from qaroute.heuristic import (TRIALS, VARIANTS, HeuristicError, _repair_first_layer, _route,
                               heuristic_layout, heuristic_route, run_variant_full)
from qaroute.hwgraph import HardwareGraph, builtin_topology, enumerate_matchings, load_topology
from qaroute.qvbench import gen_qv_circuit, haar_su4, lower_circuit
from qaroute.solver import SolveLimits
from test_dp_golden import HEAVY_HEX_27


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
    with pytest.raises(ModelError, match="bijection"):
        heuristic_route(c, line4, (0, 1, 2, 2), fid)
    with pytest.raises(ModelError, match="pad the circuit"):
        heuristic_route(c, grid6, (0, 1, 2, 3, 4, 5), fid)
    with pytest.raises(ModelError, match="pad the circuit"):
        heuristic_layout(c, grid6)


ORACLE_GRAPHS = (("line", 4), ("line", 6), ("line", 8), ("y", 6), ("y", 8),
                 ("grid", 6), ("grid", 8), ("line", 10))


def qv_instances():
    """Seeded QV circuits of every width from 4 to n on each oracle graph,
    padded, with one dummy step; then full-depth six-qubit QV circuits on
    y-6 with two dummy steps, drawn as the greedy benchmark draws them
    (seed 1)."""
    for name, n in ORACLE_GRAPHS:
        g = builtin_topology(name, n)
        for w in range(4, n + 1):
            c = insert_dummy_steps(pad_qubits(lower_circuit(gen_qv_circuit(w, [31, n, w])), n), 1)
            yield g, c, FidelityModel.build(c, g)
    y6 = builtin_topology("y", 6)
    for s in range(12):
        c = insert_dummy_steps(pad_qubits(lower_circuit(gen_qv_circuit(6, [1, s])), 6), 2)
        yield y6, c, FidelityModel.build(c, y6)


def test_router_kernel_matches_the_reference_router():
    # The kernel, through heuristic_route and on its own, routes every
    # instance from four random layouts exactly as the plain reference
    # router does: the same steps and the same final map.
    rng = np.random.default_rng(2025)
    swaps = 0
    for g, c, fid in qv_instances():
        gates = [(gt.gid, gt.p, gt.q) for gt in c.gates()]
        for _ in range(4):
            layout = tuple(int(v) for v in rng.permutation(g.n))
            want = reference_route(c, g, layout, fid)
            assert heuristic_route(c, g, layout, fid) == want
            plan, final_map = _route(gates, g, layout)
            assert final_map == want.final_map
            assert len(plan) == len(want.steps)
            swaps += sum(1 for edge, _ in plan if edge is not None)
    assert swaps > 1000  # most random layouts need swaps


def test_forced_progress_walk_is_reached_and_matches_the_reference():
    # Nodes 0, 1 and 2 form a triangle at the end of the path 2-3-4-5.
    # Gate (a, b) runs from node 0 to node 5. Behind it, (b, w) and seven
    # (x, w) gates put lookahead weight 1.07 on (x, w), which each swap that
    # shortens (a, b) (edges (0, 2) and (4, 5)) lengthens; swap (0, 1)
    # moves a sideways at no cost. So the greedy step swaps a back and forth
    # across (0, 1) until the stall reaches 2n = 12, and the forced walk
    # then takes a through node 2. No QV instance on line, y or grid
    # graphs of up to 12 nodes was seen to reach this branch.
    g = HardwareGraph(n=6, edges=((0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5)))
    a, x, w, b = 0, 2, 4, 5
    c = layerize([(a, b, CX), (b, w, CX)] + [(x, w, CX)] * 7, n_qubits=6)
    fid = FidelityModel.build(c, g)
    forced = []
    want = reference_route(c, g, tuple(range(6)), fid, forced)
    assert forced == [12]
    assert want.steps[:13] == ((FreeSwap(edge=(0, 1)),),) * 12 + ((FreeSwap(edge=(0, 2)),),)
    assert heuristic_route(c, g, tuple(range(6)), fid) == want
    assert verify_structural(want, c, g) is None


def reference_trials(c, g, seed=0):
    """The ``(start, refined, swaps)`` of every trial of the layout search,
    each layout routed afresh by the reference router."""
    fid = FidelityModel.build(c, g)
    rng = np.random.default_rng(seed)
    trials = []
    for _ in range(TRIALS):
        start = tuple(int(v) for v in rng.permutation(g.n))
        refined = _repair_first_layer(c, g, reference_route(c, g, start, fid).final_map)
        rc = reference_route(c, g, refined, fid)
        trials.append((start, refined,
                       sum(isinstance(op, FreeSwap) for ops in rc.steps for op in ops)))
    return trials


def reference_layout(c, g, seed=0):
    """``heuristic_layout`` with every trial routed by the reference router."""
    if not any(c.groups):
        return tuple(range(g.n))
    trials = reference_trials(c, g, seed)
    best = min(range(TRIALS), key=lambda t: (trials[t][2], t))
    return trials[best][1]


def test_layout_search_matches_one_routed_by_the_reference_router():
    for seed, (g, c, _) in enumerate(qv_instances()):
        assert heuristic_layout(c, g, seed) == reference_layout(c, g, seed)


def test_layout_search_routes_each_distinct_layout_once(monkeypatch):
    # Trials that meet a refined layout again reuse its route: the search
    # routes each distinct start and refined layout once, and where a
    # refined layout repeats it still picks what the reference search,
    # which routes every trial afresh, picks. Such repeats do occur.
    routed = []
    kernel = qaroute.heuristic._route

    def recording(gates, g, layout, tables=None):
        routed.append(layout)
        return kernel(gates, g, layout, tables)

    monkeypatch.setattr(qaroute.heuristic, "_route", recording)
    repeats = 0
    for seed, (g, c, _) in enumerate(qv_instances()):
        trials = reference_trials(c, g, seed)
        routed.clear()
        got = heuristic_layout(c, g, seed)
        layouts = {layout for start, refined, _ in trials for layout in (start, refined)}
        assert sorted(routed) == sorted(layouts)
        repeated = TRIALS - len({refined for _, refined, _ in trials})
        if repeated:
            assert got == reference_layout(c, g, seed)
        repeats += repeated
    assert repeats >= 40


def test_layout_is_permutation_and_deterministic(inst, line4):
    c, fid = inst
    a = heuristic_layout(c, line4)
    b = heuristic_layout(c, line4)
    assert a == b
    assert sorted(a) == [0, 1, 2, 3]
    # The chosen layout lets the whole first layer run at once.
    for gt in c.groups[0]:
        assert line4.has_edge(a[gt.p], a[gt.q])


def test_layout_of_gate_free_circuit_is_identity(line4):
    c = LayeredCircuit(4, ((), ()))
    assert heuristic_layout(c, line4) == (0, 1, 2, 3)


@pytest.mark.parametrize("graph", [lambda: builtin_topology("line", 62),
                                   lambda: HardwareGraph(27, HEAVY_HEX_27)],
                         ids=["line-62", "heavy-hex-27"])
def test_every_variant_sizes_a_maximum_matching_in_under_a_millisecond(graph):
    # run_variant_full first holds the widest layer against a maximum
    # matching of the whole graph. Three active qubits on line-62 route
    # past it in test_via_indexes_more_matchings_than_int16_holds.
    times = []
    for _ in range(3):
        g = graph()
        start = time.perf_counter()
        g.matching_size((1 << g.n) - 1)
        times.append(time.perf_counter() - start)
    assert min(times) < 1e-3
    c, fid = prepared(qv_prefix(3, [202, 1], 2), g, 1)
    run = run_variant_full("bip", c, g, fid)
    assert run.closed
    assert verify_structural(run.routed, c, g) is None


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

    def recording_dp(c, g, fid, order, initial_map=None, lim=None, incumbent=None):
        dp_calls.append((order, initial_map))
        return dp(c, g, fid, order, initial_map=initial_map, lim=lim, incumbent=incumbent)

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
        pinned = heuristic_layout(c, line4) if variant == "bip_routing" else None
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
        assert run.routed.initial_map == heuristic_layout(c, line10)


@pytest.mark.parametrize("variant", ["bip", "bip_layout", "bip_routing"])
def test_dp_past_the_time_limit_returns_the_greedy_route_unproven(inst, line4, variant):
    # The DP checks the deadline at its first matching and gives up; the
    # run hands back the greedy route from the greedy layout (bip_routing's
    # pinned layout is that same layout), and does not claim a proof.
    c, fid = inst
    run = run_variant_full(variant, c, line4, fid, SolveLimits(time_limit=1e-9))
    assert not run.closed
    greedy = heuristic_route(c, line4, heuristic_layout(c, line4), fid)
    assert run.routed.steps == greedy.steps
    assert run.routed.origin == variant


@pytest.mark.parametrize("variant", ["bip", "bip_layout", "bip_routing"])
@pytest.mark.parametrize("mode", ["small", "due", "stop"])
def test_one_run_searches_the_greedy_layout_at_most_once(inst, line4, variant, mode,
                                                         monkeypatch):
    # small: no DP step takes more than one pass, so the DP never asks
    # for the greedy route and only bip_routing searches, for its pin.
    # due: a pass budget of 0 makes step 0 due, and the DP asks for the
    # greedy route's error there. stop: that greedy route outlasts the
    # run's time limit, so the DP stops at its next pass and the run
    # returns the same greedy route, not searched again.
    c, fid = inst
    search, route = qaroute.heuristic.heuristic_layout, qaroute.heuristic.heuristic_route
    searches = []

    def counted(*args):
        searches.append(args)
        return search(*args)

    def slow(*args):
        time.sleep(0.3)
        return route(*args)

    monkeypatch.setattr(qaroute.heuristic, "heuristic_layout", counted)
    if mode != "small":
        monkeypatch.setattr(qaroute.solver, "DP_PASS", 0)
    if mode == "stop":
        monkeypatch.setattr(qaroute.heuristic, "heuristic_route", slow)
    run = run_variant_full(variant, c, line4, fid,
                           SolveLimits(time_limit=0.2) if mode == "stop" else None)
    assert len(searches) == (0 if mode == "small" and variant != "bip_routing" else 1)
    assert run.closed is (mode != "stop")
    if mode == "stop":
        assert run.routed.steps == route(c, line4, search(c, line4), fid).steps


def test_a_failed_greedy_search_leaves_the_dp_unbounded(inst, line4, monkeypatch):
    # The incumbent's HeuristicError means no bound: the DP still proves
    # the route it proves without one.
    c, fid = inst
    want = run_variant_full("bip", c, line4, fid)

    def fail(*args):
        raise HeuristicError("no layout")

    monkeypatch.setattr(qaroute.heuristic, "heuristic_layout", fail)
    monkeypatch.setattr(qaroute.solver, "DP_PASS", 0)
    run = run_variant_full("bip", c, line4, fid)
    assert run.closed
    assert run.routed == want.routed


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
    layout = heuristic_layout(c, line4)
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


def test_repair_matches_brute_force_on_random_layers():
    rng = np.random.default_rng(2024)
    searched = 0
    for name, n in (("line", 4), ("line", 6), ("line", 8), ("y", 6), ("y", 8),
                    ("grid", 6), ("grid", 8)):
        g = builtin_topology(name, n)
        for _ in range(50):
            c, layout = random_first_layer(n, rng)
            want = repair_oracle(c, g, layout)
            assert _repair_first_layer(c, g, layout) == want
            searched += want != layout
    assert searched > 200  # most layers do not fit their random layout


def test_repair_sizes_no_matching_after_the_last_gate(monkeypatch):
    # Past the last gate no gate is left to place, so a matching size
    # cannot prune: every mask the repair sizes must leave free the nodes
    # of at least one more gate.
    real, seen = HardwareGraph.matching_size, []

    def spy(self, mask):
        seen.append((self.n, bin(mask).count("1"), n_gates))
        return real(self, mask)

    monkeypatch.setattr(HardwareGraph, "matching_size", spy)
    rng = np.random.default_rng(7)
    for name, n in (("line", 6), ("y", 6), ("grid", 8)):
        g = builtin_topology(name, n)
        for _ in range(30):
            c, layout = random_first_layer(n, rng)
            n_gates = len(c.groups[0])
            _repair_first_layer(c, g, layout)
    assert seen
    assert all(free > n - 2 * k for n, free, k in seen)


def test_repair_of_a_layer_wider_than_any_matching():
    # Every edge of a star meets the centre, so two gates never fit: the
    # layout search refuses such a layer before any repair, and the
    # repair agrees with the oracle on the one-gate layers that fit.
    star = HardwareGraph(n=5, edges=((0, 1), (0, 2), (0, 3), (0, 4)))
    rng = np.random.default_rng(5)
    fitting = 0
    for _ in range(20):
        c, layout = random_first_layer(5, rng)
        if len(c.groups[0]) == 1:
            assert _repair_first_layer(c, star, layout) == repair_oracle(c, star, layout)
            fitting += 1
    assert fitting > 5
    c = LayeredCircuit(5, ((Gate(0, 1, np.eye(4), 0), Gate(2, 3, np.eye(4), 1)),))
    with pytest.raises(ModelError, match="no matching that large"):
        heuristic_layout(c, star)


def test_repair_on_a_grid_whose_labels_are_shuffled_is_quick():
    # The repair prunes by the matching sizes of free node sets with
    # scattered holes, which a search over node subsets sized in over
    # 10 s for these seven layouts.
    g = load_topology(shuffled_grid_document(10, 1))
    start = time.perf_counter()
    for width in range(4, 11):
        c = pad_qubits(lower_circuit(gen_qv_circuit(width, [7, 0])), g.n)
        layout = heuristic_layout(c, g)
        assert all(g.has_edge(layout[gt.p], layout[gt.q]) for gt in c.groups[0])
    assert time.perf_counter() - start < 5


def test_repair_cap_keeps_the_best_placement_found(monkeypatch):
    # Gate 0 sits on nodes 2 and 4, gate 1 on nodes 3 and 1. The cheapest
    # arc of gate 0, (2, 3), leaves gate 1 a 3-hop arc; (3, 4) and (2, 1)
    # cost 2 in all.
    line8 = builtin_topology("line", 8)
    c = LayeredCircuit(8, ((Gate(0, 1, np.eye(4), 0), Gate(2, 3, np.eye(4), 1)),))
    layout = (2, 4, 3, 1, 0, 5, 6, 7)
    full = _repair_first_layer(c, line8, layout)
    assert full == repair_oracle(c, line8, layout)
    assert full[:4] == (3, 4, 2, 1)
    # Two placed arcs: only the first, cheapest-arc dive completes.
    monkeypatch.setattr(qaroute.heuristic, "REPAIR_NODES", 2)
    capped = _repair_first_layer(c, line8, layout)
    assert capped[:2] == (2, 3)
    assert sorted(capped) == list(range(8))
    assert all(line8.has_edge(capped[gt.p], capped[gt.q]) for gt in c.groups[0])
    monkeypatch.setattr(qaroute.heuristic, "REPAIR_NODES", 1)
    with pytest.raises(HeuristicError, match="gave up"):
        _repair_first_layer(c, line8, layout)
