import dataclasses
import math

import numpy as np
import pytest

from helpers import (dense_unitary_deviation, line4_five_gate_circuit, prepared,
                     random_layered_circuit, reference_solution_text)
from qaroute.bipmodel import assemble_problem, set_objective
from qaroute.extract import (EQUIVALENCE_ATOL, UNITARY_MAX_WIDTH, ExtractError, FreeSwap,
                             GateOp, RoutedCircuit, decode, encode, routed_from_json,
                             routed_to_json, stats, verify_structural, verify_unitary)
from qaroute.gatefid import FidelityModel
from qaroute.heuristic import heuristic_route, run_variant_full
from qaroute.hwgraph import builtin_topology
from qaroute.modelio import import_solution
from qaroute.qvbench import qv_instance
from qaroute.solver import NoRouteError, SolveLimits, solve_branch_and_bound, solve_exhaustive
from test_dp_golden import CASES, case


@pytest.fixture(scope="module")
def solved(line4):
    c = random_layered_circuit(4, (2, 2), seed=21)
    c, fid = prepared(c, line4, 1)
    vs, p = assemble_problem(c, line4, fid, objective="error")
    res = solve_branch_and_bound(p, SolveLimits())
    rc = decode(vs, res.assignment, c, line4, fid)
    return c, fid, vs, p, res, rc


def test_decode_is_structurally_clean(solved, line4):
    c, fid, vs, p, res, rc = solved
    assert verify_structural(rc, c, line4) is None
    assert rc.time_aligned
    assert len(rc.steps) == c.num_steps


def test_encode_decode_identity(solved, line4):
    c, fid, vs, p, res, rc = solved
    vec = encode(rc, vs)
    rc2 = decode(vs, vec, c, line4, fid)
    assert rc2 == rc
    # The rebuilt vector is feasible for every constraint family.
    assert p.check_assignment(vec) is None
    assert p.objective_value(vec) == pytest.approx(res.objective, abs=1e-9)


@pytest.mark.parametrize("graph, layers, seed, order", [
    ("line4", (2, 2, 2), 0, ("error",)),
    ("y6", (2, 2), 2, ("error", "crosstalk")),
])
def test_dp_route_round_trips_through_the_model(graph, layers, seed, order, request):
    # The DP's schedule, with merged and free swaps (and on y-6 driven
    # crosstalk pairs), encodes to a feasible assignment that prices at
    # the DP's own value and decodes back to the same schedule.
    g = request.getfixturevalue(graph)
    c, fid = prepared(random_layered_circuit(g.n, layers, seed), g, 1)
    value, rc = solve_exhaustive(c, g, fid, order)
    ops = [op for step in rc.steps for op in step]
    assert any(isinstance(op, FreeSwap) for op in ops)
    assert any(isinstance(op, GateOp) and op.merged_swap for op in ops)
    vs, p = assemble_problem(c, g, fid, objective="error",
                             crosstalk_mode="crosstalk" in order)
    vec = encode(rc, vs)
    assert p.check_assignment(vec) is None
    assert decode(vs, vec, c, g, fid) == dataclasses.replace(rc, origin="bip")
    for kind, want in zip(order, value):
        got = set_objective(p, vs, kind, fid).objective_value(vec)
        assert got == pytest.approx(want, abs=1e-9)


def test_stats_match_model_objective(solved, line4):
    c, fid, vs, p, res, rc = solved
    st = stats(rc, fid, line4)
    assert st.error_objective_value == pytest.approx(res.objective, abs=1e-9)
    assert st.cnot_count == sum(op.cnots_used if isinstance(op, GateOp) else 3
                                for ops in rc.steps for op in ops)
    assert set(st.as_dict()) == {"cnot_count", "depth_proxy",
                                 "error_objective_value", "crosstalk_count"}


def test_reference_schedule_cnot_accounting(line4):
    c = line4_five_gate_circuit()
    fid = FidelityModel.build(c, line4)
    vs, p = assemble_problem(c, line4, fid, objective="error")
    res = import_solution(p, reference_solution_text())
    rc = decode(vs, res.assignment, c, line4, fid)
    merged = [op for ops in rc.steps for op in ops
              if isinstance(op, GateOp) and op.merged_swap]
    assert len(merged) == 3
    assert {op.gid for op in merged} == {0, 1, 2}
    assert rc.final_map == (2, 0, 3, 1)
    st = stats(rc, fid, line4)
    assert st.error_objective_value == pytest.approx(res.objective, abs=1e-9)
    assert st.crosstalk_count == 0


def test_verify_unitary_near_zero(solved):
    c, fid, vs, p, res, rc = solved
    assert verify_unitary(rc, c) <= 1e-8


def test_verify_unitary_detects_damage(solved):
    c, fid, vs, p, res, rc = solved
    broken = None
    for t, ops in enumerate(rc.steps):
        for k, op in enumerate(ops):
            if isinstance(op, GateOp):
                flipped = dataclasses.replace(op, merged_swap=not op.merged_swap)
                row = list(ops)
                row[k] = flipped
                steps = list(rc.steps)
                steps[t] = tuple(row)
                broken = dataclasses.replace(rc, steps=tuple(steps))
                break
        if broken is not None:
            break
    assert broken is not None
    assert verify_unitary(broken, c) > 1e-3


@pytest.fixture(scope="module")
def greedy_routes(y6):
    """Greedy routes of one six-qubit circuit from random layouts, each
    with a free swap."""
    c, fid = prepared(random_layered_circuit(6, (3, 3, 3), seed=23), y6, 1)
    rng = np.random.default_rng(24)
    routes = [heuristic_route(c, y6, tuple(int(v) for v in rng.permutation(6)), fid)
              for _ in range(6)]
    assert all(any(isinstance(op, FreeSwap) for ops in rc.steps for op in ops)
               for rc in routes)
    return c, routes


def test_verify_unitary_fails_a_wrong_final_map_or_a_dropped_swap(greedy_routes):
    c, routes = greedy_routes
    for rc in routes:
        assert verify_unitary(rc, c) <= EQUIVALENCE_ATOL
        final = list(rc.final_map)
        final[0], final[1] = final[1], final[0]
        assert verify_unitary(dataclasses.replace(rc, final_map=tuple(final)), c) \
            > EQUIVALENCE_ATOL
        t = next(t for t, ops in enumerate(rc.steps) if isinstance(ops[0], FreeSwap))
        dropped = dataclasses.replace(rc, steps=rc.steps[:t] + rc.steps[t + 1:])
        assert verify_unitary(dropped, c) > EQUIVALENCE_ATOL


def agreement_routes():
    """Every route of a golden DP instance on at most six nodes, and
    seeded greedy routes of QV circuits on y-6 and grid-6."""
    for k in CASES:
        g, c, fid, order, layout = case(k)
        if g.n <= 6:
            try:
                yield c, solve_exhaustive(c, g, fid, order, initial_map=layout)[1]
            except NoRouteError:
                pass
    for topo in ("y", "grid"):
        g = builtin_topology(topo, 6)
        for w in (3, 4, 6):
            for s in range(3):
                c = qv_instance(w, [7, s], 6, 3)[1]
                yield c, run_variant_full("sabre_like", c, g, FidelityModel.build(c, g),
                                          seed=s).routed


def test_logical_replay_agrees_with_the_dense_node_wire_product():
    # The logical check relabels where the dense oracle multiplies by
    # swap matrices; the two deviations are one number up to rounding.
    routes = merged = free = 0
    for c, rc in agreement_routes():
        ops = [op for ops in rc.steps for op in ops]
        merged += any(isinstance(op, GateOp) and op.merged_swap for op in ops)
        free += any(isinstance(op, FreeSwap) for op in ops)
        dev = verify_unitary(rc, c)
        assert dev <= EQUIVALENCE_ATOL
        assert abs(dev - dense_unitary_deviation(rc, c)) <= 1e-12
        routes += 1
    assert routes > 80 and merged > 20 and free > 20


def test_verify_unitary_fails_a_gate_on_an_idle_qubit_a_dropped_swap_or_a_wrong_final_map(y6):
    # Four active qubits on y-6, from random layouts that run the first
    # layer in place: the nodes holding the idle qubits 4 and 5 have no
    # logical wire.
    c, fid = prepared(random_layered_circuit(4, (2, 2, 2), seed=26), y6, 1)
    rng = np.random.default_rng(27)
    dropped = 0
    for _ in range(6):
        layout = None
        while layout is None or not all(y6.has_edge(layout[gt.p], layout[gt.q])
                                        for gt in c.groups[0]):
            layout = tuple(int(v) for v in rng.permutation(6))
        rc = heuristic_route(c, y6, layout, fid)
        assert verify_unitary(rc, c) <= EQUIVALENCE_ATOL

        def damaged(t, k, *ops, **fields):
            steps = list(rc.steps)
            steps[t] = steps[t][:k] + ops + steps[t][k + 1:]
            return verify_unitary(dataclasses.replace(rc, steps=tuple(steps), **fields), c)

        idle = rc.initial_map[4]
        t, k, op = next((t, k, op) for t, ops in enumerate(rc.steps)
                        for k, op in enumerate(ops) if isinstance(op, GateOp))
        assert t == 0
        assert damaged(t, k, dataclasses.replace(op, arc=(idle, y6.neighbors(idle)[0]))) \
            > EQUIVALENCE_ATOL
        for a, b in ((0, 4), (4, 5)):  # an active and an idle qubit, two idle ones
            final = list(rc.final_map)
            final[a], final[b] = final[b], final[a]
            assert damaged(t, k, op, final_map=tuple(final)) > EQUIVALENCE_ATOL
        for t, ops in enumerate(rc.steps):
            for k, op in enumerate(ops):
                if isinstance(op, FreeSwap):
                    assert damaged(t, k) > EQUIVALENCE_ATOL
                    dropped += 1
    assert dropped > 6


def test_verify_unitary_refuses_more_active_qubits_than_its_limit():
    g = builtin_topology("line", 10)
    w = UNITARY_MAX_WIDTH + 1
    c = qv_instance(w, [7, 0], g.n, 2)[1]
    assert len(c.active_qubits()) == w
    rc = run_variant_full("sabre_like", c, g, FidelityModel.build(c, g)).routed
    with pytest.raises(ExtractError, match=f"{w} active qubits"):
        verify_unitary(rc, c)


def test_structural_violations_reported(solved, line4):
    c, fid, vs, p, res, rc = solved

    def mutated(**kw):
        return dataclasses.replace(rc, **kw)

    bad = mutated(final_map=(0, 0, 1, 2))
    assert "bijection" in verify_structural(bad, c, line4)

    bad = mutated(steps=rc.steps[:-1])
    assert "steps" in verify_structural(bad, c, line4)

    swapped = mutated(final_map=tuple(rc.initial_map))
    if swapped.final_map != rc.final_map:
        assert verify_structural(swapped, c, line4) is not None

    # A gate on a non-edge.
    steps = [list(ops) for ops in rc.steps]
    for row in steps:
        for k, op in enumerate(row):
            if isinstance(op, GateOp):
                row[k] = dataclasses.replace(op, arc=(0, 3))
                bad = mutated(steps=tuple(tuple(r) for r in steps))
                assert "not in hardware" in verify_structural(bad, c, line4)
                return
    pytest.fail("no gate op found")


def test_structural_checks_gate_coverage(line4):
    c = random_layered_circuit(4, (2,), seed=22)
    c, fid = prepared(c, line4, 0)
    ident = (0, 1, 2, 3)
    empty = RoutedCircuit(n_nodes=4, initial_map=ident, final_map=ident,
                          steps=((),), origin="test")
    assert "never scheduled" in verify_structural(empty, c, line4)


def test_free_swap_statistics(line4):
    ident = (0, 1, 2, 3)
    rc = RoutedCircuit(n_nodes=4, initial_map=ident,
                       final_map=(1, 0, 2, 3),
                       steps=((FreeSwap(edge=(0, 1)),), ()),
                       origin="test")
    fid_src, _ = prepared(random_layered_circuit(4, (1,), 1), line4, 0)
    fm = FidelityModel.build(fid_src, line4)
    st = stats(rc, fm, line4)
    assert st.cnot_count == 3
    assert st.depth_proxy == 1
    assert st.error_objective_value == pytest.approx(-3.0 * math.log(0.9936))


def test_json_round_trip(solved):
    c, fid, vs, p, res, rc = solved
    text = routed_to_json(rc)
    back = routed_from_json(text)
    assert back == rc
    with pytest.raises(ExtractError):
        routed_from_json({"n_nodes": 4})
    with pytest.raises(ExtractError):
        routed_from_json({"n_nodes": "four", "initial_map": [], "final_map": [], "steps": []})
    with pytest.raises(ExtractError):
        routed_from_json("{not json")


def test_non_aligned_rejected_by_encode(solved):
    c, fid, vs, p, res, rc = solved
    free = dataclasses.replace(rc, time_aligned=False)
    with pytest.raises(ExtractError):
        encode(free, vs)
    # Structural check still passes in order-only mode.
    assert verify_structural(free, c, vs.graph) is None
