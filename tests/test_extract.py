import dataclasses
import math

import numpy as np
import pytest

from helpers import (line4_five_gate_circuit, prepared,
                     random_layered_circuit, reference_solution_text)
from qaroute.bipmodel import assemble_problem, set_objective
from qaroute.extract import (EQUIVALENCE_ATOL, ExtractError, FreeSwap, GateOp,
                             RoutedCircuit, _permuted_target, decode, encode,
                             routed_from_json, routed_to_json, stats, verify_structural,
                             verify_unitary)
from qaroute.gatefid import FidelityModel
from qaroute.heuristic import heuristic_route
from qaroute.modelio import import_solution
from qaroute.simulate import permutation_matrix
from qaroute.solver import SolveLimits, solve_branch_and_bound, solve_exhaustive


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


def test_permuted_target_equals_the_permutation_matrix_product(greedy_routes):
    # Moving entries computes nothing, so the target is bit for bit the
    # product of the two permutation matrices with any matrix.
    c, routes = greedy_routes
    rng = np.random.default_rng(25)
    logical = rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))
    moved = 0
    for rc in routes:
        want = (permutation_matrix(rc.final_map) @ logical
                @ permutation_matrix(rc.initial_map).conj().T)
        assert np.array_equal(_permuted_target(logical, rc.initial_map, rc.final_map), want)
        moved += rc.initial_map != tuple(range(6)) and rc.final_map != rc.initial_map
    assert moved == len(routes)
    for n in range(2, 7):
        logical = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
        for _ in range(8):
            first, last = (tuple(int(v) for v in rng.permutation(n)) for _ in range(2))
            want = permutation_matrix(last) @ logical @ permutation_matrix(first).conj().T
            assert np.array_equal(_permuted_target(logical, first, last), want)


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
