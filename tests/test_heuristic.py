import pytest

import qaroute.lexopt
from helpers import prepared, random_layered_circuit
from qaroute.circuit import Gate, LayeredCircuit, pad_qubits
from qaroute.extract import GateOp, verify_structural, verify_unitary
from qaroute.gatefid import FidelityModel
from qaroute.heuristic import (VARIANTS, HeuristicError, heuristic_layout,
                               heuristic_route, run_variant_full)
from qaroute.qvbench import haar_su4


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
    import numpy as np
    rng = np.random.default_rng(42)
    c = LayeredCircuit(4, ((Gate(0, 1, haar_su4(rng), 0),
                            Gate(2, 3, haar_su4(rng), 1)),
                           (Gate(1, 2, haar_su4(rng), 2),)))
    rc = heuristic_route(c, line4, (0, 1, 2, 3))
    assert all(isinstance(op, GateOp) for ops in rc.steps for op in ops)
    assert rc.final_map == rc.initial_map
    assert len(rc.steps) == 2


def test_route_input_validation(inst, line4, grid6):
    c, fid = inst
    with pytest.raises(HeuristicError):
        heuristic_route(c, line4, (0, 1, 2, 2))
    with pytest.raises(HeuristicError):
        heuristic_route(c, grid6, (0, 1, 2, 3, 4, 5))


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


@pytest.mark.parametrize("variant", VARIANTS)
def test_every_exact_variant_solves_through_the_stage_loop(inst, line4, variant,
                                                           monkeypatch):
    # One solve per objective of the variant's order, all made by the
    # lexicographic stage loop; the greedy variant makes none.
    # Each stage after the first starts from the previous stage's
    # assignment; the first starts cold.
    order = {"sabre_like": [], "bip_layout": ["error"]}.get(variant, ["error", "depth"])
    calls, incumbents, results = [], [], []
    solve = qaroute.lexopt.solve_branch_and_bound

    def recording(p, lim, incumbent=None):
        calls.append(p.objective_kind)
        incumbents.append(incumbent)
        results.append(solve(p, lim, incumbent=incumbent))
        return results[-1]

    monkeypatch.setattr(qaroute.lexopt, "solve_branch_and_bound", recording)
    c, fid = inst
    run_variant_full(variant, c, line4, fid)
    assert calls == order
    if calls:
        assert incumbents[0] is None
    for prev, incumbent in zip(results, incumbents[1:]):
        assert incumbent is prev.assignment


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
