import math

import numpy as np
import pytest

from helpers import CX, numeric_fidelity_budget, prepared, random_layered_circuit
from qaroute.gatefid import (FidelityError, FidelityModel, avg_gate_fidelity,
                             closest_unitary_distance, cnot_budget_fidelities,
                             exact_cnot_fidelities, load_fidelity_overrides,
                             placement_cost, trace_to_fidelity,
                             weyl_coordinates)
from qaroute.hwgraph import builtin_topology
from qaroute.qvbench import haar_su4
from qaroute.simulate import exchange_qubits

SWAP = np.array([[1, 0, 0, 0],
                 [0, 0, 1, 0],
                 [0, 1, 0, 0],
                 [0, 0, 0, 1]], dtype=complex)


# Oracle check first: the closed-form budget table must agree with direct
# numeric maximization over explicit k-CNOT circuits.
def test_budget_table_matches_numeric_oracle():
    for trial in range(6):
        u = haar_su4([91, trial])
        closed = cnot_budget_fidelities(u)
        numeric = numeric_fidelity_budget(u, k_max=2, restarts=10, seed=trial)
        for k in range(3):
            assert abs(closed[k] - numeric[k]) <= 1e-4, (trial, k)


def test_three_cnots_always_suffice():
    for trial in range(25):
        u = haar_su4([92, trial])
        assert abs(cnot_budget_fidelities(u)[3] - 1.0) <= 1e-9


def test_budget_table_monotone():
    for trial in range(25):
        f = cnot_budget_fidelities(haar_su4([93, trial]))
        assert all(f[k] <= f[k + 1] + 1e-15 for k in range(3))


def test_known_gate_tables():
    assert cnot_budget_fidelities(CX) == pytest.approx((0.6, 1.0, 1.0, 1.0), abs=1e-12)
    assert cnot_budget_fidelities(SWAP) == pytest.approx((0.4, 0.4, 0.6, 1.0), abs=1e-12)
    merged = SWAP @ CX
    assert cnot_budget_fidelities(merged) == pytest.approx((0.4, 0.6, 1.0, 1.0), abs=1e-12)
    assert cnot_budget_fidelities(np.eye(4)) == pytest.approx((1.0, 1.0, 1.0, 1.0), abs=1e-12)


def test_avg_gate_fidelity_values():
    assert avg_gate_fidelity(CX, np.eye(4)) == 0.4
    assert avg_gate_fidelity(CX, CX) == pytest.approx(1.0, abs=1e-12)
    u = haar_su4(7)
    assert avg_gate_fidelity(u, np.exp(0.7j) * u) == pytest.approx(1.0, abs=1e-12)


def test_trace_to_fidelity():
    assert trace_to_fidelity(4.0) == pytest.approx(1.0)
    assert trace_to_fidelity(0.0) == pytest.approx(0.2)
    assert trace_to_fidelity(2.0) == pytest.approx(0.4)


def test_weyl_coordinates_invariances():
    u = haar_su4(8)
    a1, b1, c1 = weyl_coordinates(u)
    rng = np.random.default_rng(9)

    def su2():
        z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        q, r = np.linalg.qr(z)
        return q * (np.diagonal(r) / np.abs(np.diagonal(r)))

    dressed = np.kron(su2(), su2()) @ u @ np.kron(su2(), su2())
    assert weyl_coordinates(dressed) == pytest.approx((a1, b1, c1), abs=1e-9)
    assert weyl_coordinates(exchange_qubits(u)) == pytest.approx((a1, b1, c1), abs=1e-9)


def test_exact_table_consistency():
    for trial in range(10):
        u = haar_su4([94, trial])
        exact = exact_cnot_fidelities(u)
        budget = cnot_budget_fidelities(u)
        run = 0.0
        for k in range(4):
            run = max(run, exact[k])
            assert budget[k] == pytest.approx(run, abs=1e-15)


def test_closest_unitary_distance():
    u = haar_su4(10)
    assert closest_unitary_distance(u) <= 1e-12


def test_placement_cost_tie_break():
    # Equal products prefer fewer CNOTs.
    beta = 1.0
    pc = placement_cost((1.0, 1.0, 1.0, 1.0), (0.5, 0.5, 0.5, 1.0), beta)
    assert pc.n_plain == 0
    assert pc.p_plain == pytest.approx(1.0)
    assert pc.n_merged == 3
    pc2 = placement_cost((0.5, 0.9, 0.95, 1.0), (0.4, 0.4, 0.6, 1.0), 0.9)
    # 0.5, 0.81, 0.7695, 0.729 -> one CNOT wins.
    assert pc2.n_plain == 1
    assert pc2.p_plain == pytest.approx(0.81)
    # 0.4, 0.36, 0.486, 0.729 -> merged prefers all three.
    assert pc2.n_merged == 3
    assert pc2.p_merged == pytest.approx(0.729)


def test_model_cost_orientation_free(line4):
    c = random_layered_circuit(4, (2, 1), seed=12)
    c, fid = prepared(c, line4, 1)
    for gate in (g for grp in c.groups for g in grp):
        for i, j in line4.arcs():
            a = fid.cost(gate.gid, i, j)
            b = fid.cost(gate.gid, j, i)
            assert a == b


def test_model_overrides():
    g = builtin_topology("line", 4)
    c = random_layered_circuit(4, (1,), seed=13)
    table = {0: {"f": [1.0, 1.0, 1.0, 1.0], "f_swap": [0.1, 0.1, 0.1, 1.0]}}
    c2, fid = prepared(c, g, 0, overrides=table)
    pc = fid.cost(0, 0, 1)
    assert pc.n_plain == 0 and pc.p_plain == pytest.approx(1.0)


def test_load_fidelity_overrides_errors():
    with pytest.raises(FidelityError):
        load_fidelity_overrides({"0": {"f": [1, 1, 1, 1]}})
    with pytest.raises(FidelityError):
        load_fidelity_overrides({"0": {"f": [1, 1], "f_swap": [1, 1, 1, 1]}})
    with pytest.raises(FidelityError):
        load_fidelity_overrides("{oops")
    with pytest.raises(FidelityError):
        load_fidelity_overrides({"0": {"f": ["high", 1, 1, 1], "f_swap": [1, 1, 1, 1]}})
    with pytest.raises(FidelityError):
        load_fidelity_overrides({"first": {"f": [1, 1, 1, 1], "f_swap": [1, 1, 1, 1]}})
    with pytest.raises(FidelityError):
        load_fidelity_overrides("[1,\n 2]")
    good = load_fidelity_overrides('{"2": {"f": [0.5, 0.9, 1, 1], "f_swap": [0.4, 0.4, 0.6, 1]}}')
    assert good[2]["f"][1] == 0.9


def test_log_cost_accounting(line4):
    # The error objective charges -log p for the chosen implementation;
    # one merged three-CNOT unit on a default edge costs -3 log beta more
    # than a perfect zero-CNOT one.
    c = random_layered_circuit(4, (1,), seed=14)
    c2, fid = prepared(c, line4, 0)
    pc = fid.cost(0, 0, 1)
    assert 0.0 < pc.p_plain <= 1.0 and 0.0 < pc.p_merged <= 1.0
    beta = line4.beta_of(0, 1)
    budget = cnot_budget_fidelities(c.groups[0][0].unitary)
    best = max(budget[k] * beta ** k for k in range(4))
    assert pc.p_plain == pytest.approx(best, abs=1e-15)
    assert -math.log(pc.p_plain) >= 0.0


def test_gate_and_swap_prices(line4):
    c, fid = prepared(random_layered_circuit(4, (2, 1), seed=15), line4, 1)
    for gate in c.gates():
        for i, j in line4.arcs():
            pc = fid.cost(gate.gid, i, j)
            assert fid.gate_error(gate.gid, i, j) == -math.log(pc.p_plain)
            assert fid.gate_error(gate.gid, i, j, merged=True) == -math.log(pc.p_merged)
    for i, j in line4.edges:
        assert fid.swap_error(i, j) == -3.0 * math.log(line4.beta_of(i, j))
    mean_beta = sum(line4.beta.values()) / len(line4.beta)
    assert fid.mean_swap_error() == -3.0 * math.log(mean_beta)
