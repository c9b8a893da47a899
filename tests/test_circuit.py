import numpy as np
import pytest

from qaroute.circuit import (CircuitError, Gate, LayeredCircuit, dump_circuit,
                             insert_dummy_steps, layerize, load_circuit,
                             orient_gates, pad_qubits)
from qaroute.qvbench import haar_su4
from qaroute.simulate import apply_two_qubit

CX = np.array([[1, 0, 0, 0],
               [0, 1, 0, 0],
               [0, 0, 0, 1],
               [0, 0, 1, 0]], dtype=complex)


def test_gate_validation():
    with pytest.raises(CircuitError):
        Gate(1, 1, CX)
    with pytest.raises(CircuitError):
        Gate(0, 1, np.ones((4, 4)))
    with pytest.raises(CircuitError):
        Gate(0, 1, np.eye(3))


def test_layer_disjointness_enforced():
    with pytest.raises(CircuitError):
        LayeredCircuit(3, ((Gate(0, 1, CX, gid=0), Gate(1, 2, CX, gid=1)),))


def test_layerize_asap():
    gates = [(0, 1, CX), (2, 3, CX), (0, 3, CX), (1, 2, CX)]
    c = layerize(gates)
    assert c.n_qubits == 4
    assert [len(grp) for grp in c.groups] == [2, 2]
    assert [g.gid for grp in c.groups for g in grp] == [0, 1, 2, 3]
    # A chain on one qubit cannot be compressed.
    chain = layerize([(0, 1, CX), (0, 2, CX), (0, 3, CX)])
    assert chain.num_steps == 3


def test_pad_qubits():
    c = layerize([(0, 1, CX)])
    padded = pad_qubits(c, 4)
    assert padded.n_qubits == 4
    assert padded.qubit_labels[:2] == (0, 1)
    assert len(padded.qubit_labels) == 4
    with pytest.raises(CircuitError):
        pad_qubits(padded, 2)


def test_insert_dummy_steps():
    c = layerize([(0, 1, CX), (0, 1, CX), (0, 1, CX)])
    out = insert_dummy_steps(c, 2)
    assert out.num_steps == 3 + 2 * 2
    assert out.dummy_steps == (1, 2, 4, 5)
    assert insert_dummy_steps(c, 0) is c
    with pytest.raises(CircuitError):
        insert_dummy_steps(c, -1)


def test_orient_gates_preserves_action():
    u = haar_su4(5)
    c = LayeredCircuit(2, ((Gate(1, 0, u, gid=0),),))
    oriented = orient_gates(c)
    gate = oriented.groups[0][0]
    assert (gate.p, gate.q) == (0, 1)
    rng = np.random.default_rng(3)
    amp = rng.normal(size=4) + 1j * rng.normal(size=4)
    state = amp / np.linalg.norm(amp)
    fwd = apply_two_qubit(state, u, 1, 0, 2)
    alt = apply_two_qubit(state, gate.unitary, 0, 1, 2)
    assert np.allclose(fwd, alt)


def test_document_round_trip():
    c = layerize([(0, 1, haar_su4(1)), (1, 2, haar_su4(2))], n_qubits=3)
    doc = dump_circuit(c)
    back = load_circuit(doc)
    assert back.n_qubits == c.n_qubits
    assert back.num_steps == c.num_steps
    for grp_a, grp_b in zip(back.groups, c.groups):
        for a, b in zip(grp_a, grp_b):
            assert (a.p, a.q, a.gid) == (b.p, b.q, b.gid)
            assert np.allclose(a.unitary, b.unitary)


def test_load_circuit_kinds():
    doc = {
        "qubits": ["q0", "q1"],
        "gates": [
            {"p": "q0", "q": "q1", "kind": "cx"},
            {"p": "q1", "q": "q0", "kind": "swap"},
        ],
    }
    c = load_circuit(doc)
    assert c.n_qubits == 2
    assert np.allclose(c.groups[0][0].unitary, CX)


def test_load_circuit_errors():
    with pytest.raises(CircuitError):
        load_circuit({"qubits": ["a"]})
    with pytest.raises(CircuitError):
        load_circuit({"qubits": ["a", "b"],
                      "gates": [{"p": "a", "q": "b", "kind": "matrix",
                                 "matrix": [[1, 0]] * 3}]})
    with pytest.raises(CircuitError):
        load_circuit("{broken")
    for bad in ([["one", 0]] * 16, [[1, 0, 0]] * 16, 7):
        with pytest.raises(CircuitError):
            load_circuit({"qubits": ["a", "b"],
                          "gates": [{"p": "a", "q": "b", "kind": "matrix", "matrix": bad}]})
    with pytest.raises(CircuitError):
        load_circuit({"qubits": 3, "gates": []})
    with pytest.raises(CircuitError):
        load_circuit({"qubits": ["a", "b"], "gates": [5]})
