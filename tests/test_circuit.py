import warnings

import numpy as np
import pytest

from qaroute.circuit import (CircuitError, Gate, LayeredCircuit, dump_circuit,
                             insert_dummy_steps, layerize, load_circuit,
                             pad_qubits)
from qaroute.qvbench import haar_su4

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
    for text in ("{broken", "[]", "5"):
        with pytest.raises(CircuitError):
            load_circuit(text)
    for bad in ([["one", 0]] * 16, [[1, 0, 0]] * 16, 7):
        with pytest.raises(CircuitError):
            load_circuit({"qubits": ["a", "b"],
                          "gates": [{"p": "a", "q": "b", "kind": "matrix", "matrix": bad}]})
    with pytest.raises(CircuitError):
        load_circuit({"qubits": 3, "gates": []})
    with pytest.raises(CircuitError):
        load_circuit({"qubits": ["a", "b"], "gates": [5]})


def test_loader_rejects_a_diagonal_off_unitary_by_more_than_its_tolerance():
    # diag(1 + 4e-6, 1, 1, 1) is 8e-6 off unitary on the diagonal, far past
    # the 1e-8 tolerance; a relative tolerance there once let it through,
    # to fail later in the pricing without a gate id.
    u = np.diag([1 + 4e-6, 1, 1, 1])
    doc = {"qubits": ["a", "b"],
           "gates": [{"p": "a", "q": "b", "kind": "matrix",
                      "matrix": [[float(z.real), float(z.imag)] for z in u.reshape(-1)]}]}
    with pytest.raises(CircuitError, match="^gate 0 payload is not a 4x4 unitary$"):
        load_circuit(doc)


@pytest.mark.parametrize("entry", [np.inf, -np.inf, np.nan, complex(0, np.inf)])
def test_gate_refuses_a_non_finite_payload(entry):
    # A non-finite entry is an infinite defect: refused, with no warning.
    u = CX.copy()
    u[2, 3] = entry
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(CircuitError, match="^gate 5 payload is not a 4x4 unitary$"):
            Gate(0, 1, u, gid=5)


def test_layerize_keeps_a_gate_that_has_its_id(monkeypatch):
    # A gate that already carries its id is placed as it is, not rebuilt,
    # so its payload is checked once, when the gate is made.
    gates = [Gate(0, 1, CX, gid=4), Gate(1, 2, CX, gid=7)]
    unnumbered = Gate(0, 1, CX)
    checks = []
    monkeypatch.setattr("qaroute.circuit.is_unitary", lambda u: checks.append(u) or True)
    c = layerize(gates)
    assert c.gates()[0] is gates[0] and c.gates()[1] is gates[1]
    assert checks == []
    # A gate without an id gets one, in a copy that is checked again.
    c = layerize([unnumbered])
    assert c.gates()[0].gid == 0 and unnumbered.gid == -1
    assert len(checks) == 1
