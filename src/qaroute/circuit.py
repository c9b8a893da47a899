"""Logical circuits as layers of two-qubit gates.

The routing model consumes a *layered* circuit: an ordered list of time
steps, each holding qubit-disjoint two-qubit gates. Single-qubit gates
are out of scope; callers are expected to absorb them into neighbouring
two-qubit unitaries before loading a circuit here.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np

from .simulate import CX, SWAP, exchange_qubits, is_unitary

NAMED_GATES = {"cx": CX, "swap": SWAP}


class CircuitError(ValueError):
    """Raised for malformed circuits or circuit documents."""


@dataclass
class Gate:
    """A two-qubit gate on logical qubits (p, q), p listed first.

    ``gid`` is the gate's position in the original program order; it stays
    stable through layering, padding, reorientation and dummy insertion so
    fidelity tables can key on it.
    """

    p: int
    q: int
    unitary: np.ndarray
    gid: int = -1

    def __post_init__(self) -> None:
        if self.p == self.q:
            raise CircuitError(f"gate {self.gid} acts twice on qubit {self.p}")
        u = np.asarray(self.unitary, dtype=complex)
        if u.shape != (4, 4) or not is_unitary(u):
            raise CircuitError(f"gate {self.gid} payload is not a 4x4 unitary")
        self.unitary = u

    @property
    def operands(self) -> tuple[int, int]:
        return (self.p, self.q)


@dataclass
class LayeredCircuit:
    """Gates grouped into qubit-disjoint layers; empty layers are dummies."""

    n_qubits: int
    groups: tuple[tuple[Gate, ...], ...]
    qubit_labels: tuple[object, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.n_qubits < 0:
            raise CircuitError("negative qubit count")
        for t, grp in enumerate(self.groups):
            busy: set[int] = set()
            for gate in grp:
                for op in gate.operands:
                    if not 0 <= op < self.n_qubits:
                        raise CircuitError(f"gate {gate.gid} touches unknown qubit {op}")
                    if op in busy:
                        raise CircuitError(f"layer {t} reuses qubit {op}")
                    busy.add(op)
        if not self.qubit_labels:
            self.qubit_labels = tuple(range(self.n_qubits))
        elif len(self.qubit_labels) != self.n_qubits:
            raise CircuitError("qubit_labels must cover every qubit")

    @property
    def num_steps(self) -> int:
        return len(self.groups)

    @property
    def dummy_steps(self) -> tuple[int, ...]:
        return tuple(t for t, grp in enumerate(self.groups) if not grp)

    def gates(self) -> list[Gate]:
        return [gate for grp in self.groups for gate in grp]

    def busy_qubits(self, t: int) -> set[int]:
        return {op for gate in self.groups[t] for op in gate.operands}

    def max_layer_width(self) -> int:
        return max((len(grp) for grp in self.groups), default=0)


def layerize(gates: list[Gate] | list[tuple], n_qubits: int | None = None) -> LayeredCircuit:
    """Greedy ASAP layering: each gate lands in the earliest layer after
    the previous gates of both its operands.
    """
    normed: list[Gate] = []
    for k, g in enumerate(gates):
        if isinstance(g, Gate):
            normed.append(replace(g, gid=k if g.gid < 0 else g.gid))
        else:
            p, q, u = g
            normed.append(Gate(p=p, q=q, unitary=u, gid=k))
    if n_qubits is None:
        n_qubits = 1 + max((max(g.operands) for g in normed), default=-1)
    layers: list[list[Gate]] = []
    frontier = [0] * max(n_qubits, 1)
    for g in normed:
        t = max(frontier[g.p], frontier[g.q])
        while len(layers) <= t:
            layers.append([])
        layers[t].append(g)
        frontier[g.p] = frontier[g.q] = t + 1
    return LayeredCircuit(n_qubits=n_qubits, groups=tuple(tuple(l) for l in layers))


def pad_qubits(c: LayeredCircuit, n_nodes: int) -> LayeredCircuit:
    """Add idle logical qubits until the register matches the hardware size."""
    if c.n_qubits > n_nodes:
        raise CircuitError(f"circuit uses {c.n_qubits} qubits but hardware has {n_nodes} nodes")
    if c.n_qubits == n_nodes:
        return c
    labels = tuple(c.qubit_labels) + tuple(f"pad{k}" for k in range(c.n_qubits, n_nodes))
    return LayeredCircuit(n_qubits=n_nodes, groups=c.groups, qubit_labels=labels)


def insert_dummy_steps(c: LayeredCircuit, k: int) -> LayeredCircuit:
    """Insert k empty layers between every pair of consecutive layers.

    Dummy layers give free qubits room to move; none are added before the
    first or after the last layer, so an m-layer circuit grows to
    m + k*(m-1) steps.
    """
    if k < 0:
        raise CircuitError("dummy step count must be nonnegative")
    if k == 0 or c.num_steps <= 1:
        return c
    groups: list[tuple[Gate, ...]] = []
    for t, grp in enumerate(c.groups):
        if t > 0:
            groups.extend(() for _ in range(k))
        groups.append(grp)
    return LayeredCircuit(n_qubits=c.n_qubits, groups=tuple(groups),
                          qubit_labels=c.qubit_labels)


def orient_gates(c: LayeredCircuit) -> LayeredCircuit:
    """Normalize every gate to p < q, exchanging the unitary's factors
    when the stored order was reversed.
    """
    groups = []
    for grp in c.groups:
        out = []
        for g in grp:
            if g.p < g.q:
                out.append(g)
            else:
                out.append(Gate(p=g.q, q=g.p, unitary=exchange_qubits(g.unitary), gid=g.gid))
        groups.append(tuple(out))
    return LayeredCircuit(n_qubits=c.n_qubits, groups=tuple(groups),
                          qubit_labels=c.qubit_labels)


def _matrix_from_doc(entries) -> np.ndarray:
    if len(entries) != 16:
        raise CircuitError("matrix payload needs 16 row-major entries")
    flat = []
    for item in entries:
        re, im = item
        flat.append(complex(re, im))
    return np.array(flat, dtype=complex).reshape(4, 4)


def load_circuit(source: str | dict) -> LayeredCircuit:
    """Build a layered circuit from a JSON document.

    The document lists ``qubits`` (labels) and ``gates``; each gate names
    its operands ``p``/``q`` and a ``kind`` of ``cx``, ``swap`` or
    ``matrix`` (with 16 row-major ``[re, im]`` pairs). Single-qubit gates
    are rejected: merge them into adjacent two-qubit unitaries first.
    """
    if isinstance(source, dict):
        doc = source
    else:
        text = source
        if "\n" not in text and not text.lstrip().startswith("{"):
            with open(text, encoding="utf-8") as fh:
                text = fh.read()
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CircuitError(f"circuit document is not valid JSON: {exc}") from exc
    try:
        return _circuit_from_doc(doc)
    except CircuitError:
        raise
    except (TypeError, ValueError) as exc:
        raise CircuitError(f"malformed circuit document: {exc}") from exc


def _circuit_from_doc(doc) -> LayeredCircuit:
    if "qubits" not in doc or "gates" not in doc:
        raise CircuitError("circuit document needs 'qubits' and 'gates'")
    labels = list(doc["qubits"])
    if len(set(labels)) != len(labels):
        raise CircuitError("duplicate qubit labels")
    index = {lab: k for k, lab in enumerate(labels)}
    gates: list[Gate] = []
    for k, entry in enumerate(doc["gates"]):
        if "p" not in entry or "q" not in entry:
            raise CircuitError(
                f"gate {k} lacks two operands; single-qubit gates are not "
                "supported, merge them into a neighbouring two-qubit gate")
        p, q = entry["p"], entry["q"]
        if p not in index or q not in index:
            raise CircuitError(f"gate {k} references unknown qubit label")
        if p == q:
            raise CircuitError(
                f"gate {k} is single-qubit; merge it into a neighbouring "
                "two-qubit gate before loading")
        kind = entry.get("kind", "matrix")
        if kind in NAMED_GATES:
            u = NAMED_GATES[kind]
        elif kind == "matrix":
            if "matrix" not in entry:
                raise CircuitError(f"gate {k} of kind 'matrix' lacks its matrix")
            u = _matrix_from_doc(entry["matrix"])
        else:
            raise CircuitError(f"gate {k} has unknown kind {kind!r}")
        gates.append(Gate(p=index[p], q=index[q], unitary=u, gid=k))
    circ = layerize(gates, n_qubits=len(labels))
    return LayeredCircuit(n_qubits=circ.n_qubits, groups=circ.groups,
                          qubit_labels=tuple(labels))


def dump_circuit(c: LayeredCircuit) -> dict:
    """Inverse of load_circuit, up to layering (gates in program order)."""
    gates = []
    for g in sorted(c.gates(), key=lambda g: g.gid):
        gates.append({
            "p": c.qubit_labels[g.p],
            "q": c.qubit_labels[g.q],
            "kind": "matrix",
            "matrix": [[float(z.real), float(z.imag)] for z in g.unitary.reshape(-1)],
        })
    return {"qubits": list(c.qubit_labels), "gates": gates}
