"""Shared builders and reference oracles for the test suite.

The numeric fidelity oracle here is deliberately independent of the
library's closed-form tables: it maximizes average gate fidelity over an
explicit k-CNOT ansatz by local optimization with random restarts.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import minimize

from qaroute.circuit import Gate, LayeredCircuit, insert_dummy_steps, pad_qubits
from qaroute.gatefid import FidelityModel
from qaroute.qvbench import haar_su4

class RecordingPool:
    """In-process stand-in for ProcessPoolExecutor that records the pool
    sizes asked for. Install it with monkeypatch, and give ``sizes`` a
    fresh list the same way."""

    sizes: list[int] = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return map(fn, tasks)


CX = np.array([[1, 0, 0, 0],
               [0, 1, 0, 0],
               [0, 0, 0, 1],
               [0, 0, 1, 0]], dtype=complex)


def su2(a: float, b: float, c: float) -> np.ndarray:
    ca, sa = np.cos(b / 2), np.sin(b / 2)
    return np.array([[np.exp(-0.5j * (a + c)) * ca, -np.exp(-0.5j * (a - c)) * sa],
                     [np.exp(0.5j * (a - c)) * sa, np.exp(0.5j * (a + c)) * ca]])


def cnot_ansatz(theta: np.ndarray, k: int) -> np.ndarray:
    """Circuit with exactly k CNOTs interleaved with single-qubit pairs."""
    v = np.kron(su2(*theta[0:3]), su2(*theta[3:6]))
    for j in range(k):
        base = 6 * (j + 1)
        v = np.kron(su2(*theta[base:base + 3]), su2(*theta[base + 3:base + 6])) @ CX @ v
    return v


def numeric_fidelity_exact_k(u: np.ndarray, k: int, restarts: int = 12,
                             seed: int = 0) -> float:
    """Best average fidelity of a k-CNOT circuit against u, by optimization."""
    rng = np.random.default_rng([seed, k])
    udag = u.conj().T

    def neg(theta):
        return -abs(np.trace(udag @ cnot_ansatz(theta, k))) ** 2

    best = 0.0
    for _ in range(restarts):
        x0 = rng.uniform(-np.pi, np.pi, size=6 * (k + 1))
        res = minimize(neg, x0, method="L-BFGS-B")
        best = max(best, -res.fun)
    return (4.0 + best) / 20.0


def numeric_fidelity_budget(u: np.ndarray, k_max: int = 2, restarts: int = 12,
                            seed: int = 0) -> tuple[float, ...]:
    """Cumulative best fidelity over budgets 0..k_max (oracle counterpart)."""
    out = []
    best = 0.0
    for k in range(k_max + 1):
        best = max(best, numeric_fidelity_exact_k(u, k, restarts, seed))
        out.append(best)
    return tuple(out)


def random_layered_circuit(n_qubits: int, layer_sizes, seed) -> LayeredCircuit:
    """Layers of Haar-random SU(4) gates on disjoint random qubit pairs."""
    rng = np.random.default_rng(seed)
    layers = []
    gid = 0
    for size in layer_sizes:
        perm = [int(v) for v in rng.permutation(n_qubits)]
        grp = []
        for a in range(size):
            grp.append(Gate(perm[2 * a], perm[2 * a + 1], haar_su4(rng), gid=gid))
            gid += 1
        layers.append(tuple(grp))
    return LayeredCircuit(n_qubits, tuple(layers))


def prepared(c: LayeredCircuit, g, k: int, overrides=None):
    """Pad to the hardware, insert k dummy steps, build the fidelity model."""
    c = insert_dummy_steps(pad_qubits(c, g.n), k)
    return c, FidelityModel.build(c, g, overrides=overrides)


def line4_five_gate_circuit(seed: int = 11) -> LayeredCircuit:
    """Five SU(4) gates in three layers on four qubits.

    Layers: {(0,1), (2,3)}, {(0,3)}, {(0,2), (1,3)}. With the 4-node line
    and no dummy steps this model has exactly 158 binary variables.
    """
    us = [haar_su4([seed, k]) for k in range(5)]
    return LayeredCircuit(4, (
        (Gate(0, 1, us[0], gid=0), Gate(2, 3, us[1], gid=1)),
        (Gate(0, 3, us[2], gid=2),),
        (Gate(0, 2, us[3], gid=3), Gate(1, 3, us[4], gid=4)),
    ))


# The reference assignment for the five-gate line-4 model: identity start,
# both first-layer gates merge a swap, the middle gate merges a third, and
# the last two run in place. 25 variables at one, final map (2, 0, 3, 1).
REFERENCE_ASSIGNMENT_NAMES = (
    "w_0_0_0", "w_1_1_0", "w_2_2_0", "w_3_3_0",
    "y_0_0_1_0", "y_1_2_3_0",
    "x_0_0_1_0", "x_1_1_0_0", "x_2_2_3_0", "x_3_3_2_0",
    "w_1_0_1", "w_0_1_1", "w_3_2_1", "w_2_3_1",
    "y_2_1_2_1",
    "x_1_0_0_1", "x_0_1_2_1", "x_3_2_1_1", "x_2_3_3_1",
    "w_1_0_2", "w_3_1_2", "w_0_2_2", "w_2_3_2",
    "y_4_0_1_2", "y_3_2_3_2",
)


def reference_solution_text() -> str:
    return "".join(f"{name} 1\n" for name in REFERENCE_ASSIGNMENT_NAMES)
