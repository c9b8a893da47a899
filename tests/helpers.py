"""Shared builders and reference oracles for the test suite.

The numeric fidelity oracle here is deliberately independent of the
library's closed-form tables: it maximizes average gate fidelity over an
explicit k-CNOT ansatz by local optimization with random restarts.
"""

from __future__ import annotations

import math
import random
from dataclasses import replace

import numpy as np
from scipy.optimize import minimize

from qaroute.bipmodel import BipProblem, Row, VariableSpace
from qaroute.circuit import Gate, LayeredCircuit, insert_dummy_steps, pad_qubits
from qaroute.extract import FreeSwap, GateOp, RoutedCircuit
from qaroute.gatefid import FidelityModel
from qaroute.heuristic import DECAY, WINDOW
from qaroute.hwgraph import norm_edge
from qaroute.qvbench import haar_su4, lower_circuit, qv_instance
from qaroute.simulate import SWAP, apply_two_qubit, permutation_matrix, phase_distance

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


# su2(a, b, c) times these, entry by entry, is its derivative by a, or
# by c; by b it is su2(a, b + pi, c) / 2.
D_A = np.array([[-0.5j, -0.5j], [0.5j, 0.5j]])
D_C = np.array([[-0.5j, 0.5j], [-0.5j, 0.5j]])


def su2_and_derivatives(a: float, b: float, c: float) -> tuple:
    x = su2(a, b, c)
    return x, (x * D_A, su2(a, b + math.pi, c) / 2, x * D_C)


def ansatz_overlap(theta: np.ndarray, k: int, udag: np.ndarray) -> tuple[float, np.ndarray]:
    """|tr(u^dag V)|^2 for V = cnot_ansatz(theta, k), and its exact
    gradient in theta. V is L_k CX ... CX L_0 with L_j = A_j (x) B_j, so
    the derivative of tr(u^dag V) by a parameter of L_j is tr(M_j dL_j),
    M_j being the circuit before L_j, then u^dag, then the circuit after."""
    parts = [(su2_and_derivatives(*theta[6 * j:6 * j + 3]),
              su2_and_derivatives(*theta[6 * j + 3:6 * j + 6])) for j in range(k + 1)]
    layer = [np.kron(a, b) for (a, _), (b, _) in parts]
    before = [np.eye(4)]
    for j in range(k):
        before.append(CX @ layer[j] @ before[-1])
    after = [np.eye(4)] * (k + 1)
    for j in range(k, 0, -1):
        after[j - 1] = after[j] @ layer[j] @ CX
    z = np.trace(udag @ after[0] @ layer[0])
    grad = np.empty(6 * (k + 1))
    for j, ((a, da), (b, db)) in enumerate(parts):
        m = (before[j] @ udag @ after[j]).T  # tr(M X) = sum(M.T * X)
        dz = [np.sum(m * np.kron(d, b)) for d in da] + [np.sum(m * np.kron(a, d)) for d in db]
        grad[6 * j:6 * j + 6] = 2.0 * (z.conjugate() * np.array(dz)).real
    return abs(z) ** 2, grad


def numeric_fidelity_exact_k(u: np.ndarray, k: int, restarts: int = 12,
                             seed: int = 0) -> float:
    """Best average fidelity of a k-CNOT circuit against u, by optimization."""
    rng = np.random.default_rng([seed, k])
    udag = u.conj().T

    def neg(theta):
        value, grad = ansatz_overlap(theta, k, udag)
        return -value, -grad

    best = 0.0
    for _ in range(restarts):
        x0 = rng.uniform(-np.pi, np.pi, size=6 * (k + 1))
        res = minimize(neg, x0, method="L-BFGS-B", jac=True)
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


def lattice_offsets(eigs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The three raw Weyl angles of one spectrum of V^T V, each in
    [0, 2 pi), and the distance of each to the pi/2 lattice."""
    d = -np.angle(eigs) / 2.0
    d[3] = -d[0] - d[1] - d[2]
    cs = np.mod((d[:3] + d[3]) / 2.0, 2.0 * math.pi)
    near = np.mod(cs, math.pi / 2)
    np.minimum(near, math.pi / 2 - near, out=near)
    return cs, near


def reference_fold_spectrum(eigs: np.ndarray) -> tuple[float, float, float]:
    """Weyl coordinates from one spectrum of V^T V, one branch at a time:
    the oracle of the library's fold of a whole stack of spectra."""
    pi2, pi4 = math.pi / 2, math.pi / 4
    cs, near = lattice_offsets(eigs)
    # Fold into the canonical chamber; order by distance to the pi/2 lattice.
    cs = cs[np.argsort(near)[[1, 2, 0]]].tolist()
    if cs[0] > pi2 + 1e-13:
        cs[0] -= 3.0 * pi2
    if cs[1] > pi2 + 1e-13:
        cs[1] -= 3.0 * pi2
    conjs = 0
    if cs[0] > pi4 + 1e-13:
        cs[0] = pi2 - cs[0]
        conjs += 1
    if cs[1] > pi4 + 1e-13:
        cs[1] = pi2 - cs[1]
        conjs += 1
    if cs[2] > pi2 + 1e-13:
        cs[2] -= 3.0 * pi2
    if conjs == 1:
        cs[2] = pi2 - cs[2]
    if cs[2] > pi4 + 1e-13:
        cs[2] -= pi2
    return cs[1], cs[0], cs[2]


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


def qv_prefix(w: int, seed, layers: int) -> LayeredCircuit:
    """``gen_qv_circuit(w, seed)`` cut to its first ``layers`` layers, as
    ``qv_instance`` cuts it, then lowered: not padded, no dummy steps."""
    return lower_circuit(qv_instance(w, seed, w, layers)[0])


def prepared(c: LayeredCircuit, g, k: int, overrides=None):
    """Pad to the hardware, insert k dummy steps, build the fidelity model."""
    c = insert_dummy_steps(pad_qubits(c, g.n), k)
    return c, FidelityModel.build(c, g, overrides=overrides)


def shuffled_grid_document(side: int, seed: int | None) -> dict:
    """A side-by-side grid's topology document whose node labels
    0..side*side-1 are shuffled by ``random.Random(seed)``, so the
    labels no longer follow the grid's rows; row by row if seed is None."""
    label = list(range(side * side))
    if seed is not None:
        random.Random(seed).shuffle(label)
    edges = [[label[v], label[v + d]] for v in range(side * side)
             for d in (1, side) if (d == side or (v + 1) % side) and v + d < side * side]
    return {"nodes": list(range(side * side)), "edges": edges}


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


def plain_links(vs: VariableSpace, p: BipProblem) -> BipProblem:
    """``p`` with each strengthened upper ``LINK`` row, ``y <= x[q,i,i] +
    x[q,i,j]``, replaced in place by the plain ``y <= w[q,i]`` at its step:
    the textbook McCormick envelope, a reference form of the model."""
    def plain(row: Row) -> Row:
        if row.family != "LINK" or row.sense != "<=" or vs.var_meta[row.vars[1]][0] != "x":
            return row
        _, q, i, _, t = vs.var_meta[row.vars[1]]
        return Row((row.vars[0], vs.w(q, i, t)), (1.0, -1.0), "<=", 0.0, "LINK")
    return replace(p, rows=tuple(map(plain, p.rows)))


def without_family(p: BipProblem, family: str) -> BipProblem:
    """``p`` less every row of one family."""
    return replace(p, rows=tuple(row for row in p.rows if row.family != family))


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


def dense_unitary_deviation(rc: RoutedCircuit, c: LayeredCircuit) -> float:
    """``verify_unitary`` written densely, as its oracle: the route's
    product over all n node wires, its swaps applied as matrices, against
    ``permutation_matrix(final_map) @ logical @
    permutation_matrix(initial_map)^dagger``, all 2^n x 2^n."""
    n = rc.n_nodes
    unis = {gt.gid: gt.unitary for gt in c.gates()}
    phys = np.eye(2 ** n, dtype=complex)
    for ops in rc.steps:
        for op in ops:
            if isinstance(op, GateOp):
                phys = apply_two_qubit(phys, unis[op.gid], *op.arc, n)
                if op.merged_swap:
                    phys = apply_two_qubit(phys, SWAP, *op.arc, n)
            else:
                phys = apply_two_qubit(phys, SWAP, *op.edge, n)
    logical = np.eye(2 ** n, dtype=complex)
    for gt in c.gates():
        logical = apply_two_qubit(logical, gt.unitary, gt.p, gt.q, n)
    target = (permutation_matrix(rc.final_map) @ logical
              @ permutation_matrix(rc.initial_map).conj().T)
    return phase_distance(phys, target)


def reference_route(c: LayeredCircuit, g, initial_map, fid: FidelityModel,
                    forced: list | None = None) -> RoutedCircuit:
    """The greedy router written plainly, as the oracle of the library's
    router kernel: ``Gate`` objects, a set for the busy qubits, a fresh
    layout copy per scored candidate. When ``forced`` is a list, the
    index of every step taken by the forced-progress walk is appended.
    """
    n = g.n
    initial_map = tuple(initial_map)
    dist = g.distances()
    remaining = c.gates()
    pos = list(initial_map)
    steps: list[tuple] = []
    stall = 0
    stall_limit = 2 * n
    while remaining:
        fr, rest, busy = [], [], set()
        for gt in remaining:
            (rest if gt.p in busy or gt.q in busy else fr).append(gt)
            busy.update((gt.p, gt.q))
        ready = [gt for gt in fr if g.has_edge(pos[gt.p], pos[gt.q])]
        if ready:
            ops = []
            for gt in ready:
                i, j = pos[gt.p], pos[gt.q]
                ops.append(GateOp(gid=gt.gid, p=gt.p, q=gt.q, arc=(i, j), merged_swap=False,
                                  cnots_used=fid.cnots(gt.gid, i, j)))
            steps.append(tuple(ops))
            executed = {gt.gid for gt in ready}
            remaining = [gt for gt in remaining if gt.gid not in executed]
            stall = 0
            continue

        occ = [-1] * n
        for q in range(n):
            occ[pos[q]] = q
        look = rest[:WINDOW]

        def score(layout) -> float:
            s = 0.0
            for gt in fr:
                s += dist[layout[gt.p]][layout[gt.q]]
            weight = 0.5
            for gt in look:
                s += weight * dist[layout[gt.p]][layout[gt.q]]
                weight *= DECAY
            return s

        base_front = sum(dist[pos[gt.p]][pos[gt.q]] for gt in fr)
        if stall >= stall_limit:
            if forced is not None:
                forced.append(len(steps))
            gt = min(fr, key=lambda x: x.gid)
            i, j = pos[gt.p], pos[gt.q]
            nxt = min((k for k in g.neighbors(i) if dist[k][j] < dist[i][j]))
            best_edge = norm_edge(i, nxt)
        else:
            cand = {norm_edge(node, nb) for gt in fr for node in (pos[gt.p], pos[gt.q])
                    for nb in g.neighbors(node)}
            best_edge, best_score = None, None
            for (i, j) in sorted(cand):
                layout = pos.copy()
                qa, qb = occ[i], occ[j]
                layout[qa], layout[qb] = j, i
                sc = score(layout)
                if best_score is None or sc < best_score - 1e-12:
                    best_edge, best_score = (i, j), sc
        i, j = best_edge
        qa, qb = occ[i], occ[j]
        pos[qa], pos[qb] = j, i
        steps.append((FreeSwap(edge=(i, j)),))
        new_front = sum(dist[pos[gt.p]][pos[gt.q]] for gt in fr)
        stall = 0 if new_front < base_front else stall + 1
    return RoutedCircuit(n_nodes=n, initial_map=initial_map, final_map=tuple(pos),
                         steps=tuple(steps), origin="sabre_like", time_aligned=False)
