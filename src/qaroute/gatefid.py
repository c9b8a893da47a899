"""Gate fidelities under limited CNOT budgets.

The routing objective needs, for every two-qubit gate g and hardware edge
with CNOT success probability beta, the best achievable success
probability when g is compiled into k = 0..3 CNOTs plus perfect local
rotations. The average-fidelity part comes from the closed-form maximal
traces over the k-CNOT class, expressed in the gate's Weyl-chamber
coordinates; the hardware part multiplies in beta per CNOT.

Average gate fidelity of a channel implementing V against target U is
(d + |Tr(U^dag V)|^2) / (d^2 + d) with d = 4.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .circuit import LayeredCircuit
from .hwgraph import HardwareGraph, norm_edge
from .simulate import SWAP

_B_MAGIC = np.array(
    [[1, 0, 0, 1j],
     [0, 1j, 1, 0],
     [0, 1j, -1, 0],
     [1, 0, 0, -1j]], dtype=complex) / math.sqrt(2)

_PI2 = math.pi / 2
_PI4 = math.pi / 4


class FidelityError(ValueError):
    """Raised when fidelity tables cannot be built or are out of range."""


def closest_unitary_distance(u: np.ndarray) -> float:
    s = np.linalg.svd(u, compute_uv=False)
    return float(np.max(np.abs(s - 1.0)))


def weyl_coordinates(u: np.ndarray) -> tuple[float, float, float]:
    """Canonical interaction coordinates (a, b, c) of a two-qubit unitary.

    Any U in U(4) factors as (K1l x K1r) exp(i(a XX + b YY + c ZZ))
    (K2l x K2r) with single-qubit K's; the returned coordinates satisfy
    pi/4 >= a >= b >= |c| and are invariant under local rotations.

    The coordinates depend only on the spectrum of M = V^T V, where V is
    U in the magic basis (Zhang et al., PRA 67, 042313).
    """
    u = np.asarray(u, dtype=complex)
    det = np.linalg.det(u)
    if abs(abs(det) - 1.0) > 1e-8:
        raise FidelityError("matrix is not unitary")
    u = u / det ** 0.25
    up = _B_MAGIC.conj().T @ u @ _B_MAGIC
    d = -np.angle(np.linalg.eigvals(up.T @ up)) / 2.0
    d[3] = -d[0] - d[1] - d[2]
    cs = np.mod((d[:3] + d[3]) / 2.0, 2.0 * math.pi)

    # Fold into the canonical chamber; order by distance to the pi/2 lattice.
    cstemp = np.mod(cs, _PI2)
    np.minimum(cstemp, _PI2 - cstemp, out=cstemp)
    order = np.argsort(cstemp)[[1, 2, 0]]
    cs = cs[order]

    if cs[0] > _PI2 + 1e-13:
        cs[0] -= 3.0 * _PI2
    if cs[1] > _PI2 + 1e-13:
        cs[1] -= 3.0 * _PI2
    conjs = 0
    if cs[0] > _PI4 + 1e-13:
        cs[0] = _PI2 - cs[0]
        conjs += 1
    if cs[1] > _PI4 + 1e-13:
        cs[1] = _PI2 - cs[1]
        conjs += 1
    if cs[2] > _PI2 + 1e-13:
        cs[2] -= 3.0 * _PI2
    if conjs == 1:
        cs[2] = _PI2 - cs[2]
    if cs[2] > _PI4 + 1e-13:
        cs[2] -= _PI2
    a, b, c = float(cs[1]), float(cs[0]), float(cs[2])
    return a, b, c


def trace_to_fidelity(trace: complex) -> float:
    """Average gate fidelity corresponding to a (maximal) overlap trace."""
    return (4.0 + abs(trace) ** 2) / 20.0


def avg_gate_fidelity(target: np.ndarray, actual: np.ndarray) -> float:
    target = np.asarray(target, dtype=complex)
    actual = np.asarray(actual, dtype=complex)
    return trace_to_fidelity(np.trace(target.conj().T @ actual))


def _max_traces(a: float, b: float, c: float) -> tuple[complex, complex, complex, complex]:
    """Maximal |Tr| witnesses for approximating (a, b, c) with 0..3 CNOTs."""
    t0 = 4.0 * complex(math.cos(a) * math.cos(b) * math.cos(c),
                       math.sin(a) * math.sin(b) * math.sin(c))
    t1 = 4.0 * complex(math.cos(_PI4 - a) * math.cos(b) * math.cos(c),
                       math.sin(_PI4 - a) * math.sin(b) * math.sin(c))
    t2 = complex(4.0 * math.cos(c))
    t3 = complex(4.0)
    return t0, t1, t2, t3


def exact_cnot_fidelities(u: np.ndarray) -> tuple[float, float, float, float]:
    """Best average fidelity using exactly k CNOTs, k = 0..3."""
    a, b, c = weyl_coordinates(u)
    return tuple(trace_to_fidelity(t) for t in _max_traces(a, b, c))


def cnot_budget_fidelities(u: np.ndarray) -> tuple[float, float, float, float]:
    """Best average fidelity using at most k CNOTs, k = 0..3.

    Monotone by construction; the entry for k = 3 is exactly 1 because
    three CNOTs suffice for any two-qubit unitary.
    """
    exact = exact_cnot_fidelities(u)
    out = []
    best = 0.0
    for f in exact:
        best = max(best, f)
        out.append(best)
    return tuple(out)


@dataclass(frozen=True)
class GatePlacementCost:
    """Optimal CNOT counts and success probabilities for one gate on one edge.

    ``plain`` places the gate alone; ``merged`` realizes the gate followed
    by a SWAP of its operands as a single compiled unit.
    """

    n_plain: int
    p_plain: float
    n_merged: int
    p_merged: float


def _best_budget(fids: tuple[float, ...], beta: float) -> tuple[int, float]:
    best_k = 0
    best_v = fids[0]
    for k in range(1, 4):
        v = fids[k] * beta**k
        if v > best_v + 1e-15:
            best_k, best_v = k, v
    return best_k, best_v


def placement_cost(fids: tuple[float, ...], fids_swap: tuple[float, ...],
                   beta: float) -> GatePlacementCost:
    n_plain, p_plain = _best_budget(fids, beta)
    n_merged, p_merged = _best_budget(fids_swap, beta)
    return GatePlacementCost(n_plain=n_plain, p_plain=p_plain,
                             n_merged=n_merged, p_merged=p_merged)


class FidelityModel:
    """Per-gate, per-edge placement costs for one circuit on one graph.

    Tables are filled once at construction and read-only afterwards, so
    concurrent readers are safe.
    """

    def __init__(self, graph: HardwareGraph,
                 f_table: dict[int, tuple[float, float, float, float]],
                 f_swap_table: dict[int, tuple[float, float, float, float]]):
        self.graph = graph
        self.f_table = dict(f_table)
        self.f_swap_table = dict(f_swap_table)
        self._costs: dict[tuple[int, tuple[int, int]], GatePlacementCost] = {}
        for gid, fids in self.f_table.items():
            fids_swap = self.f_swap_table[gid]
            for edge in graph.edges:
                self._costs[gid, edge] = placement_cost(fids, fids_swap, graph.beta[edge])

    @classmethod
    def build(cls, c: LayeredCircuit, g: HardwareGraph,
              overrides: dict | None = None) -> "FidelityModel":
        f_table = {}
        f_swap_table = {}
        overrides = overrides or {}
        for gate in c.gates():
            if gate.gid in overrides:
                entry = overrides[gate.gid]
                f = tuple(float(v) for v in entry["f"])
                fs = tuple(float(v) for v in entry["f_swap"])
                for v in f + fs:
                    if not 0.0 < v <= 1.0:
                        raise FidelityError(f"override for gate {gate.gid} out of (0, 1]")
            else:
                f = cnot_budget_fidelities(gate.unitary)
                fs = cnot_budget_fidelities(SWAP @ gate.unitary)
                if abs(f[3] - 1.0) > 1e-9 or abs(fs[3] - 1.0) > 1e-9:
                    raise FidelityError(f"three-CNOT fidelity of gate {gate.gid} is not 1")
            f_table[gate.gid] = f
            f_swap_table[gate.gid] = fs
        return cls(g, f_table, f_swap_table)

    def cost(self, gid: int, i: int, j: int) -> GatePlacementCost:
        return self._costs[gid, norm_edge(i, j)]

    def gate_error(self, gid: int, i: int, j: int, merged: bool = False) -> float:
        """Negated log success probability of gate ``gid`` on edge (i, j),
        merged with a swap of its operands when ``merged``."""
        cost = self._costs[gid, norm_edge(i, j)]
        return -math.log(cost.p_merged if merged else cost.p_plain)

    def swap_error(self, i: int, j: int) -> float:
        """Negated log success probability of a standalone SWAP (three CNOTs)."""
        return -3.0 * math.log(self.graph.beta_of(i, j))

    def mean_swap_error(self) -> float:
        """``swap_error`` on an edge of mean CNOT success probability."""
        return -3.0 * math.log(sum(self.graph.beta.values()) / len(self.graph.beta))


def load_fidelity_overrides(source: str | dict) -> dict:
    """Parse a what-if fidelity table from a JSON document (text or parsed
    dict): gate index -> {'f': [...], 'f_swap': [...]}."""
    if isinstance(source, dict):
        doc = source
    else:
        try:
            doc = json.loads(source)
        except json.JSONDecodeError as exc:
            raise FidelityError(f"fidelity document is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise FidelityError("fidelity document must map gate indices to tables")
    out = {}
    for key, entry in doc.items():
        try:
            gid = int(key)
            f = [float(v) for v in entry["f"]]
            fs = [float(v) for v in entry["f_swap"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise FidelityError(
                f"override {key} needs an integer key and numeric 'f' and 'f_swap'") from exc
        if len(f) != 4 or len(fs) != 4:
            raise FidelityError(f"override {key} needs four values per table")
        out[gid] = {"f": f, "f_swap": fs}
    return out
