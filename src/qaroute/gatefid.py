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

import itertools
import math

import numpy as np

from .circuit import LayeredCircuit
from .documents import parsed, reading
from .hwgraph import HardwareGraph
from .simulate import SWAP, UNITARY_ATOL, is_unitary, unitary_defect

_B_MAGIC = np.array(
    [[1, 0, 0, 1j],
     [0, 1j, 1, 0],
     [0, 1j, -1, 0],
     [1, 0, 0, -1j]], dtype=complex) / math.sqrt(2)

_PI2 = math.pi / 2
_PI4 = math.pi / 4


class FidelityError(ValueError):
    """Raised when fidelity tables cannot be built or are out of range."""


def weyl_coordinates(u: np.ndarray) -> tuple[float, float, float]:
    """Canonical interaction coordinates (a, b, c) of a two-qubit unitary.

    Any U in U(4) factors as (K1l x K1r) exp(i(a XX + b YY + c ZZ))
    (K2l x K2r) with single-qubit K's; the returned coordinates satisfy
    pi/4 >= a >= b >= |c| and are invariant under local rotations.

    The coordinates depend only on the spectrum of M = V^T V, where V is
    U in the magic basis (Zhang et al., PRA 67, 042313).
    """
    u = np.asarray(u, dtype=complex)
    if not is_unitary(u):
        raise FidelityError("matrix is not unitary")
    return _weyl_batch(u[None])[0]


def _weyl_batch(us: np.ndarray) -> list[tuple[float, float, float]]:
    """``weyl_coordinates`` of each unitary of a (k, 4, 4) stack, by one
    stacked determinant, product and eigenvalue call and one fold of all
    the spectra. LAPACK and BLAS treat each matrix of a stack as they
    treat it alone, and the fold works element by element (its one sort
    row by row), so a result does not depend on the rest of the stack."""
    return _fold_spectra(_spectra(us))


def _spectra(us: np.ndarray) -> np.ndarray:
    """The spectrum of V^T V for each unitary of a (k, 4, 4) stack, V the
    unitary scaled to determinant 1 and taken to the magic basis."""
    dets = np.linalg.det(us)
    ups = _B_MAGIC.conj().T @ (us / (dets ** 0.25)[:, None, None]) @ _B_MAGIC
    return np.linalg.eigvals(ups.transpose(0, 2, 1) @ ups)


def _fold_spectra(eigs: np.ndarray) -> list[tuple[float, float, float]]:
    """Weyl coordinates from each row of a (k, 4) stack of spectra."""
    d = -np.angle(eigs) / 2.0
    d3 = -d[:, 0] - d[:, 1] - d[:, 2]
    cs = np.mod((d[:, :3] + d3[:, None]) / 2.0, 2.0 * math.pi)

    # Fold into the canonical chamber; order by distance to the pi/2 lattice.
    cstemp = np.mod(cs, _PI2)
    np.minimum(cstemp, _PI2 - cstemp, out=cstemp)
    order = np.argsort(cstemp, axis=1)[:, [1, 2, 0]]
    c0, c1, c2 = np.take_along_axis(cs, order, axis=1).T

    c0 = np.where(c0 > _PI2 + 1e-13, c0 - 3.0 * _PI2, c0)
    c1 = np.where(c1 > _PI2 + 1e-13, c1 - 3.0 * _PI2, c1)
    conj0, conj1 = c0 > _PI4 + 1e-13, c1 > _PI4 + 1e-13
    c0 = np.where(conj0, _PI2 - c0, c0)
    c1 = np.where(conj1, _PI2 - c1, c1)
    c2 = np.where(c2 > _PI2 + 1e-13, c2 - 3.0 * _PI2, c2)
    c2 = np.where(conj0 != conj1, _PI2 - c2, c2)
    c2 = np.where(c2 > _PI4 + 1e-13, c2 - _PI2, c2)
    return list(zip(c1.tolist(), c0.tolist(), c2.tolist()))


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
    return _exact_fidelities(*weyl_coordinates(u))


def cnot_budget_fidelities(u: np.ndarray) -> tuple[float, float, float, float]:
    """Best average fidelity using at most k CNOTs, k = 0..3.

    Monotone by construction; the entry for k = 3 is exactly 1 because
    three CNOTs suffice for any two-qubit unitary.
    """
    return _budget(weyl_coordinates(u))


def _exact_fidelities(a: float, b: float, c: float) -> tuple[float, float, float, float]:
    return tuple(trace_to_fidelity(t) for t in _max_traces(a, b, c))


def _budget(coords: tuple[float, float, float]) -> tuple[float, float, float, float]:
    """``cnot_budget_fidelities`` of a gate with Weyl coordinates ``coords``."""
    return tuple(itertools.accumulate(_exact_fidelities(*coords), max))


def _best_budget(fids: tuple[float, ...], beta: float) -> tuple[int, float]:
    best_k = 0
    best_v = fids[0]
    for k in range(1, 4):
        v = fids[k] * beta**k
        if v > best_v + 1e-15:
            best_k, best_v = k, v
    return best_k, best_v


class FidelityModel:
    """The price table of one circuit on one graph.

    Each gate is priced by its best CNOT budget (``_best_budget``) once
    per distinct edge beta, alone (plain) and merged with a SWAP of its
    operands. ``cnot_rows[gid]`` holds its (plain, merged) CNOT counts
    and ``error_rows[gid]`` its (plain, merged) errors, -log of the
    success probability, each a row over ``graph.edges``; ``swap_errors``
    is the row of standalone-SWAP errors, -3 log beta. ``cnots``,
    ``gate_error`` and ``swap_error`` read one entry, for either
    orientation of an edge. The rows are filled once at construction
    and read-only afterwards, so concurrent readers are safe.
    """

    def __init__(self, graph: HardwareGraph,
                 f_table: dict[int, tuple[float, float, float, float]],
                 f_swap_table: dict[int, tuple[float, float, float, float]]):
        self.graph = graph
        self.f_table = dict(f_table)
        self.f_swap_table = dict(f_swap_table)
        self._col = {arc: k for k, e in enumerate(graph.edges) for arc in (e, e[::-1])}
        betas = list(dict.fromkeys(graph.beta.values()))
        at = [betas.index(graph.beta[e]) for e in graph.edges]
        self.cnot_rows, self.error_rows = {}, {}
        for gid, fids in self.f_table.items():
            priced = [[_best_budget(f, beta) for beta in betas]
                      for f in (fids, self.f_swap_table[gid])]  # plain, then merged
            self.cnot_rows[gid] = tuple(np.array([by[b][0] for b in at]) for by in priced)
            self.error_rows[gid] = tuple(np.array([-math.log(by[b][1]) for b in at])
                                         for by in priced)
        self.swap_errors = np.array([-3.0 * math.log(graph.beta[e]) for e in graph.edges])

    @classmethod
    def build(cls, c: LayeredCircuit, g: HardwareGraph,
              overrides: dict | None = None) -> "FidelityModel":
        """Price every gate of ``c`` on ``g``: a gate listed in
        ``overrides`` takes its tables from there, and all others are
        priced together, their unitaries and their swap-merged forms in
        one stack (``_weyl_batch``). An override of a gate ``c`` lacks is
        refused."""
        f_table = {}
        f_swap_table = {}
        overrides = overrides or {}
        missing = sorted(set(overrides) - {gate.gid for gate in c.gates()})
        if missing:
            raise FidelityError(f"override {missing[0]} names no gate of the circuit")
        priced = []
        for gate in c.gates():
            if gate.gid in overrides:
                entry = overrides[gate.gid]
                f = tuple(float(v) for v in entry["f"])
                fs = tuple(float(v) for v in entry["f_swap"])
                for v in f + fs:
                    if not 0.0 < v <= 1.0:
                        raise FidelityError(f"override for gate {gate.gid} out of (0, 1]")
                f_table[gate.gid] = f
                f_swap_table[gate.gid] = fs
            else:
                priced.append(gate)
        if priced:
            gids = [gate.gid for gate in priced]
            us = np.stack([gate.unitary for gate in priced])
            # The loader's unitarity rule, so every gate that loads is priced.
            bad = np.flatnonzero(unitary_defect(us) > UNITARY_ATOL)
            if bad.size:
                raise FidelityError(f"gate {gids[bad[0]]} is not unitary")
            coords = _weyl_batch(np.concatenate((us, SWAP @ us)))
            for k, gid in enumerate(gids):
                f_table[gid] = _budget(coords[k])
                f_swap_table[gid] = _budget(coords[len(gids) + k])
        return cls(g, f_table, f_swap_table)

    def cnots(self, gid: int, i: int, j: int, merged: bool = False) -> int:
        """CNOT count of gate ``gid`` on edge (i, j), merged with a swap of
        its operands when ``merged``."""
        return int(self.cnot_rows[gid][merged][self._col[i, j]])

    def gate_error(self, gid: int, i: int, j: int, merged: bool = False) -> float:
        """Negated log success probability of gate ``gid`` on edge (i, j),
        merged with a swap of its operands when ``merged``."""
        return float(self.error_rows[gid][merged][self._col[i, j]])

    def swap_error(self, i: int, j: int) -> float:
        """Negated log success probability of a standalone SWAP (three CNOTs)."""
        return float(self.swap_errors[self._col[i, j]])

    def mean_swap_error(self) -> float:
        """``swap_error`` on an edge of mean CNOT success probability."""
        return -3.0 * math.log(sum(self.graph.beta.values()) / len(self.graph.beta))


def load_fidelity_overrides(source: str | dict) -> dict:
    """Parse a what-if fidelity table from a JSON document (text or parsed
    dict): gate index -> {'f': [...], 'f_swap': [...]}."""
    with reading(FidelityError, "fidelity document"):
        return _overrides_from_doc(parsed(source))


def _overrides_from_doc(doc) -> dict:
    if not isinstance(doc, dict):
        raise FidelityError("fidelity document must map gate indices to tables")
    out = {}
    for key, entry in doc.items():
        with reading(FidelityError, f"override {key}"):
            gid = int(key)
            f = [float(v) for v in entry["f"]]
            fs = [float(v) for v in entry["f_swap"]]
        if len(f) != 4 or len(fs) != 4:
            raise FidelityError(f"override {key} needs four values per table")
        out[gid] = {"f": f, "f_swap": fs}
    return out
