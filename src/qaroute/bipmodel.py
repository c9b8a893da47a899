"""Binary integer program over a time-expanded routing network.

Variables (all binary):

* ``w[q,i,t]``   qubit q sits on node i at step t
* ``x[q,i,j,t]`` qubit q moves from i to j between steps t and t+1
                 (j ranges over N(i) plus i itself; absent at the last step)
* ``y[g,i,j,t]`` gate g executes on the directed arc (i, j) at its step
* ``z[t]``       dummy step t hosts at least one swap
* ``u[e,t]``     edge e is driven at step t            (crosstalk mode)
* ``v[p,t]``     both edges of crosstalk pair p driven (crosstalk mode)

Constraint families carry string tags, which name the rows of exported
models and of violation reports; the solver treats them uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .circuit import LayeredCircuit
from .gatefid import FidelityModel
from .hwgraph import HardwareGraph, matching_size, norm_edge


# Slack within which a row counts as satisfied, in every row test and in
# the branch and bound's propagation.
FEAS_TOL = 1e-9


class ModelError(ValueError):
    """Raised when a circuit/graph pair cannot be modelled."""


@dataclass(frozen=True)
class Row:
    """One linear constraint: coefficient list, sense, right-hand side."""

    vars: tuple[int, ...]
    coefs: tuple[float, ...]
    sense: str  # one of '=', '<=', '>='
    rhs: float
    family: str

    def activity(self, assignment) -> float:
        return float(sum(c * assignment[v] for v, c in zip(self.vars, self.coefs)))

    def satisfied(self, assignment) -> bool:
        act = self.activity(assignment)
        if self.sense == "=":
            return abs(act - self.rhs) <= FEAS_TOL
        if self.sense == "<=":
            return act <= self.rhs + FEAS_TOL
        return act >= self.rhs - FEAS_TOL


class VariableSpace:
    """Dense index map for one circuit on one graph."""

    def __init__(self, c: LayeredCircuit, g: HardwareGraph, crosstalk_mode: bool = False):
        if c.n_qubits != g.n:
            raise ModelError(
                f"circuit has {c.n_qubits} qubits but the graph has {g.n} nodes; "
                "pad the circuit first")
        width = c.max_layer_width()
        if width > matching_size(g)((1 << g.n) - 1):
            raise ModelError(
                f"a layer holds {width} gates but the graph has no matching that large")
        self.circuit = c
        self.graph = g
        self.crosstalk_mode = crosstalk_mode
        n, m = g.n, c.num_steps
        self.n, self.m = n, m
        self.arcs = g.arcs()
        self.nbr_self = [sorted((*g.neighbors(i), i)) for i in range(n)]

        names: list[str] = []
        meta: list[tuple] = []
        self._w: dict[tuple[int, int, int], int] = {}
        self._x: dict[tuple[int, int, int, int], int] = {}
        self._y: dict[tuple[int, int, int], int] = {}
        self._z: dict[int, int] = {}
        self._u: dict[tuple[tuple[int, int], int], int] = {}
        self._v: dict[tuple[tuple, int], int] = {}

        for t in range(m):
            for q in range(n):
                for i in range(n):
                    self._w[q, i, t] = len(names)
                    names.append(f"w_{q}_{i}_{t}")
                    meta.append(("w", q, i, t))
        for t in range(m - 1):
            for q in range(n):
                for i in range(n):
                    for j in self.nbr_self[i]:
                        self._x[q, i, j, t] = len(names)
                        names.append(f"x_{q}_{i}_{j}_{t}")
                        meta.append(("x", q, i, j, t))
        for t in range(m):
            for gate in c.groups[t]:
                for (i, j) in self.arcs:
                    self._y[gate.gid, i, j] = len(names)
                    names.append(f"y_{gate.gid}_{i}_{j}_{t}")
                    meta.append(("y", gate.gid, i, j, t))
        for t in c.dummy_steps:
            self._z[t] = len(names)
            names.append(f"z_{t}")
            meta.append(("z", t))
        if crosstalk_mode:
            for t in range(m):
                for e in g.crosstalk_edges:
                    self._u[e, t] = len(names)
                    names.append(f"u_{e[0]}_{e[1]}_{t}")
                    meta.append(("u", e[0], e[1], t))
            for t in range(m):
                for e1, e2 in g.crosstalk_pairs:
                    self._v[(e1, e2), t] = len(names)
                    names.append(f"v_{e1[0]}_{e1[1]}_{e2[0]}_{e2[1]}_{t}")
                    meta.append(("v", e1, e2, t))
        self.names = tuple(names)
        self.var_meta = tuple(meta)

    @property
    def num_vars(self) -> int:
        return len(self.names)

    def counts(self) -> dict[str, int]:
        out = {"w": len(self._w), "x": len(self._x), "y": len(self._y),
               "z": len(self._z)}
        if self.crosstalk_mode:
            out["u"] = len(self._u)
            out["v"] = len(self._v)
        return out

    def w(self, q: int, i: int, t: int) -> int:
        return self._w[q, i, t]

    def x(self, q: int, i: int, j: int, t: int) -> int:
        return self._x[q, i, j, t]

    def y(self, gid: int, i: int, j: int) -> int:
        return self._y[gid, i, j]

    def z(self, t: int) -> int:
        return self._z[t]

    def u(self, i: int, j: int, t: int) -> int:
        return self._u[norm_edge(i, j), t]

    def v(self, e1, e2, t: int) -> int:
        e1, e2 = norm_edge(*e1), norm_edge(*e2)
        pair = (e1, e2) if e1 < e2 else (e2, e1)
        return self._v[pair, t]


def dummy_runs(c: LayeredCircuit) -> list[list[int]]:
    """Maximal runs of consecutive dummy steps, in time order."""
    runs: list[list[int]] = []
    for t in c.dummy_steps:
        if runs and runs[-1][-1] == t - 1:
            runs[-1].append(t)
        else:
            runs.append([t])
    return runs


def build_constraints(vs: VariableSpace, mode: str = "mccormick_str",
                      sym_chain: bool = True) -> list[Row]:
    """Emit all routing constraints for the given linking mode.

    ``mccormick`` links each gate variable to the step's placement
    variables; ``mccormick_str`` tightens the upper envelope through the
    outgoing movement variables wherever those exist (every step but the
    last, which falls back to the plain form).
    """
    if mode not in ("mccormick", "mccormick_str"):
        raise ModelError(f"unknown linking mode {mode!r}")
    c = vs.circuit
    n, m = vs.n, vs.m
    rows: list[Row] = []

    for t in range(m):
        for q in range(n):
            rows.append(Row(tuple(vs.w(q, i, t) for i in range(n)),
                            (1.0,) * n, "=", 1.0, "QUBIT"))
    for t in range(m):
        for i in range(n):
            rows.append(Row(tuple(vs.w(q, i, t) for q in range(n)),
                            (1.0,) * n, "=", 1.0, "NODE"))
    for t in range(m):
        for gate in c.groups[t]:
            rows.append(Row(tuple(vs.y(gate.gid, i, j) for (i, j) in vs.arcs),
                            (1.0,) * len(vs.arcs), "=", 1.0, "GATE"))
    for t in range(m):
        for gate in c.groups[t]:
            p, q = gate.operands
            for (i, j) in vs.arcs:
                y = vs.y(gate.gid, i, j)
                if mode == "mccormick_str" and t < m - 1:
                    rows.append(Row((y, vs.x(p, i, i, t), vs.x(p, i, j, t)),
                                    (1.0, -1.0, -1.0), "<=", 0.0, "LINK"))
                    rows.append(Row((y, vs.x(q, j, j, t), vs.x(q, j, i, t)),
                                    (1.0, -1.0, -1.0), "<=", 0.0, "LINK"))
                else:
                    rows.append(Row((y, vs.w(p, i, t)), (1.0, -1.0), "<=", 0.0, "LINK"))
                    rows.append(Row((y, vs.w(q, j, t)), (1.0, -1.0), "<=", 0.0, "LINK"))
                rows.append(Row((y, vs.w(p, i, t), vs.w(q, j, t)),
                                (1.0, -1.0, -1.0), ">=", -1.0, "LINK"))
    for t in range(m - 1):
        for q in range(n):
            for i in range(n):
                xs = tuple(vs.x(q, i, j, t) for j in vs.nbr_self[i])
                rows.append(Row((vs.w(q, i, t), *xs),
                                (1.0,) + (-1.0,) * len(xs), "=", 0.0, "FLOW_OUT"))
    for t in range(1, m):
        for q in range(n):
            for i in range(n):
                xs = tuple(vs.x(q, k, i, t - 1) for k in vs.nbr_self[i])
                rows.append(Row((vs.w(q, i, t), *xs),
                                (1.0,) + (-1.0,) * len(xs), "=", 0.0, "FLOW_IN"))
    for t in range(m - 1):
        for gate in c.groups[t]:
            p, q = gate.operands
            for (i, j) in vs.arcs:
                rows.append(Row((vs.x(p, i, j, t), vs.x(q, j, i, t)),
                                (1.0, -1.0), "=", 0.0, "GATE_SWAP_PAIR"))
    for t in range(m - 1):
        busy = c.busy_qubits(t)
        free = [q for q in range(n) if q not in busy]
        if not free:
            continue
        for (i, j) in vs.arcs:
            fwd = tuple(vs.x(q, i, j, t) for q in free)
            back = tuple(vs.x(q, j, i, t) for q in free)
            rows.append(Row(fwd + back, (1.0,) * len(fwd) + (-1.0,) * len(back),
                            "=", 0.0, "FREE_SWAP_BAL"))
    for t in c.dummy_steps:
        if t >= m - 1:
            continue
        for q in range(n):
            xs = tuple(vs.x(q, i, j, t) for (i, j) in vs.arcs)
            rows.append(Row(xs + (vs.z(t),), (1.0,) * len(xs) + (-1.0,),
                            "<=", 0.0, "DUMMY_IND"))
    if sym_chain:
        for run in dummy_runs(c):
            for t in run[:-1]:
                rows.append(Row((vs.z(t), vs.z(t + 1)), (1.0, -1.0), ">=", 0.0,
                                "SYM_CHAIN"))
    return rows


def build_error_objective(vs: VariableSpace, fid: FidelityModel) -> np.ndarray:
    """Negated log success probability of the whole routed circuit.

    Each gate pays for its placement (plain, or merged with a swap of its
    operands when they exchange seats while the gate runs); every moving
    free qubit pays half a standalone SWAP per direction, three CNOTs in
    total per exchanged pair.
    """
    c = vs.circuit
    obj = np.zeros(vs.num_vars)
    m = vs.m
    for t in range(m):
        for gate in c.groups[t]:
            p, q = gate.operands
            for (i, j) in vs.arcs:
                plain = fid.gate_error(gate.gid, i, j)
                obj[vs.y(gate.gid, i, j)] += plain
                if t < m - 1:
                    half = (fid.gate_error(gate.gid, i, j, merged=True) - plain) / 2.0
                    obj[vs.x(p, i, j, t)] += half
                    obj[vs.x(q, j, i, t)] += half
    for t in range(m - 1):
        busy = c.busy_qubits(t)
        for q in range(vs.n):
            if q in busy:
                continue
            for (i, j) in vs.arcs:
                obj[vs.x(q, i, j, t)] += fid.swap_error(i, j) / 2.0
    return obj


def build_depth_objective(vs: VariableSpace) -> np.ndarray:
    obj = np.zeros(vs.num_vars)
    for t in vs.circuit.dummy_steps:
        obj[vs.z(t)] = 1.0
    return obj


def build_crosstalk_rows(vs: VariableSpace) -> list[Row]:
    """Inequality envelope tying each edge-use indicator u to the gate and
    movement variables that drive the edge, plus product rows for the
    pair variables v."""
    c, g = vs.circuit, vs.graph
    rows: list[Row] = []
    for t in range(vs.m):
        busy = c.busy_qubits(t)
        free = [q for q in range(vs.n) if q not in busy]
        for e in g.crosstalk_edges:
            i, j = e
            u = vs.u(i, j, t)
            inds: list[int] = []
            for gate in c.groups[t]:
                inds.append(vs.y(gate.gid, i, j))
                inds.append(vs.y(gate.gid, j, i))
            if t < vs.m - 1:
                for q in free:
                    inds.append(vs.x(q, i, j, t))
                    inds.append(vs.x(q, j, i, t))
            for ind in inds:
                rows.append(Row((u, ind), (1.0, -1.0), ">=", 0.0, "XTALK_U_LB"))
            rows.append(Row((u, *inds), (1.0,) + (-1.0,) * len(inds),
                            "<=", 0.0, "XTALK_U_UB"))
    for t in range(vs.m):
        for e1, e2 in g.crosstalk_pairs:
            v = vs.v(e1, e2, t)
            u1 = vs.u(*e1, t)
            u2 = vs.u(*e2, t)
            rows.append(Row((v, u1, u2), (1.0, -1.0, -1.0), ">=", -1.0, "XTALK_V"))
            rows.append(Row((v, u1), (1.0, -1.0), "<=", 0.0, "XTALK_V"))
            rows.append(Row((v, u2), (1.0, -1.0), "<=", 0.0, "XTALK_V"))
    return rows


def build_crosstalk_objective(vs: VariableSpace) -> np.ndarray:
    """Count of simultaneously driven interfering edge pairs: the sum of
    the pair variables v, which ``build_crosstalk_rows`` ties to the
    routing."""
    if not vs.crosstalk_mode:
        raise ModelError("crosstalk objective needs crosstalk variables")
    obj = np.zeros(vs.num_vars)
    for t in range(vs.m):
        for e1, e2 in vs.graph.crosstalk_pairs:
            obj[vs.v(e1, e2, t)] = 1.0
    return obj


@dataclass(frozen=True)
class BipProblem:
    """A complete 0/1 program: rows, one active objective, name table.

    ``gate_arcs`` holds, for each gate of a model built here, one
    ``(y, xp, xq)`` triple per arc: the gate variable and the two
    movement variables that merge a swap of its operands into it (-1 at
    the last step, where nothing moves). Imported models have none.
    """

    names: tuple[str, ...]
    rows: tuple[Row, ...]
    objective: np.ndarray
    objective_kind: str = "custom"
    var_meta: tuple[tuple, ...] = ()
    gate_arcs: tuple[tuple[tuple[int, int, int], ...], ...] = ()

    @property
    def num_vars(self) -> int:
        return len(self.names)

    def objective_value(self, assignment) -> float:
        """The active objective of a 0/1 assignment: the one pricing of
        leaves, incumbents and imported solutions."""
        return float(np.dot(self.objective, assignment))

    def with_rows(self, extra: list[Row]) -> "BipProblem":
        return replace(self, rows=self.rows + tuple(extra))

    def with_objective(self, objective: np.ndarray, kind: str) -> "BipProblem":
        return replace(self, objective=objective, objective_kind=kind)

    def check_assignment(self, assignment) -> int | None:
        """Index of the first violated row, or None when the assignment is
        feasible. The only row test: imported solutions and incumbents
        are validated here too."""
        bits = np.asarray(assignment).tolist()
        for k, row in enumerate(self.rows):
            if not row.satisfied(bits):
                return k
        return None


def _gate_arcs(vs: VariableSpace) -> tuple[tuple[tuple[int, int, int], ...], ...]:
    """``BipProblem.gate_arcs`` of the model over ``vs``."""
    out = []
    for t in range(vs.m):
        for gate in vs.circuit.groups[t]:
            p, q = gate.operands
            out.append(tuple(
                (vs.y(gate.gid, i, j), vs.x(p, i, j, t), vs.x(q, j, i, t))
                if t < vs.m - 1 else (vs.y(gate.gid, i, j), -1, -1)
                for (i, j) in vs.arcs))
    return tuple(out)


def assemble_problem(c: LayeredCircuit, g: HardwareGraph, fid: FidelityModel | None,
                     objective: str = "error", mode: str = "mccormick_str",
                     crosstalk_mode: bool | None = None,
                     sym_chain: bool = True) -> tuple[VariableSpace, BipProblem]:
    """Build the full program for one objective; see module docstring."""
    if crosstalk_mode is None:
        crosstalk_mode = objective == "crosstalk"
    vs = VariableSpace(c, g, crosstalk_mode=crosstalk_mode)
    rows = build_constraints(vs, mode=mode, sym_chain=sym_chain)
    if crosstalk_mode:
        rows.extend(build_crosstalk_rows(vs))
    p = BipProblem(names=vs.names, rows=tuple(rows),
                   objective=np.zeros(vs.num_vars), objective_kind="custom",
                   var_meta=vs.var_meta, gate_arcs=_gate_arcs(vs))
    return vs, set_objective(p, vs, objective, fid)


def set_objective(p: BipProblem, vs: VariableSpace, kind: str,
                  fid: FidelityModel | None = None) -> BipProblem:
    if kind == "error":
        if fid is None:
            raise ModelError("error objective needs a fidelity model")
        return p.with_objective(build_error_objective(vs, fid), "error")
    if kind == "depth":
        return p.with_objective(build_depth_objective(vs), "depth")
    if kind == "crosstalk":
        return p.with_objective(build_crosstalk_objective(vs), "crosstalk")
    raise ModelError(f"unknown objective {kind!r}")
