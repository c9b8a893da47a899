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

from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from .circuit import LayeredCircuit
from .gatefid import FidelityModel
from .hwgraph import HardwareGraph, norm_edge


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


# One format per variable kind: a name is the kind, then the indices of
# the variable's key joined by "_".
_NAME_FORMATS = {"w": "w_%d_%d_%d", "x": "x_%d_%d_%d_%d", "y": "y_%d_%d_%d_%d",
                 "z": "z_%d", "u": "u_%d_%d_%d", "v": "v_%d_%d_%d_%d_%d"}


def _name(key: tuple) -> str:
    kind = key[0]
    if kind == "v":  # the key holds the pair's two edges
        _, (a, b), (c, d), t = key
        return _NAME_FORMATS[kind] % (a, b, c, d, t)
    return _NAME_FORMATS[kind] % key[1:]


def _row_name(k: int, family: str) -> str:
    return f"{family}_{k}"


# The admission rules of every router, one ModelError message each. An
# entry that takes an initial map checks it first, then the pad, then the width.

def check_padded(c: LayeredCircuit, g: HardwareGraph) -> None:
    if c.n_qubits != g.n:
        raise ModelError(f"circuit has {c.n_qubits} qubits but the graph has {g.n} nodes; "
                         "pad the circuit first")


def check_initial_map(initial_map, n: int) -> None:
    """Refuse a given map that is no bijection of the n qubits to the n nodes."""
    if initial_map is not None and sorted(initial_map) != list(range(n)):
        raise ModelError("initial_map is not a qubit-to-node bijection")


def check_layer_width(c: LayeredCircuit, g: HardwareGraph) -> None:
    """Refuse a layer wider than every matching of ``g``: no layout runs it."""
    width = max(map(len, c.groups), default=0)
    if width > g.matching_size((1 << g.n) - 1):
        raise ModelError(f"a layer holds {width} gates but the graph has no matching that large")


class VariableSpace:
    """Dense index map for one circuit on one graph.

    Each variable is declared once, by its key: ``("w", q, i, t)``,
    ``("x", q, i, j, t)``, ``("y", gid, i, j, t)``, ``("z", t)``,
    ``("u", i, j, t)`` or ``("v", e1, e2, t)``. The key list is
    ``var_meta``; a variable's index is its key's position and its name
    is the key spelled out. ``free[t]`` lists the qubits no gate of step
    t uses, and ``gate_arcs`` holds one ``(y, xp, xq)`` triple per arc
    for each gate of ``c.gates()``: the gate variable and the two
    movement variables that merge a swap of its operands into it (-1 at
    the last step, where nothing moves).
    """

    def __init__(self, c: LayeredCircuit, g: HardwareGraph, crosstalk_mode: bool = False):
        check_padded(c, g)
        check_layer_width(c, g)
        self.circuit = c
        self.graph = g
        self.crosstalk_mode = crosstalk_mode
        n, m = g.n, c.num_steps
        self.n, self.m = n, m
        self.arcs = g.arcs()
        self.nbr_self = [sorted((*g.neighbors(i), i)) for i in range(n)]
        self.step_of = {gate.gid: t for t in range(m) for gate in c.groups[t]}
        self.free = [[q for q in range(n) if q not in busy]
                     for busy in map(c.busy_qubits, range(m))]

        keys = [("w", q, i, t) for t in range(m) for q in range(n) for i in range(n)]
        keys += [("x", q, i, j, t) for t in range(m - 1) for q in range(n)
                 for i in range(n) for j in self.nbr_self[i]]
        keys += [("y", gate.gid, i, j, t) for t in range(m) for gate in c.groups[t]
                 for (i, j) in self.arcs]
        keys += [("z", t) for t in c.dummy_steps]
        if crosstalk_mode:
            keys += [("u", i, j, t) for t in range(m) for (i, j) in g.crosstalk_edges]
            keys += [("v", e1, e2, t) for t in range(m) for e1, e2 in g.crosstalk_pairs]
        self.var_meta = tuple(keys)
        self.index = dict(zip(keys, range(len(keys))))
        self.names = tuple(map(_name, keys))
        self.gate_arcs = tuple(
            tuple((self.y(gate.gid, i, j), self.x(gate.p, i, j, t), self.x(gate.q, j, i, t))
                  if t < m - 1 else (self.y(gate.gid, i, j), -1, -1)
                  for (i, j) in self.arcs)
            for t in range(m) for gate in c.groups[t])

    @property
    def num_vars(self) -> int:
        return len(self.names)

    def counts(self) -> dict[str, int]:
        tally = Counter(key[0] for key in self.var_meta)
        return {kind: tally[kind] for kind in ("wxyzuv" if self.crosstalk_mode else "wxyz")}

    def w(self, q: int, i: int, t: int) -> int:
        return self.index["w", q, i, t]

    def x(self, q: int, i: int, j: int, t: int) -> int:
        return self.index["x", q, i, j, t]

    def y(self, gid: int, i: int, j: int) -> int:
        return self.index["y", gid, i, j, self.step_of[gid]]

    def z(self, t: int) -> int:
        return self.index["z", t]

    def u(self, i: int, j: int, t: int) -> int:
        return self.index[("u", *norm_edge(i, j), t)]

    def v(self, e1, e2, t: int) -> int:
        e1, e2 = norm_edge(*e1), norm_edge(*e2)
        pair = (e1, e2) if e1 < e2 else (e2, e1)
        return self.index[("v", *pair, t)]


def dummy_runs(c: LayeredCircuit) -> list[list[int]]:
    """Maximal runs of consecutive dummy steps, in time order."""
    runs: list[list[int]] = []
    for t in c.dummy_steps:
        if runs and runs[-1][-1] == t - 1:
            runs[-1].append(t)
        else:
            runs.append([t])
    return runs


def build_constraints(vs: VariableSpace) -> list[Row]:
    """Emit all routing constraints.

    The upper ``LINK`` rows tie each gate variable to the outgoing
    movement variables of its operands, ``y <= x[p,i,i] + x[p,i,j]``,
    which is tighter than ``y <= w[p,i]`` since the flow row sums every
    move out of i into ``w[p,i]``; at the last step, where nothing
    moves, they are the plain ``y <= w`` rows. ``FREE_SWAP_BAL`` is an
    edge rule, one row per edge (the reverse arc's row is its negation).
    ``SYM_CHAIN`` orders the indicators of each run of dummy steps, so
    the swap layers used come first. No row restates another.
    """
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
    for arcs in vs.gate_arcs:
        rows.append(Row(tuple(y for y, _, _ in arcs), (1.0,) * len(arcs), "=", 1.0, "GATE"))
    for gate, arcs in zip(c.gates(), vs.gate_arcs):
        p, q = gate.operands
        t = vs.step_of[gate.gid]
        for (i, j), (y, xp, xq) in zip(vs.arcs, arcs):
            if xp >= 0:
                rows.append(Row((y, vs.x(p, i, i, t), xp), (1.0, -1.0, -1.0), "<=", 0.0, "LINK"))
                rows.append(Row((y, vs.x(q, j, j, t), xq), (1.0, -1.0, -1.0), "<=", 0.0, "LINK"))
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
    for arcs in vs.gate_arcs:
        for _, xp, xq in arcs:
            if xp >= 0:
                rows.append(Row((xp, xq), (1.0, -1.0), "=", 0.0, "GATE_SWAP_PAIR"))
    for t in range(m - 1):
        free = vs.free[t]
        if not free:
            continue
        for (i, j) in vs.graph.edges:
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
    for run in dummy_runs(c):
        for t in run[:-1]:
            rows.append(Row((vs.z(t), vs.z(t + 1)), (1.0, -1.0), ">=", 0.0, "SYM_CHAIN"))
    return rows


def build_error_objective(vs: VariableSpace, fid: FidelityModel) -> np.ndarray:
    """Negated log success probability of the whole routed circuit.

    Each gate pays for its placement (plain, or merged with a swap of its
    operands when they exchange seats while the gate runs); every moving
    free qubit pays half a standalone SWAP per direction, three CNOTs in
    total per exchanged pair.
    """
    obj = np.zeros(vs.num_vars)
    for gate, arcs in zip(vs.circuit.gates(), vs.gate_arcs):
        for (i, j), (y, xp, xq) in zip(vs.arcs, arcs):
            plain = fid.gate_error(gate.gid, i, j)
            obj[y] += plain
            if xp >= 0:
                half = (fid.gate_error(gate.gid, i, j, merged=True) - plain) / 2.0
                obj[xp] += half
                obj[xq] += half
    for t in range(vs.m - 1):
        for q in vs.free[t]:
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
        for e in g.crosstalk_edges:
            i, j = e
            u = vs.u(i, j, t)
            inds: list[int] = []
            for gate in c.groups[t]:
                inds.append(vs.y(gate.gid, i, j))
                inds.append(vs.y(gate.gid, j, i))
            if t < vs.m - 1:
                for q in vs.free[t]:
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


def assemble_problem(c: LayeredCircuit, g: HardwareGraph, fid: FidelityModel | None,
                     objective: str = "error",
                     crosstalk_mode: bool | None = None) -> tuple[VariableSpace, BipProblem]:
    """Build the full program for one objective; see module docstring."""
    if crosstalk_mode is None:
        crosstalk_mode = objective == "crosstalk"
    vs = VariableSpace(c, g, crosstalk_mode=crosstalk_mode)
    rows = build_constraints(vs)
    if crosstalk_mode:
        rows.extend(build_crosstalk_rows(vs))
    p = BipProblem(names=vs.names, rows=tuple(rows),
                   objective=np.zeros(vs.num_vars), objective_kind="custom",
                   var_meta=vs.var_meta, gate_arcs=vs.gate_arcs)
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
