"""Turn solved variable assignments into routed circuits, and back.

A RoutedCircuit is the physical schedule: where every logical qubit
starts, which arc every gate runs on (with or without an absorbed
operand swap), which standalone swaps move free qubits, and where
everything ends up. ``schedule`` builds it from the layout of every
step: ``decode`` reads those layouts off a feasible assignment, and the
exhaustive solver hands over the ones it walks back. That builder is
all the solver shares with ``decode``; its values are still priced by
its own step costs, and it shares nothing with the branch and bound.
``encode`` reproduces the assignment from a schedule, and the two
verifiers check structure (token tracking, arc existence, gate
coverage) and unitary equivalence on the active qubits by simulation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .bipmodel import dummy_runs
from .circuit import LayeredCircuit
from .documents import parsed, reading
from .gatefid import FidelityModel
from .hwgraph import HardwareGraph, norm_edge
from .simulate import apply_two_qubit, phase_distance


class ExtractError(ValueError):
    """Raised when an assignment or routed circuit is malformed."""


# The largest ``verify_unitary`` deviation of a route that counts as correct.
EQUIVALENCE_ATOL = 1e-8
# The most active qubits ``verify_unitary`` takes: its 2^w x 2^w products
# cost 4^w (README: 60 ms at w = 8, 1.7 s at w = 10).
UNITARY_MAX_WIDTH = 8


@dataclass(frozen=True)
class GateOp:
    """One logical gate placed on a hardware arc.

    ``arc`` is ordered: the first node hosts the gate's first operand.
    ``merged_swap`` marks the variant that also exchanges the operands.
    """

    gid: int
    p: int
    q: int
    arc: tuple[int, int]
    merged_swap: bool
    cnots_used: int


@dataclass(frozen=True)
class FreeSwap:
    """A standalone swap of two gate-free qubits across an edge."""

    edge: tuple[int, int]


@dataclass(frozen=True)
class RoutedCircuit:
    n_nodes: int
    initial_map: tuple[int, ...]
    final_map: tuple[int, ...]
    steps: tuple[tuple, ...]
    origin: str = "bip"
    # True when steps line up one-to-one with the model's time steps;
    # heuristic routers emit their own step structure instead.
    time_aligned: bool = True


@dataclass(frozen=True)
class CircuitStats:
    cnot_count: int
    depth_proxy: int
    error_objective_value: float
    crosstalk_count: int

    def as_dict(self) -> dict:
        return {"cnot_count": self.cnot_count, "depth_proxy": self.depth_proxy,
                "error_objective_value": self.error_objective_value,
                "crosstalk_count": self.crosstalk_count}


def schedule(c: LayeredCircuit, fid: FidelityModel, layouts,
             origin: str) -> RoutedCircuit:
    """Step-aligned schedule from the qubit-to-node layout of each step.

    Between two steps every moved qubit trades seats with one neighbour.
    A gate whose operands trade seats absorbs that swap; every other
    trade is a FreeSwap, in sorted edge order after the step's gates.
    """
    n = c.n_qubits
    if not layouts:
        ident = tuple(range(n))
        return RoutedCircuit(n_nodes=n, initial_map=ident, final_map=ident,
                             steps=(), origin=origin)
    steps = []
    for t, pos in enumerate(layouts):
        nxt = layouts[t + 1] if t + 1 < len(layouts) else pos
        trades = {norm_edge(pos[q], nxt[q]) for q in range(n) if pos[q] != nxt[q]}
        ops = []
        for gate in c.groups[t]:
            i, j = pos[gate.p], pos[gate.q]
            merged = nxt[gate.p] == j and nxt[gate.q] == i
            ops.append(GateOp(gid=gate.gid, p=gate.p, q=gate.q, arc=(i, j),
                              merged_swap=merged, cnots_used=fid.cnots(gate.gid, i, j, merged)))
            if merged:
                trades.discard(norm_edge(i, j))
        ops.extend(FreeSwap(edge=e) for e in sorted(trades))
        steps.append(tuple(ops))
    return RoutedCircuit(n_nodes=n, initial_map=tuple(layouts[0]),
                         final_map=tuple(layouts[-1]), steps=tuple(steps),
                         origin=origin)


def decode(vs, assignment, c: LayeredCircuit, g: HardwareGraph,
           fid: FidelityModel) -> RoutedCircuit:
    """Read the routed circuit off a feasible assignment.

    The placement variables fix the whole schedule (movement and gate
    variables follow from them through the flow and linking rows), so
    only they are read; ``schedule`` does the rest, and the result is
    verified structurally.
    """
    n = vs.n
    layouts = []
    for t in range(vs.m):
        pos = [-1] * n
        for q in range(n):
            for i in range(n):
                if assignment[vs.w(q, i, t)]:
                    if pos[q] >= 0:
                        raise ExtractError(f"qubit {q} placed twice at step {t}")
                    pos[q] = i
        if any(p < 0 for p in pos):
            raise ExtractError(f"incomplete placement at step {t}")
        layouts.append(pos)
    rc = schedule(c, fid, layouts, "bip")
    report = verify_structural(rc, c, g)
    if report is not None:
        raise ExtractError(f"decoded circuit is inconsistent: {report}")
    return rc


def encode(rc: RoutedCircuit, vs) -> np.ndarray:
    """Inverse of decode: rebuild the 0/1 assignment from the schedule.

    Placement, movement and gate variables follow directly; dummy-step
    indicators are closed under the symmetry chain (a dummy step is
    marked used whenever any later step of its run moves something), and
    edge-use indicators follow the placed operations.
    """
    if not rc.time_aligned:
        raise ExtractError("only step-aligned circuits can be encoded")
    n, m = vs.n, vs.m
    if rc.n_nodes != n or len(rc.steps) != m:
        raise ExtractError("circuit shape does not match the variable space")
    out = np.zeros(vs.num_vars, dtype=np.int8)
    pos = list(rc.initial_map)
    moved_at = [False] * m
    used_edges: list[set] = []
    for t in range(m):
        for q in range(n):
            out[vs.w(q, pos[q], t)] = 1
        moves = []
        used = set()
        for op in rc.steps[t]:
            if isinstance(op, GateOp):
                out[vs.y(op.gid, op.arc[0], op.arc[1])] = 1
                used.add(norm_edge(*op.arc))
                if op.merged_swap:
                    moves.append(op.arc)
            else:
                moves.append(op.edge)
                used.add(norm_edge(*op.edge))
        used_edges.append(used)
        if t == m - 1:
            if moves:
                raise ExtractError("movement scheduled at the final step")
            continue
        dest = list(range(n))
        for (i, j) in moves:
            dest[i], dest[j] = dest[j], dest[i]
        for q in range(n):
            i = pos[q]
            out[vs.x(q, i, dest[i], t)] = 1
            if dest[i] != i:
                moved_at[t] = True
        pos = [dest[pos[q]] for q in range(n)]
    if tuple(pos) != rc.final_map:
        raise ExtractError("declared final map does not match the swaps")

    for run in dummy_runs(vs.circuit):
        flag = False
        for t in reversed(run):
            flag = flag or moved_at[t]
            if flag:
                out[vs.z(t)] = 1

    if vs.crosstalk_mode:
        for t in range(m):
            for e in vs.graph.crosstalk_edges:
                if e in used_edges[t]:
                    out[vs.u(e[0], e[1], t)] = 1
            for e1, e2 in vs.graph.crosstalk_pairs:
                if e1 in used_edges[t] and e2 in used_edges[t]:
                    out[vs.v(e1, e2, t)] = 1
    return out


def stats(rc: RoutedCircuit, fid: FidelityModel, g: HardwareGraph) -> CircuitStats:
    """Recompute cost figures from the schedule alone."""
    cnots = 0
    active = 0
    err = 0.0
    xtalk = 0
    for ops in rc.steps:
        if ops:
            active += 1
        used = set()
        for op in ops:
            if isinstance(op, GateOp):
                cnots += op.cnots_used
                err += fid.gate_error(op.gid, *op.arc, merged=op.merged_swap)
                used.add(norm_edge(*op.arc))
            else:
                cnots += 3
                err += fid.swap_error(*op.edge)
                used.add(norm_edge(*op.edge))
        for e1, e2 in g.crosstalk_pairs:
            if e1 in used and e2 in used:
                xtalk += 1
    return CircuitStats(cnot_count=cnots, depth_proxy=active,
                        error_objective_value=err, crosstalk_count=xtalk)


def verify_structural(rc: RoutedCircuit, c: LayeredCircuit,
                      g: HardwareGraph) -> str | None:
    """Check the schedule's bookkeeping; None when clean, else a report.

    Token tracking must carry initial_map to final_map, gates must sit on
    existing arcs hosting their operands, each exactly once; when the
    schedule is step-aligned every gate must run in its own time step,
    otherwise per-qubit gate order must be preserved.
    """
    n = rc.n_nodes
    if n != g.n:
        return f"node count {n} does not match hardware size {g.n}"
    for label, mp in (("initial", rc.initial_map), ("final", rc.final_map)):
        if len(mp) != n or sorted(mp) != list(range(n)):
            return f"{label}_map is not a qubit-to-node bijection"

    gate_step = {}
    gate_by_gid = {}
    order: list[list[int]] = [[] for _ in range(n)]
    for t, grp in enumerate(c.groups):
        for gt in grp:
            gate_step[gt.gid] = t
            gate_by_gid[gt.gid] = gt
            order[gt.p].append(gt.gid)
            order[gt.q].append(gt.gid)
    progress = [0] * n

    if rc.time_aligned and len(rc.steps) != c.num_steps:
        return (f"schedule has {len(rc.steps)} steps, "
                f"circuit has {c.num_steps}")

    pos = list(rc.initial_map)
    seen = set()
    for t, ops in enumerate(rc.steps):
        touched = set()
        swaps = []
        for op in ops:
            i, j = nodes = op.arc if isinstance(op, GateOp) else op.edge
            if i == j or not g.has_edge(i, j):
                return f"step {t}: arc ({i}, {j}) not in hardware"
            if touched & set(nodes):
                return f"step {t}: overlapping operations on node {min(touched & set(nodes))}"
            touched.update(nodes)
            if isinstance(op, GateOp):
                if op.gid in seen:
                    return f"gate {op.gid} scheduled twice"
                seen.add(op.gid)
                gt = gate_by_gid.get(op.gid)
                if gt is None:
                    return f"unknown gate id {op.gid}"
                if (op.p, op.q) != (gt.p, gt.q):
                    return f"gate {op.gid} lists wrong operands"
                if rc.time_aligned and gate_step[op.gid] != t:
                    return (f"gate {op.gid} runs at step {t}, "
                            f"belongs to step {gate_step[op.gid]}")
                for q in (gt.p, gt.q):
                    if order[q][progress[q]] != op.gid:
                        return f"gate {op.gid} out of order on qubit {q}"
                if pos[gt.p] != i or pos[gt.q] != j:
                    return (f"gate {op.gid} placed on ({i}, {j}) but operands "
                            f"sit at ({pos[gt.p]}, {pos[gt.q]})")
                progress[gt.p] += 1
                progress[gt.q] += 1
                if op.merged_swap:
                    swaps.append((i, j))
            else:
                swaps.append((i, j))
        for (i, j) in swaps:
            occ = {pos.index(i): j, pos.index(j): i}
            for q, node in occ.items():
                pos[q] = node
    if len(seen) != len(gate_by_gid):
        missing = sorted(set(gate_by_gid) - seen)
        return f"gates never scheduled: {missing}"
    if tuple(pos) != rc.final_map:
        return "token tracking does not reach final_map"
    return None


def verify_unitary(rc: RoutedCircuit, c: LayeredCircuit) -> float:
    """Max deviation, after global-phase alignment, between the route and
    the logical circuit on its w active qubits (passing: at most
    ``EQUIVALENCE_ATOL``). Swaps only relabel which qubit a node holds, so
    a gate acts on its arc's qubits' wires, 2^w x 2^w. A gate on an idle
    qubit, or a replay not ending at ``final_map``, deviates by inf."""
    wire = {q: k for k, q in enumerate(c.active_qubits())}
    w = len(wire)
    if w > UNITARY_MAX_WIDTH:
        raise ExtractError(f"{w} active qubits; the unitary check takes {UNITARY_MAX_WIDTH}")
    unis = {gt.gid: gt.unitary for gt in c.gates()}
    held = np.argsort(rc.initial_map).tolist()  # the qubit on each node
    phys = logical = np.eye(2 ** w, dtype=complex)
    for op in (op for ops in rc.steps for op in ops):
        i, j = op.arc if isinstance(op, GateOp) else op.edge
        if isinstance(op, GateOp):
            if held[i] not in wire or held[j] not in wire:
                return np.inf
            phys = apply_two_qubit(phys, unis[op.gid], wire[held[i]], wire[held[j]], w)
        if isinstance(op, FreeSwap) or op.merged_swap:
            held[i], held[j] = held[j], held[i]
    if [held[node] for node in rc.final_map] != list(range(len(held))):
        return np.inf
    for gt in c.gates():
        logical = apply_two_qubit(logical, gt.unitary, wire[gt.p], wire[gt.q], w)
    return phase_distance(phys, logical)


# ---------------------------------------------------------------------------
# Serialization.

def routed_to_json(rc: RoutedCircuit) -> str:
    steps = []
    for ops in rc.steps:
        row = []
        for op in ops:
            if isinstance(op, GateOp):
                row.append({"kind": "gate", "gid": op.gid, "p": op.p, "q": op.q,
                            "arc": list(op.arc), "merged_swap": op.merged_swap,
                            "cnots_used": op.cnots_used})
            else:
                row.append({"kind": "swap", "edge": list(op.edge)})
        steps.append(row)
    doc = {"n_nodes": rc.n_nodes, "initial_map": list(rc.initial_map),
           "final_map": list(rc.final_map), "steps": steps,
           "origin": rc.origin, "time_aligned": rc.time_aligned}
    return json.dumps(doc)


def routed_from_json(source: str | dict) -> RoutedCircuit:
    with reading(ExtractError, "routed-circuit document"):
        return _routed_from_doc(parsed(source))


def _routed_from_doc(doc) -> RoutedCircuit:
    steps = []
    for row in doc["steps"]:
        ops = []
        for entry in row:
            if entry["kind"] == "gate":
                ops.append(GateOp(gid=int(entry["gid"]), p=int(entry["p"]), q=int(entry["q"]),
                                  arc=tuple(entry["arc"]), merged_swap=bool(entry["merged_swap"]),
                                  cnots_used=int(entry["cnots_used"])))
            elif entry["kind"] == "swap":
                ops.append(FreeSwap(edge=tuple(entry["edge"])))
            else:
                raise ExtractError(f"unknown op kind {entry['kind']!r}")
        steps.append(tuple(ops))
    return RoutedCircuit(n_nodes=int(doc["n_nodes"]), initial_map=tuple(doc["initial_map"]),
                         final_map=tuple(doc["final_map"]), steps=tuple(steps),
                         origin=str(doc.get("origin", "imported")),
                         time_aligned=bool(doc.get("time_aligned", True)))
