"""Per-request output checks and reference optima.

A routed circuit is checked against the hardware and the logical circuit
with the benchmark's own simulator (independent of ``qaroute.simulate``
and ``qaroute.extract.verify_unitary``), with the library's structural
verifier, and, on the exact workloads, against reference optima that come
from the exhaustive DP and HiGHS, never from the branch and bound under
test.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from qaroute.circuit import insert_dummy_steps, load_circuit, pad_qubits
from qaroute.extract import FreeSwap, GateOp, routed_from_json, stats, verify_structural
from qaroute.gatefid import FidelityModel
from qaroute.hwgraph import builtin_topology
from qaroute.qvbench import heavy_output_mass

from workloads import DUMMY_STEPS, Instance

REFERENCE_FILE = Path(__file__).with_name("references.json")
ERROR_TOL = 1e-9
UNITARY_TOL = 1e-8
# Exit codes documented by the CLI: ok, infeasible, limit with incumbent.
EXIT_OK, EXIT_INFEASIBLE, EXIT_LIMIT = 0, 2, 3


@dataclass(frozen=True)
class Prepared:
    """Everything the checks need about one instance, built once."""

    graph: object
    circuit: object  # padded, with dummy steps, as the CLI routes it
    fid: FidelityModel
    heavy_mass: float  # ideal heavy-output mass of the QV source
    uniform: float  # heavy-set size over 2^w: the score of a failed run
    gates: int


def prepare(inst: Instance, circuit_file: Path, qv) -> Prepared:
    g = builtin_topology(inst.topology, inst.nodes)
    c = insert_dummy_steps(pad_qubits(load_circuit(circuit_file.read_text()), g.n),
                           DUMMY_STEPS)
    heavy, mass = heavy_output_mass(qv)
    return Prepared(graph=g, circuit=c, fid=FidelityModel.build(c, g),
                    heavy_mass=mass, uniform=len(heavy) / float(2 ** qv.width),
                    gates=len(c.gates()))


def swap_depth(rc, c) -> int:
    """Depth objective read off the schedule: dummy steps carrying a swap."""
    return sum(1 for t in c.dummy_steps
               if any(isinstance(op, FreeSwap) or op.merged_swap for op in rc.steps[t]))


# ---------------------------------------------------------------------------
# Independent simulation.

def _apply(op: np.ndarray, u4: np.ndarray, a: int, b: int) -> np.ndarray:
    """Apply a 4x4 gate to output wires (a, b) of an operator tensor whose
    first n axes are output wires and last axis indexes input columns."""
    out = np.tensordot(u4.reshape(2, 2, 2, 2), op, axes=([2, 3], [a, b]))
    return np.moveaxis(out, (0, 1), (a, b))


def _identity(n: int) -> np.ndarray:
    return np.eye(2 ** n, dtype=complex).reshape((2,) * n + (2 ** n,))


_SWAP = np.eye(4, dtype=complex)[[0, 2, 1, 3]]


def unitary_deviation(rc, c) -> float:
    """Max entry deviation, up to global phase, between the routed schedule
    read in the logical frame and the logical circuit."""
    n = c.n_qubits
    unis = {gt.gid: gt.unitary for gt in c.gates()}
    logical = _identity(n)
    for grp in c.groups:
        for gt in grp:
            logical = _apply(logical, gt.unitary, gt.p, gt.q)
    phys = _identity(n)
    for ops in rc.steps:
        for op in ops:
            if isinstance(op, GateOp):
                phys = _apply(phys, unis[op.gid], *op.arc)
                if op.merged_swap:
                    phys = _apply(phys, _SWAP, *op.arc)
            else:
                phys = _apply(phys, _SWAP, *op.edge)
    # Logical qubit q enters on node initial_map[q] and leaves on
    # final_map[q]: relabel the physical operator's wires accordingly.
    full = phys.reshape((2,) * (2 * n))
    axes = list(rc.final_map) + [n + node for node in rc.initial_map]
    lmat = full.transpose(axes).reshape(2 ** n, 2 ** n)
    ref = logical.reshape(2 ** n, 2 ** n)
    inner = np.vdot(ref, lmat)
    if abs(inner) < 1e-12:
        return float("inf")
    return float(np.max(np.abs(lmat - (inner / abs(inner)) * ref)))


def hardware_problem(rc, g) -> str | None:
    """Ops off the hardware's edges, or two ops sharing a node in a step."""
    if rc.n_nodes != g.n:
        return f"routed on {rc.n_nodes} nodes, hardware has {g.n}"
    for t, ops in enumerate(rc.steps):
        used: set[int] = set()
        for op in ops:
            i, j = op.arc if isinstance(op, GateOp) else op.edge
            if not g.has_edge(i, j):
                return f"step {t}: ({i}, {j}) is not a hardware edge"
            if used & {i, j}:
                return f"step {t}: two operations share a node"
            used.update((i, j))
    return None


# ---------------------------------------------------------------------------
# Per-request verdicts.

def route_problem(rc, prep: Prepared) -> str | None:
    """Why a routed circuit is not a valid routing of the instance, if it is
    not: off the hardware, structurally broken, or a different unitary."""
    c, g = prep.circuit, prep.graph
    problem = hardware_problem(rc, g) or verify_structural(rc, c, g)
    if problem is None:
        dev = unitary_deviation(rc, c)
        if not dev <= UNITARY_TOL:
            problem = f"unitary deviation {dev:.3e}"
    return problem


@dataclass
class Verdict:
    routed: bool  # returned a route that passed every check
    wrong: str | None  # a returned output that is incorrect, with the reason
    failure: str | None  # why the request does not count as routed
    error: float | None = None
    depth: int | None = None
    cnots: int | None = None
    hop: float | None = None
    note: str | None = None  # a finding that is not a verdict


def _versus(v: Verdict, reference: dict) -> int:
    """-1 when the route beats the reference (error, then depth), 0 when it
    ties, 1 when it is worse."""
    if abs(v.error - reference["error"]) > ERROR_TOL:
        return -1 if v.error < reference["error"] else 1
    return (v.depth > reference["depth"]) - (v.depth < reference["depth"])


def check_request(exit_code: int | None, out_dir: Path, prep: Prepared,
                  reference: dict | None, mode: str | None) -> Verdict:
    """Judge one request from its exit code and its ``routed.json``.

    A missing route (limit, exception) is a failed request. An output that
    is incorrect is a wrong one: a route that breaks the hardware, the
    structure or the circuit's unitary; an exit-0 route that differs from
    the reference optimum; any route that beats a verified optimum; and,
    in "exact" mode, where the time limit sits far above every solve, an
    infeasible verdict on an instance the reference routes.

    A reference from the DP alone (``verified`` false) is a checked
    witness route, not a proof of optimality: a claimed optimum worse than
    it is wrong, while one that beats it is only noted, since the DP is
    known to miss the optimal depth on one rung.
    """
    if exit_code is None:
        return Verdict(False, "request raised an exception", "exception")
    if exit_code not in (EXIT_OK, EXIT_INFEASIBLE, EXIT_LIMIT):
        return Verdict(False, f"undocumented exit code {exit_code}", f"exit {exit_code}")
    path = out_dir / "routed.json"
    if not path.exists():
        if exit_code != EXIT_INFEASIBLE:
            return Verdict(False, f"exit {exit_code} without routed.json", "no route")
        if mode == "exact" and reference is not None:
            return Verdict(False, "infeasible verdict on an instance the reference "
                                  "routes", "exit 2")
        return Verdict(False, None, "exit 2")
    try:
        rc = routed_from_json(path.read_text())
    except (ValueError, KeyError, TypeError) as exc:
        return Verdict(False, f"routed.json unreadable: {exc}", "unreadable")
    problem = route_problem(rc, prep)
    if problem is not None:
        return Verdict(False, problem, "check")
    if exit_code == EXIT_INFEASIBLE:
        # The CLI writes a route and exits 2 only when the route fails its
        # own structural check, which this route passed.
        return Verdict(False, "exit 2 with a route that passes every check", "exit 2")
    c, g = prep.circuit, prep.graph
    st = stats(rc, prep.fid, g)
    v = Verdict(True, None, None, error=st.error_objective_value,
                depth=swap_depth(rc, c) if rc.time_aligned else None,
                cnots=st.cnot_count)
    if not math.isfinite(v.error):
        v.routed, v.wrong, v.failure = False, "non-finite error", "check"
        return v
    v.hop = score_hop(prep, v.error)
    if reference is None or mode is None:
        return v
    if v.depth is None:
        v.routed, v.wrong, v.failure = False, "exact route is not step-aligned", "check"
        return v
    versus = _versus(v, reference)
    found = f"({v.error!r}, {v.depth})"
    ref = f"({reference['error']!r}, {reference['depth']})"
    if versus < 0 and reference["verified"]:
        v.routed, v.failure = False, "check"
        v.wrong = f"{found} beats the reference optimum {ref}"
    elif versus < 0:
        v.note = f"{found} beats the unverified DP reference {ref}"
    elif versus > 0 and exit_code == EXIT_OK:
        v.routed, v.failure = False, "check"
        v.wrong = f"claimed optimum {found} is worse than the reference {ref}"
    elif versus > 0 and mode == "exact":
        v.routed, v.failure = False, "not optimal"
    return v


def score_hop(prep: Prepared, error: float | None) -> float:
    """Heavy-output probability under the library's noise model; a request
    without a route scores like a run that failed outright."""
    if error is None:
        return prep.uniform
    s = math.exp(-error)
    return s * prep.heavy_mass + (1.0 - s) * prep.uniform


def load_references(instance_seed: int) -> dict[str, dict]:
    doc = json.loads(REFERENCE_FILE.read_text())
    if doc["provenance"]["instance_seed"] != instance_seed:
        return {}
    return doc["instances"]
