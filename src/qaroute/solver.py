"""The two exact engines of the routing program and the contract they
share: ``SolveLimits``, the errors, the objective-order check, and the
tie slack ``_OBJ_EPS``; both admit inputs by ``bipmodel``'s rules.
Reading and writing models and solutions is ``modelio``'s.

Both engines break ties by one rule. Objective by objective, a value
within that objective's ``_OBJ_EPS`` of the least counts as least, and
the next objective decides among those: ``lexopt``'s budget rows for the
branch and bound, ``_fold`` for the DP, which then takes the first
matching (the first final state at the end).

``solve_branch_and_bound`` is a deterministic depth-first search with
best-bound pruning over the binary variables. Activity-based propagation
fixes everything a partial layout implies (placement, movement and gate
variables follow from the equality rows), and the lower bound combines
the objective contribution of fixed variables with, for the error
objective, the cheapest remaining placement of every unplaced gate. No
LP relaxation is involved; at desk scale the combinatorial bound closes
the tree quickly and keeps the solver dependency-free.

``solve_exhaustive``, the layout DP (its parts' docstrings describe it), is
the exact engine of ``bip``, ``bip_layout`` and ``bip_routing`` on every
instance whose arrays fit ``DP_MEMORY``, until the run's time limit. It
shares only the gate and swap prices and the tie rule with the branch
and bound, which, through ``lexopt``, routes ``bip_constrained``,
``pareto`` and the instances the DP refuses, and is the tests'
independent MILP oracle for the DP: the DP is never checked against
itself.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .bipmodel import (FEAS_TOL, BipProblem, Row, _row_name, check_initial_map,
                       check_layer_width, check_padded)
from .circuit import LayeredCircuit
from .extract import schedule
from .gatefid import FidelityModel
from .hwgraph import HardwareGraph, enumerate_matchings


class SolveError(ValueError):
    """Raised for malformed solver inputs or solution documents."""


class NoRouteError(SolveError):
    """No routed circuit to return: the instance has none, or a limit ran
    out before either engine found one (``NoIncumbentError``)."""


class NoIncumbentError(NoRouteError):
    """A limit ran out before any route was found; one may exist. The
    layout DP raises it when the run's time limit passes, and the stage
    loop when a stage spends its budget with no incumbent."""


class SolutionInfeasibleError(SolveError):
    """An imported assignment violates a constraint row."""

    def __init__(self, row: Row, activity: float, row_name: str):
        self.row = row
        self.activity = activity
        self.row_name = row_name
        super().__init__(
            f"assignment violates row {row_name} (family {row.family}): "
            f"activity {activity!r} vs {row.sense} {row.rhs!r}")


def _require_feasible(p: BipProblem, assignment) -> None:
    """Raise ``SolutionInfeasibleError`` at the first row ``assignment``
    violates."""
    k = p.check_assignment(assignment)
    if k is not None:
        row = p.rows[k]
        raise SolutionInfeasibleError(row, row.activity(assignment),
                                      _row_name(k, row.family))


class SolveStatus(Enum):
    OPTIMAL = "optimal"
    FEASIBLE = "feasible"
    INFEASIBLE = "infeasible"


@dataclass
class SolveLimits:
    """Search budgets: wall seconds and explored nodes per solve."""

    time_limit: float | None = None
    node_limit: int | None = None

    def __post_init__(self) -> None:
        if self.time_limit is not None and not self.time_limit > 0:  # NaN too
            raise SolveError("time limit must be positive")
        if self.node_limit is not None and self.node_limit <= 0:
            raise SolveError("node limit must be positive")


@dataclass
class SolveResult:
    status: SolveStatus
    objective: float | None
    assignment: np.ndarray | None
    dual_bound: float
    nodes: int

    @property
    def gap(self) -> float | None:
        if self.objective is None:
            return None
        return self.objective - self.dual_bound


# Per objective, the slack above its least value within which a value
# still counts as least, so a later objective decides: the lexicographic
# stages' budget rows and every pick of the layout DP (``_fold``) alike.
_OBJ_EPS = {"error": 1e-6, "depth": 0.0, "crosstalk": 0.0}


def _check_order(order) -> tuple[str, ...]:
    """``order`` as a tuple of distinct known objectives, at least one."""
    if isinstance(order, str):
        raise SolveError(f"objective order must be a sequence of names, not the string {order!r}")
    order = tuple(order)
    if not order:
        raise SolveError("objective order is empty")
    for o in order:
        if o not in _OBJ_EPS:
            raise SolveError(f"unknown objective {o!r}")
    if len(set(order)) != len(order):
        raise SolveError("objective order repeats an objective")
    return order


def solve_branch_and_bound(p: BipProblem, limits: SolveLimits | None = None,
                           incumbent=None) -> SolveResult:
    """Minimize the active objective over all feasible 0/1 assignments.

    Deterministic: identical inputs explore identical trees. Branching
    follows the time-expanded structure, assigning the placement
    variables of the earliest undecided step first (widest objective
    spread wins inside a step) with value 1 tried first, so the equality
    rows immediately pin the movement and gate variables of completed
    steps. An objective without gate modes (depth, crosstalk) branches
    on its own costed indicators first, each at 0: the search looks for
    a routing with no swap layer, or no interfering pair, before it
    places any qubit.

    ``incumbent`` is a known feasible 0/1 assignment. It is checked
    against every row (``SolveError`` if it is not binary,
    ``SolutionInfeasibleError`` if it violates a row) and prunes from the
    first node; it is returned unless the search finds a strictly better
    assignment.
    """
    limits = limits or SolveLimits()
    t_start = time.perf_counter()
    nvars = p.num_vars
    obj = [float(v) for v in p.objective]

    # Compiled row storage.
    nrows = len(p.rows)
    row_vars: list[tuple[int, ...]] = [r.vars for r in p.rows]
    row_coefs: list[tuple[float, ...]] = [r.coefs for r in p.rows]
    row_lo = [0.0] * nrows
    row_hi = [0.0] * nrows
    row_max = [0.0] * nrows
    for k, r in enumerate(p.rows):
        if r.sense == "=":
            row_lo[k] = row_hi[k] = r.rhs
        elif r.sense == "<=":
            row_lo[k], row_hi[k] = -math.inf, r.rhs
        elif r.sense == ">=":
            row_lo[k], row_hi[k] = r.rhs, math.inf
        else:
            raise SolveError(f"unknown row sense {r.sense!r}")
        row_max[k] = max((abs(c) for c in r.coefs), default=0.0)

    var_rows: list[list[tuple[int, float]]] = [[] for _ in range(nvars)]
    minact = [0.0] * nrows
    maxact = [0.0] * nrows
    for k in range(nrows):
        for v, cf in zip(row_vars[k], row_coefs[k]):
            var_rows[v].append((k, cf))
            if cf < 0.0:
                minact[k] += cf
            else:
                maxact[k] += cf

    # Gate placement structures for the error-objective bound, read off
    # the objective: a gate on an arc costs its gate variable alone
    # (plain), or that plus the two movement variables that merge a swap
    # of its operands into it (merged; impossible at the last step).
    inf = math.inf
    mode_gates = []
    is_mode_var = bytearray(nvars)
    if p.objective_kind == "error":
        for arcs in p.gate_arcs:
            ys, xps, xqs = (list(ids) for ids in zip(*arcs))
            mode_gates.append((ys, xps, xqs, [obj[y] for y in ys],
                               [obj[y] + obj[xp] + obj[xq] if xp >= 0 else inf
                                for y, xp, xq in arcs]))
            for v in ys + xps + xqs:
                if v >= 0:
                    is_mode_var[v] = 1

    vals = [-1] * nvars
    trail: list[int] = []
    # The one cost ledger, over the variables outside the gate modes:
    # the cost of those fixed at 1, plus every negative cost still free.
    objfix = 0.0
    negsum = sum(c for v, c in enumerate(obj) if c < 0.0 and not is_mode_var[v])

    queue: list[int] = []
    in_queue = bytearray(nrows)

    def fix(v: int, a: int) -> None:
        """Set the free variable ``v`` to ``a`` and queue its rows."""
        nonlocal objfix, negsum
        vals[v] = a
        trail.append(v)
        if not is_mode_var[v]:
            c = obj[v]
            if a:
                objfix += c
            if c < 0.0:
                negsum -= c
        for k, cf in var_rows[v]:
            if cf < 0.0:
                minact[k] += cf * a - cf
                maxact[k] += cf * a
            else:
                minact[k] += cf * a
                maxact[k] += cf * a - cf
            if not in_queue[k]:
                in_queue[k] = 1
                queue.append(k)

    def undo_to(mark: int) -> None:
        nonlocal objfix, negsum
        while len(trail) > mark:
            v = trail.pop()
            a = vals[v]
            vals[v] = -1
            if not is_mode_var[v]:
                c = obj[v]
                if a:
                    objfix -= c
                if c < 0.0:
                    negsum += c
            for k, cf in var_rows[v]:
                if cf < 0.0:
                    minact[k] -= cf * a - cf
                    maxact[k] -= cf * a
                else:
                    minact[k] -= cf * a
                    maxact[k] -= cf * a - cf

    def propagate() -> bool:
        qi = 0
        ok = True
        while ok and qi < len(queue):
            k = queue[qi]
            qi += 1
            in_queue[k] = 0
            ma, xa = minact[k], maxact[k]
            lo, hi = row_lo[k], row_hi[k]
            if ma > hi + FEAS_TOL or xa < lo - FEAS_TOL:
                ok = False
                break
            if not (ma + row_max[k] > hi + FEAS_TOL or xa - row_max[k] < lo - FEAS_TOL):
                continue
            rv, rc = row_vars[k], row_coefs[k]
            for idx in range(len(rv)):
                v = rv[idx]
                if vals[v] >= 0:
                    continue
                cf = rc[idx]
                ma, xa = minact[k], maxact[k]
                if cf > 0.0:
                    can1 = ma + cf <= hi + FEAS_TOL
                    can0 = xa - cf >= lo - FEAS_TOL
                else:
                    can1 = xa + cf >= lo - FEAS_TOL
                    can0 = ma - cf <= hi + FEAS_TOL
                if can1 and can0:
                    continue
                if not can1 and not can0:
                    ok = False
                    break
                fix(v, 1 if can1 else 0)
        queue.clear()
        if not ok:
            # A row can no longer be satisfied: drop the rest of the queue.
            in_queue[:] = bytes(nrows)
        return ok

    def bound() -> float:
        total = objfix + negsum
        for ys, xps, xqs, cps, cms in mode_gates:
            forced = -1
            for a in range(len(ys)):
                if vals[ys[a]] == 1:
                    forced = a
                    break
            best = inf
            rng = (forced,) if forced >= 0 else range(len(ys))
            for a in rng:
                if forced < 0 and vals[ys[a]] == 0:
                    continue
                xp = xps[a]
                if xp < 0:
                    if cps[a] < best:
                        best = cps[a]
                    continue
                vp, vq = vals[xp], vals[xqs[a]]
                if vp != 1 and vq != 1 and cps[a] < best:
                    best = cps[a]
                if vp != 0 and vq != 0 and cms[a] < best:
                    best = cms[a]
            if math.isinf(best):
                return inf
            total += best
        return total

    # Branching order: placement variables grouped by step, widest
    # objective spread first inside a step. A node's spread comes from
    # the cheapest costs of the gate arcs leaving it, so it differs
    # between nodes only when edges differ in beta (CNOT success
    # probability). With one beta, as on every builtin graph and every
    # benchmark rung, all spreads tie and the order is index order: the
    # nine exact_closed rungs explore the same trees without it. With
    # beta drawn uniformly from [0.97, 0.999] it moves node counts both
    # ways (grid-6/w4/3L/s1, six draws: fewer stage-1 nodes on four,
    # e.g. 5,423 against 67,768, and 235k against 305k in all), and
    # under a 30 s limit it gave grid-8/w4/3L/s1 the better incumbent on
    # two of three draws (0.141 against 0.275). The ladder cannot show
    # what it is for, so a ladder result is no reason to delete it.
    w_groups: list[list[int]] = []
    meta = p.var_meta
    if meta:
        by_t: dict[int, list[int]] = {}
        for v, entry in enumerate(meta):
            if entry[0] == "w":
                by_t.setdefault(entry[3], []).append(v)
        spread = [0.0] * nvars
        if mode_gates:
            node_cost: dict[tuple[int, int], list[float]] = {}
            for ys, _, _, cps, cms in mode_gates:
                for y, plain, merged in zip(ys, cps, cms):
                    _, _, i, _, t = meta[y]
                    node_cost.setdefault((i, t), []).append(min(plain, merged))
            for v, entry in enumerate(meta):
                if entry[0] == "w":
                    costs = node_cost.get((entry[2], entry[3]))
                    if costs:
                        spread[v] = max(costs) - min(costs)
        for t in sorted(by_t):
            group = sorted(by_t[t], key=lambda v: (-spread[v], v))
            w_groups.append(group)
    if not mode_gates:
        # The indicators the objective counts come first, tried at 0, so a
        # routing that uses none of them is found before any other.
        w_groups.insert(0, [v for v in range(nvars) if obj[v] > 0.0])

    def pick_branch() -> int:
        for group in w_groups:
            for v in group:
                if vals[v] < 0:
                    return v
        for v in range(nvars):
            if vals[v] < 0:
                return v
        return -1

    def preferred(v: int) -> int:
        return 1 if (meta and meta[v][0] == "w") or obj[v] < 0.0 else 0

    best_val = inf
    best_assign: np.ndarray | None = None
    if incumbent is not None:
        if np.shape(incumbent) != (nvars,):
            raise SolveError(f"incumbent has shape {np.shape(incumbent)}, expected ({nvars},)")
        bits = np.asarray(incumbent).tolist()
        if any(a not in (0, 1) for a in bits):
            raise SolveError("incumbent is not a 0/1 vector")
        _require_feasible(p, bits)
        best_val = p.objective_value(bits)
        best_assign = np.array(bits, dtype=np.int8)

    nodes = 0
    stack: list[tuple[int, int, int, float]] = []
    limit_hit = False
    conflict = not propagate()
    descending = True

    while True:
        if descending:
            nodes += 1
            if limits.node_limit is not None and nodes > limits.node_limit:
                limit_hit = True
                break
            if (nodes % 512 == 0 and limits.time_limit is not None
                    and time.perf_counter() - t_start > limits.time_limit):
                limit_hit = True
                break
            if conflict:
                descending = False
                continue
            b = bound()
            if b >= best_val - 1e-12:
                descending = False
                continue
            v = pick_branch()
            if v < 0:
                val = p.objective_value(vals)
                if val < best_val - 1e-12:
                    best_val = val
                    best_assign = np.array(vals, dtype=np.int8)
                descending = False
                continue
            a = preferred(v)
            stack.append((v, 1 - a, len(trail), b))
            fix(v, a)
            conflict = not propagate()
        else:
            if not stack:
                break
            v, alt, mark, pbound = stack.pop()
            undo_to(mark)
            if pbound >= best_val - 1e-12:
                continue
            fix(v, alt)
            conflict = not propagate()
            descending = True

    if limit_hit:
        open_bounds = [e[3] for e in stack]
        dual = min(open_bounds) if open_bounds else (best_val if best_assign is not None else -inf)
        status = SolveStatus.FEASIBLE
        objective = best_val if best_assign is not None else None
        return SolveResult(status=status, objective=objective, assignment=best_assign,
                           dual_bound=dual, nodes=nodes)
    if best_assign is None:
        return SolveResult(status=SolveStatus.INFEASIBLE, objective=None, assignment=None,
                           dual_bound=inf, nodes=nodes)
    return SolveResult(status=SolveStatus.OPTIMAL, objective=best_val,
                       assignment=best_assign, dual_bound=best_val, nodes=nodes)


# ---------------------------------------------------------------------------
# The layout DP.

# The layout DP holds all its arrays at once; it takes an instance only when
# ``exhaustive_bytes`` fits DP_MEMORY, 1 GiB, which leaves a desk machine room
# for a few ``bench`` workers running one each. The deadline bounds its time.
DP_MEMORY = 1 << 30

# Most (matching, state) candidates one pass of a DP step examines: a step
# whose matchings times the states on its smaller side exceed it is
# relaxed in several passes, each over a run of consecutive matchings, so
# the pass buffers stay at a few MB.
DP_PASS = 1 << 16


class DPTooLarge(SolveError):
    """The layout DP's arrays would not fit ``DP_MEMORY``."""


def exhaustive_bytes(n: int, edges: int, active: int, steps: int, objectives: int,
                     matchings: int) -> int:
    """Bytes of the arrays a pass of ``_relax`` holds, each as if every
    placement of the ``active`` qubits were live and valid. Per placement:
    2 B per qubit of ``states``; per edge, 4 B of ``flat``, 8 B of the
    live states' swap rows ``add`` and 1 B of ``allowed`` marks; per
    objective, 8 B each of the step's ``live`` rows, of ``value`` and of
    the rows carried out; 4 B of ``via`` per step but the last; and 61 B:
    8 B each of ``scratch``, ``err``, ``used``, ``targets`` and the live
    states of step 0 (kept for a rerun), of the step and carried out, 1 B
    of ``ahead`` and 4 B of a pull's ``row_of``. Per matching: its edges,
    their ids, mask and swap error. And 48 B for each of the at most
    ``DP_PASS`` candidates of a pass. Left out, as no measured step has
    half its placements live: what ``allowed`` and ``priced`` free before
    a pass, the fold's working rows and the rows a due bound keeps."""
    per_place = 2 * active + 13 * edges + 24 * objectives + 4 * (steps - 1) + 61
    return math.perm(n, active) * per_place + matchings * (8 * n + 128) + 48 * DP_PASS


def _placements(n: int, a: int) -> np.ndarray:
    """Every tuple of ``a`` distinct nodes, in lexicographic order, as an
    ``(a, n!/(n-a)!)`` int16 array: row k holds qubit k's node in each
    placement. ``DP_MEMORY`` admits no n near 2**15, whose n(n-1)
    placements alone would exceed it.

    Level by level: each prefix keeps its free nodes as a sorted row of
    ``free`` and extends by each of them in order, and the child that
    took the j-th keeps the row without it (the row repeated, less the
    diagonal of a square mask)."""
    cols = np.zeros((0, 1), dtype=np.int16)
    free = np.arange(n, dtype=np.int16)[None]
    for r in range(n, n - a, -1):
        p = cols.shape[1]
        cols = np.vstack([np.repeat(cols, r, axis=1), free.reshape(1, -1)])
        free = np.broadcast_to(free[:, None], (p, r, r))[:, ~np.eye(r, dtype=bool)]
        free = free.reshape(p * r, r - 1)
    return cols


def _rank(cols: np.ndarray, n: int) -> np.ndarray:
    """Index of each placement (a column of ``cols``, one row of nodes per
    qubit) in the order of ``_placements``: qubit k's node counts the
    nodes below it that no earlier qubit holds, in units of the
    placements of the qubits after it. int32 holds every index that
    ``DP_MEMORY`` admits."""
    a = len(cols)
    out = np.zeros(cols.shape[1], dtype=np.int32)
    for k, x in enumerate(cols):
        below = x.copy()
        for y in cols[:k]:
            below -= y < x
        out += below.astype(np.int32) * math.perm(n - k - 1, a - k - 1)
    return out


def _swap_table(states: np.ndarray, n: int, i: int, j: int) -> np.ndarray:
    """For each placement of ``states`` (see ``_placements``), the index of
    the placement with nodes i and j traded: an involution."""
    swapped = states.copy()
    swapped[states == i] = j
    swapped[states == j] = i
    return _rank(swapped, n)


def _fold(tgt, key, rows, slack, held, scratch) -> np.ndarray:
    """Per target, the candidate that wins it, by the one tie rule of the
    program: objective by objective, keep what lies within that
    objective's slack of the least value (equal to it where the slack is
    0), then take the least key, the incumbent ahead of every key.

    Candidate i offers target ``tgt[i]`` the values ``rows[o][i]``;
    ``key`` is unique per target and below 2**53. ``held[o]`` holds
    each target's incumbent values (inf where it has none), or ``held``
    is None when no target has one. ``scratch`` is a float array over
    the targets, all inf, and is left so. Returns the indices of the
    winners, at most one per target and none where the incumbent stays.
    """
    pos = np.arange(len(tgt))  # the candidates still in the running
    at = tgt  # their targets
    kept = None if held is None else np.isfinite(held[0].take(tgt))  # their incumbent is in
    for o, (x, s) in enumerate(zip(rows, slack)):
        x = x.take(pos)
        if kept is not None:
            h = held[o].take(at)
            scratch[at[kept]] = h[kept]
        np.minimum.at(scratch, at, x)
        cap = scratch.take(at) + s  # the least value plus the slack
        scratch[at] = math.inf
        stay = np.flatnonzero(x <= cap)
        if kept is not None:
            kept = (kept & (h <= cap)).take(stay)
        pos, at = pos.take(stay), at.take(stay)
    # Float keys (exact below 2**53) keep ufunc.at on its fast loop; int
    # keys into the float scratch take the generic one, 20x slower.
    key_left = key.take(pos).astype(np.float64)
    np.minimum.at(scratch, at, key_left)
    first = key_left == scratch.take(at)
    scratch[at] = math.inf
    if kept is not None:
        first &= ~kept
    return pos[first]


def _check_time(deadline: float) -> None:
    if time.perf_counter() > deadline:
        raise NoIncumbentError("the time limit passed before the layout DP finished")


class _LayoutSpace:
    """The layout DP's states and moves for ``a`` active qubits on the
    graph of ``n`` nodes and ``edges``: graph-only, so ``solve_exhaustive``
    builds one per (n, edges, a) and keeps it, read-only, for every later
    circuit and noise model on that graph.

    A state is the node tuple of the active qubits (a column of
    ``states``, one int16 array, placements in lexicographic order, built
    from per-prefix free-node lists by ``_placements``), so there are
    n!/(n-a)! states; idle qubits are interchangeable and ride along.
    ``flat``, one int32 array, holds per hardware edge the placement with
    its two nodes swapped; a matching's successor is its edges' rows
    composed, and since a matching is its own inverse the same rows give
    its predecessor. The ``matchings`` of at most ``a`` edges (a swapped
    edge moves an active qubit) are listed by size, so in a run of them
    those with a c-th edge come last, and a pass applies each edge column
    of ``edge_ids`` to that tail only: matchings of different sizes share
    it. ``eid`` is each node pair's edge id, -1 off the graph.
    ``deadline`` is checked after the matchings, after the placements and
    after each edge's table. ``nbytes`` counts what the space holds.
    """

    def __init__(self, n: int, edges: tuple, a: int, deadline: float):
        self.n, ne = n, len(edges)
        self.matchings = tuple(enumerate_matchings(HardwareGraph(n, edges), a))
        _check_time(deadline)
        self.states = _placements(n, a)
        self.places = self.states.shape[1]
        _check_time(deadline)
        tables = np.empty((ne, self.places), dtype=np.int32)
        for k, (i, j) in enumerate(edges):
            tables[k] = _swap_table(self.states, n, i, j)
            _check_time(deadline)
        self.flat = tables.reshape(-1)
        self.ends = np.array(edges, dtype=np.intp).reshape(-1, 2).T  # each edge's two nodes
        self.eid = np.full((n, n), -1, dtype=np.int64)
        self.eid[self.ends[0], self.ends[1]] = self.eid[self.ends[1], self.ends[0]] = range(ne)
        size = self.size = np.array([len(M) for M in self.matchings])  # ascending
        self.edge_ids = np.array([[self.eid[e] for e in M] + [ne] * (size[-1] - len(M))
                                  for M in self.matchings]).reshape(len(size), -1)  # ne: no edge
        self.wider = np.searchsorted(size, np.arange(1, size[-1] + 1))  # first of each size
        arrays = (self.states, self.flat, self.ends, self.eid, self.size, self.edge_ids,
                  self.wider)
        for x in arrays:
            x.flags.writeable = False
        self.nbytes = sum(x.nbytes for x in arrays) + len(self.matchings) * (8 * n + 128)

    def cuts(self, k: np.ndarray) -> np.ndarray:
        """Where the matchings ``k`` (ascending, so by size) first have a
        c-th edge, for c = 1, 2, ...: from there on every one has it,
        and column c - 1 of ``edge_ids`` is read from there on only."""
        return np.searchsorted(k, self.wider)

    def valid(self, gates, at=slice(None)) -> np.ndarray:
        """Whether each placement ``at`` runs ``gates``, a step's
        ``(cp, cq, ...)`` per gate (its qubits' rows of ``states``), in place."""
        nodes = self.states[:, at]
        ok = np.ones(nodes.shape[1], dtype=bool)
        for cp, cq, *_ in gates:
            ok &= self.eid[nodes[cp], nodes[cq]] >= 0
        return ok

    def allowed(self, gates, at: np.ndarray) -> np.ndarray:
        """Per edge, whether each placement ``at`` may swap there at a step
        with ``gates``: where some active qubit moves and
        no gate qubit does, or where the edge's nodes hold the two qubits
        of one gate, which absorbs the swap. A swap set is allowed when
        each of its edges is, so every gate runs in place or absorbs a
        swap of its own operands, and no swap of two idle qubits (which
        changes no state and only adds cost) is taken. A matching moves
        no qubit onto or off its edges' nodes, so a placement and its
        successor agree on each of its edges, and a pull asks its
        targets."""
        rows = self.states[:, at]
        everyone = np.arange(len(at))
        full = np.zeros((self.n, len(at)), dtype=bool)  # a node holds an active qubit
        full[rows, everyone] = True
        held = np.zeros_like(full)  # a node holds a gate qubit
        for cp, cq, *_ in gates:
            held[rows[cp], everyone] = held[rows[cq], everyone] = True
        ok = (full[self.ends[0]] | full[self.ends[1]]) & ~(held[self.ends[0]] | held[self.ends[1]])
        for cp, cq, *_ in gates:
            e = self.eid[rows[cp], rows[cq]]
            on = np.flatnonzero(e >= 0)  # every one, for a state valid at this step
            ok[e.take(on), on] = True
        return ok


class _Prices:
    """The layout DP's prices of circuit ``c`` under the order ``objs``,
    crosstalk by one int64 mask bit per edge of ``xt``. ``gates_at`` holds
    per step, per gate, ``(cp, cq, plain, merged)``: its qubits' rows of
    ``space.states`` and its plain and merged error rows (``fid.error_rows``).
    ``swap_err`` is each edge's swap error, and ``swaps_err`` sums each
    matching's column by column, in the order the per-state sum adds them."""

    def __init__(self, c: LayeredCircuit, g: HardwareGraph, fid: FidelityModel, objs, active,
                 xt, space: _LayoutSpace):
        self.objs = objs
        self.slack = [_OBJ_EPS[o] for o in objs[:-1]] + [0.0]
        self.dummy = set(c.dummy_steps)
        self.gates_at = [[(active.index(gt.p), active.index(gt.q), *fid.error_rows[gt.gid])
                          for gt in grp] for grp in c.groups]
        bit = {e: 1 << k for k, e in enumerate(xt)}
        self.edge_bit = np.array([bit.get(e, 0) for e in g.edges] + [0], dtype=np.int64)
        self.masks = np.bitwise_or.reduce(self.edge_bit[space.edge_ids], axis=1)  # disjoint edges
        self.pairs = [(bit.get(e1, 0), bit.get(e2, 0)) for e1, e2 in g.crosstalk_pairs]
        self.swap_err = fid.swap_errors
        self.swaps_err = np.zeros(len(space.matchings))
        for e, p in zip(space.edge_ids.T, space.wider):
            self.swaps_err[p:] += self.swap_err.take(e[p:])

    def priced(self, space: _LayoutSpace, t: int, alive: np.ndarray):
        """The live states ``alive`` at step t: each one's plain gate error
        and crosstalk mask of its gate edges, and per edge the error a
        swap there adds: merged minus plain error on a gate's own edge,
        the swap's error elsewhere. At a step with no gates (a dummy step)
        that is the swap's error for every state, and ``add`` is None."""
        err = np.zeros(len(alive))
        used = np.zeros(len(alive), dtype=np.int64)  # bit k: crosstalk edge k carries a gate
        if not self.gates_at[t]:
            return err, used, None
        rows = space.states[:, alive]
        everyone = np.arange(len(alive))
        add = np.repeat(self.swap_err[:, None], len(alive), axis=1)
        for cp, cq, plain, merged in self.gates_at[t]:
            e = space.eid[rows[cp], rows[cq]]  # the gate's edge in each state
            err += plain.take(e)
            used |= self.edge_bit.take(e)
            add[e, everyone] = merged.take(e) - plain.take(e)
        return err, used, add

    def costs(self, space: _LayoutSpace, t: int, k: np.ndarray, src: np.ndarray,
              err, used, add) -> list:
        """One cost row per objective for the live states ``src`` (rows of
        ``priced``'s arrays) taking matchings ``k`` at step t; with no
        gates, the error is one gather from each matching's swap error."""
        out = []
        for o in self.objs:
            if o == "error" and add is None:  # no gates: err is 0.0
                x = self.swaps_err.take(k)
            elif o == "error":
                x = err.take(src)
                for e, p in zip(space.edge_ids.T, space.cuts(k)):
                    x[p:] += add.take(e.take(k[p:]) * len(err) + src[p:])
            elif o == "depth":
                x = (space.size[k] > 0).astype(float) if t in self.dummy else np.zeros(len(src))
            else:
                both = used[src] | self.masks[k]
                x = sum((((both & b1) != 0) & ((both & b2) != 0) for b1, b2 in self.pairs),
                        np.zeros(len(src)))
            out.append(x)
        return out


class _Bound:
    """The layout DP's bound from a known route on ``g``. ``incumbent``
    gives U, an error some route reaches; ``due`` asks for it at the first
    step of more than ``DP_PASS`` candidates, and from then on ``_relax``
    drops every live state whose error plus ``floor`` exceeds U plus
    ``margin``.

    ``floor`` is an admissible and consistent lower bound on the error a
    live state of step t adds from there to the end, under ``prices``:
    every gate at step t or later at its least plain or merged error on
    any edge, plus the least swap error times half the excess, rounded
    up. The excess sums, over the first step from t on that has gates,
    each gate's operands' hops apart less one (0 when no path joins
    them). A live state runs step t's gates in place, so the excess is 0
    at a step with gates; the steps before the first such step are
    gate-free, so no swap there merges into a gate, and one swap moves
    two qubits one hop each, lowering the excess by at most 2. Its
    tables are built at its first call, so a solve that never asks for U
    builds none."""

    def __init__(self, incumbent, margin: float, prices: _Prices, g: HardwareGraph):
        self.incumbent, self.margin, self.prices, self.g = incumbent, margin, prices, g
        self.upper = None  # U, once asked for
        self.tables = None  # the floor's, once built

    def due(self, candidates: int) -> bool:
        """Whether the bound prunes a step of ``candidates`` (matchings
        times the states on its smaller side)."""
        if self.upper is None and candidates > DP_PASS:
            self.upper = float(self.incumbent())
        return self.upper is not None

    def _tables(self) -> tuple:
        """Per step t, the least error of the gates at steps >= t and the
        gates of the first step >= t that has any; the hops past adjacent
        between each pair of nodes; and the least swap error."""
        rest, ahead, total, nxt = [], [], 0.0, []
        for grp in reversed(self.prices.gates_at):
            total += sum(min(plain.min(), merged.min()) for _, _, plain, merged in grp)
            nxt = grp or nxt
            rest.append(total)
            ahead.append(nxt)
        beyond = np.maximum(np.array(self.g.distances()) - 1, 0)
        return rest[::-1], ahead[::-1], beyond, self.prices.swap_err.min()

    def floor(self, space: _LayoutSpace, t: int, alive: np.ndarray) -> np.ndarray:
        """The lower bound for each live state ``alive`` of step t."""
        if self.tables is None:
            self.tables = self._tables()
        rest, ahead, beyond, least_swap = self.tables
        rows = space.states[:, alive]
        excess = np.zeros(len(alive), dtype=np.int64)
        for cp, cq, *_ in ahead[t]:
            excess += beyond[rows[cp], rows[cq]]
        return rest[t] + least_swap * ((excess + 1) // 2)


def _relax(space: _LayoutSpace, prices: _Prices, t: int, alive: np.ndarray, live: list,
           scratch: np.ndarray, deadline: float, bound: _Bound | None):
    """One step of the layout DP: from the live states ``alive`` of step
    t, with one row of values ``live`` per objective, to those of step
    t + 1 and theirs, plus ``via``: per placement of step t + 1 the
    matching it took (0 for none). With a ``bound`` that is due, the
    live states it drops are not relaxed.

    It relaxes the matchings from the smaller side, pushing from the
    live states or pulling into the valid states of the next step when
    those are fewer, and marks per edge the states of that side that
    may swap there (``allowed``). It works once per pass, each pass a
    run of consecutive matchings whose count times that side's states
    stays within ``DP_PASS`` (so one pass unless the step is large, and
    one matching per pass only when a single one exceeds it): the pass
    gathers every (state, matching) candidate the marks allow, prices
    them together and keeps per target the winner by ``_fold``'s rule
    (over ``scratch``), an earlier pass's winner ahead of every matching
    of a later one. Checks ``deadline`` once per pass.
    """
    places = space.places
    ahead = space.valid(prices.gates_at[t + 1])
    targets = np.flatnonzero(ahead)
    if bound is not None and bound.due(min(len(targets), len(alive)) * len(space.matchings)):
        keep = np.flatnonzero(live[0] + bound.floor(space, t, alive) <= bound.upper + bound.margin)
        alive, live = alive.take(keep), [v.take(keep) for v in live]
    pull = len(targets) < len(alive)
    if pull:
        row_of = np.full(places, -1, dtype=np.int32)  # placement -> live row
        row_of[alive] = np.arange(len(alive))
    value = [np.full(places, math.inf) for _ in live]
    via = np.zeros(places, dtype=np.int32)
    err, used, add = prices.priced(space, t, alive)
    side = targets if pull else alive
    ok = space.allowed(prices.gates_at[t], side)
    run = max(1, DP_PASS // max(1, len(side)))  # matchings per pass
    for k0 in range(0, len(space.matchings), run):
        _check_time(deadline)
        ids = space.edge_ids[k0:k0 + run]
        keep = np.ones((len(ids), len(side)), dtype=bool)
        for e, p in zip(ids.T, space.cuts(np.arange(k0, k0 + len(ids)))):
            keep[p:] &= ok[e[p:]]
        k, at = np.divmod(np.flatnonzero(keep), len(side))
        if len(k) == 0:
            continue
        k += k0
        end = side.take(at)  # each candidate's other end
        for e, p in zip(space.edge_ids.T, space.cuts(k)):
            end[p:] = space.flat.take(e.take(k[p:]) * places + end[p:])
        if pull:
            tgt, src = side.take(at), row_of.take(end)
            at = np.flatnonzero(src >= 0)
        else:
            src, tgt = at, end
            at = None if len(targets) == places else np.flatnonzero(ahead.take(tgt))
        if at is not None:  # None: every placement is valid at t + 1
            k, src, tgt = k.take(at), src.take(at), tgt.take(at)
        cand = prices.costs(space, t, k, src, err, used, add)
        for b, x in zip(live, cand):
            x += b.take(src)
        win = _fold(tgt, k, cand, prices.slack, value if k0 else None, scratch)
        tgt = tgt.take(win)
        for v, x in zip(value, cand):
            v[tgt] = x.take(win)
        via[tgt] = k.take(win)
    alive = np.flatnonzero(np.isfinite(value[0]))
    return alive, [v.take(alive) for v in value], via


def _walk(space: _LayoutSpace, c: LayeredCircuit, fid: FidelityModel, active, initial_map,
          vias: list, state: int):
    """The routed circuit that ends in placement ``state``: walked back
    to step 0 through the matchings each step's ``via`` names, where the
    idle qubits go on the free nodes in order (or on their pinned nodes),
    then carried forward through those matchings."""
    taken = []
    for via in reversed(vias):
        k = int(via[state])
        taken.append(k)
        for e in space.edge_ids[k, :space.size[k]].tolist():
            state = int(space.flat[e * space.places + state])
    n = space.n
    pos = np.full(n, -1)
    pos[active] = space.states[:, state]
    idle = [q for q in range(n) if q not in active]
    if initial_map is None:
        pos[idle] = sorted(set(range(n)) - set(pos[active].tolist()))
    else:
        pos[idle] = [initial_map[q] for q in idle]
    layouts = [tuple(pos.tolist())]
    for k in reversed(taken):
        move = np.arange(n)
        for i, j in space.matchings[k]:
            move[i], move[j] = j, i
        pos = move[pos]
        layouts.append(tuple(pos.tolist()))
    return schedule(c, fid, layouts, "exhaustive")


def _run(space: _LayoutSpace, prices: _Prices, m: int, alive: np.ndarray, scratch: np.ndarray,
         deadline: float, bound: _Bound | None):
    """The layout DP from the live states ``alive`` of step 0: the winning
    final state's values, one per objective, the state, and each step's
    ``via`` for ``_walk``; None when no state reaches the last step. The
    last step runs its gates with no swap set (matching 0 is the empty
    one), and the best final state wins one target by ``_fold``'s rule."""
    live = [np.zeros(len(alive)) for _ in prices.objs]
    vias = []
    for t in range(m - 1):
        if len(alive) == 0:
            break
        alive, live, via = _relax(space, prices, t, alive, live, scratch, deadline, bound)
        vias.append(via)
    if len(alive) == 0:
        return None
    err, used, add = prices.priced(space, m - 1, alive)
    every, zero = np.arange(len(alive)), np.zeros(len(alive), dtype=np.intp)
    last = prices.costs(space, m - 1, zero, every, err, used, add)
    total = [v + x for v, x in zip(live, last)]
    best = int(_fold(zero, every, total, prices.slack, None, scratch)[0])
    return tuple(float(row[best]) for row in total), int(alive[best]), vias


# The finished layout spaces by (nodes, edges, active count), least
# recently used first.
_spaces: dict[tuple, _LayoutSpace] = {}


def solve_exhaustive(c: LayeredCircuit, g: HardwareGraph, fid: FidelityModel,
                     order, initial_map=None, lim: SolveLimits | None = None,
                     incumbent=None):
    """Optimum by dynamic programming over the layouts of the qubits some
    gate touches: ``_LayoutSpace`` holds the states and the swap sets
    between them, ``_Prices`` prices a step, ``_relax`` carries each
    step's values into the next, and ``_walk`` reads one route back.

    The space depends only on the graph and the active count, so the
    process keeps each one it finishes, least recently used first, and
    later solves on that (graph, active count) reuse it; the build's
    time checks run on a build only. Before a solve, spaces of other
    keys go, least recently used first, until its ``exhaustive_bytes``
    and every space still held fit ``DP_MEMORY`` together.

    ``order``, ``initial_map`` and ``lim`` mean what they mean for
    ``lexopt.lexicographic_solve``: an objective order that
    ``_check_order`` accepts, the step-0 node of every qubit (idle ones
    included) when given, and the run's limits. Returns ``(values,
    routed)``: the value of each objective of ``order``, as a tuple, and
    one optimal routed circuit (see extract.RoutedCircuit). Raises
    ``DPTooLarge`` at once when ``exhaustive_bytes`` of its arrays would
    not fit ``DP_MEMORY`` (its only refusal), ``NoIncumbentError`` once
    ``lim.time_limit`` has passed (checked once per pass, and while it
    builds a space after the matchings, the placements and each edge's
    table; the DP counts no nodes), ``bipmodel.ModelError`` for an input
    the pad, map or layer-width rule refuses, and ``NoRouteError`` when
    no routing exists.

    ``incumbent``, when given, is a zero-argument callable that returns
    U, an error some route of the circuit reaches, as
    ``solve_branch_and_bound`` takes a known assignment. Only an order
    that starts with ``"error"`` uses it, and the DP calls it at most
    once: at the first step whose matchings times the states on its
    smaller side exceed ``DP_PASS`` (the first step relaxed in more than
    one pass), so a solve with no such step never pays for it. Its time
    counts against ``lim.time_limit``. From that step on, a live state
    whose error plus ``_Bound.floor`` (a lower bound on the error still
    to come) exceeds U + (m + 2) * ``_OBJ_EPS["error"]`` is dropped
    before its step is relaxed; the margin covers the slack ``_fold``
    may keep at each of the m steps, so every candidate that decides a
    fold on the returned route survives, and the values and route are
    those of the solve without it. The result stands when its error is
    at most U, give or take the error's slack: a caller that prices the
    DP's own optimal route sums its errors in another order, a few ulps
    apart. Otherwise, or when no state survives, the DP runs again
    without the bound under the same deadline: U may come from a route
    the model's steps cannot hold, below the DP's optimum.
    """
    objs = _check_order(order)
    n, m = g.n, c.num_steps
    check_initial_map(initial_map, n)
    check_padded(c, g)
    check_layer_width(c, g)
    if not c.gates():  # no active qubit: nothing moves, and the pinned map is the route
        pin = tuple(range(n) if initial_map is None else initial_map)
        return (0.0,) * len(objs), replace(schedule(c, fid, [pin] * m, "exhaustive"),
                                           initial_map=pin, final_map=pin)

    active = c.active_qubits()
    a = len(active)
    xt = g.crosstalk_edges if "crosstalk" in objs else ()  # one int64 mask bit each
    if len(xt) > 63:
        raise SolveError("the layout DP counts crosstalk on at most 63 edges")
    ne = len(g.edges)
    takeable = sum(math.comb(ne, k) for k in range(a + 1))  # bounds the matchings
    need = exhaustive_bytes(n, ne, a, m, len(objs), takeable)
    if need > DP_MEMORY:
        raise DPTooLarge(f"the layout DP would need more than {DP_MEMORY} bytes")
    deadline = time.perf_counter() + ((lim and lim.time_limit) or math.inf)
    key = (n, g.edges, a)
    space = _spaces.pop(key, None)  # put back last: the most recently used
    held = sum(s.nbytes for s in _spaces.values())
    while need + held > DP_MEMORY:
        held -= _spaces.pop(next(iter(_spaces))).nbytes
    if space is None:
        space = _LayoutSpace(n, g.edges, a, deadline)
    _spaces[key] = space
    prices = _Prices(c, g, fid, objs, active, xt, space)

    if initial_map is None:
        alive = np.flatnonzero(space.valid(prices.gates_at[0]))
    else:
        alive = _rank(np.array([initial_map[q] for q in active], dtype=np.int16).reshape(a, 1), n)
        alive = alive[space.valid(prices.gates_at[0], alive)]
    scratch = np.full(space.places, math.inf)  # _fold's, over the targets
    bound = (_Bound(incumbent, (m + 2) * _OBJ_EPS["error"], prices, g)
             if incumbent is not None and objs[0] == "error" else None)
    found = _run(space, prices, m, alive, scratch, deadline, bound)
    if bound is not None and bound.upper is not None and (
            found is None or found[0][0] > bound.upper + _OBJ_EPS["error"]):
        found = _run(space, prices, m, alive, scratch, deadline, None)
    if found is None:
        raise NoRouteError("instance is infeasible")
    values, state, vias = found
    return values, _walk(space, c, fid, active, initial_map, vias, state)
