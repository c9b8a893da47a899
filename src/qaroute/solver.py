"""Exact solvers and model I/O for the routing program.

``solve_branch_and_bound`` is a deterministic depth-first search with
best-bound pruning over the binary variables. Activity-based propagation
fixes everything a partial layout implies (placement, movement and gate
variables follow from the equality rows), and the lower bound combines
the objective contribution of fixed variables with, for the error
objective, the cheapest remaining placement of every unplaced gate. No
LP relaxation is involved; at desk scale the combinatorial bound closes
the tree quickly and keeps the solver dependency-free.

``solve_exhaustive``, the layout DP (its docstring describes it), is
the exact engine of ``bip``, ``bip_layout`` and ``bip_routing`` on every
instance whose arrays fit ``DP_MEMORY``, until the run's time limit. It
shares only the gate and swap prices with the branch and bound, which,
through ``lexopt``, routes ``bip_constrained``, ``pareto`` and the
instances the DP refuses, and is the tests' independent MILP oracle for
the DP: the DP is never checked against itself.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .bipmodel import FEAS_TOL, BipProblem, Row
from .circuit import LayeredCircuit
from .extract import schedule
from .gatefid import FidelityModel
from .hwgraph import HardwareGraph, enumerate_matchings


class SolveError(ValueError):
    """Raised for malformed solver inputs or solution documents."""


class NoRouteError(SolveError):
    """No routed circuit to return: the instance has none, or a
    branch-and-bound stage spent its budget before finding one
    (``lexopt.NoIncumbentError``)."""


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

# Slack within which two values of an objective count as tied when a
# later objective breaks the tie (lexicographic stages and the DP alike).
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


def _check_initial_map(initial_map, n: int) -> None:
    """Both exact engines' rule: ``initial_map``, when given, sends the n
    qubits to the n nodes one to one."""
    if initial_map is not None and sorted(initial_map) != list(range(n)):
        raise SolveError("initial_map is not a qubit-to-node bijection")


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


class DPTimeLimit(SolveError):
    """The run's time limit passed before the layout DP finished."""


def exhaustive_bytes(n: int, edges: int, active: int, steps: int, objectives: int,
                     matchings: int) -> int:
    """Bytes of the layout DP's arrays. Per placement of the ``active``
    qubits: 2 B of nodes per qubit; per edge a 4 B swap table entry and
    9 B of swap rows (kept for the states on one side of a step only, at
    most every placement); 2 B of node masks per node; 32 B of values
    per objective; 56 B of indices, the row map, the fold's scratch and
    temporaries (enough for a pass over a single matching); and 8 B of
    parents per step. Per matching: its tuple of edges, their ids, mask
    and summed swap error. And 64 B for each of the at most ``DP_PASS``
    candidates of a pass over several matchings."""
    per_place = 2 * active + 13 * edges + 2 * n + 32 * objectives + 56 + 8 * steps
    return math.perm(n, active) * per_place + matchings * (8 * n + 128) + 64 * DP_PASS


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


def _less(a, b, slack) -> np.ndarray:
    """Element-wise lexicographic ``a < b`` over lists of objective rows,
    each row but the last compared within its slack."""
    out = np.zeros(len(a[0]), dtype=bool)
    open_ = np.ones(len(a[0]), dtype=bool)
    for x, y, s in zip(a, b, slack):
        lt, gt = x < y - s, x > y + s
        out |= open_ & lt
        open_ &= ~(lt | gt)
    return out


def _fold(tgt, key, rows, slack, held, scratch) -> np.ndarray:
    """The candidates that win their targets in the in-order fold: each
    target starts from its incumbent and takes, by ascending ``key``,
    every candidate that ``_less`` finds better than its current value.

    Candidate i offers target ``tgt[i]`` the values ``rows[o][i]``;
    ``key`` is unique per target and below 2**53. ``held[o]`` holds
    each target's incumbent values (inf where it has none), or ``held``
    is None when no target has one. ``scratch`` is a float array over the targets, all
    inf, and is left so. Returns the indices of the winners, at most one
    per target and none where the incumbent stays.

    It takes a few passes over all candidates, not one per key. On an
    objective compared exactly (slack 0) a target keeps only the values
    equal to its least. On one with slack s it keeps those within s/2 of
    the least: they are within s of each other, so the next objectives
    decide among them, and each beats every value more than 2s above
    the least, which can then never win. A target with a value between
    s/2 and 2s above its least is folded key by key instead. The first
    value left wins, the incumbent before every key.
    """
    pos = np.arange(len(tgt))  # the candidates still in the running
    at = tgt  # their targets
    kept = None if held is None else np.isfinite(held[0].take(tgt))  # their incumbent is in
    odd = []  # targets folded key by key
    for o, (x, s) in enumerate(zip(rows, slack)):
        x = x.take(pos)
        if kept is not None:
            h = held[o].take(at)
            scratch[at[kept]] = h[kept]
        np.minimum.at(scratch, at, x)
        least = scratch.take(at)
        scratch[at] = math.inf
        if s == 0:
            stay = x == least
            if kept is not None:
                kept &= h == least
        else:
            near, far = least + s / 2, least + 2 * s
            stay = x <= near
            between = ~stay & (x <= far)
            if kept is not None:
                between |= kept & (h > near) & (h <= far)
                kept &= h <= near
            if between.any():
                odd.append(at[between])
        stay = np.flatnonzero(stay)
        pos, at = pos.take(stay), at.take(stay)
        if kept is not None:
            kept = kept.take(stay)
    # Float keys (exact below 2**53) keep ufunc.at on its fast loop; int
    # keys into the float scratch take the generic one, 20x slower.
    key_left = key.take(pos).astype(np.float64)
    np.minimum.at(scratch, at, key_left)
    first = key_left == scratch.take(at)
    scratch[at] = math.inf
    if kept is not None:
        first &= ~kept
    win = pos[first]
    if not odd:
        return win
    odd = np.concatenate(odd)
    win = win[~np.isin(tgt.take(win), odd)]
    idx = np.flatnonzero(np.isin(tgt, odd))
    idx = idx[np.argsort(key.take(idx), kind="stable")]
    where, slot = np.unique(tgt.take(idx), return_inverse=True)
    if held is None:
        cur = [np.full(len(where), math.inf) for _ in rows]
    else:
        cur = [h.take(where) for h in held]
    pick = np.full(len(where), -1)
    for run in np.split(np.arange(len(idx)), np.flatnonzero(np.diff(key.take(idx))) + 1):
        i, j = idx[run], slot[run]  # one key: distinct targets
        better = _less([r[i] for r in rows], [c[j] for c in cur], slack)
        i, j = i[better], j[better]
        for c, r in zip(cur, rows):
            c[j] = r[i]
        pick[j] = i
    return np.concatenate((win, pick[pick >= 0]))


def solve_exhaustive(c: LayeredCircuit, g: HardwareGraph, fid: FidelityModel,
                     order, initial_map=None, lim: SolveLimits | None = None):
    """Optimum by dynamic programming over the layouts of the active qubits.

    A state is the node tuple of the qubits some gate touches (a column
    of one int16 array, placements in lexicographic order, built from
    per-prefix free-node lists by ``_placements``), so there are
    n!/(n-a)! states; idle qubits are interchangeable and ride along.
    One int32 array, built once, holds per hardware edge the placement
    with its two nodes swapped; a matching's successor is its edges'
    rows composed, and since a matching is its own inverse the same rows
    give its predecessor. Matchings are listed by size, so in a run of
    them those with a c-th edge come last, and a pass applies each edge
    column to that tail only: matchings of different sizes share it.
    Each step prices the live states once: their plain gate error, and
    per edge the error a swap there adds (merged minus plain error on a
    gate's own edge, the swap's error elsewhere), and crosstalk by one
    int64 mask bit per crosstalk edge (so on at most 63 of them). A step
    with no gates, such as a dummy step, costs every state the same swap
    errors, so there a candidate's error is one gather from its
    matching's summed swap error (summed once per solve, column by
    column, in the order the per-state sum adds them) and no per-edge
    rows are built. It then relaxes the matchings of at most ``a`` edges
    (a swapped edge moves an active qubit) from the smaller side, pushing
    from the live states or pulling into the valid states of the next
    step when those are fewer. Per edge it marks the states of that side that may swap
    there: on a gate's own edge, or where neither node holds a gate
    qubit and one holds an active qubit; a matching moves no qubit onto
    or off its edges' nodes, so a target answers as its source would.
    It works once per pass, each pass a run of consecutive matchings
    whose count times that side's states stays within ``DP_PASS`` (so
    one pass unless the step is large, and one matching per pass only
    when a single one exceeds it): the pass gathers every (state,
    matching) candidate the marks allow, prices them together and keeps
    per target the value the in-order fold would keep (``_fold``). A
    candidate replaces the target's value when it is lexicographically
    smaller, each component but the last within its ``_OBJ_EPS`` slack,
    so float rounding in a sum cannot decide a later component; the
    first matching wins a tie, and an earlier pass's value comes before
    every matching of a later one. The walk back puts the idle qubits on
    the free nodes at step 0, in order, and carries them through the
    recorded matchings.

    ``order``, ``initial_map`` and ``lim`` mean what they mean for
    ``lexopt.lexicographic_solve``: an objective order that
    ``_check_order`` accepts, the step-0 node of every qubit (idle ones
    included) when given, and the run's limits. Returns ``(values,
    routed)``: the value of each objective of ``order``, as a tuple, and
    one optimal routed circuit (see extract.RoutedCircuit). Raises
    ``DPTooLarge`` at once when ``exhaustive_bytes`` of its arrays would
    not fit ``DP_MEMORY`` (its only refusal), ``DPTimeLimit`` once
    ``lim.time_limit`` has passed (checked after the matchings, after the
    placements, after each edge's table and once per pass; the DP counts
    no nodes), and ``NoRouteError`` when no routing exists.
    """
    objs = _check_order(order)
    if c.n_qubits != g.n:
        raise SolveError("circuit and graph sizes differ; pad the circuit first")
    n, m = g.n, c.num_steps
    _check_initial_map(initial_map, n)
    if m == 0:  # no steps: the pinned map, if any, is the whole route
        pin = tuple(range(n) if initial_map is None else initial_map)
        return (0.0,) * len(objs), replace(schedule(c, fid, [], "exhaustive"),
                                           initial_map=pin, final_map=pin)

    active = sorted({q for gate in c.gates() for q in gate.operands})
    a = len(active)
    xt = g.crosstalk_edges if "crosstalk" in objs else ()  # one int64 mask bit each
    if len(xt) > 63:
        raise SolveError("the layout DP counts crosstalk on at most 63 edges")
    ne = len(g.edges)
    takeable = sum(math.comb(ne, k) for k in range(a + 1))  # bounds the matchings
    if exhaustive_bytes(n, ne, a, m, len(objs), takeable) > DP_MEMORY:
        raise DPTooLarge(f"the layout DP would need more than {DP_MEMORY} bytes")
    deadline = time.perf_counter() + ((lim and lim.time_limit) or math.inf)

    def check_time() -> None:
        if time.perf_counter() > deadline:
            raise DPTimeLimit("the time limit passed before the layout DP finished")

    matchings = enumerate_matchings(g, a)  # each swapped edge moves an active qubit
    check_time()
    col = {q: k for k, q in enumerate(active)}
    states = _placements(n, a)
    places = states.shape[1]
    check_time()
    tables = np.empty((ne, places), dtype=np.int32)
    for k, (i, j) in enumerate(g.edges):
        tables[k] = _swap_table(states, n, i, j)
        check_time()
    flat = tables.reshape(-1)

    ends = np.array(g.edges, dtype=np.intp).reshape(-1, 2).T  # each edge's two nodes
    adj = np.zeros((n, n), dtype=bool)
    eid = np.zeros((n, n), dtype=np.int64)
    for k, (i, j) in enumerate(g.edges):
        adj[i, j] = adj[j, i] = True
        eid[i, j] = eid[j, i] = k
    bit = np.zeros((n, n), dtype=np.int64)
    for k, (i, j) in enumerate(xt):
        bit[i, j] = bit[j, i] = 1 << k
    swap_err = np.array([fid.swap_error(i, j) for i, j in g.edges])
    plain, merged = {}, {}
    for gate in c.gates():
        plain[gate.gid] = np.full((n, n), math.inf)
        merged[gate.gid] = np.full((n, n), math.inf)
        for i, j in g.edges:
            plain[gate.gid][i, j] = plain[gate.gid][j, i] = fid.gate_error(gate.gid, i, j)
            merged[gate.gid][i, j] = merged[gate.gid][j, i] = fid.gate_error(
                gate.gid, i, j, merged=True)
    gates_at = [[(col[gt.p], col[gt.q], gt.gid) for gt in grp] for grp in c.groups]
    size = np.array([len(M) for M in matchings])  # ascending
    index = {e: k for k, e in enumerate(g.edges)}
    edge_ids = np.array([[index[e] for e in M] + [ne] * (size[-1] - len(M))
                         for M in matchings]).reshape(len(matchings), -1)  # ne: no edge
    wider = np.searchsorted(size, np.arange(1, size[-1] + 1))  # first matching of each size
    edge_bit = np.array([bit[e] for e in g.edges] + [0], dtype=np.int64)
    masks = np.bitwise_or.reduce(edge_bit[edge_ids], axis=1)  # disjoint edges
    swaps_err = np.zeros(len(matchings))  # each swap set's error, summed as costs sums it
    for e, p in zip(edge_ids.T, wider):
        swaps_err[p:] += swap_err.take(e[p:])
    dummy = set(c.dummy_steps)
    pairs = [(bit[e1], bit[e2]) for e1, e2 in g.crosstalk_pairs]
    slack = [_OBJ_EPS[o] for o in objs[:-1]] + [0.0]

    def cuts(k: np.ndarray) -> np.ndarray:
        """Where the matchings ``k`` (ascending, so by size) first have a
        c-th edge, for c = 1, 2, ...: from there on every one has it,
        and column c - 1 of ``edge_ids`` is read from there on only."""
        return np.searchsorted(k, wider)

    def valid(t: int, at=slice(None)) -> np.ndarray:
        nodes = states[:, at]
        ok = np.ones(nodes.shape[1], dtype=bool)
        for cp, cq, _ in gates_at[t]:
            ok &= adj[nodes[cp], nodes[cq]]
        return ok

    def allowed(t: int, at: np.ndarray) -> np.ndarray:
        """Per edge, whether each placement ``at`` may swap there at step t: where some active qubit moves and
        no gate qubit does, or where the edge's nodes hold the two qubits
        of one gate, which absorbs the swap. A swap set is allowed when
        each of its edges is, so every gate runs in place or absorbs a
        swap of its own operands, and no swap of two idle qubits (which
        changes no state and only adds cost) is taken. A matching moves
        no qubit onto or off its edges' nodes, so a placement and its
        successor agree on each of its edges, and a pull asks its
        targets."""
        rows = states[:, at]
        everyone = np.arange(len(at))
        full = np.zeros((n, len(at)), dtype=bool)  # a node holds an active qubit
        full[rows, everyone] = True
        held = np.zeros((n, len(at)), dtype=bool)  # a node holds a gate qubit
        for cp, cq, _ in gates_at[t]:
            held[rows[cp], everyone] = held[rows[cq], everyone] = True
        ok = (full[ends[0]] | full[ends[1]]) & ~(held[ends[0]] | held[ends[1]])
        for cp, cq, _ in gates_at[t]:
            i, j = rows[cp], rows[cq]
            on = np.flatnonzero(adj[i, j])  # every one, for a state valid at t
            ok[eid[i.take(on), j.take(on)], on] = True
        return ok

    def priced(t: int, alive: np.ndarray):
        """The live states ``alive`` at step t: each one's plain gate error
        and crosstalk mask of its gate edges, and per edge the error a
        swap there adds: merged minus plain error on a gate's own edge,
        the swap's error elsewhere. At a step with no gates that is the
        swap's error for every state, and ``add`` is None instead."""
        err = np.zeros(len(alive))
        used = np.zeros(len(alive), dtype=np.int64)  # bit k: crosstalk edge k carries a gate
        if not gates_at[t]:
            return err, used, None
        rows = states[:, alive]
        everyone = np.arange(len(alive))
        add = np.repeat(swap_err[:, None], len(alive), axis=1)
        for cp, cq, gid in gates_at[t]:
            i, j = rows[cp], rows[cq]
            err += plain[gid][i, j]
            used |= bit[i, j]
            add[eid[i, j], everyone] = merged[gid][i, j] - plain[gid][i, j]
        return err, used, add

    def costs(t: int, k: np.ndarray, src: np.ndarray, err, used, add) -> list:
        """One cost row per objective for the live states ``src`` taking
        matchings ``k`` at step t."""
        out = []
        for o in objs:
            if o == "error" and add is None:  # no gates: err is 0.0
                x = swaps_err.take(k)
            elif o == "error":
                x = err.take(src)
                for e, p in zip(edge_ids.T, cuts(k)):
                    x[p:] += add.take(e.take(k[p:]) * len(err) + src[p:])
            elif o == "depth":
                x = (size[k] > 0).astype(float) if t in dummy else np.zeros(len(src))
            else:
                both = used[src] | masks[k]
                x = sum((((both & b1) != 0) & ((both & b2) != 0) for b1, b2 in pairs),
                        np.zeros(len(src)))
            out.append(x)
        return out

    value = [np.full(places, math.inf) for _ in objs]
    if initial_map is None:
        start = np.flatnonzero(valid(0))
    else:
        start = _rank(np.array([initial_map[q] for q in active], dtype=np.int16).reshape(a, 1), n)
        start = start[valid(0, start)]
    for v in value:
        v[start] = 0.0
    scratch = np.full(places, math.inf)  # _fold's, over the targets
    parents = []
    for t in range(m - 1):
        alive = np.flatnonzero(np.isfinite(value[0]))
        if len(alive) == 0:
            break
        base = [v[alive] for v in value]
        ahead = valid(t + 1)
        targets = np.flatnonzero(ahead)
        pull = len(targets) < len(alive)
        if pull:
            row_of = np.full(places, -1, dtype=np.int32)  # placement -> live row
            row_of[alive] = np.arange(len(alive))
        value = [np.full(places, math.inf) for _ in objs]
        parent = np.full(places, -1, dtype=np.int32)
        via = np.zeros(places, dtype=np.int32)
        err, used, add = priced(t, alive)
        side = targets if pull else alive
        ok = allowed(t, side)
        run = max(1, DP_PASS // max(1, len(side)))  # matchings per pass
        for k0 in range(0, len(matchings), run):
            check_time()
            ids = edge_ids[k0:k0 + run]
            keep = np.ones((len(ids), len(side)), dtype=bool)
            for e, p in zip(ids.T, cuts(np.arange(k0, k0 + len(ids)))):
                keep[p:] &= ok[e[p:]]
            k, at = np.divmod(np.flatnonzero(keep), len(side))
            if len(k) == 0:
                continue
            k += k0
            end = side.take(at)  # each candidate's other end
            for e, p in zip(edge_ids.T, cuts(k)):
                end[p:] = flat.take(e.take(k[p:]) * places + end[p:])
            if pull:
                tgt, src = side.take(at), row_of.take(end)
                at = np.flatnonzero(src >= 0)
            else:
                src, tgt = at, end
                at = None if len(targets) == places else np.flatnonzero(ahead.take(tgt))
            if at is not None:  # None: every placement is valid at t + 1
                k, src, tgt = k.take(at), src.take(at), tgt.take(at)
            cand = costs(t, k, src, err, used, add)
            for b, x in zip(base, cand):
                x += b.take(src)
            win = _fold(tgt, k, cand, slack, value if k0 else None, scratch)
            tgt = tgt.take(win)
            for v, x in zip(value, cand):
                v[tgt] = x.take(win)
            parent[tgt] = alive.take(src.take(win))
            via[tgt] = k.take(win)
        parents.append((parent, via))
    alive = np.flatnonzero(np.isfinite(value[0]))
    if len(alive) == 0:
        raise NoRouteError("instance is infeasible")

    # The last step runs its gates with no swap set (matching 0 is the
    # empty one); the best final state has the least error, then within
    # its slack the least depth, and so on.
    err, used, add = priced(m - 1, alive)
    last = costs(m - 1, np.zeros(len(alive), dtype=np.intp), np.arange(len(alive)),
                 err, used, add)
    total = [v[alive] + x for v, x in zip(value, last)]
    pick = np.arange(len(alive))
    for row, s in zip(total, slack):
        pick = pick[row[pick] <= row[pick].min() + s]
    best = int(pick[0])

    # Walk the parents back, then lay the idle qubits on the free nodes
    # of step 0 (or their pinned nodes) and carry them forward.
    state, taken = int(alive[best]), []
    for parent, via in reversed(parents):
        taken.append(int(via[state]))
        state = int(parent[state])
    pos = np.full(n, -1)
    pos[active] = states[:, state]
    idle = [q for q in range(n) if q not in col]
    if initial_map is None:
        pos[idle] = sorted(set(range(n)) - set(pos[active].tolist()))
    else:
        pos[idle] = [initial_map[q] for q in idle]
    layouts = [tuple(pos.tolist())]
    for k in reversed(taken):
        move = np.arange(n)
        for i, j in matchings[k]:
            move[i], move[j] = j, i
        pos = move[pos]
        layouts.append(tuple(pos.tolist()))
    return tuple(float(row[best]) for row in total), schedule(c, fid, layouts, "exhaustive")


# ---------------------------------------------------------------------------
# Model export / import.

def _fmt(x: float) -> str:
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(x)


def _row_name(k: int, family: str) -> str:
    return f"{family}_{k}"


def export_model(p: BipProblem, fmt: str = "lp") -> str:
    """Serialize the program; ``lp`` (CPLEX-style text) or ``mps`` (fixed).

    Output is deterministic and round-trips through import_model: export,
    import and export again yields the identical byte sequence.
    """
    if fmt == "lp":
        return _export_lp(p)
    if fmt == "mps":
        return _export_mps(p)
    raise SolveError(f"unknown model format {fmt!r}")


def _export_lp(p: BipProblem) -> str:
    lines = ["\\ routing model", "Minimize"]
    terms = []
    for v in range(p.num_vars):
        c = float(p.objective[v])
        if c != 0.0:
            terms.append((v, c))
    chunks = ["obj:"]
    for v, c in terms:
        sign = "+" if c >= 0 else "-"
        chunks.append(f"{sign} {_fmt(abs(c))} {p.names[v]}")
    lines.append(" " + " ".join(chunks))
    lines.append("Subject To")
    for k, row in enumerate(p.rows):
        parts = [f"{_row_name(k, row.family)}:"]
        for idx, (v, c) in enumerate(zip(row.vars, row.coefs)):
            sign = "+" if c >= 0 else "-"
            if idx == 0 and c >= 0:
                parts.append(f"{_fmt(abs(c))} {p.names[v]}")
            else:
                parts.append(f"{sign} {_fmt(abs(c))} {p.names[v]}")
        op = {"=": "=", "<=": "<=", ">=": ">="}[row.sense]
        parts.append(f"{op} {_fmt(row.rhs)}")
        lines.append(" " + " ".join(parts))
    lines.append("Binary")
    for name in p.names:
        lines.append(f" {name}")
    lines.append("End")
    return "\n".join(lines) + "\n"


def _export_mps(p: BipProblem) -> str:
    def pad(s: str, width: int) -> str:
        return s + " " * max(1, width - len(s))

    lines = ["NAME          ROUTING"]
    lines.append("ROWS")
    lines.append(" N  obj")
    sense_code = {"=": "E", "<=": "L", ">=": "G"}
    for k, row in enumerate(p.rows):
        lines.append(f" {sense_code[row.sense]}  {_row_name(k, row.family)}")
    lines.append("COLUMNS")
    lines.append("    MARKER                 'MARKER'                 'INTORG'")
    by_var: list[list[tuple[str, float]]] = [[] for _ in range(p.num_vars)]
    for k, row in enumerate(p.rows):
        rname = _row_name(k, row.family)
        for v, c in zip(row.vars, row.coefs):
            by_var[v].append((rname, c))
    for v in range(p.num_vars):
        c = float(p.objective[v])
        if c != 0.0:
            lines.append("    " + pad(p.names[v], 16) + pad("obj", 20) + _fmt(c))
        for rname, coef in by_var[v]:
            lines.append("    " + pad(p.names[v], 16) + pad(rname, 20) + _fmt(coef))
    lines.append("    MARKER                 'MARKER'                 'INTEND'")
    lines.append("RHS")
    for k, row in enumerate(p.rows):
        if row.rhs != 0.0:
            lines.append("    " + pad("RHS", 16) + pad(_row_name(k, row.family), 20)
                         + _fmt(row.rhs))
    lines.append("BOUNDS")
    for name in p.names:
        lines.append(" BV " + pad("BND", 13) + name)
    lines.append("ENDATA")
    return "\n".join(lines) + "\n"


def import_model(text: str) -> BipProblem:
    """Parse a model produced by export_model (format auto-detected)."""
    try:
        return _import_mps(text) if text.lstrip().startswith("NAME") else _import_lp(text)
    except SolveError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise SolveError(f"malformed model document: {exc}") from exc


def _parse_terms(tokens: list[str]) -> list[tuple[str, float]]:
    out = []
    k = 0
    sign = 1.0
    while k < len(tokens):
        tok = tokens[k]
        if tok == "+":
            sign = 1.0
            k += 1
        elif tok == "-":
            sign = -1.0
            k += 1
        else:
            coef = sign * float(tok)
            name = tokens[k + 1]
            out.append((name, coef))
            sign = 1.0
            k += 2
    return out


def _import_lp(text: str) -> BipProblem:
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("\\")]
    if "Minimize" not in lines or "Subject To" not in lines or "Binary" not in lines:
        raise SolveError("LP document lacks required sections")
    i_min = lines.index("Minimize")
    i_st = lines.index("Subject To")
    i_bin = lines.index("Binary")
    i_end = lines.index("End") if "End" in lines else len(lines)

    names = tuple(lines[i_bin + 1:i_end])
    index = {nm: k for k, nm in enumerate(names)}
    if len(index) != len(names):
        raise SolveError("duplicate variable names in Binary section")

    obj = np.zeros(len(names))
    obj_tokens: list[str] = []
    for ln in lines[i_min + 1:i_st]:
        obj_tokens.extend(ln.split())
    if obj_tokens and obj_tokens[0] == "obj:":
        obj_tokens = obj_tokens[1:]
    for name, coef in _parse_terms(obj_tokens):
        if name not in index:
            raise SolveError(f"objective references unknown variable {name!r}")
        obj[index[name]] = coef

    rows = []
    for ln in lines[i_st + 1:i_bin]:
        head, _, rest = ln.partition(":")
        family = head.rsplit("_", 1)[0]
        tokens = rest.split()
        sense = None
        for op in ("<=", ">=", "="):
            if op in tokens:
                sense = op
                break
        if sense is None:
            raise SolveError(f"row {head!r} lacks a comparison operator")
        cut = tokens.index(sense)
        terms = _parse_terms(tokens[:cut])
        rhs = float(tokens[cut + 1])
        try:
            vs = tuple(index[nm] for nm, _ in terms)
        except KeyError as exc:
            raise SolveError(f"row {head!r} references unknown variable {exc}") from exc
        rows.append(Row(vars=vs, coefs=tuple(c for _, c in terms), sense=sense,
                        rhs=rhs, family=family))
    return BipProblem(names=names, rows=tuple(rows), objective=obj,
                      objective_kind="imported")


def _import_mps(text: str) -> BipProblem:
    section = None
    row_sense: dict[str, str] = {}
    row_order: list[str] = []
    col_entries: dict[str, list[tuple[str, float]]] = {}
    col_order: list[str] = []
    rhs: dict[str, float] = {}
    bound_names: list[str] = []
    code_sense = {"E": "=", "L": "<=", "G": ">="}
    for raw in text.splitlines():
        if not raw.strip():
            continue
        head = raw.strip()
        if head in ("ROWS", "COLUMNS", "RHS", "BOUNDS", "RANGES", "ENDATA") or head.startswith("NAME"):
            section = head.split()[0]
            continue
        fields = raw.split()
        if section == "ROWS":
            code, name = fields
            if code == "N":
                continue
            row_sense[name] = code_sense[code]
            row_order.append(name)
        elif section == "COLUMNS":
            if "'MARKER'" in fields:
                continue
            var, rname, val = fields
            if var not in col_entries:
                col_entries[var] = []
                col_order.append(var)
            col_entries[var].append((rname, float(val)))
        elif section == "RHS":
            _, rname, val = fields
            rhs[rname] = float(val)
        elif section == "BOUNDS":
            if fields[0] != "BV":
                raise SolveError("only binary (BV) bounds are supported")
            bound_names.append(fields[2])
    names = tuple(bound_names if bound_names else col_order)
    index = {nm: k for k, nm in enumerate(names)}
    obj = np.zeros(len(names))
    row_terms: dict[str, list[tuple[int, float]]] = {nm: [] for nm in row_order}
    for var in col_order:
        if var not in index:
            raise SolveError(f"column {var!r} lacks a bound entry")
        for rname, val in col_entries[var]:
            if rname == "obj":
                obj[index[var]] = val
            else:
                row_terms[rname].append((index[var], val))
    rows = []
    for rname in row_order:
        family = rname.rsplit("_", 1)[0]
        terms = row_terms[rname]
        rows.append(Row(vars=tuple(v for v, _ in terms),
                        coefs=tuple(c for _, c in terms),
                        sense=row_sense[rname], rhs=rhs.get(rname, 0.0), family=family))
    return BipProblem(names=names, rows=tuple(rows), objective=obj,
                      objective_kind="imported")


def import_solution(p: BipProblem, text: str) -> SolveResult:
    """Read a ``name value`` listing, validate it, and price it.

    Missing variables default to 0; unknown names and constraint
    violations raise. The result reports status ``feasible``.
    """
    index = {nm: k for k, nm in enumerate(p.names)}
    assignment = np.zeros(p.num_vars, dtype=np.int8)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        ln = raw.strip()
        if not ln or ln.startswith("#"):
            continue
        fields = ln.split()
        if len(fields) != 2:
            raise SolveError(f"line {lineno}: expected 'name value'")
        name, sval = fields
        if name not in index:
            raise SolveError(f"line {lineno}: unknown variable {name!r}")
        try:
            val = float(sval)
        except ValueError as exc:
            raise SolveError(f"line {lineno}: value {sval!r} is not a number") from exc
        if abs(val - round(val)) > 1e-6 or round(val) not in (0, 1):
            raise SolveError(f"line {lineno}: value {sval!r} is not binary")
        assignment[index[name]] = int(round(val))
    _require_feasible(p, assignment)
    objective = p.objective_value(assignment)
    return SolveResult(status=SolveStatus.FEASIBLE, objective=objective,
                       assignment=assignment, dual_bound=-math.inf, nodes=0)


def export_solution(p: BipProblem, assignment) -> str:
    """Inverse of import_solution: one ``name value`` line per nonzero."""
    lines = []
    for v in range(p.num_vars):
        val = int(round(float(assignment[v])))
        if val:
            lines.append(f"{p.names[v]} 1")
    return "\n".join(lines) + "\n"
