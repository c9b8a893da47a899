"""Greedy swap router, layout search, and the five algorithm variants.

The router is a deliberately simple front-layer heuristic in the SABRE
family: execute whatever is adjacent, otherwise take the swap that most
reduces a decay-weighted distance score over the front and a lookahead
window. It exists as a baseline and as the layout/routing half of the
hybrid variants, not as a faithful reimplementation of any production
transpiler.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from .bipmodel import Row, assemble_problem
from .circuit import LayeredCircuit
from .extract import CircuitStats, FreeSwap, GateOp, RoutedCircuit, decode, stats
from .gatefid import FidelityModel
from .hwgraph import HardwareGraph, enumerate_matchings
from .lexopt import lexicographic_solve
from .solver import SolveLimits, SolveStatus, solve_branch_and_bound

VARIANTS = ("bip", "sabre_like", "bip_layout", "bip_routing", "bip_constrained")


class HeuristicError(ValueError):
    """Raised for invalid configuration or unroutable inputs."""


@dataclass(frozen=True)
class HeuristicConfig:
    window: int = 8
    decay: float = 0.7
    trials: int = 8
    seed: int = 0

    def __post_init__(self) -> None:
        if self.window < 0:
            raise HeuristicError("lookahead window must be nonnegative")
        if not 0.0 < self.decay <= 1.0:
            raise HeuristicError("decay must lie in (0, 1]")
        if self.trials < 1:
            raise HeuristicError("need at least one trial")


def _gate_sequence(c: LayeredCircuit) -> list:
    return [gt for grp in c.groups for gt in grp]


def heuristic_route(c: LayeredCircuit, g: HardwareGraph, initial_map,
                    cfg: HeuristicConfig | None = None,
                    fid: FidelityModel | None = None) -> RoutedCircuit:
    """Route ``c`` from a fixed layout by greedy swap insertion.

    Adjacent front gates execute together in one step; otherwise one
    swap per step. When the greedy score stalls for too long, the
    lowest-numbered front gate is walked home along a shortest path,
    which bounds the schedule length.
    """
    cfg = cfg or HeuristicConfig()
    if c.n_qubits != g.n:
        raise HeuristicError("circuit and hardware sizes differ; pad the circuit first")
    n = g.n
    initial_map = tuple(initial_map)
    if sorted(initial_map) != list(range(n)):
        raise HeuristicError("initial_map is not a qubit-to-node bijection")
    dist = g.distances()
    order = _gate_sequence(c)
    pending: list[list] = [[] for _ in range(n)]
    for gt in order:
        pending[gt.p].append(gt.gid)
        pending[gt.q].append(gt.gid)
    by_gid = {gt.gid: gt for gt in order}
    cursor = [0] * n

    def front() -> list:
        out = []
        for gt in order:
            if gt.gid in done:
                continue
            if (pending[gt.p][cursor[gt.p]] == gt.gid
                    and pending[gt.q][cursor[gt.q]] == gt.gid):
                out.append(gt)
        return out

    def lookahead(front_gids: set) -> list:
        out = []
        for gt in order:
            if gt.gid in done or gt.gid in front_gids:
                continue
            out.append(gt)
            if len(out) >= cfg.window:
                break
        return out

    pos = list(initial_map)
    done: set[int] = set()
    steps: list[tuple] = []
    stall = 0
    stall_limit = 2 * n
    total = len(order)
    while len(done) < total:
        fr = front()
        ready = [gt for gt in fr if g.has_edge(pos[gt.p], pos[gt.q])]
        if ready:
            ops = []
            for gt in ready:
                i, j = pos[gt.p], pos[gt.q]
                cnots = fid.cost(gt.gid, i, j).n_plain if fid is not None else 3
                ops.append(GateOp(gid=gt.gid, p=gt.p, q=gt.q, arc=(i, j),
                                  merged_swap=False, cnots_used=cnots))
                done.add(gt.gid)
                cursor[gt.p] += 1
                cursor[gt.q] += 1
            steps.append(tuple(ops))
            stall = 0
            continue

        occ = [-1] * n
        for q in range(n):
            occ[pos[q]] = q

        def score(layout) -> float:
            s = 0.0
            for gt in fr:
                s += dist[layout[gt.p]][layout[gt.q]]
            weight = 0.5
            for gt in lookahead({x.gid for x in fr}):
                s += weight * dist[layout[gt.p]][layout[gt.q]]
                weight *= cfg.decay
            return s

        base_front = sum(dist[pos[gt.p]][pos[gt.q]] for gt in fr)
        if stall >= stall_limit:
            # Forced progress: walk the oldest front gate together.
            gt = min(fr, key=lambda x: x.gid)
            i, j = pos[gt.p], pos[gt.q]
            nxt = min((k for k in g.neighbors(i) if dist[k][j] < dist[i][j]))
            edge = (i, nxt) if i < nxt else (nxt, i)
            best_edge = edge
        else:
            cand = set()
            for gt in fr:
                for node in (pos[gt.p], pos[gt.q]):
                    for nb in g.neighbors(node):
                        cand.add((node, nb) if node < nb else (nb, node))
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


def _swap_count(rc: RoutedCircuit) -> int:
    return sum(1 for ops in rc.steps for op in ops if isinstance(op, FreeSwap))


def _repair_first_layer(c: LayeredCircuit, g: HardwareGraph, layout) -> tuple[int, ...]:
    """Reshape a layout so the first gate layer sits on disjoint edges.

    Needed when the layout seeds a model whose first step is fixed: the
    time-aligned formulation runs all first-layer gates simultaneously
    with no room to move beforehand. Picks the matching embedding that
    displaces qubits the least, then refills the remaining qubits near
    their old nodes.
    """
    first = c.groups[0] if c.groups else ()
    pos = list(layout)
    if all(g.has_edge(pos[gt.p], pos[gt.q]) for gt in first):
        return tuple(pos)
    dist = g.distances()
    k = len(first)
    best = None
    for m in enumerate_matchings(g):
        if len(m) != k:
            continue
        for perm in itertools.permutations(m):
            for flips in itertools.product((False, True), repeat=k):
                cost = 0
                assign = []
                for gt, edge, flip in zip(first, perm, flips):
                    i, j = (edge[1], edge[0]) if flip else edge
                    cost += dist[pos[gt.p]][i] + dist[pos[gt.q]][j]
                    assign.append((gt, i, j))
                key = (cost, tuple((gt.gid, i, j) for gt, i, j in assign))
                if best is None or key < best[0]:
                    best = (key, assign)
    if best is None:
        raise HeuristicError("first layer does not fit on the hardware")
    newpos = [-1] * g.n
    taken = set()
    for gt, i, j in best[1]:
        newpos[gt.p], newpos[gt.q] = i, j
        taken.update((i, j))
    rest = [q for q in range(g.n) if newpos[q] < 0]
    for q in rest:
        if pos[q] not in taken:
            newpos[q] = pos[q]
            taken.add(pos[q])
    free_nodes = [v for v in range(g.n) if v not in taken]
    for q in rest:
        if newpos[q] < 0:
            node = min(free_nodes, key=lambda v: (dist[pos[q]][v], v))
            free_nodes.remove(node)
            newpos[q] = node
    return tuple(newpos)


def heuristic_layout(c: LayeredCircuit, g: HardwareGraph,
                     cfg: HeuristicConfig | None = None) -> tuple[int, ...]:
    """Pick an initial layout by routing restarts.

    Each trial routes the circuit from a random layout and adopts the
    final map as the refined candidate (the classic reverse-traversal
    trick collapsed to one forward reuse); candidates are scored by
    their routed swap count. The winner is reshaped so the first gate
    layer is simultaneously executable.
    """
    cfg = cfg or HeuristicConfig()
    if c.n_qubits != g.n:
        raise HeuristicError("circuit and hardware sizes differ; pad the circuit first")
    if not any(c.groups):
        return tuple(range(g.n))
    rng = np.random.default_rng(cfg.seed)
    best_map, best_key = None, None
    for trial in range(cfg.trials):
        start = tuple(int(v) for v in rng.permutation(g.n))
        refined = heuristic_route(c, g, start, cfg).final_map
        refined = _repair_first_layer(c, g, refined)
        swaps = _swap_count(heuristic_route(c, g, refined, cfg))
        key = (swaps, trial)
        if best_key is None or key < best_key:
            best_map, best_key = refined, key
    return best_map


@dataclass(frozen=True)
class VariantRun:
    routed: RoutedCircuit
    stats: CircuitStats
    # False when a solver stage returned an incumbent without proving it.
    closed: bool


def run_variant_full(variant: str, c: LayeredCircuit, g: HardwareGraph,
                     fid: FidelityModel, lim: SolveLimits | None = None,
                     cfg: HeuristicConfig | None = None) -> VariantRun:
    """Run one of the five algorithm variants on a prepared circuit.

    ``c`` must already be padded to the hardware size, with any dummy
    steps inserted; the heuristic legs simply ignore empty layers.
    """
    cfg = cfg or HeuristicConfig()
    lim = lim or SolveLimits()
    closed = True
    if variant == "bip":
        lex = lexicographic_solve(c, g, fid, ("error", "depth"), lim)
        rc = decode(lex.vs, lex.result.assignment, c, g, fid)
        closed = lex.closed
    elif variant == "sabre_like":
        layout = heuristic_layout(c, g, cfg)
        rc = heuristic_route(c, g, layout, cfg, fid)
    elif variant == "bip_layout":
        vs, p = assemble_problem(c, g, fid, objective="error")
        res = solve_branch_and_bound(p, lim)
        if res.assignment is None:
            raise HeuristicError("layout stage did not produce a solution")
        closed = res.status is SolveStatus.OPTIMAL
        layout = decode(vs, res.assignment, c, g, fid).initial_map
        rc = heuristic_route(c, g, layout, cfg, fid)
        rc = replace(rc, origin="bip_layout")
    elif variant == "bip_routing":
        layout = heuristic_layout(c, g, cfg)

        def pin_rows(vs):
            return [Row(vars=(vs.w(q, layout[q], 0),), coefs=(1.0,), sense="=",
                        rhs=1.0, family="PIN_INIT") for q in range(g.n)]

        lex = lexicographic_solve(c, g, fid, ("error", "depth"), lim,
                                  row_hook=pin_rows)
        rc = decode(lex.vs, lex.result.assignment, c, g, fid)
        rc = replace(rc, origin="bip_routing")
        closed = lex.closed
    elif variant == "bip_constrained":

        def same_rows(vs):
            last = vs.m - 1
            return [Row(vars=(vs.w(q, i, 0), vs.w(q, i, last)), coefs=(1.0, -1.0),
                        sense="=", rhs=0.0, family="SAME_ENDPOINTS")
                    for q in range(g.n) for i in range(g.n)]

        lex = lexicographic_solve(c, g, fid, ("error", "depth"), lim,
                                  row_hook=same_rows)
        rc = decode(lex.vs, lex.result.assignment, c, g, fid)
        rc = replace(rc, origin="bip_constrained")
        closed = lex.closed
    else:
        raise HeuristicError(f"unknown variant {variant!r}")
    return VariantRun(routed=rc, stats=stats(rc, fid, g), closed=closed)
