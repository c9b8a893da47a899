"""Greedy swap router, layout search, and the five algorithm variants.

The router is a deliberately simple front-layer heuristic in the SABRE
family: execute whatever is adjacent, otherwise take the swap that most
reduces a decay-weighted distance score over the front and a lookahead
window. It exists as a baseline and as the layout/routing half of the
hybrid variants, not as a faithful reimplementation of any production
transpiler.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .bipmodel import Row
from .circuit import LayeredCircuit
from .extract import CircuitStats, FreeSwap, GateOp, RoutedCircuit, decode, stats
from .gatefid import FidelityModel
from .hwgraph import HardwareGraph, matching_size, norm_edge
from .lexopt import LexError, lexicographic_solve
from .solver import SolveError, SolveLimits, exhaustive_fits, solve_exhaustive

VARIANTS = ("bip", "sabre_like", "bip_layout", "bip_routing", "bip_constrained")


class HeuristicError(ValueError):
    """Raised for unknown variants or unroutable inputs."""


# Lookahead gates scored beyond the front, the weight decay per
# lookahead gate, and the random restarts of the layout search.
WINDOW = 8
DECAY = 0.7
TRIALS = 8
# Arcs the first-layer repair search places before it settles.
REPAIR_NODES = 100000


def _gate_sequence(c: LayeredCircuit) -> list:
    return [gt for grp in c.groups for gt in grp]


def heuristic_route(c: LayeredCircuit, g: HardwareGraph, initial_map,
                    fid: FidelityModel) -> RoutedCircuit:
    """Route ``c`` from a fixed layout by greedy swap insertion.

    Adjacent front gates execute together in one step; otherwise one
    swap per step. When the greedy score stalls for too long, the
    lowest-numbered front gate is walked home along a shortest path,
    which bounds the schedule length.
    """
    if c.n_qubits != g.n:
        raise HeuristicError("circuit and hardware sizes differ; pad the circuit first")
    n = g.n
    initial_map = tuple(initial_map)
    if sorted(initial_map) != list(range(n)):
        raise HeuristicError("initial_map is not a qubit-to-node bijection")
    dist = g.distances()
    remaining = _gate_sequence(c)
    pos = list(initial_map)
    steps: list[tuple] = []
    stall = 0
    stall_limit = 2 * n
    while remaining:
        # A gate is in the front when no earlier remaining gate shares a
        # qubit with it; the rest keep program order for the lookahead.
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
                                  cnots_used=fid.cost(gt.gid, i, j).n_plain))
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
            # Forced progress: walk the oldest front gate together.
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


def _swap_count(rc: RoutedCircuit) -> int:
    return sum(1 for ops in rc.steps for op in ops if isinstance(op, FreeSwap))


def _repair_first_layer(c: LayeredCircuit, g: HardwareGraph, layout,
                        fits) -> tuple[int, ...]:
    """Reshape a layout so the first gate layer sits on disjoint edges.

    Needed when the layout seeds a model whose first step is fixed: the
    time-aligned formulation runs all first-layer gates simultaneously
    with no room to move beforehand. A depth-first search gives the
    gates, in layer order, node-disjoint arcs, cheapest arc first. It
    keeps the placement that displaces qubits the least (ties go to the
    smallest ``(gid, i, j)`` sequence) and prunes a prefix that cannot
    beat it even if every later gate got its cheapest arc, or whose free
    nodes hold no matching as large as the gates still to place (``fits``
    is ``matching_size(g)``, shared by the calls on one graph). After
    ``REPAIR_NODES`` placed arcs it keeps the best placement so far.
    The remaining qubits are then refilled near their old nodes.
    """
    first = c.groups[0] if c.groups else ()
    pos = list(layout)
    if all(g.has_edge(pos[gt.p], pos[gt.q]) for gt in first):
        return tuple(pos)
    dist = g.distances()
    arcs = [*g.edges, *((j, i) for i, j in g.edges)]
    options = [sorted((dist[pos[gt.p]][i] + dist[pos[gt.q]][j], i, j) for i, j in arcs)
               for gt in first]
    floor = [0] * (len(first) + 1)
    for k in reversed(range(len(first))):
        floor[k] = floor[k + 1] + options[k][0][0]
    every = (1 << g.n) - 1
    best, visits = None, 0

    def search(k: int, cost: int, prefix: tuple, used: int) -> None:
        nonlocal best, visits
        if k == len(first):
            best = (cost, prefix)
            return
        for arc_cost, i, j in options[k]:
            if (used >> i | used >> j) & 1:
                continue
            key = (cost + arc_cost + floor[k + 1], prefix + ((first[k].gid, i, j),))
            if best is not None and key > best:
                break  # keys rise along the sorted arcs
            taken = used | 1 << i | 1 << j
            if fits(every ^ taken) < len(first) - k - 1:
                continue
            visits += 1
            if visits > REPAIR_NODES:
                return
            search(k + 1, cost + arc_cost, key[1], taken)

    search(0, 0, (), 0)
    if best is None:
        if visits > REPAIR_NODES:
            raise HeuristicError(f"first-layer repair gave up after {REPAIR_NODES} "
                                 "search nodes without a placement")
        raise HeuristicError("first layer does not fit on the hardware")
    newpos = [-1] * g.n
    taken = set()
    for gt, (_, i, j) in zip(first, best[1]):
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


def heuristic_layout(c: LayeredCircuit, g: HardwareGraph, fid: FidelityModel,
                     seed: int = 0) -> tuple[int, ...]:
    """Pick an initial layout by routing restarts.

    Each trial routes the circuit from a random layout and adopts the
    final map as the refined candidate (the classic reverse-traversal
    trick collapsed to one forward reuse); candidates are scored by
    their routed swap count. The winner is reshaped so the first gate
    layer is simultaneously executable.
    """
    if c.n_qubits != g.n:
        raise HeuristicError("circuit and hardware sizes differ; pad the circuit first")
    if not any(c.groups):
        return tuple(range(g.n))
    rng = np.random.default_rng(seed)
    fits = matching_size(g)
    best_map, best_key = None, None
    for trial in range(TRIALS):
        start = tuple(int(v) for v in rng.permutation(g.n))
        refined = heuristic_route(c, g, start, fid).final_map
        refined = _repair_first_layer(c, g, refined, fits)
        swaps = _swap_count(heuristic_route(c, g, refined, fid))
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
                     seed: int = 0) -> VariantRun:
    """Run one of the five algorithm variants on a prepared circuit.

    ``c`` must already be padded to the hardware size, with any dummy
    steps inserted; the heuristic legs simply ignore empty layers.
    ``seed`` seeds the greedy layout search. The four model variants
    differ only in the objective order and the extra rows. ``bip``,
    ``bip_layout`` and ``bip_routing`` (its greedy layout is the DP's
    one start state) go to the layout DP whenever ``exhaustive_fits``
    admits the instance, and its route is a proof. ``bip_constrained``
    and every instance past the guard are one lexicographic solve each,
    under ``lim``.
    """
    if variant == "sabre_like":
        layout = heuristic_layout(c, g, fid, seed)
        rc = heuristic_route(c, g, layout, fid)
        return VariantRun(routed=rc, stats=stats(rc, fid, g), closed=True)
    order, layout, row_hook = ("error", "depth"), None, None
    if variant == "bip_layout":
        order = ("error",)
    elif variant == "bip_routing":
        layout = heuristic_layout(c, g, fid, seed)

        def row_hook(vs):
            return [Row(vars=(vs.w(q, layout[q], 0),), coefs=(1.0,), sense="=",
                        rhs=1.0, family="PIN_INIT") for q in range(g.n)]
    elif variant == "bip_constrained":

        def row_hook(vs):
            last = vs.m - 1
            return [Row(vars=(vs.w(q, i, 0), vs.w(q, i, last)), coefs=(1.0, -1.0),
                        sense="=", rhs=0.0, family="SAME_ENDPOINTS")
                    for q in range(g.n) for i in range(g.n)]
    elif variant != "bip":
        raise HeuristicError(f"unknown variant {variant!r}")
    if variant != "bip_constrained" and exhaustive_fits(c, g):
        # The layout DP proves its optimum within its guard; the limits
        # bound only the branch and bound.
        try:
            _, rc = solve_exhaustive(c, g, fid, order, initial_map=layout)
        except SolveError as exc:  # within the guard: no routing exists
            raise LexError(str(exc)) from exc
        closed = True
    else:
        lex = lexicographic_solve(c, g, fid, order, lim, row_hook=row_hook)
        rc = decode(lex.vs, lex.result.assignment, c, g, fid)
        closed = lex.closed
    if variant == "bip_layout":
        rc = heuristic_route(c, g, rc.initial_map, fid)
    rc = replace(rc, origin=variant)
    return VariantRun(routed=rc, stats=stats(rc, fid, g), closed=closed)
