"""Greedy swap router, layout search, and the five algorithm variants.

The router is a deliberately simple front-layer heuristic in the SABRE
family: execute whatever is adjacent, otherwise take the swap that most
reduces a decay-weighted distance score over the front and a lookahead
window. It exists as a baseline and as the layout/routing half of the
hybrid variants, not as a faithful reimplementation of any production
transpiler. Nothing is kept between calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cache

import numpy as np

from .bipmodel import check_initial_map, check_layer_width, check_padded
from .circuit import LayeredCircuit
from .extract import CircuitStats, FreeSwap, GateOp, RoutedCircuit, stats
from .gatefid import FidelityModel
from .hwgraph import HardwareGraph, norm_edge
from .lexopt import lexicographic_solve
from .solver import DPTooLarge, NoIncumbentError, SolveLimits, solve_exhaustive

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


def _score_weights() -> tuple[int, tuple[int, ...]]:
    """The swap score's weights as exact integers: a front gate's
    distance counts 1 and the k-th lookahead gate's 0.5 * DECAY**k, all
    scaled by their least common denominator (2 * 10**7 for DECAY 0.7).
    Two different exact scores then differ by at least 1 / scale (5e-8),
    far more than the rounding of the same score summed in floats (about
    1e-13), so ties are decided exactly and the choices are those of the
    float score with a 1e-12 tolerance."""
    decay = Fraction(str(DECAY))
    look = [Fraction(1, 2) * decay**k for k in range(WINDOW)]
    scale = math.lcm(*(w.denominator for w in look))
    return scale, tuple(int(w * scale) for w in look)


FRONT_WEIGHT, LOOK_WEIGHTS = _score_weights()


def _graph_tables(g: HardwareGraph) -> tuple:
    """What ``_route`` reads of ``g``: hop distances, and per node its
    neighbours, their bit mask and the edges that meet it."""
    nbrs = [g.neighbors(v) for v in range(g.n)]
    return (g.distances(), nbrs, [sum(1 << k for k in nb) for nb in nbrs],
            [tuple(norm_edge(v, k) for k in nb) for v, nb in enumerate(nbrs)])


def _route(gates, g: HardwareGraph, initial_map,
           tables=None) -> tuple[list, tuple[int, ...]]:
    """Route ``(gid, p, q)`` gates, in program order, from a fixed layout
    by greedy swap insertion.

    Adjacent front gates execute together in one step; otherwise one
    swap per step, the candidate that most lowers the score: front
    distances plus the decay-weighted distances of a lookahead window.
    Scores are exact integers (``FRONT_WEIGHT``, ``LOOK_WEIGHTS``) and a
    swap is scored by the change it makes to the terms of the gates on
    its two qubits; the first candidate in edge order wins a tie. When
    the score stalls for too long, the lowest-numbered front gate is
    walked home along a shortest path, which bounds the schedule length.
    Returns the plan, one ``(edge, ())`` entry per swap and one ``(None,
    ((gid, p, q, i, j), ...))`` entry per step of gates on arcs ``(i,
    j)``, and the final map. ``tables`` is ``_graph_tables(g)``, for
    callers that route many times on one graph.
    """
    n = g.n
    dist, nbrs, adj, incident = tables or _graph_tables(g)
    every = (1 << n) - 1
    remaining = [(gid, p, q, 1 << p | 1 << q) for gid, p, q in gates]
    pos = list(initial_map)
    occ = [0] * n
    for qubit, node in enumerate(pos):
        occ[node] = qubit
    plan: list[tuple] = []
    stall = 0
    fr = None  # the front, rebuilt after each gate step
    while remaining:
        if fr is None:
            # A gate is in the front when no earlier remaining gate shares
            # a qubit with it; the next WINDOW others form the lookahead.
            # terms[q] lists (weight, other qubit) of each scored gate on
            # q, and mate[q] is q's partner in the front, or -1. Both hold
            # until a gate runs, whatever swaps come first.
            fr, terms, mate, busy, k = [], [[] for _ in range(n)], [-1] * n, 0, 0
            for gt in remaining:
                _, p, q, mask = gt
                if not busy & mask:
                    fr.append(gt)
                    mate[p], mate[q] = q, p
                    w = FRONT_WEIGHT
                elif k < WINDOW:
                    w = LOOK_WEIGHTS[k]
                    k += 1
                elif busy == every:
                    break  # a full window, and no later gate can be in front
                else:
                    busy |= mask
                    continue
                terms[p].append((w, q))
                terms[q].append((w, p))
                busy |= mask
        ready = [(gid, p, q, pos[p], pos[q]) for gid, p, q, _ in fr if adj[pos[p]] >> pos[q] & 1]
        if ready:
            plan.append((None, tuple(ready)))
            executed = {gt[0] for gt in ready}
            remaining = [gt for gt in remaining if gt[0] not in executed]
            stall, fr = 0, None
            continue

        if stall >= 2 * n:
            # Forced progress: walk the oldest front gate together.
            _, p, q, _ = min(fr, key=lambda gt: gt[0])
            i, j = pos[p], pos[q]
            nxt = min(k for k in nbrs[i] if dist[k][j] < dist[i][j])
            i, j = norm_edge(i, nxt)
        else:
            cand = set()
            for _, p, q, _ in fr:
                cand.update(incident[pos[p]], incident[pos[q]])
            best_delta = None
            for (a, b) in sorted(cand):
                # Moving qa from a to b and qb from b to a changes only
                # the terms of gates on qa or qb (a gate on both keeps
                # its distance).
                qa, qb = occ[a], occ[b]
                da, db = dist[a], dist[b]
                delta = 0
                for w, o in terms[qa]:
                    if o != qb:
                        delta += w * (db[pos[o]] - da[pos[o]])
                for w, o in terms[qb]:
                    if o != qa:
                        delta += w * (da[pos[o]] - db[pos[o]])
                if best_delta is None or delta < best_delta:
                    i, j, best_delta = a, b, delta
        # The swap stalls unless it shortens the front. Its two qubits are
        # never one front gate's: that gate would have been ready.
        qa, qb = occ[i], occ[j]
        gain = 0
        if mate[qa] >= 0:
            gain += dist[i][pos[mate[qa]]] - dist[j][pos[mate[qa]]]
        if mate[qb] >= 0:
            gain += dist[j][pos[mate[qb]]] - dist[i][pos[mate[qb]]]
        pos[qa], pos[qb] = j, i
        occ[i], occ[j] = qb, qa
        plan.append(((i, j), ()))
        stall = 0 if gain > 0 else stall + 1
    return plan, tuple(pos)


def heuristic_route(c: LayeredCircuit, g: HardwareGraph, initial_map,
                    fid: FidelityModel) -> RoutedCircuit:
    """Route ``c`` from a fixed layout by greedy swap insertion (see
    ``_route``), each gate compiled with its cheapest plain CNOT count.
    It spreads a layer over steps, so it admits by the pad and map rules
    only (``bipmodel.ModelError``) and sizes no matching."""
    initial_map = tuple(initial_map)
    check_initial_map(initial_map, g.n)
    check_padded(c, g)
    plan, final_map = _route([(gt.gid, gt.p, gt.q) for gt in c.gates()], g, initial_map)
    steps = tuple(
        (FreeSwap(edge=edge),) if edge is not None else
        tuple(GateOp(gid=gid, p=p, q=q, arc=(i, j), merged_swap=False,
                     cnots_used=fid.cnots(gid, i, j)) for gid, p, q, i, j in ops)
        for edge, ops in plan)
    return RoutedCircuit(n_nodes=g.n, initial_map=initial_map, final_map=final_map,
                         steps=steps, origin="sabre_like", time_aligned=False)


def _repair_first_layer(c: LayeredCircuit, g: HardwareGraph, layout) -> tuple[int, ...]:
    """Reshape a layout so the first gate layer sits on disjoint edges.

    Needed when the layout seeds a model whose first step is fixed: the
    time-aligned formulation runs all first-layer gates simultaneously
    with no room to move beforehand. A depth-first search gives the
    gates, in layer order, node-disjoint arcs, cheapest arc first. It
    keeps the placement that displaces qubits the least (ties go to the
    smallest ``(gid, i, j)`` sequence) and prunes, exactly, a prefix that
    cannot beat it even if every later gate got its cheapest arc, or whose
    free nodes hold no maximum matching (the graph's ``matching_size``) as
    large as the gates still to place (none after the last). After
    ``REPAIR_NODES`` placed arcs it keeps the best placement so far, or
    raises ``HeuristicError``: ``heuristic_layout`` admitted the layer's
    width, so the exact prune alone never leaves it without one. The
    remaining qubits are then refilled near their old nodes.
    """
    first = c.groups[0] if c.groups else ()
    pos = list(layout)
    if all(g.has_edge(pos[gt.p], pos[gt.q]) for gt in first):
        return tuple(pos)
    dist = g.distances()
    arcs = g.arcs()
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
            left = len(first) - k - 1  # gates still to place
            if left and g.matching_size(every ^ taken) < left:
                continue
            visits += 1
            if visits > REPAIR_NODES:
                return
            search(k + 1, cost + arc_cost, key[1], taken)

    search(0, 0, (), 0)
    if best is None:
        raise HeuristicError(f"first-layer repair gave up after {REPAIR_NODES} "
                             "search nodes without a placement")
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


def heuristic_layout(c: LayeredCircuit, g: HardwareGraph, seed: int = 0) -> tuple[int, ...]:
    """Pick an initial layout by routing restarts.

    Each trial routes the circuit from a random layout and adopts the
    final map as the refined candidate (the classic reverse-traversal
    trick collapsed to one forward reuse); candidates are scored by
    their routed swap count, so no trial prices a gate. The winner is
    reshaped so the first gate layer is simultaneously executable.
    Trials often meet a layout or a final map again; within one call
    each distinct layout is routed once and each distinct final map
    repaired once. It admits by the pad and, given a gate, the
    layer-width rules (``bipmodel.ModelError``).
    """
    check_padded(c, g)
    if not any(c.groups):
        return tuple(range(g.n))
    check_layer_width(c, g)
    rng = np.random.default_rng(seed)
    gates = [(gt.gid, gt.p, gt.q) for gt in c.gates()]
    tables = _graph_tables(g)
    routed: dict[tuple, tuple[int, tuple[int, ...]]] = {}  # layout -> (swaps, final map)
    repaired: dict[tuple, tuple[int, ...]] = {}  # final map -> refined layout

    def route(layout):
        if layout not in routed:
            plan, final_map = _route(gates, g, layout, tables)
            routed[layout] = (sum(1 for edge, _ in plan if edge is not None), final_map)
        return routed[layout]

    best_map, best_key = None, None
    for trial in range(TRIALS):
        start = tuple(int(v) for v in rng.permutation(g.n))
        final_map = route(start)[1]
        if final_map not in repaired:
            repaired[final_map] = _repair_first_layer(c, g, final_map)
        refined = repaired[final_map]
        key = (route(refined)[0], trial)
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
    differ only in the objective order (``bip_layout`` optimizes error
    alone), the initial layout (``bip_routing`` pins its greedy one) and
    whether the final layout must equal the initial one
    (``bip_constrained``); whichever engine runs gets the same
    ``initial_map``. The layout DP proves the others; the instances it
    refuses as too large, and ``bip_constrained``, are one lexicographic
    solve each, under ``lim``. Where ``lim`` leaves a free variant with
    no proof, it returns the greedy route (from its pinned layout, if
    any), unproven, in place of no route (``NoIncumbentError``, from
    either engine) or of a route with more error (``bip_layout``'s after
    its reroute); a greedy search that fails keeps the engine's route.
    That same route's error is the layout DP's ``incumbent``, so one
    call searches the greedy layout and routes from it at most once, and
    only when the DP asks for the bound or the fallback needs it. Raises
    ``NoRouteError`` for no route, and ``bipmodel.ModelError`` from the
    first entry the variant runs: ``heuristic_layout`` for
    ``sabre_like`` and ``bip_routing``, the engine for the others.
    """
    if variant == "sabre_like":
        layout = heuristic_layout(c, g, seed)
        rc = heuristic_route(c, g, layout, fid)
        return VariantRun(routed=rc, stats=stats(rc, fid, g), closed=True)
    if variant not in VARIANTS:
        raise HeuristicError(f"unknown variant {variant!r}")
    order = ("error",) if variant == "bip_layout" else ("error", "depth")
    layout = heuristic_layout(c, g, seed) if variant == "bip_routing" else None

    @cache
    def greedy() -> RoutedCircuit:
        return heuristic_route(c, g, layout or heuristic_layout(c, g, seed), fid)

    def greedy_error() -> float:
        try:
            return stats(greedy(), fid, g).error_objective_value
        except HeuristicError:
            return math.inf  # no greedy route, so no bound

    if variant == "bip_constrained":
        lex = lexicographic_solve(c, g, fid, order, lim, same_endpoints=True)
        rc, closed = lex.routed, lex.closed
    else:
        try:
            try:
                _, rc = solve_exhaustive(c, g, fid, order, initial_map=layout, lim=lim,
                                         incumbent=greedy_error)
                closed = True
            except DPTooLarge:
                lex = lexicographic_solve(c, g, fid, order, lim, initial_map=layout)
                rc, closed = lex.routed, lex.closed
            if variant == "bip_layout":  # the model's layout, routed greedily
                rc = heuristic_route(c, g, rc.initial_map, fid)
        except NoIncumbentError:
            rc, closed = None, False
        if not closed and (rc is None or greedy_error() < stats(rc, fid, g).error_objective_value):
            rc = greedy()
    rc = replace(rc, origin=variant)
    return VariantRun(routed=rc, stats=stats(rc, fid, g), closed=closed)
