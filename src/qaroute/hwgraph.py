"""Hardware connectivity graphs.

A hardware graph is a small undirected coupling map: nodes are physical
qubit sites, edges are the pairs that support a native two-qubit gate.
Each edge carries a CNOT success probability (``beta``) and the graph may
list pairs of edges that interfere when driven simultaneously (crosstalk).

Node ids are normalized to ``0..n-1`` internally; the original labels of
a loaded or builtin topology are kept in ``labels`` for reporting.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

DEFAULT_BETA = 0.9936

Edge = tuple[int, int]


class TopologyError(ValueError):
    """Raised for malformed or unsupported hardware graphs."""


def norm_edge(i: int, j: int) -> Edge:
    """The key of the undirected edge between nodes ``i`` and ``j``."""
    return (i, j) if i < j else (j, i)


@dataclass
class HardwareGraph:
    """Undirected coupling graph with per-edge CNOT fidelities.

    Treated as immutable after construction.
    """

    n: int
    edges: tuple[Edge, ...]
    beta: dict[Edge, float] = field(default_factory=dict)
    crosstalk_pairs: tuple[tuple[Edge, Edge], ...] = ()
    labels: tuple[object, ...] = ()

    def __post_init__(self) -> None:
        if self.n < 1:
            raise TopologyError("graph needs at least one node")
        seen: set[Edge] = set()
        norm = []
        for i, j in self.edges:
            if i == j:
                raise TopologyError(f"self-loop on node {i}")
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise TopologyError(f"edge ({i},{j}) outside node range")
            e = norm_edge(i, j)
            if e in seen:
                raise TopologyError(f"duplicate edge {e}")
            seen.add(e)
            norm.append(e)
        self.edges = tuple(sorted(norm))
        full_beta = {}
        for e in self.edges:
            b = self.beta.get(e, DEFAULT_BETA)
            if not 0.0 < b <= 1.0:
                raise TopologyError(f"beta for edge {e} must lie in (0, 1]")
            full_beta[e] = float(b)
        unknown = set(self.beta) - set(full_beta)
        if unknown:
            raise TopologyError(f"beta given for unknown edges {sorted(unknown)}")
        self.beta = full_beta
        pairs = []
        for e1, e2 in self.crosstalk_pairs:
            e1, e2 = norm_edge(*e1), norm_edge(*e2)
            if e1 not in seen or e2 not in seen:
                raise TopologyError(f"crosstalk pair ({e1},{e2}) references unknown edge")
            if e1 == e2:
                raise TopologyError(f"crosstalk pair repeats edge {e1}")
            pairs.append((e1, e2) if e1 < e2 else (e2, e1))
        self.crosstalk_pairs = tuple(sorted(set(pairs)))
        # Every edge some crosstalk pair names, sorted.
        self.crosstalk_edges = tuple(sorted({e for pair in self.crosstalk_pairs for e in pair}))
        if not self.labels:
            self.labels = tuple(range(self.n))
        elif len(self.labels) != self.n:
            raise TopologyError("labels must cover every node")
        # Sorted adjacency, frozen once; routing and model builders index it heavily.
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for i, j in self.edges:
            adj[i].append(j)
            adj[j].append(i)
        self._adj = tuple(tuple(sorted(a)) for a in adj)
        if self.n > 1 and not self._connected():
            raise TopologyError("graph is not connected")

    def _connected(self) -> bool:
        seen = {0}
        stack = [0]
        while stack:
            for k in self._adj[stack.pop()]:
                if k not in seen:
                    seen.add(k)
                    stack.append(k)
        return len(seen) == self.n

    def neighbors(self, i: int) -> tuple[int, ...]:
        return self._adj[i]

    def arcs(self) -> list[tuple[int, int]]:
        """Both orientations of every edge, lexicographically sorted."""
        out = []
        for i, j in self.edges:
            out.append((i, j))
            out.append((j, i))
        return sorted(out)

    def beta_of(self, i: int, j: int) -> float:
        return self.beta[norm_edge(i, j)]

    def has_edge(self, i: int, j: int) -> bool:
        return i != j and j in self._adj[i]

    def distances(self) -> list[list[int]]:
        """All-pairs hop distances by BFS."""
        dist = [[-1] * self.n for _ in range(self.n)]
        for s in range(self.n):
            dist[s][s] = 0
            queue = [s]
            while queue:
                nxt = []
                for i in queue:
                    for k in self._adj[i]:
                        if dist[s][k] < 0:
                            dist[s][k] = dist[s][i] + 1
                            nxt.append(k)
                queue = nxt
        return dist


def load_topology(source: str | dict) -> HardwareGraph:
    """Build a graph from a JSON document (text or parsed dict).

    Expected keys: ``nodes`` (list of labels), ``edges`` (label pairs),
    optional ``default_beta``, ``beta`` (list of ``[i, j, value]``) and
    ``crosstalk_pairs`` (list of edge pairs).
    """
    if isinstance(source, dict):
        doc = source
    else:
        try:
            doc = json.loads(source)
        except json.JSONDecodeError as exc:
            raise TopologyError(f"topology document is not valid JSON: {exc}") from exc
    try:
        return _graph_from_doc(doc)
    except TopologyError:
        raise
    except (TypeError, ValueError) as exc:
        raise TopologyError(f"malformed topology document: {exc}") from exc


def _graph_from_doc(doc) -> HardwareGraph:
    if "nodes" not in doc or "edges" not in doc:
        raise TopologyError("topology document needs 'nodes' and 'edges'")
    labels = list(doc["nodes"])
    if len(set(labels)) != len(labels):
        raise TopologyError("duplicate node labels")
    index = {lab: k for k, lab in enumerate(labels)}

    def to_edge(pair) -> Edge:
        a, b = pair
        if a not in index or b not in index:
            raise TopologyError(f"edge ({a},{b}) references unknown node label")
        return norm_edge(index[a], index[b])

    edges = [to_edge(e) for e in doc["edges"]]
    default = float(doc.get("default_beta", DEFAULT_BETA))
    beta = {e: default for e in edges}
    for entry in doc.get("beta", []):
        a, b, val = entry
        beta[to_edge((a, b))] = float(val)
    pairs = [(to_edge(p[0]), to_edge(p[1])) for p in doc.get("crosstalk_pairs", [])]
    return HardwareGraph(
        n=len(labels), edges=tuple(edges), beta=beta,
        crosstalk_pairs=tuple(pairs), labels=tuple(labels))


def _line(n: int) -> tuple[list[Edge], list[tuple[Edge, Edge]]]:
    edges = [(i, i + 1) for i in range(n - 1)]
    pairs = []
    if n == 6:
        # Neighbouring couplers two apart share a drive line.
        pairs = [((0, 1), (2, 3)), ((1, 2), (3, 4)), ((2, 3), (4, 5))]
    return edges, pairs


def _y6() -> tuple[list[Edge], list[tuple[Edge, Edge]]]:
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5)]
    pairs = [
        ((0, 1), (2, 3)),
        ((0, 1), (2, 5)),
        ((1, 2), (3, 4)),
        ((3, 4), (2, 5)),
    ]
    return edges, pairs


def _y8() -> tuple[list[Edge], list[tuple[Edge, Edge]]]:
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (3, 6), (6, 7)]
    return edges, []


def _grid(rows: int, cols: int) -> list[Edge]:
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return edges


def _grid6() -> tuple[list[Edge], list[tuple[Edge, Edge]]]:
    edges = _grid(2, 3)
    pairs = [
        ((0, 1), (3, 4)),
        ((1, 2), (4, 5)),
        ((0, 3), (1, 4)),
        ((1, 4), (2, 5)),
    ]
    return edges, pairs


def builtin_topology(name: str, n: int) -> HardwareGraph:
    """Named desk-scale topologies: line-k (k >= 2), y/grid at 6 and 8 nodes."""
    name = name.lower()
    if name == "line":
        if n < 2:
            raise TopologyError("line topology needs at least 2 nodes")
        edges, pairs = _line(n)
    elif name == "y" and n == 6:
        edges, pairs = _y6()
    elif name == "y" and n == 8:
        edges, pairs = _y8()
    elif name == "grid" and n == 6:
        edges, pairs = _grid6()
    elif name == "grid" and n == 8:
        edges, pairs = _grid(2, 4), []
    else:
        raise TopologyError(f"no builtin topology ({name!r}, {n})")
    return HardwareGraph(
        n=n, edges=tuple(edges), crosstalk_pairs=tuple(pairs),
        labels=tuple(range(1, n + 1)))


# Most node subsets ``matching_size`` remembers before it gives up.
MATCHING_LIMIT = 100000


def enumerate_matchings(g: HardwareGraph, most: int) -> list[tuple[Edge, ...]]:
    """The matchings (sets of pairwise disjoint edges) with at most
    ``most`` edges, including the empty one, sorted by size and then
    lexicographically, so each list is a prefix of a longer one's.

    Used by the layout DP, whose swap layers have at most one edge per
    active qubit. Where only the size of a maximum matching is needed,
    ``matching_size`` finds it without listing them.
    """
    out: list[tuple[Edge, ...]] = []
    edges = g.edges

    def rec(start: int, used: int, cur: list[Edge]) -> None:
        out.append(tuple(cur))  # recursion depth: at most ``most``
        if len(cur) == most:
            return
        for k in range(start, len(edges)):
            i, j = edges[k]
            if not (used >> i | used >> j) & 1:
                cur.append(edges[k])
                rec(k + 1, used | 1 << i | 1 << j, cur)
                cur.pop()

    rec(0, 0, [])
    return sorted(out, key=lambda m: (len(m), m))


def matching_size(g: HardwareGraph):
    """A function giving the size of a maximum matching of the subgraph
    that a bit mask of nodes induces.

    The lowest node is matched to each neighbour in the mask in turn,
    and left unmatched only when it has none: beside a free neighbour,
    a maximum matching can always trade an edge for one that matches
    it. Sizes are remembered per node subset across calls; past
    ``MATCHING_LIMIT`` subsets it raises ``TopologyError``.
    """
    memo = {0: 0}

    def size(mask: int) -> int:
        stack = [mask]  # an explicit stack: no recursion limit on long graphs
        while stack:
            top = stack[-1]
            if top in memo:
                stack.pop()
                continue
            i = (top & -top).bit_length() - 1
            rest = top ^ 1 << i
            kids = [rest ^ 1 << k for k in g.neighbors(i) if rest >> k & 1]
            gain = 1 if kids else 0
            kids = kids or [rest]
            todo = [k for k in kids if k not in memo]
            if todo:
                stack.extend(todo)
                continue
            if len(memo) >= MATCHING_LIMIT:
                raise TopologyError("too many node subsets to size their matchings")
            memo[top] = max(memo[k] for k in kids) + gain
            stack.pop()
        return memo[mask]

    return size
