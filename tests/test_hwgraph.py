import json

import numpy as np
import pytest

import qaroute.hwgraph
from qaroute.hwgraph import (DEFAULT_BETA, HardwareGraph, TopologyError,
                             builtin_topology, enumerate_matchings,
                             load_topology, matching_size)


def test_line4_shape(line4):
    assert line4.n == 4
    assert line4.edges == ((0, 1), (1, 2), (2, 3))
    assert line4.arcs() == [(0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2)]
    assert line4.neighbors(1) == (0, 2)
    assert line4.has_edge(2, 3) and line4.has_edge(3, 2)
    assert not line4.has_edge(0, 2)
    assert line4.labels == (1, 2, 3, 4)


def test_default_beta_uniform(line4, grid6, y6):
    for g in (line4, grid6, y6):
        assert all(g.beta_of(i, j) == DEFAULT_BETA for i, j in g.edges)


def test_y6_crosstalk_pairs(y6):
    assert y6.edges == ((0, 1), (1, 2), (2, 3), (2, 5), (3, 4))
    assert set(y6.crosstalk_pairs) == {
        ((0, 1), (2, 3)), ((0, 1), (2, 5)), ((1, 2), (3, 4)), ((2, 5), (3, 4))}


def test_distances(y6):
    dist = y6.distances()
    assert dist[0][0] == 0
    assert dist[0][5] == 3
    assert dist[4][5] == 3
    assert dist[0][4] == 4


def test_load_topology_round_trip():
    doc = {
        "nodes": ["a", "b", "c"],
        "edges": [["a", "b"], ["b", "c"]],
        "default_beta": 0.99,
        "beta": [["b", "c", 0.95]],
        "crosstalk_pairs": [[["a", "b"], ["b", "c"]]],
    }
    g = load_topology(doc)
    assert g.n == 3
    assert g.labels == ("a", "b", "c")
    assert g.beta_of(0, 1) == 0.99
    assert g.beta_of(1, 2) == 0.95
    assert g.crosstalk_pairs == (((0, 1), (1, 2)),)
    # Same document as JSON text.
    g2 = load_topology(json.dumps(doc))
    assert g2.edges == g.edges and g2.beta == g.beta


def test_load_topology_errors():
    with pytest.raises(TopologyError):
        load_topology({"nodes": ["a"]})
    with pytest.raises(TopologyError):
        load_topology({"nodes": ["a", "a"], "edges": []})
    with pytest.raises(TopologyError):
        load_topology({"nodes": ["a", "b"], "edges": [["a", "z"]]})
    for text in ("{not json", "[]", "5"):
        with pytest.raises(TopologyError):
            load_topology(text)
    with pytest.raises(TopologyError):
        load_topology({"nodes": ["a", "b"], "edges": [["a", "b"]], "default_beta": "high"})
    with pytest.raises(TopologyError):
        load_topology({"nodes": ["a", "b"], "edges": [["a", "b"]], "beta": [["a", "b"]]})
    with pytest.raises(TopologyError):
        load_topology({"nodes": 5, "edges": []})
    with pytest.raises(TopologyError):
        load_topology({"nodes": [[1], [2]], "edges": []})


def test_graph_validation():
    with pytest.raises(TopologyError):
        HardwareGraph(n=2, edges=((0, 0),))
    with pytest.raises(TopologyError):
        HardwareGraph(n=2, edges=((0, 1), (1, 0)))
    with pytest.raises(TopologyError):
        HardwareGraph(n=4, edges=((0, 1), (2, 3)))  # disconnected
    with pytest.raises(TopologyError):
        HardwareGraph(n=2, edges=((0, 1),), beta={(0, 1): 1.5})
    with pytest.raises(TopologyError):
        HardwareGraph(n=2, edges=((0, 1),), crosstalk_pairs=(((0, 1), (0, 1)),))


def test_builtin_unknown():
    with pytest.raises(TopologyError):
        builtin_topology("hexagon", 6)
    with pytest.raises(TopologyError):
        builtin_topology("y", 7)


def test_enumerate_matchings_line4(line4):
    ms = enumerate_matchings(line4, 2)
    as_sets = {frozenset(m) for m in ms}
    assert frozenset() in as_sets
    assert frozenset({(0, 1), (2, 3)}) in as_sets
    # Line-4: empty, three singletons, one disjoint pair.
    assert len(as_sets) == 5
    for m in ms:
        used = [v for e in m for v in e]
        assert len(used) == len(set(used))


def test_largest_matching_size(line4, y6, grid6):
    # Matchings come sorted by size, so the last one is a maximum matching.
    assert len(enumerate_matchings(line4, 2)[-1]) == 2
    assert len(enumerate_matchings(y6, 3)[-1]) == 3
    assert len(enumerate_matchings(grid6, 3)[-1]) == 3


def test_matchings_consistent_with_max(y6):
    ms = enumerate_matchings(y6, 3)
    assert max(len(m) for m in ms) == len(ms[-1])
    # The only perfect matching on y-6 covers the forced edge set.
    perfect = [set(m) for m in ms if len(m) == 3]
    assert perfect == [{(0, 1), (2, 5), (3, 4)}]


def random_connected_graph(n: int, rng) -> HardwareGraph:
    """A random spanning tree on n nodes plus up to n random extra edges."""
    edges = {(int(rng.integers(v)), v) for v in range(1, n)}
    for _ in range(int(rng.integers(n + 1))):
        i, j = sorted(int(v) for v in rng.choice(n, 2, replace=False))
        edges.add((i, j))
    return HardwareGraph(n=n, edges=tuple(sorted(edges)))


def test_matching_size_agrees_with_enumeration():
    rng = np.random.default_rng(77)
    for _ in range(150):
        g = random_connected_graph(int(rng.integers(2, 12)), rng)
        matchings = enumerate_matchings(g, g.n // 2)
        size = matching_size(g)
        assert size((1 << g.n) - 1) == len(matchings[-1])
        # Any node subset: the largest matching inside it.
        for mask in rng.integers(1 << g.n, size=4):
            mask = int(mask)
            inside = [m for m in matchings
                      if all(mask >> i & 1 and mask >> j & 1 for i, j in m)]
            assert size(mask) == max(len(m) for m in inside)


def test_matchings_up_to_a_size_are_a_prefix_of_all():
    rng = np.random.default_rng(78)
    for _ in range(60):
        g = random_connected_graph(int(rng.integers(2, 10)), rng)
        every = enumerate_matchings(g, g.n // 2)
        for most in range(g.n // 2 + 1):
            ms = enumerate_matchings(g, most)
            assert ms == every[:len(ms)]
            assert ms == [m for m in every if len(m) <= most]


def test_matchings_of_long_graphs_are_listed_without_deep_recursion():
    # line-62 has 1 + 61 + C(60, 2) + C(59, 3) matchings of at most three
    # edges; a star's 2,000 edges would pass the recursion limit if the
    # search recursed once per edge.
    assert len(enumerate_matchings(builtin_topology("line", 62), 3)) == 34341
    star = HardwareGraph(n=2001, edges=tuple((0, k) for k in range(1, 2001)))
    assert len(enumerate_matchings(star, 1)) == 2001


def test_matching_size_of_long_lines():
    # Too many matchings to list: line-25 has Fibonacci(26) of them.
    for n, want in ((25, 12), (60, 30)):
        assert matching_size(builtin_topology("line", n))((1 << n) - 1) == want


def test_matching_size_memo_is_capped(monkeypatch):
    monkeypatch.setattr(qaroute.hwgraph, "MATCHING_LIMIT", 5)
    size = matching_size(builtin_topology("line", 25))
    with pytest.raises(TopologyError, match="too many"):
        size((1 << 25) - 1)
