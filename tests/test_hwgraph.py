import json

import pytest

from qaroute.hwgraph import (DEFAULT_BETA, HardwareGraph, TopologyError,
                             builtin_topology, enumerate_matchings,
                             load_topology, max_matching_size)


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
    with pytest.raises(TopologyError):
        load_topology("{not json")
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
    ms = enumerate_matchings(line4)
    as_sets = {frozenset(m) for m in ms}
    assert frozenset() in as_sets
    assert frozenset({(0, 1), (2, 3)}) in as_sets
    # Line-4: empty, three singletons, one disjoint pair.
    assert len(as_sets) == 5
    for m in ms:
        used = [v for e in m for v in e]
        assert len(used) == len(set(used))


def test_max_matching_size(line4, y6, grid6):
    assert max_matching_size(line4) == 2
    assert max_matching_size(y6) == 3
    assert max_matching_size(grid6) == 3


def test_matchings_consistent_with_max(y6):
    ms = enumerate_matchings(y6)
    assert max(len(m) for m in ms) == max_matching_size(y6)
    # The only perfect matching on y-6 covers the forced edge set.
    perfect = [set(m) for m in ms if len(m) == 3]
    assert perfect == [{(0, 1), (2, 5), (3, 4)}]
