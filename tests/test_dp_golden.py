"""Golden routes of the layout DP.

``dp_golden.json`` holds, for 106 seeded instances, the value tuple
``solve_exhaustive`` returns and the sha256 of its routed circuit's
``routed_to_json`` document written with ``indent=1`` (or ``no_route``).
A change to the DP's kernel that keeps its answers passes unchanged; one
that picks another optimum among ties, or sums a value in another order,
does not.

The instances cross the graphs line-4/5/6, y-6, grid-6, grid-8 and y-8
with seven objective orders, each free and pinned to a random layout
that runs the first layer in place; widths 3-6, 1-3 layers and 0-2
dummy steps are drawn per instance. The last eight entries are QV
rungs: QV instance seed 202, order ("error", "depth"), 2 dummy steps,
as the CLI routes them. The first four are the ``exact_deadline``
benchmark rungs; the other four take the DP past 8 nodes (line-10,
line-12, line-25 and heavy-hex-27).
Regenerate the file, only on purpose, with
``PYTHONPATH=src:tests python tests/test_dp_golden.py``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from helpers import prepared, random_layered_circuit
from qaroute import solver
from qaroute.extract import routed_to_json, stats
from qaroute.gatefid import FidelityModel
from qaroute.heuristic import heuristic_layout, heuristic_route
from qaroute.hwgraph import HardwareGraph, builtin_topology
from qaroute.qvbench import qv_instance
from qaroute.solver import NoRouteError, solve_exhaustive

GOLDEN = Path(__file__).with_name("dp_golden.json")

GRAPHS = [("line", 4), ("line", 5), ("line", 6), ("y", 6), ("grid", 6), ("grid", 8),
          ("y", 8)]
ORDERS = [("error",), ("error", "depth"), ("depth", "error"), ("error", "crosstalk"),
          ("crosstalk", "error", "depth"), ("depth", "crosstalk", "error"), ("depth",)]
DRAWN = 2 * len(GRAPHS) * len(ORDERS)
RUNGS = [("grid", 6, 4, 4, 0), ("grid", 8, 6, 3, 0), ("y", 8, 6, 4, 0), ("y", 6, 4, 3, 0),
         ("line", 10, 6, 3, 0), ("line", 12, 6, 2, 0), ("line", 25, 4, 2, 0),
         ("heavy-hex", 27, 4, 3, 0)]
# IBM's 27-qubit Falcon coupling map (heavy-hex-27): 27 nodes, 28 edges.
HEAVY_HEX_27 = ((0, 1), (1, 2), (1, 4), (2, 3), (3, 5), (4, 7), (5, 8), (6, 7), (7, 10),
                (8, 9), (8, 11), (10, 12), (11, 14), (12, 13), (12, 15), (13, 14), (14, 16),
                (15, 18), (16, 19), (17, 18), (18, 21), (19, 20), (19, 22), (21, 23),
                (22, 25), (23, 24), (24, 25), (25, 26))
CASES = range(DRAWN + len(RUNGS))


def order_of(k: int) -> tuple[str, ...]:
    """Instance k's objective order."""
    return ("error", "depth") if k >= DRAWN else ORDERS[(k // len(GRAPHS)) % len(ORDERS)]


def case(k: int):
    """Instance k: graph, order and pinning from k, the rest drawn; past
    the drawn ones, a benchmark rung (topology, nodes, width, layers,
    index)."""
    if k >= DRAWN:
        topo, n, width, layers, index = RUNGS[k - DRAWN]
        g = (HardwareGraph(n, HEAVY_HEX_27) if topo == "heavy-hex"
             else builtin_topology(topo, n))
        c = qv_instance(width, [202, index], n, layers)[1]
        return g, c, FidelityModel.build(c, g), order_of(k), None
    topo, n = GRAPHS[k % len(GRAPHS)]
    order = order_of(k)
    pinned = k >= len(GRAPHS) * len(ORDERS)
    rng = np.random.default_rng([29, k])
    width = int(rng.integers(3, min(6, n) + 1))
    layers = [int(rng.integers(1, width // 2 + 1)) for _ in range(int(rng.integers(1, 4)))]
    dummies = int(rng.integers(0, 3))
    g = builtin_topology(topo, n)
    c, fid = prepared(random_layered_circuit(width, layers, [29, k]), g, dummies)
    layout = None
    while pinned and layout is None:  # a random layout that runs the first gates
        draw = tuple(int(v) for v in rng.permutation(n))
        if all(g.has_edge(draw[gt.p], draw[gt.q]) for gt in c.groups[0]):
            layout = draw
    return g, c, fid, order, layout


def run(k: int, incumbent=None) -> dict:
    """Instance k's golden entry; ``incumbent(c, g, fid, layout)``, when
    given, makes the DP's incumbent for the instance."""
    g, c, fid, order, layout = case(k)
    bound = None if incumbent is None else lambda: incumbent(c, g, fid, layout)
    try:
        value, rc = solve_exhaustive(c, g, fid, order, initial_map=layout, incumbent=bound)
    except NoRouteError:
        return {"value": None, "route": "no_route"}
    return {"value": list(value),
            "route": hashlib.sha256(route_text(rc).encode()).hexdigest()}


def route_text(rc) -> str:
    """The routed circuit as the golden file hashed it: its JSON document
    laid out with ``indent=1``."""
    return json.dumps(json.loads(routed_to_json(rc)), indent=1)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("k", CASES)
def test_dp_keeps_its_golden_route(k, golden):
    # Solved on a cold cache, which builds the layout space, then again
    # on that same space.
    assert run(k) == golden[k]
    spaces = list(solver._spaces.items())
    assert run(k) == golden[k]
    assert list(solver._spaces.items()) == spaces


@pytest.mark.parametrize("k", [k for k in CASES if order_of(k)[0] == "error"])
@pytest.mark.parametrize("bound", ["greedy", "optimum"])
def test_dp_bounded_by_a_known_error_keeps_its_golden_route(k, bound, golden, monkeypatch):
    # A pass budget of 0 makes every step due, so the bound prunes from
    # step 0 on, asked for once: the greedy route's error, or the golden
    # optimum itself, the tightest bound there is (the greedy one where
    # there is no route). The result is still the golden one.
    calls = []

    def known(c, g, fid, layout):
        calls.append(k)
        if bound == "optimum" and golden[k]["value"] is not None:
            return golden[k]["value"][0]
        rc = heuristic_route(c, g, layout or heuristic_layout(c, g), fid)
        return stats(rc, fid, g).error_objective_value

    monkeypatch.setattr(solver, "DP_PASS", 0)
    assert run(k, known) == golden[k]
    assert len(calls) <= 1


def test_golden_cases_cover_routes_and_no_routes(golden):
    assert len(golden) == len(CASES)
    assert 0 < sum(row["value"] is None for row in golden) < len(golden) // 4


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps([run(k) for k in CASES], indent=0) + "\n")
