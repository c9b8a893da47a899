"""Golden routes of the layout DP.

``dp_golden.json`` holds, for 102 seeded instances, the value tuple
``solve_exhaustive`` returns and the sha256 of its routed circuit's
``routed_to_json`` text (or ``no_route``). A change to the DP's kernel
that keeps its answers passes unchanged; one that picks another optimum
among ties, or sums a value in another order, does not.

The instances cross the graphs line-4/5/6, y-6, grid-6, grid-8 and y-8
with seven objective orders, each free and pinned to a random layout
that runs the first layer in place; widths 3-6, 1-3 layers and 0-2
dummy steps are drawn per instance. The last four entries are the
``exact_deadline`` benchmark rungs: QV instance seed 202, order
("error", "depth"), 2 dummy steps, as the CLI routes them.
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
from qaroute.extract import routed_to_json
from qaroute.gatefid import FidelityModel
from qaroute.hwgraph import builtin_topology
from qaroute.qvbench import qv_instance
from qaroute.solver import NoRouteError, solve_exhaustive

GOLDEN = Path(__file__).with_name("dp_golden.json")

GRAPHS = [("line", 4), ("line", 5), ("line", 6), ("y", 6), ("grid", 6), ("grid", 8),
          ("y", 8)]
ORDERS = [("error",), ("error", "depth"), ("depth", "error"), ("error", "crosstalk"),
          ("crosstalk", "error", "depth"), ("depth", "crosstalk", "error"), ("depth",)]
DRAWN = 2 * len(GRAPHS) * len(ORDERS)
RUNGS = [("grid", 6, 4, 4, 0), ("grid", 8, 6, 3, 0), ("y", 8, 6, 4, 0), ("y", 6, 4, 3, 0)]
CASES = range(DRAWN + len(RUNGS))


def case(k: int):
    """Instance k: graph, order and pinning from k, the rest drawn; past
    the drawn ones, a benchmark rung (topology, nodes, width, layers,
    index)."""
    if k >= DRAWN:
        topo, n, width, layers, index = RUNGS[k - DRAWN]
        g = builtin_topology(topo, n)
        c = qv_instance(width, [202, index], n, layers)[1]
        return g, c, FidelityModel.build(c, g), ("error", "depth"), None
    topo, n = GRAPHS[k % len(GRAPHS)]
    order = ORDERS[(k // len(GRAPHS)) % len(ORDERS)]
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


def run(k: int) -> dict:
    g, c, fid, order, layout = case(k)
    try:
        value, rc = solve_exhaustive(c, g, fid, order, initial_map=layout)
    except NoRouteError:
        return {"value": None, "route": "no_route"}
    return {"value": list(value),
            "route": hashlib.sha256(routed_to_json(rc).encode()).hexdigest()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("k", CASES)
def test_dp_keeps_its_golden_route(k, golden):
    assert run(k) == golden[k]


def test_golden_cases_cover_routes_and_no_routes(golden):
    assert len(golden) == len(CASES)
    assert 0 < sum(row["value"] is None for row in golden) < len(golden) // 4


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps([run(k) for k in CASES], indent=0) + "\n")
