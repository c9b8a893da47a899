import numpy as np
import pytest

from helpers import (CX, REFERENCE_ASSIGNMENT_NAMES, line4_five_gate_circuit, plain_links,
                     prepared, random_layered_circuit, without_family)
from qaroute.bipmodel import (ModelError, Row, VariableSpace, assemble_problem,
                              build_constraints, dummy_runs)
from qaroute.circuit import Gate, LayeredCircuit, insert_dummy_steps
from qaroute.gatefid import FidelityModel
from qaroute.heuristic import VARIANTS, heuristic_layout, heuristic_route, run_variant_full
from qaroute.hwgraph import HardwareGraph
from qaroute.lexopt import lexicographic_solve
from qaroute.solver import solve_exhaustive


def dense_assignment(p, names_at_one):
    vec = np.zeros(p.num_vars)
    lookup = {nm: k for k, nm in enumerate(p.names)}
    for nm in names_at_one:
        vec[lookup[nm]] = 1.0
    return vec


def test_variable_counts_five_gate_model(line4):
    c = line4_five_gate_circuit()
    fid = FidelityModel.build(c, line4)
    vs = VariableSpace(c, line4)
    counts = vs.counts()
    assert counts == {"w": 48, "x": 80, "y": 30, "z": 0}
    assert vs.num_vars == 158
    _, p = assemble_problem(c, line4, fid, objective="error")
    assert p.num_vars == 158
    assert p.names == vs.names


def test_variable_counts_with_dummies(line4):
    c = insert_dummy_steps(line4_five_gate_circuit(), 1)
    vs = VariableSpace(c, line4)
    # m = 5 steps: w 4*4*5, x 4*10*4, y unchanged, z on the two dummies.
    assert vs.counts() == {"w": 80, "x": 160, "y": 30, "z": 2}


def test_space_rejects_mismatched_width(line4):
    c = random_layered_circuit(3, (1,), seed=0)
    with pytest.raises(ModelError):
        VariableSpace(c, line4)


def test_space_rejects_unroutable_layer(line4):
    # Three disjoint gates cannot be placed on a 4-node line.
    c = random_layered_circuit(6, (3,), seed=1)
    with pytest.raises(ModelError):
        VariableSpace(c, line4)


# The admission contract of every router. Each entry is called as
# entry(c, g, fid, initial_map); None for a map means the entry's default.
_ORDER = ("error", "depth")
ADMITTING = {
    "solve_exhaustive": lambda c, g, fid, m: solve_exhaustive(c, g, fid, _ORDER, initial_map=m),
    "lexicographic_solve": lambda c, g, fid, m: lexicographic_solve(c, g, fid, _ORDER,
                                                                    initial_map=m),
    "assemble_problem": lambda c, g, fid, m: assemble_problem(c, g, fid),
    "heuristic_layout": lambda c, g, fid, m: heuristic_layout(c, g),
    "heuristic_route": lambda c, g, fid, m: heuristic_route(c, g, m or tuple(range(g.n)), fid),
    **{f"run_variant_full[{v}]": (lambda c, g, fid, m, v=v: run_variant_full(v, c, g, fid))
       for v in VARIANTS},
}
TAKES_A_MAP = ("solve_exhaustive", "lexicographic_solve", "heuristic_route")
# The greedy router runs a wide layer over several steps: no width rule.
SIZES_A_MATCHING = tuple(name for name in ADMITTING if name != "heuristic_route")
# Every edge of a 5-node star meets its centre, so two gates never run at once.
STAR = HardwareGraph(5, ((0, 1), (0, 2), (0, 3), (0, 4)))
ONE_GATE = LayeredCircuit(5, ((Gate(1, 2, CX, gid=0),),))
UNPADDED = LayeredCircuit(4, ((Gate(1, 2, CX, gid=0),),))
NOT_A_BIJECTION = "initial_map is not a qubit-to-node bijection"
RULES = {
    "pad": (UNPADDED, None,
            "circuit has 4 qubits but the graph has 5 nodes; pad the circuit first",
            tuple(ADMITTING)),
    "map": (ONE_GATE, (0, 0, 1, 2, 3), NOT_A_BIJECTION, TAKES_A_MAP),
    # The map rule comes first: a map of the unpadded circuit's size.
    "map-then-pad": (UNPADDED, (0, 1, 2, 3), NOT_A_BIJECTION, TAKES_A_MAP),
    "width": (LayeredCircuit(5, ((Gate(1, 2, CX, gid=0), Gate(3, 4, CX, gid=1)),)), None,
              "a layer holds 2 gates but the graph has no matching that large",
              SIZES_A_MATCHING),
}


@pytest.mark.parametrize("rule, entry", [(rule, name) for rule, (*_, entries) in RULES.items()
                                         for name in entries])
def test_every_router_admits_by_the_one_rule_and_error(rule, entry):
    c, initial_map, message, _ = RULES[rule]
    fid = FidelityModel.build(c, STAR)
    with pytest.raises(ModelError) as err:
        ADMITTING[entry](c, STAR, fid, initial_map)
    assert str(err.value) == message


def test_row_activity_and_satisfaction():
    row = Row(vars=(0, 2), coefs=(1.0, -1.0), sense="<=", rhs=0.0, family="T")
    assert row.activity([1.0, 0.0, 1.0]) == 0.0
    assert row.satisfied([1.0, 0.0, 0.0]) is False
    assert row.satisfied([0.0, 0.0, 1.0]) is True
    eq = Row(vars=(1,), coefs=(2.0,), sense="=", rhs=2.0, family="T")
    assert eq.satisfied([0.0, 1.0]) is True
    ge = Row(vars=(1,), coefs=(1.0,), sense=">=", rhs=1.0, family="T")
    assert ge.satisfied([0.0, 0.0]) is False


def test_reference_assignment_feasible_both_modes(line4):
    # The model, and its reference form with plain McCormick links.
    c = line4_five_gate_circuit()
    fid = FidelityModel.build(c, line4)
    vs, p = assemble_problem(c, line4, fid, objective="error")
    vec = dense_assignment(p, REFERENCE_ASSIGNMENT_NAMES)
    for form in (p, plain_links(vs, p)):
        assert form.check_assignment(vec) is None


def test_mccormick_str_is_tighter(line4):
    # Each strengthened upper LINK row sums a subset of the movement
    # variables that its operand's FLOW_OUT row sums into w, so it
    # implies the plain row it stands for. It does so at every step but
    # the last, where nothing moves and the rows are the plain ones.
    c = line4_five_gate_circuit()
    vs, p = assemble_problem(c, line4, None, objective="depth")
    plain = plain_links(vs, p)
    assert len(plain.rows) == len(p.rows)
    out_of = {row.vars[0]: set(row.vars[1:]) for row in p.rows if row.family == "FLOW_OUT"}
    tightened = [(tight, loose) for tight, loose in zip(p.rows, plain.rows) if tight != loose]
    for tight, loose in tightened:
        y, w = loose.vars
        assert (tight.family, tight.sense, tight.rhs, tight.coefs) == ("LINK", "<=", 0.0,
                                                                       (1.0, -1.0, -1.0))
        assert tight.vars[0] == y and set(tight.vars[1:]) <= out_of[w]
    # Two rows per arc for each gate of the first two layers.
    assert len(tightened) == 2 * len(vs.arcs) * 3


def test_sym_chain_rows(line4):
    c = insert_dummy_steps(line4_five_gate_circuit(), 2)
    vs, p = assemble_problem(c, line4, None, objective="depth")
    chain = [r for r in build_constraints(vs) if r.family == "SYM_CHAIN"]
    # Two dummy runs of length 2, one ordering row z[t] >= z[t + 1] per
    # adjacent pair.
    assert [tuple(vs.var_meta[v] for v in r.vars) for r in chain] == [
        (("z", t), ("z", t + 1)) for run in dummy_runs(c) for t in run[:-1]]
    assert len(dummy_runs(c)) == 2 and len(chain) == 2
    assert all((r.sense, r.coefs, r.rhs) == (">=", (1.0, -1.0), 0.0) for r in chain)
    assert len(without_family(p, "SYM_CHAIN").rows) == len(p.rows) - 2


def test_objective_kinds(line4, y6):
    c = line4_five_gate_circuit()
    fid = FidelityModel.build(c, line4)
    _, perr = assemble_problem(c, line4, fid, objective="error")
    assert perr.objective_kind == "error"
    # One (y, xp, xq) triple per gate and arc; nothing moves after the
    # last step, which holds the last two of the five gates.
    assert len(perr.gate_arcs) == len(c.gates())
    assert all(len(arcs) == len(line4.arcs()) for arcs in perr.gate_arcs)
    assert [xp for arcs in perr.gate_arcs for _, xp, _ in arcs].count(-1) == 12
    # No dummy steps: the depth objective is identically zero.
    _, pdep = assemble_problem(c, line4, fid, objective="depth")
    assert pdep.objective_kind == "depth"
    assert not pdep.objective.any()
    cy = random_layered_circuit(6, (2, 2), seed=3)
    cy2, fidy = prepared(cy, y6, 1)
    vsx, px = assemble_problem(cy2, y6, fidy, objective="crosstalk")
    assert vsx.crosstalk_mode
    assert px.objective_kind == "crosstalk"
    counts = vsx.counts()
    assert counts["u"] > 0 and counts["v"] == len(y6.crosstalk_pairs) * cy2.num_steps
    fams = {r.family for r in px.rows}
    assert {"XTALK_U_LB", "XTALK_U_UB", "XTALK_V"} <= fams


def test_objective_value_matches_dot(line4):
    c = line4_five_gate_circuit()
    fid = FidelityModel.build(c, line4)
    _, p = assemble_problem(c, line4, fid, objective="error")
    vec = dense_assignment(p, REFERENCE_ASSIGNMENT_NAMES)
    manual = float(np.dot(p.objective, vec))
    assert p.objective_value(vec) == pytest.approx(manual, abs=1e-15)


def test_error_objective_splits_prices_exactly(line4):
    # Gate placements and free swaps are priced by the fidelity model; the
    # model splits a merged gate's extra cost and a swap's cost in halves
    # over the two movement variables that realize them.
    c, fid = prepared(random_layered_circuit(4, (1, 1), seed=16), line4, 1)
    vs, p = assemble_problem(c, line4, fid, objective="error")
    obj = p.objective
    for t in range(vs.m - 1):
        busy = c.busy_qubits(t)
        for gate in c.groups[t]:
            for i, j in vs.arcs:
                plain = fid.gate_error(gate.gid, i, j)
                half = (fid.gate_error(gate.gid, i, j, merged=True) - plain) / 2.0
                assert obj[vs.y(gate.gid, i, j)] == plain
                assert obj[vs.x(gate.p, i, j, t)] == half
                assert obj[vs.x(gate.q, j, i, t)] == half
        for q in set(range(vs.n)) - busy:
            for i, j in vs.arcs:
                assert obj[vs.x(q, i, j, t)] == fid.swap_error(i, j) / 2.0


def test_every_variable_kind_keys_its_index_and_name(y6):
    # Every accessor's index holds the accessor's key in var_meta, and
    # the name spells out the key's indices joined by "_".
    c, _ = prepared(random_layered_circuit(6, (2, 2), seed=3), y6, 1)
    vs = VariableSpace(c, y6, crosstalk_mode=True)
    m, arcs = vs.m, vs.arcs
    expected = []
    for t in range(m):
        expected += [(vs.w(q, i, t), ("w", q, i, t)) for q in range(6) for i in range(6)]
        expected += [(vs.y(gate.gid, i, j), ("y", gate.gid, i, j, t))
                     for gate in c.groups[t] for i, j in arcs]
        # Accessors take either orientation of an edge and either order
        # of a pair.
        expected += [(vs.u(j, i, t), ("u", i, j, t)) for i, j in y6.crosstalk_edges]
        expected += [(vs.v(e2[::-1], e1, t), ("v", e1, e2, t))
                     for e1, e2 in y6.crosstalk_pairs]
    for t in range(m - 1):
        expected += [(vs.x(q, i, j, t), ("x", q, i, j, t)) for q in range(6)
                     for i in range(6) for j in (i, *y6.neighbors(i))]
    expected += [(vs.z(t), ("z", t)) for t in c.dummy_steps]
    assert sorted(idx for idx, _ in expected) == list(range(vs.num_vars))
    for idx, key in expected:
        assert vs.var_meta[idx] == key
        flat = [v for part in key[1:] for v in (part if isinstance(part, tuple) else (part,))]
        assert vs.names[idx] == "_".join([key[0], *map(str, flat)])
    assert {key[0] for _, key in expected} == set("wxyzuv")
    assert vs.counts() == {kind: sum(key[0] == kind for _, key in expected)
                           for kind in "wxyzuv"}
    for t in range(m):
        assert vs.names[vs.v((0, 1), (2, 3), t)] == f"v_0_1_2_3_{t}"
    assert len(set(vs.names)) == vs.num_vars
