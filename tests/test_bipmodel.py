import numpy as np
import pytest

from helpers import (REFERENCE_ASSIGNMENT_NAMES, line4_five_gate_circuit,
                     prepared, random_layered_circuit)
from qaroute.bipmodel import (ModelError, Row, VariableSpace, assemble_problem,
                              build_constraints)
from qaroute.circuit import insert_dummy_steps
from qaroute.gatefid import FidelityModel


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
    c = line4_five_gate_circuit()
    fid = FidelityModel.build(c, line4)
    for mode in ("mccormick", "mccormick_str"):
        vs, p = assemble_problem(c, line4, fid, objective="error", mode=mode)
        vec = dense_assignment(p, REFERENCE_ASSIGNMENT_NAMES)
        assert p.check_assignment(vec) is None, mode


def test_mccormick_str_is_tighter(line4):
    c = line4_five_gate_circuit()
    vs = VariableSpace(c, line4)
    plain = build_constraints(vs, mode="mccormick")
    tight = build_constraints(vs, mode="mccormick_str")
    fam_plain = {r.family for r in plain}
    fam_tight = {r.family for r in tight}
    assert "LINK" in fam_plain and "LINK" in fam_tight
    # Strengthening replaces upper-envelope rows at every step but the
    # last; the two models keep the same row count here.
    def upper_rows(rows):
        return [r for r in rows if r.family == "LINK" and r.sense == "<="]
    assert len(upper_rows(plain)) == len(upper_rows(tight))
    assert {tuple(r.vars) for r in upper_rows(plain)} != {tuple(r.vars) for r in upper_rows(tight)}


def test_sym_chain_rows(line4):
    c = insert_dummy_steps(line4_five_gate_circuit(), 2)
    vs = VariableSpace(c, line4)
    rows = build_constraints(vs, sym_chain=True)
    chain = [r for r in rows if r.family == "SYM_CHAIN"]
    # Two dummy runs of length 2, one ordering row per adjacent pair.
    assert len(chain) == 2
    rows_off = build_constraints(vs, sym_chain=False)
    assert [r for r in rows_off if r.family == "SYM_CHAIN"] == []
    assert len(rows) == len(rows_off) + 2


def test_objective_kinds(line4, y6):
    c = line4_five_gate_circuit()
    fid = FidelityModel.build(c, line4)
    _, perr = assemble_problem(c, line4, fid, objective="error")
    assert perr.objective_kind == "error"
    assert perr.gate_modes is not None
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
    manual = float(np.dot(p.objective, vec) + p.objective_offset)
    assert p.objective_value(vec) == pytest.approx(manual, abs=1e-15)


def test_without_families(line4):
    c = insert_dummy_steps(line4_five_gate_circuit(), 2)
    fid = FidelityModel.build(c, line4)
    _, p = assemble_problem(c, line4, fid, objective="error")
    trimmed = p.without_families(("SYM_CHAIN",))
    assert len(trimmed.rows) < len(p.rows)
    assert all(r.family != "SYM_CHAIN" for r in trimmed.rows)


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
