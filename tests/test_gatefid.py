import itertools
import json
import math
import warnings

import numpy as np
import pytest

import qaroute.gatefid
from helpers import (CX, ansatz_overlap, cnot_ansatz, lattice_offsets,
                     numeric_fidelity_budget, prepared, random_layered_circuit,
                     reference_fold_spectrum)
from qaroute.circuit import Gate, LayeredCircuit, dump_circuit
from qaroute.cli import main
from qaroute.gatefid import (FidelityError, FidelityModel, _best_budget, _budget,
                             _fold_spectra, _spectra, _weyl_batch, avg_gate_fidelity,
                             cnot_budget_fidelities, exact_cnot_fidelities,
                             load_fidelity_overrides, trace_to_fidelity,
                             weyl_coordinates)
from qaroute.hwgraph import HardwareGraph, builtin_topology
from qaroute.qvbench import gen_qv_circuit, haar_su4, lower_circuit
from qaroute.simulate import exchange_qubits

SWAP = np.array([[1, 0, 0, 0],
                 [0, 0, 1, 0],
                 [0, 1, 0, 0],
                 [0, 0, 0, 1]], dtype=complex)


# Oracle check first: the closed-form budget table must agree with direct
# numeric maximization over explicit k-CNOT circuits.
def test_budget_table_matches_numeric_oracle():
    for trial in range(6):
        u = haar_su4([91, trial])
        closed = cnot_budget_fidelities(u)
        numeric = numeric_fidelity_budget(u, k_max=2, restarts=10, seed=trial)
        for k in range(3):
            assert abs(closed[k] - numeric[k]) <= 1e-4, (trial, k)


def test_numeric_oracle_gradient_matches_its_ansatz():
    # The oracle's overlap is that of cnot_ansatz, and its exact gradient
    # agrees with central differences of that overlap.
    udag = haar_su4([94, 0]).conj().T
    rng = np.random.default_rng(94)
    for k in range(3):
        theta = rng.uniform(-np.pi, np.pi, 6 * (k + 1))

        def overlap(t):
            return abs(np.trace(udag @ cnot_ansatz(t, k))) ** 2

        value, grad = ansatz_overlap(theta, k, udag)
        assert value == pytest.approx(overlap(theta), abs=1e-12)
        h = 1e-6
        central = [(overlap(theta + h * e) - overlap(theta - h * e)) / (2 * h)
                   for e in np.eye(len(theta))]
        assert np.allclose(grad, central, rtol=0, atol=1e-7)


def test_three_cnots_always_suffice():
    # The three-CNOT trace is the constant 4, so that entry of the budget
    # is exactly 1.0 for any gate and any coordinates: at the chamber's
    # corners, inside it, and at triples outside it.
    for trial in range(25):
        u = haar_su4([92, trial])
        assert cnot_budget_fidelities(u)[3] == 1.0
    pi4 = math.pi / 4
    corners = [(0.0, 0.0, 0.0), (pi4, 0.0, 0.0), (pi4, pi4, 0.0), (pi4, pi4, pi4),
               (pi4, pi4, -pi4)]
    rng = np.random.default_rng(94)
    a = rng.uniform(0.0, pi4, 2000)
    b = a * rng.uniform(0.0, 1.0, 2000)
    inside = zip(a, b, b * rng.uniform(-1.0, 1.0, 2000))
    wide = map(tuple, rng.uniform(-math.pi, math.pi, (2000, 3)))
    assert all(_budget(t)[3] == 1.0 for t in [*corners, *inside, *wide])


def test_budget_table_monotone():
    for trial in range(25):
        f = cnot_budget_fidelities(haar_su4([93, trial]))
        assert all(f[k] <= f[k + 1] + 1e-15 for k in range(3))


def test_known_gate_tables():
    assert cnot_budget_fidelities(CX) == pytest.approx((0.6, 1.0, 1.0, 1.0), abs=1e-12)
    assert cnot_budget_fidelities(SWAP) == pytest.approx((0.4, 0.4, 0.6, 1.0), abs=1e-12)
    merged = SWAP @ CX
    assert cnot_budget_fidelities(merged) == pytest.approx((0.4, 0.6, 1.0, 1.0), abs=1e-12)
    assert cnot_budget_fidelities(np.eye(4)) == pytest.approx((1.0, 1.0, 1.0, 1.0), abs=1e-12)


def test_avg_gate_fidelity_values():
    assert avg_gate_fidelity(CX, np.eye(4)) == 0.4
    assert avg_gate_fidelity(CX, CX) == pytest.approx(1.0, abs=1e-12)
    u = haar_su4(7)
    assert avg_gate_fidelity(u, np.exp(0.7j) * u) == pytest.approx(1.0, abs=1e-12)


def test_trace_to_fidelity():
    assert trace_to_fidelity(4.0) == pytest.approx(1.0)
    assert trace_to_fidelity(0.0) == pytest.approx(0.2)
    assert trace_to_fidelity(2.0) == pytest.approx(0.4)


def test_weyl_coordinates_invariances():
    u = haar_su4(8)
    a1, b1, c1 = weyl_coordinates(u)
    rng = np.random.default_rng(9)

    def su2():
        z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        q, r = np.linalg.qr(z)
        return q * (np.diagonal(r) / np.abs(np.diagonal(r)))

    dressed = np.kron(su2(), su2()) @ u @ np.kron(su2(), su2())
    assert weyl_coordinates(dressed) == pytest.approx((a1, b1, c1), abs=1e-9)
    assert weyl_coordinates(exchange_qubits(u)) == pytest.approx((a1, b1, c1), abs=1e-9)


def test_exact_table_consistency():
    for trial in range(10):
        u = haar_su4([94, trial])
        exact = exact_cnot_fidelities(u)
        budget = cnot_budget_fidelities(u)
        run = 0.0
        for k in range(4):
            run = max(run, exact[k])
            assert budget[k] == pytest.approx(run, abs=1e-15)


def test_placement_cost_tie_break():
    # Equal products prefer fewer CNOTs. Edge (0, 1) has beta 1, edge
    # (1, 2) beta 0.9.
    g = HardwareGraph(n=3, edges=((0, 1), (1, 2)), beta={(0, 1): 1.0, (1, 2): 0.9})
    fid = FidelityModel(g, {0: (1.0, 1.0, 1.0, 1.0), 1: (0.5, 0.9, 0.95, 1.0)},
                        {0: (0.5, 0.5, 0.5, 1.0), 1: (0.4, 0.4, 0.6, 1.0)})
    assert fid.cnots(0, 0, 1) == 0
    assert fid.gate_error(0, 0, 1) == 0.0
    assert fid.cnots(0, 0, 1, merged=True) == 3
    assert fid.gate_error(0, 0, 1, merged=True) == 0.0
    # 0.5, 0.81, 0.7695, 0.729 -> one CNOT wins.
    assert fid.cnots(1, 1, 2) == 1
    assert fid.gate_error(1, 1, 2) == pytest.approx(-math.log(0.81))
    # 0.4, 0.36, 0.486, 0.729 -> merged prefers all three.
    assert fid.cnots(1, 1, 2, merged=True) == 3
    assert fid.gate_error(1, 1, 2, merged=True) == pytest.approx(-math.log(0.729))


def test_model_cost_orientation_free(line4):
    c = random_layered_circuit(4, (2, 1), seed=12)
    c, fid = prepared(c, line4, 1)
    for gate in (g for grp in c.groups for g in grp):
        for i, j in line4.arcs():
            for merged in (False, True):
                assert fid.cnots(gate.gid, i, j, merged) == fid.cnots(gate.gid, j, i, merged)
                assert (fid.gate_error(gate.gid, i, j, merged)
                        == fid.gate_error(gate.gid, j, i, merged))


def test_model_overrides():
    g = builtin_topology("line", 4)
    c = random_layered_circuit(4, (1,), seed=13)
    table = {0: {"f": [1.0, 1.0, 1.0, 1.0], "f_swap": [0.1, 0.1, 0.1, 1.0]}}
    c2, fid = prepared(c, g, 0, overrides=table)
    assert fid.cnots(0, 0, 1) == 0 and fid.gate_error(0, 0, 1) == 0.0
    assert fid.cnots(0, 0, 1, merged=True) == 3
    # A table for a gate the circuit lacks is a typo, or was written for
    # another circuit: refused, not ignored.
    with pytest.raises(FidelityError, match="^override 99 names no gate of the circuit$"):
        FidelityModel.build(c2, g, overrides={**table, 99: table[0]})


def test_load_fidelity_overrides_errors():
    with pytest.raises(FidelityError):
        load_fidelity_overrides({"0": {"f": [1, 1, 1, 1]}})
    with pytest.raises(FidelityError):
        load_fidelity_overrides({"0": {"f": [1, 1], "f_swap": [1, 1, 1, 1]}})
    for text in ("{oops", "[]", "5"):
        with pytest.raises(FidelityError):
            load_fidelity_overrides(text)
    with pytest.raises(FidelityError):
        load_fidelity_overrides({"0": {"f": ["high", 1, 1, 1], "f_swap": [1, 1, 1, 1]}})
    with pytest.raises(FidelityError):
        load_fidelity_overrides({"first": {"f": [1, 1, 1, 1], "f_swap": [1, 1, 1, 1]}})
    with pytest.raises(FidelityError):
        load_fidelity_overrides("[1,\n 2]")
    # int() reads "1", "01" and " 1" as gate 1: the second key would
    # silently replace the first one's tables.
    table = {"f": [0.5, 1, 1, 1], "f_swap": [0.5, 1, 1, 1]}
    for first, second in (("1", "01"), ("1", " 1"), ("+1", "1")):
        with pytest.raises(FidelityError) as err:
            load_fidelity_overrides({first: table, second: {**table, "f": [0.9, 1, 1, 1]}})
        assert str(err.value) == f"overrides {first!r} and {second!r} both name gate 1"
    assert list(load_fidelity_overrides({"01": table, "2": table})) == [1, 2]
    good = load_fidelity_overrides('{"2": {"f": [0.5, 0.9, 1, 1], "f_swap": [0.4, 0.4, 0.6, 1]}}')
    assert good[2]["f"][1] == 0.9


def test_log_cost_accounting(line4):
    # The error objective charges -log p for the chosen implementation;
    # one merged three-CNOT unit on a default edge costs -3 log beta more
    # than a perfect zero-CNOT one.
    c = random_layered_circuit(4, (1,), seed=14)
    c2, fid = prepared(c, line4, 0)
    assert fid.gate_error(0, 0, 1) >= 0.0 and fid.gate_error(0, 0, 1, merged=True) >= 0.0
    beta = line4.beta_of(0, 1)
    budget = cnot_budget_fidelities(c.groups[0][0].unitary)
    best = max(budget[k] * beta ** k for k in range(4))
    assert math.exp(-fid.gate_error(0, 0, 1)) == pytest.approx(best, abs=1e-15)


def test_gate_and_swap_prices(line4):
    c, fid = prepared(random_layered_circuit(4, (2, 1), seed=15), line4, 1)
    f_table, f_swap_table = per_gate_tables(c)
    for gate in c.gates():
        for i, j in line4.arcs():
            k, p = _best_budget(f_table[gate.gid], line4.beta_of(i, j))
            assert fid.gate_error(gate.gid, i, j) == -math.log(p)
            k, p = _best_budget(f_swap_table[gate.gid], line4.beta_of(i, j))
            assert fid.gate_error(gate.gid, i, j, merged=True) == -math.log(p)
    for k, (i, j) in enumerate(line4.edges):
        assert fid.swap_errors[k] == -3.0 * math.log(line4.beta_of(i, j))
        assert fid.swap_error(i, j) == fid.swap_error(j, i) == fid.swap_errors[k]
    mean_beta = sum(line4.beta.values()) / len(line4.beta)
    assert fid.mean_swap_error() == -3.0 * math.log(mean_beta)


def per_gate_tables(c, overrides=None):
    """The tables one ``cnot_budget_fidelities`` call per matrix gives."""
    overrides = overrides or {}
    f, fs = {}, {}
    for gate in c.gates():
        if gate.gid in overrides:
            f[gate.gid] = tuple(overrides[gate.gid]["f"])
            fs[gate.gid] = tuple(overrides[gate.gid]["f_swap"])
        else:
            f[gate.gid] = cnot_budget_fidelities(gate.unitary)
            fs[gate.gid] = cnot_budget_fidelities(SWAP @ gate.unitary)
    return f, fs


def tables_built(c, g, overrides=None):
    """The ``(f_table, f_swap_table)`` that ``FidelityModel.build`` prices
    ``c`` from, as its constructor receives them."""
    seen = []

    class Recording(FidelityModel):
        def __init__(self, graph, f_table, f_swap_table):
            seen.append((f_table, f_swap_table))
            super().__init__(graph, f_table, f_swap_table)

    Recording.build(c, g, overrides=overrides)
    return seen[0]


def test_batched_pricing_equals_per_gate_pricing_bit_for_bit():
    # FidelityModel.build prices every gate without an override in one
    # stack; each table must equal the per-gate call exactly.
    y6 = builtin_topology("y", 6)
    qv = [lower_circuit(gen_qv_circuit(6, [3, k])) for k in range(4)]
    named = LayeredCircuit(6, ((Gate(0, 1, CX, 0), Gate(2, 3, SWAP, 1),
                                Gate(4, 5, np.eye(4), 2)),
                               (Gate(1, 2, SWAP @ CX, 3), Gate(3, 4, CX, 4))))
    some = {0: {"f": [0.5, 0.9, 1.0, 1.0], "f_swap": [0.4, 0.4, 0.6, 1.0]},
            4: {"f": [0.3, 0.7, 0.9, 1.0], "f_swap": [0.2, 0.5, 0.8, 1.0]}}
    every = {gate.gid: some[0] for gate in qv[0].gates()}
    empty = LayeredCircuit(6, ((), ()))
    cases = [(c, None) for c in qv] + [(named, None), (qv[0], some), (named, some),
                                       (qv[0], every), (empty, None)]
    for c, overrides in cases:
        # Float equality, no tolerance.
        assert tables_built(c, y6, overrides) == per_gate_tables(c, overrides)
    assert tables_built(empty, y6) == ({}, {})


def test_a_gate_whose_determinant_is_off_loads_prices_and_transpiles(tmp_path, capsys):
    # diag(1 + 4e-9, ...) is 8e-9 off unitary, within the loader's 1e-8,
    # while its determinant is 1.6e-8 off one. Loader and pricing share
    # one rule, so a document the loader accepts is routed (exit 0).
    off = np.diag([1 + 4e-9] * 4).astype(complex)
    assert abs(abs(np.linalg.det(off)) - 1) > 1e-8
    c = LayeredCircuit(4, ((Gate(0, 1, CX, 0), Gate(2, 3, off, 1)),))
    assert tables_built(c, builtin_topology("line", 4))[0][1] == cnot_budget_fidelities(off)
    doc = tmp_path / "off.json"
    doc.write_text(json.dumps(dump_circuit(c)))
    code = main(["transpile", "--builtin", "line,4", "--circuit", str(doc)])
    assert code == 0, capsys.readouterr().err
    assert "unitary: ok" in capsys.readouterr().out


def test_batched_pricing_names_a_non_unitary_gate_built_in_code():
    # A payload swapped in after the gate was made skips the loader; the
    # pricing checks the same rule and names the gate.
    gate = Gate(2, 3, CX, 1)
    gate.unitary = np.diag([1 + 4e-6, 1, 1, 1]).astype(complex)
    c = LayeredCircuit(4, ((Gate(0, 1, CX, 0), gate),))
    with pytest.raises(FidelityError, match="^gate 1 is not unitary$"):
        FidelityModel.build(c, builtin_topology("line", 4))
    with pytest.raises(FidelityError, match="^matrix is not unitary$"):
        cnot_budget_fidelities(gate.unitary)


@pytest.mark.parametrize("entry", [np.inf, np.nan])
def test_batched_pricing_names_a_gate_made_non_finite_after_construction(entry):
    # The determinant would warn on such a payload; the unitarity rule
    # counts it as an infinite defect first.
    gate = Gate(2, 3, CX, 1)
    gate.unitary = gate.unitary.copy()
    gate.unitary[0, 0] = entry
    c = LayeredCircuit(4, ((Gate(0, 1, CX, 0), gate),))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FidelityError, match="^gate 1 is not unitary$"):
            FidelityModel.build(c, builtin_topology("line", 4))


ISWAP = np.array([[1, 0, 0, 0], [0, 0, 1j, 0], [0, 1j, 0, 0], [0, 0, 0, 1]])
SQRT_SWAP = np.array([[1, 0, 0, 0],
                      [0, (1 + 1j) / 2, (1 - 1j) / 2, 0],
                      [0, (1 - 1j) / 2, (1 + 1j) / 2, 0],
                      [0, 0, 0, 1]])


def canonical_gate(a: float, b: float, c: float) -> np.ndarray:
    """exp(i (a XX + b YY + c ZZ))."""
    x, y, z = np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1, -1])
    w, v = np.linalg.eigh(a * np.kron(x, x) + b * np.kron(y, y) + c * np.kron(z, z))
    return (v * np.exp(1j * w)) @ v.conj().T


def test_stacked_fold_matches_the_one_spectrum_fold_bit_for_bit():
    # The fold of a whole stack gives, to the last bit, what the plain
    # one-spectrum fold gives on each row: on Haar-random gates, on named
    # gates with degenerate spectra, on canonical gates at multiples of
    # pi/8, and on the swap-merged form of each. On many of the last, two
    # raw angles lie equally far from the pi/2 lattice, so the sort's tie
    # order decides which becomes which coordinate.
    haar = np.stack([haar_su4([97, k]) for k in range(400)])
    named = np.stack([np.eye(4, dtype=complex), CX, SWAP, ISWAP, SQRT_SWAP])
    steps = [k * math.pi / 8 for k in range(-4, 5)]
    grid = np.stack([canonical_gate(*abc) for abc in itertools.product(steps, repeat=3)])
    decisive = 0
    for us in (haar, SWAP @ haar, named, SWAP @ named, grid, SWAP @ grid):
        eigs = _spectra(us)
        got = _fold_spectra(eigs)
        assert got == _weyl_batch(us)
        want = [reference_fold_spectrum(e) for e in eigs]
        assert [tuple(map(repr, t)) for t in got] == [tuple(map(repr, t)) for t in want]
        for e in eigs:
            raw, near = lattice_offsets(e)
            decisive += any(near[i] == near[j] and raw[i] != raw[j]
                            for i, j in itertools.combinations(range(3), 2))
    assert decisive >= 100


def test_edge_costs_are_priced_once_per_gate_and_distinct_beta(monkeypatch):
    # Three of the five edges share the default beta: each gate is priced
    # three times plain and three times merged, and every edge gets what
    # pricing it alone gives.
    g = HardwareGraph(n=6, edges=((0, 1), (1, 2), (2, 3), (3, 4), (4, 5)),
                      beta={(1, 2): 0.97, (3, 4): 0.985})
    c, _ = prepared(random_layered_circuit(6, (3, 2), seed=17), g, 1)
    calls = []

    def counting(fids, beta):
        calls.append(beta)
        return _best_budget(fids, beta)

    monkeypatch.setattr(qaroute.gatefid, "_best_budget", counting)
    fid = FidelityModel.build(c, g)
    assert len(calls) == 2 * 3 * len(c.gates())
    for gate in c.gates():
        for i, j in g.edges:
            for merged, table in enumerate(per_gate_tables(c)):
                k, p = _best_budget(table[gate.gid], g.beta_of(i, j))
                assert fid.cnots(gate.gid, j, i, merged) == k
                assert fid.gate_error(gate.gid, j, i, merged) == -math.log(p)


def test_every_row_entry_is_the_log_of_its_best_budget_bit_for_bit():
    # Drawn betas, some shared, and a circuit whose first two gates take
    # their tables from an override document.
    rng = np.random.default_rng(23)
    g = builtin_topology("grid", 8)
    drawn = rng.uniform(0.9, 1.0, 3)
    g = HardwareGraph(n=g.n, edges=g.edges,
                      beta={e: float(drawn[rng.integers(3)]) for e in g.edges})
    overrides = {gid: {"f": sorted(rng.uniform(0.2, 1.0, 3).tolist()) + [1.0],
                       "f_swap": sorted(rng.uniform(0.2, 1.0, 3).tolist()) + [1.0]}
                 for gid in (0, 1)}
    c, fid = prepared(random_layered_circuit(8, (4, 3, 2), seed=24), g, 1,
                      overrides=overrides)
    for gate in c.gates():
        for merged, table in enumerate(per_gate_tables(c, overrides)):
            cnot_row = fid.cnot_rows[gate.gid][merged]
            error_row = fid.error_rows[gate.gid][merged]
            assert len(cnot_row) == len(error_row) == len(g.edges)
            for col, (i, j) in enumerate(g.edges):
                k, p = _best_budget(table[gate.gid], g.beta_of(i, j))
                assert cnot_row[col] == k and error_row[col].hex() == (-math.log(p)).hex()
                for a, b in ((i, j), (j, i)):
                    assert fid.cnots(gate.gid, a, b, merged) == k
                    assert fid.gate_error(gate.gid, a, b, merged).hex() == (-math.log(p)).hex()
    assert list(tables_built(c, g, overrides)[0][0]) == overrides[0]["f"]
