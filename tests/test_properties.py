"""Invariant checks over randomized inputs."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qaroute.circuit import Gate, layerize
from qaroute.extract import verify_structural, verify_unitary
from qaroute.gatefid import FidelityModel, cnot_budget_fidelities, exact_cnot_fidelities
from qaroute.heuristic import heuristic_route
from qaroute.hwgraph import builtin_topology, enumerate_matchings
from qaroute.qvbench import haar_su4
from qaroute.simulate import exchange_qubits, permutation_matrix

pairs = st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(lambda t: t[0] != t[1])


@settings(max_examples=40, deadline=None)
@given(st.lists(pairs, max_size=12))
def test_layerize_partitions_and_preserves_order(seq):
    gates = [Gate(p, q, np.eye(4, dtype=complex), gid=k)
             for k, (p, q) in enumerate(seq)]
    c = layerize(gates, n_qubits=5)
    flat = c.gates()
    assert sorted(g.gid for g in flat) == list(range(len(seq)))
    for grp in c.groups:
        ops = [o for g in grp for o in g.operands]
        assert len(ops) == len(set(ops))
        assert grp  # ASAP layering never leaves a hole
    when = {g.gid: t for t, grp in enumerate(c.groups) for g in grp}
    last = [-1] * 5
    for k, (p, q) in enumerate(seq):
        assert when[k] > last[p] and when[k] > last[q]
        last[p] = last[q] = when[k]


@settings(max_examples=30, deadline=None)
@given(st.permutations(range(4)), st.permutations(range(4)))
def test_permutation_matrix_is_a_homomorphism(d1, d2):
    comp = tuple(d2[d1[q]] for q in range(4))
    assert np.allclose(permutation_matrix(comp),
                       permutation_matrix(d2) @ permutation_matrix(d1))
    p = permutation_matrix(d1)
    assert np.allclose(p @ p.conj().T, np.eye(16))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_budget_fidelities_monotone_and_exchange_invariant(seed):
    u = haar_su4(seed)
    f = cnot_budget_fidelities(u)
    assert all(a <= b + 1e-12 for a, b in zip(f, f[1:]))
    assert f[3] == pytest.approx(1.0, abs=1e-9)
    assert all(0.0 <= v <= 1.0 + 1e-12 for v in f)
    g = cnot_budget_fidelities(exchange_qubits(u))
    assert g == pytest.approx(f, abs=1e-9)
    exact = exact_cnot_fidelities(u)
    assert all(e <= b + 1e-12 for e, b in zip(exact, f))


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**32 - 1), st.permutations(range(4)))
def test_greedy_router_preserves_the_circuit(seed, init):
    rng = np.random.default_rng(seed)
    gates = []
    for k in range(6):
        p, q = (int(v) for v in rng.choice(4, size=2, replace=False))
        gates.append(Gate(p, q, haar_su4(rng), gid=k))
    c = layerize(gates, n_qubits=4)
    g = builtin_topology("line", 4)
    rc = heuristic_route(c, g, tuple(init), FidelityModel.build(c, g))
    assert verify_structural(rc, c, g) is None
    assert verify_unitary(rc, c) <= 1e-8


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_line_matchings_count_is_fibonacci(n):
    fib = [1, 1]
    while len(fib) <= n + 1:
        fib.append(fib[-1] + fib[-2])
    ms = enumerate_matchings(builtin_topology("line", n))
    assert len(ms) == fib[n]
    for m in ms:
        nodes = [v for e in m for v in e]
        assert len(nodes) == len(set(nodes))
