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
from qaroute.solver import _OBJ_EPS, _fold

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
    ms = enumerate_matchings(builtin_topology("line", n), n // 2)
    assert len(ms) == fib[n]
    for m in ms:
        nodes = [v for e in m for v in e]
        assert len(nodes) == len(set(nodes))


def scalar_fold(tgt, key, rows, slack, held, targets):
    """Each target's winner by the within-slack rule, in plain Python over
    lists: the target's incumbent (when it has one) and its candidates
    form one field; objective by objective the field keeps what lies
    within the slack of its least value; then the incumbent wins if it is
    left, else the least key."""
    tgt, key = tgt.tolist(), key.tolist()
    rows = [r.tolist() for r in rows]
    held = None if held is None else [h.tolist() for h in held]
    winners = set()
    for t in range(targets):
        # (rank, values, index): the incumbent ranks ahead of every key.
        field = [(k, [r[i] for r in rows], i) for i, (u, k) in enumerate(zip(tgt, key)) if u == t]
        if held is not None and held[0][t] != float("inf"):
            field.append((float("-inf"), [h[t] for h in held], None))
        for o, s in enumerate(slack):
            if field:
                least = min(values[o] for _, values, _ in field)
                field = [f for f in field if f[1][o] <= least + s]
        if field:
            index = min(field, key=lambda f: f[0])[2]
            if index is not None:
                winners.add(index)
    return winners


ORDERS = [("error",), ("error", "depth"), ("depth", "error"), ("error", "crosstalk"),
          ("crosstalk", "error", "depth"), ("depth", "crosstalk", "error"),
          ("error", "crosstalk", "depth"), ("depth",)]


@st.composite
def fold_cases(draw):
    """Candidates for a few targets. Errors sit at quarter multiples of the
    slack from a base (at, inside and just past s/2, s and 2s of each
    other), nudged by an ulp-scale amount or not; depth and crosstalk
    are small integers that repeat. Incumbents, when drawn, look alike."""
    order = draw(st.sampled_from(ORDERS))
    slack = [_OBJ_EPS[o] for o in order[:-1]] + [0.0]
    targets = draw(st.integers(1, 4))
    base = draw(st.sampled_from([0.0, 0.1, 0.37, 1.3]))

    def value(o):
        if o == "error":
            step = draw(st.integers(0, 12)) * 0.25e-6
            nudge = draw(st.sampled_from([0.0, 1e-15, -1e-15, 1e-9]))
            return base + step + nudge
        return float(draw(st.integers(0, 2)))

    tgt, key, rows = [], [], [[] for _ in order]
    for t in range(targets):
        for k in draw(st.lists(st.integers(0, 30), min_size=0, max_size=6, unique=True)):
            tgt.append(t)
            key.append(k)
            for row, o in zip(rows, order):
                row.append(value(o))
    perm = draw(st.permutations(range(len(tgt))))  # the fold keys by key, not position
    tgt = np.array(tgt, dtype=np.int64)[list(perm)]
    key = np.array(key, dtype=np.int64)[list(perm)]
    rows = [np.array(r, dtype=float)[list(perm)] for r in rows]
    held = None
    if draw(st.booleans()):
        held = [np.full(targets, np.inf) for _ in order]
        for t in range(targets):
            if draw(st.booleans()):
                for h, o in zip(held, order):
                    h[t] = value(o)
    return tgt, key, rows, slack, held, targets


@settings(max_examples=400, deadline=None)
@given(fold_cases())
def test_fold_picks_the_within_slack_winner(case):
    tgt, key, rows, slack, held, targets = case
    scratch = np.full(targets, np.inf)
    got = _fold(tgt, key, rows, slack, held, scratch)
    assert set(got.tolist()) == scalar_fold(tgt, key, rows, slack, held, targets)
    assert len(got) == len(set(tgt[got].tolist()))
    assert np.isinf(scratch).all()


@settings(max_examples=200, deadline=None)
@given(fold_cases(), st.integers(10**5, 2**40))
def test_fold_takes_large_keys_alike_as_ints_and_floats(case, offset):
    # Matching indices reach past 10^5 on the larger DP steps; keys a
    # unit apart must stay apart however the fold holds them.
    tgt, key, rows, slack, held, targets = case
    key = key + offset
    want = scalar_fold(tgt, key, rows, slack, held, targets)
    for k in (key, key.astype(float)):
        scratch = np.full(targets, np.inf)
        assert set(_fold(tgt, k, rows, slack, held, scratch).tolist()) == want
        assert np.isinf(scratch).all()


def test_fold_picks_the_least_key_among_many_exact_ties():
    # DP-sized: 200,000 candidates over 1,000 targets with keys up to
    # 3 * 10^5 and few distinct values, so most targets tie; the winner
    # is the least (value, key) by an independent sort.
    rng = np.random.default_rng(31)
    tgt = rng.integers(0, 1000, size=200_000)
    key = rng.permutation(300_000)[:200_000]
    rows = [rng.integers(0, 3, size=200_000).astype(float)]
    by = np.lexsort((key, rows[0], tgt))
    first = np.ones(len(by), dtype=bool)
    first[1:] = tgt[by[1:]] != tgt[by[:-1]]
    for k in (key, key.astype(float)):
        scratch = np.full(1000, np.inf)
        got = _fold(tgt, k, rows, [0.0], None, scratch)
        assert np.array_equal(np.sort(got), np.sort(by[first]))
        assert np.isinf(scratch).all()


def test_fold_stops_a_chain_of_near_ties_at_the_slack():
    # Errors 0, 0.9s and 1.8s above 0.2 with depths 2, 1, 0: each is
    # within the slack of the one before it, but only the first two lie
    # within the slack of the least, so the middle one wins on depth. A
    # fold that took each value better than the last within the slack
    # would end on the third, 1.8s above the least.
    s = _OBJ_EPS["error"]
    tgt = np.array([0, 0, 0, 1])
    key = np.array([3, 5, 8, 0])
    rows = [np.array([0.2, 0.2 + 0.9 * s, 0.2 + 1.8 * s, 0.4]), np.array([2.0, 1.0, 0.0, 0.0])]
    for held in (None, [np.array([np.inf, 0.5]), np.array([np.inf, 0.0])]):
        got = _fold(tgt, key, rows, [s, 0.0], held, np.full(2, np.inf))
        assert set(got.tolist()) == scalar_fold(tgt, key, rows, [s, 0.0], held, 2) == {1, 3}
        assert all(rows[0][i] <= rows[0][tgt == tgt[i]].min() + s for i in got)
