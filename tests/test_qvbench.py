import math
import os
from dataclasses import replace

import numpy as np
import pytest

from helpers import RecordingPool, prepared
from qaroute import qvbench
from qaroute.circuit import dump_circuit, insert_dummy_steps, pad_qubits
from qaroute.qvbench import (BenchError, HopEstimate, _estimate, _pearson,
                             benchmark_batch, gen_qv_circuit, haar_su4,
                             heavy_output_mass, hop_under_noise,
                             ideal_probs, lower_circuit, qv_instance)
from qaroute.heuristic import run_variant_full
from qaroute.simulate import embed_two_qubit, is_unitary
from qaroute.solver import NoRouteError, SolveLimits


def test_haar_su4_properties():
    u = haar_su4(7)
    assert is_unitary(u)
    assert np.linalg.det(u) == pytest.approx(1.0, abs=1e-12)
    assert np.array_equal(haar_su4(7), u)
    assert not np.allclose(haar_su4(8), u)
    rng = np.random.default_rng(9)
    a, b = haar_su4(rng), haar_su4(rng)
    assert not np.allclose(a, b)


def test_gen_qv_circuit_shape():
    qv = gen_qv_circuit(4, 11)
    assert qv.width == 4 and qv.depth == 4
    for perm, sus in qv.layers:
        assert sorted(perm) == [0, 1, 2, 3]
        assert len(sus) == 2
        assert all(is_unitary(u) for u in sus)
    again = gen_qv_circuit(4, 11)
    assert [perm for perm, _ in again.layers] == [perm for perm, _ in qv.layers]
    assert all(np.array_equal(u1, u2)
               for (_, s1), (_, s2) in zip(again.layers, qv.layers)
               for u1, u2 in zip(s1, s2))
    assert sum(len(sus) for _, sus in qv.layers) == 8
    with pytest.raises(BenchError):
        gen_qv_circuit(1, 0)


def test_lower_circuit_layers_and_truncation():
    qv = gen_qv_circuit(4, 12)
    c = lower_circuit(qv)
    assert c.n_qubits == 4
    assert len(c.groups) == 4
    gids = [gt.gid for grp in c.groups for gt in grp]
    assert gids == list(range(8))
    # The k-th SU(4) of a layer acts on entries 2k and 2k + 1 of its
    # permutation.
    for grp, (perm, sus) in zip(c.groups, qv.layers):
        assert [(gt.p, gt.q) for gt in grp] == [(perm[2 * k], perm[2 * k + 1])
                                                for k in range(len(sus))]
        assert all(gt.unitary is u for gt, u in zip(grp, sus))
    short = lower_circuit(replace(qv, layers=qv.layers[:2]))
    assert len(short.groups) == 2
    assert short.groups == c.groups[:2]


def test_ideal_probs_distribution():
    qv = gen_qv_circuit(3, 13)
    probs = ideal_probs(qv)
    assert probs.shape == (8,)
    assert float(probs.sum()) == pytest.approx(1.0, abs=1e-12)
    # Same amplitudes via an explicit product of embedded unitaries.
    u = np.eye(8, dtype=complex)
    for perm, sus in qv.layers:
        for k, su in enumerate(sus):
            u = embed_two_qubit(su, perm[2 * k], perm[2 * k + 1], 3) @ u
    assert np.allclose(probs, np.abs(u[:, 0]) ** 2, atol=1e-12)


def test_heavy_set_is_strict_upper_median():
    qv = gen_qv_circuit(4, 14)
    probs = ideal_probs(qv)
    med = float(np.median(probs))
    heavy, mass = heavy_output_mass(qv)
    for i in range(16):
        bits = format(i, "04b")
        assert (bits in heavy) == (probs[i] > med)
    assert mass == pytest.approx(sum(probs[int(b, 2)] for b in heavy))
    assert 0.5 < mass <= 1.0
    assert len(heavy) <= 8


def test_hop_mixture_formula(line4):
    # The heavy set is the routed circuit's: the draw cut to two layers.
    qv = qv_instance(4, 15, 4, n_layers=2)[0]
    assert qv.depth == 2
    c, fid = prepared(lower_circuit(qv), line4, 1)
    run = run_variant_full("sabre_like", c, line4, fid)
    rc, st = run.routed, run.stats
    heavy, h_ideal = heavy_output_mass(qv)
    s = math.exp(-st.error_objective_value)
    expected = s * h_ideal + (1.0 - s) * len(heavy) / 16.0
    assert hop_under_noise(qv, rc, fid) == pytest.approx(expected, abs=1e-12)
    # Perfect execution scores the ideal heavy mass, total failure the
    # uniform baseline; the mixture sits strictly between.
    assert len(heavy) / 16.0 < hop_under_noise(qv, rc, fid) < h_ideal


def test_estimate_and_threshold():
    one = _estimate([0.8])
    assert one.mean == 0.8 and one.stderr is None and one.passes
    est = _estimate([0.5, 0.7])
    assert est.mean == pytest.approx(0.6)
    assert est.stderr == pytest.approx(np.std([0.5, 0.7], ddof=1) / math.sqrt(2))
    assert not est.passes
    assert isinstance(est, HopEstimate)


def test_pearson_edge_cases():
    assert _pearson([1.0, 1.0, 1.0], [0.1, 0.2, 0.3]) is None
    assert _pearson([1.0], [0.5]) is None
    assert _pearson([1.0, 2.0, 3.0], [2.0, 4.0, 6.0]) == pytest.approx(1.0)
    assert _pearson([1.0, 2.0, 3.0], [3.0, 2.0, 1.0]) == pytest.approx(-1.0)


def test_benchmark_batch_rows_and_table(line4):
    res = benchmark_batch(3, 4, ("sabre_like",), line4, seed=16,
                          dummy_steps=1, n_layers=2)
    assert res.width == 4
    assert len(res.rows) == 3
    assert [r.circuit for r in res.rows] == [0, 1, 2]
    assert set(res.estimates) == {"sabre_like"}
    assert set(res.correlations) == {("sabre_like", m) for m in
                                     ("cnot_count", "depth_proxy", "error_objective")}
    table = res.to_table()
    assert table.startswith("circuit\tvariant\t")
    assert "variant\tmean_hop\tstderr\tpasses_2_3" in table
    assert "pearson_r_vs_hop" in table
    # header + 3 rows, blank, estimate header + 1 row, blank,
    # correlation header + 3 rows
    assert len(table.strip().split("\n")) == 4 + 1 + 2 + 1 + 4


def test_qv_instance_draws_lowers_pads_and_spaces(monkeypatch):
    qv, c = qv_instance(4, [3, 1], 6, n_layers=2, dummy_steps=1)
    draw = gen_qv_circuit(4, [3, 1])
    cut = lower_circuit(replace(draw, layers=draw.layers[:2]))
    assert dump_circuit(c) == dump_circuit(insert_dummy_steps(pad_qubits(cut, 6), 1))
    # The QV circuit is the draw cut to the layers that are routed.
    assert dump_circuit(lower_circuit(qv)) == dump_circuit(cut)
    assert qv.depth == 2
    full = qv_instance(4, [3, 1], 6, dummy_steps=1)[0]
    assert dump_circuit(lower_circuit(full)) == dump_circuit(lower_circuit(gen_qv_circuit(4, [3, 1])))
    # A width above the node count is refused before the draw.
    monkeypatch.setattr(qvbench, "gen_qv_circuit", lambda *args: pytest.fail("drawn"))
    with pytest.raises(BenchError, match="width 7 exceeds the graph's 6 nodes"):
        qv_instance(7, 0, 6)


def test_benchmark_batch_scores_the_truncated_circuit(line4):
    # One layer of a 4-layer draw is routed, so its HOP is the mixture
    # with the heavy set of that one layer, not of the whole draw.
    res = benchmark_batch(1, 4, ("sabre_like",), line4, seed=1, dummy_steps=2, n_layers=1)
    qv = gen_qv_circuit(4, [1, 0])
    cut = replace(qv, layers=qv.layers[:1])
    heavy, h_ideal = heavy_output_mass(cut)
    assert h_ideal != pytest.approx(heavy_output_mass(qv)[1], abs=1e-3)
    row = res.rows[0]
    s = math.exp(-row.error_objective)
    assert row.hop == pytest.approx(s * h_ideal + (1.0 - s) * len(heavy) / 16.0, abs=1e-12)


def test_benchmark_batch_invalid():
    from qaroute.hwgraph import builtin_topology
    with pytest.raises(BenchError):
        benchmark_batch(0, 4, ("sabre_like",), builtin_topology("line", 4))


@pytest.mark.parametrize("cpus, pools", [(4, [2]), (1, [])])
def test_benchmark_pool_capped_at_circuits_and_cpus(cpus, pools, line4, monkeypatch):
    monkeypatch.setattr(qvbench, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    benchmark_batch(2, 4, ("sabre_like",), line4, seed=3, dummy_steps=1, n_layers=2,
                    jobs=3)
    assert RecordingPool.sizes == pools


def test_benchmark_parallel_matches_serial(line4):
    kw = dict(w=4, variants=("bip", "sabre_like"), g=line4, seed=17,
              dummy_steps=1, n_layers=2, lim=SolveLimits())
    serial = benchmark_batch(2, jobs=1, **kw)
    parallel = benchmark_batch(2, jobs=2, **kw)
    assert serial.rows == parallel.rows
    assert serial.estimates == parallel.estimates
    assert serial.correlations == parallel.correlations
    # Exact legs never lose to the greedy router on the same circuit.
    by = {(r.circuit, r.variant): r for r in serial.rows}
    for idx in range(2):
        assert (by[(idx, "bip")].error_objective
                <= by[(idx, "sabre_like")].error_objective + 1e-9)
        assert by[(idx, "bip")].hop >= by[(idx, "sabre_like")].hop - 1e-9


def test_a_run_without_a_route_is_a_row_outside_the_estimates(line4, monkeypatch):
    # The second run raises NoRouteError: it becomes a no_route row with
    # no figures, and the HOP estimate and correlations use the other two.
    real, calls = qvbench.run_variant_full, []

    def second_has_no_route(*args):
        calls.append(args[0])
        if len(calls) == 2:
            raise NoRouteError("instance is infeasible")
        return real(*args)

    monkeypatch.setattr(qvbench, "run_variant_full", second_has_no_route)
    res = benchmark_batch(3, 4, ("sabre_like",), line4, seed=16, dummy_steps=1, n_layers=2)
    assert [r.status for r in res.rows] == ["ok", "no_route", "ok"]
    gone = res.rows[1]
    assert (gone.cnot_count, gone.depth_proxy, gone.error_objective, gone.hop) == (None,) * 4
    kept = [res.rows[0], res.rows[2]]
    assert res.estimates["sabre_like"] == _estimate([r.hop for r in kept])
    assert res.correlations[("sabre_like", "error_objective")] == _pearson(
        [r.error_objective for r in kept], [r.hop for r in kept])
    assert res.to_table().split("\n")[2] == "1\tsabre_like\t\t\t\t\tno_route"
