"""Quantum-volume style benchmark circuits and heavy-output scoring.

Circuits are square: w layers, each a random permutation of the
register followed by floor(w/2) Haar-random SU(4) gates on consecutive
pairs. Noise enters analytically: a routed circuit succeeds with
probability exp(-error objective), and a failed run outputs a uniform
bitstring, so its heavy probability is the heavy-set size over 2^w.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuit import Gate, LayeredCircuit, insert_dummy_steps, pad_qubits
from .extract import RoutedCircuit, stats
from .gatefid import FidelityModel
from .heuristic import HeuristicConfig, run_variant_full
from .hwgraph import HardwareGraph
from .simulate import apply_two_qubit, zero_state
from .solver import SolveLimits


class BenchError(ValueError):
    """Raised for invalid benchmark parameters."""


def haar_su4(seed) -> np.ndarray:
    """One Haar-random SU(4) matrix; ``seed`` may be anything
    numpy's default_rng accepts, including a Generator."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    z = (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    q = q * (d / np.abs(d))
    return q / np.linalg.det(q) ** 0.25


@dataclass(frozen=True)
class QvCircuit:
    width: int
    seed: object
    # per layer: (permutation of range(width), tuple of SU(4) matrices)
    layers: tuple

    @property
    def depth(self) -> int:
        return len(self.layers)

    def gate_pairs(self) -> list[tuple[int, int]]:
        out = []
        for perm, sus in self.layers:
            for k in range(len(sus)):
                out.append((perm[2 * k], perm[2 * k + 1]))
        return out


def gen_qv_circuit(w: int, seed) -> QvCircuit:
    if w < 2:
        raise BenchError("width must be at least 2")
    rng = np.random.default_rng(seed)
    layers = []
    for _ in range(w):
        perm = tuple(int(v) for v in rng.permutation(w))
        sus = tuple(haar_su4(rng) for _ in range(w // 2))
        layers.append((perm, sus))
    return QvCircuit(width=w, seed=seed, layers=tuple(layers))


def lower_circuit(qv: QvCircuit, n_layers: int | None = None) -> LayeredCircuit:
    """QvCircuit as a LayeredCircuit; permutations fold into which
    logical pairs receive the gates, no explicit permutation ops.
    Optionally truncate to the first ``n_layers`` layers."""
    layers = qv.layers if n_layers is None else qv.layers[:n_layers]
    groups = []
    gid = 0
    for perm, sus in layers:
        grp = []
        for k, u in enumerate(sus):
            grp.append(Gate(p=perm[2 * k], q=perm[2 * k + 1], unitary=u, gid=gid))
            gid += 1
        groups.append(tuple(grp))
    return LayeredCircuit(n_qubits=qv.width, groups=tuple(groups))


def ideal_probs(qv: QvCircuit) -> np.ndarray:
    """Exact output distribution of the ideal circuit on |0...0>."""
    w = qv.width
    if w > 12:
        raise BenchError("width too large for statevector simulation")
    state = zero_state(w)
    for perm, sus in qv.layers:
        for k, u in enumerate(sus):
            state = apply_two_qubit(state, u, perm[2 * k], perm[2 * k + 1], w)
    return np.abs(state) ** 2


def heavy_output_mass(qv: QvCircuit) -> tuple[set[str], float]:
    """Heavy set (bitstrings strictly above the median ideal probability)
    and its ideal probability mass."""
    probs = ideal_probs(qv)
    mask = probs > np.median(probs)
    heavy = {format(i, f"0{qv.width}b") for i in np.flatnonzero(mask)}
    return heavy, float(probs[mask].sum())


def hop_under_noise(qv: QvCircuit, rc: RoutedCircuit, fid: FidelityModel) -> float:
    """Heavy output probability under the independent-failure mixture.

    The whole circuit succeeds with s = exp(-error objective) and then
    scores the ideal heavy mass; otherwise the output is uniform and
    scores |heavy| / 2^w.
    """
    error = stats(rc, fid, fid.graph).error_objective_value
    return _mixture(error, *heavy_output_mass(qv), qv.width)


def _mixture(error: float, heavy: set[str], h_ideal: float, width: int) -> float:
    s = math.exp(-error)
    return s * h_ideal + (1.0 - s) * len(heavy) / float(2 ** width)


@dataclass(frozen=True)
class HopEstimate:
    values: tuple[float, ...]
    mean: float
    stderr: float | None

    @property
    def passes(self) -> bool:
        return self.mean > 2.0 / 3.0


def _estimate(values: list[float]) -> HopEstimate:
    arr = np.asarray(values, dtype=float)
    mean = float(arr.mean())
    stderr = float(arr.std(ddof=1) / math.sqrt(len(arr))) if len(arr) > 1 else None
    return HopEstimate(values=tuple(values), mean=mean, stderr=stderr)


@dataclass(frozen=True)
class BenchRow:
    circuit: int
    variant: str
    cnot_count: int
    depth_proxy: int
    error_objective: float
    hop: float


@dataclass(frozen=True)
class BenchResult:
    width: int
    rows: tuple[BenchRow, ...]
    estimates: dict
    correlations: dict

    def to_table(self) -> str:
        lines = ["circuit\tvariant\tcnot_count\tdepth_proxy\terror_objective\thop"]
        for r in self.rows:
            lines.append(f"{r.circuit}\t{r.variant}\t{r.cnot_count}\t{r.depth_proxy}"
                         f"\t{r.error_objective:.12g}\t{r.hop:.12g}")
        lines.append("")
        lines.append("variant\tmean_hop\tstderr\tpasses_2_3")
        for v, est in self.estimates.items():
            se = "" if est.stderr is None else f"{est.stderr:.12g}"
            lines.append(f"{v}\t{est.mean:.12g}\t{se}\t{est.passes}")
        lines.append("")
        lines.append("variant\tmetric\tpearson_r_vs_hop")
        for (v, metric), r in self.correlations.items():
            rs = "" if r is None else f"{r:.6g}"
            lines.append(f"{v}\t{metric}\t{rs}")
        return "\n".join(lines) + "\n"


def _pearson(xs: list[float], ys: list[float]) -> float | None:
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if len(x) < 2 or float(x.std()) == 0.0 or float(y.std()) == 0.0:
        return None
    return float(np.corrcoef(x, y)[0, 1])


def _bench_one(task) -> list[BenchRow]:
    # Module-level so a process pool can pickle it; everything in the
    # task tuple is a plain dataclass, tuple, or dict.
    idx, w, seed, n_layers, g, dummy_steps, fid_overrides, variants, lim, cfg = task
    qv = gen_qv_circuit(w, [seed, idx])
    c = lower_circuit(qv, n_layers=n_layers)
    c = pad_qubits(c, g.n)
    c = insert_dummy_steps(c, dummy_steps)
    fid = FidelityModel.build(c, g, overrides=fid_overrides)
    heavy, h_ideal = heavy_output_mass(qv)
    out = []
    for v in variants:
        st = run_variant_full(v, c, g, fid, lim, cfg).stats
        hop = _mixture(st.error_objective_value, heavy, h_ideal, w)
        out.append(BenchRow(circuit=idx, variant=v, cnot_count=st.cnot_count,
                            depth_proxy=st.depth_proxy,
                            error_objective=st.error_objective_value, hop=hop))
    return out


def benchmark_batch(n_circuits: int, w: int, variants, g: HardwareGraph,
                    lim: SolveLimits | None = None, seed: int = 0,
                    fid_overrides: dict | None = None, dummy_steps: int = 2,
                    n_layers: int | None = None,
                    cfg: HeuristicConfig | None = None,
                    jobs: int = 1) -> BenchResult:
    """Route a batch of QV circuits with each variant and score HOP.

    Per-circuit randomness comes from the stream (seed, index), so a
    batch is reproducible regardless of execution order; with jobs > 1
    circuits are routed in a process pool of at most one worker per
    circuit and per CPU, and reassembled in order.
    Heavy sets are computed on the full-width ideal circuit once per
    circuit.
    """
    import os
    from concurrent.futures import ProcessPoolExecutor

    if n_circuits < 1:
        raise BenchError("need at least one circuit")
    variants = tuple(variants)
    lim = lim or SolveLimits()
    cfg = cfg or HeuristicConfig()
    tasks = [(idx, w, seed, n_layers, g, dummy_steps, fid_overrides,
              variants, lim, cfg) for idx in range(n_circuits)]
    workers = min(jobs, n_circuits, os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_circuit = list(pool.map(_bench_one, tasks))
    else:
        per_circuit = [_bench_one(t) for t in tasks]
    rows: list[BenchRow] = [r for chunk in per_circuit for r in chunk]
    hops: dict[str, list[float]] = {v: [] for v in variants}
    series: dict[tuple, list[float]] = {}
    for r in rows:
        hops[r.variant].append(r.hop)
        for metric, val in (("cnot_count", r.cnot_count),
                            ("depth_proxy", r.depth_proxy),
                            ("error_objective", r.error_objective)):
            series.setdefault((r.variant, metric), []).append(float(val))
    estimates = {v: _estimate(hops[v]) for v in variants}
    correlations = {}
    for v in variants:
        for metric in ("cnot_count", "depth_proxy", "error_objective"):
            correlations[(v, metric)] = _pearson(series[(v, metric)], hops[v])
    return BenchResult(width=w, rows=tuple(rows), estimates=estimates,
                       correlations=correlations)
