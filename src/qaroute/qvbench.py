"""Quantum-volume style benchmark circuits and heavy-output scoring.

Circuits are square: w layers, each a random permutation of the
register followed by floor(w/2) Haar-random SU(4) gates on consecutive
pairs. Noise enters analytically: a routed circuit succeeds with
probability exp(-error objective), and a failed run outputs a uniform
bitstring, so its heavy probability is the heavy-set size over 2^w.
"""

from __future__ import annotations

import itertools
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .circuit import Gate, LayeredCircuit, insert_dummy_steps, pad_qubits
from .extract import RoutedCircuit, stats
from .gatefid import FidelityModel
from .heuristic import run_variant_full
from .hwgraph import HardwareGraph
from .lexopt import LIMIT, NO_ROUTE, OK
from .simulate import apply_two_qubit, zero_state
from .solver import NoRouteError, SolveLimits


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


def _gates(qv: QvCircuit):
    """``(p, q, unitary)`` of each gate in program order: the k-th SU(4)
    of a layer acts on entries 2k and 2k + 1 of its permutation."""
    for perm, sus in qv.layers:
        for k, u in enumerate(sus):
            yield perm[2 * k], perm[2 * k + 1], u


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


def lower_circuit(qv: QvCircuit) -> LayeredCircuit:
    """QvCircuit as a LayeredCircuit; permutations fold into which
    logical pairs receive the gates, no explicit permutation ops."""
    gates, gids = _gates(qv), itertools.count()
    groups = tuple(tuple(Gate(p=p, q=q, unitary=u, gid=next(gids))
                         for p, q, u in itertools.islice(gates, len(sus)))
                   for _, sus in qv.layers)
    return LayeredCircuit(n_qubits=qv.width, groups=groups)


def qv_instance(w: int, seed, n_nodes: int, n_layers: int | None = None,
                dummy_steps: int = 2) -> tuple[QvCircuit, LayeredCircuit]:
    """``gen_qv_circuit(w, seed)`` cut to ``n_layers`` layers, and the
    circuit a router takes: it lowered, padded to ``n_nodes`` qubits,
    with ``dummy_steps`` empty steps between layers. A width above
    ``n_nodes`` is refused before the draw, quadratic in the width."""
    if w > n_nodes:
        raise BenchError(f"width {w} exceeds the graph's {n_nodes} nodes")
    qv = gen_qv_circuit(w, seed)
    qv = replace(qv, layers=qv.layers[:n_layers])
    c = pad_qubits(lower_circuit(qv), n_nodes)
    return qv, insert_dummy_steps(c, dummy_steps)


def ideal_probs(qv: QvCircuit) -> np.ndarray:
    """Exact output distribution of the ideal circuit on |0...0>."""
    w = qv.width
    if w > 12:
        raise BenchError("width too large for statevector simulation")
    state = zero_state(w)
    for p, q, u in _gates(qv):
        state = apply_two_qubit(state, u, p, q, w)
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
    mean: float | None  # None when no run of the variant found a route
    stderr: float | None

    @property
    def passes(self) -> bool:
        return self.mean is not None and self.mean > 2.0 / 3.0


def _estimate(values: list[float]) -> HopEstimate:
    if not values:
        return HopEstimate(values=(), mean=None, stderr=None)
    arr = np.asarray(values, dtype=float)
    mean = float(arr.mean())
    stderr = float(arr.std(ddof=1) / math.sqrt(len(arr))) if len(arr) > 1 else None
    return HopEstimate(values=tuple(values), mean=mean, stderr=stderr)


@dataclass(frozen=True)
class BenchRow:
    circuit: int
    variant: str
    status: str  # lexopt's OK, LIMIT or NO_ROUTE; a NO_ROUTE row has no figures
    cnot_count: int | None = None
    depth_proxy: int | None = None
    error_objective: float | None = None
    hop: float | None = None


@dataclass(frozen=True)
class BenchResult:
    width: int
    rows: tuple[BenchRow, ...]
    estimates: dict
    correlations: dict

    def to_table(self) -> str:
        lines = ["circuit\tvariant\tcnot_count\tdepth_proxy\terror_objective\thop\tstatus"]
        for r in self.rows:
            if r.status == NO_ROUTE:
                lines.append(f"{r.circuit}\t{r.variant}\t\t\t\t\t{r.status}")
            else:
                lines.append(f"{r.circuit}\t{r.variant}\t{r.cnot_count}\t{r.depth_proxy}"
                             f"\t{r.error_objective:.12g}\t{r.hop:.12g}\t{r.status}")
        lines.append("")
        lines.append("variant\tmean_hop\tstderr\tpasses_2_3")
        for v, est in self.estimates.items():
            mean = "" if est.mean is None else f"{est.mean:.12g}"
            se = "" if est.stderr is None else f"{est.stderr:.12g}"
            lines.append(f"{v}\t{mean}\t{se}\t{est.passes}")
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


def map_in_pool(fn, tasks: list, jobs: int) -> list:
    """``[fn(t) for t in tasks]``, in a process pool of at most ``jobs``
    workers and never more than one per task or per CPU; in process when
    that leaves a single worker. ``fn`` and the tasks must pickle."""
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers <= 1:
        return [fn(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks))


def _bench_one(task) -> list[BenchRow]:
    # Module-level so a process pool can pickle it; everything in the
    # task tuple is a plain dataclass, tuple, or dict.
    idx, w, seed, n_layers, g, dummy_steps, fid_overrides, variants, lim = task
    qv, c = qv_instance(w, [seed, idx], g.n, n_layers, dummy_steps)
    fid = FidelityModel.build(c, g, overrides=fid_overrides)
    heavy, h_ideal = heavy_output_mass(qv)
    out = []
    for v in variants:
        try:
            run = run_variant_full(v, c, g, fid, lim, seed)
        except NoRouteError:
            out.append(BenchRow(circuit=idx, variant=v, status=NO_ROUTE))
            continue
        st = run.stats
        hop = _mixture(st.error_objective_value, heavy, h_ideal, w)
        out.append(BenchRow(circuit=idx, variant=v, status=OK if run.closed else LIMIT,
                            cnot_count=st.cnot_count, depth_proxy=st.depth_proxy,
                            error_objective=st.error_objective_value, hop=hop))
    return out


def benchmark_batch(n_circuits: int, w: int, variants, g: HardwareGraph,
                    lim: SolveLimits | None = None, seed: int = 0,
                    fid_overrides: dict | None = None, dummy_steps: int = 2,
                    n_layers: int | None = None,
                    jobs: int = 1) -> BenchResult:
    """Route a batch of QV circuits with each variant and score HOP.

    Circuit ``index`` is ``qv_instance(w, [seed, index], ...)``, which
    refuses a width above the graph's node count. Each circuit draws from
    its own stream, so a batch is reproducible regardless of execution
    order; with jobs > 1 circuits are routed through ``map_in_pool`` and
    reassembled in order.
    ``seed`` also seeds the greedy layout search of every variant that
    uses one. Heavy sets are computed once per circuit, on the ideal
    circuit that is routed (cut to ``n_layers``). A run with no route is a ``NO_ROUTE`` row, left
    out of the HOP estimates and the correlations.
    """
    if n_circuits < 1:
        raise BenchError("need at least one circuit")
    variants = tuple(variants)
    lim = lim or SolveLimits()
    tasks = [(idx, w, seed, n_layers, g, dummy_steps, fid_overrides,
              variants, lim) for idx in range(n_circuits)]
    per_circuit = map_in_pool(_bench_one, tasks, jobs)
    rows: list[BenchRow] = [r for chunk in per_circuit for r in chunk]
    metrics = ("cnot_count", "depth_proxy", "error_objective")
    hops: dict[str, list[float]] = {v: [] for v in variants}
    series = {(v, metric): [] for v in variants for metric in metrics}
    for r in rows:
        if r.status == NO_ROUTE:
            continue
        hops[r.variant].append(r.hop)
        for metric in metrics:
            series[r.variant, metric].append(float(getattr(r, metric)))
    estimates = {v: _estimate(hops[v]) for v in variants}
    correlations = {key: _pearson(xs, hops[key[0]]) for key, xs in series.items()}
    return BenchResult(width=w, rows=tuple(rows), estimates=estimates,
                       correlations=correlations)
