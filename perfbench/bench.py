"""Request loop, checks accounting and metrics of the routing benchmark;
``run.py`` is its command line."""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

import numpy
import scipy
from qaroute import cli
from qaroute.extract import stats
from qaroute.solver import solve_exhaustive

import checks
from tracer import Tracer
from workloads import (DEFAULT_INSTANCE_SEED, WORKLOADS, circuit_path, cli_argv,
                       qv_source, request_order, write_circuits)

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
# Fresh interpreters timed per run; set-up is their median. Single starts
# vary up to 2x on a shared machine, in phases that last seconds, so after
# the first the starts come between the requests of the untraced passes,
# at most one per SETUP_EVERY_S.
SETUP_REPEATS = 5
SETUP_EVERY_S = 6.0
# Stop starting passes once the next one could push the process past
# this many seconds; one run must end well within 180 s.
PROCESS_BUDGET_S = 140.0
# Instances the reference DP enumerates quickly enough to time in a
# traced run, and to re-derive references for other instance seeds.
DP_MAX_NODES = 6
# Cap on the runs of one request within a pass (see Bench.run_pass).
MAX_REPEATS = 4


class Bench:
    def __init__(self, args, workload) -> None:
        self.args = args
        self.wl = workload
        if workload.seeded_instances:
            self.inst_seed = args.seed
        elif args.instance_seed is not None:
            self.inst_seed = args.instance_seed
        else:
            self.inst_seed = DEFAULT_INSTANCE_SEED
        self.work = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}"
        # A traced run reports only per-layer figures: one untraced pass
        # (the overhead baseline) and one traced pass are enough.
        self.least = 1 if args.quick or args.trace else workload.passes
        self.setup_times: list[float] = []
        self.last_setup = 0.0
        self.rows: list[dict] = []
        self.wrong: list[str] = []
        self.notes: list[str] = []

    # -- set-up ------------------------------------------------------------

    def time_setup(self, circuits: Path) -> None:
        """A fresh interpreter imports qaroute.cli and writes the circuits."""
        cmd = [sys.executable, str(HERE / "prepare.py"), self.wl.name,
               str(self.inst_seed), str(circuits)]
        # A blocking wait: subprocess's own timeout polls the child in
        # steps of up to 50 ms, which would quantize the measurement.
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=HERE.parent, stdout=subprocess.DEVNULL)
        guard = threading.Timer(120.0, proc.kill)
        guard.start()
        try:
            code = proc.wait()
        finally:
            guard.cancel()
        self.last_setup = time.perf_counter()
        self.setup_times.append(self.last_setup - t0)
        if code != 0:
            raise SystemExit(f"set-up step failed with exit code {code}")

    def load_references(self, instances) -> dict:
        if self.wl.reference_check is None:
            return {}
        refs = checks.load_references(self.inst_seed)
        out = {}
        for inst in instances:
            if refs:
                if refs.get(inst.name, {}).get("error") is None:
                    raise SystemExit(f"references.json has no optimum for {inst.name}")
                out[inst.name] = dict(refs[inst.name], verified=True)
            elif inst.nodes <= DP_MAX_NODES:
                # Another instance seed: the DP alone, outside setup_s.
                ref = self.dp_reference(inst)
                if ref is not None:
                    out[inst.name] = dict(ref, verified=False)
        return out

    def dp_reference(self, inst) -> dict | None:
        """The DP's route as a witness: its values, or None when the route
        itself fails the checks."""
        prep = self.prepared[inst.name]
        _, rc = solve_exhaustive(prep.circuit, prep.graph, prep.fid, ("error", "depth"))
        problem = checks.route_problem(rc, prep)
        if problem is not None:
            print(f"NOTE {inst.name}: no reference, the DP route fails a check: {problem}")
            return None
        return {"error": stats(rc, prep.fid, prep.graph).error_objective_value,
                "depth": checks.swap_depth(rc, prep.circuit), "source": "dp"}

    # -- requests ----------------------------------------------------------

    def request(self, cli, inst, circuit: Path, out: Path, tracer, label: str):
        if out.exists():
            shutil.rmtree(out)
        argv = cli_argv(self.wl, inst, circuit, out)
        sink = io.StringIO()
        crash = None
        if tracer is not None:
            tracer.request = label
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            t0 = time.perf_counter()
            try:
                code = cli.main(argv)
            except Exception:  # a crash is a failed request, never an abort
                code, crash = None, traceback.format_exc()
            seconds = time.perf_counter() - t0
        if tracer is not None:
            tracer.request = None
        return code, seconds, crash or sink.getvalue()[-400:]

    def run_pass(self, cli, pass_no: int, order, tracer=None) -> float:
        """One pass over the request set; returns the seconds measured.

        Outside traced and quick runs, a request whose runs in this pass
        add up to less than the workload's ``repeat_s`` is owed another
        run, up to MAX_REPEATS. After each request of the pass comes one
        owed run of another request (the least-run first), so repeats
        spread over the pass instead of running back to back: the
        machine's fast and slow phases last seconds, and a request's
        mean run needs samples taken at different times."""
        repeat_s = 0.0 if self.args.trace or self.args.quick else self.wl.repeat_s
        spent = {inst.name: 0.0 for inst in order}
        runs = {inst.name: 0 for inst in order}

        def run(k, inst):
            label = f"{pass_no}:{k}:{runs[inst.name]}"
            spent[inst.name] += self.run_request(cli, inst, label, pass_no, tracer)
            runs[inst.name] += 1

        def owed(after=None):
            due = [(k, i) for k, i in enumerate(order) if 0 < runs[i.name] < MAX_REPEATS
                   and spent[i.name] < repeat_s and i is not after]
            return sorted(due, key=lambda ki: runs[ki[1].name])

        for k, inst in enumerate(order):
            run(k, inst)
            for k2, extra in owed(after=inst)[:1]:
                run(k2, extra)
        while due := owed():
            for k, inst in due:
                run(k, inst)
        return math.fsum(spent.values())

    def run_request(self, cli, inst, label: str, pass_no: int, tracer) -> float:
        out = self.work / "routed" / inst.file_stem
        code, seconds, log = self.request(cli, inst, circuit_path(self.circuits, inst),
                                          out, tracer, label)
        ref = self.refs.get(inst.name)
        v = checks.check_request(code, out, self.prepared[inst.name], ref,
                                 self.wl.reference_check)
        if v.wrong:
            self.wrong.append(f"{inst.name}: {v.wrong}")
        if v.note:
            self.notes.append(f"{inst.name}: {v.note}")
        self.rows.append({
            "request": label, "pass": pass_no, "traced": tracer is not None,
            "instance": inst.name, "exit": code, "seconds": seconds,
            "routed": v.routed, "failure": v.failure, "wrong": v.wrong, "note": v.note,
            "error": v.error, "depth": v.depth, "cnots": v.cnots,
            "gates": self.prepared[inst.name].gates,
            "hop": self.prepared[inst.name].uniform if v.hop is None else v.hop,
            "excess_error": (None if ref is None or v.error is None
                             else v.error - ref["error"]),
            "log": log if (code != 0 or v.failure) else ""})
        if (tracer is None and not self.args.quick and len(self.setup_times) < SETUP_REPEATS
                and time.perf_counter() - self.last_setup > SETUP_EVERY_S):
            self.time_setup(self.work / "setup")
        return seconds

    def run_passes(self, cli, order, least: int, tracer=None) -> int:
        """Passes until at least ``least`` ran and ``--seconds`` of request
        time was measured, or the process budget would be exceeded."""
        passes = measured = 0
        while passes < least or (measured < self.args.seconds and not self.args.quick):
            t0 = time.perf_counter()
            measured += self.run_pass(cli, self.pass_count, order, tracer)
            self.pass_count += 1
            passes += 1
            if (time.perf_counter() - self.t_start
                    + 2.0 * (time.perf_counter() - t0) > PROCESS_BUDGET_S):
                break
        return passes

    def warm_up(self, cli) -> None:
        """One small request before timing, so lazy set-up is not timed."""
        tiny = WORKLOADS["exact_closed"]
        inst = tiny.instances[0]
        directory = self.work / "warmup"
        write_circuits(tiny, self.inst_seed, directory, only=(inst,))
        self.request(cli, inst, circuit_path(directory, inst), directory / "out", None, "warm")

    # -- the run -----------------------------------------------------------

    def run(self) -> dict:
        self.t_start = time.perf_counter()
        shutil.rmtree(self.work, ignore_errors=True)
        self.circuits = self.work / "circuits"
        self.time_setup(self.circuits)

        instances = self.wl.instances[:1] if self.args.quick else self.wl.instances
        order = [i for i in request_order(self.wl, self.args.seed) if i in instances]
        self.prepared = {i.name: checks.prepare(i, circuit_path(self.circuits, i),
                                                qv_source(i, self.inst_seed))
                         for i in instances}
        self.refs = self.load_references(instances)
        self.warm_up(cli)

        self.pass_count = 0
        self.run_passes(cli, order, self.least)
        while not self.args.quick and len(self.setup_times) < SETUP_REPEATS:
            self.time_setup(self.work / "setup")
        untraced_rows = list(self.rows)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        metrics = end_to_end(untraced_rows, self.setup_times, peak_rss_mb)
        per_layer = None
        spans = []
        if self.args.trace:
            tracer = Tracer()
            tracer.install()
            try:
                self.run_passes(cli, order, 1, tracer)
                # Scoring inputs (QV circuits, heavy sets) again, so the
                # qvbench spans time the work set-up does outside requests.
                for inst in instances:
                    checks.prepare(inst, circuit_path(self.circuits, inst),
                                   qv_source(inst, self.inst_seed))
                if self.wl.reference_check is not None:
                    for inst in instances:
                        if inst.nodes <= DP_MAX_NODES:
                            self.dp_reference(inst)
            finally:
                tracer.uninstall()
            spans = tracer.spans
            traced_rows = [r for r in self.rows if r["traced"]]
            per_layer = layer_metrics(spans, traced_rows, untraced_rows)
            attach_stages(traced_rows, spans)

        summary = quality(untraced_rows)
        self.write_record(metrics, per_layer, summary, spans)
        shown = per_layer if self.args.trace else metrics
        for name, m in shown.items():
            print(f"{self.wl.name} {name} {m['value']:.6g} {m['unit']}")
        for name, val in summary.items():
            print(f"{self.wl.name} {name} {val:.6g}")
        for msg in sorted(set(self.notes)):
            print(f"NOTE {msg}")
        for msg in self.wrong:
            print(f"WRONG {msg}")
        return {"correct": not self.wrong, "attempted": len(self.rows),
                "failed": sum(1 for r in self.rows if not r["routed"]),
                "metrics": shown}

    def write_record(self, metrics, per_layer, summary, spans) -> None:
        record = {
            "workload": self.wl.name, "seed": self.args.seed,
            "instance_seed": self.inst_seed, "trace": self.args.trace,
            "quick": self.args.quick,
            "cli_args": list(self.wl.cli_args), "variant": self.wl.variant,
            "run_seconds": self.args.seconds, "passes": self.pass_count,
            "setup_repeats": len(self.setup_times), "setup_s_samples": self.setup_times,
            "machine": {"nproc": os.cpu_count(), "cpu": cpu_model(),
                        "python": platform.python_version(),
                        "numpy": numpy.__version__, "scipy": scipy.__version__},
            "references": self.refs, "metrics": metrics, "per_layer": per_layer,
            "quality": summary, "wrong": self.wrong, "notes": self.notes,
            "requests": self.rows,
        }
        OUT.mkdir(parents=True, exist_ok=True)
        stem = f"{self.wl.name}-seed{self.args.seed}-trace{self.args.trace}"
        (OUT / f"record-{stem}.json").write_text(json.dumps(record, indent=1))
        if spans:
            (OUT / f"spans-{stem}.json").write_text(json.dumps(
                [{"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
                  "request": s.request, **s.attrs} for s in spans]))


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


# ---------------------------------------------------------------------------
# Metrics.

def _m(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def _quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile: one of the values, never an interpolation."""
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def by_instance(rows) -> list[list[dict]]:
    groups: dict[str, list[dict]] = {}
    for r in rows:
        groups.setdefault(r["instance"], []).append(r)
    return list(groups.values())


def end_to_end(rows, setup_times, peak_rss_mb) -> dict:
    """Figures per instance first, so a repeated short request weighs no
    more than a long one. An instance's time is the mean of its runs: on
    a shared machine the CPU switches between a fast phase and one up to
    1.5x slower, for seconds to minutes at a time. The fastest or the
    median of a few runs jumps from one phase to the other as the share
    of slow time in a run crosses a threshold; the mean moves only in
    proportion to that share, and read steadier over sets of ten runs.
    Quality figures average each instance's runs first."""
    groups = by_instance(rows)
    secs = [statistics.fmean(r["seconds"] for r in g) for g in groups]
    routed = [[r for r in g if r["routed"]] for g in groups]
    routed_frac = statistics.fmean(len(ok) / len(g) for ok, g in zip(routed, groups))
    gates = sum(g[0]["gates"] for g in routed if g)
    cnots = sum(statistics.fmean(r["cnots"] for r in g) for g in routed if g)
    return {
        "setup_s": _m(statistics.median(setup_times), "s"),
        "wall_s": _m(math.fsum(secs), "s"),
        "route_s_geomean": _m(math.exp(statistics.fmean(math.log(s) for s in secs)), "s"),
        "route_s_p50": _m(_quantile(secs, 0.5), "s"),
        "route_s_p90": _m(_quantile(secs, 0.9), "s"),
        "routed_frac": _m(routed_frac, "ratio"),
        "hop_mean": _m(statistics.fmean(statistics.fmean(r["hop"] for r in g)
                                        for g in groups), "prob"),
        "cnot_per_gate": _m(cnots / gates if gates else 0.0, "cnot/gate"),
        "peak_rss_mb": _m(peak_rss_mb, "MB"),
    }


def quality(rows) -> dict:
    """Figures reported beside the metrics: they read exactly 0 on some
    workloads, so they carry no bound. Sums are per request set."""

    def per_set(key, keep):
        return math.fsum(statistics.fmean(r[key] for r in kept)
                         for kept in ([r for r in g if keep(r)] for g in by_instance(rows))
                         if kept)

    def optimal(r):
        return r["exit"] == 0 and r["routed"] and r["excess_error"] is not None

    return {
        "optimal_frac": statistics.fmean(statistics.fmean(map(optimal, g))
                                         for g in by_instance(rows)),
        "excess_error": per_set("excess_error", lambda r: r["excess_error"] is not None),
        "cnot_total": per_set("cnots", lambda r: r["routed"]),
    }


def _self_times(spans) -> list[float]:
    own = [s.seconds for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.seconds
    return own


def _stage_of(spans) -> dict[int, int]:
    """Stage number (1-based) of each B&B span inside a lexicographic solve."""
    seen: dict[int, int] = {}
    stage = {}
    for idx, s in enumerate(spans):
        if s.name == "solver.solve_branch_and_bound" and s.parent is not None \
                and spans[s.parent].name == "lexopt.lexicographic_solve":
            seen[s.parent] = seen.get(s.parent, 0) + 1
            stage[idx] = seen[s.parent]
    return stage


LAYERS = ("cli", "circuit", "hwgraph", "gatefid", "bipmodel", "solver", "lexopt",
          "heuristic", "extract", "simulate", "qvbench")


def layer_metrics(spans, traced_rows, untraced_rows) -> dict:
    """Per-layer figures of the one traced pass, read from its spans."""
    own = _self_times(spans)
    stage = _stage_of(spans)
    req = [i for i, s in enumerate(spans) if s.request is not None]
    everything = range(len(spans))

    def named(name, idxs=req):
        return [spans[i] for i in idxs if spans[i].name == name]

    def total(name, idxs=req):
        return sum(s.seconds for s in named(name, idxs))

    def attr(name, key):
        return sum(s.attrs[key] for s in named(name))

    bb = [i for i in req if spans[i].name == "solver.solve_branch_and_bound"]
    limits = [spans[i] for i in bb if spans[i].attrs["status"] == "feasible"]
    gaps = [(s.attrs["objective"] - s.attrs["dual_bound"]) / max(abs(s.attrs["objective"]), 1e-12)
            for s in limits if s.attrs["objective"] is not None]
    bb_s = total("solver.solve_branch_and_bound")
    nodes = attr("solver.solve_branch_and_bound", "nodes")
    routes = [s for s in named("heuristic.heuristic_route")
              if s.parent is None or spans[s.parent].name != "heuristic.heuristic_layout"]
    traced_wall = math.fsum(r["seconds"] for r in traced_rows)
    untraced_wall = math.fsum(r["seconds"] for r in untraced_rows)
    summary = quality(traced_rows)

    def stage_sum(k, key=None):
        return sum(spans[i].attrs[key] if key else spans[i].seconds
                   for i in bb if stage.get(i) == k)

    out = {f"{layer}.self_s": _m(sum(own[i] for i in req if spans[i].layer == layer), "s")
           for layer in LAYERS}
    out.update({
        "cli.optimal_frac": _m(summary["optimal_frac"], "ratio"),
        "circuit.load_s": _m(total("circuit.load_circuit"), "s"),
        "gatefid.build_s": _m(total("gatefid.FidelityModel.build"), "s"),
        "gatefid.gates_priced": _m(attr("gatefid.FidelityModel.build", "gates"), "count"),
        "bipmodel.assemble_s": _m(total("bipmodel.assemble_problem"), "s"),
        "bipmodel.set_objective_s": _m(total("bipmodel.set_objective"), "s"),
        "bipmodel.vars": _m(attr("bipmodel.assemble_problem", "vars"), "count"),
        "bipmodel.rows": _m(attr("bipmodel.assemble_problem", "rows"), "count"),
        "bipmodel.nnz": _m(attr("bipmodel.assemble_problem", "nnz"), "count"),
        "solver.bb_s": _m(bb_s, "s"),
        "solver.bb_calls": _m(len(bb), "count"),
        "solver.nodes": _m(nodes, "count"),
        "solver.nodes_per_s": _m(nodes / bb_s if bb_s > 0 else 0.0, "1/s"),
        "solver.limit_hits": _m(len(limits), "count"),
        "solver.no_incumbent": _m(sum(1 for s in limits if s.attrs["objective"] is None),
                                  "count"),
        "solver.gap_at_limit": _m(statistics.fmean(gaps) if gaps else 0.0, "ratio"),
        "solver.exhaustive_s": _m(total("solver.solve_exhaustive", everything), "s"),
        "lexopt.solve_s": _m(total("lexopt.lexicographic_solve"), "s"),
        "lexopt.stage1_s": _m(stage_sum(1), "s"),
        "lexopt.stage2_s": _m(stage_sum(2), "s"),
        "lexopt.stage1_nodes": _m(stage_sum(1, "nodes"), "count"),
        "lexopt.stage2_nodes": _m(stage_sum(2, "nodes"), "count"),
        "lexopt.excess_error": _m(summary["excess_error"], "nats"),
        "heuristic.layout_s": _m(total("heuristic.heuristic_layout"), "s"),
        "heuristic.route_s": _m(sum(s.seconds for s in routes), "s"),
        "heuristic.route_calls": _m(len(named("heuristic.heuristic_route")), "count"),
        "heuristic.swaps": _m(sum(s.attrs["swaps"] for s in routes), "count"),
        "extract.decode_s": _m(total("extract.decode"), "s"),
        "extract.stats_s": _m(total("extract.stats"), "s"),
        "extract.verify_structural_s": _m(total("extract.verify_structural"), "s"),
        "extract.verify_unitary_s": _m(total("extract.verify_unitary"), "s"),
        "extract.to_json_s": _m(total("extract.routed_to_json"), "s"),
        "simulate.embed_calls": _m(len(named("simulate.embed_two_qubit")), "count"),
        "simulate.embed_s": _m(total("simulate.embed_two_qubit"), "s"),
        "qvbench.gen_s": _m(total("qvbench.gen_qv_circuit", everything), "s"),
        "qvbench.ideal_probs_calls": _m(len(named("qvbench.ideal_probs", everything)), "count"),
        "qvbench.hop_s": _m(total("qvbench.heavy_output_mass", everything), "s"),
        "trace.wall_s": _m(traced_wall, "s"),
        "trace.overhead_s": _m(traced_wall - untraced_wall, "s"),
        "trace.coverage": _m(sum(own[i] for i in req) / traced_wall if traced_wall else 0.0,
                             "ratio"),
    })
    return out


def attach_stages(rows, spans) -> None:
    """Per-stage status, objective, bound, nodes and time on each traced row."""
    stage = _stage_of(spans)
    by_request: dict[str, list] = {}
    for idx, st in sorted(stage.items()):
        s = spans[idx]
        by_request.setdefault(s.request, []).append({
            "stage": st, "status": s.attrs["status"], "objective": s.attrs["objective"],
            "dual_bound": s.attrs["dual_bound"], "nodes": s.attrs["nodes"],
            "seconds": s.seconds})
    for r in rows:
        r["stages"] = by_request.get(r["request"], [])
