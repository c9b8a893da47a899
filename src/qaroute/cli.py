"""Command-line front end.

Four subcommands cover the workflows: ``transpile`` routes one circuit
with a chosen variant, ``pareto`` traces trade-off curves over a
circuit batch, ``bench`` scores variants on quantum-volume circuits,
and ``export`` writes the model (and optionally validates an external
solution against it).

Exit codes: 0 success, 2 infeasible, 3 budget hit with an incumbent,
4 I/O, argument or input-document errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from .bipmodel import ModelError, assemble_problem
from .circuit import CircuitError, LayeredCircuit, insert_dummy_steps, load_circuit, pad_qubits
from .extract import (ExtractError, decode, routed_to_json, stats,
                      verify_structural, verify_unitary)
from .gatefid import FidelityError, FidelityModel, load_fidelity_overrides
from .heuristic import VARIANTS, HeuristicError, run_variant_full
from .hwgraph import HardwareGraph, TopologyError, builtin_topology, load_topology
from .lexopt import LexError, pareto_sweep, sweep_table
from .qvbench import BenchError, benchmark_batch, gen_qv_circuit, lower_circuit
from .solver import (SolutionInfeasibleError, SolveError, SolveLimits,
                     export_model, import_solution)

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_LIMIT = 3
EXIT_IO = 4

_PARSE_ERRORS = (TopologyError, CircuitError, FidelityError, ModelError,
                 BenchError, HeuristicError, SolveError, OSError,
                 json.JSONDecodeError)


class _CliError(Exception):
    """Argument or document problem; maps to exit code 4."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _CliError(message)


@dataclass
class RunConfig:
    command: str
    graph: HardwareGraph
    limits: SolveLimits
    variant: str
    objectives: tuple[str, ...]
    dummy_steps: int
    seed: int
    jobs: int
    out: Path | None
    circuit_file: str | None
    qv: tuple[int, int] | None
    qv_layers: int | None
    fmt: str
    solution: str | None
    steps: int
    fid_overrides: dict | None


def _build_parser() -> _Parser:
    p = _Parser(prog="qaroute", description=__doc__,
                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)
    for name, doc in (("transpile", "route one circuit with a variant"),
                      ("pareto", "trade-off sweep over a circuit batch"),
                      ("bench", "quantum-volume benchmark across variants"),
                      ("export", "write the model as LP/MPS; validate solutions")):
        sp = sub.add_parser(name, help=doc)
        sp.add_argument("--topology", help="topology document (JSON)")
        sp.add_argument("--builtin", help="builtin topology as name,n (e.g. line,4)")
        sp.add_argument("--circuit", help="circuit document (JSON)")
        sp.add_argument("--qv", help="quantum-volume source as w,n")
        sp.add_argument("--qv-layers", type=int, default=None,
                        help="truncate QV circuits to this many layers")
        sp.add_argument("--variant", default="bip", choices=VARIANTS)
        sp.add_argument("--objectives", default="error,depth",
                        help="comma-separated objective order")
        sp.add_argument("--dummy-steps", type=int, default=2)
        sp.add_argument("--time-limit", type=float, default=None)
        sp.add_argument("--node-limit", type=int, default=None)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--jobs", type=int, default=1)
        sp.add_argument("--out", default=None, help="output directory")
        sp.add_argument("--fidelity", default=None,
                        help="fidelity override document (JSON)")
        if name == "pareto":
            sp.add_argument("--steps", type=int, default=4,
                            help="number of relaxation steps")
        if name == "export":
            sp.add_argument("--format", dest="fmt", default="lp",
                            choices=("lp", "mps"))
            sp.add_argument("--solution", default=None,
                            help="solution document to validate and decode")
    return p


def _config(ns: argparse.Namespace) -> RunConfig:
    if bool(ns.topology) == bool(ns.builtin):
        raise _CliError("give exactly one of --topology and --builtin")
    if ns.builtin:
        try:
            name, n = ns.builtin.split(",")
            graph = builtin_topology(name.strip(), int(n))
        except ValueError as exc:
            raise _CliError(f"bad --builtin value {ns.builtin!r}: {exc}") from exc
    else:
        graph = load_topology(Path(ns.topology).read_text())
    if bool(ns.circuit) == bool(ns.qv):
        raise _CliError("give exactly one of --circuit and --qv")
    qv = None
    if ns.qv:
        try:
            w, count = (int(v) for v in ns.qv.split(","))
        except ValueError as exc:
            raise _CliError(f"bad --qv value {ns.qv!r}; expected w,n") from exc
        if w < 2 or count < 1:
            raise _CliError("--qv needs width >= 2 and count >= 1")
        qv = (w, count)
    if ns.dummy_steps < 0:
        raise _CliError("--dummy-steps must be nonnegative")
    if ns.qv_layers is not None and ns.qv_layers < 1:
        raise _CliError("--qv-layers must be at least 1")
    objectives = tuple(s.strip() for s in ns.objectives.split(",") if s.strip())
    if ns.jobs < 1:
        raise _CliError("--jobs must be at least 1")
    limits = SolveLimits(time_limit=ns.time_limit, node_limit=ns.node_limit)
    overrides = None
    if ns.fidelity:
        overrides = load_fidelity_overrides(Path(ns.fidelity).read_text())
    return RunConfig(command=ns.command, graph=graph, limits=limits,
                     variant=ns.variant, objectives=objectives,
                     dummy_steps=ns.dummy_steps, seed=ns.seed, jobs=ns.jobs,
                     out=Path(ns.out) if ns.out else None,
                     circuit_file=ns.circuit, qv=qv, qv_layers=ns.qv_layers,
                     fmt=getattr(ns, "fmt", "lp"),
                     solution=getattr(ns, "solution", None),
                     steps=getattr(ns, "steps", 4),
                     fid_overrides=overrides)


def _load_one_circuit(cfg: RunConfig, index: int = 0) -> LayeredCircuit:
    if cfg.circuit_file is not None:
        raw = load_circuit(Path(cfg.circuit_file).read_text())
    else:
        w, _ = cfg.qv
        raw = lower_circuit(gen_qv_circuit(w, [cfg.seed, index]),
                            n_layers=cfg.qv_layers)
    if raw.n_qubits > cfg.graph.n:
        raise _CliError(f"circuit wider than hardware "
                        f"({raw.n_qubits} qubits vs {cfg.graph.n} nodes)")
    c = pad_qubits(raw, cfg.graph.n)
    return insert_dummy_steps(c, cfg.dummy_steps)


def _emit(cfg: RunConfig, filename: str, text: str) -> None:
    if cfg.out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        cfg.out.mkdir(parents=True, exist_ok=True)
        (cfg.out / filename).write_text(text)
        print(f"wrote {cfg.out / filename}")


def cmd_transpile(cfg: RunConfig) -> int:
    c = _load_one_circuit(cfg)
    fid = FidelityModel.build(c, cfg.graph, overrides=cfg.fid_overrides)
    try:
        run = run_variant_full(cfg.variant, c, cfg.graph, fid, cfg.limits, cfg.seed)
    except LexError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    report = verify_structural(run.routed, c, cfg.graph)
    lines = [f"variant: {cfg.variant}"]
    for key, val in run.stats.as_dict().items():
        lines.append(f"{key}: {val}")
    lines.append(f"structural: {'ok' if report is None else report}")
    if cfg.graph.n <= 6:
        dev = verify_unitary(run.routed, c)
        lines.append(f"unitary_deviation: {dev:.3e}")
        lines.append(f"unitary: {'ok' if dev <= 1e-8 else 'FAILED'}")
    _emit(cfg, "routed.json", routed_to_json(run.routed))
    _emit(cfg, "report.txt", "\n".join(lines) + "\n")
    if report is not None:
        return EXIT_INFEASIBLE
    return EXIT_OK if run.closed else EXIT_LIMIT


def _sweep_one(args) -> tuple[int, list]:
    cfg, idx = args
    c = _load_one_circuit(cfg, idx)
    fid = FidelityModel.build(c, cfg.graph, overrides=cfg.fid_overrides)
    pts = pareto_sweep(c, cfg.graph, fid, cfg.objectives, steps=cfg.steps,
                       lim=cfg.limits)
    return idx, pts


def cmd_pareto(cfg: RunConfig) -> int:
    import os

    if len(cfg.objectives) < 2:
        raise _CliError("--objectives must list at least two for a sweep")
    count = cfg.qv[1] if cfg.qv else 1
    tasks = [(cfg, idx) for idx in range(count)]
    workers = min(cfg.jobs, count, os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_one, tasks))
    else:
        results = [_sweep_one(t) for t in tasks]
    sweeps = {f"circuit{idx}": pts for idx, pts in results}
    _emit(cfg, "pareto.tsv", sweep_table(sweeps, cfg.objectives))
    return EXIT_OK


def cmd_bench(cfg: RunConfig) -> int:
    if cfg.qv is None:
        raise _CliError("bench needs --qv w,n")
    w, count = cfg.qv
    variants = (cfg.variant,) if cfg.variant != "bip" else ("bip", "sabre_like")
    res = benchmark_batch(count, w, variants, cfg.graph, lim=cfg.limits,
                          seed=cfg.seed, fid_overrides=cfg.fid_overrides,
                          dummy_steps=cfg.dummy_steps, n_layers=cfg.qv_layers,
                          jobs=cfg.jobs)
    _emit(cfg, "bench.tsv", res.to_table())
    return EXIT_OK


def cmd_export(cfg: RunConfig) -> int:
    c = _load_one_circuit(cfg)
    fid = FidelityModel.build(c, cfg.graph, overrides=cfg.fid_overrides)
    objective = cfg.objectives[0] if cfg.objectives else "error"
    vs, p = assemble_problem(c, cfg.graph, fid, objective=objective)
    _emit(cfg, f"model.{cfg.fmt}", export_model(p, cfg.fmt))
    if cfg.solution:
        try:
            res = import_solution(p, Path(cfg.solution).read_text())
        except SolutionInfeasibleError as exc:
            print(f"infeasible solution: {exc}", file=sys.stderr)
            return EXIT_INFEASIBLE
        rc = decode(vs, res.assignment, c, cfg.graph, fid)
        st = stats(rc, fid, cfg.graph)
        _emit(cfg, "routed.json", routed_to_json(rc))
        _emit(cfg, "solution_report.txt",
              f"objective: {res.objective!r}\n"
              + "".join(f"{k}: {v}\n" for k, v in st.as_dict().items()))
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
        cfg = _config(ns)
        handler = {"transpile": cmd_transpile, "pareto": cmd_pareto,
                   "bench": cmd_bench, "export": cmd_export}[cfg.command]
        return handler(cfg)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except LexError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except ExtractError as exc:
        print(f"inconsistent solution: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except _PARSE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
