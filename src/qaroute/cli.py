"""Command-line front end.

Four subcommands cover the workflows: ``transpile`` routes one circuit
with a chosen variant, ``pareto`` traces trade-off curves over a
circuit batch, ``bench`` scores variants on quantum-volume circuits,
and ``export`` writes the model (and optionally validates an external
solution against it).

Exit codes: 0 the layout DP or every lexicographic stage proved its
optimum (in ``pareto`` and ``bench``: every stage of every point or
run), 2 no route (``solver.NoRouteError``; ``pareto`` and ``bench``
first write their table, a ``no_route`` row per circuit or run without
one), 3 budget hit with an incumbent, 4 I/O, argument or input-document
errors (a sweep argument the solver rejects among them). A
``transpile`` route that fails its own check raises once its files are
written, and an ``export`` solution that passes every row but does not
decode raises too.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .bipmodel import ModelError, assemble_problem
from .circuit import CircuitError, LayeredCircuit, insert_dummy_steps, load_circuit, pad_qubits
from .extract import (EQUIVALENCE_ATOL, UNITARY_MAX_WIDTH, decode, routed_to_json, stats,
                      verify_structural, verify_unitary)
from .gatefid import FidelityError, FidelityModel, load_fidelity_overrides
from .heuristic import VARIANTS, HeuristicError, run_variant_full
from .hwgraph import HardwareGraph, TopologyError, builtin_topology, load_topology
from .lexopt import LIMIT, NO_ROUTE, OK, pareto_sweep, sweep_table
from .modelio import export_model, import_solution
from .qvbench import BenchError, benchmark_batch, map_in_pool, qv_instance
from .solver import (_OBJ_EPS, NoRouteError, SolutionInfeasibleError, SolveError,
                     SolveLimits, _check_order)

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_LIMIT = 3
EXIT_IO = 4

_PARSE_ERRORS = (TopologyError, CircuitError, FidelityError, ModelError,
                 BenchError, HeuristicError, SolveError, OSError)


class _CliError(Exception):
    """Argument or document problem; maps to exit code 4."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _CliError(message)


def _int_at_least(low: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}")
        return value
    return parse


def _qv(text: str) -> tuple[int, int]:
    try:
        w, count = (int(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad value {text!r}; expected w,n") from None
    if w < 2 or count < 1:
        raise argparse.ArgumentTypeError("needs width >= 2 and count >= 1")
    return w, count


def _qv_one(text: str) -> tuple[int, int]:
    w, count = _qv(text)
    if count != 1:
        raise argparse.ArgumentTypeError(f"this command routes one circuit; give {w},1")
    return w, count


def _objective_order(text: str) -> tuple[str, ...]:
    try:
        order = _check_order(s.strip() for s in text.split(",") if s.strip())
    except SolveError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if len(order) < 2:
        raise argparse.ArgumentTypeError("a sweep needs at least two objectives")
    return order


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built on the first ``main`` call and reused by
    every later one in the process: each parse fills a new namespace, and
    no default is mutable."""
    p = _Parser(prog="qaroute", description=__doc__,
                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)
    shared = argparse.ArgumentParser(add_help=False)
    topology = shared.add_mutually_exclusive_group(required=True)
    topology.add_argument("--topology", help="topology document (JSON)")
    topology.add_argument("--builtin", help="builtin topology as name,n (e.g. line,4)")
    shared.add_argument("--qv-layers", type=_int_at_least(1), default=None,
                        help="truncate QV circuits to this many layers")
    shared.add_argument("--dummy-steps", type=_int_at_least(0), default=2)
    shared.add_argument("--seed", type=_int_at_least(0), default=0)
    shared.add_argument("--out", type=Path, default=None, help="output directory")
    shared.add_argument("--fidelity", default=None,
                        help="fidelity override document (JSON)")

    def command(name: str, handler, doc: str) -> _Parser:
        sp = sub.add_parser(name, help=doc, parents=[shared])
        sp.set_defaults(handler=handler)
        return sp

    def circuit_source(sp: _Parser, qv, qv_help: str) -> None:
        source = sp.add_mutually_exclusive_group(required=True)
        source.add_argument("--circuit", help="circuit document (JSON)")
        source.add_argument("--qv", type=qv, help=qv_help)

    def limits(sp: _Parser) -> None:
        sp.add_argument("--time-limit", type=float, default=None,
                        help="seconds per run, shared by the layout DP and the "
                             "branch and bound's lexicographic stages; a DP past it "
                             "returns the greedy route, unproven (exit 3)")
        sp.add_argument("--node-limit", type=int, default=None,
                        help="branch-and-bound nodes per run, shared by its "
                             "lexicographic stages; the layout DP counts no nodes")

    sp = command("transpile", cmd_transpile, "route one circuit with a variant")
    circuit_source(sp, _qv_one, "one quantum-volume circuit as w,1")
    sp.add_argument("--variant", default="bip", choices=VARIANTS)
    limits(sp)

    sp = command("pareto", cmd_pareto, "trade-off sweep over a circuit batch")
    circuit_source(sp, _qv, "quantum-volume source as w,n")
    sp.add_argument("--objectives", type=_objective_order, default=("error", "depth"),
                    help="comma-separated objective order, at least two")
    limits(sp)
    sp.add_argument("--jobs", type=_int_at_least(1), default=1)
    sp.add_argument("--steps", type=_int_at_least(1), default=4,
                    help="number of relaxation steps")

    sp = command("bench", cmd_bench, "quantum-volume benchmark across variants")
    sp.add_argument("--qv", type=_qv, required=True, help="quantum-volume source as w,n")
    sp.add_argument("--variant", default="bip", choices=VARIANTS)
    limits(sp)
    sp.add_argument("--jobs", type=_int_at_least(1), default=1)

    sp = command("export", cmd_export, "write the model as LP/MPS; validate solutions")
    circuit_source(sp, _qv_one, "one quantum-volume circuit as w,1")
    sp.add_argument("--objective", default="error", choices=tuple(_OBJ_EPS))
    sp.add_argument("--format", dest="fmt", default="lp", choices=("lp", "mps"))
    sp.add_argument("--solution", default=None,
                    help="solution document to validate and decode")
    return p


def _graph(ns: argparse.Namespace) -> HardwareGraph:
    if ns.builtin is None:
        return load_topology(Path(ns.topology).read_text())
    try:
        name, n = ns.builtin.split(",")
        return builtin_topology(name.strip(), int(n))
    except ValueError as exc:
        raise _CliError(f"bad --builtin value {ns.builtin!r}: {exc}") from exc


def _overrides(ns: argparse.Namespace) -> dict | None:
    if ns.fidelity is None:
        return None
    return load_fidelity_overrides(Path(ns.fidelity).read_text())


def _limits(ns: argparse.Namespace) -> SolveLimits:
    return SolveLimits(time_limit=ns.time_limit, node_limit=ns.node_limit)


def _load_circuit(ns: argparse.Namespace, g: HardwareGraph, index: int = 0) -> LayeredCircuit:
    if ns.circuit is None:
        return qv_instance(ns.qv[0], [ns.seed, index], g.n, ns.qv_layers, ns.dummy_steps)[1]
    raw = load_circuit(Path(ns.circuit).read_text())
    return insert_dummy_steps(pad_qubits(raw, g.n), ns.dummy_steps)


def _emit(ns: argparse.Namespace, filename: str, text: str) -> None:
    if ns.out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        ns.out.mkdir(parents=True, exist_ok=True)
        (ns.out / filename).write_text(text)
        print(f"wrote {ns.out / filename}")


def cmd_transpile(ns: argparse.Namespace) -> int:
    g, overrides, lim = _graph(ns), _overrides(ns), _limits(ns)
    c = _load_circuit(ns, g)
    fid = FidelityModel.build(c, g, overrides=overrides)
    run = run_variant_full(ns.variant, c, g, fid, lim, ns.seed)
    report = verify_structural(run.routed, c, g)
    lines = [f"variant: {ns.variant}"]
    for key, val in run.stats.as_dict().items():
        lines.append(f"{key}: {val}")
    lines.append(f"structural: {'ok' if report is None else report}")
    if report is None and len(c.active_qubits()) <= UNITARY_MAX_WIDTH:
        dev = verify_unitary(run.routed, c)
        if not dev <= EQUIVALENCE_ATOL:
            report = f"unitary deviation {dev:.3e}"
        lines.append(f"unitary_deviation: {dev:.3e}")
        lines.append(f"unitary: {'ok' if report is None else 'FAILED'}")
    _emit(ns, "routed.json", routed_to_json(run.routed))
    _emit(ns, "report.txt", "\n".join(lines) + "\n")
    if report is not None:
        # The route is this program's own: a failed check is a fault in it.
        raise RuntimeError(f"the {ns.variant} route fails its check: {report}")
    return EXIT_OK if run.closed else EXIT_LIMIT


def _sweep_one(task) -> list | None:  # None: the circuit has no route
    ns, g, overrides, lim, idx = task
    c = _load_circuit(ns, g, idx)
    fid = FidelityModel.build(c, g, overrides=overrides)
    try:
        return pareto_sweep(c, g, fid, ns.objectives, steps=ns.steps, lim=lim)
    except NoRouteError:
        return None


def _batch_exit(statuses: list[str], items: str) -> int:
    """A batch's exit code: its worst lexopt status, NO_ROUTE then LIMIT, decides."""
    if NO_ROUTE in statuses:
        print(f"infeasible: {statuses.count(NO_ROUTE)} of {len(statuses)} {items} found "
              "no route", file=sys.stderr)
        return EXIT_INFEASIBLE
    return EXIT_LIMIT if LIMIT in statuses else EXIT_OK


def cmd_pareto(ns: argparse.Namespace) -> int:
    g, overrides, lim = _graph(ns), _overrides(ns), _limits(ns)
    count = ns.qv[1] if ns.qv else 1
    sweeps = map_in_pool(_sweep_one, [(ns, g, overrides, lim, idx) for idx in range(count)],
                         ns.jobs)
    _emit(ns, "pareto.tsv", sweep_table({f"circuit{idx}": pts for idx, pts in enumerate(sweeps)},
                                        ns.objectives))
    return _batch_exit([NO_ROUTE if pts is None else OK if all(pt.closed for pt in pts)
                        else LIMIT for pts in sweeps], "circuits")


def cmd_bench(ns: argparse.Namespace) -> int:
    w, count = ns.qv
    variants = (ns.variant,) if ns.variant != "bip" else ("bip", "sabre_like")
    res = benchmark_batch(count, w, variants, _graph(ns), lim=_limits(ns),
                          seed=ns.seed, fid_overrides=_overrides(ns),
                          dummy_steps=ns.dummy_steps, n_layers=ns.qv_layers,
                          jobs=ns.jobs)
    _emit(ns, "bench.tsv", res.to_table())
    return _batch_exit([r.status for r in res.rows], "runs")


def cmd_export(ns: argparse.Namespace) -> int:
    g, overrides = _graph(ns), _overrides(ns)
    c = _load_circuit(ns, g)
    fid = FidelityModel.build(c, g, overrides=overrides)
    vs, p = assemble_problem(c, g, fid, objective=ns.objective)
    _emit(ns, f"model.{ns.fmt}", export_model(p, ns.fmt))
    if ns.solution:
        try:
            res = import_solution(p, Path(ns.solution).read_text())
        except SolutionInfeasibleError as exc:
            print(f"infeasible solution: {exc}", file=sys.stderr)
            return EXIT_INFEASIBLE
        rc = decode(vs, res.assignment, c, g, fid)
        st = stats(rc, fid, g)
        _emit(ns, "routed.json", routed_to_json(rc))
        _emit(ns, "solution_report.txt",
              f"objective: {res.objective!r}\n"
              + "".join(f"{k}: {v}\n" for k, v in st.as_dict().items()))
    return EXIT_OK


def main(argv=None) -> int:
    try:
        ns = _build_parser().parse_args(argv)
        if getattr(ns, "circuit", None) is not None and ns.qv_layers is not None:
            raise _CliError("--qv-layers truncates --qv circuits; a --circuit is routed whole")
        return ns.handler(ns)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except NoRouteError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except _PARSE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
