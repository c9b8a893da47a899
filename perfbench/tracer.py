"""Spans around the public functions of each qaroute module.

Tracing patches, for the length of a traced pass, every name in every
loaded module that refers to a traced function, so calls through any
import site are recorded. Spans (name, start, end, parent, request id,
attributes) stay in memory and are written when the benchmark ends.
Nothing inside ``src/`` is modified.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field

from qaroute.extract import FreeSwap

# (layer, attribute path) for every traced callable. Wrapped calls must
# be coarse enough that the wrapper cost stays small: per-column helpers
# such as simulate.apply_two_qubit are deliberately left out.
TRACED = (
    ("cli", "main"),
    ("hwgraph", "builtin_topology"),
    ("circuit", "load_circuit"),
    ("circuit", "pad_qubits"),
    ("circuit", "insert_dummy_steps"),
    ("gatefid", "FidelityModel.build"),
    ("bipmodel", "assemble_problem"),
    ("bipmodel", "set_objective"),
    ("solver", "solve_branch_and_bound"),
    ("solver", "solve_exhaustive"),
    ("lexopt", "lexicographic_solve"),
    ("heuristic", "run_variant_full"),
    ("heuristic", "heuristic_layout"),
    ("heuristic", "heuristic_route"),
    ("extract", "decode"),
    ("extract", "stats"),
    ("extract", "verify_structural"),
    ("extract", "verify_unitary"),
    ("extract", "routed_to_json"),
    ("simulate", "embed_two_qubit"),
    ("simulate", "permutation_matrix"),
    ("simulate", "phase_distance"),
    ("qvbench", "gen_qv_circuit"),
    ("qvbench", "ideal_probs"),
    ("qvbench", "heavy_output_mass"),
)


@dataclass
class Span:
    name: str  # "<layer>.<function>"
    start: float
    end: float
    parent: int | None  # index of the enclosing span
    request: str | None  # None for work outside requests (checks, scoring)
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _attrs(name: str, args, result) -> dict:
    """Counts read off a traced call's arguments and result."""
    if name == "solver.solve_branch_and_bound":
        return {"nodes": result.nodes, "status": result.status.value,
                "objective": result.objective, "dual_bound": result.dual_bound}
    if name == "bipmodel.assemble_problem":
        p = result[1]
        return {"vars": p.num_vars, "rows": len(p.rows),
                "nnz": sum(len(r.vars) for r in p.rows)}
    if name == "gatefid.FidelityModel.build":
        return {"gates": len(args[1].gates())}  # args[0] is the class
    if name == "heuristic.heuristic_route":
        return {"swaps": sum(1 for ops in result.steps for op in ops
                             if isinstance(op, FreeSwap))}
    if name == "cli.main":
        return {"exit": result}
    return {}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.request: str | None = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            span = Span(name, 0.0, 0.0, stack[-1] if stack else None, self.request)
            spans.append(span)
            stack.append(idx)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            span.attrs = _attrs(name, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Patch every traced callable at its definition and at every
        module-level name bound to it, in any loaded module."""
        swap: dict[int, object] = {}
        for layer, path in TRACED:
            owner = sys.modules[f"qaroute.{layer}"]
            if "." in path:
                cls_name, meth = path.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                self._set(cls, meth, classmethod(self._wrap(f"{layer}.{path}",
                                                            orig.__func__)))
            else:
                orig = getattr(owner, path)
                swap[id(orig)] = (orig, self._wrap(f"{layer}.{path}", orig))
        for mod in list(sys.modules.values()):
            names = getattr(mod, "__dict__", None)
            if not isinstance(names, dict):
                continue
            for attr, val in list(names.items()):
                hit = swap.get(id(val))
                if hit is not None and hit[0] is val:
                    self._set(mod, attr, hit[1])

    def _set(self, obj, attr: str, value) -> None:
        self._undo.append((obj, attr, vars(obj)[attr]))
        setattr(obj, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            obj, attr, value = self._undo.pop()
            setattr(obj, attr, value)

