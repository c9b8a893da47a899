"""Model and solution files, for an outside MILP solver: the program
written as LP (CPLEX-style text) or fixed MPS and read back, and ``name
value`` solution listings, checked against every row and priced. It
imports ``solver`` for the errors and the result type; ``solver`` never
imports ``modelio``."""

from __future__ import annotations

import math

import numpy as np

from .bipmodel import BipProblem, Row, _row_name
from .documents import reading
from .solver import SolveError, SolveResult, SolveStatus, _require_feasible


def _fmt(x: float) -> str:
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(x)


def export_model(p: BipProblem, fmt: str = "lp") -> str:
    """Serialize the program; ``lp`` (CPLEX-style text) or ``mps`` (fixed).

    Output is deterministic and round-trips through import_model: export,
    import and export again yields the identical byte sequence.
    """
    if fmt == "lp":
        return _export_lp(p)
    if fmt == "mps":
        return _export_mps(p)
    raise SolveError(f"unknown model format {fmt!r}")


def _terms(p: BipProblem, pairs) -> list[str]:
    """``+ c name`` or ``- c name`` per (variable, coefficient) pair."""
    return [f"{'+' if c >= 0 else '-'} {_fmt(abs(c))} {p.names[v]}" for v, c in pairs]


def _export_lp(p: BipProblem) -> str:
    obj = [(v, c) for v, c in enumerate(p.objective.tolist()) if c != 0.0]
    lines = ["\\ routing model", "Minimize", " " + " ".join(["obj:", *_terms(p, obj)]),
             "Subject To"]
    for k, row in enumerate(p.rows):
        terms = _terms(p, zip(row.vars, row.coefs))
        if row.coefs and row.coefs[0] >= 0:  # a leading term drops its plus sign
            terms[0] = terms[0][2:]
        lines.append(" " + " ".join([f"{_row_name(k, row.family)}:", *terms, row.sense,
                                     _fmt(row.rhs)]))
    return "\n".join([*lines, "Binary", *(f" {name}" for name in p.names), "End"]) + "\n"


def _export_mps(p: BipProblem) -> str:
    def pad(s: str, width: int) -> str:
        return s + " " * max(1, width - len(s))

    rnames = [_row_name(k, row.family) for k, row in enumerate(p.rows)]
    sense_code = {"=": "E", "<=": "L", ">=": "G"}
    lines = ["NAME          ROUTING", "ROWS", " N  obj"]
    lines += [f" {sense_code[row.sense]}  {rname}" for row, rname in zip(p.rows, rnames)]
    lines += ["COLUMNS", "    MARKER                 'MARKER'                 'INTORG'"]
    by_var: list[list[tuple[str, float]]] = [[] for _ in range(p.num_vars)]
    for row, rname in zip(p.rows, rnames):
        for v, c in zip(row.vars, row.coefs):
            by_var[v].append((rname, c))
    for v, c in enumerate(p.objective.tolist()):
        entries = ([("obj", c)] if c != 0.0 else []) + by_var[v]
        lines += ["    " + pad(p.names[v], 16) + pad(rname, 20) + _fmt(coef)
                  for rname, coef in entries]
    lines += ["    MARKER                 'MARKER'                 'INTEND'", "RHS"]
    lines += ["    " + pad("RHS", 16) + pad(rname, 20) + _fmt(row.rhs)
              for row, rname in zip(p.rows, rnames) if row.rhs != 0.0]
    lines += ["BOUNDS", *(" BV " + pad("BND", 13) + name for name in p.names), "ENDATA"]
    return "\n".join(lines) + "\n"


def import_model(text: str) -> BipProblem:
    """Parse a model produced by export_model (format auto-detected)."""
    with reading(SolveError, "model document"):
        return _import_mps(text) if text.lstrip().startswith("NAME") else _import_lp(text)


def _parse_terms(tokens: list[str]) -> list[tuple[str, float]]:
    out = []
    k = 0
    sign = 1.0
    while k < len(tokens):
        tok = tokens[k]
        if tok in ("+", "-"):
            sign = -1.0 if tok == "-" else 1.0
            k += 1
        else:
            coef = sign * float(tok)
            out.append((tokens[k + 1], coef))
            sign = 1.0
            k += 2
    return out


def _import_lp(text: str) -> BipProblem:
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("\\")]
    if "Minimize" not in lines or "Subject To" not in lines or "Binary" not in lines:
        raise SolveError("LP document lacks required sections")
    i_min = lines.index("Minimize")
    i_st = lines.index("Subject To")
    i_bin = lines.index("Binary")
    i_end = lines.index("End") if "End" in lines else len(lines)

    names = tuple(lines[i_bin + 1:i_end])
    index = {nm: k for k, nm in enumerate(names)}
    if len(index) != len(names):
        raise SolveError("duplicate variable names in Binary section")

    obj = np.zeros(len(names))
    obj_tokens = " ".join(lines[i_min + 1:i_st]).split()
    if obj_tokens and obj_tokens[0] == "obj:":
        obj_tokens = obj_tokens[1:]
    for name, coef in _parse_terms(obj_tokens):
        if name not in index:
            raise SolveError(f"objective references unknown variable {name!r}")
        obj[index[name]] = coef

    rows = []
    for ln in lines[i_st + 1:i_bin]:
        head, _, rest = ln.partition(":")
        tokens = rest.split()
        sense = next((op for op in ("<=", ">=", "=") if op in tokens), None)
        if sense is None:
            raise SolveError(f"row {head!r} lacks a comparison operator")
        cut = tokens.index(sense)
        terms = _parse_terms(tokens[:cut])
        rhs = float(tokens[cut + 1])
        try:
            vs = tuple(index[nm] for nm, _ in terms)
        except KeyError as exc:
            raise SolveError(f"row {head!r} references unknown variable {exc}") from exc
        rows.append(Row(vars=vs, coefs=tuple(c for _, c in terms), sense=sense,
                        rhs=rhs, family=head.rsplit("_", 1)[0]))
    return BipProblem(names=names, rows=tuple(rows), objective=obj,
                      objective_kind="imported")


def _import_mps(text: str) -> BipProblem:
    section = None
    row_sense: dict[str, str] = {}  # in the order the rows come
    col_entries: dict[str, list[tuple[str, float]]] = {}  # in the order the columns come
    rhs: dict[str, float] = {}
    bound_names: list[str] = []
    code_sense = {"E": "=", "L": "<=", "G": ">="}
    for raw in text.splitlines():
        head = raw.strip()
        if not head:
            continue
        if head in ("ROWS", "COLUMNS", "RHS", "BOUNDS", "RANGES", "ENDATA") or head.startswith("NAME"):
            section = head.split()[0]
            continue
        fields = raw.split()
        if section == "ROWS":
            code, name = fields
            if code == "N":
                continue
            row_sense[name] = code_sense[code]
        elif section == "COLUMNS":
            if "'MARKER'" in fields:
                continue
            var, rname, val = fields
            col_entries.setdefault(var, []).append((rname, float(val)))
        elif section == "RHS":
            _, rname, val = fields
            rhs[rname] = float(val)
        elif section == "BOUNDS":
            if fields[0] != "BV":
                raise SolveError("only binary (BV) bounds are supported")
            bound_names.append(fields[2])
        elif section == "RANGES":  # export_model writes none; a range bounds a row on both sides
            raise SolveError("RANGES are not supported")
    names = tuple(bound_names if bound_names else col_entries)
    index = {nm: k for k, nm in enumerate(names)}
    obj = np.zeros(len(names))
    row_terms: dict[str, list[tuple[int, float]]] = {nm: [] for nm in row_sense}
    for var in col_entries:
        if var not in index:
            raise SolveError(f"column {var!r} lacks a bound entry")
        for rname, val in col_entries[var]:
            if rname == "obj":
                obj[index[var]] = val
            else:
                row_terms[rname].append((index[var], val))
    rows = []
    for rname in row_sense:
        terms = row_terms[rname]
        rows.append(Row(vars=tuple(v for v, _ in terms), coefs=tuple(c for _, c in terms),
                        sense=row_sense[rname], rhs=rhs.get(rname, 0.0),
                        family=rname.rsplit("_", 1)[0]))
    return BipProblem(names=names, rows=tuple(rows), objective=obj,
                      objective_kind="imported")


def import_solution(p: BipProblem, text: str) -> SolveResult:
    """Read a ``name value`` listing, validate it, and price it.

    Missing variables default to 0; unknown names and constraint
    violations raise. The result reports status ``feasible``.
    """
    index = {nm: k for k, nm in enumerate(p.names)}
    assignment = np.zeros(p.num_vars, dtype=np.int8)
    with reading(SolveError, "solution document"):
        for lineno, raw in enumerate(text.splitlines(), start=1):
            ln = raw.strip()
            if not ln or ln.startswith("#"):
                continue
            fields = ln.split()
            if len(fields) != 2:
                raise SolveError(f"line {lineno}: expected 'name value'")
            name, sval = fields
            if name not in index:
                raise SolveError(f"line {lineno}: unknown variable {name!r}")
            try:
                val = float(sval)
            except ValueError as exc:
                raise SolveError(f"line {lineno}: value {sval!r} is not a number") from exc
            if abs(val - round(val)) > 1e-6 or round(val) not in (0, 1):
                raise SolveError(f"line {lineno}: value {sval!r} is not binary")
            assignment[index[name]] = int(round(val))
    _require_feasible(p, assignment)
    return SolveResult(status=SolveStatus.FEASIBLE, objective=p.objective_value(assignment),
                       assignment=assignment, dual_bound=-math.inf, nodes=0)


def export_solution(p: BipProblem, assignment) -> str:
    """Inverse of import_solution: one ``name value`` line per nonzero."""
    lines = [f"{p.names[v]} 1" for v in range(p.num_vars) if round(float(assignment[v]))]
    return "\n".join(lines) + "\n"
