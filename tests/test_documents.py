"""Every reader of an outside document fails one way: with its own error.

Each of the six readers gets a valid document. Then every value and
sub-value of a JSON document is replaced in turn by each of a set of
ill-typed, empty or non-finite JSON values, and so is each of its
fields by an array nested 100,000 deep; every line of a text document
is cut short at each token, and each token is replaced. Whatever a
reader makes of a mutant, it returns its result or raises its module's
error, and it raises no warning on the way.
"""

import copy
import json
import warnings

import pytest

from qaroute.bipmodel import assemble_problem
from qaroute.circuit import CircuitError, Gate, LayeredCircuit, dump_circuit, load_circuit
from qaroute.cli import main
from qaroute.extract import (ExtractError, FreeSwap, GateOp, RoutedCircuit, routed_from_json,
                             routed_to_json)
from qaroute.gatefid import FidelityError, FidelityModel, load_fidelity_overrides
from qaroute.hwgraph import TopologyError, builtin_topology, load_topology
from qaroute.modelio import export_model, export_solution, import_model, import_solution
from qaroute.simulate import CX, SWAP
from qaroute.solver import SolveError, solve_branch_and_bound

REPLACEMENTS = ("{}", "[]", '"x"', "5", "null", "[[]]", "-1", "1e400", "NaN")
DEEP = "[" * 100_000 + "]" * 100_000
_MARK = "replaced-here"


def _paths(value, path=()):
    """The path of ``value`` and of every value inside it."""
    yield path
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, inner in items:
        yield from _paths(inner, (*path, key))


def _with(doc, path, literal: str) -> str:
    """``doc`` as JSON text, the value at ``path`` written as ``literal``."""
    if not path:
        return literal
    doc = copy.deepcopy(doc)
    owner = doc
    for key in path[:-1]:
        owner = owner[key]
    owner[path[-1]] = _MARK
    return json.dumps(doc).replace(json.dumps(_MARK), literal)


def json_mutants(doc):
    for path in _paths(doc):
        for literal in REPLACEMENTS:
            yield _with(doc, path, literal)
    for key in doc:
        yield _with(doc, (key,), DEEP)
    yield DEEP
    yield json.dumps(doc)[:-1]


def text_mutants(text: str):
    lines = text.splitlines()
    for i, line in enumerate(lines):
        tokens = line.split()
        for k in range(len(tokens)):
            yield "\n".join([*lines[:i], " ".join(tokens[:k]), *lines[i + 1:]])
            for literal in REPLACEMENTS:
                tokens_k = [*tokens[:k], literal, *tokens[k + 1:]]
                yield "\n".join([*lines[:i], " ".join(tokens_k), *lines[i + 1:]])


def _escapes(read, error, mutants) -> list[str]:
    """Each mutant that ``read`` answers with anything but a result or
    ``error``, a warning included."""
    out = []
    for text in mutants:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                read(text)
            except error:
                pass
            except Exception as exc:  # noqa: BLE001 - the escapes are what is collected
                out.append(f"{type(exc).__name__}: {exc} <- {text[:120]!r}")
    return out


TOPOLOGY = {"nodes": ["a", "b", "c", "d"],
            "edges": [["a", "b"], ["b", "c"], ["c", "d"]],
            "default_beta": 0.99,
            "beta": [["a", "b", 0.98]],
            "crosstalk_pairs": [[["a", "b"], ["c", "d"]]]}
CIRCUIT = {"qubits": ["q0", "q1", "q2"],
           "gates": [{"p": "q0", "q": "q1", "kind": "cx"},
                     {"p": "q1", "q": "q2", "kind": "matrix",
                      "matrix": [[float(z.real), float(z.imag)] for z in SWAP.reshape(-1)]}]}
FIDELITY = {"0": {"f": [0.9, 0.95, 0.99, 1.0], "f_swap": [0.8, 0.9, 0.97, 1.0]}}
ROUTED = json.loads(routed_to_json(RoutedCircuit(
    n_nodes=3, initial_map=(0, 1, 2), final_map=(2, 0, 1),
    steps=((GateOp(gid=0, p=0, q=1, arc=(0, 1), merged_swap=True, cnots_used=3),),
           (FreeSwap(edge=(1, 2)),)))))


def _tiny_problem():
    """The error model of one CX on a 2-node line, and one optimal assignment."""
    g = builtin_topology("line", 2)
    c = LayeredCircuit(2, ((Gate(0, 1, CX, gid=0),),))
    _, p = assemble_problem(c, g, FidelityModel.build(c, g), objective="error")
    return p, solve_branch_and_bound(p).assignment


@pytest.mark.parametrize("read, error, doc", [
    (load_topology, TopologyError, TOPOLOGY),
    (load_circuit, CircuitError, CIRCUIT),
    (load_fidelity_overrides, FidelityError, FIDELITY),
    (routed_from_json, ExtractError, ROUTED),
], ids=["topology", "circuit", "fidelity", "routed"])
def test_json_reader_raises_only_its_own_error(read, error, doc):
    read(json.dumps(doc))  # the valid document reads
    assert not _escapes(read, error, json_mutants(doc))


@pytest.mark.parametrize("fmt", ["lp", "mps"])
def test_model_reader_raises_only_its_own_error(fmt):
    text = export_model(_tiny_problem()[0], fmt)
    assert export_model(import_model(text), fmt) == text
    assert not _escapes(import_model, SolveError, text_mutants(text))


def test_solution_reader_raises_only_its_own_error():
    p, assignment = _tiny_problem()
    text = export_solution(p, assignment)
    assert import_solution(p, text).assignment.tolist() == assignment.tolist()
    assert not _escapes(lambda t: import_solution(p, t), SolveError, text_mutants(text))


def test_every_fault_reads_as_malformed_with_its_cause():
    with pytest.raises(ExtractError, match="^malformed routed-circuit document: cannot convert"):
        routed_from_json({**ROUTED, "n_nodes": 1e400})
    with pytest.raises(ExtractError, match="^malformed routed-circuit document: key 'steps'"):
        routed_from_json({k: v for k, v in ROUTED.items() if k != "steps"})
    with pytest.raises(SolveError, match="^malformed model document: list index"):
        import_model("Minimize\n obj: + 3\nSubject To\nBinary\n x\nEnd\n")
    with pytest.raises(TopologyError, match="^malformed topology document: maximum recursion"):
        load_topology(DEEP)
    with pytest.raises(TopologyError, match="^malformed topology document: Expecting"):
        load_topology("{")
    # A check that names a field or a line keeps its own message.
    with pytest.raises(CircuitError, match="^gate 1 has unknown kind 'x'$"):
        load_circuit({**CIRCUIT, "gates": [CIRCUIT["gates"][0], {"p": "q1", "q": "q2",
                                                                 "kind": "x"}]})
    with pytest.raises(FidelityError, match="^malformed override 0: could not convert"):
        load_fidelity_overrides({"0": {**FIDELITY["0"], "f": ["high", 1, 1, 1]}})


FAST = ["--qv", "4,1", "--qv-layers", "2", "--dummy-steps", "1"]
LINE4 = {"nodes": [1, 2, 3, 4], "edges": [[1, 2], [2, 3], [3, 4]]}


@pytest.mark.parametrize("flag, text", [
    ("--topology", json.dumps({**LINE4, "crosstalk_pairs": [[]]})),
    ("--topology", json.dumps({**LINE4, "crosstalk_pairs": [{}]})),
    ("--topology", DEEP),
    ("--fidelity", DEEP),
], ids=["pair-empty", "pair-object", "deep-topology", "deep-fidelity"])
def test_cli_document_that_does_not_parse_exits_4(flag, text, tmp_path, capsys):
    doc = tmp_path / "doc.json"
    doc.write_text(text)
    source = [] if flag == "--topology" else ["--builtin", "line,4"]
    code = main(["transpile", *source, flag, str(doc), *FAST])
    assert code == 4
    assert capsys.readouterr().err.startswith("error: malformed ")


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_cli_non_finite_solution_value_exits_4(value, tmp_path, capsys):
    sol = tmp_path / "in.sol"
    sol.write_text(f"w_0_0_0 {value}\n")
    code = main(["export", "--builtin", "line,4", *FAST, "--solution", str(sol),
                 "--out", str(tmp_path)])
    assert code == 4
    assert capsys.readouterr().err.startswith("error: malformed solution document: ")


@pytest.mark.parametrize("entry", ["1e400", "NaN"])
def test_cli_non_finite_circuit_entry_exits_4_without_a_warning(entry, tmp_path, capsys):
    doc = tmp_path / "circ.json"
    doc.write_text(_with(CIRCUIT, ("gates", 1, "matrix", 0, 0), entry))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["transpile", "--builtin", "line,4", "--circuit", str(doc)])
    assert code == 4
    assert capsys.readouterr().err == "error: gate 1 payload is not a 4x4 unitary\n"


def test_a_document_reads_the_same_as_text_and_as_a_dict():
    assert dump_circuit(load_circuit(json.dumps(CIRCUIT))) == dump_circuit(load_circuit(CIRCUIT))
    assert load_topology(json.dumps(TOPOLOGY)) == load_topology(TOPOLOGY)
    assert routed_from_json(json.dumps(ROUTED)) == routed_from_json(ROUTED)
    assert load_fidelity_overrides(json.dumps(FIDELITY)) == {0: FIDELITY["0"]}
