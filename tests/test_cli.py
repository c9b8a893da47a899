import json
import os

import pytest

from helpers import RecordingPool
from qaroute import cli
from qaroute.bipmodel import assemble_problem
from qaroute.circuit import insert_dummy_steps, pad_qubits
from qaroute.cli import main
from qaroute.extract import routed_from_json
from qaroute.gatefid import FidelityModel
from qaroute.qvbench import gen_qv_circuit, lower_circuit
from qaroute.solver import (SolveLimits, export_solution,
                            solve_branch_and_bound)

FAST = ["--qv", "4,1", "--qv-layers", "2", "--dummy-steps", "1"]


def test_transpile_success(capsys):
    code = main(["transpile", "--builtin", "line,4", *FAST, "--seed", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "variant: bip" in out
    assert "structural: ok" in out
    assert "unitary: ok" in out
    assert '"initial_map"' in out


def test_transpile_writes_files(tmp_path):
    code = main(["transpile", "--builtin", "line,4", *FAST,
                 "--seed", "3", "--out", str(tmp_path)])
    assert code == 0
    rc = routed_from_json((tmp_path / "routed.json").read_text())
    assert rc.n_nodes == 4
    assert "error_objective_value" in (tmp_path / "report.txt").read_text()


def test_transpile_infeasible_exit(capsys):
    code = main(["transpile", "--builtin", "line,4", "--qv", "4,1",
                 "--qv-layers", "2", "--variant", "bip_constrained",
                 "--seed", "7"])
    assert code == 2
    assert "infeasible" in capsys.readouterr().err


def test_transpile_limit_exit(capsys):
    code = main(["transpile", "--builtin", "grid,6", "--qv", "6,1",
                 "--qv-layers", "3", "--node-limit", "40"])
    assert code == 3
    # An incumbent is still reported in full.
    assert "structural: ok" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["transpile", "--builtin", "line,4"],
    ["transpile", "--qv", "4,1"],
    ["transpile", "--builtin", "line,4", "--qv", "4,1", "--circuit", "x.json"],
    ["transpile", "--builtin", "line,4", "--qv", "4"],
    ["transpile", "--builtin", "line4", "--qv", "4,1"],
    ["transpile", "--builtin", "line,4", "--qv", "4,1", "--dummy-steps", "-1"],
    ["transpile", "--builtin", "line,4", "--circuit", "/nonexistent.json"],
    ["frobnicate"],
    [],
    ["transpile", "--builtin", "line,4", "--qv", "4,1", "--qv-layers", "0"],
    ["transpile", "--builtin", "line,4", "--qv", "4,1", "--qv-layers", "-1"],
])
def test_io_errors_map_to_exit_4(argv, capsys):
    assert main(argv) == 4
    assert capsys.readouterr().err


def test_pareto_single_step(tmp_path):
    code = main(["pareto", "--builtin", "line,4", *FAST,
                 "--steps", "1", "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "pareto.tsv").read_text().strip().split("\n")
    assert lines[0] == "circuit\tstep\tobjective\tvalue\tincrease_vs_min"
    # one circuit, one step, two objectives
    assert len(lines) == 3
    assert all(l.startswith("circuit0\t0\t") for l in lines[1:])


def test_pareto_needs_two_objectives(capsys):
    code = main(["pareto", "--builtin", "line,4", *FAST,
                 "--objectives", "error"])
    assert code == 4


def test_bench_table(tmp_path):
    code = main(["bench", "--builtin", "line,4", "--qv", "4,2",
                 "--qv-layers", "2", "--dummy-steps", "1",
                 "--variant", "sabre_like", "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "bench.tsv").read_text().strip().split("\n")
    assert lines[0].split("\t") == ["circuit", "variant", "cnot_count",
                                    "depth_proxy", "error_objective", "hop"]
    assert lines[1].split("\t")[0:2] == ["0", "sabre_like"]
    assert lines[2].split("\t")[0:2] == ["1", "sabre_like"]


def test_bench_jobs_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    args = ["bench", "--builtin", "line,4", "--qv", "4,2", "--qv-layers", "2",
            "--dummy-steps", "1", "--variant", "sabre_like"]
    assert main([*args, "--jobs", "1", "--out", str(a)]) == 0
    assert main([*args, "--jobs", "3", "--out", str(b)]) == 0
    assert (a / "bench.tsv").read_text() == (b / "bench.tsv").read_text()


def _export_problem():
    c = lower_circuit(gen_qv_circuit(4, [0, 0]), n_layers=2)
    c = insert_dummy_steps(pad_qubits(c, 4), 1)
    from qaroute.hwgraph import builtin_topology
    g = builtin_topology("line", 4)
    fid = FidelityModel.build(c, g)
    return assemble_problem(c, g, fid, objective="error")


def test_export_model_and_solution(tmp_path):
    code = main(["export", "--builtin", "line,4", *FAST,
                 "--format", "mps", "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "model.mps").read_text().startswith("NAME")

    vs, p = _export_problem()
    res = solve_branch_and_bound(p, SolveLimits())
    sol = tmp_path / "incoming.sol"
    sol.write_text(export_solution(p, res.assignment))
    code = main(["export", "--builtin", "line,4", *FAST,
                 "--solution", str(sol), "--out", str(tmp_path)])
    assert code == 0
    report = (tmp_path / "solution_report.txt").read_text()
    reported = float(report.split("\n")[0].split(": ")[1])
    assert reported == pytest.approx(res.objective, abs=1e-9)
    rc = routed_from_json((tmp_path / "routed.json").read_text())
    assert rc.n_nodes == 4


def test_export_rejects_infeasible_solution(tmp_path, capsys):
    sol = tmp_path / "bad.sol"
    sol.write_text("# empty assignment\n")
    code = main(["export", "--builtin", "line,4", *FAST,
                 "--solution", str(sol), "--out", str(tmp_path)])
    assert code == 2
    assert "infeasible solution" in capsys.readouterr().err


def test_custom_topology_and_circuit_files(tmp_path, capsys):
    topo = {"nodes": [1, 2, 3, 4],
            "edges": [[1, 2], [2, 3], [3, 4]],
            "default_beta": 0.9936}
    tf = tmp_path / "topo.json"
    tf.write_text(json.dumps(topo))
    qv = lower_circuit(gen_qv_circuit(4, 5), n_layers=2)
    from qaroute.circuit import dump_circuit
    cf = tmp_path / "circ.json"
    cf.write_text(json.dumps(dump_circuit(qv)))
    code = main(["transpile", "--topology", str(tf), "--circuit", str(cf),
                 "--dummy-steps", "1"])
    assert code == 0
    assert "structural: ok" in capsys.readouterr().out


def test_malformed_fidelity_document_exits_4(tmp_path, capsys):
    doc = tmp_path / "fid.json"
    doc.write_text('{"0": {"f": ["high", 1, 1, 1], "f_swap": [1, 1, 1, 1]}}')
    code = main(["transpile", "--builtin", "line,4", *FAST, "--fidelity", str(doc)])
    assert code == 4
    assert "override 0" in capsys.readouterr().err


def test_internal_value_error_is_not_exit_4(monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("internal bug")

    monkeypatch.setattr(cli, "run_variant_full", broken)
    with pytest.raises(ValueError, match="internal bug"):
        main(["transpile", "--builtin", "line,4", *FAST])


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_jobs_below_one_exit_4(jobs, capsys):
    code = main(["pareto", "--builtin", "line,4", "--qv", "4,2", "--qv-layers", "2",
                 "--dummy-steps", "1", "--jobs", jobs])
    assert code == 4
    assert "--jobs" in capsys.readouterr().err


@pytest.mark.parametrize("cpus, pools", [(4, [2]), (1, [])])
def test_pareto_pool_capped_at_tasks_and_cpus(cpus, pools, monkeypatch, tmp_path):
    # Three jobs over two tasks: the pool never outgrows the task count or
    # the machine, and a single worker runs in process.
    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    code = main(["pareto", "--builtin", "line,4", "--qv", "4,2", "--qv-layers", "2",
                 "--dummy-steps", "1", "--steps", "1", "--jobs", "3",
                 "--out", str(tmp_path)])
    assert code == 0
    assert RecordingPool.sizes == pools
