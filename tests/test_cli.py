import json
import os
import time

import pytest

from helpers import RecordingPool
from qaroute import cli, qvbench
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


def test_stage_one_limit_exits_3_even_when_stage_two_closes(capsys):
    # Stage 1 stops at the node limit with an incumbent; stage 2 starts
    # from that assignment and proves its optimum at the root. Without
    # the warm start stage 2 had no incumbent (exit 2); exit 0 would
    # claim an error optimum that stage 1 never proved.
    code = main(["transpile", "--builtin", "grid,6", "--qv", "4,1", "--qv-layers", "2",
                 "--seed", "6", "--node-limit", "50"])
    assert code == 3
    assert "structural: ok" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["pareto", "--builtin", "grid,6", "--qv", "4,1", "--qv-layers", "2", "--seed", "6",
     "--node-limit", "50", "--steps", "2"],
    ["bench", "--builtin", "grid,6", "--qv", "4,1", "--qv-layers", "2", "--seed", "6",
     "--node-limit", "50"],
])
def test_sweep_and_bench_exit_3_when_a_stage_is_unproven(argv, tmp_path):
    # The instance of the test above: stage 1 stops unproven at 50 nodes.
    # Both commands still write their full table.
    assert main([*argv, "--out", str(tmp_path)]) == 3
    assert len(list(tmp_path.glob("*.tsv"))) == 1


def test_layout_variant_limit_without_incumbent_exits_2(capsys):
    code = main(["transpile", "--builtin", "line,4", "--qv", "4,1", "--qv-layers", "2",
                 "--variant", "bip_layout", "--node-limit", "1"])
    assert code == 2
    assert "infeasible:" in capsys.readouterr().err


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
    # Each subcommand takes only the flags its handler reads, and transpile
    # and export route one circuit.
    ["transpile", "--builtin", "line,4", *FAST, "--jobs", "2"],
    ["transpile", "--builtin", "line,4", *FAST, "--objectives", "crosstalk"],
    ["transpile", "--builtin", "line,4", "--qv", "4,3", "--qv-layers", "2"],
    ["pareto", "--builtin", "line,4", *FAST, "--steps", "1", "--variant", "sabre_like"],
    ["bench", "--builtin", "line,4", *FAST, "--variant", "sabre_like",
     "--objectives", "error"],
    ["export", "--builtin", "line,4", *FAST, "--variant", "sabre_like"],
    ["export", "--builtin", "line,4", *FAST, "--time-limit", "1"],
    ["export", "--builtin", "line,4", *FAST, "--node-limit", "5"],
    ["export", "--builtin", "line,4", *FAST, "--jobs", "2"],
])
def test_io_errors_map_to_exit_4(argv, capsys):
    assert main(argv) == 4
    assert capsys.readouterr().err


def test_sabre_like_routes_a_line_with_too_many_matchings_to_enumerate(capsys):
    # line-25 has more than MATCHING_LIMIT matchings; the greedy layout
    # never enumerates them.
    code = main(["transpile", "--variant", "sabre_like", "--builtin", "line,25", *FAST])
    assert code == 0
    assert "structural: ok" in capsys.readouterr().out


def test_first_layer_repair_ends_in_bounded_time():
    # Eight gates must share line-16's one perfect matching; the repair
    # search skips every arc whose free nodes cannot host the rest.
    start = time.perf_counter()
    code = main(["transpile", "--variant", "sabre_like", "--builtin", "line,16",
                 "--qv", "16,1"])
    assert time.perf_counter() - start < 30
    assert code == 0


@pytest.mark.parametrize("command", ["transpile", "pareto", "bench", "export"])
def test_oversized_qv_width_is_rejected_before_generation(command, capsys):
    # A 100000-qubit QV circuit would take hours to generate; the width is
    # held against the graph first.
    start = time.perf_counter()
    assert main([command, "--builtin", "line,4", "--qv", "100000,1"]) == 4
    assert time.perf_counter() - start < 5
    assert "4 nodes" in capsys.readouterr().err


def test_export_checks_layer_width_without_listing_matchings(tmp_path):
    # line-25 has more than MATCHING_LIMIT matchings; the model's
    # layer-width check only needs the size of a maximum one.
    code = main(["export", "--builtin", "line,25", *FAST, "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "model.lp").is_file()


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
    # A misspelt objective or a step count below 1 is an argument error
    # too, caught before any solve.
    assert main(["pareto", "--builtin", "line,4", *FAST, "--objectives", "error,speed"]) == 4
    assert main(["pareto", "--builtin", "line,4", *FAST, "--steps", "0"]) == 4
    assert "--steps" in capsys.readouterr().err


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


def test_export_objective_flag(tmp_path, capsys):
    code = main(["export", "--builtin", "line,4", *FAST, "--objective", "depth",
                 "--out", str(tmp_path)])
    assert code == 0
    objective = (tmp_path / "model.lp").read_text().split("\n")[2].split()
    # The depth model counts the dummy steps that carry a swap.
    assert objective[0] == "obj:" and objective[3::3] == ["z_1"]
    assert main(["export", "--builtin", "line,4", *FAST, "--objective", "speed"]) == 4
    assert "--objective" in capsys.readouterr().err


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
    monkeypatch.setattr(qvbench, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    code = main(["pareto", "--builtin", "line,4", "--qv", "4,2", "--qv-layers", "2",
                 "--dummy-steps", "1", "--steps", "1", "--jobs", "3",
                 "--out", str(tmp_path)])
    assert code == 0
    assert RecordingPool.sizes == pools
