import json
import os
import time

import pytest

from helpers import RecordingPool
from qaroute import cli, qvbench
from qaroute.bipmodel import assemble_problem
from qaroute.circuit import insert_dummy_steps, pad_qubits
from qaroute.cli import main
from qaroute.extract import FreeSwap, routed_from_json
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
    # bip_constrained always solves through the stage loop.
    code = main(["transpile", "--builtin", "grid,6", "--qv", "6,1",
                 "--qv-layers", "3", "--variant", "bip_constrained", "--node-limit", "40"])
    assert code == 3
    # An incumbent is still reported in full.
    assert "structural: ok" in capsys.readouterr().out


def test_stage_one_limit_exits_3_even_when_stage_two_closes(capsys):
    # bip_constrained always solves through the stage loop. Stage 1 stops
    # at the node limit with an incumbent; the limit covers the whole
    # run, so stage 2 keeps that incumbent unsearched. Exit 0 would claim
    # an error optimum that stage 1 never proved, and exit 2 a limit as
    # infeasible.
    code = main(["transpile", "--builtin", "line,10", "--qv", "4,1", "--qv-layers", "2",
                 "--seed", "6", "--node-limit", "50", "--variant", "bip_constrained"])
    assert code == 3
    assert "structural: ok" in capsys.readouterr().out


def test_cliff_rung_is_proved_by_the_layout_dp(tmp_path):
    # The y-8/w6/4L/s0 rung of the exact_deadline benchmark: the branch
    # and bound found no incumbent here within 3 s; the layout DP proves
    # the reference optimum well inside the limit.
    code = main(["transpile", "--builtin", "y,8", "--qv", "6,1", "--qv-layers", "4",
                 "--seed", "202", "--time-limit", "3", "--out", str(tmp_path)])
    assert code == 0
    report = dict(line.split(": ") for line in
                  (tmp_path / "report.txt").read_text().splitlines())
    assert float(report["error_objective_value"]) == pytest.approx(0.2705157477246709,
                                                                   abs=1e-9)
    assert swap_layers(tmp_path) == 4


def swap_layers(out) -> int:
    rc = routed_from_json((out / "routed.json").read_text())
    return sum(1 for ops in rc.steps if ops and all(isinstance(op, FreeSwap) for op in ops))


GRID9 = {"nodes": list(range(9)),
         "edges": [[k, k + 1] for k in range(9) if k % 3 < 2]
                  + [[k, k + 3] for k in range(6)]}


@pytest.mark.parametrize("graph, width, layers, error, depth", [
    (["--builtin", "line,10"], 4, 3, 0.136644, 2),
    ("grid9", 4, 3, 0.098121, 0),
    ("grid9", 5, 3, 0.119867, 1),
    (["--builtin", "grid,8"], 7, None, 0.404008, None),
    (["--builtin", "grid,8"], 8, None, 0.576599, None),
], ids=["line-10/w4", "grid-9/w4", "grid-9/w5", "grid-8/w7", "grid-8/w8"])
def test_layout_dp_proves_instances_past_eight_nodes(graph, width, layers, error, depth,
                                                     tmp_path):
    # line-10, a 3x3 grid, and grid-8 at full QV depth: the branch and
    # bound stops unproven on each of these, on grid-8 with routes worse
    # than the greedy ones.
    if graph == "grid9":
        (tmp_path / "grid9.json").write_text(json.dumps(GRID9))
        graph = ["--topology", str(tmp_path / "grid9.json")]
    depth_args = [] if layers is None else ["--qv-layers", str(layers)]
    code = main(["transpile", *graph, "--qv", f"{width},1", *depth_args, "--seed", "202",
                 "--out", str(tmp_path)])
    assert code == 0
    report = dict(line.split(": ") for line in
                  (tmp_path / "report.txt").read_text().splitlines())
    assert float(report["error_objective_value"]) == pytest.approx(error, abs=1e-6)
    if depth is not None:
        assert swap_layers(tmp_path) == depth


def test_layout_dp_past_the_time_limit_exits_3_with_the_greedy_route(capsys):
    # line-12 with six active qubits: 665,280 placements over 233
    # matchings take the DP about 0.6 s on a shared 2-CPU x86 machine,
    # three times the limit.
    code = main(["transpile", "--builtin", "line,12", "--qv", "6,1", "--qv-layers", "3",
                 "--time-limit", "0.2"])
    assert code == 3
    assert "structural: ok" in capsys.readouterr().out


@pytest.mark.parametrize("variant, want", [("bip", 0.0799769397991),
                                           ("bip_layout", 0.0910038658461)],
                         ids=["bip", "bip_layout"])
def test_dp_proves_a_long_line_on_the_matchings_it_can_take(variant, want, capsys):
    # line-25 has 121,393 matchings, but four active qubits can take only
    # the 7,803 with at most four edges, and the DP lists only those.
    # bip_layout routes greedily from the DP's layout, so it pays more.
    code = main(["transpile", "--builtin", "line,25", "--qv", "4,1", "--qv-layers", "2",
                 "--time-limit", "2", "--variant", variant])
    assert code == 0
    out = capsys.readouterr().out
    assert "structural: ok" in out
    error = float(out.split("error_objective_value: ")[1].split()[0])
    assert error == pytest.approx(want, abs=1e-9)


def test_instance_past_the_dp_memory_goes_to_branch_and_bound(capsys):
    # Eight active qubits on line-12 would need about 6.1 GiB of DP
    # arrays; the DP refuses them, and the branch and bound stops at its
    # node limit with an incumbent (the DP ignores the node limit).
    code = main(["transpile", "--builtin", "line,12", "--qv", "8,1", "--qv-layers", "2",
                 "--node-limit", "4000"])
    assert code == 3
    assert "structural: ok" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["pareto", "--builtin", "grid,6", "--qv", "4,1", "--qv-layers", "2", "--seed", "6",
     "--node-limit", "50", "--steps", "2"],
    ["bench", "--builtin", "line,10", "--qv", "4,1", "--qv-layers", "2", "--seed", "6",
     "--node-limit", "50", "--variant", "bip_constrained"],
])
def test_sweep_and_bench_exit_3_when_a_stage_is_unproven(argv, tmp_path):
    # pareto and bip_constrained always solve through the stage loop.
    # Stage 1 stops unproven at 50 nodes, and both commands still write
    # their full table.
    assert main([*argv, "--out", str(tmp_path)]) == 3
    assert len(list(tmp_path.glob("*.tsv"))) == 1


def test_limit_without_incumbent_exits_2(capsys):
    # bip_constrained solves through the stage loop, whose first stage
    # finds no incumbent in one node.
    code = main(["transpile", "--builtin", "line,10", "--qv", "4,1", "--qv-layers", "2",
                 "--variant", "bip_constrained", "--node-limit", "1"])
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
    # A seed is a non-negative integer, and a time limit a positive number.
    ["transpile", "--builtin", "line,4", *FAST, "--seed", "-1"],
    ["pareto", "--builtin", "line,4", *FAST, "--seed", "-1"],
    ["bench", "--builtin", "line,4", *FAST, "--seed", "-1"],
    ["transpile", "--builtin", "line,4", *FAST, "--time-limit", "nan"],
])
def test_io_errors_map_to_exit_4(argv, capsys):
    assert main(argv) == 4
    assert capsys.readouterr().err


def test_infinite_time_limit_means_no_limit(capsys):
    assert main(["transpile", "--builtin", "line,4", *FAST, "--time-limit", "inf"]) == 0
    assert "structural: ok" in capsys.readouterr().out


def test_sabre_like_routes_a_line_with_too_many_matchings_to_enumerate(capsys):
    # line-25 has 121,393 matchings; the greedy layout never enumerates
    # them.
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
    # line-25 has 121,393 matchings; the model's layer-width check only
    # needs the size of a maximum one.
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
