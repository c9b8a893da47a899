import dataclasses
import json
import os
import time

import pytest

from helpers import RecordingPool, shuffled_grid_document
from qaroute import cli, heuristic, qvbench, solver
from qaroute.bipmodel import assemble_problem
from qaroute.circuit import insert_dummy_steps, pad_qubits
from qaroute.cli import main
from qaroute.extract import ExtractError, FreeSwap, GateOp, routed_from_json
from qaroute.gatefid import FidelityModel
from qaroute.modelio import export_solution
from qaroute.qvbench import gen_qv_circuit, lower_circuit
from qaroute.solver import SolveLimits, solve_branch_and_bound

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


@pytest.mark.parametrize("variant", ["bip", "bip_layout", "bip_routing"])
def test_free_variants_return_the_greedy_route_when_a_limit_leaves_no_incumbent(variant,
                                                                              capsys):
    # The DP refuses eight active qubits on line-12, and the branch and
    # bound finds no incumbent in one node: the route exists, so the free
    # variants return the greedy one, from the greedy layout (which is
    # bip_routing's pinned layout), unproven.
    argv = ["transpile", "--builtin", "line,12", "--qv", "8,1", "--qv-layers", "2"]
    assert main([*argv, "--variant", "sabre_like"]) == 0
    greedy = capsys.readouterr().out.split("structural: ok")[0]
    assert main([*argv, "--node-limit", "1", "--variant", variant]) == 3
    out = capsys.readouterr().out
    assert "structural: ok" in out
    assert out.split("structural: ok")[0] == greedy.replace("sabre_like", variant)


def test_a_fallback_route_of_bip_layout_is_routed_once(monkeypatch, capsys):
    # The greedy fallback already routes from the greedy layout; bip_layout
    # then keeps that route rather than routing the same layout again.
    calls = []
    route = heuristic.heuristic_route

    def counting(*args):
        calls.append(args[2])
        return route(*args)

    monkeypatch.setattr(heuristic, "heuristic_route", counting)
    argv = ["transpile", "--builtin", "line,12", "--qv", "8,1", "--qv-layers", "2"]
    assert main([*argv, "--variant", "sabre_like"]) == 0
    greedy = capsys.readouterr().out.split("structural: ok")[0]
    assert len(calls) == 1
    assert main([*argv, "--node-limit", "1", "--variant", "bip_layout"]) == 3
    assert len(calls) == 2 and calls[1] == calls[0]
    assert capsys.readouterr().out.split("structural: ok")[0] == greedy.replace(
        "sabre_like", "bip_layout")


def test_limit_without_incumbent_exits_2(capsys):
    # bip_constrained solves through the stage loop, whose first stage
    # finds no incumbent in one node.
    code = main(["transpile", "--builtin", "line,10", "--qv", "4,1", "--qv-layers", "2",
                 "--variant", "bip_constrained", "--node-limit", "1"])
    assert code == 2
    assert "infeasible:" in capsys.readouterr().err


def test_a_time_limit_spent_before_stage_1_exits_2(capsys):
    # bip_constrained solves through the stage loop; the limit has passed
    # before its first stage starts, with no incumbent to keep.
    code = main(["transpile", "--builtin", "line,4", "--qv", "4,1", "--qv-layers", "2",
                 "--variant", "bip_constrained", "--time-limit", "1e-12"])
    assert code == 2
    assert "stage 1 hit its budget with no incumbent" in capsys.readouterr().err


def test_a_free_variant_past_the_limit_before_stage_1_returns_the_greedy_route(monkeypatch,
                                                                              capsys):
    # With no memory to spare the DP refuses the instance, and the stage
    # loop starts past the limit: bip returns the greedy route, unproven.
    argv = ["transpile", "--builtin", "line,4", "--qv", "4,1", "--qv-layers", "2"]
    assert main([*argv, "--variant", "sabre_like"]) == 0
    greedy = capsys.readouterr().out.split("structural: ok")[0]
    monkeypatch.setattr(solver, "DP_MEMORY", 0)
    assert main([*argv, "--time-limit", "1e-12"]) == 3
    assert capsys.readouterr().out.split("structural: ok")[0] == greedy.replace("sabre_like",
                                                                                "bip")


@pytest.mark.parametrize("argv", [
    *(["transpile", "--variant", v] for v in heuristic.VARIANTS), ["pareto"], ["export"]],
    ids=[*heuristic.VARIANTS, "pareto", "export"])
def test_a_layer_wider_than_any_matching_exits_4_in_every_command(argv, tmp_path, capsys):
    # Every edge of a star meets its centre, so two gates never run at once.
    topology, circuit = tmp_path / "star.json", tmp_path / "circuit.json"
    topology.write_text(json.dumps({"nodes": [0, 1, 2, 3], "edges": [[0, 1], [0, 2], [0, 3]]}))
    circuit.write_text(json.dumps({"qubits": [0, 1, 2, 3], "gates": [
        {"p": 0, "q": 1, "kind": "cx"}, {"p": 2, "q": 3, "kind": "cx"}]}))
    code = main([*argv, "--topology", str(topology), "--circuit", str(circuit),
                 "--out", str(tmp_path / "out")])
    assert code == 4
    err = capsys.readouterr().err
    assert err == "error: a layer holds 2 gates but the graph has no matching that large\n"


@pytest.mark.parametrize("command", ["transpile", "pareto", "export"])
def test_qv_layers_with_a_circuit_document_exits_4(command, tmp_path, capsys):
    # --qv-layers truncates generated QV circuits; a circuit document
    # would be routed whole, so the flag is refused rather than ignored.
    circuit = tmp_path / "circuit.json"
    circuit.write_text(json.dumps({"qubits": [0, 1], "gates": [{"p": 0, "q": 1, "kind": "cx"}]}))
    argv = [command, "--builtin", "line,4", "--circuit", str(circuit)]
    assert main([*argv, "--out", str(tmp_path / "whole")]) == 0
    capsys.readouterr()
    assert main([*argv, "--qv-layers", "1", "--out", str(tmp_path / "cut")]) == 4
    assert capsys.readouterr().err == ("error: --qv-layers truncates --qv circuits; "
                                       "a --circuit is routed whole\n")
    assert not (tmp_path / "cut").exists()


def test_sweep_with_a_zero_error_step_is_an_argument_error(tmp_path, capsys):
    # With every beta at 1 a swap costs nothing, so the sweep has no error
    # step to take: a bad input (exit 4), not a missing route (exit 2).
    topo = tmp_path / "topo.json"
    topo.write_text(json.dumps({"nodes": [0, 1, 2, 3], "edges": [[0, 1], [1, 2], [2, 3]],
                                "default_beta": 1.0}))
    code = main(["pareto", "--topology", str(topo), "--qv", "4,1", "--qv-layers", "2"])
    assert code == 4
    assert "step size" in capsys.readouterr().err


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
    assert lines[0] == "circuit\tstep\tobjective\tvalue\tincrease_vs_min\tstatus"
    # one circuit, one step, two objectives
    assert len(lines) == 3
    assert all(l.startswith("circuit0\t0\t") for l in lines[1:])


def test_pareto_writes_its_table_when_a_circuit_has_no_route(tmp_path, capsys):
    # Circuits 1-3 sweep within 15 branch-and-bound nodes; circuit 0's
    # stage 1 finds no incumbent there. Its row carries no values, the
    # whole table is written, and the command exits 2.
    code = main(["pareto", "--builtin", "grid,6", "--qv", "4,4", "--qv-layers", "2",
                 "--node-limit", "15", "--steps", "1", "--out", str(tmp_path)])
    assert code == 2
    assert "1 of 4 circuits found no route" in capsys.readouterr().err
    lines = (tmp_path / "pareto.tsv").read_text().strip("\n").split("\n")
    assert len(lines) == 1 + 1 + 3 * 2
    assert lines[1] == "circuit0\t\t\t\t\tno_route"
    assert {l.split("\t")[0] for l in lines[2:]} == {"circuit1", "circuit2", "circuit3"}
    assert all(l.split("\t")[5] in ("ok", "limit") for l in lines[2:])


def test_pareto_three_objectives(tmp_path):
    # The README's --objectives error,depth,crosstalk on y-6, small: each
    # point has three values, one row each.
    code = main(["pareto", "--builtin", "y,6", *FAST, "--objectives", "error,depth,crosstalk",
                 "--steps", "2", "--out", str(tmp_path)])
    assert code == 0
    rows = [l.split("\t") for l in (tmp_path / "pareto.tsv").read_text().split("\n")[1:] if l]
    assert [(r[1], r[2]) for r in rows] == [(step, obj) for step in "01"
                                            for obj in ("error", "depth", "crosstalk")]
    assert all(r[5] == "ok" for r in rows)
    # The error ceiling only widens, so the depth and crosstalk values
    # never rise from one point to the next.
    assert float(rows[4][3]) <= float(rows[1][3])


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
                                    "depth_proxy", "error_objective", "hop", "status"]
    assert lines[1].split("\t")[0:2] == ["0", "sabre_like"]
    assert lines[2].split("\t")[0:2] == ["1", "sabre_like"]
    assert lines[1].split("\t")[-1] == lines[2].split("\t")[-1] == "ok"


def test_bench_writes_its_table_when_a_run_has_no_route(tmp_path, capsys):
    # bip_constrained finds no route for either 2-layer circuit on y-6: each
    # is a no_route row without figures and outside the HOP estimate, the
    # table is written, and the command exits 2.
    code = main(["bench", "--builtin", "y,6", "--qv", "4,2", "--qv-layers", "2",
                 "--variant", "bip_constrained", "--out", str(tmp_path)])
    assert code == 2
    assert "2 of 2 runs found no route" in capsys.readouterr().err
    lines = (tmp_path / "bench.tsv").read_text().split("\n")
    assert lines[1:3] == ["0\tbip_constrained\t\t\t\t\tno_route",
                          "1\tbip_constrained\t\t\t\t\tno_route"]
    assert lines[5] == "bip_constrained\t\t\tFalse"


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


def test_sabre_like_routes_a_grid_whose_labels_are_shuffled(tmp_path, capsys):
    # Every variant first sizes a maximum matching of the whole graph;
    # on this 6x6 grid that once gave up (exit 4).
    topology = tmp_path / "grid36.json"
    topology.write_text(json.dumps(shuffled_grid_document(6, 1)))
    code = main(["transpile", "--topology", str(topology), "--qv", "4,1",
                 "--variant", "sabre_like"])
    assert code == 0
    assert "structural: ok" in capsys.readouterr().out


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


def test_a_solution_that_does_not_decode_is_an_internal_fault(monkeypatch, tmp_path):
    # A solution that passes every row of the model decodes unless the
    # model itself is wrong: the error propagates, it is not "no route".
    def broken(*args, **kwargs):
        raise ExtractError("decoded circuit is inconsistent")

    vs, p = _export_problem()
    sol = tmp_path / "incoming.sol"
    sol.write_text(export_solution(p, solve_branch_and_bound(p, SolveLimits()).assignment))
    monkeypatch.setattr(cli, "decode", broken)
    with pytest.raises(ExtractError, match="inconsistent"):
        main(["export", "--builtin", "line,4", *FAST, "--solution", str(sol),
              "--out", str(tmp_path)])


def test_a_route_that_fails_its_own_check_is_an_internal_fault(monkeypatch, tmp_path):
    # One gate on the wrong arc: its two nodes reversed. The files are
    # written, then the fault propagates instead of an exit code.
    def wrong_arc(*args, **kwargs):
        run = run_variant_full(*args, **kwargs)
        steps = [list(ops) for ops in run.routed.steps]
        t, k = next((t, k) for t, ops in enumerate(steps) for k, op in enumerate(ops)
                    if isinstance(op, GateOp))
        steps[t][k] = dataclasses.replace(steps[t][k], arc=steps[t][k].arc[::-1])
        bad = dataclasses.replace(run.routed, steps=tuple(map(tuple, steps)))
        return dataclasses.replace(run, routed=bad)

    run_variant_full = cli.run_variant_full
    monkeypatch.setattr(cli, "run_variant_full", wrong_arc)
    with pytest.raises(RuntimeError, match="fails its check: gate"):
        main(["transpile", "--builtin", "line,4", *FAST, "--out", str(tmp_path)])
    assert "structural: gate" in (tmp_path / "report.txt").read_text()
    assert routed_from_json((tmp_path / "routed.json").read_text()).n_nodes == 4


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


def test_repeated_calls_share_one_parser_and_nothing_else(tmp_path, capsys, monkeypatch):
    # The parser is built once per process. Each call of a sequence (with
    # --out, without it, another subcommand, an argument error) must parse
    # to the namespace, and give the output, files and exit code, that it
    # gets from a freshly built parser.
    out = tmp_path / "out"
    calls = (
        ["transpile", "--builtin", "line,4", *FAST, "--seed", "3", "--out", str(out)],
        ["transpile", "--builtin", "line,4", *FAST, "--seed", "3"],
        ["pareto", "--builtin", "line,4", *FAST, "--steps", "1"],
        ["transpile", "--builtin", "line,4", *FAST, "--variant", "annealer"],
    )
    parsed = []
    parse = cli._Parser.parse_args

    def recording(self, args=None, namespace=None):
        ns = parse(self, args, namespace)
        parsed.append(dict(vars(ns)))
        return ns

    monkeypatch.setattr(cli._Parser, "parse_args", recording)

    def run(fresh: bool) -> list:
        results = []
        for argv in calls:
            if fresh:
                cli._build_parser.cache_clear()
            code = main(list(argv))
            cap = capsys.readouterr()
            files = {p.name: p.read_text() for p in sorted(out.glob("*"))}
            results.append((code, cap.out, cap.err, files))
        return results

    first = run(fresh=True)
    fresh_namespaces = parsed[:]
    parsed.clear()
    for p in out.glob("*"):
        p.unlink()
    again = run(fresh=False)
    info = cli._build_parser.cache_info()
    assert (info.hits, info.misses) == (len(calls), 1)
    assert [r[0] for r in first] == [0, 0, 0, 4]
    assert "invalid choice" in first[3][2]
    assert again == first
    assert parsed == fresh_namespaces
    assert [ns["out"] for ns in parsed] == [out, None, None]
