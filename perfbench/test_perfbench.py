"""The benchmark's own tests: output schema, metric names and live checks.

    python3 -m pytest perfbench/test_perfbench.py -q

They are not part of the package's suite (``testpaths = ["tests"]``).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from argparse import Namespace
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import bench  # noqa: E402
from workloads import WORKLOADS, circuit_path, qv_source, write_circuits  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TEST_OUT = HERE / "out" / "tests"


def _bench(args: list[str], cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_names_the_workloads_the_runner_defines():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_quick_run_prints_every_end_to_end_metric(workload):
    result = _result(_bench(["--workload", workload, "--seed", "3", "--seconds", "1",
                             "--trace", "0", "--quick"]))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] == 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for k, v in result["metrics"].items()
               if k not in ("routed_frac", "cnot_per_gate"))


def test_quick_traced_run_prints_every_per_layer_metric():
    result = _result(_bench(["--workload", "exact_closed", "--seed", "3", "--seconds", "1",
                             "--trace", "1", "--quick"]))
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    got = result["metrics"]
    assert {k: v["unit"] for k, v in got.items()} == want
    assert got["solver.bb_calls"]["value"] == 2  # error stage, then depth stage
    assert got["solver.nodes"]["value"] == (got["lexopt.stage1_nodes"]["value"]
                                            + got["lexopt.stage2_nodes"]["value"])
    assert 0.9 < got["trace.coverage"]["value"] <= 1.0


def test_run_without_sources_fails_without_a_result():
    bare = TEST_OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for f in HERE.glob("*.py"):
        shutil.copy(f, bare / "perfbench")
    shutil.copy(HERE / "references.json", bare / "perfbench")
    proc = _bench(["--workload", "exact_closed", "--seed", "1", "--seconds", "1",
                   "--trace", "0"], cwd=bare)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


class _CorruptingCli:
    """Runs the real CLI, then drops one swap from the route it wrote."""

    def main(self, argv):
        from qaroute import cli

        code = cli.main(argv)
        path = Path(argv[argv.index("--out") + 1]) / "routed.json"
        doc = json.loads(path.read_text())
        for row in doc["steps"]:
            for k, op in enumerate(row):
                if op["kind"] == "swap" or op.get("merged_swap"):
                    if op["kind"] == "swap":
                        del row[k]
                    else:
                        op["merged_swap"] = False
                    path.write_text(json.dumps(doc))
                    return code
        raise AssertionError("route has no swap to remove")


def _closed_bench(name: str) -> tuple[bench.Bench, list]:
    args = Namespace(workload="exact_closed", seed=0, seconds=1.0, trace=0, quick=True,
                     instance_seed=None)
    b = bench.Bench(args, WORKLOADS["exact_closed"])
    b.work = TEST_OUT / name
    shutil.rmtree(b.work, ignore_errors=True)
    b.circuits = b.work / "circuits"
    inst = WORKLOADS["exact_closed"].instances[0]  # its optimum carries one swap
    write_circuits(WORKLOADS["exact_closed"], b.inst_seed, b.circuits, only=(inst,))
    b.prepared = {inst.name: checks.prepare(inst, circuit_path(b.circuits, inst),
                                            qv_source(inst, b.inst_seed))}
    b.refs = b.load_references([inst])
    b.pass_count = 0
    return b, [inst]


def test_corrupted_route_is_counted_as_failed_and_wrong():
    from qaroute import cli

    b, order = _closed_bench("corrupt")
    b.run_pass(cli, 0, order)
    assert b.rows[-1]["routed"] and not b.wrong
    b.run_pass(_CorruptingCli(), 1, order)
    row = b.rows[-1]
    assert not row["routed"]
    assert row["failure"] == "check"
    assert b.wrong
    assert bench.end_to_end(b.rows, [1.0], 1.0)["routed_frac"]["value"] == 0.5


def test_independent_unitary_check_agrees_with_library_verifier():
    from qaroute import cli
    from qaroute.extract import routed_from_json, verify_unitary

    b, order = _closed_bench("unitary")
    b.run_pass(cli, 0, order)
    prep = b.prepared[order[0].name]
    rc = routed_from_json((b.work / "routed" / order[0].file_stem / "routed.json")
                          .read_text())
    assert checks.unitary_deviation(rc, prep.circuit) <= checks.UNITARY_TOL
    assert verify_unitary(rc, prep.circuit) <= checks.UNITARY_TOL
    flipped = replace(rc, final_map=rc.final_map[::-1])
    assert checks.unitary_deviation(flipped, prep.circuit) > 1e-3


def _first_route(name: str):
    """A real route of the first exact_closed rung and its prepared instance."""
    from qaroute import cli

    b, order = _closed_bench(name)
    b.run_pass(cli, 0, order)
    return b.work / "routed" / order[0].file_stem, b.prepared[order[0].name], b.rows[-1]


def test_reference_comparison_by_source_and_exit_code():
    out, prep, row = _first_route("versus")
    e, d = row["error"], row["depth"]

    def judge(code, ref_error, verified, mode="exact"):
        ref = {"error": ref_error, "depth": d, "verified": verified}
        return checks.check_request(code, out, prep, ref, mode)

    # Beating a verified optimum is wrong; beating a DP witness is a note.
    assert judge(0, e + 0.01, True).wrong
    v = judge(0, e + 0.01, False)
    assert v.routed and not v.wrong and v.note
    # A claimed optimum worse than the reference is wrong in either mode,
    # verified or not; a limit incumbent worse than it is not.
    for mode in ("exact", "floor"):
        for verified in (True, False):
            assert judge(0, e - 0.01, verified, mode).wrong
    v = judge(3, e - 0.01, True, "floor")
    assert v.routed and not v.wrong
    v = judge(3, e - 0.01, True, "exact")
    assert not v.routed and not v.wrong
    assert judge(0, e, True).routed


def test_infeasible_verdicts():
    out, prep, row = _first_route("infeasible")
    ref = {"error": row["error"], "depth": row["depth"], "verified": True}
    # A route on disk with exit 2 contradicts the verdict.
    assert checks.check_request(2, out, prep, ref, "exact").wrong
    shutil.rmtree(out)
    # Without a route: wrong where the limit cannot explain it.
    v = checks.check_request(2, out, prep, ref, "exact")
    assert not v.routed and v.wrong
    v = checks.check_request(2, out, prep, ref, "floor")
    assert not v.routed and not v.wrong and v.failure == "exit 2"


def test_other_instance_seed_gets_unverified_dp_references():
    result = _result(_bench(["--workload", "exact_closed", "--seed", "3", "--seconds", "1",
                             "--trace", "0", "--quick", "--instance-seed", "7"]))
    assert result["correct"] is True and result["failed"] == 0
    record = json.loads((HERE / "out" / "record-exact_closed-seed3-trace0.json").read_text())
    assert record["instance_seed"] == 7
    assert [r["verified"] for r in record["references"].values()] == [False]
