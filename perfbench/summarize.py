"""Summarize run records into a baseline: per workload, the median and
quartiles of every end-to-end metric over runs, and, for the fixed exact
ladders, per instance the median request time, exit codes and routed
values. (The greedy circuits change with the seed; their per-request
rows stay in the run records.)

    python3 perfbench/summarize.py [OUTPUT]   (default perfbench/baseline.json)

Reads the ``record-*-trace0.json`` files that ``run.py`` leaves under
``perfbench/out/``, and the ``trace1`` records for per-layer medians.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def _spread(values: list[float]) -> dict:
    med = statistics.median(values)
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [med, med, med]
    return {"median": med, "q1": q[0], "q3": q[2],
            "iqr_over_median": (q[2] - q[0]) / med if med else None, "runs": len(values)}


def summarize(records: list[dict]) -> dict:
    out: dict = {}
    for rec in sorted(records, key=lambda r: (r["workload"], r["trace"], r["seed"])):
        w = out.setdefault(rec["workload"], {"seeds": [], "machine": rec["machine"],
                                             "cli_args": rec["cli_args"],
                                             "metrics": {}, "per_layer": {},
                                             "instances": {}})
        if rec["trace"]:
            for name, m in rec["per_layer"].items():
                w["per_layer"].setdefault(name, []).append(m["value"])
            continue
        w["seeds"].append(rec["seed"])
        for name, m in rec["metrics"].items():
            w["metrics"].setdefault(name, []).append(m["value"])
        if WORKLOADS[rec["workload"]].seeded_instances:
            continue
        for r in rec["requests"]:
            inst = w["instances"].setdefault(r["instance"], {
                "seconds": [], "exit": set(), "error": set(), "depth": set()})
            inst["seconds"].append(r["seconds"])
            inst["exit"].add(r["exit"])
            inst["error"].add(r["error"])
            inst["depth"].add(r["depth"])
    for w in out.values():
        w["metrics"] = {k: _spread(v) for k, v in w["metrics"].items()}
        w["per_layer"] = {k: statistics.median(v) for k, v in w["per_layer"].items()}
        w["instances"] = {
            k: {"seconds_median": statistics.median(v["seconds"]),
                "requests": len(v["seconds"]),
                "exit": sorted(v["exit"], key=str), "error": sorted(v["error"], key=str),
                "depth": sorted(v["depth"], key=str)}
            for k, v in sorted(w["instances"].items())}
    return out


def main() -> int:
    target = Path(sys.argv[1]) if len(sys.argv) > 1 else HERE / "baseline.json"
    records = [json.loads(p.read_text()) for p in sorted((HERE / "out").glob("record-*.json"))]
    records = [r for r in records if not r.get("quick")]
    if not records:
        print("no run records under perfbench/out/", file=sys.stderr)
        return 1
    target.write_text(json.dumps(summarize(records), indent=1) + "\n")
    print(f"wrote {target}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
