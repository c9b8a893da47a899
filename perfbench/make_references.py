"""Regenerate ``references.json``: reference optima of the exact ladders.

Each instance is solved twice by paths unrelated to the embedded branch
and bound: the exhaustive layout DP ``solve_exhaustive(..., ("error",
"depth"))`` and ``scipy.optimize.milp`` (HiGHS, ``mip_rel_gap=0``) run
as two lexicographic stages on the rows the CLI builds, the depth stage
under the same 1e-6 error slack the library uses. Both routes are priced
from their schedules. The recorded error is the DP's when the two agree
within 1e-6; where they disagree on depth the HiGHS value is recorded
and the disagreement noted. An instance the DP cannot enumerate keeps
the HiGHS value alone, and one HiGHS cannot close keeps the DP value.

    python3 perfbench/make_references.py
"""

from __future__ import annotations

import json
import platform
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from scipy.optimize import Bounds, LinearConstraint, milp  # noqa: E402
from scipy.sparse import csr_matrix  # noqa: E402

from qaroute.bipmodel import Row, assemble_problem, set_objective  # noqa: E402
from qaroute.circuit import dump_circuit  # noqa: E402
from qaroute.extract import decode, stats  # noqa: E402
from qaroute.qvbench import lower_circuit  # noqa: E402
from qaroute.solver import SolveError, solve_exhaustive  # noqa: E402

from checks import REFERENCE_FILE, prepare, swap_depth  # noqa: E402
from workloads import DEFAULT_INSTANCE_SEED, WORKLOADS, qv_source  # noqa: E402

ERROR_SLACK = 1e-6  # lexopt's stage slack on the error objective
AGREE_TOL = 1e-6
HIGHS_TIME_LIMIT_S = 300.0  # per stage; the slowest rung (y-8/w6/4L/s0) needs ~340 s in all
# Offline, the DP also enumerates the 8-node rungs (up to ~22 s each). At
# run time bench.DP_MAX_NODES = 6 applies instead: there the DP derives
# references for other instance seeds during set-up, where 6-node rungs
# take at most ~0.25 s.
DP_MAX_NODES = 8


def _milp(p, objective, extra_rows, time_limit):
    rows, cols, vals, lo, hi = [], [], [], [], []
    all_rows = list(p.rows) + extra_rows
    for r, row in enumerate(all_rows):
        rows.extend([r] * len(row.vars))
        cols.extend(row.vars)
        vals.extend(row.coefs)
        lo.append(row.rhs if row.sense in ("=", ">=") else -np.inf)
        hi.append(row.rhs if row.sense in ("=", "<=") else np.inf)
    a = csr_matrix((vals, (rows, cols)), shape=(len(all_rows), p.num_vars))
    t0 = time.perf_counter()
    res = milp(c=objective, constraints=LinearConstraint(a, lo, hi),
               integrality=np.ones(p.num_vars), bounds=Bounds(0, 1),
               options={"mip_rel_gap": 0.0, "time_limit": time_limit})
    return res, time.perf_counter() - t0


def highs_lex(prep, time_limit):
    """Error, then depth under the error budget; None when a stage does
    not prove optimality within the limit."""
    c, g, fid = prep.circuit, prep.graph, prep.fid
    vs, p = assemble_problem(c, g, fid, objective="error")
    err_vec = p.objective
    depth_vec = set_objective(p, vs, "depth").objective
    r1, s1 = _milp(p, err_vec, [], time_limit)
    if r1.status != 0:
        return None, {"status": f"stage 1: {r1.message}", "seconds": round(s1, 3)}
    budget = float(err_vec @ np.round(r1.x)) + ERROR_SLACK
    nz = np.flatnonzero(err_vec)
    row = Row(vars=tuple(int(v) for v in nz), coefs=tuple(float(err_vec[v]) for v in nz),
              sense="<=", rhs=budget, family="OBJ_CUTOFF")
    r2, s2 = _milp(p, depth_vec, [row], time_limit)
    if r2.status != 0:
        return None, {"status": f"stage 2: {r2.message}", "seconds": round(s1 + s2, 3)}
    rc = decode(vs, np.round(r2.x).astype(np.int8), c, g, fid)
    value = {"error": stats(rc, fid, g).error_objective_value, "depth": swap_depth(rc, c)}
    return value, {"status": "optimal", "seconds": round(s1 + s2, 3), **value}


def dp_lex(prep):
    if prep.graph.n > DP_MAX_NODES:
        return None, {"status": f"skipped: more than {DP_MAX_NODES} nodes"}
    t0 = time.perf_counter()
    try:
        _, rc = solve_exhaustive(prep.circuit, prep.graph, prep.fid, ("error", "depth"))
    except SolveError as exc:
        return None, {"status": f"refused: {exc}"}
    seconds = round(time.perf_counter() - t0, 3)
    value = {"error": stats(rc, prep.fid, prep.graph).error_objective_value,
             "depth": swap_depth(rc, prep.circuit)}
    return value, {"status": "optimal", "seconds": seconds, **value}


def reference_for(inst, seed, work_dir):
    qv = qv_source(inst, seed)
    path = work_dir / f"{inst.file_stem}.json"
    path.write_text(json.dumps(dump_circuit(lower_circuit(qv))))
    prep = prepare(inst, path, qv)
    dp, dp_info = dp_lex(prep)
    hi, hi_info = highs_lex(prep, HIGHS_TIME_LIMIT_S)
    entry = {"dp": dp_info, "highs": hi_info}
    if dp and hi:
        if abs(dp["error"] - hi["error"]) > AGREE_TOL:
            raise SystemExit(f"{inst.name}: DP and HiGHS disagree on error "
                             f"({dp['error']!r} vs {hi['error']!r})")
        entry.update(error=dp["error"], depth=hi["depth"], source="dp+highs")
        if dp["depth"] != hi["depth"]:
            entry["note"] = (f"DP depth {dp['depth']} disagrees with HiGHS depth "
                             f"{hi['depth']}; HiGHS value recorded")
    elif dp or hi:
        entry.update(error=(dp or hi)["error"], depth=(dp or hi)["depth"],
                     source="dp" if dp else "highs",
                     note="single source: the other path did not finish")
    else:
        entry.update(error=None, depth=None, source="none",
                     note="neither DP nor HiGHS finished")
    return entry


def main() -> int:
    work_dir = HERE / "out" / "references"
    work_dir.mkdir(parents=True, exist_ok=True)
    seed = DEFAULT_INSTANCE_SEED
    instances = {}
    for wname in ("exact_closed", "exact_deadline"):
        for inst in WORKLOADS[wname].instances:
            entry = reference_for(inst, seed, work_dir)
            instances[inst.name] = entry
            print(inst.name, json.dumps(entry), flush=True)
    doc = {
        "provenance": {
            "generated_by": "python3 perfbench/make_references.py",
            "instance_seed": seed,
            "method": ("DP: solve_exhaustive(c, g, fid, ('error', 'depth')). "
                       "HiGHS: scipy.optimize.milp on assemble_problem rows, "
                       "mip_rel_gap=0, error stage then depth stage under "
                       "error <= optimum + 1e-6. Error and depth are priced "
                       "from each solver's decoded schedule (extract.stats; "
                       "depth = dummy steps carrying a swap)."),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "highs_time_limit_s": HIGHS_TIME_LIMIT_S,
        },
        "instances": instances,
    }
    REFERENCE_FILE.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {REFERENCE_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
