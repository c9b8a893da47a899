"""Routing benchmark: exact ladder, deadline ladder and greedy transpile.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--quick]

Run from the root of a checkout. Each request is one in-process call to
``qaroute.cli.main(["transpile", ...])`` on a circuit document written at
set-up; one client sends requests one after another (closed loop). The
whole request set runs in passes, at least the workload's count and until
``--seconds`` of request time has been measured; a request's time is the
mean of its runs. Every returned route is checked outside the timed span.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics. With ``--trace 1`` one untraced pass runs, then
one traced pass, and the JSON object carries the per-layer metrics read
from the spans. Run records (one row per request) and spans are written
under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="one request, one pass, one set-up: for the schema tests")
    ap.add_argument("--instance-seed", type=int, default=None,
                    help="seed of the exact ladders (default 202); other values "
                         "get DP references marked unverified")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "qaroute" / "cli.py").is_file():
        print(f"error: no package sources at {SRC / 'qaroute'}; run from the "
              "root of a full checkout", file=sys.stderr)
        return 2
    # Requests run one at a time on a 2-CPU machine shared with other
    # processes; OpenBLAS worker threads spinning against a busy second
    # CPU made the 64x64 products of the unitary checks up to 6x slower.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.path.insert(0, str(SRC))
    from bench import WORKLOADS, Bench

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    bench = Bench(args, WORKLOADS[args.workload])
    result = bench.run()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
