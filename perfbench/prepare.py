"""The set-up step timed as ``setup_s``: a fresh interpreter imports
``qaroute.cli`` and writes the workload's circuit documents.

    python3 perfbench/prepare.py WORKLOAD INSTANCE_SEED DIRECTORY
"""

import sys
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import qaroute.cli  # noqa: F401  (its import cost is part of set-up)
    from workloads import WORKLOADS, write_circuits

    write_circuits(WORKLOADS[sys.argv[1]], int(sys.argv[2]), Path(sys.argv[3]))
