"""Set-up probe: one fresh interpreter imports the package and makes the
workload's first call, and prints both times as JSON.

run.py starts several of these and reports the median sum as ``setup_s``.
Usage: python3 benchmarks/setup_probe.py --workload NAME --seed N
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    sys.path.insert(0, str(SRC))

    t0 = time.perf_counter()
    import ch_apparatus.cli  # noqa: F401  (the import is what is timed)

    t1 = time.perf_counter()
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    t2 = time.perf_counter()
    workload.first_call()
    t3 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "first_call_s": t3 - t2}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
