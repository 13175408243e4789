"""Regenerate the golden CSVs of the ``cgmagnus simulate`` workloads.

Usage, from the root of a checkout:

    python3 perfbench/make_golden.py

Run it only on a commit whose fidelity curves are trusted: every benchmark
run is checked against these files at max |dF| <= 1e-10.  The seed only
changes the config file's layout, so any seed gives the same CSV.
"""
from __future__ import annotations

import os
import shutil
import sys

from run import ROOT, SRC, WORK


def main() -> int:
    sys.path.insert(0, str(SRC))
    os.chdir(ROOT)
    from workloads import GOLDEN_DIR, SIZES, SimulateWorkload, WORKLOADS

    WORK.mkdir(exist_ok=True)
    GOLDEN_DIR.mkdir(exist_ok=True)
    for workload in WORKLOADS.values():
        if not isinstance(workload, SimulateWorkload):
            continue
        for size in SIZES:
            workload.write_inputs(0, size, WORK)
            inputs = workload.load_inputs(0, size, WORK)
            code, error = workload.execute(inputs)
            if error is not None or code != 0:
                print(f"{workload.name} ({size}) failed: {error or code}", file=sys.stderr)
                return 1
            shutil.copyfile(inputs["out"], workload.golden_path(size))
            print(f"wrote {workload.golden_path(size).relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
