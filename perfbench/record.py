"""Record the reference outputs every CLI job is checked against.

    python3 perfbench/record.py

Runs each CLI job of every workload once, from the root of a source
checkout, and writes the ``outputs`` block of each report that exits 0 to
``perfbench/reference/<workload>.json``.  A job that crashes, is refused or
overruns its budget gets no reference.  Rerun this only on purpose: the
checker compares later commits with what it writes.
"""

import json
import os
import sys

import jobs as runner
from run import REFERENCE_DIR, SRC, metadata
from workloads import WORKLOADS, import_nacap


def main():
    sys.path.insert(0, SRC)
    import_nacap()
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    meta = metadata()
    for workload in WORKLOADS.values():
        recorded = {}
        for job in workload.cli_jobs:
            outcome = runner.run_cli(job, runner.BUDGET_S)
            print(f"{workload.name}: {job.name}: {outcome.status} {outcome.detail}"[:200])
            if outcome.status == runner.DONE:
                recorded[job.name] = {"outputs": json.loads(outcome.report)["outputs"]}
        path = os.path.join(REFERENCE_DIR, f"{workload.name}.json")
        with open(path, "w") as handle:
            json.dump({"commit": meta["commit"], "jobs": recorded}, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
