"""Every benchmark CLI job without a known defect, run in process and held
to the reference outputs the benchmark records, so that a changed report
fails here and not only in a benchmark run.

The checks are the benchmark's own (``perfbench/checker.check_report``):
guarantees may rise, values must agree below the recorded guarantee, and
every other leaf must match exactly.
"""

import json
import os
import sys

import pytest

from nacap.cli import main

BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
sys.path.insert(0, BENCH_DIR)

import checker  # noqa: E402
import workloads  # noqa: E402


def _references(workload):
    with open(os.path.join(BENCH_DIR, "reference", f"{workload}.json")) as handle:
        return json.load(handle)["jobs"]


CASES = [
    pytest.param(job, _references(name).get(job.name), id=f"{name}: {job.name}")
    for name, workload in workloads.WORKLOADS.items()
    for job in workload.cli_jobs
    if not job.known_defect
]


@pytest.mark.parametrize("job, reference", CASES)
def test_report_matches_the_reference(capsys, job, reference):
    code = main(list(job.argv))
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert reference is not None, "no reference outputs recorded"
    assert checker.check_report(captured.out, reference) == []
