"""The benchmark's graph job and its identity checks, run on one seeded
explicit graph, so that a library change the benchmark depends on (a
renamed helper, a changed signature) fails here and not only in a
benchmark run.

The inputs are built as ``perfbench/workloads.setup`` builds them, without
calling it: it drops and re-imports every nacap module.
"""

import os
import random
import sys

import pytest

from nacap.field import LCElement

BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
sys.path.insert(0, BENCH_DIR)

import checker  # noqa: E402
import jobs as runner  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("seed, vertices", [(11, 4), (12, 5)])
def test_seeded_graph_job_satisfies_the_identities(seed, vertices):
    case = workloads.random_case(random.Random(seed), 0, vertices)
    job = workloads.Job(name=f"graph {seed}", case=case)
    edges = [(x, y, LCElement.from_terms(terms)) for x, y, terms in case.edges]
    measure = tuple(workloads.literal(terms) for terms in case.measure)
    charge = {v: LCElement.from_terms(terms) for v, terms in case.charge}
    inputs = (edges, measure, charge)

    outcome = runner.run_graph(job, inputs, seconds=60)
    assert outcome.status == runner.DONE, outcome.detail
    assert len(outcome.result.powers) == case.steps + 1
    assert checker.graph_identities(case, inputs, outcome.result, outcome.config) == []
