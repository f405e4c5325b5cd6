"""Tests of the benchmark's own machinery.

    python3 -m pytest -q perfbench/tests
"""

import os
import sys
import time

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))

import checker  # noqa: E402
import jobs as runner  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

import nacap.field  # noqa: E402,F401  (the checker parses literals with it)


def node(value, guarantee):
    return {"value": value, "guarantee": guarantee}


class TestChecker:
    def test_accepts_higher_guarantee_that_agrees_below_the_old_one(self):
        old = {"capacity": node("1 - 1*e^(1) + 2*e^(3)", "4")}
        new = {"capacity": node("1 - 1*e^(1) + 2*e^(3) - 5*e^(4) + 1*e^(6)", "7")}
        assert checker.compare_outputs(old, new, series=True) == []

    def test_rejects_a_lower_guarantee(self):
        old = {"capacity": node("1 - 1*e^(1)", "5")}
        new = {"capacity": node("1 - 1*e^(1)", "4")}
        assert checker.compare_outputs(old, new, series=True)

    def test_rejects_a_certified_differing_term(self):
        old = {"capacity": node("1 - 1*e^(1) + 2*e^(3)", "4")}
        new = {"capacity": node("1 - 1*e^(1) + 3*e^(3)", "8")}
        assert checker.compare_outputs(old, new, series=True)

    def test_rejects_an_unparsable_value(self):
        old = [node("1 - 1*e^(1)", "4")]
        assert checker.compare_outputs(old, [node("1 - 1*e^(", "4")], series=True)

    def test_q_r_values_must_match_exactly(self):
        old = [node("(1)/(1 + 1*r)", "inf")]
        assert checker.compare_outputs(old, [node("(1)/(1 + 2*r)", "inf")], series=False)
        assert checker.compare_outputs(old, [node("(1)/(1 + 1*r)", "inf")], series=False) == []

    def test_other_leaves_must_match_exactly(self):
        old = {"verdict": {"type": "null", "radii": [1, 2]}}
        assert checker.compare_outputs(old, {"verdict": {"type": "positive", "radii": [1, 2]}}, True)
        assert checker.compare_outputs(old, {"verdict": {"type": "null", "radii": [1]}}, True)

    def test_unreferenced_report_needs_a_matching_audit(self):
        good = '{"outputs": {"v": {"value": "1", "guarantee": "3"}}, "precision_audit": {"min_guarantee": "3"}}'
        bad = '{"outputs": {"v": {"value": "1", "guarantee": "3"}}, "precision_audit": {"min_guarantee": "inf"}}'
        assert checker.check_report(good, None) == []
        assert checker.check_report(bad, None)


class TestGenerator:
    def test_deterministic_in_the_seed(self):
        workload = workloads.WORKLOADS["generic-exact"]
        assert workloads.passes_for(workload, 7) == workloads.passes_for(workload, 7)
        assert workloads.passes_for(workload, 7) != workloads.passes_for(workload, 8)

    def test_cases_are_well_formed(self):
        workload = workloads.WORKLOADS["generic-exact"]
        for job in (job for jobs in workloads.passes_for(workload, 3) for job in jobs):
            if job.case is None:
                continue
            case = job.case
            assert len(case.edges) == case.vertices  # a spanning tree plus one edge
            assert len(case.ball) == case.vertices - 1
            assert case.root in case.ball and case.target in case.ball

    def test_literals_parse_back(self):
        terms = workloads.random_terms(__import__("random").Random(5), 2, positive=False)
        parsed = nacap.field.parse_element(workloads.literal(terms))
        assert parsed.terms == terms


class TestSelfTime:
    def test_synthetic_span_tree(self):
        # root [0, 10] has children a [1, 4] and b [3, 6] (overlapping) and
        # c [8, 12] (clipped to the root); a has a child d [2, 3].
        parents = [-1, 0, 1, 0, 0]
        starts = [0.0, 1.0, 2.0, 3.0, 8.0]
        ends = [10.0, 4.0, 3.0, 6.0, 12.0]
        own = spans.self_times(parents, starts, ends)
        assert own == pytest.approx([10 - 5 - 2, 3 - 1, 1, 3, 4])

    def test_layer_metrics_on_recorded_spans(self):
        tracer = spans.Tracer()

        def leaf():
            time.sleep(0.002)

        inner = tracer.wrap("field.LCElement.inv", leaf)
        outer = tracer.wrap("dirichlet.solve_dp", lambda: (inner(), time.sleep(0.002)))
        tracer.begin_job(0)
        outer()
        tracer.end_job(False)
        metrics, layers = spans.layer_metrics(tracer, passes=1)
        assert layers == {"field", "dirichlet"}
        assert metrics["field.inv.s"] == pytest.approx(metrics["field.self_s"])
        assert metrics["dirichlet.self_s"] >= 0.002
        names, parents, _, _ = tracer.columns()
        assert names == ["dirichlet.solve_dp", "field.LCElement.inv"] and parents == [-1, 0]


class TestBudget:
    def test_overrun_becomes_a_failure(self, monkeypatch):
        class SlowCli:
            @staticmethod
            def main(argv):
                while True:
                    time.sleep(0.01)

        monkeypatch.setitem(sys.modules, "nacap.cli", SlowCli)
        job = workloads.Job(name="slow", argv=("capacity",))
        start = time.perf_counter()
        outcome = runner.run_cli(job, 0.2)
        assert outcome.status == runner.OVERRUN
        assert 0.2 <= time.perf_counter() - start < 2

    def test_budget_is_cleared_after_a_fast_job(self):
        with runner.budget(0.2):
            pass
        time.sleep(0.3)  # an alarm left armed would raise here
