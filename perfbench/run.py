"""Time to a certified report on three exact workloads.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload layered-lc --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

One client runs the workload's jobs one after another (a closed loop, one
thread), pass after pass, for ``--seconds``; every pass runs every job.
nacap is imported from ``src/`` of the checkout.  Outputs are checked after
the timed passes.  With ``--trace 0`` the last line of stdout is the result
with the end-to-end metrics.  With ``--trace 1`` the run alternates an
untraced and a traced pass over the same jobs, and the result carries the
per-layer metrics; bench.trace_overhead is the median ratio of their times.
The spans go to ``perfbench/out/trace-<workload>.{json,spans}``.
``--workload all`` runs each workload in its own process.

End-to-end metrics:
  wall_s         time to run every job once: the sum over jobs of each
                 job's median time over the passes (host noise on a shared
                 VM hits single jobs in single passes; the per-job median
                 drops it, and for generic-exact also the odd costly graph)
  job_ms_p50     the median over jobs of those per-job median times
  setup_s        median of SETUP_REPEATS set-ups: fresh ``import nacap``,
                 loading and building every spec, generating the inputs
  peak_rss_mb    ru_maxrss of the process after the timed passes
  min_guarantee  least precision-audit guarantee over the CLI reports;
                 INF_GUARANTEE (1e6) stands for an exact (infinite) one
  ok_ratio       jobs ending in a checked report / jobs attempted
  sound_ratio    1 - failed_ratio: jobs that did not fail / jobs attempted

A job fails when it raises an undocumented exception, overruns its budget
(``jobs.BUDGET_S``) or fails its check.  A documented refusal (exit 2/3/4, PrecisionError after the
retry ladder, PreconditionError) counts in neither ratio.  ``failed`` in the
result counts failures other than the workloads' declared known defects,
which show in ``sound_ratio`` instead.
"""

from __future__ import annotations

import argparse
import gc
import glob
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import checker
import jobs as runner
import spans
from workloads import WORKLOADS, setup

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
REFERENCE_DIR = os.path.join(BENCH_DIR, "reference")
OUT_DIR = os.path.join(BENCH_DIR, "out")

SETUP_REPEATS = 15
INF_GUARANTEE = 1e6


def metric_units():
    """name -> unit for every metric BENCHMARK.json lists."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------


def run_pass(prepared, pass_index, tracer=None):
    """One pass over every job; returns (seconds spent in jobs, outcomes).

    Each job starts from a collected heap, as a fresh CLI process would, so
    no job pays for garbage an earlier job left and the job order does not
    move the small jobs' times; the collection is not timed."""
    jobs = prepared.passes[pass_index]
    outcomes = []
    for position, job in enumerate(jobs):
        gc.collect()
        if tracer is not None:
            tracer.begin_job(pass_index * len(jobs) + position)
        if job.case is None:
            outcome = runner.run_cli(job, runner.BUDGET_S)
        else:
            outcome = runner.run_graph(job, prepared.graphs[job.name], runner.BUDGET_S)
        if tracer is not None:
            tracer.end_job(outcome.status == runner.OVERRUN)
        outcomes.append(outcome)
    return sum(o.seconds for o in outcomes), outcomes


def run_for(prepared, seconds):
    """Whole passes while another one fits in ``seconds`` (at least one,
    at most the passes the set-up prepared)."""
    passes = []
    start = time.perf_counter()
    while not passes or (
        time.perf_counter() - start + passes[-1][0] <= seconds
        and len(passes) < len(prepared.passes)
    ):
        passes.append(run_pass(prepared, len(passes)))
    return passes


def run_traced(prepared, seconds, tracer):
    """Pairs of passes over the same jobs, untraced then traced, while
    another pair fits in ``seconds`` (at least one)."""
    untraced, traced = [], []
    start = time.perf_counter()
    while not traced or (
        time.perf_counter() - start + untraced[-1][0] + traced[-1][0] <= seconds
        and len(traced) < len(prepared.passes)
    ):
        index = len(traced)
        untraced.append(run_pass(prepared, index))
        tracer.install()
        try:
            traced.append(run_pass(prepared, index, tracer))
        finally:
            tracer.uninstall()
    return untraced, traced


# ---------------------------------------------------------------------------
# Checks and metrics
# ---------------------------------------------------------------------------


def load_references(name):
    with open(os.path.join(REFERENCE_DIR, f"{name}.json")) as handle:
        return json.load(handle)["jobs"]


def judge(passes, prepared, references):
    """Verdict per outcome ("ok", "refused", "failed") and the problems found
    by the checks.  Graph identities are checked on the first pass; later
    passes must reproduce it exactly."""
    errors = sys.modules["nacap.errors"]
    first = {}
    verdicts = []
    problems = []
    for _, outcomes in passes:
        for outcome in outcomes:
            job = outcome.job
            if outcome.status == runner.REFUSED:
                verdicts.append("refused")
                continue
            if outcome.status != runner.DONE:
                verdicts.append("failed")
                continue
            if job.case is None:
                reference = references.get(job.name)
                faults = checker.check_report(outcome.report, reference)
                if reference is None and not job.known_defect:
                    faults.append("no reference outputs recorded")
            elif job.name not in first:
                first[job.name] = outcome.result
                try:
                    faults = checker.graph_identities(
                        job.case, prepared.graphs[job.name], outcome.result, outcome.config
                    )
                except errors.PrecisionError as exc:
                    faults = [f"identity check indeterminate: {exc}"]
            else:
                faults = [] if outcome.result == first[job.name] else ["differs from the first pass"]
            problems += [f"{job.name}: {fault}" for fault in faults]
            verdicts.append("failed" if faults else "ok")
    return verdicts, problems


def job_times(passes):
    """Each job's median time over the passes.  The graph drawn in the same
    slot of every pass counts as one job."""
    samples = {}
    for _, outcomes in passes:
        for o in outcomes:
            key = o.job.name if o.job.case is None else f"graph slot {o.job.case.index}"
            samples.setdefault(key, []).append(o.seconds)
    return [statistics.median(times) for times in samples.values()]


def end_to_end(passes, verdicts, setup_times, peak_rss_mb):
    outcomes = [o for _, pass_outcomes in passes for o in pass_outcomes]
    least = min(
        (
            checker.parse_guarantee(json.loads(o.report)["precision_audit"]["min_guarantee"])
            for o, v in zip(outcomes, verdicts)
            if v == "ok" and o.job.case is None
        ),
        default=checker.INF,
    )
    times = job_times(passes)
    return {
        "wall_s": sum(times),
        "job_ms_p50": 1000 * statistics.median(times),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb,
        "min_guarantee": INF_GUARANTEE if least == checker.INF else float(least),
        "ok_ratio": verdicts.count("ok") / len(verdicts),
        "sound_ratio": 1 - verdicts.count("failed") / len(verdicts),
    }


def metadata():
    commit = "unknown"
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.exists(head):
        with open(head) as handle:
            ref = handle.read().strip()
        commit = ref
        if ref.startswith("ref: "):
            path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.exists(path):
                with open(path) as handle:
                    commit = handle.read().strip()
    lines = 0
    for path in glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True):
        with open(path) as handle:
            lines += sum(1 for _ in handle)
    exact = sys.modules["nacap.exact"]
    return {
        "commit": commit,
        "python": platform.python_version(),
        "scalar_backend": f"{exact.Q.__module__}.{exact.Q.__name__}",
        "nproc": os.cpu_count(),
        "src_lines": lines,
    }


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_all(args):
    """Each workload in its own process, one after another."""
    status = 0
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status = subprocess.run(argv).returncode or status
    return status


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not os.path.isfile(os.path.join(SRC, "nacap", "__init__.py")):
        print(f"nacap sources not found under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    workload = WORKLOADS[args.workload]
    units = metric_units()

    setup_times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        prepared = setup(workload, args.seed)
        setup_times.append(time.perf_counter() - start)
    if not os.path.abspath(sys.modules["nacap"].__file__).startswith(SRC + os.sep):
        print("nacap was not imported from the checkout's src/", file=sys.stderr)
        return 2
    references = load_references(workload.name)

    problems = []
    if args.trace:
        tracer = spans.Tracer()
        untraced, traced = run_traced(prepared, args.seconds, tracer)
        passes = untraced + traced
        metrics, layers_seen = spans.layer_metrics(tracer, len(traced))
        metrics["bench.retries"] = sum(o.retries for _, out in traced for o in out) / len(traced)
        metrics["bench.trace_overhead"] = statistics.median(
            t[0] / u[0] for t, u in zip(traced, untraced)
        )
        for layer in workload.layers:
            if layer not in layers_seen:
                problems.append(f"layer {layer} recorded no span")
    else:
        passes = run_for(prepared, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    verdicts, check_problems = judge(passes, prepared, references)
    problems += check_problems
    if not args.trace:
        metrics = end_to_end(passes, verdicts, setup_times, peak_rss_mb)
    meta = dict(metadata(), workload=workload.name, seed=args.seed, passes=len(passes))

    outcomes = [o for _, pass_outcomes in passes for o in pass_outcomes]
    failed = [o for o, v in zip(outcomes, verdicts) if v == "failed"]
    unexpected = [o for o in failed if not o.job.known_defect]
    print(json.dumps({"meta": meta}))
    for o in {o.job.name: o for o in failed}.values():
        label = "known defect" if o.job.known_defect else "FAILED"
        print(f"{label}: {o.job.name}: {o.status} {o.detail}"[:300])
    for problem in problems:
        print(f"CHECK: {problem}"[:300])
    for name, value in metrics.items():
        print(f"{name:24s} {value:14.6g} {units[name]}")
    if args.trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.write(os.path.join(OUT_DIR, f"trace-{workload.name}"), meta)

    result = {
        "correct": not problems,
        "attempted": len(outcomes),
        "failed": len(unexpected),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
