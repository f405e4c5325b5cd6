"""Running one job: the per-job budget, the retry ladder and the raw outcome.

Nothing here checks outputs; the checks in ``checker`` run after the timed
passes.  Library modules are looked up in ``sys.modules`` at call time, so a
job always calls the functions the tracer has (or has not) rebound.
"""

from __future__ import annotations

import contextlib
import io
import signal
import sys
import time
from dataclasses import dataclass

# A job that runs longer than this is stopped and counts as failed.  The
# largest job that completes takes about a quarter of it on a 2-core x86 VM
# whose speed varies by up to twofold from minute to minute.
BUDGET_S = 3.0

# The lean precision of the property suites, doubled on PrecisionError up to
# ATTEMPTS times in all (window 8, 16, 32).
LEAN_PRECISION = {"window": 8, "max_terms": 96, "geometric_series_depth": 24}
ATTEMPTS = 3

DONE, REFUSED, CRASHED, OVERRUN = "done", "refused", "crashed", "overrun"


class BudgetExceeded(BaseException):
    """Raised from SIGALRM inside an overrunning job.  It derives from
    BaseException so that no handler in the library takes it for a refusal."""


@contextlib.contextmanager
def budget(seconds):
    """Interrupt the block with BudgetExceeded after ``seconds`` of wall time."""

    def expire(signum, frame):
        raise BudgetExceeded(f"job exceeded its {seconds:g} s budget")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@dataclass
class Outcome:
    """What one job did in one pass.  ``report`` is the CLI's stdout;
    ``result`` the graph job's values; ``config`` the precision that
    produced them; ``retries`` the reruns at doubled precision."""

    job: object
    seconds: float
    status: str
    detail: str = ""
    report: str = ""
    result: object = None
    config: object = None
    retries: int = 0


def run_cli(job, seconds) -> Outcome:
    cli = sys.modules["nacap.cli"]
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with budget(seconds), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(job.argv))
    except BudgetExceeded as exc:
        return Outcome(job, time.perf_counter() - start, OVERRUN, str(exc))
    except SystemExit as exc:  # argparse rejects the arguments: exit code 2
        rc = exc.code
    except Exception as exc:
        return Outcome(job, time.perf_counter() - start, CRASHED, f"{type(exc).__name__}: {exc}")
    elapsed = time.perf_counter() - start
    if rc == 0:
        return Outcome(job, elapsed, DONE, report=out.getvalue())
    if rc in (2, 3, 4):
        return Outcome(job, elapsed, REFUSED, f"exit {rc}: {err.getvalue().strip()}")
    return Outcome(job, elapsed, CRASHED, f"undocumented exit code {rc!r}")


@dataclass(frozen=True)
class GraphResult:
    solution: object  # DirichletSolution of the potential problem on K
    green: dict  # G_K(., target)
    inverse: dict  # u with Delta_K u = charge
    powers: list  # P^n(root, target), n = 0..steps
    mean_cycle: object  # minimum mean cycle valuation of P restricted to K


def graph_job(case, inputs) -> GraphResult:
    graphs = sys.modules["nacap.graphs"]
    dirichlet = sys.modules["nacap.dirichlet"]
    transition = sys.modules["nacap.transition"]
    edges, measure, charge = inputs
    graph = graphs.make_explicit(case.vertices, edges, measure=graphs.ListMeasure(measure))
    K = case.ball
    solution = dirichlet.solve_dp(graph, K, case.root)
    green = dirichlet.green_matrix(graph, K, case.target)
    inverse = dirichlet.dirichlet_inverse_apply(graph, K, charge)
    ctx = transition.TransitionContext(graph)
    powers = transition.transition_powers(ctx, case.root, case.target, case.steps)
    mean_cycle = transition.min_mean_cycle_valuation(ctx, K)
    return GraphResult(solution, green, inverse, powers, mean_cycle)


def run_graph(job, inputs, seconds) -> Outcome:
    field = sys.modules["nacap.field"]
    errors = sys.modules["nacap.errors"]
    config = field.PrecisionConfig(**LEAN_PRECISION)
    retries = 0
    start = time.perf_counter()
    try:
        with budget(seconds):
            while True:
                try:
                    with field.precision(config):
                        result = graph_job(job.case, inputs)
                    break
                except errors.PrecisionError:
                    if retries == ATTEMPTS - 1:
                        raise
                    retries += 1
                    config = config.doubled()
    except BudgetExceeded as exc:
        return Outcome(job, time.perf_counter() - start, OVERRUN, str(exc), retries=retries)
    except (errors.PrecisionError, errors.PreconditionError) as exc:
        elapsed = time.perf_counter() - start
        return Outcome(job, elapsed, REFUSED, f"{type(exc).__name__}: {exc}", retries=retries)
    except Exception as exc:
        elapsed = time.perf_counter() - start
        return Outcome(job, elapsed, CRASHED, f"{type(exc).__name__}: {exc}", retries=retries)
    elapsed = time.perf_counter() - start
    return Outcome(job, elapsed, DONE, result=result, config=config, retries=retries)
