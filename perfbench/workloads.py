"""The three workloads: their jobs, the seeded explicit-graph generator and
the timed set-up.

A workload is a list of jobs run one after another by a single client (a
closed loop).  A CLI job is an argument vector for ``nacap.cli.main``, run in
process, so spec loading and report assembly are measured.  A graph job
builds one seeded random explicit Levi-Civita graph and runs the exact
solvers on it under the lean-precision retry ladder.

The seed drives the graph generator and the job order; the program only
ever sees the generated inputs.  Nothing in this module imports ``nacap`` at
import time: ``setup`` imports it afresh on every repetition, so the import
is part of the measured set-up.
"""

from __future__ import annotations

import importlib
import random
import sys
from dataclasses import dataclass
from fractions import Fraction

# Modules imported by the set-up; every one is dropped and imported again
# on each repetition.
NACAP_MODULES = (
    "nacap",
    "nacap.field",
    "nacap.ratfunc",
    "nacap.graphs",
    "nacap.dirichlet",
    "nacap.capacity",
    "nacap.potential",
    "nacap.transition",
    "nacap.specfile",
    "nacap.cli",
)


@dataclass(frozen=True)
class Job:
    """One unit of work.  ``name`` is stable across seeds and keys the
    reference outputs.  ``known_defect`` names why the job fails at the
    commit that recorded the references; such a job still runs and counts
    against ``sound_ratio`` while it fails."""

    name: str
    argv: tuple = ()
    case: "GraphCase | None" = None
    known_defect: str = ""


@dataclass(frozen=True)
class GraphCase:
    """Pure-data description of one random explicit graph job.

    Elements are tuples of (exponent, coefficient) Fractions; ``ball`` is
    the Dirichlet set K (the breadth-first order from ``root`` minus its
    last vertex, so the boundary is never empty); ``target`` lies in K."""

    index: int
    vertices: int
    edges: tuple  # ((x, y, terms), ...)
    measure: tuple  # (terms, ...) per vertex
    root: int
    ball: tuple
    target: int
    charge: tuple  # ((vertex, terms), ...) right-hand side for the inverse
    steps: int


def cli(text, known_defect=""):
    return Job(name=text, argv=tuple(text.split()), known_defect=known_defect)


RUNAWAY = "the ex5 capacity sequence at horizon 6 eliminates every ball and runs for minutes"
EX9_LIMIT = "the ex9 capacity limit calls with_guarantee, which RFElement lacks"
EX8_SERIES = "the non-decay bound passes an RFElement to from_rational"

# More jobs of a few hundred milliseconds than small ones, so the median job
# is one of several of like size: a 3-ms job swings by half with the load
# of a shared host, a 200-ms job far less.
LAYERED_LC = (
    cli("capacity --spec ex1 --horizon 3"),
    cli("capacity --spec ex2 --horizon 3"),
    cli("capacity --spec ex4 --horizon 3"),
    cli("capacity --spec ex5 --horizon 2"),
    cli("capacity --spec ex7 --horizon 3"),
    cli("capacity --spec ex1 --root 3 --horizon 3"),
    cli("capacity --spec ex5 --horizon 6", known_defect=RUNAWAY),
    cli("classify --spec ex1"),
    cli("classify --spec ex2"),
    cli("classify --spec ex3"),
    cli("classify --spec ex4"),
    cli("classify --spec ex5"),
    cli("classify --spec ex6"),
    cli("classify --spec ex7"),
    cli("hardy --spec ex2 --samples 2 --horizon 4"),
    cli("hardy --spec ex3 --samples 4 --horizon 6"),
    cli("green --spec ex2 --x 0 --y 0 --horizon 3"),
    cli("green --spec ex1 --x 1 --y 0 --horizon 3"),
    cli("solve-dp --spec ex2 --horizon 3"),
    cli("solve-dp --spec ex2 --horizon 3 --renormalized"),
    cli("nash-williams --spec ex1 --horizon 10"),
    cli("superharmonic --spec ex6 --construct --c 1 --tau 1*e^(1) --horizon 6"),
    cli("superharmonic --spec ex6 --u 1,1-1*e^(1),1-2*e^(1),1-3*e^(1)"),
    cli("harnack --spec ex3 --set 0,1,2"),
)

TRANSITION_LC = (
    cli("transition --spec ex1 --x 0 --y 0 --n 4"),
    cli("transition --spec ex1 --x 0 --y 2 --n 4 --series 4"),
    cli("transition --spec ex1 --x 0 --y 0 --n 6 --restrict 3"),
    cli("transition --spec ex1 --x 0 --y 4 --n 6 --max-product"),
    cli("transition --spec ex1 --x 0 --y 2 --n 4 --max-product --restrict 2"),
    cli("transition --spec ex2 --x 0 --y 0 --n 4"),
    cli("transition --spec ex2 --x 0 --y 0 --n 4 --series 6 --restrict 3"),
    cli("transition --spec ex2 --x 1 --y 3 --n 6 --max-product"),
    cli("transition --spec ex2 --x 0 --y 2 --n 4 --series 4"),
    cli("transition --spec ex4 --x 0 --y 0 --n 2"),
    cli("transition --spec ex4 --x 0 --y 0 --n 4 --series 4"),
    cli("transition --spec ex4 --x 0 --y 0 --n 6 --restrict 3"),
    cli("transition --spec ex4 --x 0 --y 0 --n 6 --max-product"),
    cli("transition --spec ex5 --x 0 --y 0 --n 4"),
    cli("transition --spec ex5 --x 0 --y 0 --n 2 --series 3"),
    cli("transition --spec ex5 --x 0 --y 0 --n 4 --series 4 --restrict 2"),
    cli("transition --spec ex5 --x 0 --y 2 --n 4 --max-product"),
    cli("transition --spec ex7 --x 0 --y 0 --n 4"),
    cli("transition --spec ex7 --x 0 --y 0 --n 4 --series 4"),
    cli("transition --spec ex7 --x 0 --y 0 --n 4 --series 4 --restrict 3"),
    cli("transition --spec ex7 --x 0 --y 3 --n 7 --max-product"),
    cli("transition --spec ex7 --x 0 --y 2 --n 4 --max-product --restrict 3"),
)

# Four heavy Q(r) jobs carry the rational-function load; the many small ones
# outnumber the graphs, so the median job stays a small job (spec load, graph
# build, report assembly) whatever the drawn graphs cost.
GENERIC_EXACT_CLI = (
    cli("capacity --spec ex8 --horizon 14"),
    cli("solve-dp --spec ex8 --horizon 18"),
    cli("green --spec ex9 --x 0 --y 0 --horizon 14"),
    cli("solve-dp --spec ex9 --horizon 14 --renormalized"),
    cli("solve-dp --spec ex9 --horizon 4"),
    cli("solve-dp --spec ex8 --horizon 4 --renormalized"),
    cli("green --spec ex8 --x 1 --y 0 --horizon 3"),
    cli("real-sweep --spec ex8 --root 0 --power 3 --r 1/2,1/4,1/8 --horizon 12"),
    cli("real-sweep --spec ex8 --root 0 --power 0 --r 1/3 --horizon 10"),
    cli("nash-williams --spec ex8 --horizon 12"),
    cli("nash-williams --spec ex9 --horizon 8"),
    cli("classify --spec ex8"),
    cli("transition --spec ex8 --x 0 --y 0 --n 4"),
    cli("transition --spec ex9 --x 0 --y 0 --n 4"),
    cli("transition --spec ex8 --x 0 --y 2 --n 4 --max-product"),
    cli("transition --spec ex9 --x 0 --y 0 --n 4 --restrict 2"),
    cli("harnack --spec ex8 --set 0,1,2,3"),
    cli("harnack --spec ex9 --set 0,1,2"),
    cli("solve-dp --spec ex9 --horizon 3"),
    cli("transition --spec ex9 --x 1 --y 2 --n 3 --max-product"),
    cli("superharmonic --spec ex8 --u 1,1,1"),
    cli("superharmonic --spec ex9 --u 1,1,1"),
    cli("transition --spec ex8 --x 0 --y 0 --n 2 --series 4", known_defect=EX8_SERIES),
    cli("classify --spec ex9", known_defect=EX9_LIMIT),
    cli("capacity --spec ex9 --horizon 4", known_defect=EX9_LIMIT),
    cli("hardy --spec ex9 --samples 3 --horizon 4", known_defect=EX9_LIMIT),
)

# Explicit graphs drawn afresh for every generic-exact pass, their vertex
# counts in turn, and the most passes a run prepares inputs for.  One
# graph's cost varies twentyfold with its weights, so fresh draws per pass
# and a deterministic Q(r) share keep the median pass steady from seed to
# seed.
GRAPHS_PER_PASS = 4
GRAPH_SIZES = (4, 4, 5)
TRANSITION_STEPS = 4
MAX_PASSES = 12


@dataclass(frozen=True)
class Workload:
    name: str
    cli_jobs: tuple
    graphs_per_pass: int
    # Layers that must record at least one span in a traced run.
    layers: tuple


WORKLOADS = {
    "layered-lc": Workload(
        "layered-lc",
        LAYERED_LC,
        0,
        ("field", "graphs", "dirichlet", "capacity", "potential", "specfile", "cli"),
    ),
    "transition-lc": Workload(
        "transition-lc",
        TRANSITION_LC,
        0,
        ("field", "graphs", "transition", "specfile", "cli"),
    ),
    "generic-exact": Workload(
        "generic-exact",
        GENERIC_EXACT_CLI,
        GRAPHS_PER_PASS,
        ("field", "ratfunc", "graphs", "dirichlet", "capacity", "transition", "specfile", "cli"),
    ),
}


# ---------------------------------------------------------------------------
# Seeded explicit graphs, modelled on tests/prop_suites.random_graph: a random
# spanning tree plus one extra edge, positive weights of one or two terms on
# the half-integer exponent grid [-2, 2].  The vertex and edge counts are
# fixed per graph; the seed draws the tree, the weights, the measure, the
# root, the Green target and the charge.
# ---------------------------------------------------------------------------

EXPONENT_POOL = tuple(Fraction(n, 2) for n in range(-4, 5))


def random_terms(rng, count, positive=True):
    exponents = sorted(rng.sample(EXPONENT_POOL, count))
    terms = []
    for i, exponent in enumerate(exponents):
        coefficient = Fraction(rng.randint(1, 3), rng.randint(1, 3))
        if (i > 0 or not positive) and rng.random() < 0.5:
            coefficient = -coefficient
        terms.append((exponent, coefficient))
    return tuple(terms)


def _bfs(n, edges, root):
    adjacency = {v: set() for v in range(n)}
    for x, y, _ in edges:
        adjacency[x].add(y)
        adjacency[y].add(x)
    order = [root]
    seen = {root}
    for v in order:
        for w in sorted(adjacency[v]):
            if w not in seen:
                seen.add(w)
                order.append(w)
    return tuple(order)


def random_case(rng, index, n):
    edges = [(rng.randrange(v), v, random_terms(rng, rng.randint(1, 2))) for v in range(1, n)]
    present = {(x, y) for x, y, _ in edges}
    absent = [(x, y) for x in range(n) for y in range(x + 1, n) if (x, y) not in present]
    x, y = rng.choice(absent)
    edges.append((x, y, random_terms(rng, rng.randint(1, 2))))
    measure = tuple(random_terms(rng, 1) for _ in range(n))
    root = rng.randrange(n)
    ball = _bfs(n, edges, root)[:-1]
    target = rng.choice(ball)
    charge = tuple((v, random_terms(rng, 1, positive=False)) for v in ball[:2])
    return GraphCase(
        index=index,
        vertices=n,
        edges=tuple(edges),
        measure=measure,
        root=root,
        ball=ball,
        target=target,
        charge=charge,
        steps=TRANSITION_STEPS,
    )


def literal(terms) -> str:
    """Field-element literal for a term tuple, in nacap's grammar."""
    parts = []
    for i, (exponent, coefficient) in enumerate(terms):
        magnitude = abs(coefficient)
        if i == 0:
            sign = "-" if coefficient < 0 else ""
        else:
            sign = " - " if coefficient < 0 else " + "
        parts.append(f"{sign}{magnitude}*e^({exponent})")
    return "".join(parts)


def passes_for(workload: Workload, seed: int) -> list:
    """The jobs of each pass, in the order the seed fixes; graph jobs are
    drawn afresh for every pass."""
    rng = random.Random(seed)
    passes = []
    for p in range(MAX_PASSES):
        jobs = list(workload.cli_jobs)
        for i in range(workload.graphs_per_pass):
            case = random_case(rng, i, GRAPH_SIZES[i % len(GRAPH_SIZES)])
            jobs.append(Job(name=f"graph {p}.{i}", case=case))
        rng.shuffle(jobs)
        passes.append(jobs)
    return passes


# ---------------------------------------------------------------------------
# Set-up: import nacap afresh, load and build every spec, generate inputs.
# ---------------------------------------------------------------------------


@dataclass
class Prepared:
    passes: list  # the jobs of each pass
    graphs: dict  # job name -> (edges with elements, measure literals, charge)


def import_nacap():
    for name in [m for m in sys.modules if m == "nacap" or m.startswith("nacap.")]:
        del sys.modules[name]
    for name in NACAP_MODULES:
        importlib.import_module(name)


def setup(workload: Workload, seed: int) -> Prepared:
    import_nacap()
    specfile = sys.modules["nacap.specfile"]
    field = sys.modules["nacap.field"]
    graphs_mod = sys.modules["nacap.graphs"]
    for spec in sorted({job.argv[job.argv.index("--spec") + 1] for job in workload.cli_jobs}):
        specfile.build_graph(specfile.load_spec(spec))
    passes = passes_for(workload, seed)
    graphs = {}
    for job in (job for jobs in passes for job in jobs):
        if job.case is None:
            continue
        case = job.case
        edges = [(x, y, field.LCElement.from_terms(terms)) for x, y, terms in case.edges]
        measure = tuple(literal(terms) for terms in case.measure)
        charge = {v: field.LCElement.from_terms(terms) for v, terms in case.charge}
        graphs_mod.make_explicit(case.vertices, edges, measure=graphs_mod.ListMeasure(measure))
        graphs[job.name] = (edges, measure, charge)
    return Prepared(passes, graphs)
