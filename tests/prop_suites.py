"""Randomized property suites shared by the property and acceptance tests.

Each suite draws a random case (small graph, few-term exact weights) and
returns a zero-argument check; the runner executes the check under the
default precision and reruns it at a doubled window whenever a comparison
comes back indeterminate.  All checks are exact: a single certified
violation fails the suite.
"""

import random
from fractions import Fraction

from nacap import scalars
from nacap.errors import PrecisionError
from nacap.field import LCElement, PrecisionConfig, precision
from nacap.graphs import ListMeasure, make_explicit
from nacap.dirichlet import energy, pairing, solve_dp, solve_renormalized
from nacap.capacity import capacity_sequence
from nacap.potential import (
    energy_difference_bound,
    ground_state_transform_check,
)
from nacap.transition import TransitionContext, pi_element, row_sum, transition_powers

EXPONENT_POOL = [Fraction(n, 2) for n in range(-4, 5)]  # -2 .. 2 in halves


def random_rational(rng, zero_ok=False):
    numerator = rng.randint(-3, 3)
    if not zero_ok:
        while numerator == 0:
            numerator = rng.randint(-3, 3)
    return Fraction(numerator, rng.randint(1, 3))


def random_element(rng, max_terms=4, positive=False, nonzero=False):
    count = rng.randint(1 if (positive or nonzero) else 0, max_terms)
    exponents = sorted(rng.sample(EXPONENT_POOL, count)) if count else []
    terms = []
    for i, exponent in enumerate(exponents):
        coefficient = random_rational(rng)
        if positive and i == 0:
            coefficient = abs(coefficient)
        terms.append((exponent, coefficient))
    return LCElement.from_terms(terms)


def random_graph(rng, max_vertices=6):
    n = rng.randint(2, max_vertices)
    edges = []
    for v in range(1, n):
        edges.append((rng.randrange(v), v, random_element(rng, positive=True)))
    for x in range(n):
        for y in range(x + 1, n):
            if any((a, b) == (x, y) or (a, b) == (y, x) for a, b, _ in edges):
                continue
            if rng.random() < 0.25:
                edges.append((x, y, random_element(rng, positive=True)))
    measure = ListMeasure(tuple(str(random_element(rng, positive=True)) for _ in range(n)))
    return make_explicit(n, edges, measure=measure)


def random_support_function(rng, vertices, require_nonzero=False):
    values = {}
    for v in vertices:
        if rng.random() < 0.6:
            values[v] = random_element(rng, nonzero=False)
    values = {v: x for v, x in values.items() if x.terms}
    if require_nonzero and not values:
        v = rng.choice(list(vertices))
        values[v] = random_element(rng, nonzero=True)
    return values


# Lean starting precision: the drawn elements live on a half-integer
# exponent grid in [-2, 2], so a window of 8 certifies everything the checks
# compare; rare indeterminate cases rerun at a doubled window.
BASE_CONFIG = PrecisionConfig(window=8, max_terms=96, geometric_series_depth=24)


def run_with_retry(check, attempts=3):
    config = BASE_CONFIG
    for attempt in range(attempts):
        try:
            with precision(config):
                check()
            return
        except PrecisionError:
            if attempt == attempts - 1:
                raise
            config = config.doubled()


def run_suite(suite, cases, seed=20250809):
    rng = random.Random(seed)
    for _ in range(cases):
        run_with_retry(suite(rng))


# ---------------------------------------------------------------------------
# The nine suites
# ---------------------------------------------------------------------------


def suite_field_axioms(rng):
    x = random_element(rng)
    y = random_element(rng)
    z = random_element(rng)

    def check():
        assert (x + y) == (y + x)
        assert (x * y) == (y * x)
        assert ((x + y) + z) == (x + (y + z))
        assert ((x * y) * z).indistinguishable(x * (y * z))
        assert (x * (y + z)).indistinguishable(x * y + x * z)
        if x.terms:
            assert (x * x.inv()).indistinguishable(LCElement.one())

    return check


def suite_order_compatibility(rng):
    x = random_element(rng, positive=True)
    y = random_element(rng, positive=True)

    def check():
        assert (x + y).sign() > 0
        assert (x * y).sign() > 0

    return check


def suite_reciprocity(rng):
    graph = random_graph(rng)
    n = graph.vertex_count
    root = rng.randrange(n)
    K = graph.ball(root, rng.randint(2, 3))
    if len(K) == graph.vertex_count and len(K) > 1:
        # The charge-normalized problem needs a nonempty boundary; a prefix
        # of the breadth-first order is still connected.
        K = K[:-1]
    x, y = (rng.choice(K), rng.choice(K)) if len(K) > 1 else (K[0], K[0])

    def check():
        vx = solve_renormalized(graph, K, x).values
        vy = solve_renormalized(graph, K, y).values
        lhs = vx[y] * graph.measure(y)
        rhs = vy[x] * graph.measure(x)
        assert lhs.indistinguishable(rhs)

    return check


def suite_capacity_monotone(rng):
    graph = random_graph(rng)
    root = rng.randrange(graph.vertex_count)

    def check():
        sequence = capacity_sequence(graph, root, 4)
        for smaller, larger in zip(sequence.values[1:], sequence.values):
            assert not scalars.certainly_positive(smaller - larger)

    return check


def suite_maximum_principle(rng):
    graph = random_graph(rng)
    root = rng.randrange(graph.vertex_count)
    K = graph.ball(root, rng.randint(1, 3))

    def check():
        sol = solve_dp(graph, K, root)
        one = LCElement.one()
        for v in K:
            assert sol.values[v].sign() > 0
            assert not scalars.certainly_positive(sol.values[v] - one)

    return check


def suite_energy_minimality(rng):
    graph = random_graph(rng)
    root = rng.randrange(graph.vertex_count)
    K = graph.ball(root, rng.randint(2, 3))
    interior = [v for v in K if v != root]
    if not interior:
        interior = []
    delta = {}
    for v in interior:
        if rng.random() < 0.7:
            delta[v] = random_element(rng, nonzero=False)
    delta = {v: x for v, x in delta.items() if x.terms}
    if interior and not delta:
        delta[rng.choice(interior)] = random_element(rng, nonzero=True)

    def check():
        if not delta:
            return
        sol = solve_dp(graph, K, root)
        perturbed = dict(sol.values)
        for v, d in delta.items():
            perturbed[v] = perturbed[v] + d
        q_min = energy(graph, sol.values)
        q_perturbed = energy(graph, perturbed)
        assert (q_perturbed - q_min).sign() > 0

    return check


def suite_ground_state_transform(rng):
    graph = random_graph(rng)
    n = graph.vertex_count
    u = {v: random_element(rng, positive=True) for v in range(n)}
    phi = random_support_function(rng, range(n), require_nonzero=True)

    def check():
        assert ground_state_transform_check(graph, u, phi).ok

    return check


def suite_energy_difference_bound(rng):
    graph = random_graph(rng)
    n = graph.vertex_count
    x = rng.randrange(n)
    y = rng.randrange(n)
    phi = random_support_function(rng, range(n))

    def check():
        if x == y:
            return
        constant = energy_difference_bound(graph, x, y)
        zero = LCElement.zero()
        gap = phi.get(x, zero) - phi.get(y, zero)
        slack = constant * energy(graph, phi) - gap * gap
        assert not scalars.certainly_positive(-slack)

    return check


def suite_max_path_below_power(rng):
    graph = random_graph(rng)
    n = graph.vertex_count
    x = rng.randrange(n)
    y = rng.randrange(n)
    steps = rng.randint(1, 4)

    def check():
        ctx = TransitionContext(graph)
        maximal = pi_element(ctx, x, y, steps).value
        total = transition_powers(ctx, x, y, steps)[steps]
        assert not scalars.certainly_positive(maximal - total)

    return check


def suite_row_stochastic(rng):
    graph = random_graph(rng)

    def check():
        ctx = TransitionContext(graph)
        one = LCElement.one()
        for v in range(graph.vertex_count):
            assert row_sum(ctx, v).indistinguishable(one)

    return check


CRITERION_SUITES = {
    "field_axioms": suite_field_axioms,
    "order_compatibility": suite_order_compatibility,
    "reciprocity": suite_reciprocity,
    "capacity_monotone": suite_capacity_monotone,
    "maximum_principle": suite_maximum_principle,
    "energy_minimality": suite_energy_minimality,
    "ground_state_transform": suite_ground_state_transform,
    "energy_difference_bound": suite_energy_difference_bound,
    "max_path_below_power": suite_max_path_below_power,
    "row_stochastic": suite_row_stochastic,
}
