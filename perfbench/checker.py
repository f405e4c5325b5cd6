"""Correctness checks, run outside the timed region.

CLI reports are compared with the reference outputs recorded by
``record.py``.  A ``{value, guarantee}`` node passes when its guarantee is at
least the recorded one and its value agrees with the recorded value at every
exponent below the recorded guarantee.  Levi-Civita values are compared term
by term after ``nacap.parse_element``; Q(r) values and rationals must match
exactly, as must every other leaf.  A job with no reference (it crashed when
the references were recorded) passes once it exits 0 and its precision audit
equals the least guarantee in its outputs.

Graph jobs have no reference; their results must satisfy exact identities
within their guarantees.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
from fractions import Fraction

INF = math.inf


def parse_guarantee(text):
    return INF if text == "inf" else Fraction(text)


def is_scalar_node(node) -> bool:
    return isinstance(node, dict) and set(node) == {"value", "guarantee"}


def least_guarantee(node):
    """Least guarantee exponent in a report tree (INF if none is finite)."""
    if is_scalar_node(node):
        return parse_guarantee(node["guarantee"])
    if isinstance(node, dict):
        children = node.values()
    elif isinstance(node, list):
        children = node
    else:
        return INF
    return min((least_guarantee(child) for child in children), default=INF)


def _terms_below(text, bound):
    """Terms of a Levi-Civita literal below ``bound``; None if it does not
    parse."""
    field = sys.modules["nacap.field"]
    try:
        terms = field.parse_element(text).terms
    except sys.modules["nacap.errors"].FieldParseError:
        return None
    return {e: c for e, c in terms if e < bound}


def compare_scalar(old, new, series, path):
    g_old = parse_guarantee(old["guarantee"])
    g_new = parse_guarantee(new["guarantee"])
    if g_new < g_old:
        return [f"{path}: guarantee fell from {old['guarantee']} to {new['guarantee']}"]
    if old["value"] == new["value"]:
        return []
    if series:
        old_terms = _terms_below(old["value"], g_old)
        if old_terms is not None and old_terms == _terms_below(new["value"], g_old):
            return []
    return [f"{path}: value {new['value']!r} differs from {old['value']!r} below {old['guarantee']}"]


def compare_outputs(old, new, series, path="outputs"):
    """Mismatches between a recorded outputs block and a new one.  ``series``
    says the values are Levi-Civita literals."""
    if is_scalar_node(old):
        if not is_scalar_node(new):
            return [f"{path}: expected a value with a guarantee, got {new!r}"]
        return compare_scalar(old, new, series, path)
    if isinstance(old, dict):
        if not isinstance(new, dict) or set(new) != set(old):
            return [f"{path}: keys differ"]
        problems = []
        for key in old:
            problems += compare_outputs(old[key], new[key], series, f"{path}.{key}")
        return problems
    if isinstance(old, list):
        if not isinstance(new, list) or len(new) != len(old):
            return [f"{path}: lengths differ"]
        problems = []
        for i, (a, b) in enumerate(zip(old, new)):
            problems += compare_outputs(a, b, series, f"{path}[{i}]")
        return problems
    return [] if old == new else [f"{path}: {new!r} differs from {old!r}"]


def check_report(text, reference):
    """Problems with one CLI report; ``reference`` is the recorded entry or
    None."""
    report = json.loads(text)
    outputs = report["outputs"]
    problems = []
    audit = report["precision_audit"]["min_guarantee"]
    if parse_guarantee(audit) != least_guarantee(outputs):
        problems.append(f"precision audit {audit} is not the least guarantee in the outputs")
    if reference is not None:
        series = report["spec"].get("field", "levi-civita") == "levi-civita"
        problems += compare_outputs(reference["outputs"], outputs, series)
    return problems


# ---------------------------------------------------------------------------
# Identities on the seeded explicit graphs
# ---------------------------------------------------------------------------


def _brute_min_mean_cycle(ctx, K, valuation_of):
    """Least mean valuation over the simple directed cycles inside K."""
    members = sorted(set(K))
    weight = {}
    for u in members:
        for v, p in ctx.probs_from(u).items():
            if v in members:
                weight[(u, v)] = valuation_of(p)
    best = INF
    for size in range(2, len(members) + 1):
        for cycle in itertools.permutations(members, size):
            if cycle[0] != min(cycle):
                continue
            hops = list(zip(cycle, cycle[1:] + cycle[:1]))
            if all(hop in weight for hop in hops):
                best = min(best, Fraction(sum(weight[h] for h in hops), size))
    return best


def graph_identities(case, inputs, result, config):
    """Violated identities of one graph job, checked at the precision that
    produced it:

    - the capacity equals the energy of the potential solution;
    - Green reciprocity G(x,y)/m(y) = G(y,x)/m(x);
    - Delta_K u equals the charge on K;
    - every row of P sums to 1;
    - b(x) P^n(x,y) = b(y) P^n(y,x) for every computed n;
    - the minimum mean cycle matches a search over all simple cycles.
    """
    field = sys.modules["nacap.field"]
    graphs = sys.modules["nacap.graphs"]
    dirichlet = sys.modules["nacap.dirichlet"]
    transition = sys.modules["nacap.transition"]
    scalars = sys.modules["nacap.scalars"]
    edges, measure, charge = inputs
    K, x, a = case.ball, case.target, case.root
    problems = []
    with field.precision(config):
        graph = graphs.make_explicit(case.vertices, edges, measure=graphs.ListMeasure(measure))
        one = field.LCElement.one()
        zero = field.LCElement.zero()

        solution = result.solution
        if not dirichlet.energy(graph, solution.values).indistinguishable(solution.capacity):
            problems.append("capacity differs from the energy of the potential solution")

        y = next(v for v in K if v != x) if len(K) > 1 else x
        column_y = dirichlet.green_matrix(graph, K, y)
        lhs = column_y[x] * graph.measure(x)
        rhs = result.green[y] * graph.measure(y)
        if not lhs.indistinguishable(rhs):
            problems.append(f"Green reciprocity fails for ({x}, {y})")

        for v in K:
            delta = dirichlet.laplacian_apply(graph, result.inverse, v)
            if not delta.indistinguishable(charge.get(v, zero)):
                problems.append(f"Laplacian of the inverse differs from the charge at {v}")

        ctx = transition.TransitionContext(graph)
        for v in range(case.vertices):
            if not transition.row_sum(ctx, v).indistinguishable(one):
                problems.append(f"row {v} of P does not sum to 1")
        reverse = transition.transition_powers(ctx, x, a, case.steps)
        b_a, b_x = graph.degree_weight(a), graph.degree_weight(x)
        for n, (forward, backward) in enumerate(zip(result.powers, reverse)):
            if not (b_a * forward).indistinguishable(b_x * backward):
                problems.append(f"b(x)P^{n}(x,y) != b(y)P^{n}(y,x) for x={a}, y={x}")

        expected = _brute_min_mean_cycle(ctx, K, scalars.valuation_of)
        if result.mean_cycle != expected:
            problems.append(f"minimum mean cycle {result.mean_cycle} differs from {expected}")
    return problems

