"""Reference implementations for the capacity tests.

The series law: on a path rooted at 0 the ball B_n is a chain of n - 1 edges plus the one
edge leaving it, so the edges act as resistors in series (Nash-Williams
1959): cap_n(0) = (sum_{k<n} 1/b(k, k+1))^{-1}.  The capacity tests compare
the library's elimination against it.

The per-ball drivers below are the direct definitions of the capacity
sequence, the Nash-Williams boundaries and the monotonicity comparison.
The per-r real sweep eliminates the ball afresh over the reals at each r.
"""

from nacap import scalars
from nacap.capacity import (
    CapacitySequence,
    NashWilliamsCertificate,
    RealSweepRow,
    RealSweepTable,
)
from nacap.dirichlet import effective_capacity
from nacap.errors import PreconditionError
from nacap.exact import Q
from nacap.field import INF, LCElement
from nacap.graphs import SphericalProfile, Trend, make_explicit, make_spherical
from nacap.ratfunc import RFElement


def path_series_capacity(graph, a, n):
    """cap_n(0) on a path graph by the series law."""
    if not graph.is_path or a != 0:
        raise PreconditionError("series law oracle applies to path graphs rooted at 0")
    total = graph.field.zero()
    for k in range(n):
        total = total + graph.weight(k, k + 1).inv()
    return total.inv()


# Every ball B_n is built afresh with graph.ball and its boundary found by
# scanning all of it.  The library reads the same balls and boundaries from
# one walk over the spheres, and the tests require identical results.


def per_ball_capacity_sequence(graph, a, N):
    """capacity_sequence with each ball built afresh; saturation is a ball
    no larger than the one before it."""
    values = []
    previous_ball = None
    for n in range(1, N + 1):
        ball = graph.ball(a, n)
        if previous_ball is not None and len(ball) == len(previous_ball):
            break
        previous_ball = ball
        values.append(effective_capacity(graph, ball, a))
    diffs = []
    for small, large in zip(values[1:], values):
        step = large - small
        if scalars.certainly_positive(-step):
            raise AssertionError("capacity failed to decrease along the exhaustion")
        diffs.append(step.valuation)
    return CapacitySequence(a, tuple(values), tuple(diffs))


def per_ball_nash_williams(graph, a, N):
    """nash_williams with each boundary found by scanning its whole ball."""
    boundary_vals = []
    max_edge_vals = []
    for n in range(1, N + 1):
        ball = set(graph.ball(a, n))
        boundary_vals.append(graph.boundary_weight(ball).valuation)
        best = None
        for x in sorted(ball):
            for y, w in graph.neighbors(x).items():
                if y not in ball:
                    if best is None or scalars.certainly_positive(w - best):
                        best = w
        max_edge_vals.append(best.valuation if best is not None else INF)

    rule = graph.weight_rule
    rule_backed = rule is not None and rule.trend(graph.field).kind == Trend.TO_ZERO

    for condition, vals in (
        ("boundary_weights", boundary_vals),
        ("max_boundary_edge", max_edge_vals),
    ):
        records = []
        best = None
        for i, v in enumerate(vals):
            if v != INF and (best is None or v > best):
                best = v
                records.append(i)
        if len(records) >= min(3, N) and len(records) > 1 and records[-1] >= N - 2:
            return NashWilliamsCertificate(
                condition=condition,
                radii=tuple(i + 1 for i in records),
                valuations=tuple(vals[i] for i in records),
                provable=rule_backed,
            )
    return None


def per_ball_monotone_compare(graph, graph_prime, a, N):
    """monotone_compare solving every ball of both graphs afresh, past
    saturation included (its precondition check is left to the library)."""
    orderings = []
    for n in range(1, N + 1):
        cap = effective_capacity(graph, graph.ball(a, n), a)
        cap_prime = effective_capacity(graph_prime, graph_prime.ball(a, n), a)
        diff = cap - cap_prime
        if scalars.certainly_positive(diff):
            raise AssertionError(f"monotonicity law violated at radius {n}")
        orderings.append(-1 if scalars.certainly_positive(-diff) else 0)
    return orderings


class _EvaluatedRule:
    """A Q(r) weight rule evaluated at r0: its values are exact constants of
    the field asked for, and it ends where the base rule ends."""

    def __init__(self, base, r0):
        self.base = base
        self.r0 = r0
        self.edge_count = getattr(base, "edge_count", None)

    def value(self, k, field):
        return field.rational(self.base.value(k, RFElement).eval_at(self.r0))


def evaluated_graph(graph, r0):
    """The Levi-Civita graph of a Q(r) graph's weights evaluated at r0, with
    the same vertices; a weight that is not positive at r0 is refused as it
    is built (NonpositiveWeightError)."""
    if graph.weight_rule is not None:
        profile = SphericalProfile(_EvaluatedRule(graph.weight_rule, r0), graph.sphere_sizes)
        return make_spherical(profile)
    n = graph.vertex_count
    edges = [
        (x, y, LCElement.rational(w.eval_at(r0)))
        for x in range(n)
        for y, w in graph.neighbors(x).items()
        if x < y
    ]
    return make_explicit(n, edges)


def per_r_real_sweep(graph, a, n_power, r_values, N):
    """real_sweep of a Q(r) graph at values r > 0 with one elimination per
    r: the capacity of B_N in the graph evaluated at r, whose standard part
    is the real capacity."""
    rows = []
    for r in map(Q, r_values):
        real = evaluated_graph(graph, r)
        cap = effective_capacity(real, real.ball(a, N), a).standard_part()
        rows.append(RealSweepRow(r, cap, cap / r**n_power))
    return RealSweepTable(a, N, n_power, tuple(rows))
