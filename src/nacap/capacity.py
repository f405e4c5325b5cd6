"""Capacity sequences, capacity-type classification and the real bridge.

The capacity type of an infinite graph (null / positive / divergent) is a
limit statement in the order topology, so at a finite horizon it is only
decidable through a certificate: an exact closed form for recognized
weakly-spherically-symmetric profiles, or the saturation radius of a finite
graph, the radius at which a ball holds every vertex and the capacity is
the exact 0.  Every graph a spec can build has one of the two, so every
verdict is certified.  The type does not depend on the vertex, so one
classifier serves every root.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, islice, pairwise, repeat
from typing import Optional, Tuple

from . import scalars
from .dirichlet import effective_capacity
from .errors import (
    HorizonExhaustedError,
    NonpositiveWeightError,
    PrecisionExhaustedError,
    PreconditionError,
    SpecFileError,
)
from .exact import Q
from .field import INF, active_precision, scalar_json
from .graphs import Trend
from .ratfunc import RFElement

NULL = "null"
POSITIVE = "positive"
DIVERGENT = "divergent"


# ---------------------------------------------------------------------------
# Capacity sequences
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CapacitySequence:
    """cap_n(a) for n = 1..N along the ball exhaustion, with the valuations
    of consecutive differences (INF when a difference vanishes within its
    guarantee), ending early where B_n fills a finite graph.  Monotonicity
    cap_{n+1} <= cap_n is asserted on creation."""

    root: int
    values: Tuple
    difference_valuations: Tuple


def _check_root(graph, a):
    if not graph.vertex_exists(a):
        raise HorizonExhaustedError(f"root vertex {a} outside the graph")


def capacity_sequence(graph, a, N) -> CapacitySequence:
    """B_n = S_0 ∪ ... ∪ S_{n-1} grows by one sphere of one walk around a."""
    _check_root(graph, a)
    values = []
    ball = []
    for sphere in islice(graph.spheres(a), N):
        ball.extend(sphere)
        values.append(effective_capacity(graph, ball, a))
    diffs = []
    for small, large in zip(values[1:], values):
        step = large - small
        if scalars.certainly_positive(-step):
            raise AssertionError("capacity failed to decrease along the exhaustion")
        diffs.append(step.valuation)
    return CapacitySequence(a, tuple(values), tuple(diffs))


# ---------------------------------------------------------------------------
# Verdicts and certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SphericalFormulaCertificate:
    """Exact classification through the closed capacity formula for weakly
    spherically symmetric graphs; independently re-checkable from the rule."""

    rule: dict
    trend_kind: str
    lower: object = None
    upper: object = None
    terms_summed: int = 0

    def to_json(self):
        out = {"type": "spherical_formula", "rule": self.rule, "trend": self.trend_kind}
        if self.lower is not None:
            out["lower_bound"] = str(self.lower)
        if self.upper is not None:
            out["upper_bound"] = str(self.upper)
        if self.terms_summed:
            out["terms_summed"] = self.terms_summed
        return out


@dataclass(frozen=True)
class NashWilliamsCertificate:
    """Subsequence of ball radii whose boundary weights have strictly
    increasing valuations.  Each valuation is the least valuation of an
    edge leaving the ball, since a sum of positive elements keeps every
    leading term.  `provable` marks rule-backed trends that continue beyond
    the horizon; only those certify null capacity."""

    condition: str  # "boundary_weights"
    radii: Tuple[int, ...]
    valuations: Tuple
    provable: bool

    def to_json(self):
        return {
            "type": "nash_williams",
            "condition": self.condition,
            "radii": list(self.radii),
            "valuations": [str(v) for v in self.valuations],
            "provable": self.provable,
        }


@dataclass(frozen=True)
class SaturationCertificate:
    """A finite graph has `radius` spheres around the root, so the ball of
    that radius holds every vertex, has no boundary and has the exact
    capacity 0: the capacity sequence ends in 0 and the type is null."""

    radius: int

    def to_json(self):
        return {"type": "saturation", "radius": self.radius}


@dataclass(frozen=True)
class CapacityVerdict:
    """Capacity type of the graph (a vertex-independent property), with the
    machine-checkable certificate that justified it.  Positive verdicts carry
    the exact limit within its guarantee."""

    kind: str
    root: int
    certificate: object
    limit: object = None

    def to_json(self):
        out = {"kind": self.kind, "root": self.root}
        if self.limit is not None:
            out["limit"] = scalar_json(self.limit)
        out["certificate"] = self.certificate.to_json()
        return out


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------


# Terms of the capacity series summed before giving up on leaving the window.
SERIES_MAX_TERMS = 10_000


def spherical_capacity_limit(rule, sizes, field):
    """Exact limit (sum over k of 1/b(boundary B_{k+1}))^{-1} for a profile
    whose outward weights tend to infinity.  The summation stops once term
    valuations leave the window; the omitted tail is recorded in the
    guarantee exponent.  Over Q(r) the sum is an infinite series in r, in
    general not an element of Q(r), and nothing truncates it: refused."""
    if field is RFElement:
        raise PreconditionError(
            "the capacity limit (sum over k of 1/b(boundary B_{k+1}))^{-1} is an "
            "infinite series in r, in general not an element of Q(r)"
        )
    cfg = active_precision()
    total = field.zero()
    anchor = None
    k = 0
    while k < SERIES_MAX_TERMS:
        # b(boundary of B_{k+1}) = #S_k * b_plus(k)
        boundary = rule.value(k, field) * field.rational(sizes.value(k))
        term = boundary.inv()
        lam = term.valuation
        if anchor is None:
            anchor = lam
        if lam >= anchor + cfg.window:
            total = total.with_guarantee(lam)
            return total.inv(), k
        total = total + term
        k += 1
    raise PrecisionExhaustedError(
        "spherical capacity series did not leave the window within "
        f"{SERIES_MAX_TERMS} terms"
    )


def classify(graph, a) -> CapacityVerdict:
    """Capacity type of the graph, a property independent of the vertex.
    Every verdict is certified:

      - a recognized trend of the outward sphere weights b_plus decides it
        exactly, through the capacity formula at the profile's root 0:
          some subsequence of b_plus tends to 0      -> null
          b_plus tends to infinity                   -> positive, with limit
          b_plus bounded below, and bounded above
          infinitely often                           -> divergent
      - otherwise the graph is finite, since every weight rule without a
        trend ends the graph, and it is null at root a, with its saturation
        radius: the ball of that radius holds every vertex, and its capacity
        is the exact 0, which no Dirichlet solve is needed to know."""
    _check_root(graph, a)
    rule, field = graph.weight_rule, graph.field
    trend = rule.trend(field) if rule is not None else Trend(Trend.UNKNOWN)
    if trend.kind == Trend.TO_ZERO:
        certificate = SphericalFormulaCertificate(rule.to_json(), trend.kind)
        return CapacityVerdict(NULL, 0, certificate)
    if trend.kind == Trend.TO_INFINITY:
        limit, terms = spherical_capacity_limit(rule, graph.sphere_sizes, field)
        certificate = SphericalFormulaCertificate(rule.to_json(), trend.kind, terms_summed=terms)
        return CapacityVerdict(POSITIVE, 0, certificate, limit)
    if trend.kind == Trend.TWO_SIDED:
        certificate = SphericalFormulaCertificate(
            rule.to_json(), trend.kind, lower=trend.lower, upper=trend.upper
        )
        return CapacityVerdict(DIVERGENT, 0, certificate)
    assert graph.is_finite, "a weight rule without a trend must end the graph"
    radius = sum(1 for _ in graph.spheres(a))
    return CapacityVerdict(NULL, a, SaturationCertificate(radius))


# ---------------------------------------------------------------------------
# Nash-Williams test
# ---------------------------------------------------------------------------


def _record_subsequence(valuations):
    """Indices achieving strictly increasing record valuations."""
    records = []
    best = None
    for i, v in enumerate(valuations):
        if v == INF:
            continue
        if best is None or v > best:
            best = v
            records.append(i)
    return records


def nash_williams(graph, a, N) -> Optional[NashWilliamsCertificate]:
    """Search for a subsequence of ball radii along which the boundary
    weights tend to zero.  The edges leaving B_n are those from S_{n-1} to
    S_n (breadth-first property), read from one walk; past its end the
    spheres are empty.  The valuation of b(boundary B_n) is the least
    val b(x, y) over those edges, since positive weights never cancel a
    leading term, so it is read without field arithmetic.

    A certificate whose trend is backed by a recognized weight rule is sound
    beyond the horizon (`provable`); raw finite evidence is reported with
    provable=False.  Absence of a certificate is a valid outcome (None)."""
    _check_root(graph, a)
    vals = []
    spheres = chain(graph.spheres(a), repeat({}))
    for inner, outer in islice(pairwise(spheres), N):
        leaving = (w for x in inner for y, w in graph.neighbors(x).items() if y in outer)
        vals.append(min((w.valuation for w in leaving), default=INF))

    records = _record_subsequence(vals)
    if len(records) >= min(3, N) and len(records) > 1 and records[-1] >= N - 2:
        rule = graph.weight_rule
        return NashWilliamsCertificate(
            condition="boundary_weights",
            radii=tuple(i + 1 for i in records),
            valuations=tuple(vals[i] for i in records),
            provable=rule is not None and rule.trend(graph.field).kind == Trend.TO_ZERO,
        )
    return None


# ---------------------------------------------------------------------------
# Monotonicity law
# ---------------------------------------------------------------------------


def monotone_compare(graph, graph_prime, a, N):
    """Check cap_n(a) <= cap'_n(a) for n <= N given b <= b' edgewise.

    Returns the list of certified orderings (-1, 0 after identification
    within guarantee, and 0 past saturation, where both capacities are 0).
    Raises PreconditionError if the edgewise domination fails,
    AssertionError if the monotonicity law itself is violated."""
    for x in graph.ball(a, N):
        nbrs = graph.neighbors(x)
        nbrs_prime = graph_prime.neighbors(x)
        if set(nbrs) != set(nbrs_prime):
            raise PreconditionError(
                f"graphs differ in structure at vertex {x}; monotone comparison "
                "needs a common vertex/edge set"
            )
        for y, w in nbrs.items():
            if scalars.certainly_positive(w - nbrs_prime[y]):
                raise PreconditionError(
                    f"edge ({x},{y}) violates b <= b' precondition"
                )
    caps = capacity_sequence(graph, a, N).values
    caps_prime = capacity_sequence(graph_prime, a, N).values
    orderings = []
    for n, (cap, cap_prime) in enumerate(zip(caps, caps_prime), start=1):
        diff = cap - cap_prime
        if scalars.certainly_positive(diff):
            raise AssertionError(f"monotonicity law violated at radius {n}")
        orderings.append(-1 if scalars.certainly_positive(-diff) else 0)
    return orderings + [0] * (N - len(orderings))


# ---------------------------------------------------------------------------
# Real-field bridge
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RealSweepRow:
    r: object
    capacity: object  # exact rational cap_{B_N, r}(a)
    scaled: object  # r^(-power) * capacity

    def to_json(self):
        return {
            "r": str(self.r),
            "capacity": str(self.capacity),
            "capacity_float": float(self.capacity),
            "scaled": str(self.scaled),
            "scaled_float": float(self.scaled),
        }


@dataclass(frozen=True)
class RealSweepTable:
    root: int
    radius: int
    power: int
    rows: Tuple[RealSweepRow, ...]

    def to_json(self):
        return {
            "root": self.root,
            "radius": self.radius,
            "power": self.power,
            "rows": [row.to_json() for row in self.rows],
        }


def real_sweep(graph, a, n_power, r_values, N) -> RealSweepTable:
    """Classical (real) finite-horizon capacities of a rational-function
    graph at rational parameter values r > 0, alongside r^(-n_power) *
    capacity: the ball is eliminated once, over Q(r), and its capacity
    cap_N evaluated at each r.  Evaluation at r0 is a ring homomorphism on
    the functions without a pole at r0.  By the matrix-tree theorem cap_N
    is a ratio of spanning-forest sums of weight products.  When every
    weight incident to the ball is positive at r0, the denominator, a sum
    of forest products of those weights, does not vanish there, and
    cap_N(r0) is the real capacity.

    For graphs with null capacity over the series field, the scaled column
    tends to zero as r -> 0+, but it need not be monotone in r.  On ex8
    (b(k, k+1) = k! r^k) the capacity tends to e^(-1/r) as N grows, so
    r^(-n_power) * capacity rises as r falls to 1/n_power and falls below
    it."""
    r_values = [Q(r) for r in r_values]
    for r in r_values:
        if r <= 0:
            raise PreconditionError(f"sweep parameter r = {r} must be positive")
    if graph.field is not RFElement:
        raise SpecFileError("real-sweep needs a rational-function graph")
    ball = graph.ball(a, N)
    cap = effective_capacity(graph, ball, a)
    edges = {(min(x, y), max(x, y)): w for x in ball for y, w in graph.neighbors(x).items()}
    rows = []
    for r in r_values:
        for (x, y), w in edges.items():
            if (at_r := w.eval_at(r)) <= 0:
                raise NonpositiveWeightError(f"weight of edge ({x},{y}) is {at_r} <= 0 at r = {r}")
        value = cap.eval_at(r)
        rows.append(RealSweepRow(r, value, value / r**n_power))
    return RealSweepTable(a, N, n_power, tuple(rows))
