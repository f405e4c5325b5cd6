"""Transition operator P = I - Laplacian under the degree measure m = b.

Matrix powers P^n(x, y) are exact sums over length-n paths, computed by
repeated sparse application of the operator to a column: f_n = P^n e_y,
and P^n(x, y) = f_n(x), with exact edge weights and one division per
vertex: (Pf)(z) = (sum_w b(z, w) f(w)) / b(z).  Up to power N only the
light cone of x is formed: f_k on the vertices within distance N - k of x,
and nothing at all when y lies outside it.  Nothing is stored between
calls: each call builds the one column it reads, and a caller that needs
several powers of one pair asks for them in one call.
Pi^n(x, y) is the maximal single-path product, which controls P^n up to an
infinitely large factor; its search is confined to the same light cone.
Convergence of P^n to zero is never inferred from raw finite evidence: a
restricted operator is certified through the exact minimum mean cycle of
edge valuations (sound and complete on a finite restriction), the full
operator through a recognized weight rule, and non-decay through a rational
lower bound on a return probability of valuation 0.  Every p(x, y) is
positive, so the leading terms of path products never cancel: the valuation
of P^k(x0, x0) is the least sum of edge valuations over closed walks of k
edges.  One min-plus walk recurrence gives those sums to the non-decay
search, which builds the column of x0 only up to the first power where the
sum is 0, and Karp's table to the minimum mean cycle, started from every
vertex of the restriction at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Optional, Tuple

from . import scalars
from .dirichlet import dirichlet_inverse_apply
from .errors import ConvergenceNotCertifiedError, HorizonExhaustedError, PreconditionError
from .exact import Q
from .field import INF, guarantee_str, scalar_json
from .graphs import FactorialMonomialRule, MonomialRule

__all__ = [
    "TransitionContext",
    "pi_element",
    "transition_powers",
    "neumann_partial",
    "neumann_inverse_check",
    "nonvanishing_certificate",
    "min_mean_cycle_valuation",
    "full_decay_certificate",
    "restricted_decay_certificate",
]


class TransitionContext:
    """A graph with its measure forced to m(x) = b(x), making I - Laplacian
    row-stochastic: p(x, y) = b(x, y)/b(x).  It holds no state of its own;
    the graph keeps its neighbour and degree caches per precision."""

    def __init__(self, graph):
        self.graph = graph.with_degree_measure()

    @property
    def field(self):
        return self.graph.field

    def probs_from(self, x) -> dict:
        """The row p(x, .), formed afresh on each call."""
        degree = self.graph.degree_weight(x)
        return {y: w / degree for y, w in self.graph.neighbors(x).items()}


def _targets(ctx: TransitionContext, support, inside) -> list:
    """The neighbours of the vertices in `support` that lie in the vertex
    set `inside` (anywhere when None), in ascending order."""
    targets = set()
    for w in support:
        for z in ctx.graph.neighbors(w):
            if inside is None or z in inside:
                targets.add(z)
    return sorted(targets)


def _apply(ctx: TransitionContext, f: dict, restrict) -> dict:
    """One application of P (or its restriction) to a sparse vector: the
    result is formed on the neighbours of f's support that lie in
    `restrict`, the whole graph when None."""
    zero = ctx.field.zero()
    out = {}
    for z in _targets(ctx, f, restrict):
        acc = zero
        for w, b in ctx.graph.neighbors(z).items():
            fw = f.get(w)
            if fw is not None:
                acc = acc + b * fw
        out[z] = acc / ctx.graph.degree_weight(z)
    return out


def _restriction(ctx: TransitionContext, restrict, x, y) -> Optional[frozenset]:
    """`restrict` as a frozenset (None for the full graph), checked to
    contain x and y; both must be vertices of the graph."""
    for v in (x, y):
        if not ctx.graph.vertex_exists(v):
            raise HorizonExhaustedError(f"vertex {v} outside the graph")
    if restrict is None:
        return None
    restrict = frozenset(restrict)
    if x not in restrict or y not in restrict:
        raise PreconditionError("x and y must lie in the restriction set")
    return restrict


def _light_cone(ctx: TransitionContext, x, N, restrict: Optional[frozenset]) -> list:
    """[C_0, ..., C_N]: C_r holds the vertices of `restrict` (of the whole
    graph when None) within distance r of x.  A walk inside the restriction
    that ends at x after r more steps starts in C_r, because a distance in
    the whole graph lower-bounds the distance inside a restriction."""
    cone = [set() for _ in range(N + 1)]
    for z, d in ctx.graph.distances_from(x, N).items():
        if restrict is None or z in restrict:
            for r in range(d, N + 1):
                cone[r].add(z)
    return cone


def transition_powers(ctx: TransitionContext, x, y, N, restrict=None) -> list:
    """[P^n(x, y) for n = 0..N], restricted to paths inside `restrict` when
    given.  Exact dynamic programming, never dense matrix powers.

    The column f_k is P_R^k e_y (R = restrict) on the light cone C_{N-k} of
    x, so f_k(x) = P_R^k(x, y).  A vertex kept at step k has all its
    neighbours kept at step k - 1, one step wider in the cone, so ``_apply``
    forms there the products and sums of the whole column, in the same
    order.  When y lies outside C_N, every power is 0 and no vertex is
    formed."""
    restrict = _restriction(ctx, restrict, x, y)
    cone = _light_cone(ctx, x, max(N, 0), restrict)
    zero = ctx.field.zero()
    f = {y: ctx.field.one()} if y in cone[-1] else {}
    powers = [f.get(x, zero)]
    for k in range(1, N + 1):
        f = _apply(ctx, f, cone[N - k])
        powers.append(f.get(x, zero))
    return powers


@dataclass(frozen=True)
class MaxPathResult:
    value: object
    path: Optional[Tuple[int, ...]]  # witness path from x to y, or None if unreachable


def pi_element(ctx: TransitionContext, x, y, n, restrict=None) -> MaxPathResult:
    """Pi^n(x, y): the maximal product of transition probabilities over
    length-n paths from x to y, with a witness path.

    Candidates whose difference vanishes within the certified precision are
    ties and resolved to the first-found path under ascending neighbor
    order; this never changes the value below its guarantee."""
    restrict = _restriction(ctx, restrict, x, y)
    if n == 0:
        one = ctx.field.one()
        return MaxPathResult(one, (x,)) if x == y else MaxPathResult(ctx.field.zero(), None)
    # States that cannot reach x in the remaining steps are never formed.
    cone = _light_cone(ctx, x, n, restrict)
    current = {y: (ctx.field.one(), (y,))} if y in cone[n] else {}
    for step in range(1, n + 1):
        nxt = {}
        for z in _targets(ctx, current, cone[n - step]):
            # Candidates b(z, w) * Pi(w): dividing them all by b(z) > 0
            # keeps their order, so only the winner is divided.
            best = None
            for w, b in ctx.graph.neighbors(z).items():
                entry = current.get(w)
                if entry is None:
                    continue
                candidate = b * entry[0]
                if best is None or scalars.certainly_positive(candidate - best[0]):
                    best = (candidate, (z,) + entry[1])
            nxt[z] = (best[0] / ctx.graph.degree_weight(z), best[1])
        current = nxt
        if not current:
            break
    hit = current.get(x)
    if hit is None:
        return MaxPathResult(ctx.field.zero(), None)
    return MaxPathResult(hit[0], hit[1])


# ---------------------------------------------------------------------------
# Decay and non-decay certificates
# ---------------------------------------------------------------------------


def _walk_valuations(ctx: TransitionContext, sources, inside):
    """Yield d_0, d_1, ... of the min-plus walk recurrence: d_k maps each
    vertex v to the least sum of edge valuations val b(u, w) - val b(u) over
    the walks of k edges from any of `sources` to v inside the vertex set
    `inside`."""
    graph = ctx.graph
    edges: dict = {}  # u -> [(w, val b(u, w) - val b(u)) for w in inside]
    row = dict.fromkeys(sources, 0)
    while True:
        yield row
        following = {}
        for u, du in row.items():
            if u not in edges:
                degree = graph.degree_weight(u).valuation
                edges[u] = [
                    (w, b.valuation - degree) for w, b in graph.neighbors(u).items() if w in inside
                ]
            for w, valuation in edges[u]:
                candidate = du + valuation
                if w not in following or candidate < following[w]:
                    following[w] = candidate
        row = following


def min_mean_cycle_valuation(ctx: TransitionContext, K):
    """Exact minimum mean of edge valuations over the cycles of the
    restriction to K (Karp's recurrence over the rationals).

    The valuation of P_K^n grows like n times this quantity, so a positive
    value certifies P_K^n -> 0 and a zero value certifies non-decay.
    Returns +inf when the restriction has no cycle (singleton K).

    Every vertex of K starts the table at 0 (Karp's super-source), so a
    cycle is seen even when K, taken alone, does not connect it to the
    rest of K."""
    nodes = set(K)
    if not nodes:
        return INF
    m = len(nodes)
    table = list(islice(_walk_valuations(ctx, nodes, nodes), m + 1))
    best = None
    for v, last in table[m].items():
        worst = None
        for k in range(m):
            dk = table[k].get(v)
            if dk is None:
                continue
            mean = Q(last - dk, m - k)
            if worst is None or mean > worst:
                worst = mean
        if worst is not None and (best is None or worst < best):
            best = worst
    return best if best is not None else INF


@dataclass(frozen=True)
class DecayCertificate:
    """Certifies P^n(x, y) -> 0.  `rate` is a positive per-step lower bound
    on the growth of valuations; `scope` says whether it covers a finite
    restriction (complete criterion) or the full graph (rule-backed)."""

    scope: str  # "restricted" or "full"
    rate: object
    argument: str

    def to_json(self):
        return {
            "type": "decay",
            "scope": self.scope,
            "rate": str(self.rate),
            "argument": self.argument,
        }


@dataclass(frozen=True)
class NonvanishingCertificate:
    """P^k(x0, x0) >= c for a positive rational c, hence P^{kn}(x0, x0)
    >= c^n stays above every infinitesimal and P^n does not tend to zero
    (for any pair of vertices)."""

    vertex: int
    power: int
    bound: object

    def to_json(self):
        return {
            "type": "nonvanishing_rational_bound",
            "vertex": self.vertex,
            "power": self.power,
            "bound": str(self.bound),
        }


def restricted_decay_certificate(ctx: TransitionContext, K) -> Optional[DecayCertificate]:
    rate = min_mean_cycle_valuation(ctx, K)
    if rate == INF or rate > 0:
        return DecayCertificate("restricted", rate, "min_mean_cycle")
    return None


def full_decay_certificate(ctx: TransitionContext) -> Optional[DecayCertificate]:
    """Rule-backed decay on the full graph: on a path whose weights grow at
    a fixed valuation slope, every inward step costs that slope, so return
    probabilities decay without bound."""
    graph = ctx.graph
    rule = graph.weight_rule
    if not graph.is_path or rule is None:
        return None
    if isinstance(rule, MonomialRule) and rule.slope < 0:
        slope = -rule.slope
    elif isinstance(rule, FactorialMonomialRule):
        effective = -rule.slope if rule.invert else rule.slope
        if effective >= 0:
            return None
        slope = -effective
    else:
        return None
    return DecayCertificate("full", Q(slope, 2), "uniform_inward_step_valuation")


NONVANISHING_MAX_POWER = 8  # highest return power the non-decay search tries


def nonvanishing_certificate(
    ctx: TransitionContext, x0, restrict=None
) -> Optional[NonvanishingCertificate]:
    """Search k in 2..NONVANISHING_MAX_POWER for a return probability with
    valuation 0; its standard part (halved when that is needed for
    certification) is the rational lower bound.

    The valuations come first, from the min-plus walk recurrence alone.
    Every p(u, v) is positive, so the leading coefficients of the path
    products at the least valuation add up without cancelling: val P^k(x0,
    x0) is the least sum of edge valuations over the closed walks of k
    edges, and +inf exactly when there is none.  Such a walk stays within
    distance NONVANISHING_MAX_POWER/2 of x0.  The column of x0 is built
    only up to the first k whose least sum is 0, and not at all when there
    is none."""
    restrict = _restriction(ctx, restrict, x0, x0)
    inside = set(ctx.graph.ball(x0, NONVANISHING_MAX_POWER // 2 + 1))
    if restrict is not None:
        inside &= restrict
    walks = _walk_valuations(ctx, (x0,), inside)
    for k, row in enumerate(islice(walks, NONVANISHING_MAX_POWER + 1)):
        if k < 2 or row.get(x0) != 0:
            continue
        element = transition_powers(ctx, x0, x0, k, restrict)[k]
        c = element.standard_part()
        diff = element - ctx.field.rational(c)
        if scalars.is_zero_like(diff) or diff.sign() < 0:
            # element sits below its standard part in higher order; half the
            # bound is then certified strictly below the element.
            c = c / 2
        return NonvanishingCertificate(x0, k, c)
    return None


# ---------------------------------------------------------------------------
# Neumann series
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NeumannReport:
    """Partial sum of P^n(x, y) with the valuation trend of its terms and
    whichever decay or non-decay certificate applies."""

    x: int
    y: int
    N: int
    partial_sum: object
    term_valuations: Tuple
    trend: dict
    certificate: object = None

    def to_json(self):
        out = {
            "x": self.x,
            "y": self.y,
            "N": self.N,
            "partial_sum": scalar_json(self.partial_sum),
            "term_valuations": [guarantee_str(v) for v in self.term_valuations],
            "trend": self.trend,
        }
        if self.certificate is not None:
            out["certificate"] = self.certificate.to_json()
        return out


def increasing_suffix_length(valuations) -> int:
    """Length of the strictly increasing suffix of a valuation sequence; the
    computational proxy for convergence evidence (a sequence converges iff
    consecutive differences tend to zero, i.e. their valuations grow)."""
    if not valuations:
        return 0
    count = 1
    for earlier, later in zip(reversed(valuations[:-1]), reversed(valuations[1:])):
        if later > earlier:
            count += 1
        else:
            break
    return count


def convergence_evidence(valuations) -> dict:
    """Finite-horizon evidence that a sequence of difference valuations
    grows without bound: a strictly increasing suffix reaching the end of
    the computed range.  ``threshold_exceeded`` says only that the range is
    not empty."""
    suffix = increasing_suffix_length(valuations)
    return {
        "suffix_length": suffix,
        "strictly_increasing_tail": suffix >= min(3, len(valuations)) and suffix > 1,
        "threshold_exceeded": bool(valuations),
    }


def neumann_partial(ctx: TransitionContext, x, y, powers, restrict=None) -> NeumannReport:
    """sum_{n<=N} P^n(x, y), given `powers` = [P^0 ... P^N](x, y) from
    transition_powers, together with term valuations and a trend verdict.
    The series is reported convergent only when a sound decay certificate
    exists; otherwise the trend is evidence, not a claim."""
    total = ctx.field.zero()
    for element in powers:
        total = total + element
    valuations = tuple(p.valuation for p in powers)
    nonzero = [v for v in valuations if v != INF]
    trend = convergence_evidence(nonzero)
    if restrict is not None:
        certificate = restricted_decay_certificate(ctx, restrict)
    else:
        certificate = full_decay_certificate(ctx)
    if certificate is None:
        bound = nonvanishing_certificate(ctx, x, restrict=restrict)
        certificate = bound
        trend = dict(trend, convergent=False if bound is not None else None)
    else:
        trend = dict(trend, convergent=True)
    return NeumannReport(x, y, len(powers) - 1, total, valuations, trend, certificate)


@dataclass(frozen=True)
class InverseCheckReport:
    ok: bool
    N_used: int
    rate: object
    difference_valuations: dict


INVERSE_CHECK_MAX_TERMS = 400  # series terms summed before the check gives up
INVERSE_CHECK_TARGET_VALUATION = 2  # least valuation of a difference taken as agreement


def neumann_inverse_check(ctx: TransitionContext, K, phi: dict) -> InverseCheckReport:
    """Verify sum_n P_K^n phi = (Dirichlet Laplacian on K)^{-1} phi.

    Refuses (ConvergenceNotCertifiedError) unless the restriction carries a
    decay certificate; then runs the series until every vertex difference
    either vanishes within its guarantee or has valuation >=
    INVERSE_CHECK_TARGET_VALUATION."""
    K = sorted(set(K))
    certificate = restricted_decay_certificate(ctx, K)
    if certificate is None:
        raise ConvergenceNotCertifiedError(
            "restricted transition powers carry no decay certificate "
            "(a cycle of valuation zero exists); the Neumann series may not converge"
        )
    inverse = dirichlet_inverse_apply(ctx.graph, K, phi)
    zero = ctx.field.zero()
    members = set(K)
    f = {v: phi[v] for v in K if v in phi}
    total = dict(f)
    for n in range(1, INVERSE_CHECK_MAX_TERMS + 1):
        f = _apply(ctx, f, members)
        for v, value in f.items():
            total[v] = total.get(v, zero) + value
        diffs = {v: total.get(v, zero) - inverse[v] for v in K}
        ok = all(not d or d.valuation >= INVERSE_CHECK_TARGET_VALUATION for d in diffs.values())
        if ok:
            break
    return InverseCheckReport(
        ok, n, certificate.rate, {v: d.valuation for v, d in diffs.items()}
    )


def row_sum(ctx: TransitionContext, x):
    """sum_y p(x, y); equals 1 within the certified precision."""
    return sum(ctx.probs_from(x).values(), ctx.field.zero())
