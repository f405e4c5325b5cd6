"""Superharmonic functions, Harnack constants and Hardy weights.

A function is superharmonic where its Laplacian is nonnegative; positive
non-harmonic examples obstruct null capacity.  The module verifies
superharmonicity with witnesses, constructs the standard one-parameter
family 1 - c^|x| tau (or 1 - |x| tau), computes local Harnack constants
from path products, checks the ground state transform identity exactly,
and builds/verifies Hardy weights from capacity verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Tuple

from . import scalars
from .capacity import DIVERGENT, POSITIVE, CapacityVerdict
from .dirichlet import energy, laplacian_apply
from .errors import (
    HardyConstructionError,
    HorizonExhaustedError,
    IndeterminateComparisonError,
    PreconditionError,
)
from .exact import Q
from .field import scalar_json

__all__ = [
    "is_superharmonic",
    "construct_superharmonic",
    "harnack_constant",
    "ground_state_transform_check",
    "hardy_construct",
    "hardy_verify",
    "HardyWeight",
    "energy_difference_bound",
    "sphere_weight_split",
]


def _fetch(u):
    if callable(u):
        return u

    def mapping_fetch(v):
        try:
            return u[v]
        except KeyError:
            raise PreconditionError(
                f"function is undefined at vertex {v}, which neighbors the checked set"
            ) from None

    return mapping_fetch


@dataclass(frozen=True)
class SuperharmonicReport:
    ok: bool
    witness: Optional[int]  # first vertex with certified negative Laplacian
    laplacian: Mapping

    def to_json(self):
        return {
            "ok": self.ok,
            "witness": self.witness,
            "laplacian": {str(x): scalar_json(v) for x, v in self.laplacian.items()},
        }


def is_superharmonic(graph, u, W) -> SuperharmonicReport:
    """Check Delta u >= 0 at every vertex of W; u must be defined on W and
    all its neighbors.  The witness is the first failing vertex.  A
    Laplacian value that vanishes within a finite guarantee cannot be
    certified and raises."""
    fetch = _fetch(u)
    values = {}
    witness = None
    for x in sorted(W):
        delta = laplacian_apply(graph, fetch, x)
        values[x] = delta
        if scalars.is_zero_like(delta):
            raise IndeterminateComparisonError(
                f"Laplacian at vertex {x} vanishes within a finite guarantee"
            )
        if witness is None and delta.sign() < 0:
            witness = x
    return SuperharmonicReport(witness is None, witness, values)


def sphere_weight_split(graph, x, distances):
    """(b_minus(x), b_plus(x)): the weight going to the previous and to the
    next sphere around a root.  `distances` maps vertices to their distance
    from that root and must reach one sphere beyond x."""
    level = distances[x]
    minus = graph.field.zero()
    plus = graph.field.zero()
    for y, w in graph.neighbors(x).items():
        d = distances.get(y)
        if d == level - 1:
            minus = minus + w
        elif d == level + 1:
            plus = plus + w
    return minus, plus


@dataclass(frozen=True)
class SuperharmonicConstruction:
    values: Mapping
    formula: str
    c: object
    tau: object
    radius: int
    report: SuperharmonicReport


def construct_superharmonic(graph, o, c, tau, radius=8) -> SuperharmonicConstruction:
    """Positive superharmonic function on the horizon from the ratio bound
    b_minus/b_plus <= c (with c^n below 1/tau): 1 - c^|x| tau when c > 1,
    else 1 - |x| tau.  Raises with a witness vertex when the ratio bound
    fails; the result is verified positive and superharmonic."""
    one = graph.field.one()
    if not (tau.sign() > 0 and tau.valuation > 0):
        raise PreconditionError("tau must be a positive infinitesimal")
    tau_inv = tau.inv()
    powers = [one]  # c^0, c^1, ..., c^(radius+1)
    for n in range(1, radius + 2):
        powers.append(powers[-1] * c)
        if not scalars.certainly_positive(tau_inv - powers[-1]):
            raise PreconditionError(f"c^{n} is not below 1/tau")

    distances = graph.distances_from(o, radius + 1)
    for x in sorted(distances):
        if distances[x] > radius:
            continue
        minus, plus = sphere_weight_split(graph, x, distances)
        if x == o:
            continue
        if not scalars.certainly_positive(plus):
            raise PreconditionError(f"vertex {x} has no outward weight")
        ratio = minus * plus.inv()
        if scalars.certainly_positive(ratio - c):
            raise PreconditionError(
                f"ratio b_minus/b_plus at vertex {x} exceeds c = {c}"
            )

    grows = c.compare(one) > 0
    steps = powers if grows else [graph.field.rational(d) for d in range(radius + 2)]
    values = {x: one - steps[d] * tau for x, d in distances.items()}
    for x, v in sorted(values.items()):
        if not scalars.certainly_positive(v):
            raise PreconditionError(f"constructed function not certified positive at {x}")
    check_set = [x for x, d in distances.items() if d <= radius]
    report = is_superharmonic(graph, values, check_set)
    if not report.ok:
        raise AssertionError(f"construction failed superharmonicity at {report.witness}")
    formula = "1 - c^|x| * tau" if grows else "1 - |x| * tau"
    return SuperharmonicConstruction(values, formula, c, tau, radius, report)


def _shortest_path(graph, x, y, within=None):
    """Breadth-first shortest path from x to y, inside `within` if given."""
    parents = {}
    for sphere in graph.spheres(x, within):
        parents.update(sphere)
        if y in sphere:
            path = [y]
            while parents[path[-1]] is not None:
                path.append(parents[path[-1]])
            return path[::-1]
    raise PreconditionError("vertex set is not connected")


def harnack_constant(graph, W):
    """C_W with max_W u <= C_W min_W u for every nonnegative function u
    superharmonic on W: the maximum over ordered vertex pairs of the product
    of b(x_i)/b(x_{i-1}, x_i) along a breadth-first shortest path in W.

    Any path yields a valid constant; shortest paths keep it small."""
    order = sorted(set(W))
    for v in order:
        if not graph.vertex_exists(v):
            raise HorizonExhaustedError(f"vertex {v} outside the graph")
    members = set(order)
    one = graph.field.one()
    best = one
    for x in order:
        for y in order:
            if x == y:
                continue
            path = _shortest_path(graph, x, y, members)
            product = one
            for previous, current in zip(path, path[1:]):
                product = (
                    product * graph.degree_weight(current) * graph.weight(previous, current).inv()
                )
            if scalars.certainly_positive(product - best):
                best = product
    return best


@dataclass(frozen=True)
class TransformCheck:
    ok: bool
    lhs: object  # Q(phi) - <(Delta u / u) phi, phi>
    rhs: object  # energy of phi/u under weights b(x,y) u(x) u(y)


def ground_state_transform_check(graph, u, phi: Mapping) -> TransformCheck:
    """Exact check of the ground state transform identity for a positive u
    and finitely supported phi."""
    fetch = _fetch(u)
    lhs = energy(graph, phi)
    for x, px in phi.items():
        ux = fetch(x)
        if not scalars.certainly_positive(ux):
            raise PreconditionError(f"u must be certified positive at vertex {x}")
        delta = laplacian_apply(graph, fetch, x)
        lhs = lhs - delta * ux.inv() * px * px * graph.measure(x)

    zero = graph.field.zero()
    rhs = zero
    seen = set()
    for x, px in phi.items():
        ux = fetch(x)
        ratio_x = px * ux.inv()
        for y, w in graph.neighbors(x).items():
            pair = (x, y) if x < y else (y, x)
            if pair in seen:
                continue
            seen.add(pair)
            uy = fetch(y)
            py = phi.get(y, zero)
            ratio_y = py * uy.inv()
            diff = ratio_x - ratio_y
            rhs = rhs + w * ux * uy * diff * diff
    return TransformCheck(lhs.indistinguishable(rhs), lhs, rhs)


# ---------------------------------------------------------------------------
# Hardy weights
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HardyWeight:
    """Nonnegative nontrivial weight with Q(phi) >= sum phi^2 omega.

    provenance: "point_mass" (capacity limit at one vertex) or
    "spherical_lower_bounds" (derived per-vertex capacity lower bounds on a
    path, whose edge weights are the profile's b_plus values)."""

    weights: Mapping
    provenance: str
    detail: dict

    def to_json(self):
        return {
            "provenance": self.provenance,
            "detail": self.detail,
            "weights": {str(x): scalar_json(v) for x, v in sorted(self.weights.items())},
        }


def energy_difference_bound(graph, x, y):
    """Constant C with |phi(x) - phi(y)|^2 <= C * Q(phi) for every finitely
    supported phi: 2n divided by the minimal edge weight along a shortest
    connecting path of length n."""
    for v in (x, y):  # on an infinite graph a walk towards a missing y never ends
        graph.neighbors(v)  # HorizonExhaustedError outside the graph
    path = _shortest_path(graph, x, y)
    n = len(path) - 1
    if n == 0:
        return graph.field.zero()
    minimum = None
    for previous, current in zip(path, path[1:]):
        w = graph.weight(previous, current)
        if minimum is None or scalars.certainly_positive(minimum - w):
            minimum = w
    return graph.field.rational(2 * n) * minimum.inv()


def hardy_construct(graph, verdict: CapacityVerdict, horizon: int = 16) -> HardyWeight:
    """Build a Hardy weight from a capacity verdict.

    Positive capacity: the point mass cap(a) at the verdict root, which is
    the largest possible value of a Hardy weight there.  Otherwise per-vertex
    positive lower bounds m_x on cap_n(x), derived on paths from a certified
    edge lower bound, are damped by the summable sequence 2^-(i+1) along the
    vertex enumeration.  Null capacity admits no Hardy weight, so
    construction refuses."""
    if verdict.kind == POSITIVE:
        return HardyWeight(
            {verdict.root: verdict.limit},
            "point_mass",
            {"root": verdict.root},
        )

    if verdict.kind == DIVERGENT and graph.is_path:
        # A divergent verdict's certificate bounds every edge weight below.
        # By the energy-difference bound along the radial path,
        # cap_n(x) >= bound/(2n) >= (bound/2) * eps for every n.
        edge_bound = verdict.certificate.lower
        infinitesimal = graph.field.monomial(1, 1)
        m_x = edge_bound * infinitesimal * graph.field.rational(Q(1, 2))
        weights = {}
        for i, x in enumerate(graph.ball(0, horizon)):
            weights[x] = m_x * graph.field.rational(Q(1, 2 ** (i + 1)))
        return HardyWeight(
            weights,
            "spherical_lower_bounds",
            {"edge_lower_bound": str(edge_bound), "horizon": horizon},
        )

    raise HardyConstructionError(
        f"no Hardy weight certificate for verdict kind '{verdict.kind}' "
        "(null capacity admits none)"
    )


@dataclass(frozen=True)
class HardyVerification:
    ok: bool
    failures: Tuple[int, ...]  # indices of violating samples
    checked: int


def hardy_verify(graph, omega: Mapping, phis) -> HardyVerification:
    """Check Q(phi) >= sum phi^2 omega for each sample phi.

    The universal statement over all finitely supported functions is not
    decidable; this is a sample-based check and a certified violation on any
    sample refutes the weight."""
    nontrivial = False
    for x, w in omega.items():
        if scalars.certainly_positive(-w):
            raise PreconditionError(f"weight negative at vertex {x}")
        if scalars.certainly_positive(w):
            nontrivial = True
    if not nontrivial:
        raise PreconditionError("weight is trivial (no certified positive value)")

    zero = graph.field.zero()
    samples = list(phis)
    failures = []
    for i, phi in enumerate(samples):
        lhs = energy(graph, phi)
        rhs = zero
        for x, w in omega.items():
            px = phi.get(x, zero)
            rhs = rhs + px * px * w
        if scalars.certainly_positive(rhs - lhs):
            failures.append(i)
    return HardyVerification(not failures, tuple(failures), len(samples))
