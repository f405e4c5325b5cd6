"""Weighted graphs over an ordered field scalar type.

A graph is a symmetric positive edge-weight map b on an at most countable
vertex set together with a positive vertex measure m.  Infinite graphs are
represented by a finite materialized horizon plus a generating rule; every
operation either completes within the horizon or grows it through the rule,
so nothing is silently truncated.  Vertices are integers; generators assign
them in breadth-first layers, which also fixes the deterministic enumeration
order used everywhere else.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import Optional, Tuple

from .exact import Q
from .errors import (
    DisconnectedSetError,
    HorizonExhaustedError,
    IncompatibleProfileError,
    NonpositiveWeightError,
    SpecFileError,
)
from .field import LCElement, active_precision
from .ratfunc import RFElement


# The scalar fields a spec can name.  A field is its element class: both
# answer the same constructors (zero, one, rational, monomial, from_literal)
# and queries (inv, sign, compare, indistinguishable, standard_part,
# valuation, guarantee, and bool for certified nonzero).
FIELDS = {"levi-civita": LCElement, "rational-function": RFElement}


# ---------------------------------------------------------------------------
# Weight rules.  A rule produces the weight of edge (k, k+1) on a path, or
# the outward sphere weight b_plus(k) on a layered graph.  Rules also carry
# the symbolic trend of their values, which is what makes exact capacity
# classification possible.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Trend:
    """Symbolic behaviour of a positive sequence in the field order.

    kind:
      to_zero      -- the values converge to 0 (valuations grow unboundedly)
      to_infinity  -- the values converge to infinity
      two_sided    -- lower <= value(n) for all n, value(n) <= upper for
                      infinitely many n
      unknown      -- no symbolic information
    """

    kind: str
    lower: object = None
    upper: object = None

    TO_ZERO = "to_zero"
    TO_INFINITY = "to_infinity"
    TWO_SIDED = "two_sided"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class MonomialRule:
    """value(k) = coeff * eps^(slope*k + offset)."""

    slope: Fraction = Q(1)
    offset: Fraction = Q(0)
    coeff: Fraction = Q(1)

    def __post_init__(self):
        object.__setattr__(self, "slope", Q(self.slope))
        object.__setattr__(self, "offset", Q(self.offset))
        object.__setattr__(self, "coeff", Q(self.coeff))

    def value(self, k: int, field):
        return field.monomial(self.coeff, self.slope * k + self.offset)

    def trend(self, field) -> Trend:
        if self.slope > 0:
            return Trend(Trend.TO_ZERO)
        if self.slope < 0:
            return Trend(Trend.TO_INFINITY)
        constant = self.value(0, field)
        return Trend(Trend.TWO_SIDED, lower=constant, upper=constant)

    def to_json(self):
        return {
            "rule": "eps_pow_k",
            "slope": str(self.slope),
            "offset": str(self.offset),
            "coeff": str(self.coeff),
        }


@dataclass(frozen=True)
class ConstantRule:
    """value(k) = constant."""

    constant: Fraction = Q(1)

    def __post_init__(self):
        object.__setattr__(self, "constant", Q(self.constant))

    def value(self, k: int, field):
        return field.rational(self.constant)

    def trend(self, field) -> Trend:
        bound = self.value(0, field)
        return Trend(Trend.TWO_SIDED, lower=bound, upper=bound)

    def to_json(self):
        return {"rule": "const", "value": str(self.constant)}


@dataclass(frozen=True)
class FactorialMonomialRule:
    """value(k) = k! * eps^(slope*k + offset); with invert=True the
    reciprocal 1/(k! * eps^(slope*k + offset))."""

    slope: Fraction = Q(1)
    offset: Fraction = Q(0)
    invert: bool = False

    def __post_init__(self):
        object.__setattr__(self, "slope", Q(self.slope))
        object.__setattr__(self, "offset", Q(self.offset))

    def value(self, k: int, field):
        coefficient = Q(math.factorial(k))
        exponent = self.slope * k + self.offset
        if self.invert:
            coefficient = 1 / coefficient
            exponent = -exponent
        return field.monomial(coefficient, exponent)

    def trend(self, field) -> Trend:
        slope = -self.slope if self.invert else self.slope
        if slope > 0:
            return Trend(Trend.TO_ZERO)
        if slope < 0:
            return Trend(Trend.TO_INFINITY)
        # Constant valuation: rational coefficients never cross an eps power.
        exponent = -self.offset if self.invert else self.offset
        return Trend(
            Trend.TWO_SIDED,
            lower=field.monomial(1, exponent + (1 if self.invert else 0)),
            upper=field.monomial(1, exponent - (0 if self.invert else 1)),
        )

    def to_json(self):
        return {
            "rule": "factorial_eps",
            "slope": str(self.slope),
            "offset": str(self.offset),
            "invert": self.invert,
        }


@dataclass(frozen=True)
class HalfPowerRule:
    """value(k) = eps^(1/2^k): infinitesimal at every level, with valuations
    decreasing to 0, so bounded between eps and 1."""

    def value(self, k: int, field):
        return field.monomial(1, Q(1, 2**k))

    def trend(self, field) -> Trend:
        return Trend(Trend.TWO_SIDED, lower=field.monomial(1, 1), upper=field.one())

    def to_json(self):
        return {"rule": "eps_pow_half_pow_k"}


@dataclass(frozen=True)
class PeriodicRule:
    """value(k) = literals[k mod len(literals)]."""

    literals: Tuple[str, ...]

    def value(self, k: int, field):
        return field.from_literal(self.literals[k % len(self.literals)])

    def trend(self, field) -> Trend:
        values = [field.from_literal(text) for text in self.literals]
        lower = upper = values[0]
        for v in values[1:]:
            if v.compare(lower) < 0:
                lower = v
            if v.compare(upper) > 0:
                upper = v
        return Trend(Trend.TWO_SIDED, lower=lower, upper=upper)

    def to_json(self):
        return {"rule": "periodic", "values": list(self.literals)}


@dataclass(frozen=True)
class ExplicitListRule:
    """Finite list of literal weights, optionally extended by a tail rule
    evaluated at the original index."""

    literals: Tuple[str, ...]
    tail: object = None

    def value(self, k: int, field):
        if k < len(self.literals):
            return field.from_literal(self.literals[k])
        if self.tail is not None:
            return self.tail.value(k, field)
        raise HorizonExhaustedError(
            f"weight list has {len(self.literals)} entries and no tail rule "
            f"(requested index {k})"
        )

    @property
    def edge_count(self) -> Optional[int]:
        """The number of weights; None when the tail never ends.  The tail
        is read at the original index, so a finite tail ends the rule where
        the longer of the two lists ends."""
        if self.tail is None:
            return len(self.literals)
        tail_count = getattr(self.tail, "edge_count", None)
        return None if tail_count is None else max(len(self.literals), tail_count)

    def trend(self, field) -> Trend:
        return self.tail.trend(field) if self.tail is not None else Trend(Trend.UNKNOWN)

    def to_json(self):
        out = {"rule": "custom_list", "values": list(self.literals)}
        if self.tail is not None:
            out["tail"] = self.tail.to_json()
        return out


# -- sphere size rules -------------------------------------------------------


@dataclass(frozen=True)
class ConstantSize:
    size: int = 1

    def value(self, k: int) -> int:
        return self.size

    def to_json(self):
        return {"rule": "const", "value": self.size}


@dataclass(frozen=True)
class PowerSize:
    base: int = 2

    def value(self, k: int) -> int:
        return self.base**k

    def to_json(self):
        return {"rule": "pow", "base": self.base}


@dataclass(frozen=True)
class ListSize:
    sizes: Tuple[int, ...]

    def value(self, k: int) -> int:
        if k < len(self.sizes):
            return self.sizes[k]
        raise HorizonExhaustedError(f"sphere size list exhausted at level {k}")

    def to_json(self):
        return {"rule": "list", "values": list(self.sizes)}


@dataclass(frozen=True)
class SphericalProfile:
    """Layered-graph profile: outward sphere weight per level, sphere sizes,
    and optionally the inward sphere weight (validated against the
    compatibility identity #S_k b_plus(k) = #S_{k+1} b_minus(k+1)).  With
    the default unit sphere sizes it is a path."""

    b_plus: object
    sphere_sizes: object = dc_field(default_factory=ConstantSize)
    b_minus: object = None


# -- measures: each answers m(v) on the graph it measures ----------------------


@dataclass(frozen=True)
class ConstantMeasure:
    constant: Fraction = Q(1)

    def value(self, v: int, graph):
        return graph.field.rational(self.constant)

    def to_json(self):
        return {"rule": "const", "value": str(self.constant)}


@dataclass(frozen=True)
class ListMeasure:
    literals: Tuple[str, ...]
    default: str = "1"

    def value(self, v: int, graph):
        text = self.literals[v] if v < len(self.literals) else self.default
        return graph.field.from_literal(text)

    def to_json(self):
        return {"rule": "list", "values": list(self.literals), "default": self.default}


class DegreeMeasure:
    """m(x) = b(x), the degree of x."""

    def value(self, v: int, graph):
        return graph.degree_weight(v)

    def to_json(self):
        return {"rule": "degree"}


# ---------------------------------------------------------------------------
# Structures: how vertices and edges are generated
# ---------------------------------------------------------------------------


class _LayeredStructure:
    """Layered realization of a weakly spherically symmetric profile:
    consecutive spheres are joined completely with a uniform edge weight, so
    b_plus and b_minus depend on the level only.  A path is the profile
    whose spheres all have one vertex.  A weight rule with a finite
    edge_count ends the graph at sphere edge_count."""

    def __init__(self, profile: SphericalProfile, field):
        if profile.sphere_sizes.value(0) != 1:
            raise IncompatibleProfileError("sphere 0 must contain exactly the root")
        self.profile = profile
        self.field = field
        self.last_level = getattr(profile.b_plus, "edge_count", None)  # None: no last sphere
        self._starts = [0, 1]  # vertex index where each level starts
        self._level_weights: dict = {}  # PrecisionConfig -> {level: weight}

    def _start(self, level: int) -> int:
        while len(self._starts) <= level:
            k = len(self._starts) - 1
            size = self.profile.sphere_sizes.value(k)
            if size < 1:
                raise IncompatibleProfileError(f"sphere {k} has nonpositive size")
            self._starts.append(self._starts[-1] + size)
        return self._starts[level]

    def _size(self, level: int) -> int:
        return self._start(level + 1) - self._start(level)

    def _edge_weight(self, level: int):
        """Uniform weight of one edge between sphere `level` and `level+1`.
        Dividing b_plus by a sphere size truncates under the active
        precision, so the weights are kept per precision."""
        weights = self._level_weights.setdefault(active_precision(), {})
        if level not in weights:
            w = self.profile.b_plus.value(level, self.field)
            if not w or w.sign() <= 0:
                raise NonpositiveWeightError(
                    f"b_plus({level}), the weight from sphere {level} to sphere "
                    f"{level + 1}, is nonpositive"
                )
            outer = self._size(level + 1)
            if outer > 1:
                w = w / self.field.rational(outer)
            if self.profile.b_minus is not None:
                implied = w * self.field.rational(self._size(level))
                stated = self.profile.b_minus.value(level + 1, self.field)
                if not implied.indistinguishable(stated):
                    raise IncompatibleProfileError(
                        f"#S_{level} * b_plus({level}) != "
                        f"#S_{level + 1} * b_minus({level + 1})"
                    )
            weights[level] = w
        return weights[level]

    def vertex_exists(self, v: int) -> bool:
        if v < 0:
            return False
        return self.last_level is None or v < self._start(self.last_level + 1)

    def neighbors_of(self, v: int):
        if not self.vertex_exists(v):
            raise HorizonExhaustedError(f"vertex {v} outside the graph")
        while self._starts[-1] <= v:
            self._start(len(self._starts))
        level = bisect.bisect_right(self._starts, v) - 1
        out = []
        if level > 0:
            w = self._edge_weight(level - 1)
            out.extend((u, w) for u in range(self._start(level - 1), self._start(level)))
        if level != self.last_level:
            w = self._edge_weight(level)
            out.extend((u, w) for u in range(self._start(level + 1), self._start(level + 2)))
        return out

    @property
    def vertex_count(self) -> Optional[int]:
        return None if self.last_level is None else self._start(self.last_level + 1)


class _ExplicitStructure:
    profile = None

    def __init__(self, n: int, edges, field):
        self.n = n
        adjacency = {v: {} for v in range(n)}
        for x, y, w in edges:
            if not (0 <= x < n and 0 <= y < n):
                raise SpecFileError(f"edge ({x},{y}) outside vertex range 0..{n - 1}")
            if x == y:
                raise SpecFileError(f"loop edge at vertex {x} not allowed")
            if w.sign() <= 0:
                raise NonpositiveWeightError(f"edge ({x},{y}) has nonpositive weight")
            adjacency[x][y] = w
            adjacency[y][x] = w
        self.adjacency = {v: dict(sorted(nbrs.items())) for v, nbrs in adjacency.items()}

    def vertex_exists(self, v: int) -> bool:
        return 0 <= v < self.n

    def neighbors_of(self, v: int):
        if not self.vertex_exists(v):
            raise HorizonExhaustedError(f"vertex {v} outside explicit graph")
        return list(self.adjacency[v].items())

    @property
    def vertex_count(self) -> Optional[int]:
        return self.n


# ---------------------------------------------------------------------------
# The graph itself
# ---------------------------------------------------------------------------


class WeightedGraph:
    """Immutable-by-contract weighted graph.  Internally the materialized
    horizon grows monotonically (append-only caches), which is invisible to
    callers.  Every public method is a pure function of the graph and the
    active PrecisionConfig: a degree b(v), and a layered graph's edge weight,
    is a field result truncated under that precision, so the neighbour and
    degree caches are kept per precision."""

    def __init__(self, structure, field, measure=None):
        self._structure = structure
        self.field = field
        self.measure_rule = measure if measure is not None else ConstantMeasure()
        self._caches: dict = {}  # PrecisionConfig -> (neighbours, degrees)
        self._precision = None  # the PrecisionConfig of the two caches below
        self._neighbors: dict = {}
        self._degree: dict = {}

    def _use_active_precision(self):
        """Point _neighbors and _degree at the caches of the active
        precision.  Callers check by identity first, so a lookup under an
        unchanged precision costs one comparison."""
        self._precision = active_precision()
        self._neighbors, self._degree = self._caches.setdefault(self._precision, ({}, {}))

    # -- basic access ------------------------------------------------------

    @property
    def vertex_count(self) -> Optional[int]:
        """Number of vertices for finite graphs, None for generator-backed."""
        return self._structure.vertex_count

    @property
    def is_finite(self) -> bool:
        return self.vertex_count is not None

    def vertex_exists(self, v: int) -> bool:
        return self._structure.vertex_exists(v)

    def neighbors(self, v: int) -> dict:
        if active_precision() is not self._precision:
            self._use_active_precision()
        if v not in self._neighbors:
            pairs = sorted(self._structure.neighbors_of(v))
            self._neighbors[v] = dict(pairs)
        return self._neighbors[v]

    def weight(self, x: int, y: int):
        return self.neighbors(x).get(y, self.field.zero())

    def degree_weight(self, v: int):
        """b(v), the sum of incident edge weights."""
        if active_precision() is not self._precision:
            self._use_active_precision()
        if v not in self._degree:
            total = self.field.zero()
            for w in self.neighbors(v).values():
                total = total + w
            self._degree[v] = total
        return self._degree[v]

    def measure(self, v: int):
        m = self.measure_rule.value(v, self)
        if not m or m.sign() <= 0:
            raise NonpositiveWeightError(f"the measure m({v}) is nonpositive")
        return m

    # -- balls and boundaries -------------------------------------------------

    def ball(self, a: int, n: int) -> tuple:
        """Vertices at combinatorial distance < n from a, in breadth-first
        order (the canonical enumeration order used by the solvers)."""
        if n < 1:
            raise ValueError("ball radius must be at least 1")
        if not self.vertex_exists(a):
            raise HorizonExhaustedError(f"root vertex {a} outside the graph")
        distances = self.distances_from(a, n - 1)
        return tuple(distances.keys())

    def spheres(self, a: int, within=None):
        """Yield the spheres S_0 = {a}, S_1, ... around a in breadth-first
        order.  Each sphere maps a vertex to the neighbour in the previous
        sphere that reached it first (None for a).  With `within`, the walk
        stays inside that vertex set.  A sphere's neighbours are listed only
        when the next sphere is asked for."""
        sphere = {a: None}
        seen = {a}
        while sphere:
            yield sphere
            outer = {}
            for x in sphere:
                for y in self.neighbors(x):
                    if y not in seen and (within is None or y in within):
                        seen.add(y)
                        outer[y] = x
            sphere = outer

    def distances_from(self, a: int, radius: int) -> dict:
        """BFS distance map for all vertices within the given radius."""
        return {
            x: d for d, sphere in zip(range(radius + 1), self.spheres(a)) for x in sphere
        }

    def boundary_weight(self, vertices):
        """b(boundary W) = sum of b(x, y) over x in W, y outside W."""
        inside = set(vertices)
        total = self.field.zero()
        for x in sorted(inside):
            for y, w in self.neighbors(x).items():
                if y not in inside:
                    total = total + w
        return total

    # -- metadata for classification -----------------------------------------------

    @property
    def weight_rule(self):
        profile = self._structure.profile
        return None if profile is None else profile.b_plus

    @property
    def sphere_sizes(self):
        profile = self._structure.profile
        return None if profile is None else profile.sphere_sizes

    @property
    def is_path(self) -> bool:
        """A layered graph whose spheres all have one vertex."""
        return self.sphere_sizes == ConstantSize(1)

    # -- derived graphs ---------------------------------------------------------

    def with_degree_measure(self) -> "WeightedGraph":
        return WeightedGraph(self._structure, self.field, DegreeMeasure())


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------


def make_path(weight_rule, measure=None, field=LCElement) -> WeightedGraph:
    """Path graph on {0, 1, 2, ...} with b(k, k+1) given by the weight rule
    and measure 1 unless stated otherwise: the profile with unit spheres."""
    profile = SphericalProfile(weight_rule)
    return WeightedGraph(_LayeredStructure(profile, field), field, measure)


def make_spherical(profile: SphericalProfile, measure=None, field=LCElement) -> WeightedGraph:
    """Layered graph realizing a weakly spherically symmetric profile."""
    return WeightedGraph(_LayeredStructure(profile, field), field, measure)


def make_explicit(n: int, edges, measure=None, field=LCElement) -> WeightedGraph:
    """Finite graph from an explicit edge list [(x, y, weight), ...]."""
    graph = WeightedGraph(_ExplicitStructure(n, edges, field), field, measure)
    if n < 1 or sum(map(len, graph.spheres(0))) != n:
        raise DisconnectedSetError("explicit graph is not connected")
    return graph
