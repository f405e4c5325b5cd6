"""Truncated Levi-Civita field arithmetic with certified precision.

Elements are finite formal series ``sum a_i * e^(q_i)`` with rational
coefficients ``a_i`` and strictly increasing rational exponents ``q_i``,
ordered lexicographically by the leading coefficient (``x > 0`` iff the
coefficient at the least exponent is positive).  ``e`` is a fixed positive
infinitesimal.  Coefficients are ``Fraction``s; an exponent is an ``int``
when it is integral and a ``Fraction`` otherwise (``exact.canonical``), so
sums, shifts, cuts and comparisons of exponents on the integer lattice are
machine-integer operations.

Every element carries a *guarantee exponent*: all behaviour at exponents
strictly below it is exact, everything at or above it is unknown.  Exact
elements have an infinite guarantee.  Arithmetic truncates results to a
window of configurable width above the valuation and to a maximum term
count; any truncation lowers the guarantee instead of silently pretending
exactness.  Division x/y, with y = a*e^q*(1+h), computes x/(1+h) one
coefficient at a time (long division; 1/y is the inverse) and is exact
below val(x) + geometric_series_depth * val(h) and within the window.
A sum merges the two sorted term lists, and a quotient merges the
exponents of the numerator with those its found coefficients reach, for
operands of any length.  Only a product has a path of its own for short
operands: a one-term factor shifts and scales the other factor.  Every cut
of a sorted term list, at a guarantee or at the window's edge, is a
bisection made only when the last term reaches it, and a zero shift or a
unit scale leaves the terms as they are.
Sign and ordering queries that cannot be certified raise
IndeterminateComparisonError rather than guessing.

All values are immutable and all operations are pure functions of their
operands and the active PrecisionConfig, so they are safe to share across
threads.
"""

from __future__ import annotations

import contextvars
import dataclasses
import heapq
import math
import re
from bisect import bisect_left
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Iterable, Tuple, Union

from .exact import Q, RATIONAL_TYPES, canonical
from .errors import (
    FieldParseError,
    IndeterminateComparisonError,
    TermOverflowError,
)

INF = math.inf
_exponent = itemgetter(0)  # the sort key of a term list

Exponent = Union[int, Fraction]  # canonical: an int when integral
Coefficient = Fraction
Guarantee = Union[int, Fraction, float]  # an Exponent, or math.inf for "exact"


@dataclass(frozen=True)
class PrecisionConfig:
    """Truncation policy for series arithmetic.

    window: width W of the kept exponent range [valuation, valuation + W).
    max_terms: maximum stored terms per element.
    geometric_series_depth: division of s by y = a*e^q*(1+h), and so
        inversion (s = 1), is exact below val(s) + geometric_series_depth *
        val(h) and within the window, the range a geometric series in h with
        this many terms certifies; the rest of s/(1+h) is absorbed into the
        guarantee.
    """

    window: Exponent = 32
    max_terms: int = 256
    geometric_series_depth: int = 64

    def __post_init__(self):
        object.__setattr__(self, "window", canonical(self.window))
        if self.window <= 0:
            raise ValueError("window must be positive")
        if self.max_terms < 1:
            raise ValueError("max_terms must be at least 1")
        if self.geometric_series_depth < 1:
            raise ValueError("geometric_series_depth must be at least 1")

    def doubled(self) -> "PrecisionConfig":
        """A twice-as-precise configuration, used to retry indeterminate
        comparisons."""
        return PrecisionConfig(
            window=self.window * 2,
            max_terms=self.max_terms * 2,
            geometric_series_depth=self.geometric_series_depth * 2,
        )


_ACTIVE: contextvars.ContextVar[PrecisionConfig] = contextvars.ContextVar(
    "nacap_precision", default=PrecisionConfig()
)


def active_precision() -> PrecisionConfig:
    return _ACTIVE.get()


@contextmanager
def precision(config: PrecisionConfig | None = None, **overrides):
    """Run a block under a given precision configuration.

    Either pass a full PrecisionConfig or keyword overrides of the active
    one, e.g. ``with precision(window=8):``.
    """
    base = config if config is not None else active_precision()
    if overrides:
        base = dataclasses.replace(base, **overrides)
    token = _ACTIVE.set(base)
    try:
        yield base
    finally:
        _ACTIVE.reset(token)


def _below(terms, bound):
    """The terms of a sorted term list with exponents below bound (finite or
    INF), cut by bisection only when the last term reaches it."""
    if terms and bound != INF and terms[-1][0] >= bound:
        return terms[: bisect_left(terms, bound, key=_exponent)]
    return terms


def _finalize(terms, guarantee, cfg: PrecisionConfig) -> "LCElement":
    """Apply guarantee, window and term-count truncation to a sorted list of
    (exponent, coefficient) pairs with nonzero coefficients.  Each cut is a
    bisection, made only when the last term reaches it."""
    terms = _below(terms, guarantee)
    if terms:
        cut = terms[0][0] + cfg.window
        if terms[-1][0] >= cut:
            terms = terms[: bisect_left(terms, cut, key=_exponent)]
            guarantee = min(guarantee, cut)
        if len(terms) > cfg.max_terms:
            guarantee = min(guarantee, terms[cfg.max_terms][0])
            terms = terms[: cfg.max_terms]
    return LCElement(tuple(terms), guarantee)


def _moved(terms, shift, scale):
    """The terms times scale*e^shift; a zero shift or a unit scale leaves
    the exponents or the coefficients as they are."""
    if shift and scale != 1:
        return [(e + shift, scale * c) for e, c in terms]
    if shift:
        return [(e + shift, c) for e, c in terms]
    if scale != 1:
        return [(e, scale * c) for e, c in terms]
    return terms


def _quotient_terms(s: "LCElement", h: "LCElement", cfg: PrecisionConfig):
    """Terms and guarantee of s/(1+h) for s of valuation 0 and h of
    positive valuation lam, by long division.

    The coefficients follow c(e) = s(e) - sum_j h_j*c(e - eta_j) in
    increasing exponent order.  They are exact below min(s.guarantee,
    h.guarantee, (steps+1)*lam), the range a geometric series of
    ``geometric_series_depth`` terms certifies.  The first nonzero
    coefficient that does not fit, past the window or over ``max_terms``,
    ends the series and its exponent is the guarantee, since the
    coefficients between the window's edge and it are known to vanish.
    Ending at the window's edge, as ``_finalize`` does, can certify less
    than the geometric series did.

    The next exponent comes from a merge: the exponents of s, and for each
    term h_j*e^(eta_j) of h a walk over the nonzero coefficients found so
    far, shifted by eta_j.  A heap holds the next exponent of each walk; a
    walk that has caught up waits for the next nonzero coefficient.  All
    walks at an exponent are popped together, so c(e) is complete."""
    bound = min(s.guarantee, h.guarantee)
    if h.terms:
        lam = h.terms[0][0]
        steps = min(cfg.geometric_series_depth - 1, -(-cfg.window // lam) + 1)
        bound = min(bound, (steps + 1) * lam)
    numerator = _below(s.terms, bound)
    terms = []
    walks = []  # (exponent, j, position): terms[position] shifted by eta_j
    waiting = list(range(len(h.terms)))  # walks that have caught up
    index = 0  # of the next term of the numerator
    while True:
        if walks and (index == len(numerator) or walks[0][0] < numerator[index][0]):
            e, c = walks[0][0], _Q0
            if e >= bound:  # s is used up and no walk is left below the bound
                return terms, bound
        elif index < len(numerator):
            e, c = numerator[index]
            index += 1
        else:
            return terms, bound
        while walks and walks[0][0] == e:
            _, j, position = walks[0]
            c -= h.terms[j][1] * terms[position][1]
            position += 1
            if position == len(terms):
                heapq.heappop(walks)
                waiting.append(j)
            else:
                heapq.heapreplace(walks, (terms[position][0] + h.terms[j][0], j, position))
        if c == 0:
            continue
        if e >= cfg.window or len(terms) == cfg.max_terms:
            return terms, e
        terms.append((e, c))
        for j in waiting:
            heapq.heappush(walks, (e + h.terms[j][0], j, len(terms) - 1))
        waiting = []


class OrderedFieldElement:
    """What an ordered-field element derives from its own ``+``, ``*``,
    unary ``-``, ``inv`` and ``sign``: rational coercion, ``-``, ``/``,
    ``**`` and the order, x < y meaning that y - x is positive."""

    def _coerce(self, other):
        if isinstance(other, type(self)):
            return other
        if isinstance(other, RATIONAL_TYPES):
            return self.rational(other)
        return NotImplemented

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inv()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, n: int):
        """Square-and-multiply; a negative power inverts first."""
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inv() ** (-n)
        result = self.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def compare(self, other) -> int:
        """Certified three-way comparison: -1, 0 or +1, the sign of the
        difference, which raises where that sign is not certified."""
        return (self - other).sign()

    def indistinguishable(self, other) -> bool:
        """True when the difference carries no certified term, i.e. the two
        elements agree everywhere below the combined guarantee."""
        return not (self - other)

    def __lt__(self, other):
        return self.compare(other) < 0

    def __le__(self, other):
        return self.compare(other) <= 0

    def __gt__(self, other):
        return self.compare(other) > 0

    def __ge__(self, other):
        return self.compare(other) >= 0


@dataclass(frozen=True)
class LCElement(OrderedFieldElement):
    """A truncated Levi-Civita series with a precision certificate.

    terms: ((exponent, coefficient), ...) with strictly increasing exponents
        and nonzero coefficients, every exponent below ``guarantee``.
    guarantee: exponent below which the element is exact (math.inf if the
        element is exact everywhere).  An empty term list with an infinite
        guarantee is the exact zero; with a finite guarantee it is a
        "zero-like" element whose sign cannot be certified.

    Equality (`==`) is structural.  Order comparisons (<, <=, >, >=) follow
    the field order and raise IndeterminateComparisonError when the
    difference vanishes within a finite guarantee.
    """

    terms: Tuple[Tuple[Exponent, Coefficient], ...] = ()
    guarantee: Guarantee = INF

    # -- constructors -----------------------------------------------------

    @staticmethod
    def zero() -> "LCElement":
        return _ZERO

    @staticmethod
    def one() -> "LCElement":
        return _ONE

    @staticmethod
    def rational(value) -> "LCElement":
        value = Q(value)
        if value == 0:
            return _ZERO
        return LCElement(((0, value),), INF)

    @staticmethod
    def monomial(coefficient, exponent) -> "LCElement":
        coefficient = Q(coefficient)
        if coefficient == 0:
            return _ZERO
        return LCElement(((canonical(exponent), coefficient),), INF)

    @staticmethod
    def from_literal(text: str) -> "LCElement":
        return parse_element(text)

    @staticmethod
    def from_terms(pairs: Iterable[tuple], guarantee: Guarantee = INF) -> "LCElement":
        """Build an element from (exponent, coefficient) pairs.

        Pairs are sorted and coefficients at equal exponents are summed;
        more terms than the configured maximum is an error here (unlike in
        arithmetic, which truncates and degrades the guarantee)."""
        acc: dict = {}
        for exponent, coefficient in pairs:
            exponent = canonical(exponent)
            coefficient = Q(coefficient)
            acc[exponent] = acc.get(exponent, Q(0)) + coefficient
        terms = sorted((e, c) for e, c in acc.items() if c != 0)
        if guarantee != INF:
            guarantee = canonical(guarantee)
            terms = [t for t in terms if t[0] < guarantee]
        cfg = active_precision()
        if len(terms) > cfg.max_terms:
            raise TermOverflowError(
                f"element with {len(terms)} terms exceeds max_terms={cfg.max_terms}"
            )
        return LCElement(tuple(terms), guarantee)

    # -- basic queries -----------------------------------------------------

    @property
    def valuation(self) -> Guarantee:
        """Least exponent with a nonzero stored coefficient; +inf when no
        term is stored (exact zero, or zero within the guarantee)."""
        return self.terms[0][0] if self.terms else INF

    def __bool__(self) -> bool:
        # True iff certainly nonzero.
        return bool(self.terms)

    def standard_part(self) -> Fraction:
        """Coefficient at exponent 0 (the real shadow of a finite element)."""
        for exponent, coefficient in self.terms:
            if exponent == 0:
                return coefficient
            if exponent > 0:
                break
        return Q(0)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        x, y = self.terms, other.terms
        terms = []
        i = j = 0
        while i < len(x) and j < len(y):
            if x[i][0] < y[j][0]:
                terms.append(x[i])
                i += 1
            elif y[j][0] < x[i][0]:
                terms.append(y[j])
                j += 1
            else:
                value = x[i][1] + y[j][1]
                if value:
                    terms.append((x[i][0], value))
                i += 1
                j += 1
        terms.extend(x[i:])
        terms.extend(y[j:])
        return _finalize(terms, min(self.guarantee, other.guarantee), active_precision())

    __radd__ = __add__

    def __neg__(self):
        return LCElement(tuple((e, -c) for e, c in self.terms), self.guarantee)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        cfg = active_precision()
        guarantee = min(
            self.guarantee + other.valuation,
            other.guarantee + self.valuation,
            self.guarantee + other.guarantee,
        )
        # The least and the greatest pair sums are formed once each, so
        # they never cancel.  When the greatest lies in [cut, guarantee),
        # _finalize's window cut falls at cut for certain.  Pairs at or past
        # the guarantee cannot reach the result and are never formed.
        if self.terms and other.terms:
            cut = self.terms[0][0] + other.terms[0][0] + cfg.window
            if cut <= self.terms[-1][0] + other.terms[-1][0] < guarantee:
                guarantee = cut
        if len(self.terms) == 1 or len(other.terms) == 1:
            # A one-term factor shifts and scales the other's terms, which
            # stay sorted, distinct and nonzero.  The other factor is cut
            # once, at guarantee - shift, and only its kept terms change.
            ((shift, scale),), rest = (
                (self.terms, other.terms) if len(self.terms) == 1 else (other.terms, self.terms)
            )
            return _finalize(_moved(_below(rest, guarantee - shift), shift, scale), guarantee, cfg)
        acc: dict = {}
        for ex, cx in self.terms:
            for ey, cy in other.terms:
                exponent = ex + ey
                if exponent >= guarantee:
                    break
                value = acc.get(exponent, Q(0)) + cx * cy
                if value == 0:
                    acc.pop(exponent, None)
                else:
                    acc[exponent] = value
        return _finalize(sorted(acc.items()), guarantee, cfg)

    __rmul__ = __mul__

    def __truediv__(self, other):
        """Long division: with other = a0*e^(q0)*(1+h) and self = e^v*s,
        self/other = e^(v-q0)/a0 * s/(1+h), s/(1+h) from ``_quotient_terms``."""
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other.terms:
            if other.guarantee == INF:
                raise ZeroDivisionError("division by zero")
            raise IndeterminateComparisonError(
                "cannot divide by an element that vanishes within its guarantee"
            )
        cfg = active_precision()
        q0, a0 = other.terms[0]
        if not self.terms:
            return LCElement((), self.guarantee - q0)
        gh = INF if other.guarantee == INF else other.guarantee - q0
        h = _finalize([(e - q0, c / a0) for e, c in other.terms[1:]], gh, cfg)
        v = self.terms[0][0]
        s = LCElement(tuple((e - v, c) for e, c in self.terms), self.guarantee - v) if v else self
        terms, guarantee = _quotient_terms(s, h, cfg)
        shift = v - q0
        return LCElement(
            tuple(_moved(terms, shift, 1 / a0)),
            guarantee if guarantee == INF else guarantee + shift,
        )

    def inv(self) -> "LCElement":
        """Multiplicative inverse: 1/self by ``__truediv__``."""
        return _ONE / self

    # -- order --------------------------------------------------------------

    def sign(self) -> int:
        """The sign of the leading coefficient; 0 only for the exact zero.
        An element that vanishes within a finite guarantee raises."""
        if self.terms:
            return 1 if self.terms[0][1] > 0 else -1
        if self.guarantee == INF:
            return 0
        raise IndeterminateComparisonError(
            "element vanishes within finite guarantee "
            f"(guarantee exponent {self.guarantee}); rerun with a larger window"
        )

    def with_guarantee(self, guarantee) -> "LCElement":
        """Lower the guarantee (never raises it); terms at or above the new
        guarantee are dropped.  Used when a caller knows an omitted tail."""
        g = min(self.guarantee, guarantee)
        return LCElement(tuple(t for t in self.terms if t[0] < g), g)

    # -- formatting -----------------------------------------------------------

    def __str__(self) -> str:
        return format_element(self)

    def __repr__(self) -> str:
        g = "inf" if self.guarantee == INF else str(self.guarantee)
        return f"LCElement({format_element(self)!r}, guarantee={g})"


_Q0 = Q(0)
_ZERO = LCElement((), INF)
_ONE = LCElement(((0, Q(1)),), INF)


# ---------------------------------------------------------------------------
# Literal grammar
#
#   element  := term (("+" | "-") term)*
#   term     := rational | rational "*" eps | eps
#   eps      := "e" "^" "(" rational ")"
#   rational := ["-"] digits ["/" digits]
#
# The grammar is regular, and whitespace may stand between any two tokens;
# digits are decimal digits.
# Canonical output: ascending exponents, no zero coefficients, explicit "*",
# the exponent-zero term printed as a bare rational.
# ---------------------------------------------------------------------------

_RATIONAL = r"(-?)\s*(\d+)(?:\s*/\s*(\d+))?"
_EPS = rf"e\s*\^\s*\(\s*{_RATIONAL}\s*\)"
# Groups 1-3 hold the coefficient, 4-6 the exponent after "*", 7-9 the
# exponent of a bare eps.
_TERM = re.compile(rf"\s*(?:{_RATIONAL}\s*(?:\*\s*{_EPS})?|{_EPS})")
# Whitespace, then the next character ("" at the end of the text).
_SEPARATOR = re.compile(r"\s*(.?)")


def parse_element(text: str) -> LCElement:
    """Parse a field-element literal; exact result (infinite guarantee)."""
    seen: dict = {}
    sign, pos = 1, 0
    while True:
        term = _TERM.match(text, pos)
        if term is None:
            raise FieldParseError("expected a term", _SEPARATOR.match(text, pos).start(1))
        coefficient = sign * _rational(term, 1) if term[2] else Q(sign)
        eps = 4 if term[5] else 7 if term[8] else None
        exponent = canonical(_rational(term, eps)) if eps else 0
        if exponent in seen:
            raise FieldParseError(f"duplicate exponent {exponent}", term.end())
        seen[exponent] = coefficient
        separator = _SEPARATOR.match(text, term.end())
        char = separator[1]
        if not char:
            return LCElement(tuple(sorted((e, c) for e, c in seen.items() if c != 0)), INF)
        if char not in "+-":
            raise FieldParseError(f"unexpected character {char!r}", separator.start(1))
        sign, pos = (-1 if char == "-" else 1), separator.end()


def _rational(term: re.Match, group: int) -> Fraction:
    """The rational whose sign, numerator and denominator a term match holds
    in groups ``group`` to ``group + 2``."""
    minus, numerator, denominator = term.group(group, group + 1, group + 2)
    if denominator is not None and int(denominator) == 0:
        raise FieldParseError("zero denominator", term.end(group + 2) - 1)
    return Q(int(minus + numerator), int(denominator or 1))


def format_element(x: LCElement) -> str:
    """Canonical literal: ascending exponents, explicit '*', bare rational
    for the exponent-zero term."""
    if not x.terms:
        return "0"
    parts = []
    for i, (exponent, coefficient) in enumerate(x.terms):
        negative = coefficient < 0
        if i == 0:
            sign = "-" if negative else ""
        else:
            sign = " - " if negative else " + "
        magnitude = -coefficient if negative else coefficient
        if exponent == 0:
            parts.append(f"{sign}{magnitude}")
        else:
            parts.append(f"{sign}{magnitude}*e^({exponent})")
    return "".join(parts)


def guarantee_str(guarantee: Guarantee) -> str:
    return "inf" if guarantee == INF else str(guarantee)


def scalar_json(x) -> dict:
    """The report form of a field element: its value and its guarantee."""
    return {"value": str(x), "guarantee": guarantee_str(x.guarantee)}
