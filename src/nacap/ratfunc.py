"""The ordered field of rational functions Q(r).

Elements are quotients of polynomials with rational coefficients, written
with powers of r increasing.  The order is determined by behaviour near
r = 0+: writing g = (a1 r^{n1} + ...)/(b1 r^{m1} + ...) with increasing
powers and a1, b1 nonzero, g > 0 iff a1/b1 > 0.  This matches the embedding
into the Levi-Civita field with e := r.

Normal form: numerator and denominator share no polynomial factor and the
denominator's lowest-order nonzero coefficient is 1 (hence positive), which
makes structural equality canonical.

The normal form is kept without ever taking the gcd of a full cross product.
``pgcd`` removes the common power of r, clears denominators and contents,
and runs the primitive pseudo-remainder sequence on integer coefficients
(W. S. Brown, JACM 1971), so no rational coefficient swells.  Sums and
products of elements already in normal form take gcds of their smaller
factors only (P. Henrici, JACM 1956): a product cancels num(a) against
den(b) and num(b) against den(a); a sum cancels only against the gcd of the
two denominators.  Inversion swaps the two sides.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Tuple

from .errors import PoleError, SpecFileError
from .exact import Q, RATIONAL_TYPES
from .field import INF, OrderedFieldElement, parse_element

Poly = Tuple[Fraction, ...]  # coefficient at index k multiplies r**k


def _strip(coeffs) -> Poly:
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def poly(coeffs) -> Poly:
    return _strip(Q(c) for c in coeffs)


def padd(a: Poly, b: Poly) -> Poly:
    n = max(len(a), len(b))
    zero = Q(0)
    return _strip(
        (a[i] if i < len(a) else zero) + (b[i] if i < len(b) else zero)
        for i in range(n)
    )


def pneg(a: Poly) -> Poly:
    return tuple(-c for c in a)


def pmul(a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return ()
    out = [Q(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return _strip(out)


def pdivmod(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    quotient = [Q(0)] * max(0, len(a) - len(b) + 1)
    rest = list(a)
    while len(rest) >= len(b) and any(rest):
        if rest[-1] == 0:
            rest.pop()
            continue
        shift = len(rest) - len(b)
        factor = rest[-1] / b[-1]
        quotient[shift] = factor
        for i, cb in enumerate(b):
            rest[shift + i] -= factor * cb
        rest.pop()
    return _strip(quotient), _strip(rest)


def _integral(a: Poly) -> list:
    """The primitive integer polynomial with positive leading coefficient
    that is a rational multiple of the nonzero polynomial a."""
    common = lcm(*(c.denominator for c in a))
    return _primitive([c.numerator * (common // c.denominator) for c in a])


def _primitive(coeffs: list) -> list:
    """Integer coefficients divided by their content, signed so that the
    leading one is positive."""
    content = gcd(*coeffs)
    if coeffs[-1] < 0:
        content = -content
    return [c // content for c in coeffs]


def _pseudo_remainder(a: list, b: list) -> list:
    """Remainder of c*a by b over the integers, with c a product of factors
    of b's leading coefficient just large enough to keep every step
    integral; len(a) >= len(b) >= 2."""
    rest = list(a)
    lead = b[-1]
    n = len(b)
    while len(rest) >= n:
        top = rest.pop()
        if top:
            g = gcd(top, lead)
            scale, factor = lead // g, top // g
            if scale != 1:
                rest = [scale * c for c in rest]
            shift = len(rest) - n + 1
            for i in range(n - 1):
                rest[shift + i] -= factor * b[i]
    while rest and rest[-1] == 0:
        rest.pop()
    return rest


def pgcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd over Q[r]; () only when both are zero."""
    if not a or not b:
        g = a or b
        return tuple(c / g[-1] for c in g)
    i, j = _lowest(a)[0], _lowest(b)[0]
    shift = (Q(0),) * min(i, j)
    x, y = sorted((_integral(a[i:]), _integral(b[j:])), key=len, reverse=True)
    while len(y) > 1:
        x, y = y, _pseudo_remainder(x, y)
        if not y:
            return shift + tuple(Q(c, x[-1]) for c in x)
        y = _primitive(y)
    return shift + (Q(1),)


def peval(a: Poly, r0) -> Fraction:
    acc = Q(0)
    for c in reversed(a):
        acc = acc * r0 + c
    return acc


def _lowest(a: Poly) -> tuple[int, Fraction]:
    for k, c in enumerate(a):
        if c != 0:
            return k, c
    raise ValueError("zero polynomial has no lowest term")


def _exquo(a: Poly, g: Poly) -> Poly:
    """a / g for a monic divisor g of a."""
    return a if len(g) == 1 else pdivmod(a, g)[0]


def _scaled(num: Poly, den: Poly) -> "RFElement":
    """The element num/den for coprime num and den, with den's lowest
    nonzero coefficient scaled to 1."""
    _, low = _lowest(den)
    if low != 1:
        num = tuple(c / low for c in num)
        den = tuple(c / low for c in den)
    return RFElement(num, den)


@dataclass(frozen=True)
class RFElement(OrderedFieldElement):
    """An element of Q(r) in normal form.  Structural equality is value
    equality; order comparisons follow the sign rule at r = 0+."""

    num: Poly
    den: Poly

    @staticmethod
    def make(num, den=(1,)) -> "RFElement":
        num = poly(num)
        den = poly(den)
        if not den:
            raise ZeroDivisionError("rational function with zero denominator")
        if not num:
            return _ZERO
        g = pgcd(num, den)
        return _scaled(_exquo(num, g), _exquo(den, g))

    @staticmethod
    def zero() -> "RFElement":
        return _ZERO

    @staticmethod
    def one() -> "RFElement":
        return _ONE

    @staticmethod
    def rational(value) -> "RFElement":
        return RFElement.make((Q(value),))

    @staticmethod
    def monomial(coefficient, exponent) -> "RFElement":
        exponent = Q(exponent)
        if exponent.denominator != 1:
            raise SpecFileError(
                f"rational-function weights need integer exponents, got {exponent}"
            )
        k = int(exponent)
        coefficient = Q(coefficient)
        if k >= 0:
            return RFElement.make((0,) * k + (coefficient,))
        return RFElement.make((coefficient,), (0,) * -k + (1,))

    @staticmethod
    def from_literal(text: str) -> "RFElement":
        """A field-element literal read with r in place of e; every
        exponent must be an integer."""
        element = _ZERO
        for exponent, coefficient in parse_element(text).terms:
            if exponent.denominator != 1:
                raise SpecFileError(
                    f"rational-function literal has non-integer exponent {exponent}"
                )
            element = element + RFElement.monomial(coefficient, exponent)
        return element

    # -- queries -------------------------------------------------------------

    def sign(self) -> int:
        """Sign near r = 0+: the sign of the ratio of the lowest-order
        nonzero coefficients of numerator and denominator."""
        if not self.num:
            return 0
        _, a1 = _lowest(self.num)
        _, b1 = _lowest(self.den)
        ratio = a1 / b1
        return 1 if ratio > 0 else -1

    @property
    def valuation(self):
        """Order of vanishing at r = 0 (negative for a pole); +inf for
        zero."""
        if not self.num:
            return INF
        return Q(_lowest(self.num)[0] - _lowest(self.den)[0])

    @property
    def guarantee(self):
        """Q(r) arithmetic is exact, so every element is exact everywhere."""
        return INF

    def __bool__(self) -> bool:
        return bool(self.num)

    # -- arithmetic ------------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, RFElement):
            return other
        if isinstance(other, RATIONAL_TYPES):
            return RFElement.rational(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.num:
            return other
        if not other.num:
            return self
        d = pgcd(self.den, other.den)
        own = _exquo(self.den, d)
        total = padd(pmul(self.num, _exquo(other.den, d)), pmul(other.num, own))
        # The sum shares no factor with own or with other.den / d, so only
        # a factor of d can cancel.  A zero sum needs equal denominators, so
        # both cofactors are constants and the result is the canonical zero.
        e = pgcd(total, d) if len(d) > 1 else d
        return _scaled(_exquo(total, e), pmul(own, _exquo(other.den, e)))

    __radd__ = __add__

    def __neg__(self):
        return RFElement(pneg(self.num), self.den)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.num or not other.num:
            return _ZERO
        # Both sides are in normal form: only num(a) against den(b) and
        # num(b) against den(a) can cancel.
        g1 = pgcd(self.num, other.den)
        g2 = pgcd(other.num, self.den)
        return _scaled(
            pmul(_exquo(self.num, g1), _exquo(other.num, g2)),
            pmul(_exquo(self.den, g2), _exquo(other.den, g1)),
        )

    __rmul__ = __mul__

    def inv(self) -> "RFElement":
        if not self.num:
            raise ZeroDivisionError("inverse of zero rational function")
        return _scaled(self.den, self.num)

    # -- order ----------------------------------------------------------------

    def compare(self, other) -> int:
        other = self._coerce(other)
        if other is NotImplemented:
            raise TypeError(f"cannot compare RFElement with {type(other)!r}")
        return (self - other).sign()

    def indistinguishable(self, other) -> bool:
        return self.compare(other) == 0

    # -- conversions -------------------------------------------------------------

    def eval_at(self, r0) -> Fraction:
        """Exact evaluation at a rational point; raises PoleError on a pole."""
        r0 = Q(r0)
        den = peval(self.den, r0)
        if den == 0:
            raise PoleError(f"pole at r = {r0}")
        return peval(self.num, r0) / den

    def standard_part(self) -> Fraction:
        """Value at r = 0, which is 0 when the element vanishes there;
        raises PoleError on a pole."""
        return self.eval_at(0)

    def embed(self):
        """Window-truncated power-series expansion at r = 0 with e := r.

        Order preserving: the sign of the embedded element agrees with
        sign() whenever the comparison is decidable.
        """
        from .field import LCElement

        num = LCElement.from_terms(enumerate(self.num))
        den = LCElement.from_terms(enumerate(self.den))
        return num * den.inv()

    def __str__(self) -> str:
        def side(p: Poly) -> str:
            if not p:
                return "0"
            parts = []
            for k, c in enumerate(p):
                if c == 0:
                    continue
                if k == 0:
                    parts.append(str(c))
                elif k == 1:
                    parts.append(f"{c}*r")
                else:
                    parts.append(f"{c}*r^{k}")
            return " + ".join(parts).replace("+ -", "- ")

        if self.den == (Fraction(1),):
            return side(self.num)
        return f"({side(self.num)})/({side(self.den)})"

    def __repr__(self) -> str:
        return f"RFElement({self})"


_ZERO = RFElement((), (Q(1),))
_ONE = RFElement((Q(1),), (Q(1),))
