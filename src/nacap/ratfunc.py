"""The ordered field of rational functions Q(r).

Elements are quotients of polynomials, written with powers of r
increasing.  The order is determined by behaviour near r = 0+: writing
g = (a1 r^{n1} + ...)/(b1 r^{m1} + ...) with increasing powers and a1, b1
nonzero, g > 0 iff a1/b1 > 0.  This matches the embedding into the
Levi-Civita field with e := r.

Normal form: numerator and denominator are integer polynomials that share
no factor in Q[r], the gcd of all their coefficients together is 1, and
the denominator's lowest-order nonzero coefficient is positive; zero is
((), (1,)).  The form is canonical, so structural equality is value
equality, and the sign is the sign of the numerator's lowest coefficient.
An element prints divided through by the denominator's lowest
coefficient, as the quotient whose denominator starts with 1.

The arithmetic stays in Z[r]; rationals appear only where an element is
made (``make`` clears denominators), evaluated, embedded or printed.
``pgcd`` removes the common power of r and runs the primitive
pseudo-remainder sequence (W. S. Brown, JACM 1971), so no coefficient
swells, and a primitive factor divides an integer polynomial exactly over
the integers (Gauss's lemma).  Sums and products of elements in normal
form take gcds of their smaller factors only (P. Henrici, JACM 1956): a
product cancels num(a) against den(b) and num(b) against den(a); a sum
cancels only against the gcd of the two denominators.  Each result is then
divided once by its joint content.  Inversion swaps the two sides and
fixes the sign.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Tuple

from .errors import PoleError, SpecFileError
from .exact import Q
from .field import INF, OrderedFieldElement, parse_element

Poly = Tuple[int, ...]  # coefficient at index k multiplies r**k


def _strip(coeffs) -> Poly:
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def padd(a: Poly, b: Poly) -> Poly:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return _strip(out)


def pmul(a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return tuple(out)  # the leading coefficient is the product of two nonzero ones


def _exquo(a: Poly, g: Poly) -> Poly:
    """a / g for a primitive divisor g of a, whose quotient is integral
    by Gauss's lemma; g = (1,) is the only constant divisor."""
    n = len(g)
    if n == 1:
        return a
    rest = list(a)
    lead = g[-1]
    quotient = [0] * (len(a) - n + 1)
    for shift in reversed(range(len(quotient))):
        factor = rest[shift + n - 1] // lead
        if factor:
            quotient[shift] = factor
            for i in range(n - 1):
                rest[shift + i] -= factor * g[i]
    return tuple(quotient)


def _primitive(coeffs) -> list:
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
    """The gcd in Z[r], primitive with a positive leading coefficient; ()
    only when both are zero."""
    if not a or not b:
        g = a or b
        return tuple(_primitive(g)) if g else ()
    i, j = _lowest(a)[0], _lowest(b)[0]
    shift = (0,) * min(i, j)
    x, y = sorted((_primitive(a[i:]), _primitive(b[j:])), key=len, reverse=True)
    while len(y) > 1:
        x, y = y, _pseudo_remainder(x, y)
        if not y:
            return shift + tuple(x)
        y = _primitive(y)
    return shift + (1,)


def peval(a: Poly, r0) -> Fraction:
    """a(r0) for r0 = p/q: Horner's rule over the integers on q^deg * a(p/q)."""
    acc, scale = 0, 1
    for c in reversed(a):
        acc, scale = acc * r0.numerator + c * scale, scale * r0.denominator
    return Q(acc * r0.denominator, scale)


def _lowest(a: Poly) -> tuple[int, int]:
    for k, c in enumerate(a):
        if c != 0:
            return k, c
    raise ValueError("zero polynomial has no lowest term")


def _normal(num: Poly, den: Poly) -> "RFElement":
    """The element num/den for integer num and den coprime in Q[r]: both
    divided by their joint content, signed so that den's lowest nonzero
    coefficient is positive."""
    if not num:
        return _ZERO
    content = gcd(*num, *den)
    if _lowest(den)[1] < 0:
        content = -content
    if content != 1:
        num = tuple(c // content for c in num)
        den = tuple(c // content for c in den)
    return RFElement(num, den)


@dataclass(frozen=True)
class RFElement(OrderedFieldElement):
    """An element of Q(r) in normal form.  Structural equality is value
    equality; order comparisons follow the sign rule at r = 0+."""

    num: Poly
    den: Poly

    @staticmethod
    def make(num, den=(1,)) -> "RFElement":
        """num/den from sequences of rational coefficients."""
        num = [Q(c) for c in num]
        den = [Q(c) for c in den]
        scale = lcm(*(c.denominator for c in num + den))
        num = _strip(c.numerator * (scale // c.denominator) for c in num)
        den = _strip(c.numerator * (scale // c.denominator) for c in den)
        if not den:
            raise ZeroDivisionError("rational function with zero denominator")
        if not num:
            return _ZERO
        g = pgcd(num, den)
        return _normal(_exquo(num, g), _exquo(den, g))

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
        """Sign near r = 0+: the sign of the numerator's lowest-order
        nonzero coefficient, the denominator's being positive."""
        if not self.num:
            return 0
        return 1 if _lowest(self.num)[1] > 0 else -1

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
        # a factor of d can cancel.  A zero sum is the canonical zero.
        e = pgcd(total, d) if len(d) > 1 else d
        return _normal(_exquo(total, e), pmul(own, _exquo(other.den, e)))

    __radd__ = __add__

    def __neg__(self):
        return RFElement(tuple(-c for c in self.num), self.den)

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
        return _normal(
            pmul(_exquo(self.num, g1), _exquo(other.num, g2)),
            pmul(_exquo(self.den, g2), _exquo(other.den, g1)),
        )

    __rmul__ = __mul__

    def inv(self) -> "RFElement":
        if not self.num:
            raise ZeroDivisionError("inverse of zero rational function")
        if _lowest(self.num)[1] < 0:
            return RFElement(tuple(-c for c in self.den), tuple(-c for c in self.num))
        return RFElement(self.den, self.num)

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
        """The quotient with the denominator's lowest coefficient 1."""
        _, low = _lowest(self.den)

        def side(p: Poly) -> str:
            if not p:
                return "0"
            parts = []
            for k, c in enumerate(p):
                if c == 0:
                    continue
                c = Q(c, low)
                if k == 0:
                    parts.append(str(c))
                elif k == 1:
                    parts.append(f"{c}*r")
                else:
                    parts.append(f"{c}*r^{k}")
            return " + ".join(parts).replace("+ -", "- ")

        if len(self.den) == 1:
            return side(self.num)
        return f"({side(self.num)})/({side(self.den)})"

    def __repr__(self) -> str:
        return f"RFElement({self})"


_ZERO = RFElement((), (1,))
_ONE = RFElement((1,), (1,))
