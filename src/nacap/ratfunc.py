"""The ordered field of rational functions Q(r).

Elements are quotients of polynomials with rational coefficients, written
with powers of r increasing.  The order is determined by behaviour near
r = 0+: writing g = (a1 r^{n1} + ...)/(b1 r^{m1} + ...) with increasing
powers and a1, b1 nonzero, g > 0 iff a1/b1 > 0.  This matches the embedding
into the Levi-Civita field with e := r.

Normal form: numerator and denominator share no polynomial factor and the
denominator's lowest-order nonzero coefficient is 1 (hence positive), which
makes structural equality canonical.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

from .errors import PoleError
from .exact import Q, RATIONAL_TYPES

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


def pgcd(a: Poly, b: Poly) -> Poly:
    while b:
        _, a, b = None, b, pdivmod(a, b)[1]
    if a:
        lead = a[-1]
        a = tuple(c / lead for c in a)  # monic
    return a


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


@dataclass(frozen=True)
class RFElement:
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
            return RFElement((), (Q(1),))
        g = pgcd(num, den)
        if len(g) > 1:
            num = pdivmod(num, g)[0]
            den = pdivmod(den, g)[0]
        _, low = _lowest(den)
        num = tuple(c / low for c in num)
        den = tuple(c / low for c in den)
        return RFElement(num, den)

    @staticmethod
    def constant(value) -> "RFElement":
        return RFElement.make((Q(value),))

    @staticmethod
    def monomial(coefficient, exponent: int) -> "RFElement":
        coefficient = Q(coefficient)
        exponent = int(exponent)
        if exponent >= 0:
            return RFElement.make((0,) * exponent + (coefficient,))
        return RFElement.make((coefficient,), (0,) * (-exponent) + (1,))

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
    def valuation(self) -> int:
        """Order of vanishing at r = 0 (negative for a pole)."""
        if not self.num:
            raise ValueError("zero has no finite valuation")
        return _lowest(self.num)[0] - _lowest(self.den)[0]

    def __bool__(self) -> bool:
        return bool(self.num)

    # -- arithmetic ------------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, RFElement):
            return other
        if isinstance(other, RATIONAL_TYPES):
            return RFElement.constant(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RFElement.make(
            padd(pmul(self.num, other.den), pmul(other.num, self.den)),
            pmul(self.den, other.den),
        )

    __radd__ = __add__

    def __neg__(self):
        return RFElement(pneg(self.num), self.den)

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

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RFElement.make(pmul(self.num, other.num), pmul(self.den, other.den))

    __rmul__ = __mul__

    def inv(self) -> "RFElement":
        if not self.num:
            raise ZeroDivisionError("inverse of zero rational function")
        return RFElement.make(self.den, self.num)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inv()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inv()

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inv() ** (-n)
        result = RFElement.constant(1)
        for _ in range(n):
            result = result * self
        return result

    # -- order ----------------------------------------------------------------

    def compare(self, other) -> int:
        other = self._coerce(other)
        if other is NotImplemented:
            raise TypeError(f"cannot compare RFElement with {type(other)!r}")
        return (self - other).sign()

    def __lt__(self, other):
        return self.compare(other) < 0

    def __le__(self, other):
        return self.compare(other) <= 0

    def __gt__(self, other):
        return self.compare(other) > 0

    def __ge__(self, other):
        return self.compare(other) >= 0

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
