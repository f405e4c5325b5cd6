"""Uniform helpers over the three exact scalar types.

The solver and graph code are generic over Fraction (plain rationals),
LCElement (Levi-Civita series) and RFElement (rational functions).  All
three support +, -, *, / and the order dunders; these helpers cover the
few queries whose spelling differs per type.
"""

from __future__ import annotations

from .exact import Q
from .field import INF, LCElement
from .ratfunc import RFElement


def invert(x):
    if isinstance(x, (LCElement, RFElement)):
        return x.inv()
    return 1 / x


def certainly_nonzero(x) -> bool:
    """True when x is certified nonzero.  A zero-like series (vanishing
    within a finite guarantee) is NOT certainly nonzero."""
    if isinstance(x, LCElement):
        return bool(x.terms)
    return x != 0


def is_zero_like(x) -> bool:
    """True when x vanishes within a finite guarantee (undecidable sign)."""
    return isinstance(x, LCElement) and x.is_zero_like and not x.is_exact_zero


def certainly_positive(x) -> bool:
    """True when x is certified strictly positive; False for zero, negative
    and zero-like values alike."""
    if isinstance(x, LCElement):
        return bool(x.terms) and x.terms[0][1] > 0
    if isinstance(x, RFElement):
        return x.sign() > 0
    return x > 0


def sign_of(x) -> int:
    if isinstance(x, (LCElement, RFElement)):
        return x.sign()
    return (x > 0) - (x < 0)


def compare(x, y) -> int:
    if isinstance(x, (LCElement, RFElement)):
        return x.compare(y)
    return (x > y) - (x < y)


def indistinguishable(x, y) -> bool:
    """Equality up to the certified precision (exact equality for rationals
    and rational functions)."""
    if isinstance(x, (LCElement, RFElement)):
        return x.indistinguishable(y)
    return x == y


def valuation_of(x):
    """Leading exponent under the embedding e := r := the infinitesimal;
    rationals have valuation 0 (or +inf for zero)."""
    if isinstance(x, LCElement):
        return x.valuation
    if isinstance(x, RFElement):
        return Q(x.valuation) if x else INF
    return Q(0) if x != 0 else INF


def guarantee_of(x):
    return x.guarantee if isinstance(x, LCElement) else INF
