"""Queries over field elements that take more than one protocol call.

LCElement and RFElement answer the same protocol (see ``graphs.FIELDS``);
these helpers combine its members where a caller asks a question that is
not one of them.
"""

from __future__ import annotations

from .field import INF


def certainly_positive(x) -> bool:
    """True when x is certified strictly positive; False for zero, negative
    and zero-like values alike."""
    return bool(x) and x.sign() > 0


def is_zero_like(x) -> bool:
    """True when x vanishes within a finite guarantee (undecidable sign)."""
    return not x and x.guarantee != INF


def valuation_of(x):
    """Leading exponent under the embedding e := r := the infinitesimal;
    +inf for zero."""
    return x.valuation
