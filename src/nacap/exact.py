"""Exact rationals: coefficients are Fractions, and an exponent is in
canonical form, an int when it is integral and a Fraction otherwise."""

from fractions import Fraction

Q = Fraction

RATIONAL_TYPES = (int, Fraction)


def canonical(value):
    """Q(value), reduced to an int when its denominator is 1."""
    value = Q(value)
    return value.numerator if value.denominator == 1 else value
