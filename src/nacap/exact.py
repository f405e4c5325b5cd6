"""Exact rational scalar used for coefficients and exponents."""

from fractions import Fraction

Q = Fraction

RATIONAL_TYPES = (int, Fraction)
