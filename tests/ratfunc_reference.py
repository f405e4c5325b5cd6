"""Reference forms of the Q(r) kernel.

These are the straightforward forms the library's arithmetic must agree
with, on polynomials with rational coefficients and with nothing taken from
the library but the element class: the gcd is Euclid's algorithm over Q[r]
made monic, evaluation is Horner's rule over Q, and every sum, product and inverse forms the full cross
quotient and normalises it from scratch with that gcd.  The normalised
quotient, with its denominator's lowest coefficient 1, is then rescaled to the
library's integer normal form.  The differential tests in
``test_ratfunc_kernel.py`` compare the library against them.
"""

from math import gcd, lcm

from nacap.exact import Q
from nacap.ratfunc import RFElement


def poly(coeffs):
    coeffs = [Q(c) for c in coeffs]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def padd(a, b):
    n = max(len(a), len(b))
    return poly((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n))


def peval(a, r0):
    """a(r0) by Horner's rule in rational arithmetic."""
    acc = Q(0)
    for c in reversed(a):
        acc = acc * r0 + c
    return acc


def pmul(a, b):
    if not a or not b:
        return ()
    out = [Q(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return poly(out)


def pdivmod(a, b):
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
    return poly(quotient), poly(rest)


def lowest(a):
    return next(c for c in a if c != 0)


def reference_pgcd(a, b):
    a, b = poly(a), poly(b)
    while b:
        a, b = b, pdivmod(a, b)[1]
    if a:
        lead = a[-1]
        a = tuple(c / lead for c in a)  # monic
    return a


def integer_form(num, den):
    """The element num/den, for coprime num and den with den's lowest
    coefficient 1, in the integer normal form: both sides times the lcm of
    their denominators, divided by the gcd of their numerators."""
    scale = lcm(*(c.denominator for c in num + den))
    num = [c.numerator * (scale // c.denominator) for c in num]
    den = [c.numerator * (scale // c.denominator) for c in den]
    content = gcd(*num, *den)
    return RFElement(tuple(c // content for c in num), tuple(c // content for c in den))


def reference_make(num, den=(1,)):
    num = poly(num)
    den = poly(den)
    if not den:
        raise ZeroDivisionError("rational function with zero denominator")
    if not num:
        return RFElement((), (1,))
    g = reference_pgcd(num, den)
    if len(g) > 1:
        num = pdivmod(num, g)[0]
        den = pdivmod(den, g)[0]
    low = lowest(den)
    return integer_form(tuple(c / low for c in num), tuple(c / low for c in den))


def reference_add(x, y):
    return reference_make(padd(pmul(x.num, y.den), pmul(y.num, x.den)), pmul(x.den, y.den))


def reference_sub(x, y):
    return reference_add(x, -y)


def reference_mul(x, y):
    return reference_make(pmul(x.num, y.num), pmul(x.den, y.den))


def reference_inv(x):
    if not x.num:
        raise ZeroDivisionError("inverse of zero rational function")
    return reference_make(x.den, x.num)
