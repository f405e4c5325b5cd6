"""Reference forms of the Q(r) kernel.

These are the straightforward forms the library's arithmetic must agree
with: the gcd is Euclid's algorithm over Q[r] made monic, and every sum,
product and inverse forms the full cross quotient and normalises it from
scratch with that gcd.  The differential tests in ``test_ratfunc_kernel.py``
compare the library against them.
"""

from nacap.exact import Q
from nacap.ratfunc import RFElement, _lowest, padd, pdivmod, pmul, poly


def reference_pgcd(a, b):
    while b:
        a, b = b, pdivmod(a, b)[1]
    if a:
        lead = a[-1]
        a = tuple(c / lead for c in a)  # monic
    return a


def reference_make(num, den=(1,)):
    num = poly(num)
    den = poly(den)
    if not den:
        raise ZeroDivisionError("rational function with zero denominator")
    if not num:
        return RFElement((), (Q(1),))
    g = reference_pgcd(num, den)
    if len(g) > 1:
        num = pdivmod(num, g)[0]
        den = pdivmod(den, g)[0]
    _, low = _lowest(den)
    return RFElement(tuple(c / low for c in num), tuple(c / low for c in den))


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
