"""Differential tests: the Q(r) kernel (integer primitive-remainder gcd,
Henrici sums and products, inversion by swapping) against the reference
forms in ``ratfunc_reference.py``.  The normal form is canonical, so every
result must be the identical element with the identical string, and every
result must satisfy the normal form's invariants.
"""

import functools
import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from ratfunc_reference import (
    peval,
    pmul,
    poly,
    reference_add,
    reference_inv,
    reference_make,
    reference_mul,
    reference_pgcd,
    reference_sub,
)
from nacap import ratfunc
from nacap.ratfunc import RFElement, pgcd


def random_poly(rng, nonzero=True, degree=8):
    """Degree 0..degree, low degrees likelier, small rational coefficients,
    some of them zero.  The reference gcd's coefficients swell with the
    degree, so the low-degree bias keeps the run short."""
    while True:
        coeffs = [
            Fraction(rng.randint(-3, 3), rng.randint(1, 3)) if rng.random() < 0.7 else 0
            for _ in range(min(rng.randint(0, degree), rng.randint(0, degree)) + 1)
        ]
        if any(coeffs) or not nonzero:
            return tuple(coeffs)


def shifted(p, k):
    return (0,) * k + tuple(p)


def random_pair(rng):
    """Two elements whose numerators and denominators may share a random
    factor, a common power of r, or cancel exactly."""
    nx, dx, ny, dy = (random_poly(rng) for _ in range(4))
    if rng.random() < 0.3:
        nx = random_poly(rng, nonzero=False)
    shape = rng.randrange(6)
    if shape == 0:  # shared factor of both denominators: d != 1
        f = random_poly(rng, degree=3)
        dx, dy = pmul(dx, f), pmul(dy, f)
    elif shape == 1:  # cross factors for the product
        f, g = random_poly(rng, degree=3), random_poly(rng, degree=3)
        nx, dy = pmul(nx, f), pmul(dy, f)
        ny, dx = pmul(ny, g), pmul(dx, g)
    elif shape == 2:  # common powers of r on every side
        k = rng.randint(1, 4)
        nx, dx = shifted(nx, rng.randint(0, k)), shifted(dx, k)
        ny, dy = shifted(ny, k), shifted(dy, rng.randint(0, k))
    elif shape == 3:  # a factor each element cancels on its own
        f = random_poly(rng, degree=3)
        nx, dx = pmul(nx, f), pmul(dx, f)
    elif shape == 4:  # exact cancellation: x - x and x + (-x)
        sign = rng.choice((1, -1))
        ny, dy = tuple(sign * c for c in nx), dx
    return reference_make(nx, dx), reference_make(ny, dy), (nx, dx, ny, dy)


def integral(p):
    """The rational polynomial p times the lcm of its denominators."""
    scale = lcm(*(c.denominator for c in p))
    return tuple(int(c * scale) for c in p)


def check_gcd(a, b):
    """The integer gcd is the reference's monic gcd times its own leading
    coefficient, and is primitive with that coefficient positive."""
    a, b = poly(a), poly(b)
    got, want = pgcd(integral(a), integral(b)), reference_pgcd(a, b)
    if not want:
        assert got == ()
        return
    assert all(type(c) is int for c in got)
    assert gcd(*got) == 1 and got[-1] > 0
    assert got == tuple(c * got[-1] for c in want), (a, b)


def kernel_cases(rng):
    """Pairs (library result, reference result) for one random pair."""
    x, y, (nx, dx, ny, dy) = random_pair(rng)
    for a, b in ((nx, dx), (dx, dy), (nx, dy)):
        check_gcd(a, b)
    total, product = reference_add(x, y), reference_mul(x, y)
    cases = [
        (RFElement.make(nx, dx), x),
        (RFElement.make(ny, dy), y),
        (x + y, total),
        (y + x, total),
        (x - y, reference_sub(x, y)),
        (x * y, product),
        (y * x, product),
    ]
    if y:
        inverse = reference_inv(y)
        cases += [(y.inv(), inverse), (x / y, reference_mul(x, inverse))]
    if x:
        cases += [(x.inv(), reference_inv(x))]
    return cases


def assert_normal(x):
    """Integer sides, coprime in Q[r], joint content 1 and a positive
    lowest denominator coefficient; zero is ((), (1,))."""
    if not x.num:
        assert (x.num, x.den) == ((), (1,))
        return
    assert all(type(c) is int for c in x.num + x.den)
    assert x.num[-1] != 0 and x.den[-1] != 0
    assert reference_pgcd(x.num, x.den) == (1,)
    assert gcd(*x.num, *x.den) == 1
    assert next(c for c in x.den if c != 0) > 0


@functools.cache
def seeded_cases(seed):
    rng = random.Random(seed)
    return [case for _ in range(250) for case in kernel_cases(rng)]


@pytest.mark.parametrize("seed", range(8))
def test_kernel_matches_reference(seed):
    for got, want in seeded_cases(seed):
        assert got == want, (got, want)
        assert str(got) == str(want)


@pytest.mark.parametrize("seed", range(8))
def test_results_are_in_normal_form(seed):
    """The seeded cases of test_kernel_matches_reference, checked for the
    invariants directly: the reference goes through the same class, so a
    normal form that is canonical but wrong could pass the comparison."""
    for got, _ in seeded_cases(seed):
        assert_normal(got)


@pytest.mark.parametrize("seed", range(4))
def test_evaluation_matches_reference(seed):
    rng = random.Random(seed)
    for _ in range(200):
        x = rf(random_poly(rng, nonzero=False), random_poly(rng))
        r0 = Fraction(rng.randint(-20, 20), rng.randint(1, 20))
        for a in (x.num, x.den):
            assert ratfunc.peval(a, r0) == peval(a, r0)


def rf(num, den=(1,)):
    return RFElement.make(num, den)


def test_arithmetic_between_elements_makes_no_fraction(monkeypatch):
    """Sums, products, quotients, inverses, signs and comparisons of
    elements stay in Z[r]: not one Fraction is constructed."""
    x = rf((Fraction(1, 2), 3, Fraction(-2, 7)), (5, 0, Fraction(4, 3)))
    y = rf((0, -6, 1), (Fraction(3, 2), 1))
    made = []
    original = Fraction.__new__

    def counting(cls, *args, **kwargs):
        made.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    results = [x + y, x - y, x * y, x / y, y.inv(), -x, (x * y).sign(), x.compare(y), x ** 3]
    monkeypatch.undo()
    assert made == []
    assert results[4] == reference_inv(y) and results[2] == reference_mul(x, y)


class TestHenriciBranches:
    def test_sum_with_coprime_denominators(self):
        # d = 1: 1/(1+r) + 1/(1-r) = 2/(1-r^2).
        x, y = rf((1,), (1, 1)), rf((1,), (1, -1))
        assert pgcd(x.den, y.den) == (1,)
        assert x + y == rf((2,), (1, 0, -1)) == reference_add(x, y)

    def test_sum_cancelling_a_factor_of_the_common_denominator(self):
        # d = 1 - r^2 and e = 1 - r: r/(1-r^2) + 1/(1-r^2) = 1/(1-r).
        x, y = rf((0, 1), (1, 0, -1)), rf((1,), (1, 0, -1))
        assert len(pgcd(x.den, y.den)) == 3
        assert x + y == rf((1,), (1, -1)) == reference_add(x, y)

    def test_sum_keeping_the_common_denominator(self):
        # d != 1 but e = 1: 1/(1+r) + r/(1+r)^2 = (1+2r)/(1+r)^2.
        x, y = rf((1,), (1, 1)), rf((0, 1), (1, 2, 1))
        assert x + y == rf((1, 2), (1, 2, 1)) == reference_add(x, y)

    def test_product_cancels_across(self):
        # ((1+r)/(2-r)) * ((2-r)/(3(1+r))) = 1/3.
        x, y = rf((1, 1), (2, -1)), rf((2, -1), (3, 3))
        assert x * y == RFElement.rational(Fraction(1, 3)) == reference_mul(x, y)

    def test_product_cancels_powers_of_r(self):
        x, y = rf((0, 0, 2), (1, 1)), rf((3, 1), (0, 0, 0, 4))
        assert x * y == rf((3, 1), (0, 2, 2)) == reference_mul(x, y)

    def test_sum_cancelling_to_zero(self):
        x = rf((1, 2), (3, 0, 1))
        assert x - x == RFElement.rational(0) == reference_sub(x, x)
        assert x + (-x) == RFElement.rational(0)
        assert str(x - x) == "0"

    def test_inverse_rescales_the_new_denominator(self):
        x = rf((0, -2, 4), (1, 1))
        assert x.inv() == rf((1, 1), (0, -2, 4)) == reference_inv(x)
        assert x.inv() == rf((Fraction(-1, 2), Fraction(-1, 2)), (0, 1, -2))
        assert (x.inv().num, x.inv().den) == ((-1, -1), (0, 2, -4))
        assert x.inv().den[1] > 0

    def test_zero_has_no_inverse(self):
        with pytest.raises(ZeroDivisionError):
            RFElement.rational(0).inv()


class TestGcd:
    def test_monic_with_the_common_power_of_r(self):
        # gcd(2r^2(1+r), 4r^3(1+r)(2-r)) = r^2 (1+r), primitive and monic.
        a = pmul((0, 0, 2), (1, 1))
        b = pmul(pmul((0, 0, 0, 4), (1, 1)), (2, -1))
        assert pgcd(integral(a), integral(b)) == (0, 0, 1, 1) == reference_pgcd(a, b)

    def test_leading_coefficient_kept(self):
        # gcd(6(3+2r)(1+r), 4(3+2r)(1-r)) = 3 + 2r, the monic 3/2 + r scaled.
        a = pmul((18, 12), (1, 1))
        b = pmul((12, 8), (1, -1))
        assert pgcd(integral(a), integral(b)) == (3, 2)
        assert reference_pgcd(a, b) == (Fraction(3, 2), 1)

    def test_zero_arguments(self):
        assert pgcd((), ()) == ()
        assert pgcd((), (2, 4)) == (1, 2)
        assert pgcd((), (2, -4)) == (-1, 2)
        assert pgcd((3,), ()) == (1,)

    def test_coprime(self):
        assert pgcd((1, 1), (1, -1)) == (1,)


class TestPrintedForm:
    """str() divides by the denominator's lowest coefficient.  The strings
    are those the Fraction-coefficient normal form printed, whose
    denominator's lowest coefficient was 1."""

    @pytest.mark.parametrize(
        "element, text",
        [
            (rf((Fraction(1, 2), Fraction(-2, 3)), (3, 1)), "(1/6 - 2/9*r)/(1 + 1/3*r)"),
            (rf((1, 1), (-2, 0, 1)), "(-1/2 - 1/2*r)/(1 - 1/2*r^2)"),
            (rf((0, 1), (2,)), "1/2*r"),
            (rf((1,), (0, 0, 3)), "(1/3)/(1*r^2)"),
            (RFElement.rational(0), "0"),
            (RFElement.rational(Fraction(-5, 7)), "-5/7"),
            (rf((1, 2), (1, 0, 3)) + rf((0, 5), (2,)), "(1 + 9/2*r + 15/2*r^3)/(1 + 3*r^2)"),
            (rf((0, -3, 0, 4), (Fraction(5, 2), -1)), "(-6/5*r + 8/5*r^3)/(1 - 2/5*r)"),
            (RFElement.monomial(Fraction(2, 3), -1), "(2/3)/(1*r)"),
            (rf((6, 4), (0, -4, 8)).inv(), "(-2/3*r + 4/3*r^2)/(1 + 2/3*r)"),
        ],
    )
    def test_printed_form(self, element, text):
        assert str(element) == text
