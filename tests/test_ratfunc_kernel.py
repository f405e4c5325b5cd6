"""Differential tests: the Q(r) kernel (primitive-remainder gcd, Henrici
sums and products, inversion by swapping) against the reference forms in
``ratfunc_reference.py``.  The normal form is canonical, so every result
must be the identical element with the identical string.
"""

import random
from fractions import Fraction

import pytest

from ratfunc_reference import (
    reference_add,
    reference_inv,
    reference_make,
    reference_mul,
    reference_pgcd,
    reference_sub,
)
from nacap.ratfunc import RFElement, pgcd, pmul, poly


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


def check_case(rng):
    x, y, (nx, dx, ny, dy) = random_pair(rng)
    assert RFElement.make(nx, dx) == x
    assert RFElement.make(ny, dy) == y
    for a, b in ((nx, dx), (dx, dy), (nx, dy)):
        a, b = poly(a), poly(b)
        assert pgcd(a, b) == reference_pgcd(a, b), (a, b)
    total, product = reference_add(x, y), reference_mul(x, y)
    cases = [
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
    for got, want in cases:
        assert got == want, (x, y, got, want)
        assert str(got) == str(want)


@pytest.mark.parametrize("seed", range(8))
def test_kernel_matches_reference(seed):
    rng = random.Random(seed)
    for _ in range(250):
        check_case(rng)


def rf(num, den=(1,)):
    return RFElement.make(num, den)


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
        assert x * y == RFElement.constant(Fraction(1, 3)) == reference_mul(x, y)

    def test_product_cancels_powers_of_r(self):
        x, y = rf((0, 0, 2), (1, 1)), rf((3, 1), (0, 0, 0, 4))
        assert x * y == rf((3, 1), (0, 2, 2)) == reference_mul(x, y)

    def test_sum_cancelling_to_zero(self):
        x = rf((1, 2), (3, 0, 1))
        assert x - x == RFElement.constant(0) == reference_sub(x, x)
        assert x + (-x) == RFElement.constant(0)
        assert str(x - x) == "0"

    def test_inverse_rescales_the_new_denominator(self):
        x = rf((0, -2, 4), (1, 1))
        assert x.inv() == rf((1, 1), (0, -2, 4)) == reference_inv(x)
        assert x.inv().den[1] == 1

    def test_zero_has_no_inverse(self):
        with pytest.raises(ZeroDivisionError):
            RFElement.constant(0).inv()


class TestGcd:
    def test_monic_with_the_common_power_of_r(self):
        # gcd(2r^2(1+r), 4r^3(1+r)(2-r)) = r^2 (1+r).
        a = pmul((0, 0, 2), (1, 1))
        b = pmul(pmul((0, 0, 0, 4), (1, 1)), (2, -1))
        assert pgcd(a, b) == (0, 0, 1, 1) == reference_pgcd(a, b)

    def test_zero_arguments(self):
        assert pgcd((), ()) == ()
        assert pgcd((), (Fraction(2), Fraction(4))) == (Fraction(1, 2), 1)
        assert pgcd((Fraction(3),), ()) == (1,)

    def test_coprime(self):
        assert pgcd((1, 1), (1, -1)) == (1,)
