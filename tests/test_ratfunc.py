"""Rational-function field: sign rule, embedding, evaluation."""

from fractions import Fraction

import pytest

from nacap.errors import PoleError
from nacap.field import LCElement
from nacap.ratfunc import RFElement


def rf(num, den=(1,)):
    return RFElement.make(num, den)


class TestSign:
    def test_sign_rule_ratio_of_lowest_coefficients(self):
        # (r + 2r^2)/(3r - r^3): a1/b1 = 1/3 > 0.
        g = rf((0, 1, 2), (0, 3, 0, -1))
        assert g.sign() == 1

    def test_negative(self):
        assert rf((0, 0, -1), (0, 1)).sign() == -1

    def test_zero(self):
        assert rf((0,), (1, 1)).sign() == 0

    def test_total_order(self):
        third = RFElement.rational(Fraction(1, 3))
        r = RFElement.monomial(1, 1)
        assert r < third  # r behaves as an infinitesimal
        assert r > 0
        assert (r * r) < r


class TestNormalForm:
    def test_common_factor_removed(self):
        assert rf((0, 1), (0, 2)) == rf((1,), (2,))

    def test_denominator_lowest_coefficient_one(self):
        g = rf((1,), (2,))
        assert g == rf((Fraction(1, 2),))

    def test_equality_across_representations(self):
        assert rf((0, 1), (0, 0, 1)) == RFElement.monomial(1, -1)


class TestArithmetic:
    def test_field_identities(self):
        g = rf((1, 2), (1, 0, 3))
        h = rf((0, 5), (2,))
        assert (g + h) - h == g
        assert (g * h) / h == g
        assert (g * g.inv()).compare(1) == 0
        assert g ** 5 == g * g * g * g * g
        assert g ** -2 == (g * g).inv()

    def test_embed_geometric(self):
        # r/(1-r) expands to e + e^2 + ...; multiply-back oracle.
        g = rf((0, 1), (1, -1))
        series = g.embed()
        denom = LCElement.from_terms([(0, 1), (1, -1)])
        assert (series * denom).indistinguishable(LCElement.monomial(1, 1))
        assert series.terms[0] == (Fraction(1), Fraction(1))
        assert series.terms[1] == (Fraction(2), Fraction(1))

    def test_embed_polynomial_exact(self):
        g = rf((1, -1))
        assert g.embed() == LCElement.from_terms([(0, 1), (1, -1)])

    def test_embed_laurent(self):
        g = rf((1,), (0, 3))
        assert g.embed() == LCElement.monomial(Fraction(1, 3), -1)

    def test_embed_preserves_sign(self):
        for g in (rf((0, 1, 2), (0, 3, 0, -1)), rf((0, 0, -1), (0, 1)), rf((-2, 1))):
            assert g.embed().sign() == g.sign()


class TestEval:
    def test_polynomial(self):
        assert rf((1, -1)).eval_at(Fraction(1, 2)) == Fraction(1, 2)

    def test_rational_point(self):
        g = rf((0, 1), (1, -1))
        assert g.eval_at(Fraction(1, 3)) == Fraction(1, 2)

    def test_pole(self):
        with pytest.raises(PoleError):
            RFElement.monomial(1, -1).eval_at(0)

    def test_standard_part(self):
        assert rf((2, 1), (1, 1)).standard_part() == 2
        assert rf((0, 1), (1, 1)).standard_part() == 0
        assert RFElement.rational(0).standard_part() == 0
        with pytest.raises(PoleError):
            RFElement.monomial(1, -1).standard_part()
