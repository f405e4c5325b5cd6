"""The scalar protocol: LCElement and RFElement are the fields themselves
and answer the same constructors and queries, so graph code never asks a
scalar for its type."""

import operator
from fractions import Fraction

import pytest

from nacap import scalars
from nacap.capacity import real_sweep
from nacap.errors import IndeterminateComparisonError, PoleError, SpecFileError
from nacap.exact import Q
from nacap.field import INF, LCElement
from nacap.graphs import FIELDS, FactorialMonomialRule, make_path
from nacap.ratfunc import RFElement

ELEMENT_CLASSES = (LCElement, RFElement)
RATIONAL = type(Q(0))


@pytest.fixture(params=ELEMENT_CLASSES, ids=lambda cls: cls.__name__)
def field(request):
    return request.param


def test_spec_field_names_map_to_the_element_classes():
    assert FIELDS == {"levi-civita": LCElement, "rational-function": RFElement}


class TestConstructors:
    def test_zero_and_one(self, field):
        assert field.zero() == field.rational(0)
        assert field.one() == field.rational(1)
        assert field.one() + field.one() == field.rational(2)

    def test_monomial_and_literal_agree(self, field):
        x = field.from_literal("3/2 - 1*e^(2) + 5*e^(-1)")
        expected = field.monomial(Fraction(3, 2), 0) - field.monomial(1, 2) + field.monomial(5, -1)
        assert x == expected
        assert field.monomial(0, 3) == field.zero()

    def test_rational_coerces_plain_numbers(self, field):
        assert field.rational(Fraction(-2, 3)) == field.one() * Fraction(-2, 3)
        assert field.rational(4) + 1 == field.rational(5)


class TestExactNonzero:
    def test_inv(self, field):
        x = field.from_literal("2 + 1*e^(1)")
        assert (x * x.inv()).indistinguishable(field.one())
        assert field.monomial(4, 3).inv() == field.monomial(Fraction(1, 4), -3)

    def test_sign_and_compare(self, field):
        small = field.monomial(1, 1)
        assert small.sign() == 1 and (-small).sign() == -1
        assert small.compare(field.rational(Fraction(1, 1000))) == -1
        assert field.rational(Fraction(1, 1000)).compare(small) == 1
        assert small.compare(field.monomial(1, 1)) == 0

    def test_indistinguishable(self, field):
        x = field.from_literal("1 - 1*e^(1)")
        assert x.indistinguishable(field.one() - field.monomial(1, 1))
        assert not x.indistinguishable(field.one())

    def test_standard_part(self, field):
        assert field.from_literal("3/4 + 2*e^(1)").standard_part() == Fraction(3, 4)
        assert field.monomial(5, 2).standard_part() == 0

    def test_valuation_is_the_leading_exponent(self, field):
        assert field.from_literal("3*e^(2) + 1*e^(5)").valuation == 2
        assert field.monomial(1, -3).valuation == -3
        assert field.rational(7).valuation == 0

    def test_exact_elements_have_infinite_guarantee(self, field):
        assert field.from_literal("1 + 1*e^(1)").guarantee == INF
        assert field.monomial(2, 1).inv().guarantee == INF

    def test_bool_means_certified_nonzero(self, field):
        assert field.monomial(1, 4)
        assert field.rational(-1)


class TestExactZero:
    def test_queries(self, field):
        zero = field.zero()
        assert not zero
        assert zero.sign() == 0
        assert zero.compare(field.zero()) == 0
        assert zero.indistinguishable(field.one() - field.one())
        assert zero.standard_part() == 0
        assert zero.valuation == INF
        assert zero.guarantee == INF

    def test_inverse_of_zero_raises(self, field):
        with pytest.raises(ZeroDivisionError):
            field.zero().inv()

    def test_helpers(self, field):
        zero = field.zero()
        assert not scalars.certainly_positive(zero)
        assert not scalars.is_zero_like(zero)
        assert scalars.valuation_of(zero) == INF


class TestZeroLikeSeries:
    """Only a truncated series can vanish within a finite guarantee."""

    ZERO_LIKE = LCElement((), Fraction(2))

    def test_queries(self):
        x = self.ZERO_LIKE
        assert not x
        assert x.valuation == INF
        assert x.guarantee == 2
        assert x.standard_part() == 0
        assert x.indistinguishable(LCElement.zero())
        for query in (x.sign, x.inv, lambda: x.compare(LCElement.zero())):
            with pytest.raises(IndeterminateComparisonError):
                query()

    def test_helpers(self):
        assert scalars.is_zero_like(self.ZERO_LIKE)
        assert not scalars.certainly_positive(self.ZERO_LIKE)
        assert scalars.valuation_of(self.ZERO_LIKE) == INF


OPERATORS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv, "<": operator.lt}
OPERATIONS = {
    **OPERATORS,
    "compare": lambda x, y: x.compare(y),
    "indistinguishable": lambda x, y: x.indistinguishable(y),
}


class TestOperands:
    """An element combines with an element of its own field and with a
    rational; anything else, including the other field, is a TypeError."""

    @pytest.mark.parametrize("name", OPERATIONS)
    @pytest.mark.parametrize("left", ELEMENT_CLASSES, ids=lambda cls: cls.__name__)
    def test_mixed_fields_raise(self, name, left):
        right = RFElement if left is LCElement else LCElement
        with pytest.raises(TypeError):
            OPERATIONS[name](left.from_literal("2 + 1*e^(1)"), right.from_literal("3"))

    @pytest.mark.parametrize("name", OPERATIONS)
    @pytest.mark.parametrize("other", [1.5, "a"])
    def test_non_rational_operands_raise(self, field, name, other):
        x = field.from_literal("2 + 1*e^(1)")
        with pytest.raises(TypeError):
            OPERATIONS[name](x, other)
        if name in OPERATORS:
            with pytest.raises(TypeError):
                OPERATORS[name](other, x)

    @pytest.mark.parametrize("name", OPERATIONS)
    @pytest.mark.parametrize("value", [2, Fraction(-1, 3)])
    def test_rationals_coerce_on_either_side(self, field, name, value):
        x = field.from_literal("2 + 1*e^(1)")
        c = field.rational(value)
        op = OPERATIONS[name]
        assert op(x, value) == op(x, c)
        if name in OPERATORS:
            assert op(value, x) == op(c, x)


def test_helpers_on_nonzero_values(field):
    assert scalars.certainly_positive(field.monomial(1, 1))
    assert not scalars.certainly_positive(field.monomial(-1, 1))
    assert not scalars.is_zero_like(field.monomial(-1, 1))
    assert scalars.valuation_of(field.monomial(3, 2)) == 2


class TestRationalFunctionExponents:
    def test_monomial_refuses_a_fractional_exponent(self):
        with pytest.raises(SpecFileError, match="integer exponents"):
            RFElement.monomial(1, Fraction(1, 2))

    def test_literal_refuses_a_fractional_exponent(self):
        with pytest.raises(SpecFileError, match="non-integer exponent"):
            RFElement.from_literal("1 + 1*e^(1/2)")

    def test_integral_fraction_exponent_is_accepted(self):
        assert RFElement.monomial(2, Fraction(4, 2)) == RFElement.monomial(2, 2)

    def test_standard_part_of_a_pole_raises(self):
        with pytest.raises(PoleError):
            RFElement.monomial(1, -1).standard_part()

    def test_valuation_is_a_rational(self):
        assert RFElement.from_literal("1*e^(-2) + 3").valuation == Fraction(-2)
        assert type(RFElement.monomial(1, 3).valuation) is RATIONAL


class TestRealEvaluation:
    GRAPH = make_path(FactorialMonomialRule(), field=RFElement)

    def test_real_sweep_capacities_are_fractions(self):
        table = real_sweep(self.GRAPH, 0, 1, [Fraction(1, 2), Fraction(1, 3)], 4)
        for row in table.rows:
            assert type(row.capacity) is RATIONAL and type(row.scaled) is RATIONAL
        # cap_{4,r}(0) = (sum_{k<4} r^-k / k!)^-1 at r = 1/2
        assert table.rows[0].capacity == 1 / Fraction(1 + 2 + 2 + Fraction(8, 6))
