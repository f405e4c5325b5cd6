"""Scalar arithmetic: series elements, precision certificates, literals."""

import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from field_reference import reference_parse_element
from nacap.errors import (
    FieldParseError,
    IndeterminateComparisonError,
    TermOverflowError,
)
from nacap.field import (
    INF,
    LCElement,
    PrecisionConfig,
    format_element,
    parse_element,
    precision,
)
from prop_suites import random_element

ONE = LCElement.one()
EPS = LCElement.monomial(1, 1)


def lc(text):
    return parse_element(text)


class TestAdd:
    def test_exact_cancellation(self):
        assert (ONE + EPS) + (-EPS) == ONE

    def test_same_exponent_merges(self):
        x = LCElement.monomial(1, Fraction(1, 2))
        assert x + x == LCElement.monomial(2, Fraction(1, 2))

    def test_positive_capacity_limit_shape(self):
        # (1 - e) + e = 1, the arithmetic behind the capacity value 1 - e.
        assert lc("1 - 1*e^(1)") + EPS == ONE

    def test_cancellation_with_finite_guarantee_keeps_guarantee(self):
        x = LCElement(((Fraction(0), Fraction(1)),), Fraction(8))
        diff = x - ONE
        assert not diff
        assert diff != LCElement.zero()
        assert diff.guarantee == Fraction(8)

    def test_guarantee_is_min_of_operands(self):
        x = LCElement(((Fraction(0), Fraction(1)),), Fraction(5))
        y = LCElement(((Fraction(1), Fraction(2)),), Fraction(9))
        assert (x + y).guarantee == Fraction(5)

    def test_window_truncation_lowers_guarantee(self):
        with precision(window=4):
            x = LCElement.from_terms([(0, 1), (10, 1)])
            y = x + x
        assert y.terms == ((Fraction(0), Fraction(2)),)
        assert y.guarantee == Fraction(4)


class TestMul:
    def test_difference_of_squares(self):
        assert (ONE - EPS) * (ONE + EPS) == ONE - LCElement.monomial(1, 2)

    def test_exponent_additivity(self):
        a, b = Fraction(3, 4), Fraction(-5, 2)
        assert LCElement.monomial(1, a) * LCElement.monomial(1, b) == LCElement.monomial(1, a + b)

    def test_geometric_telescope(self):
        # Direct expansion oracle: (1-e) * sum_{k<=K} e^k == 1 - e^(K+1),
        # which the window reports as 1 once K+1 falls outside it.
        K = 10
        partial = LCElement.from_terms([(k, 1) for k in range(K + 1)])
        product = (ONE - EPS) * partial
        assert product == ONE - LCElement.monomial(1, K + 1)
        with precision(window=8):
            product = (ONE - EPS) * partial
        assert product.terms == ONE.terms
        assert product.guarantee == Fraction(8)

    def test_max_terms_truncation_degrades_guarantee(self):
        with precision(max_terms=4, window=100):
            x = LCElement.from_terms([(k, 1) for k in range(4)])
            y = x * x
        assert len(y.terms) == 4
        assert y.guarantee == Fraction(4)


class TestInv:
    def test_geometric_series(self):
        x = ONE - EPS
        inverse = x.inv()
        assert (x * inverse).indistinguishable(ONE)
        expected = [(Fraction(k), Fraction(1)) for k in range(32)]
        assert list(inverse.terms) == expected
        assert inverse.guarantee == Fraction(32)

    def test_monomial(self):
        assert EPS.inv() == LCElement.monomial(1, -1)
        assert EPS.inv().guarantee == INF

    def test_inverse_of_geometric_sum_is_one_minus_eps(self):
        total = LCElement.zero()
        for k in range(40):
            total = total + LCElement.monomial(1, k)
        inverse = total.inv()
        assert inverse.indistinguishable(ONE - EPS)
        assert inverse.terms == (ONE - EPS).terms

    def test_valuation_negated(self):
        x = LCElement.from_terms([(Fraction(3), 2), (Fraction(4), 5)])
        assert x.inv().valuation == Fraction(-3)

    def test_multiply_back_random_shapes(self):
        xs = [
            lc("3/2*e^(-1/2) + 2"),
            lc("5 - 1*e^(1) + 7*e^(3)"),
            lc("-2*e^(-2) + 1*e^(1/3)"),
        ]
        for x in xs:
            assert (x * x.inv()).indistinguishable(ONE)

    def test_zero_rejected(self):
        with pytest.raises(ZeroDivisionError):
            LCElement.zero().inv()

    def test_zero_like_rejected(self):
        zero_like = LCElement((), Fraction(4))
        with pytest.raises(IndeterminateComparisonError):
            zero_like.inv()


class TestOrder:
    def test_eps_below_every_reciprocal_integer(self):
        for n in (1, 10, 10**6):
            assert EPS < LCElement.rational(Fraction(1, n))

    def test_infinitely_large_above_every_integer(self):
        assert LCElement.monomial(1, -1) > LCElement.rational(10**9)

    def test_lower_valuation_dominates(self):
        assert LCElement.monomial(2, 2) > LCElement.monomial(3, 3)

    def test_indeterminate_comparison_raises(self):
        x = LCElement(((Fraction(0), Fraction(1)),), Fraction(6))
        with pytest.raises(IndeterminateComparisonError):
            x.compare(ONE)
        assert x.indistinguishable(ONE)

    def test_exact_equality(self):
        assert (ONE + EPS).compare(EPS + ONE) == 0


class TestValuation:
    def test_valuation_examples(self):
        assert lc("3*e^(2) + 1*e^(5)").valuation == 2
        assert LCElement.zero().valuation == INF
        assert lc("1 - 1*e^(1)").valuation == 0


class TestLiterals:
    def test_parse_basic(self):
        x = lc("1 - 1*e^(1)")
        assert x.terms == ((Fraction(0), Fraction(1)), (Fraction(1), Fraction(-1)))

    def test_parse_orders_exponents(self):
        x = lc("3/2*e^(-1/2) + 2")
        assert [e for e, _ in x.terms] == [Fraction(-1, 2), Fraction(0)]

    def test_duplicate_exponent_rejected(self):
        with pytest.raises(FieldParseError):
            lc("e^(1) + e^(1)")

    def test_syntax_error_carries_position(self):
        with pytest.raises(FieldParseError) as err:
            lc("1 + *")
        assert err.value.position == 4

    @pytest.mark.parametrize(
        "text, message, position",
        [
            ("-e^(1)", "expected a term", 0),  # a bare eps takes no sign
            ("1 - -2", "duplicate exponent 0", 6),
            ("1 + e^(1/00)", "zero denominator", 10),
            # "²" is a digit to str.isdigit, but not one int can read.
            ("²", "expected a term", 0),
            ("1²", "unexpected character '²'", 1),
            ("1 + e^(²)", "expected a term", 4),
        ],
    )
    def test_refusal_carries_message_and_position(self, text, message, position):
        with pytest.raises(FieldParseError, match=re.escape(message)) as err:
            lc(text)
        assert err.value.position == position

    def test_bare_eps_coefficient_one(self):
        assert lc("e^(1/2)") == LCElement.monomial(1, Fraction(1, 2))

    def test_round_trip(self):
        for text in ("0", "1 - 1*e^(1)", "-3/2*e^(-1/2) + 2 + 7*e^(5/3)"):
            x = lc(text)
            assert parse_element(format_element(x)) == x

    def test_canonical_form(self):
        assert format_element(lc("2 + 3/2*e^(-1/2)")) == "3/2*e^(-1/2) + 2"
        assert format_element(ONE - EPS) == "1 - 1*e^(1)"
        assert format_element(LCElement.zero()) == "0"

    def test_whitespace_between_any_two_tokens(self):
        assert lc(" 3 / 4 * e ^ ( - 1 / 2 )\t+\n- 5 ") == lc("3/4*e^(-1/2) - 5")

    def test_decimal_digits_of_any_script(self):
        assert lc("٣/٤*e^(١)") == lc("3/4*e^(1)")

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**30))
    def test_round_trip_random_elements(self, seed):
        x = random_element(random.Random(seed))
        assert parse_element(format_element(x)) == x


SPACES = st.sampled_from(["", "", " ", "\t", "\n"])
DIGITS = st.sampled_from(["0", "1", "2", "7", "12", "٣"])
STRAY_TOKENS = st.sampled_from(
    ["x", "²", "٣", "e", "^", "(", ")", "*", "/", "+", "-", "1", " "]
)


@st.composite
def rational_tokens(draw):
    tokens = ["-"] if draw(st.booleans()) else []
    tokens.append(draw(DIGITS))
    if draw(st.booleans()):
        tokens += ["/", draw(DIGITS)]
    return tokens


@st.composite
def literal_texts(draw):
    """Up to three terms of the literal grammar with whitespace drawn between
    the tokens, and up to two stray tokens inserted anywhere."""
    tokens = []
    for i in range(draw(st.integers(0, 3))):
        if i:
            tokens.append(draw(st.sampled_from("+-")))
        form = draw(st.sampled_from(["rational", "rational * eps", "eps"]))
        if form != "eps":
            tokens += draw(rational_tokens())
        if form == "rational * eps":
            tokens.append("*")
        if form != "rational":
            tokens += ["e", "^", "(", *draw(rational_tokens()), ")"]
    for _ in range(draw(st.integers(0, 2))):
        tokens.insert(draw(st.integers(0, len(tokens))), draw(STRAY_TOKENS))
    return draw(SPACES) + "".join(token + draw(SPACES) for token in tokens)


class TestParserAgainstReference:
    """The regular-expression parser against the tokenizer and recursive
    descent of ``field_reference``: the same strings accepted, to equal
    elements, and every refusal a FieldParseError.  The reference raises a
    bare ValueError on a digit that int cannot read, such as "²"."""

    @settings(max_examples=500, deadline=None)
    @given(literal_texts())
    def test_same_language_and_values(self, text):
        try:
            expected = reference_parse_element(text)
        except (FieldParseError, ValueError):
            expected = None
        try:
            got = parse_element(text)
        except FieldParseError:
            got = None
        assert (got is None) == (expected is None), text
        if expected is not None:
            assert got == expected and got.terms == expected.terms, text


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            PrecisionConfig(window=0)
        with pytest.raises(ValueError):
            PrecisionConfig(max_terms=0)
        with pytest.raises(ValueError):
            PrecisionConfig(geometric_series_depth=0)

    def test_from_terms_overflow(self):
        with precision(max_terms=4):
            with pytest.raises(TermOverflowError):
                LCElement.from_terms([(k, 1) for k in range(10)])

    def test_power(self):
        assert (ONE + EPS) ** 3 == lc("1 + 3*e^(1) + 3*e^(2) + 1*e^(3)")
        assert EPS ** -2 == LCElement.monomial(1, -2)
