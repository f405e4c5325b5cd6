"""Differential tests: the LCElement addition, multiplication, inversion and
division kernels against the reference forms in ``field_reference.py``.

Addition, multiplication and the long division by 1 + h must return exactly
the reference element, on long operands and on short ones: one-term factors,
which take a path of their own in multiplication, exact-zero addends and
divisors of one or two terms.  Inversion and division may certify more than
the reference: their terms must agree below the reference guarantee, and
their guarantee must be at least the reference one.
"""

import math
import random
from fractions import Fraction

import pytest

from field_reference import (
    assert_refines,
    reference_add,
    reference_div,
    reference_inv,
    reference_mul,
    reference_quotient_terms,
)
from nacap import field
from nacap.errors import IndeterminateComparisonError
from nacap.field import _ONE, INF, LCElement, PrecisionConfig, precision
from nacap.specfile import build_graph, load_spec
from nacap.transition import TransitionContext, transition_powers

WINDOWS = list(range(1, 9)) + [32]
# Integer, half-integer and dyadic exponent lattices.
GRIDS = [Fraction(1), Fraction(1, 2), Fraction(1, 8), Fraction(1, 32)]


def random_config(rng):
    return PrecisionConfig(
        window=rng.choice(WINDOWS),
        max_terms=rng.randint(2, 96),
        geometric_series_depth=rng.randint(1, 24),
    )


def random_element(rng):
    """A nonzero element on one lattice with up to 8 terms; its guarantee is
    infinite or lies a few steps above its last term."""
    step = rng.choice(GRIDS)
    span = rng.choice([4, 12, 40])
    count = rng.randint(1, 8)
    start = rng.randint(-8, 8)
    offsets = sorted(rng.sample(range(span), min(count, span)))
    terms = [((start + offset) * step, random_coefficient(rng)) for offset in offsets]
    guarantee = INF if rng.random() < 0.5 else terms[-1][0] + rng.randint(1, 16) * step
    return LCElement(tuple(terms), guarantee)


def random_coefficient(rng):
    numerator = rng.choice([n for n in range(-4, 5) if n])
    return Fraction(numerator, rng.randint(1, 3))


def short_element(rng):
    """An exact zero, a zero-like element, or an element of one or two
    terms whose guarantee is infinite or lies a few steps above them."""
    kind = rng.randrange(4)
    if kind == 0:
        return LCElement.zero()
    step = rng.choice(GRIDS)
    start = rng.randint(-8, 8) * step
    if kind == 1:
        return LCElement((), start)
    terms = [(start, random_coefficient(rng))]
    if kind == 3:
        terms.append((start + rng.randint(1, 40) * step, random_coefficient(rng)))
    guarantee = INF if rng.random() < 0.5 else terms[-1][0] + rng.randint(1, 16) * step
    return LCElement(tuple(terms), guarantee)


def reference_long_division(x, y, monkeypatch):
    """x / y with the reference long division by 1 + h."""
    with monkeypatch.context() as patched:
        patched.setattr(field, "_quotient_terms", reference_quotient_terms)
        return x / y


def check_case(rng, monkeypatch):
    cfg = random_config(rng)
    x, y = random_element(rng), random_element(rng)
    with precision(cfg):
        assert x * y == reference_mul(x, y)
        assert x + y == reference_add(x, y)
        new_inv = y.inv()
        assert_refines(new_inv, reference_inv(y))
        quotient = x / y
        assert_refines(quotient, reference_div(x, y))
        assert quotient == reference_long_division(x, y, monkeypatch)
        # Nothing of x is known from its guarantee on, so nothing of x/y
        # from x.guarantee - val(y) on.
        assert quotient.guarantee <= x.guarantee - y.valuation
        assert new_inv == _ONE / y
    if y.guarantee == INF:
        # y * (1/y) - 1 vanishes below val(y) + guarantee(1/y) exactly when
        # every term of 1/y below its guarantee is the true one.
        with precision(window=1000, max_terms=10**5):
            product = y * new_inv
        assert product.guarantee == y.valuation + new_inv.guarantee
        assert product.indistinguishable(LCElement.one()), (y, cfg)


@pytest.mark.parametrize("seed", range(8))
def test_kernels_match_reference(seed, monkeypatch):
    rng = random.Random(seed)
    for _ in range(250):
        check_case(rng, monkeypatch)


def check_short_case(rng, monkeypatch):
    cfg = random_config(rng)
    short = short_element(rng)
    other = short_element(rng) if rng.random() < 0.3 else random_element(rng)
    with precision(cfg):
        for x, y in ((short, other), (other, short)):
            assert x * y == reference_mul(x, y)
            assert x + y == reference_add(x, y)
            if not x.terms or not y.terms:
                continue
            assert x / y == reference_long_division(x, y, monkeypatch)


@pytest.mark.parametrize("seed", range(8))
def test_short_operands_match_the_general_kernels(seed, monkeypatch):
    # Elements drawn with many terms or long spans were made under a wider
    # precision than most drawn configurations: they meet its cuts here.
    rng = random.Random(1000 + seed)
    for _ in range(250):
        check_short_case(rng, monkeypatch)


def lc(terms, guarantee=INF):
    return LCElement(tuple((Fraction(e), Fraction(c)) for e, c in terms), guarantee)


class TestMulLimit:
    def test_cancelling_pairs_past_the_window(self):
        # (1 + e^5)(1 - e^5) = 1 - e^10: the last pair lies past cut = 4, so
        # the window cuts there and the cancelling pairs at 5 are skipped.
        x, y = lc([(0, 1), (5, 1)]), lc([(0, 1), (5, -1)])
        with precision(window=4):
            assert x * y == lc([(0, 1)], Fraction(4)) == reference_mul(x, y)

    def test_last_pair_past_the_guarantee_keeps_the_guarantee(self):
        # Every pair past the guarantee 3 is dropped, nothing reaches cut = 4,
        # so the product keeps guarantee 3.
        x, y = lc([(0, 1), (1, 1)], Fraction(3)), lc([(0, 1), (10, 1)])
        with precision(window=4):
            assert x * y == lc([(0, 1), (1, 1)], Fraction(3)) == reference_mul(x, y)

    def test_last_pair_at_the_guarantee_leaves_the_cut_to_the_window(self):
        # The last pair sits at the guarantee 8; the pair at 5 still lies
        # past cut = 4, so the window cuts there.
        x, y = lc([(0, 1), (5, 1)], Fraction(8)), lc([(0, 1), (3, 1)])
        with precision(window=4):
            assert x * y == lc([(0, 1), (3, 1)], Fraction(4)) == reference_mul(x, y)


@pytest.mark.parametrize(
    "config, terms, guarantee",
    [
        # depth 5 certifies 1/(1 - e) below 5 * val(e) = 5.
        (dict(geometric_series_depth=5), 5, 5),
        # Past the window's edge the next term e^8 is the guarantee.
        (dict(window=8), 8, 8),
        # The term after the first max_terms ones is the guarantee.
        (dict(max_terms=3), 3, 3),
    ],
)
def test_inverse_cuts(config, terms, guarantee):
    x = lc([(0, 1), (1, -1)])
    with precision(**config):
        inverse, ref = x.inv(), reference_inv(x)
    assert inverse == ref == lc([(k, 1) for k in range(terms)], Fraction(guarantee))


def test_inverse_guarantee_never_below_reference():
    # y = e^-1/2 * (1 + h) with h = 4e + 8e^2.  1/(1+h) has no term at e^7,
    # the first exponent past the window, and its next one at e^8; the
    # reference certifies it up to e^8, so ending at the window's edge, as
    # _finalize would, would lower the guarantee.
    y = lc([(-1, Fraction(1, 2)), (0, 2), (1, 4)], Fraction(9))
    with precision(window=7, max_terms=35, geometric_series_depth=18):
        new, ref = y.inv(), reference_inv(y)
    assert ref.guarantee == new.guarantee == 9
    assert_refines(new, ref)


class TestDivision:
    def test_zero_like_numerator(self):
        # 0 below e^3, divided by e*(1 + e): 0 below e^2.
        y = lc([(1, 1), (2, 1)])
        assert LCElement((), Fraction(3)) / y == LCElement((), Fraction(2))
        assert LCElement.zero() / y == LCElement.zero()

    def test_exact_zero_divisor(self):
        for numerator in (LCElement.one(), LCElement.zero(), Fraction(1, 2)):
            with pytest.raises(ZeroDivisionError):
                numerator / LCElement.zero()
        with pytest.raises(ZeroDivisionError):
            LCElement.zero().inv()

    def test_zero_like_divisor(self):
        with pytest.raises(IndeterminateComparisonError):
            LCElement.one() / LCElement((), Fraction(1))
        with pytest.raises(IndeterminateComparisonError):
            LCElement((), Fraction(1)).inv()

    def test_divisor_with_a_finite_guarantee(self):
        # 1/(1 + e) is known below e^3 when 1 + e is; e^2/(1 + e) below e^5.
        y = lc([(0, 1), (1, 1)], Fraction(3))
        assert LCElement.one() / y == lc([(0, 1), (1, -1), (2, 1)], Fraction(3))
        x = lc([(2, 1)])
        assert x / y == lc([(2, 1), (3, -1), (4, 1)], Fraction(5)) == reference_div(x, y)

    def test_numerator_with_a_finite_guarantee(self):
        # (1 + O(e^2))/(1 - e) = 1 + e + O(e^2).
        x, y = lc([(0, 1)], Fraction(2)), lc([(0, 1), (1, -1)])
        assert x / y == lc([(0, 1), (1, 1)], Fraction(2)) == reference_div(x, y)

    def test_rational_numerator(self):
        y = lc([(0, 2), (1, 1)])
        half = Fraction(1, 2)
        with precision(window=3):
            expected = lc([(0, Fraction(1, 4)), (1, Fraction(-1, 8)), (2, Fraction(1, 16))], 3)
            assert half / y == expected == reference_div(LCElement.rational(half), y)
            assert 2 / y == LCElement.rational(2) / y

    def test_numerator_past_the_window(self):
        # (1 + e^5)/(1 - e^2) = 1 + e^2 + e^4 + 2e^5 + ...: in a window of 3
        # the first nonzero coefficient past e^3, at e^4, is the guarantee.
        x, y = lc([(0, 1), (5, 1)]), lc([(0, 1), (2, -1)])
        with precision(window=3):
            quotient, ref = x / y, reference_div(x, y)
        assert quotient == lc([(0, 1), (2, 1)], Fraction(4))
        assert ref.guarantee == 3
        assert_refines(quotient, ref)


class TestShortOperands:
    def test_wide_operands_take_the_active_cuts(self):
        # 1/(1 - e) made in a window of 32 keeps 32 terms; combined with an
        # exact zero or a one-term factor in a window of 4 with at most 3
        # terms, the max_terms cut sets the guarantee at e^3.
        with precision(window=32):
            wide = _ONE / lc([(0, 1), (1, -1)])
        assert len(wide.terms) == 32
        with precision(window=4, max_terms=3):
            assert wide + LCElement.zero() == lc([(0, 1), (1, 1), (2, 1)], Fraction(3))
            assert LCElement.zero() + wide == reference_add(LCElement.zero(), wide)
            assert 2 * wide == lc([(0, 2), (1, 2), (2, 2)], Fraction(3))
            assert wide * LCElement.monomial(1, 1) == reference_mul(wide, LCElement.monomial(1, 1))

    def test_one_term_factor_meets_the_window_below_its_guarantee(self):
        # The guarantee 6 comes from the one-term factor; the pairs at 5 and
        # 9 lie past cut = 4, so the window cuts at 4.
        x, y = lc([(0, 1)], Fraction(6)), lc([(0, 1), (3, 1), (5, 1), (9, 1)])
        with precision(window=4):
            assert x * y == lc([(0, 1), (3, 1)], Fraction(4)) == reference_mul(x, y)

    @pytest.mark.parametrize(
        "s, h, config, expected",
        [
            # h = 0: s is copied up to the window's edge; its next term is
            # the guarantee.
            ([(0, 1), (2, 3), (5, 1)], [], dict(window=4), ([(0, 1), (2, 3)], 5)),
            # 1/(1 + e) = 1 - e + e^2 - ..., stopped by max_terms.
            ([(0, 1)], [(1, 1)], dict(max_terms=3), ([(0, 1), (1, -1), (2, 1)], 3)),
            # (1 + e)/(1 + e) = 1: s's exponent 1 meets the spawned 0 + 1.
            # The geometric series of 33 steps certifies it below e^34.
            ([(0, 1), (1, 1)], [(1, 1)], {}, ([(0, 1)], 34)),
            # 1/(1 + e + e^2) = (1 - e)/(1 - e^3): the walks of e and e^2
            # meet at e^2 and cancel; e^6 is the first term past the window.
            ([(0, 1)], [(1, 1), (2, 1)], dict(window=6), ([(0, 1), (1, -1), (3, 1), (4, -1)], 6)),
            # (1 + e + e^2)/(1 + e + e^2) = 1: both walks meet s at e and e^2.
            ([(0, 1), (1, 1), (2, 1)], [(1, 1), (2, 1)], {}, ([(0, 1)], 34)),
        ],
    )
    def test_long_division_by_a_short_divisor(self, s, h, config, expected):
        s, h = lc(s), lc(h)
        cfg = PrecisionConfig(**config)
        terms, guarantee = field._quotient_terms(s, h, cfg)
        assert (terms, guarantee) == reference_quotient_terms(s, h, cfg)
        assert (tuple(terms), guarantee) == (lc(expected[0]).terms, expected[1])


def count_fraction_calls(monkeypatch, names, operation):
    """operation() and the number of calls it made to the named methods of
    Fraction."""
    counted = []
    for name in names:
        method = getattr(Fraction, name)

        def counting(*args, _method=method):
            counted.append(1)
            return _method(*args)

        monkeypatch.setattr(Fraction, name, counting)
    result = operation()
    monkeypatch.undo()
    return result, len(counted)


class TestCutCost:
    """The cuts of a sum and of a one-term product are bisections: the
    number of exponent comparisons grows with the logarithm of the length
    of the operand, not with the length."""

    @staticmethod
    def count_comparisons(monkeypatch, operation):
        names = ("__eq__", "__lt__", "__le__", "__gt__", "__ge__")
        return count_fraction_calls(monkeypatch, names, operation)

    @pytest.mark.parametrize("n", [200, 800])
    def test_comparisons_grow_with_the_logarithm(self, n, monkeypatch):
        # x spans exponents 0 .. (n - 1)/(n/25); the zero-like addend cuts
        # it at 20, and in a window of 16 the product by e^3 at 19.
        step = Fraction(25, n)
        x = LCElement(tuple((k * step, Fraction(k + 1)) for k in range(n)), Fraction(26))
        zero_like = LCElement((), Fraction(20))
        e3 = LCElement.monomial(1, 3)
        bound = 4 * math.log2(n) + 24
        with precision(max_terms=4 * n):
            total, count = self.count_comparisons(monkeypatch, lambda: x + zero_like)
            assert total == reference_add(x, zero_like)
            assert total.guarantee == 20 and len(total.terms) == 4 * n // 5
            assert count <= bound, count
        with precision(window=16, max_terms=4 * n):
            product, count = self.count_comparisons(monkeypatch, lambda: e3 * x)
            assert product == reference_mul(e3, x)
            assert product.guarantee == 19 and len(product.terms) == 16 * n // 25
            assert count <= bound, count


class TestIntegerLattice:
    """An integral exponent is an int, so arithmetic on the integer lattice
    compares and adds exponents without ``Fraction``; an exponent off the
    lattice stays a ``Fraction``.  Coefficients are ``Fraction``s
    throughout, and they are never ordered by these operations."""

    ORDERED = ("__lt__", "__le__", "__gt__", "__ge__")

    def test_long_operands_order_no_fraction(self, monkeypatch):
        with precision(window=400, max_terms=1000):
            x = LCElement.from_terms((k, Fraction(k % 7 + 1, 3)) for k in range(200))
            divisor = LCElement.one() + LCElement.monomial(1, 1)
            e3 = LCElement.monomial(1, 3)
            _, in_quotient = count_fraction_calls(monkeypatch, self.ORDERED, lambda: x / divisor)
            _, in_sum = count_fraction_calls(monkeypatch, self.ORDERED, lambda: x + x)
            product, in_product = count_fraction_calls(
                monkeypatch, ("__add__", "__radd__"), lambda: e3 * x
            )
            assert product == reference_mul(e3, x)
        # Ordered comparisons in x / (1 + e) and x + x, additions in e^3 * x.
        assert (in_quotient, in_sum, in_product) == (0, 0, 0)

    def test_transition_powers_order_no_fraction(self, monkeypatch):
        graph, config = build_graph(load_spec("ex1"))
        with precision(config):
            ctx = TransitionContext(graph)
            # The first call materialises the edges, each weight checked
            # positive by its leading coefficient; the counted one orders
            # only exponents.
            transition_powers(ctx, 0, 0, 4)
            _, count = count_fraction_calls(
                monkeypatch, self.ORDERED, lambda: transition_powers(ctx, 0, 0, 4)
            )
        assert count == 0

    @staticmethod
    def exponent_types(x):
        types = {type(e) for e, _ in x.terms}
        return types | ({type(x.guarantee)} if x.guarantee != INF else set())

    @staticmethod
    def integral_element(rng):
        """Up to 8 terms at integral exponents, given as Fractions; the
        guarantee is infinite or lies a few steps above the last term."""
        exponents = sorted(rng.sample(range(-8, 40), rng.randint(1, 8)))
        guarantee = INF if rng.random() < 0.5 else Fraction(exponents[-1] + rng.randint(1, 16))
        return LCElement.from_terms(
            ((Fraction(e), random_coefficient(rng)) for e in exponents), guarantee
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_integral_exponents_stay_int(self, seed):
        rng = random.Random(2000 + seed)
        for _ in range(100):
            x, y = self.integral_element(rng), self.integral_element(rng)
            assert self.exponent_types(x) == {int}
            with precision(random_config(rng)):
                results = [x + y, x * y, x / y, y.inv()]
            for z in results:
                assert self.exponent_types(z) <= {int}, z

    @pytest.mark.parametrize("seed", range(4))
    def test_no_exponent_or_guarantee_is_a_float(self, seed):
        rng = random.Random(3000 + seed)
        for _ in range(100):
            x, y = random_element(rng), random_element(rng)
            with precision(random_config(rng)):
                results = [x + y, x * y, x / y, y.inv()]
            for z in results:
                assert self.exponent_types(z) <= {int, Fraction}, z

    def test_constructors_store_integral_exponents_as_int(self):
        assert type(LCElement.monomial(2, Fraction(6, 3)).terms[0][0]) is int
        assert type(LCElement.rational(3).terms[0][0]) is int
        assert type(LCElement.one().terms[0][0]) is int
        assert type(LCElement.from_terms([(Fraction(4, 2), 1)], Fraction(9)).guarantee) is int
        assert type(PrecisionConfig(window=Fraction(8)).window) is int
        parsed = field.parse_element("1 + 2*e^(4/2) - e^(1/2)")
        assert parsed.terms == ((0, 1), (Fraction(1, 2), -1), (2, 2))
        assert [type(e) for e, _ in parsed.terms] == [int, Fraction, int]

    def test_int_and_fraction_exponents_merge(self):
        # e^(1/2) + e^(1/2) reaches the exponent 1 as Fraction(1), and the
        # int 1 of e^1 meets it there: one term, in sums, products and
        # quotients.
        half = Fraction(1, 2)
        fraction_one = LCElement(((Fraction(1), Fraction(1)),))
        assert (fraction_one + LCElement.monomial(1, 1)).terms == ((1, 2),)
        x = LCElement.monomial(1, half) + LCElement.monomial(1, 1)
        y = LCElement.monomial(1, half) + LCElement.one()
        assert x * y == LCElement.from_terms([(half, 1), (1, 2), (Fraction(3, 2), 1)])
        quotient = LCElement.monomial(1, 1) / y
        exponents = [e for e, _ in quotient.terms]
        assert exponents == sorted(set(exponents))
        with precision(window=64, max_terms=1000):
            assert (quotient * y).indistinguishable(LCElement.monomial(1, 1))

    @pytest.mark.parametrize("window", [1, 7, 32, Fraction(7, 2), Fraction(33, 8)])
    @pytest.mark.parametrize("lam", [1, 2, 3, Fraction(1, 2), Fraction(3, 8), Fraction(5, 3)])
    def test_exact_ceiling(self, window, lam):
        assert -(-window // lam) == math.ceil(Fraction(window) / lam)


def test_format_orders_each_coefficient_once(monkeypatch):
    x = LCElement(tuple((k, Fraction((-1) ** k * (k + 1), 3)) for k in range(200)))
    text, count = count_fraction_calls(
        monkeypatch, TestIntegerLattice.ORDERED, lambda: field.format_element(x)
    )
    assert text.startswith("1/3 - 2/3*e^(1) + 1*e^(2) - 4/3*e^(3) + ")
    assert text.endswith(" - 200/3*e^(199)")
    assert count == 200
