"""Transition operator: exact powers, max-path products, Neumann series."""

import math
import random
from fractions import Fraction
from itertools import combinations, islice, product as iproduct

import pytest

from nacap import transition
from nacap.cli import main
from nacap.errors import ConvergenceNotCertifiedError
from nacap.field import INF, LCElement, PrecisionConfig, precision
from nacap.ratfunc import RFElement
from nacap.graphs import (
    ConstantRule,
    ExplicitListRule,
    FactorialMonomialRule,
    HalfPowerRule,
    ListSize,
    MonomialRule,
    SphericalProfile,
    make_explicit,
    make_path,
    make_spherical,
)
from nacap.specfile import build_graph, load_spec
from nacap.transition import (
    TransitionContext,
    full_decay_certificate,
    min_mean_cycle_valuation,
    neumann_inverse_check,
    neumann_partial,
    nonvanishing_certificate,
    pi_element,
    restricted_decay_certificate,
    row_sum,
    transition_powers,
)

from prop_suites import BASE_CONFIG, random_graph
from field_reference import assert_refines as assert_lc_refines
from transition_reference import (
    reference_column,
    reference_nonvanishing_certificate,
    reference_pi_element,
    reference_transition_powers,
)

ONE = LCElement.one()
EPS = LCElement.monomial(1, 1)
HALF = LCElement.rational(Fraction(1, 2))


def unit_ctx():
    return TransitionContext(make_path(ConstantRule(1)))


def two_flat_then_growing():
    # b(0,1) = b(1,2) = 1, b(k,k+1) = eps^(1-k) for k >= 2.
    rule = ExplicitListRule(("1", "1"), tail=MonomialRule(slope=-1, offset=1))
    return TransitionContext(make_path(rule))


def half_power_ctx():
    return TransitionContext(make_path(HalfPowerRule()))


def growing_ctx():
    return TransitionContext(make_path(MonomialRule(slope=-1)))


def split_ctx():
    # b(0,1) = eps, b(1,2) = b(2,3) = 1: removing 1 cuts 0 off from 2-3.
    return TransitionContext(make_explicit(4, [(0, 1, EPS), (1, 2, ONE), (2, 3, ONE)]))


def series(ctx, x, y, N, restrict=None):
    """The Neumann report over the powers of one column up to N."""
    return neumann_partial(ctx, x, y, transition_powers(ctx, x, y, N, restrict), restrict)


def least_closed_walk_mean(ctx, K):
    """Brute-force oracle for the minimum mean cycle of the restriction to
    K: the least mean of edge valuations over the closed walks of at most
    |K| edges from each vertex of K, one start at a time."""
    K = set(K)
    graph = ctx.graph
    best = INF
    for v in K:
        row = {v: Fraction(0)}
        for k in range(1, len(K) + 1):
            following = {}
            for u, du in row.items():
                degree = graph.degree_weight(u).valuation
                for w, b in graph.neighbors(u).items():
                    if w in K:
                        candidate = du + b.valuation - degree
                        following[w] = min(following.get(w, INF), candidate)
            row = following
            if v in row:
                best = min(best, row[v] / k)
    return best


def min_return_valuation(n, top):
    """Brute-force oracle for the least total down-step valuation of a
    length-2n return path confined to {0..top} with weights eps^(1/2^k):
    minimize sum d_j/2^j over crossing profiles d_j >= 1 for j <= h."""
    best = None
    for h in range(1, top + 1):
        if h > n:
            break
        # d_1..d_h >= 1 summing to n; distribute the excess greedily over
        # all profiles via enumeration (small n only).
        def rec(j, left):
            if j == h:
                return [Fraction(left, 2**h)]
            out = []
            for d in range(1, left - (h - j) + 1):
                for rest in rec(j + 1, left - d):
                    out.append(Fraction(d, 2**j) + rest)
            return out

        for total in rec(1, n):
            if best is None or total < best:
                best = total
    return best


class TestPowers:
    def test_identity(self):
        ctx = unit_ctx()
        assert transition_powers(ctx, 3, 3, 0)[0] == ONE
        assert transition_powers(ctx, 3, 4, 0)[0] == LCElement.zero()

    def test_one_half_return_probability(self):
        # Flat start: P^2(0,0) = P(0,1) * P(1,0) = 1 * 1/2.
        assert transition_powers(two_flat_then_growing(), 0, 0, 2)[2] == HALF
        assert transition_powers(unit_ctx(), 0, 0, 2)[2] == HALF

    def test_row_stochastic(self):
        for ctx in (unit_ctx(), two_flat_then_growing(), half_power_ctx()):
            for x in range(4):
                assert row_sum(ctx, x).indistinguishable(ONE)

    def test_odd_returns_vanish(self):
        powers = transition_powers(unit_ctx(), 0, 0, 7)
        for n in (1, 3, 5, 7):
            assert powers[n] == LCElement.zero()

    def test_context_reused_under_a_wider_precision(self):
        # P^4(0, 0) has guarantee 11/4 under the lean precision.  Under the
        # wider one the reused context, whose graph kept degrees for the
        # lean one, reads what a fresh context reads (67/4).
        ctx = half_power_ctx()
        with precision(window=2, max_terms=16):
            lean = transition_powers(ctx, 0, 0, 4)[4]
        with precision(window=16, max_terms=128):
            reused = transition_powers(ctx, 0, 0, 4)[4]
            fresh = transition_powers(half_power_ctx(), 0, 0, 4)[4]
        assert lean.guarantee == Fraction(11, 4)
        assert fresh.guarantee == Fraction(67, 4)
        assert reused == fresh


class TestMaxPath:
    def test_zeroth_power(self):
        ctx = unit_ctx()
        assert pi_element(ctx, 2, 2, 0).value == ONE
        assert pi_element(ctx, 2, 3, 0).path is None

    def test_max_below_sum(self):
        ctx = two_flat_then_growing()
        for x, y, n in iproduct((0, 1, 2), (0, 1, 2), (1, 2, 3, 4)):
            pi = pi_element(ctx, x, y, n).value
            pn = transition_powers(ctx, x, y, n)[n]
            diff = pn - pi
            assert not diff.terms or diff.terms[0][1] > 0

    def test_half_power_small_restriction(self):
        # L = {0,1}: P_L^2(0,0) = p(0,1) p(1,0) = eps^(1/2)/(1 + eps^(1/2)).
        ctx = half_power_ctx()
        value = transition_powers(ctx, 0, 0, 2, (0, 1))[2]
        oracle = LCElement.monomial(1, Fraction(1, 2)) * (ONE + LCElement.monomial(1, Fraction(1, 2))).inv()
        assert value.indistinguishable(oracle)

    def test_half_power_unrestricted_valuations(self):
        # Pi^(2n)(0,0) has valuation sum_{j<=n} 2^-j = 1 - 2^-n: the max path
        # goes straight up and straight back.
        ctx = half_power_ctx()
        with precision(window=2, max_terms=16):
            for n in (1, 2, 3, 5):
                result = pi_element(ctx, 0, 0, 2 * n)
                assert result.value.valuation == 1 - Fraction(1, 2**n)
                assert result.value.compare(LCElement.monomial(1, 2)) > 0
                assert max(result.path) == n

    def test_restricted_valuations_match_profile_oracle(self):
        ctx = half_power_ctx()
        L = tuple(range(5))
        with precision(window=2, max_terms=16):
            for n in (1, 2, 3, 4, 5, 6):
                value = transition_powers(ctx, 0, 0, 2 * n, L)[-1]
                assert value.valuation == min_return_valuation(n, top=4)


class TestRestriction:
    def test_monotone_and_saturating(self):
        ctx = two_flat_then_growing()
        x, y, n = 0, 2, 4
        small = transition_powers(ctx, x, y, n, range(3))[n]
        larger = transition_powers(ctx, x, y, n, range(4))[n]
        full = transition_powers(ctx, x, y, n)[n]
        for lo, hi in ((small, larger), (larger, full)):
            diff = hi - lo
            assert not diff.terms or diff.terms[0][1] > 0
        saturated = transition_powers(ctx, x, y, n, range(n + 2))[n]
        assert saturated.indistinguishable(full)

    def test_singleton_restriction(self):
        ctx = unit_ctx()
        assert transition_powers(ctx, 0, 0, 3, (0,))[3] == LCElement.zero()
        assert transition_powers(ctx, 0, 0, 0, (0,))[0] == ONE


class TestDecayCertificates:
    def test_min_mean_cycle_values(self):
        assert min_mean_cycle_valuation(unit_ctx(), range(4)) == 0
        assert min_mean_cycle_valuation(half_power_ctx(), range(5)) == Fraction(1, 32)
        assert min_mean_cycle_valuation(unit_ctx(), (0,)) == INF

    def test_min_mean_cycle_sees_a_cycle_its_least_vertex_cannot_reach(self):
        # Inside K = {0, 2, 3} vertex 0 has no edge, so walks from 0 alone
        # never meet the cycle 2-3, whose edge valuations are 0.
        ctx = split_ctx()
        assert min_mean_cycle_valuation(ctx, (0, 2, 3)) == 0
        assert min_mean_cycle_valuation(ctx, (2, 3)) == 0
        assert min_mean_cycle_valuation(ctx, (0, 3)) == INF
        assert restricted_decay_certificate(ctx, (0, 2, 3)) is None

    def test_series_on_a_split_restriction_is_not_certified_convergent(self):
        report = series(split_ctx(), 2, 2, 6, restrict=(0, 2, 3))
        assert report.term_valuations == (0, INF, 0, INF, 0, INF, 0)
        assert report.trend["convergent"] is False
        assert report.certificate.to_json() == {
            "type": "nonvanishing_rational_bound", "vertex": 2, "power": 2, "bound": "1/2",
        }

    @pytest.mark.parametrize("index", range(17))
    def test_min_mean_cycle_matches_closed_walks(self, index):
        # Every subset of a ball (64 drawn from the larger balls), many of
        # them not connected.
        ctx = TransitionContext(reference_graphs()[index])
        ball = ctx.graph.ball(0, 5)
        subsets = [K for size in range(1, len(ball) + 1) for K in combinations(ball, size)]
        if len(subsets) > 64:
            subsets = random.Random(index).sample(subsets, 64)
        for K in subsets:
            assert min_mean_cycle_valuation(ctx, K) == least_closed_walk_mean(ctx, K), K

    def test_rates_on_integer_exponents_are_exact_fractions(self):
        # Edge valuations on the triangle b(0,1) = 1, b(1,2) = e, b(0,2) =
        # e^2: 1 -> 2 costs 1 and 2 -> 1 costs 0, so inside {1, 2} the least
        # cycle mean is 1/2.  Integral valuations are ints; no mean is a float.
        ctx = TransitionContext(make_explicit(3, [(0, 1, ONE), (1, 2, EPS), (0, 2, EPS * EPS)]))
        rates = [
            min_mean_cycle_valuation(ctx, (1, 2)),
            restricted_decay_certificate(ctx, (1, 2)).rate,
            full_decay_certificate(growing_ctx()).rate,
        ]
        assert rates == [Fraction(1, 2)] * 3
        assert {type(rate) for rate in rates} == {Fraction}
        assert min_mean_cycle_valuation(ctx, (0, 1, 2)) == 0

    def test_restricted_certificate(self):
        assert restricted_decay_certificate(half_power_ctx(), range(5)) is not None
        assert restricted_decay_certificate(unit_ctx(), range(5)) is None

    def test_full_certificate_on_growing_weights(self):
        assert full_decay_certificate(growing_ctx()) is not None
        assert full_decay_certificate(unit_ctx()) is None
        assert full_decay_certificate(TransitionContext(make_path(MonomialRule()))) is None

    def test_nonvanishing_bound(self):
        cert = nonvanishing_certificate(two_flat_then_growing(), 0)
        assert cert is not None
        assert cert.power == 2 and cert.bound == Fraction(1, 2)

    def test_unit_path_power_bound(self):
        cert = nonvanishing_certificate(unit_ctx(), 0)
        assert cert is not None and cert.bound >= Fraction(1, 4)

    def test_nonvanishing_bound_over_rational_functions_and_reals(self):
        # b(k,k+1) = k! r^k gives P^2(0,0) = 1/(1+r): standard part 1, which
        # lies above the element, so the certified bound is 1/2; at r = 1/2
        # the real value 2/3 is exact.
        graph = make_path(FactorialMonomialRule(), field=RFElement)
        cert = nonvanishing_certificate(TransitionContext(graph), 0)
        assert cert.power == 2 and cert.bound == Fraction(1, 2)
        real_path = make_path(
            ExplicitListRule(tuple(str(Fraction(math.factorial(k), 2**k)) for k in range(8)))
        )
        cert = nonvanishing_certificate(TransitionContext(real_path), 0)
        assert cert.power == 2 and cert.bound == Fraction(2, 3)


class TestNeumann:
    def test_telescoping_identity(self):
        # sum_{n<=N} P^n - sum_{n<=N} P^{n+1} = I - P^{N+1}, elementwise.
        ctx = growing_ctx()
        N = 6
        for x, y in ((0, 0), (0, 1), (1, 1)):
            powers = transition_powers(ctx, x, y, N + 1)
            lhs = ctx.field.zero()
            for n in range(N + 1):
                lhs = lhs + powers[n] - powers[n + 1]
            identity = ONE if x == y else LCElement.zero()
            assert lhs.indistinguishable(identity - powers[N + 1])

    def test_growing_weights_partial_sums_approach_green_value(self):
        # m = b: G(0,0) = m(0)/cap(0) = 1/(1-eps); tail valuations grow.
        ctx = growing_ctx()
        target = (ONE - EPS).inv()
        with precision(window=12):
            report = series(ctx, 0, 0, 10)
            diff = report.partial_sum - target
        assert diff.valuation >= 3
        assert report.trend["convergent"] is True

    def test_unit_path_reports_nonconvergence(self):
        report = series(unit_ctx(), 0, 0, 8)
        assert report.trend["convergent"] is False
        assert report.certificate.to_json()["type"] == "nonvanishing_rational_bound"

    def test_inverse_check_on_decaying_restriction(self):
        ctx = half_power_ctx()
        with precision(window=3, max_terms=24):
            report = neumann_inverse_check(ctx, range(3), {0: ONE})
        assert report.ok

    def test_inverse_check_refused_without_certificate(self):
        with pytest.raises(ConvergenceNotCertifiedError):
            neumann_inverse_check(unit_ctx(), range(4), {0: ONE})

    def test_singleton_inverse(self):
        # K = {a} with m = b: Delta_K^{-1} 1_a (a) = 1 and the series is P^0.
        ctx = unit_ctx()
        report = neumann_inverse_check(ctx, (0,), {0: ONE})
        assert report.ok and report.N_used == 1

    @pytest.mark.parametrize("name", ["ex8", "ex9"])
    def test_inverse_check_over_rational_functions(self, name):
        graph, _ = build_graph(load_spec(name))
        ctx = TransitionContext(graph)
        one = ctx.field.one()
        for K in ((0,), (2,)):
            report = neumann_inverse_check(ctx, K, {K[0]: one})
            assert report.ok and report.N_used == 1 and report.rate == INF
        for K in ((1, 2), (3, 4)):
            report = neumann_inverse_check(ctx, K, {K[0]: one})
            assert report.ok and report.rate == Fraction(1, 2)
            assert all(v >= 2 for v in report.difference_valuations.values())

    def test_series_applies_p_once_per_power(self, monkeypatch):
        # The powers take P^1..P^4 e_0; the non-decay search hits at power 2
        # and builds its own column of 0 up to there.
        applied = []
        apply = transition._apply

        def counting_apply(*args):
            applied.append(args)
            return apply(*args)

        monkeypatch.setattr(transition, "_apply", counting_apply)
        ctx = unit_ctx()
        powers = transition_powers(ctx, 0, 0, 4)
        assert len(applied) == 4
        applied.clear()
        report = neumann_partial(ctx, 0, 0, powers)
        assert report.certificate.power == 2
        assert len(applied) == 2


class TestNonDecaySearch:
    """The min-plus walk recurrence gives the valuation of every return
    probability without building a column."""

    @pytest.mark.parametrize("index", range(17))
    def test_walk_valuations_are_return_valuations(self, index):
        graph = reference_graphs()[index]
        for config in (BASE_CONFIG, PrecisionConfig()):
            with precision(config):
                ctx = TransitionContext(graph)
                for x0 in ctx.graph.ball(0, 2):
                    for restrict in (None, ctx.graph.ball(x0, 2), ctx.graph.ball(x0, 3)):
                        # Closed walks of at most 8 edges stay within distance 4.
                        inside = set(ctx.graph.ball(x0, 5))
                        if restrict is not None:
                            inside &= set(restrict)
                        rows = islice(transition._walk_valuations(ctx, (x0,), inside), 9)
                        powers = transition_powers(ctx, x0, x0, 8, restrict)
                        for row, element in zip(rows, powers):
                            least = row.get(x0, INF)
                            assert least == element.valuation
                            exact_zero = not element and element.guarantee == INF
                            assert (least == INF) == exact_zero

    @pytest.mark.parametrize(
        "spec",
        [
            "ex5",
            {"kind": "spherical", "weights": {"rule": "eps_pow_neg_k"},
             "sphere_sizes": {"rule": "pow", "base": 2}},
        ],
        ids=["ex5", "growing-spheres"],
    )
    @pytest.mark.parametrize("N", [2, 3])
    def test_series_without_a_zero_valuation_return_builds_no_column(self, spec, N, monkeypatch):
        # No return probability has valuation 0, so the search builds no
        # column: every application is one of the N powers of the sum.
        applied = []
        apply = transition._apply

        def counting_apply(*args):
            applied.append(args)
            return apply(*args)

        monkeypatch.setattr(transition, "_apply", counting_apply)
        graph, config = build_graph(load_spec(spec) if isinstance(spec, str) else spec)
        with precision(config):
            ctx = TransitionContext(graph)
            powers = transition_powers(ctx, 0, 0, N)
            assert len(applied) == N
            applied.clear()
            report = neumann_partial(ctx, 0, 0, powers)
        assert report.certificate is None
        assert applied == []


class TestCost:
    @pytest.mark.parametrize("name", ["ex1", "ex5", "ex7"])
    def test_one_application_multiplies_by_weights_and_divides_once(self, name, monkeypatch):
        # Every product has an edge weight as one operand, never two long
        # series, and every target vertex costs one division.
        ctx = TransitionContext(build_graph(load_spec(name))[0])
        f = {0: transition_powers(ctx, 0, 0, 4)[4]}
        assert max(len(value.terms) for value in f.values()) > 1
        products, divisions = [], []
        mul, div = LCElement.__mul__, LCElement.__truediv__

        def counting_mul(x, y):
            products.append((len(x.terms), len(y.terms)))
            return mul(x, y)

        def counting_div(x, y):
            divisions.append(y)
            return div(x, y)

        monkeypatch.setattr(LCElement, "__mul__", counting_mul)
        monkeypatch.setattr(LCElement, "__truediv__", counting_div)
        out = transition._apply(ctx, f, None)
        monkeypatch.undo()
        widest = max(len(w.terms) for z in out for w in ctx.graph.neighbors(z).values())
        assert products
        assert all(min(pair) <= widest for pair in products), (widest, products)
        assert len(divisions) == len(out)
        assert divisions == [ctx.graph.degree_weight(z) for z in sorted(out)]


class TestLightCone:
    """Up to power N a column is formed only on the light cone of x: f_k on
    the vertices within distance N - k of x."""

    @staticmethod
    def divisions(monkeypatch, call):
        counted = []
        div = LCElement.__truediv__

        def counting_div(a, b):
            counted.append(b)
            return div(a, b)

        monkeypatch.setattr(LCElement, "__truediv__", counting_div)
        result = call()
        monkeypatch.undo()
        return result, len(counted)

    @pytest.mark.parametrize(
        "name, x, y, N, expected",
        [
            # On a path, f_k lives on the vertices of the parity of y - k
            # within distance N - k of x: 1 + 2 + 1 + 1 for P^4(0, 0).
            ("ex1", 0, 0, 4, 5),
            ("ex1", 0, 2, 4, 6),
            ("ex7", 0, 3, 7, 14),
        ],
    )
    def test_one_division_per_vertex_of_the_cone(self, name, x, y, N, expected, monkeypatch):
        graph, config = build_graph(load_spec(name))
        with precision(config):
            powers, count = self.divisions(
                monkeypatch, lambda: transition_powers(TransitionContext(graph), x, y, N)
            )
            assert powers == reference_transition_powers(TransitionContext(graph), x, y, N)
        assert count == expected

    @pytest.mark.parametrize("name", ["ex1", "ex5", "ex7"])
    def test_a_reused_context_costs_what_a_fresh_one_costs(self, name, monkeypatch):
        # A context keeps no column: each call builds its own, with the
        # values and the divisions of a call on a fresh context.
        graph, config = build_graph(load_spec(name))
        with precision(config):
            ctx = TransitionContext(graph)
            for N in (4, 2, 6, 3, 7):
                powers, count = self.divisions(
                    monkeypatch, lambda: transition_powers(ctx, 0, 1, N)
                )
                fresh, fresh_count = self.divisions(
                    monkeypatch, lambda: transition_powers(TransitionContext(graph), 0, 1, N)
                )
                assert powers == fresh
                assert count == fresh_count > 0
            restricted = transition_powers(ctx, 0, 1, 9, restrict=range(4))
            fresh = transition_powers(TransitionContext(graph), 0, 1, 9, restrict=range(4))
            assert restricted == fresh

    @pytest.mark.parametrize(
        "argv, expected",
        [
            # One column up to power 6 serves P^4 and the partial sum; the
            # restriction certifies decay, so no search runs.
            ("transition --spec ex2 --x 0 --y 0 --n 4 --series 6 --restrict 3", 9),
            # The powers up to 3 of the sum include P^2; no return has
            # valuation 0, so the search builds nothing.
            ("transition --spec ex5 --x 0 --y 0 --n 2 --series 3", 2),
            # The search builds its own column of 0 up to power 2.
            ("transition --spec ex7 --x 0 --y 0 --n 4 --series 4", 7),
        ],
    )
    def test_a_report_builds_one_column(self, argv, expected, monkeypatch):
        _, count = self.divisions(monkeypatch, lambda: main(argv.split()))
        assert count == expected

    @pytest.mark.parametrize("max_product", [False, True])
    def test_a_target_outside_the_cone_forms_nothing(self, max_product):
        # P^2(0, y) and Pi^2(0, y) vanish for y > 2, and the walk is never
        # started from y, so the path is materialized up to level 3 only.
        ctx = unit_ctx()
        levels = ctx.graph._structure._starts
        if max_product:
            result = pi_element(ctx, 0, 1000, 2)
            assert result.value == LCElement.zero() and result.path is None
        else:
            assert transition_powers(ctx, 0, 1000, 2) == [LCElement.zero()] * 3
        assert len(levels) <= 5

    def test_max_product_stays_on_the_cone(self, monkeypatch):
        # Pi^4(0, 2) on ex1 forms the states 1, 3; 0, 2; 1; 0 only.
        graph, config = build_graph(load_spec("ex1"))
        with precision(config):
            result, count = self.divisions(
                monkeypatch, lambda: pi_element(TransitionContext(graph), 0, 2, 4)
            )
            value, path = reference_pi_element(TransitionContext(graph), 0, 2, 4, None)
        assert result.path == path and result.value == value
        assert count == 6


class TestConsistencyWithCapacity:
    def test_full_decay_cooccurs_with_positive_capacity(self):
        from nacap.capacity import POSITIVE, classify

        ctx = growing_ctx()
        assert full_decay_certificate(ctx) is not None
        assert classify(ctx.graph, 0).kind == POSITIVE

    def test_restricted_decay_cooccurs_with_not_null(self):
        from nacap.capacity import NULL, classify

        ctx = half_power_ctx()
        for top in (2, 3, 5):
            assert restricted_decay_certificate(ctx, range(top)) is not None
        assert classify(ctx.graph, 0).kind != NULL

    def test_decay_rate_is_pair_independent(self):
        # The restricted certificate covers every pair: valuations grow for
        # each of them at the certified rate.
        ctx = half_power_ctx()
        L = range(4)
        with precision(window=2, max_terms=16):
            for x, y in ((0, 0), (1, 1), (0, 1)):
                powers = transition_powers(ctx, x, y, 16, restrict=L)
                vals = [p.valuation for p in powers if p.terms]
                assert vals[-1] > vals[0]
                assert all(a <= b for a, b in zip(vals, vals[1:]))


def reference_graphs():
    rng = random.Random(20261018)
    graphs = [random_graph(rng) for _ in range(6)]
    graphs += [build_graph(load_spec(f"ex{i}"))[0] for i in range(1, 10)]
    # Finite spherical graphs: consecutive spheres are joined completely.
    growing = ExplicitListRule(("1", "1*e^(-1)", "1*e^(-2)", "1*e^(-3)"))
    graphs.append(make_spherical(SphericalProfile(growing, ListSize((1, 2, 4, 3, 1)))))
    mixed = ExplicitListRule(("1", "1*e^(1)", "2", "1*e^(1/2)"))
    graphs.append(make_spherical(SphericalProfile(mixed, ListSize((1, 3, 2, 3, 1)))))
    return graphs


def assert_refines(new, ref):
    """``new`` certifies at least what ``ref`` does, with the same terms
    below the reference guarantee; exact Q(r) elements are equal."""
    if isinstance(ref, RFElement):
        assert new == ref
    else:
        assert_lc_refines(new, ref)


def assert_all_refine(computed, expected):
    assert len(computed) == len(expected)
    for element, reference in zip(computed, expected):
        assert_refines(element, reference)


class TestAgainstReference:
    """Powers, partial sums and max-path products on one context refine
    what the per-edge, from-scratch reference computes, whatever the order
    of calls, and give the same certificates and witness paths."""

    @pytest.mark.parametrize("index", range(17))
    def test_interleaved_calls_match_reference(self, index):
        graph = reference_graphs()[index]
        rng = random.Random(index)
        with precision(BASE_CONFIG):
            ctx = TransitionContext(graph)
            fresh = TransitionContext(graph)
            calls = []
            for restrict in (None, ctx.graph.ball(0, 2), ctx.graph.ball(0, 3)):
                vertices = restrict or ctx.graph.ball(0, 3)
                for x, y in iproduct(vertices, vertices):
                    calls.append(("powers", x, y, rng.randint(0, 8), restrict))
                    calls.append(("series", x, y, rng.randint(0, 8), restrict))
                    calls.append(("max", x, y, rng.randint(0, 6), restrict))
                for x in vertices:
                    calls.append(("certificate", x, x, 8, restrict))
            rng.shuffle(calls)
            zero = ctx.field.zero()
            columns, bounds = {}, {}
            for kind, x, y, N, restrict in calls:
                if kind == "max":
                    result = pi_element(ctx, x, y, N, restrict)
                    value, path = reference_pi_element(fresh, x, y, N, restrict)
                    assert_refines(result.value, value)
                    assert result.path == path
                    continue
                # The reference iterates from scratch, so its powers up to N
                # are the first N + 1 of its powers up to 8.
                if (y, restrict) not in columns:
                    columns[y, restrict] = reference_column(fresh, y, 8, restrict)
                expected = [f.get(x, zero) for f in columns[y, restrict][: N + 1]]
                if kind == "powers":
                    assert_all_refine(transition_powers(ctx, x, y, N, restrict), expected)
                    continue
                if (x, restrict) not in columns:
                    columns[x, restrict] = reference_column(fresh, x, 8, restrict)
                if (x, restrict) not in bounds:
                    returns = [f.get(x, zero) for f in columns[x, restrict]]
                    bounds[x, restrict] = reference_nonvanishing_certificate(fresh, x, returns)
                bound = bounds[x, restrict]
                if kind == "certificate":
                    assert nonvanishing_certificate(ctx, x, restrict=restrict) == bound
                    continue
                report = series(ctx, x, y, N, restrict)
                total = zero
                for element in expected:
                    total = total + element
                assert_refines(report.partial_sum, total)
                if restrict is not None:
                    decay = restricted_decay_certificate(fresh, restrict)
                else:
                    decay = full_decay_certificate(fresh)
                assert report.certificate == (decay or bound)

    def test_large_power_first_then_small(self):
        ctx = half_power_ctx()
        fresh = half_power_ctx()
        with precision(window=4, max_terms=32):
            expected = reference_transition_powers(fresh, 1, 0, 8)
            assert_all_refine(transition_powers(ctx, 1, 0, 8), expected)
            reference = reference_transition_powers(fresh, 0, 0, 2)[2]
            assert_refines(transition_powers(ctx, 0, 0, 2)[2], reference)
            returns = reference_transition_powers(fresh, 0, 0, 8)
            bound = reference_nonvanishing_certificate(fresh, 0, returns)
            assert nonvanishing_certificate(ctx, 0) == bound
            assert_all_refine(transition_powers(ctx, 0, 0, 3), returns[:4])
