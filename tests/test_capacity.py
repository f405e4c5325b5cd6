"""Capacity sequences, classification certificates, Nash-Williams, bridge."""

import os
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from nacap import dirichlet
from nacap.errors import HorizonExhaustedError, PreconditionError, SpecFileError
from nacap.field import INF, LCElement, precision
from nacap.ratfunc import RFElement
from nacap.graphs import (
    FIELDS,
    ConstantRule,
    ExplicitListRule,
    FactorialMonomialRule,
    HalfPowerRule,
    ListSize,
    MonomialRule,
    PeriodicRule,
    PowerSize,
    SphericalProfile,
    Trend,
    WeightedGraph,
    make_explicit,
    make_path,
    make_spherical,
)
from nacap.specfile import build_graph, load_spec, parse_weight_rule
from nacap.capacity import (
    DIVERGENT,
    NULL,
    POSITIVE,
    CapacitySequence,
    capacity_sequence,
    classify,
    monotone_compare,
    nash_williams,
    real_sweep,
)

from capacity_reference import (
    path_series_capacity,
    per_ball_capacity_sequence,
    per_ball_monotone_compare,
    per_ball_nash_williams,
    per_r_real_sweep,
)
from prop_suites import random_graph
import matrix_reference

ONE = LCElement.one()
EPS = LCElement.monomial(1, 1)


def decaying_path():
    return make_path(MonomialRule())  # b(k, k+1) = eps^k


def growing_path():
    return make_path(MonomialRule(slope=-1))  # b(k, k+1) = eps^-k


def unit_path():
    return make_path(ConstantRule(1))


def geometric_sum(n):
    total = LCElement.zero()
    for k in range(n):
        total = total + LCElement.monomial(1, k)
    return total


class TestCapacitySequence:
    def test_decaying_weights_closed_form(self):
        # cap_n(0) = eps^(n-1) * (sum_{k<n} eps^k)^(-1); valuation n-1.
        seq = capacity_sequence(decaying_path(), 0, 8)
        for n, cap in enumerate(seq.values, start=1):
            expected = LCElement.monomial(1, n - 1) * geometric_sum(n).inv()
            assert cap.indistinguishable(expected)
            assert cap.valuation == n - 1

    def test_unit_path_harmonic(self):
        seq = capacity_sequence(unit_path(), 0, 10)
        for n, cap in enumerate(seq.values, start=1):
            assert cap == LCElement.rational(Fraction(1, n))

    def test_growing_weights_converges(self):
        seq = capacity_sequence(growing_path(), 0, 8)
        for n, cap in enumerate(seq.values, start=1):
            assert cap.indistinguishable(geometric_sum(n).inv())
        # Differences shrink: valuations increase.
        assert list(seq.difference_valuations) == sorted(seq.difference_valuations)

    def test_series_law_oracle_agrees_with_elimination(self):
        for graph in (decaying_path(), growing_path(), unit_path()):
            for n in (1, 2, 4, 6):
                cap = capacity_sequence(graph, 0, n).values[-1]
                assert cap.indistinguishable(path_series_capacity(graph, 0, n))


class TestClassifyByTrend:
    def test_decaying_is_null(self):
        verdict = classify(decaying_path(), 0)
        assert verdict.kind == NULL
        assert verdict.certificate.trend_kind == "to_zero"

    def test_growing_is_positive_with_exact_limit(self):
        verdict = classify(growing_path(), 0)
        assert verdict.kind == POSITIVE
        assert verdict.limit.indistinguishable(ONE - EPS)
        assert verdict.limit.terms == (ONE - EPS).terms

    def test_constant_is_divergent(self):
        verdict = classify(unit_path(), 0)
        assert verdict.kind == DIVERGENT
        assert verdict.certificate.lower == ONE
        assert verdict.certificate.upper == ONE

    def test_half_power_is_divergent_bounded_between_eps_and_one(self):
        verdict = classify(make_path(HalfPowerRule()), 0)
        assert verdict.kind == DIVERGENT
        assert verdict.certificate.lower == EPS
        assert verdict.certificate.upper == ONE

    def test_factorial_weights_null(self):
        verdict = classify(make_path(FactorialMonomialRule()), 0)
        assert verdict.kind == NULL

    def test_inverted_factorial_weights_positive(self):
        verdict = classify(make_path(FactorialMonomialRule(invert=True)), 0)
        assert verdict.kind == POSITIVE

    def test_limit_matches_capacity_sequence(self):
        # cap_n approaches the formula limit: the difference has valuation n,
        # and once that leaves the window the two become indistinguishable.
        verdict = classify(growing_path(), 0)
        seq = capacity_sequence(growing_path(), 0, 12)
        for n, cap in enumerate(seq.values, start=1):
            assert (cap - verdict.limit).valuation == n
        far = capacity_sequence(growing_path(), 0, 34).values[-1]
        assert far.indistinguishable(verdict.limit)

    def test_spherical_graph_profile(self):
        profile = SphericalProfile(MonomialRule(slope=-1), PowerSize(2))
        verdict = classify(make_spherical(profile), 0)
        assert verdict.kind == POSITIVE
        # limit = (sum_k 1/(2^k eps^-k))^(-1) = (sum (eps/2)^k)^(-1) = 1 - eps/2
        assert verdict.limit.indistinguishable(ONE - LCElement.monomial(Fraction(1, 2), 1))

    @pytest.mark.parametrize(
        "graph",
        [
            lambda: build_graph(load_spec("ex9"))[0],
            lambda: make_path(MonomialRule(slope=-1), field=RFElement),
            lambda: make_spherical(
                SphericalProfile(MonomialRule(slope=-1), PowerSize(2)), field=RFElement
            ),
        ],
        ids=["ex9", "monomial-path", "monomial-spheres"],
    )
    def test_positive_limit_over_rational_functions_is_refused(self, graph):
        # ex9 has b(k, k+1) = 1/(k! r^k): its limit (sum k! r^k)^{-1} is no
        # element of Q(r), and Q(r) cannot truncate a series.
        for root in (0, 3):
            with pytest.raises(PreconditionError, match="not an element of Q\\(r\\)"):
                classify(graph(), root)

    def test_verdict_is_read_at_the_profile_root(self):
        for graph in (decaying_path(), growing_path(), unit_path()):
            assert classify(graph, 3) == classify(graph, 0)
            assert classify(graph, 3).root == 0


class TestNashWilliams:
    def test_decaying_path_certificate(self):
        cert = nash_williams(decaying_path(), 0, 10)
        assert cert is not None
        assert cert.provable
        assert list(cert.valuations) == sorted(set(cert.valuations))
        assert cert.valuations[0] == 0 and cert.valuations[-1] == 9

    def test_unit_path_no_certificate(self):
        assert nash_williams(unit_path(), 0, 10) is None

    def test_half_power_no_certificate(self):
        assert nash_williams(make_path(HalfPowerRule()), 0, 10) is None

    def test_certificate_at_other_roots(self):
        for root in (0, 1, 3):
            cert = nash_williams(decaying_path(), root, 10)
            assert cert is not None and cert.provable

    @pytest.mark.parametrize(
        "make_graph, N",
        [
            (lambda: build_graph(load_spec("ex1")), 10),
            (lambda: build_graph(load_spec("ex8")), 12),
            (lambda: (growing_spheres(), None), 8),
        ],
        ids=["ex1", "ex8", "growing-spheres"],
    )
    def test_no_field_arithmetic(self, monkeypatch, make_graph, N):
        # The first call lists the neighbours, and building a layered
        # graph's edges divides and checks signs; the counted one reads
        # only valuations.
        graph, config = make_graph()
        with precision(config):
            first = nash_williams(graph, 0, N)
            calls = []
            for cls, name in [
                (LCElement, "__add__"),
                (RFElement, "__add__"),
                (LCElement, "sign"),
                (RFElement, "sign"),
            ]:
                method = getattr(cls, name)

                def counting(*args, _method=method):
                    calls.append(_method)
                    return _method(*args)

                monkeypatch.setattr(cls, name, counting)
            assert nash_williams(graph, 0, N) == first
        assert calls == []


class TestClassifyWithoutTrend:
    def test_rational_explicit_graph_is_null_by_saturation(self):
        g = make_explicit(
            4,
            [(0, 1, ONE), (1, 2, LCElement.rational(Fraction(1, 3))), (2, 3, ONE)],
        )
        verdict = classify(g, 2)
        assert verdict.kind == NULL and verdict.root == 2
        assert verdict.certificate.to_json() == {"type": "saturation", "radius": 3}

    @pytest.mark.parametrize(
        "graph, radius",
        [
            (lambda: make_path(ExplicitListRule(("1", "1*e^(1)", "2"))), 4),
            (
                lambda: make_path(ExplicitListRule(("1", "1*e^(1)"), ExplicitListRule(("9", "9", "2")))),
                4,
            ),
            (
                lambda: make_spherical(
                    SphericalProfile(ExplicitListRule(("1", "1*e^(1)", "2")), ListSize((1, 2, 3, 2)))
                ),
                4,
            ),
        ],
        ids=["path", "nested-tail", "spheres"],
    )
    def test_finite_list_is_null_without_a_solve(self, graph, radius, monkeypatch):
        solves = count_solves(monkeypatch)
        verdict = classify(graph(), 0)
        assert verdict.kind == NULL
        assert verdict.certificate.to_json() == {"type": "saturation", "radius": radius}
        assert solves == []

    @pytest.mark.parametrize("field", ["levi-civita", "rational-function"])
    @pytest.mark.parametrize("name", matrix_reference.SPEC_FILES)
    def test_every_finite_spec_is_null_by_saturation_at_every_root(self, name, field, monkeypatch):
        # The ball of the saturation radius holds every vertex, so the
        # capacity sequence stops there, at the exact 0.
        spec = load_spec(os.path.join(matrix_reference.SPECS, f"{name}.json"))
        graph, config = build_graph({**spec, "field": field})
        solves = count_solves(monkeypatch)
        with precision(config):
            verdicts = [classify(graph, root) for root in range(graph.vertex_count)]
            assert solves == []
            for root, verdict in enumerate(verdicts):
                assert verdict.kind == NULL and verdict.root == root
                radius = verdict.certificate.radius
                assert radius == len(list(graph.spheres(root)))
                values = capacity_sequence(graph, root, radius + 2).values
                assert len(values) == radius
                assert values[-1] == graph.field.zero() and values[-1].guarantee == INF


class TestEveryVerdictIsCertified:
    """Every weight rule a spec can name has a trend or ends the graph, so
    classify never runs out of certificates."""

    @pytest.mark.parametrize("field", sorted(FIELDS))
    @pytest.mark.parametrize(
        "data",
        [
            pytest.param({"rule": "eps_pow_k", "slope": 2}, id="eps_pow_k"),
            pytest.param({"rule": "eps_pow_k", "slope": 0, "coeff": 3}, id="eps_pow_k-flat"),
            pytest.param({"rule": "eps_pow_neg_k"}, id="eps_pow_neg_k"),
            pytest.param({"rule": "const", "value": 2}, id="const"),
            pytest.param({"rule": "factorial_eps"}, id="factorial_eps"),
            pytest.param({"rule": "factorial_eps", "slope": 0, "invert": True}, id="factorial_eps-flat"),
            pytest.param({"rule": "eps_pow_half_pow_k"}, id="eps_pow_half_pow_k"),
            pytest.param({"rule": "periodic", "values": ["1", "1*e^(1)"]}, id="periodic"),
            pytest.param({"rule": "custom_list", "values": ["1", "2"]}, id="custom_list"),
            pytest.param(
                {"rule": "custom_list", "values": ["1"], "tail": {"rule": "const"}},
                id="custom_list-tail",
            ),
            pytest.param(
                {"rule": "custom_list", "values": ["1"], "tail": {"rule": "custom_list", "values": ["2"]}},
                id="custom_list-finite-tail",
            ),
            pytest.param(["1", "1*e^(1)"], id="literal-list"),
        ],
    )
    def test_every_spec_rule_has_a_trend_or_ends(self, data, field):
        rule = parse_weight_rule(data)
        has_trend = rule.trend(FIELDS[field]).kind != Trend.UNKNOWN
        assert has_trend or getattr(rule, "edge_count", None) is not None

    @pytest.mark.parametrize("name", matrix_reference.FIXTURES)
    def test_every_spec_gets_a_certified_verdict(self, name):
        if name in matrix_reference.SPEC_FILES:
            name = os.path.join(matrix_reference.SPECS, f"{name}.json")
        graph, config = build_graph(load_spec(name))
        with precision(config):
            for root in range(3):
                try:
                    verdict = classify(graph, root)
                except PreconditionError as err:
                    # The positive limit over Q(r) is a series, no element.
                    assert graph.field is RFElement
                    assert "not an element of Q(r)" in str(err)
                    continue
                assert verdict.kind in (NULL, POSITIVE, DIVERGENT)

    def test_a_rule_without_a_trend_or_an_end_violates_an_invariant(self):
        class EndlessRule(ConstantRule):
            def trend(self, field):
                return Trend(Trend.UNKNOWN)

        with pytest.raises(AssertionError, match="must end the graph"):
            classify(make_path(EndlessRule()), 0)


class TestMonotoneCompare:
    def test_doubling_weights(self):
        base = unit_path()
        doubled = make_path(ConstantRule(2))
        orderings = monotone_compare(base, doubled, 0, 5)
        assert all(o <= 0 for o in orderings)
        # cap'_n = 2 cap_n exactly (bilinearity of the energy).
        for n in range(1, 6):
            cap = capacity_sequence(base, 0, n).values[-1]
            cap2 = capacity_sequence(doubled, 0, n).values[-1]
            assert cap2.indistinguishable(cap * LCElement.rational(2))

    def test_equal_graphs(self):
        assert monotone_compare(unit_path(), unit_path(), 0, 4) == [0, 0, 0, 0]

    def test_eps_scaling_lower_bound(self):
        # b = eps * 1_{b' != 0} with b' unit: cap_n >= eps * cap'_n.
        scaled = make_path(ConstantRule(1).__class__(constant=1))
        eps_path = make_path(PeriodicRule(("1*e^(1)",)))
        orderings = monotone_compare(eps_path, scaled, 0, 5)
        assert all(o <= 0 for o in orderings)
        for n in range(1, 6):
            cap_eps = capacity_sequence(eps_path, 0, n).values[-1]
            cap_unit = capacity_sequence(scaled, 0, n).values[-1]
            assert cap_eps.indistinguishable(cap_unit * EPS)

    def test_precondition_violation(self):
        with pytest.raises(PreconditionError):
            monotone_compare(unit_path(), make_path(PeriodicRule(("1*e^(1)",))), 0, 4)


SWEEP_R_LISTS = (
    [Fraction(1, 2)],
    [Fraction(1, 3)],
    [Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)],
    [Fraction(3, 2), Fraction(5)],
)


# Rational-function graphs other than the bundled paths: a finite path, the
# growing spheres of b_plus(k) = k! r^k with 2^k vertices at level k, and an
# explicit graph with a cycle.
def rf_finite_path():
    return make_path(ExplicitListRule(("1 + 1*e^(1)", "2", "1*e^(2)")), field=RFElement)


def rf_growing_spheres():
    profile = SphericalProfile(FactorialMonomialRule(), PowerSize(2))
    return make_spherical(profile, field=RFElement)


def rf_explicit():
    edges = (
        (0, 1, "1 + 1*e^(1)"),
        (1, 2, "2*e^(-1)"),
        (2, 0, "1*e^(2)"),
        (2, 3, "3"),
        (3, 4, "1 + 2*e^(1)"),
    )
    return make_explicit(
        5, [(x, y, RFElement.from_literal(w)) for x, y, w in edges], field=RFElement
    )


class TestRealSweep:
    def test_factorial_weights_partial_sums(self):
        # b_r(k, k+1) = k! r^k: cap_{N,r}(0) = (sum_{k<N} r^-k / k!)^{-1}.
        graph = make_path(FactorialMonomialRule(), field=RFElement)
        table = real_sweep(graph, 0, 3, [Fraction(1, 2)], 25)
        expected = 1 / sum(Fraction(2**k, __import__("math").factorial(k)) for k in range(25))
        assert table.rows[0].capacity == expected
        assert abs(float(table.rows[0].capacity) - float(2.718281828459045**-2)) < 1e-6

    def test_inverted_factorial_capacity_shrinks(self):
        graph = make_path(
            FactorialMonomialRule(invert=True), field=RFElement
        )
        caps = [
            real_sweep(graph, 0, 0, [Fraction(1, 2)], N).rows[0].capacity
            for N in (4, 8, 12, 15)
        ]
        assert caps == sorted(caps, reverse=True)
        assert float(caps[-1]) < 1e-6

    def test_nonpositive_weight_rejected(self):
        from nacap.errors import NonpositiveWeightError
        from nacap.graphs import ExplicitListRule

        graph = make_path(
            ExplicitListRule(("1 - 2*e^(1)",), tail=MonomialRule()),
            field=RFElement,
        )
        with pytest.raises(NonpositiveWeightError, match=r"edge \(0,1\) is -1/2 <= 0 at r = 3/4"):
            real_sweep(graph, 0, 0, [Fraction(3, 4)], 2)

    def test_refusals_come_in_order(self):
        # Every r is checked first, then the field, then the root.
        series_path = make_path(MonomialRule())
        with pytest.raises(PreconditionError, match="r = -1 must be positive"):
            real_sweep(series_path, 9, 0, [Fraction(1, 2), -1], 3)
        with pytest.raises(SpecFileError, match="^real-sweep needs a rational-function graph$"):
            real_sweep(series_path, 9, 0, [Fraction(1, 2)], 3)
        with pytest.raises(HorizonExhaustedError, match="root vertex 9 outside the graph"):
            real_sweep(rf_finite_path(), 9, 0, [Fraction(1, 2)], 3)

    @pytest.mark.parametrize("name", ["ex8", "ex9"])
    @pytest.mark.parametrize("root", [0, 2])
    def test_one_solve_agrees_with_an_elimination_per_r_on_the_fixtures(self, name, root):
        graph, _ = build_graph(load_spec(name))
        for N in range(1, 13):
            for r_values in SWEEP_R_LISTS:
                assert real_sweep(graph, root, 3, r_values, N) == per_r_real_sweep(
                    graph, root, 3, r_values, N
                )

    @pytest.mark.parametrize(
        "make_graph, root, max_horizon",
        [
            (rf_finite_path, 0, 6),
            (rf_finite_path, 3, 6),
            (rf_growing_spheres, 0, 4),
            (rf_explicit, 0, 5),
            (rf_explicit, 4, 5),
        ],
        ids=["path-0", "path-3", "spheres", "explicit-0", "explicit-4"],
    )
    def test_one_solve_agrees_with_an_elimination_per_r(self, make_graph, root, max_horizon):
        graph = make_graph()
        for N in range(1, max_horizon + 1):
            for r_values in SWEEP_R_LISTS:
                assert real_sweep(graph, root, 0, r_values, N) == per_r_real_sweep(
                    graph, root, 0, r_values, N
                )

    def test_a_sweep_eliminates_the_ball_once(self, monkeypatch):
        solves = []
        solve_system = dirichlet._solve_system

        def counted(*args):
            solves.append(args)
            return solve_system(*args)

        monkeypatch.setattr(dirichlet, "_solve_system", counted)
        graph, _ = build_graph(load_spec("ex8"))
        table = real_sweep(graph, 0, 3, [Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)], 6)
        assert len(table.rows) == 3 and len(solves) == 1



def count_solves(monkeypatch):
    """The list that each later call of dirichlet.solve_dp appends its
    arguments to."""
    solves = []
    solve_dp = dirichlet.solve_dp

    def counted(*args):
        solves.append(args)
        return solve_dp(*args)

    monkeypatch.setattr(dirichlet, "solve_dp", counted)
    return solves


def outcome(driver, *args):
    """A driver's result, or the type and message of what it raised."""
    try:
        return driver(*args)
    except Exception as err:  # the oracle must raise the same way
        return type(err).__name__, str(err)


def finite_path():
    return make_path(ExplicitListRule(("1", "1*e^(1)", "2")))


def finite_spherical():
    profile = SphericalProfile(ExplicitListRule(("1", "1*e^(1)", "2")), ListSize((1, 2, 3, 2)))
    return make_spherical(profile)


def growing_spheres():
    return make_spherical(SphericalProfile(MonomialRule(slope=-1), PowerSize(2)))


# Horizon at which each fixture's capacity sequence is compared: the cost of
# eliminating the balls grows fast with the radius (fastest on ex5 and ex7),
# so each fixture is held to well under a second.
FIXTURE_CAPACITY_HORIZON = {
    "ex1": 8, "ex2": 8, "ex3": 12, "ex4": 8, "ex5": 3,
    "ex6": 12, "ex7": 5, "ex8": 12, "ex9": 12,
}


class TestExhaustionWalk:
    """The drivers read every ball and boundary from one walk over the
    spheres; the per-ball references build each ball afresh."""

    def assert_like_per_ball(self, graph, root, N, capacity_horizon=None):
        """Nash-Williams at every horizon up to N and the capacity sequence
        at one horizon (N by default): a sequence at a smaller horizon is a
        prefix of it."""
        for n in range(1, N + 1):
            assert outcome(nash_williams, graph, root, n) == outcome(
                per_ball_nash_williams, graph, root, n
            )
        capacity_horizon = capacity_horizon or N
        sequence = outcome(capacity_sequence, graph, root, capacity_horizon)
        reference = outcome(per_ball_capacity_sequence, graph, root, capacity_horizon)
        if isinstance(reference, CapacitySequence) and graph.is_finite:
            if len(graph.ball(root, len(reference.values))) == graph.vertex_count:
                # The saturated ball has no boundary: its capacity is the
                # exact 0, which elimination finds only below a guarantee.
                zero = graph.field.zero()
                assert reference.values[-1].indistinguishable(zero)
                reference = replace(reference, values=reference.values[:-1] + (zero,))
        assert sequence == reference

    @pytest.mark.parametrize("name", sorted(FIXTURE_CAPACITY_HORIZON))
    @pytest.mark.parametrize("root", (0, 2))
    def test_fixtures(self, name, root):
        graph, config = build_graph(load_spec(name))
        with precision(config):
            self.assert_like_per_ball(graph, root, 12, FIXTURE_CAPACITY_HORIZON[name])

    def test_random_explicit_graphs(self):
        rng = random.Random(1501)
        for _ in range(12):
            graph = random_graph(rng, max_vertices=5)
            root = rng.randrange(graph.vertex_count)
            self.assert_like_per_ball(graph, root, graph.vertex_count + 1)

    def test_random_explicit_graphs_at_the_narrowest_precision(self):
        # One term per element: the sum of a boundary keeps its leading
        # term, which is the least valuation of its edges.
        rng = random.Random(1502)
        for _ in range(40):
            graph = random_graph(rng)
            root = rng.randrange(graph.vertex_count)
            with precision(window=1, max_terms=1):
                for n in range(1, graph.vertex_count + 2):
                    assert outcome(nash_williams, graph, root, n) == outcome(
                        per_ball_nash_williams, graph, root, n
                    )

    @pytest.mark.parametrize("make", (finite_path, finite_spherical))
    @pytest.mark.parametrize("root", (0, 2))
    def test_finite_layered_graphs(self, make, root):
        self.assert_like_per_ball(make(), root, 8)

    def test_growing_spheres(self):
        self.assert_like_per_ball(growing_spheres(), 0, 6, 3)

    def test_saturation_ends_the_sequence(self):
        assert len(capacity_sequence(finite_path(), 0, 7).values) == 4

    @pytest.mark.parametrize("N", (10, 40))
    def test_nash_williams_reads_neighbours_linearly(self, monkeypatch, N):
        calls = []
        neighbors = WeightedGraph.neighbors

        def counted(graph, v):
            calls.append(v)
            return neighbors(graph, v)

        monkeypatch.setattr(WeightedGraph, "neighbors", counted)
        nash_williams(unit_path(), 0, N)
        assert len(calls) <= 2 * N

    def test_monotone_compare_past_saturation(self):
        lighter = finite_path()
        heavier = make_path(ExplicitListRule(("2", "1", "2")))
        orderings = monotone_compare(lighter, heavier, 0, 7)
        assert orderings == per_ball_monotone_compare(lighter, heavier, 0, 7)
        assert len(orderings) == 7 and orderings[4:] == [0, 0, 0]

    @pytest.mark.parametrize("root", (-1, 4))
    def test_root_outside_a_finite_graph_is_refused(self, root):
        graph = make_explicit(4, [(0, 1, ONE), (1, 2, EPS), (2, 3, ONE)])
        calls = (
            lambda: classify(graph, root),
            lambda: capacity_sequence(graph, root, 3),
            lambda: nash_williams(graph, root, 3),
        )
        for call in calls:
            with pytest.raises(HorizonExhaustedError, match=f"root vertex {root} outside the graph"):
                call()
