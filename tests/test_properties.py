"""Module-level invariants beyond the acceptance property suites."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nacap import scalars
from nacap.capacity import capacity_sequence
from nacap.dirichlet import (
    effective_capacity,
    energy,
    laplacian_apply,
    solve_dp,
    solve_renormalized,
)
from nacap.field import INF, LCElement, precision
from nacap.graphs import MonomialRule, make_path
from nacap.ratfunc import RFElement
from nacap.transition import convergence_evidence
from prop_suites import (
    BASE_CONFIG,
    random_element,
    random_graph,
    random_support_function,
)

rationals = st.fractions(
    min_value=Fraction(-4), max_value=Fraction(4), max_denominator=4
)


class TestValuationLaws:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_product_and_sum_valuations(self, data):
        rng = random.Random(data.draw(st.integers(0, 2**30)))
        x = random_element(rng, nonzero=True)
        y = random_element(rng, nonzero=True)
        assert (x * y).valuation == x.valuation + y.valuation
        total = x + y
        low = min(x.valuation, y.valuation)
        if total.terms:
            assert total.valuation >= low
        if x.valuation != y.valuation:
            assert total.valuation == low

    @settings(max_examples=100, deadline=None)
    @given(rationals, rationals)
    def test_monomial_product(self, a, b):
        assert (LCElement.monomial(1, a) * LCElement.monomial(1, b)).valuation == a + b


class TestStudentsDreamProxy:
    def test_converging_sequence_evidence(self):
        # Differences eps^n: valuations 1, 2, 3, ... grow without bound.
        valuations = [Fraction(n) for n in range(1, 9)]
        evidence = convergence_evidence(valuations)
        assert evidence["strictly_increasing_tail"]

    def test_stalled_sequence(self):
        # Differences 1/n all have valuation 0: no convergence evidence.
        evidence = convergence_evidence([Fraction(0)] * 8)
        assert not evidence["strictly_increasing_tail"]


class TestEmbedMorphism:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_products_commute_with_embedding(self, data):
        def small_rf(d):
            num = [d.draw(rationals) for _ in range(d.draw(st.integers(1, 3)))]
            den = [d.draw(rationals) for _ in range(d.draw(st.integers(1, 3)))]
            if not any(num):
                num[0] = Fraction(1)
            if not any(den):
                den[0] = Fraction(1)
            return RFElement.make(num, den)

        g = small_rf(data)
        h = small_rf(data)
        assert g.embed().indistinguishable(g.embed())
        assert (g * h).embed().indistinguishable(g.embed() * h.embed())
        assert (g + h).embed().indistinguishable(g.embed() + h.embed())


class TestChargeBalance:
    def test_interior_charge_equals_boundary_deficit(self):
        rng = random.Random(5)
        with precision(BASE_CONFIG):
            for _ in range(25):
                graph = random_graph(rng)
                root = rng.randrange(graph.vertex_count)
                K = graph.ball(root, 2)
                sol = solve_dp(graph, K, root)
                members = set(K)
                outside = {
                    y
                    for x in K
                    for y in graph.neighbors(x)
                    if y not in members
                }
                total = LCElement.zero()
                for x in sorted(outside):
                    total = total + laplacian_apply(graph, sol.values, x) * graph.measure(x)
                charge = laplacian_apply(graph, sol.values, root) * graph.measure(root)
                assert charge.indistinguishable(-total)
                assert charge.indistinguishable(sol.capacity)


class TestDomainMonotonicity:
    def test_solutions_increase_along_exhaustion(self):
        rng = random.Random(11)
        with precision(BASE_CONFIG):
            for _ in range(20):
                graph = random_graph(rng)
                root = rng.randrange(graph.vertex_count)
                previous = None
                previous_charge = None
                for n in (1, 2, 3):
                    K = graph.ball(root, n)
                    if not scalars.certainly_positive(graph.boundary_weight(K)):
                        break  # K exhausts the finite graph
                    v = solve_dp(graph, K, root).values
                    w = solve_renormalized(graph, K, root).values
                    if previous is not None:
                        for x, value in previous.items():
                            assert not scalars.certainly_positive(value - v.get(x, value))
                        for x, value in previous_charge.items():
                            assert not scalars.certainly_positive(value - w.get(x, value))
                    previous, previous_charge = v, w


class TestInfimumCharacterization:
    def test_capacity_lower_bounds_all_normalized_energies(self):
        rng = random.Random(23)
        with precision(BASE_CONFIG):
            for _ in range(40):
                graph = random_graph(rng)
                root = rng.randrange(graph.vertex_count)
                n = rng.randint(2, 3)
                K = graph.ball(root, n)
                cap = effective_capacity(graph, K, root)
                phi = random_support_function(rng, [v for v in K if v != root])
                phi[root] = LCElement.one()
                q = energy(graph, phi)
                assert not scalars.certainly_positive(cap - q)


class TestConvergenceOfSolutionsDichotomy:
    def test_vanishing_weights_solutions_approach_one(self):
        # Null-capacity path: v_n(x) -> 1, i.e. valuation of 1 - v_n(x) grows.
        graph = make_path(MonomialRule())
        one = LCElement.one()
        for x in (1, 2):
            gaps = []
            for n in range(x + 1, x + 6):
                v = solve_dp(graph, graph.ball(0, n), 0).values
                gaps.append((one - v[x]).valuation)
            assert gaps == sorted(gaps) and gaps[0] < gaps[-1]

    def test_growing_weights_solutions_stabilize_below_one(self):
        graph = make_path(MonomialRule(slope=-1))
        one = LCElement.one()
        for x in (1, 3):
            values = [
                solve_dp(graph, graph.ball(0, n), 0).values[x] for n in range(x + 1, x + 6)
            ]
            for v in values:
                assert scalars.certainly_positive(one - v)
            diffs = [(b - a).valuation for a, b in zip(values, values[1:])]
            assert diffs == sorted(diffs) and diffs[0] < diffs[-1]
