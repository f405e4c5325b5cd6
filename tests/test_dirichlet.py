"""Dirichlet problems, effective capacity, energy, Green columns."""

import random
from dataclasses import replace
from fractions import Fraction

import pytest

from nacap.errors import (
    DisconnectedSetError,
    NacapError,
    PrecisionExhaustedError,
    PreconditionError,
)
from nacap.field import LCElement, precision
from nacap.ratfunc import RFElement
from nacap.graphs import (
    ConstantRule,
    ListMeasure,
    MonomialRule,
    PowerSize,
    SphericalProfile,
    make_explicit,
    make_path,
    make_spherical,
)
from nacap.specfile import build_graph, load_spec
from nacap.dirichlet import (
    _solve_system,
    dirichlet_inverse_apply,
    effective_capacity,
    energy,
    green_matrix,
    laplacian_apply,
    pairing,
    solve_dp,
    solve_renormalized,
)

from dirichlet_reference import (
    reference_green_column,
    reference_inverse_apply,
    reference_solve_dp,
)
from prop_suites import BASE_CONFIG, random_graph, random_support_function

ONE = LCElement.one()
EPS = LCElement.monomial(1, 1)


def unit_path():
    return make_path(ConstantRule(1))


def geometric_sum(n):
    total = LCElement.zero()
    for k in range(n):
        total = total + LCElement.monomial(1, k)
    return total


class TestSolveDP:
    def test_singleton_closed_form(self):
        g = unit_path()
        sol = solve_dp(g, g.ball(0, 1), 0)
        assert sol.values == {0: ONE}
        assert sol.capacity == ONE  # b(0) = 1

    def test_unit_path_linear_drop(self):
        g = unit_path()
        n = 7
        sol = solve_dp(g, g.ball(0, n), 0)
        for k in range(n):
            assert sol.values[k] == LCElement.rational(Fraction(n - k, n))
        assert sol.capacity == LCElement.rational(Fraction(1, n))

    def test_growing_weights_capacity_series_law(self):
        # b(k, k+1) = eps^-k: cap_n = (sum_{k<n} eps^k)^(-1).
        g = make_path(MonomialRule(slope=-1))
        for n in (2, 3, 6):
            cap = effective_capacity(g, g.ball(0, n), 0)
            assert cap.indistinguishable(geometric_sum(n).inv())

    def test_capacity_independent_of_measure(self):
        rule = MonomialRule()
        plain = make_path(rule)
        scaled = make_path(rule, measure=ListMeasure(("7", "1/3", "5"), default="9"))
        K = plain.ball(0, 4)
        assert effective_capacity(plain, K, 0) == effective_capacity(scaled, K, 0)

    def test_monotone_in_radius(self):
        g = make_path(MonomialRule())
        caps = [effective_capacity(g, g.ball(0, n), 0) for n in range(1, 6)]
        for small, large in zip(caps[1:], caps):
            assert small.compare(large) <= 0

    def test_b2_capacity_eps_powers(self):
        # Series-law oracle: cap_{B_2} = (1/b(0,1) + 1/b(1,2))^(-1) = (1 + eps^-1)^(-1).
        g = make_path(MonomialRule())
        cap = effective_capacity(g, g.ball(0, 2), 0)
        oracle = (ONE + EPS.inv()).inv()
        assert cap.indistinguishable(oracle)

    @pytest.mark.parametrize("field", [LCElement, RFElement], ids=["levi-civita", "rational-function"])
    def test_ball_that_fills_a_finite_graph(self, field):
        literals = [(0, 1, "1"), (1, 2, "1*e^(1)"), (2, 3, "2"), (3, 4, "1 + 1*e^(2)"), (0, 3, "1*e^(3)")]
        g = make_explicit(5, [(x, y, field.from_literal(w)) for x, y, w in literals], field=field)
        K = g.ball(0, 3)
        sol = solve_dp(g, K, 0)
        assert sol.vertices == (0, 1, 3, 2, 4)
        assert sol.values == dict.fromkeys(K, field.one())
        assert sol.capacity == sol.energy == field.zero()
        for solver in (solve_renormalized, green_matrix):
            with pytest.raises(PreconditionError, match="the boundary of K is empty"):
                solver(g, K, 0)


class TestRenormalized:
    def test_unit_path_root_value(self):
        g = unit_path()
        n = 9
        sol = solve_renormalized(g, g.ball(0, n), 0)
        assert sol.values[0] == LCElement.rational(n)
        assert sol.capacity == LCElement.rational(Fraction(1, n))

    def test_singleton(self):
        g = make_path(MonomialRule(slope=-1))
        sol = solve_renormalized(g, g.ball(3, 1), 3)
        # v(a) = m(a)/b(a)
        expected = g.measure(3) * g.degree_weight(3).inv()
        assert sol.values[3].indistinguishable(expected)

    def test_spherical_partial_sum_formula(self):
        # v_charge(x) = m(o) * sum_{k=|x|}^{n-1} 1/b(boundary B_{k+1}(o)).
        profile = SphericalProfile(MonomialRule(slope=-1), PowerSize(2))
        g = make_spherical(profile)
        n = 4
        K = g.ball(0, n)
        sol = solve_renormalized(g, K, 0)
        dist = g.distances_from(0, n - 1)
        for x in K:
            expected = LCElement.zero()
            for k in range(dist[x], n):
                expected = expected + g.boundary_weight(g.ball(0, k + 1)).inv()
            assert sol.values[x].indistinguishable(expected)

    def test_consistency_with_potential_form(self):
        g = make_path(MonomialRule())
        K = g.ball(0, 5)
        v = solve_dp(g, K, 0)
        v_charge = solve_renormalized(g, K, 0)
        scale = v_charge.values[0].inv()
        for x in K:
            assert (v_charge.values[x] * scale).indistinguishable(v.values[x])


class TestEnergy:
    def test_indicator_energy_is_boundary_weight(self):
        g = make_path(MonomialRule())
        for n in (1, 3, 5):
            ball = g.ball(0, n)
            phi = {x: ONE for x in ball}
            assert energy(g, phi).indistinguishable(g.boundary_weight(ball))

    def test_zero_function(self):
        assert energy(unit_path(), {}) == LCElement.zero()

    def test_energy_equals_pairing_with_laplacian(self):
        g = make_explicit(
            4,
            [
                (0, 1, ONE),
                (1, 2, EPS),
                (2, 3, ONE + EPS),
                (0, 2, LCElement.rational(Fraction(1, 2))),
            ],
        )
        phi = {0: ONE, 1: ONE - EPS, 2: EPS, 3: LCElement.rational(2)}
        lap = {x: laplacian_apply(g, phi, x) for x in range(4)}
        assert energy(g, phi).indistinguishable(pairing(g, lap, phi))


class TestLaplacian:
    def test_constant_function_harmonic(self):
        g = unit_path()
        f = lambda x: ONE  # noqa: E731
        for x in range(4):
            assert not laplacian_apply(g, f, x)

    def test_linear_drop_at_root(self):
        # u(k) = 1 - k*eps on the unit path: Delta u(0) = eps / m(0).
        m = ListMeasure(("2",), default="1")
        g = make_path(ConstantRule(1), measure=m)
        u = lambda k: ONE - LCElement.monomial(k, 1)  # noqa: E731
        assert laplacian_apply(g, u, 0).indistinguishable(
            EPS * g.measure(0).inv()
        )

    def test_linear_drop_interior_harmonic(self):
        g = unit_path()
        u = lambda k: ONE - LCElement.monomial(k, 1)  # noqa: E731
        for k in (1, 2, 5):
            assert not laplacian_apply(g, u, k)


class TestGreen:
    def test_diagonal_is_measure_over_capacity(self):
        g = make_path(MonomialRule(slope=-1))
        K = g.ball(0, 6)
        column = green_matrix(g, K, 0)
        cap = effective_capacity(g, K, 0)
        assert column[0].indistinguishable(g.measure(0) * cap.inv())

    def test_reciprocity_unit_measure(self):
        g = make_explicit(
            5,
            [
                (0, 1, ONE),
                (1, 2, EPS),
                (1, 3, ONE + EPS),
                (3, 4, LCElement.rational(Fraction(2, 3))),
                (0, 4, EPS * EPS),
            ],
        )
        K = (0, 1, 3, 4)
        for x, y in ((0, 3), (1, 4), (0, 4)):
            if x not in K or y not in K:
                continue
            gx = green_matrix(g, K, x)
            gy = green_matrix(g, K, y)
            assert gx[y].indistinguishable(gy[x])

    def test_singleton(self):
        g = unit_path()
        column = green_matrix(g, (2,), 2)
        assert column[2].indistinguishable(g.measure(2) * g.degree_weight(2).inv())

    def test_inverse_apply_matches_columns(self):
        g = make_path(MonomialRule())
        K = g.ball(0, 4)
        u = dirichlet_inverse_apply(g, K, {1: ONE})
        column = green_matrix(g, K, 1)
        for x in K:
            assert u[x].indistinguishable(column[x])


class TestPrecisionSurface:
    def test_elimination_reports_guarantees(self):
        g = make_path(MonomialRule())
        with precision(window=6):
            cap = effective_capacity(g, g.ball(0, 4), 0)
        assert cap.guarantee >= 6  # relative window keeps at least W above valuation
        assert cap.valuation == 3


class TestSolveSystem:
    # [[1, -1], [-1, c]]: the second pivot is the Schur complement c - 1.
    @pytest.mark.parametrize(
        "c, error",
        [
            (ONE, DisconnectedSetError),
            (ONE + LCElement((), Fraction(3)), PrecisionExhaustedError),
        ],
        ids=["exact-zero", "zero-like"],
    )
    def test_uncertified_diagonal_pivot_is_refused(self, c, error):
        rows = [{0: ONE, 1: -ONE}, {1: c}]
        with pytest.raises(error):
            _solve_system(rows, [ONE, ONE], LCElement.zero())

    def test_negative_pivot_is_a_violated_invariant(self):
        with pytest.raises(AssertionError, match="pivot 0 is negative"):
            _solve_system([{0: -ONE}], [ONE], LCElement.zero())

    def test_zero_like_entry_is_eliminated(self):
        # [[1, z], [z, 1]] with z zero-like: both unknowns are 1, and only
        # within z's guarantee.
        z = LCElement((), Fraction(3))
        rows = [{0: ONE, 1: z}, {1: ONE}]
        solution = _solve_system(rows, [ONE, ONE], LCElement.zero())
        assert solution == [LCElement(((0, 1),), Fraction(3))] * 2


def outcome(compute):
    """What a solver returns, or the class of the refusal it raises."""
    try:
        return compute()
    except NacapError as err:
        return type(err)


def potential(graph, K, a):
    solution = solve_dp(graph, K, a)
    return solution.values, solution.capacity


def seeded_cases(seed, graphs):
    """(graph, K, root, phi): every distinct ball around a drawn root of
    seeded explicit graphs, with a drawn right-hand side on it."""
    rng = random.Random(seed)
    for _ in range(graphs):
        graph = random_graph(rng)
        a = rng.randrange(graph.vertex_count)
        for radius in range(1, graph.vertex_count + 1):
            K = graph.ball(a, radius)
            yield graph, K, a, random_support_function(rng, K)
            if len(K) == graph.vertex_count:
                break


def assert_refines_whole_graph_ball(compute, result, expected):
    """On a ball that is the whole graph the library knows v = 1 and the
    capacity 0 exactly, where the elimination oracle carries finite
    guarantees: each value agrees with the oracle's below its guarantee,
    and its guarantee is at least as high.  The Green column has no
    solution; the oracle refuses it as not certified nonzero or as a
    boundary that is empty."""
    if compute is green_matrix:
        assert result is PreconditionError
        assert expected in (PreconditionError, PrecisionExhaustedError)
        return
    (values, capacity), (expected_values, expected_capacity) = result, expected
    assert values.keys() == expected_values.keys()
    pairs = [(values[x], expected_values[x]) for x in values] + [(capacity, expected_capacity)]
    for value, old in pairs:
        assert value.indistinguishable(old) and value.guarantee >= old.guarantee


class TestAgainstReference:
    """Symmetric elimination reproduces the general elimination with a pivot
    search that it replaced: the same terms, the same guarantees and the
    same refusals."""

    @pytest.mark.parametrize(
        "config", [BASE_CONFIG, replace(BASE_CONFIG, window=16)], ids=["window-8", "window-16"]
    )
    def test_seeded_explicit_graphs(self, config):
        solved = 0
        with precision(config):
            for graph, K, a, phi in seeded_cases(20261018, 8):
                for compute, reference in (
                    (potential, reference_solve_dp),
                    (green_matrix, reference_green_column),
                ):
                    result = outcome(lambda: compute(graph, K, a))
                    expected = outcome(lambda: reference(graph, K, a))
                    if len(K) == graph.vertex_count:
                        assert_refines_whole_graph_ball(compute, result, expected)
                    else:
                        assert result == expected
                    solved += not isinstance(result, type)
                result = outcome(lambda: dirichlet_inverse_apply(graph, K, phi))
                assert result == outcome(lambda: reference_inverse_apply(graph, K, phi))
                solved += not isinstance(result, type)
        # Most calls solve; the others compare refusals, as on a ball
        # that is the whole graph.
        assert solved > 40

    @pytest.mark.parametrize("name", [f"ex{i}" for i in range(1, 10)])
    def test_fixtures(self, name):
        graph, config = build_graph(load_spec(name))
        with precision(config):
            for horizon in range(2, 6):
                K = graph.ball(0, horizon)
                assert potential(graph, K, 0) == reference_solve_dp(graph, K, 0)
