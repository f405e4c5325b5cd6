"""Superharmonic verification/construction, Harnack, transform, Hardy."""

from fractions import Fraction

import pytest

from nacap.errors import HardyConstructionError, HorizonExhaustedError, PreconditionError
from nacap.field import LCElement
from nacap.graphs import (
    ConstantRule,
    ListMeasure,
    MonomialRule,
    PeriodicRule,
    make_explicit,
    make_path,
)
from nacap.capacity import classify
from nacap.dirichlet import energy, laplacian_apply, solve_dp
from nacap.potential import (
    SuperharmonicReport,
    construct_superharmonic,
    energy_difference_bound,
    ground_state_transform_check,
    hardy_construct,
    hardy_verify,
    harnack_constant,
    is_superharmonic,
)

ONE = LCElement.one()
EPS = LCElement.monomial(1, 1)
EPS2 = LCElement.monomial(1, 2)


def unit_path():
    return make_path(ConstantRule(1))


def alternating_path():
    # b(0,1) = 1, b(1,2) = eps, b(2,3) = 1, ...
    return make_path(PeriodicRule(("1", "1*e^(1)")))


def linear_drop(k):
    return ONE - LCElement.monomial(k, 1)


def alternating_drop(v):
    # 1 - k eps - k eps^2 on even vertices 2k; 1 - (k-1) eps - k eps^2 on 2k-1.
    if v % 2 == 0:
        k = v // 2
        return ONE - LCElement.monomial(k, 1) - LCElement.monomial(k, 2)
    k = (v + 1) // 2
    return ONE - LCElement.monomial(k - 1, 1) - LCElement.monomial(k, 2)


class TestIsSuperharmonic:
    def test_linear_drop_on_unit_path(self):
        g = unit_path()
        report = is_superharmonic(g, linear_drop, range(6))
        assert report.ok
        assert report.laplacian[0].indistinguishable(EPS)
        for k in range(1, 6):
            assert report.laplacian[k] == LCElement.zero()

    def test_root_laplacian_scales_with_measure(self):
        g = make_path(ConstantRule(1), measure=ListMeasure(("3",), default="1"))
        report = is_superharmonic(g, linear_drop, range(3))
        assert report.ok
        assert report.laplacian[0].indistinguishable(
            EPS * LCElement.rational(Fraction(1, 3))
        )

    def test_alternating_example(self):
        g = alternating_path()
        report = is_superharmonic(g, alternating_drop, range(7))
        assert report.ok
        assert report.laplacian[0].indistinguishable(EPS2)
        for v in range(1, 7):
            assert not report.laplacian[v]

    def test_constant_function(self):
        report = is_superharmonic(unit_path(), lambda v: ONE, range(5))
        assert report.ok
        assert all(v == LCElement.zero() for v in report.laplacian.values())

    def test_witness_on_subharmonic_function(self):
        g = unit_path()
        u = {0: ONE, 1: ONE + EPS, 2: ONE, 3: ONE}
        report = is_superharmonic(g, u, range(3))
        assert not report.ok
        assert report.witness == 0  # Delta u(0) = -eps


class TestConstruct:
    def test_unit_path_c_one_matches_linear_drop(self):
        g = unit_path()
        construction = construct_superharmonic(g, 0, ONE, EPS, radius=6)
        assert construction.formula == "1 - |x| * tau"
        for k in range(7):
            assert construction.values[k].indistinguishable(linear_drop(k))

    def test_c_two_doubling_drop(self):
        g = unit_path()
        construction = construct_superharmonic(g, 0, LCElement.rational(2), EPS, radius=5)
        assert construction.formula == "1 - c^|x| * tau"
        for k in range(6):
            expected = ONE - LCElement.monomial(2**k, 1)
            assert construction.values[k].indistinguishable(expected)
        # Interior Laplacian is 2^(k-1) eps > 0: strictly superharmonic.
        assert construction.report.laplacian[2].indistinguishable(
            LCElement.monomial(2, 1)
        )

    def test_alternating_ratio_unbounded_by_rationals(self):
        g = alternating_path()
        with pytest.raises(PreconditionError):
            construct_superharmonic(g, 0, LCElement.rational(100), EPS, radius=4)

    def test_tau_must_be_infinitesimal(self):
        with pytest.raises(PreconditionError):
            construct_superharmonic(unit_path(), 0, ONE, ONE, radius=3)


class TestHarnack:
    def test_unit_path_three_vertices(self):
        g = unit_path()
        assert harnack_constant(g, (0, 1, 2)) == LCElement.rational(4)

    def test_singleton(self):
        assert harnack_constant(unit_path(), (5,)) == ONE

    def test_bound_holds_for_linear_drop(self):
        g = unit_path()
        W = (0, 1, 2)
        constant = harnack_constant(g, W)
        values = [linear_drop(k) for k in W]
        biggest = values[0]
        smallest = values[-1]
        assert (constant * smallest - biggest).sign() > 0

    def test_positivity_of_nonnegative_superharmonic(self):
        # A nonnegative superharmonic function cannot vanish on a connected
        # set without vanishing identically: u = 1_0 fails superharmonicity.
        g = unit_path()
        u = {0: ONE, 1: LCElement.zero(), 2: LCElement.zero(), 3: LCElement.zero()}
        report = is_superharmonic(g, u, range(3))
        assert not report.ok and report.witness == 1


class TestGroundStateTransform:
    def test_trivial_u(self):
        g = unit_path()
        phi = {0: ONE, 1: EPS, 2: LCElement.rational(Fraction(1, 2))}
        check = ground_state_transform_check(g, lambda v: ONE, phi)
        assert check.ok
        assert check.lhs.indistinguishable(energy(g, phi))

    def test_linear_drop_indicator(self):
        g = unit_path()
        check = ground_state_transform_check(g, linear_drop, {0: ONE})
        assert check.ok
        assert check.lhs.indistinguishable(ONE - EPS)
        assert check.rhs.indistinguishable(ONE - EPS)

    def test_small_explicit_graph(self):
        g = make_explicit(
            5,
            [
                (0, 1, ONE),
                (1, 2, EPS),
                (2, 3, ONE + EPS),
                (3, 4, LCElement.rational(Fraction(2, 5))),
                (0, 4, EPS2),
            ],
        )
        u = {
            0: ONE,
            1: ONE + EPS,
            2: LCElement.rational(Fraction(1, 3)),
            3: ONE - EPS,
            4: LCElement.rational(2) + EPS2,
        }
        phi = {1: ONE - EPS, 2: LCElement.rational(Fraction(3, 7)), 4: EPS}
        assert ground_state_transform_check(g, u, phi).ok


class TestEnergyDifferenceBound:
    def test_bound_holds_on_samples(self):
        g = make_path(MonomialRule())
        phis = [
            {0: ONE, 1: ONE - EPS, 2: EPS},
            {0: LCElement.rational(2), 2: ONE},
            {1: EPS, 3: EPS2},
        ]
        for x, y in ((0, 2), (0, 3), (1, 3)):
            constant = energy_difference_bound(g, x, y)
            for phi in phis:
                zero = LCElement.zero()
                gap = phi.get(x, zero) - phi.get(y, zero)
                slack = constant * energy(g, phi) - gap * gap
                assert not slack.terms or slack.terms[0][1] > 0

    @pytest.mark.parametrize("x, y", [(0, -1), (-1, 0), (-1, -1)])
    def test_missing_vertex_is_refused(self, x, y):
        # On the infinite path a walk from 0 towards -1 would never end.
        with pytest.raises(HorizonExhaustedError, match="vertex -1 outside the graph"):
            energy_difference_bound(unit_path(), x, y)
        with pytest.raises(HorizonExhaustedError, match="vertex -1 outside the graph"):
            harnack_constant(unit_path(), (x, y) if x != y else (0, x))

    def test_missing_vertex_of_a_finite_graph(self):
        g = make_explicit(2, [(0, 1, ONE)])
        with pytest.raises(HorizonExhaustedError, match="vertex 5 outside explicit graph"):
            energy_difference_bound(g, 0, 5)


class TestHardy:
    def test_point_mass_on_positive_capacity_path(self):
        g = make_path(MonomialRule(slope=-1))
        verdict = classify(g, 0)
        omega = hardy_construct(g, verdict)
        assert omega.provenance == "point_mass"
        assert omega.weights[0].indistinguishable(ONE - EPS)
        samples = [solve_dp(g, g.ball(0, n), 0).values for n in range(1, 8)]
        result = hardy_verify(g, omega.weights, samples)
        assert result.ok

    def test_null_capacity_refuses(self):
        g = make_path(MonomialRule())
        verdict = classify(g, 0)
        with pytest.raises(HardyConstructionError):
            hardy_construct(g, verdict)

    def test_divergent_path_gets_strictly_positive_weight(self):
        g = unit_path()
        verdict = classify(g, 0)
        omega = hardy_construct(g, verdict, horizon=6)
        assert omega.provenance == "spherical_lower_bounds"
        assert len(omega.weights) == 6
        assert all(w.sign() > 0 for w in omega.weights.values())
        samples = [solve_dp(g, g.ball(0, n), 0).values for n in range(1, 8)]
        assert hardy_verify(g, omega.weights, samples).ok

    def test_inflated_point_mass_violated(self):
        g = make_path(MonomialRule(slope=-1))
        cap_2 = solve_dp(g, g.ball(0, 2), 0).capacity
        inflated = {0: cap_2 * LCElement.rational(2)}
        samples = [solve_dp(g, g.ball(0, 6), 0).values]
        result = hardy_verify(g, inflated, samples)
        assert not result.ok and result.failures == (0,)

    def test_trivial_weight_rejected(self):
        with pytest.raises(PreconditionError):
            hardy_verify(unit_path(), {0: LCElement.zero()}, [])

    def test_transform_generates_hardy_weight(self):
        # omega = m * Delta u / u for positive superharmonic u.
        g = unit_path()
        report = is_superharmonic(g, linear_drop, range(8))
        omega = {}
        for x, delta in report.laplacian.items():
            value = g.measure(x) * delta * linear_drop(x).inv()
            if value.terms:
                omega[x] = value
        samples = [solve_dp(g, g.ball(0, n), 0).values for n in range(1, 6)]
        assert hardy_verify(g, omega, samples).ok


class TestSuperharmonicCapacityConsistency:
    def test_construction_implies_not_null(self):
        # A positive superharmonic function with a strictly positive
        # Laplacian somewhere rules out null capacity; the unit path is
        # classified divergent, never null.
        from nacap.capacity import NULL, classify

        g = unit_path()
        construction = construct_superharmonic(g, 0, ONE, EPS, radius=5)
        assert any(v.terms for v in construction.report.laplacian.values())
        assert classify(g, 0).kind != NULL
