"""Graph model: balls, boundaries, generators, spherical realizations."""

from fractions import Fraction
from itertools import islice

import pytest

from nacap.errors import (
    HorizonExhaustedError,
    IncompatibleProfileError,
    NonpositiveWeightError,
)
from nacap.dirichlet import solve_dp
from nacap.field import INF, LCElement, precision
from nacap.graphs import (
    FIELDS,
    ConstantRule,
    ConstantSize,
    ExplicitListRule,
    HalfPowerRule,
    ListSize,
    MonomialRule,
    PowerSize,
    SphericalProfile,
    WeightedGraph,
    make_explicit,
    make_path,
    make_spherical,
)
from nacap.specfile import load_spec, parse_weight_rule

EPS = LCElement.monomial(1, 1)


def unit_path():
    return make_path(ConstantRule(1))


class TestBall:
    def test_path_ball(self):
        g = unit_path()
        assert g.ball(0, 3) == (0, 1, 2)

    def test_radius_one_is_root_only(self):
        assert unit_path().ball(5, 1) == (5,)

    def test_spherical_sphere_sizes(self):
        # #S_k = 2^k: |B_3| = 1 + 2 + 4 = 7.
        profile = SphericalProfile(ConstantRule(1), PowerSize(2))
        g = make_spherical(profile)
        assert len(g.ball(0, 3)) == 7

    def test_finite_path_saturates(self):
        g = make_path(ExplicitListRule(("1", "1")))
        assert g.ball(0, 10) == (0, 1, 2)
        assert g.vertex_count == 3

    @pytest.mark.parametrize(
        "literals, tail, count",
        [(("1",), ("1", "1", "1"), 3), (("1", "1", "1", "1"), ("1", "1"), 4), (("1",), None, 1)],
    )
    def test_finite_tail_ends_the_path(self, literals, tail, count):
        # The tail is read at the original index, so the path ends where
        # the later of the two lists does.
        rule = ExplicitListRule(literals, tail=ExplicitListRule(tail) if tail else None)
        assert rule.edge_count == count
        assert make_path(rule).ball(0, 10) == tuple(range(count + 1))

    def test_rule_tail_never_ends(self):
        assert ExplicitListRule(("1",), tail=MonomialRule()).edge_count is None

    def test_vertex_outside_finite_path(self):
        g = make_path(ExplicitListRule(("1",)))
        with pytest.raises(HorizonExhaustedError):
            g.neighbors(5)


class TestBoundaryWeight:
    def test_single_boundary_edge_eps_powers(self):
        g = make_path(MonomialRule())  # b(k, k+1) = eps^k
        for n in (1, 2, 5):
            assert g.boundary_weight(g.ball(0, n)) == LCElement.monomial(1, n - 1)

    def test_unit_path(self):
        g = unit_path()
        assert g.boundary_weight(g.ball(0, 4)) == LCElement.one()

    def test_spherical_boundary_is_sphere_size_times_b_plus(self):
        profile = SphericalProfile(MonomialRule(slope=-1), PowerSize(2))
        g = make_spherical(profile)
        for k in range(4):
            expected = LCElement.monomial(2**k, -k)
            assert g.boundary_weight(g.ball(0, k + 1)).indistinguishable(expected)


class TestMakePath:
    def test_nonpositive_weight_rejected(self):
        g = make_path(ConstantRule(-1))
        with pytest.raises(NonpositiveWeightError):
            g.neighbors(0)

    def test_symmetry_and_no_loops(self):
        g = make_path(MonomialRule())
        for v in range(5):
            nbrs = g.neighbors(v)
            assert v not in nbrs
            for y, w in nbrs.items():
                assert g.weight(y, v) == w

    def test_default_measure_is_one(self):
        assert unit_path().measure(7) == LCElement.one()

    def test_degree_measure(self):
        g = unit_path().with_degree_measure()
        assert g.measure(0) == LCElement.one()
        assert g.measure(3) == LCElement.rational(2)


def fixture_rule(name):
    """(weight rule, field) of a bundled fixture."""
    data = load_spec(name)
    return parse_weight_rule(data["weights"]), FIELDS[data["field"]]


PATH_RULES = {f"ex{i}": fixture_rule(f"ex{i}") for i in range(1, 10)}
PATH_RULES["tailless_list"] = (ExplicitListRule(("1", "1*e^(1)", "2")), LCElement)


class TestMakeSpherical:
    @pytest.mark.parametrize("name", sorted(PATH_RULES))
    def test_path_profile_is_path(self, name):
        rule, field = PATH_RULES[name]
        path = make_path(rule, field=field)
        layered = make_spherical(SphericalProfile(rule, ConstantSize(1)), field=field)
        ball = path.ball(0, 6)
        assert ball == layered.ball(0, 6) == tuple(range(len(ball)))
        for v in ball:
            assert path.neighbors(v) == layered.neighbors(v)
            for u, w in path.neighbors(v).items():
                assert w == rule.value(min(u, v), field)
        assert path.vertex_count == layered.vertex_count
        assert path.vertex_count == (4 if name == "tailless_list" else None)

    def test_finite_profile_ends_after_last_level(self):
        # A tail-less weight list of 3 entries ends the graph at sphere 3.
        profile = SphericalProfile(ExplicitListRule(("1", "1", "1")), PowerSize(2))
        g = make_spherical(profile)
        assert g.vertex_count == 1 + 2 + 4 + 8
        assert g.ball(0, 10) == tuple(range(15))
        assert g.neighbors(14) == {u: LCElement.rational(Fraction(1, 8)) for u in range(3, 7)}
        with pytest.raises(HorizonExhaustedError):
            g.neighbors(15)

    def test_profile_weights_match(self):
        profile = SphericalProfile(MonomialRule(), PowerSize(2))
        g = make_spherical(profile)
        # b_plus(x) for x in sphere k must equal the profile value.
        dist = g.distances_from(0, 3)
        for x, k in dist.items():
            if k >= 3:
                continue
            up = [y for y in g.neighbors(x) if dist.get(y) == k + 1]
            total = LCElement.zero()
            for y in up:
                total = total + g.weight(x, y)
            assert total.indistinguishable(LCElement.monomial(1, k))

    def test_incompatible_profile_rejected(self):
        profile = SphericalProfile(
            ConstantRule(1), ListSize((1, 2, 4)), b_minus=ConstantRule(1)
        )
        g = make_spherical(profile)
        with pytest.raises(IncompatibleProfileError):
            g.neighbors(0)

    def test_balls_nest(self, monkeypatch):
        # A path (unit spheres), doubling spheres, and an explicit graph in
        # which vertex 3 neighbours both 1 and 2 and takes 1 as its parent.
        one = LCElement.one()
        edges = [(0, 1, one), (0, 2, one), (1, 3, one), (2, 3, EPS), (3, 4, one), (4, 5, one)]
        graphs = (
            make_spherical(SphericalProfile(HalfPowerRule(), ConstantSize(1))),
            make_spherical(SphericalProfile(ConstantRule(1), PowerSize(2))),
            make_explicit(6, edges),
        )
        for g in graphs:
            previous = set()
            for n in range(1, 6):
                current = set(g.ball(0, n))
                assert previous <= current
                previous = current
                spheres = list(islice(g.spheres(0), n))
                assert tuple(x for sphere in spheres for x in sphere) == g.ball(0, n)
            assert spheres[0] == {0: None}
            for inner, outer in zip(spheres, spheres[1:]):
                for x, parent in outer.items():
                    assert parent in inner and x in g.neighbors(parent)

        path, doubling, explicit = graphs
        assert list(path.spheres(0, within={0, 1, 2, 4})) == [{0: None}, {1: 0}, {2: 1}]
        assert list(doubling.spheres(0, within={0, 2, 3})) == [{0: None}, {2: 0}, {3: 2}]
        assert list(explicit.spheres(0)) == [{0: None}, {1: 0, 2: 0}, {3: 1}, {4: 3}, {5: 4}]
        assert list(explicit.spheres(0, within={0, 2, 3})) == [{0: None}, {2: 0}, {3: 2}]

        # Taking k spheres lists the neighbours of the first k - 1 only.
        listed = []
        neighbors = WeightedGraph.neighbors
        monkeypatch.setattr(
            WeightedGraph, "neighbors", lambda g, v: listed.append(v) or neighbors(g, v)
        )
        for g in graphs:
            for k in range(1, 5):
                listed.clear()
                spheres = list(islice(g.spheres(0), k))
                expanded = sorted(x for sphere in spheres[:-1] for x in sphere)
                assert sorted(listed) == expanded
                listed.clear()
                g.ball(0, k)
                assert sorted(listed) == expanded


class TestExplicit:
    def test_weights_and_measure(self):
        g = make_explicit(
            3,
            [(0, 1, LCElement.one()), (1, 2, EPS)],
        )
        assert g.weight(0, 1) == LCElement.one()
        assert g.weight(2, 1) == EPS
        assert g.weight(0, 2) == LCElement.zero()
        assert g.degree_weight(1) == LCElement.one() + EPS

    def test_disconnected_rejected(self):
        from nacap.errors import DisconnectedSetError

        with pytest.raises(DisconnectedSetError):
            make_explicit(3, [(0, 1, LCElement.one())])


class TestCachesPerPrecision:
    """A degree, and a layered edge weight divided by a sphere size, are
    truncated under the precision active when they are formed; a graph
    reused under another precision must read what a fresh graph does."""

    @staticmethod
    def wide_explicit():
        return make_explicit(3, [(0, 1, LCElement.one()), (1, 2, LCElement.monomial(1, 20))])

    def test_degree_formed_under_a_narrow_window(self):
        g = self.wide_explicit()
        with precision(window=8):
            assert g.degree_weight(1) == LCElement(((0, 1),), Fraction(8))
        assert g.degree_weight(1) == self.wide_explicit().degree_weight(1)
        assert g.degree_weight(1).guarantee == INF
        capacity = solve_dp(g, (0, 1), 0).capacity
        assert capacity == solve_dp(self.wide_explicit(), (0, 1), 0).capacity
        assert capacity == LCElement(((20, 1),), Fraction(40))

    def test_layered_weight_formed_under_a_narrow_window(self):
        def graph():
            rule = ExplicitListRule(("1 + 1*e^(20)",), tail=ConstantRule(1))
            return make_spherical(SphericalProfile(rule, ListSize((1, 2, 1))))

        g = graph()
        half = Fraction(1, 2)
        with precision(window=8):
            assert g.weight(0, 1) == LCElement(((0, half),), Fraction(20))
        assert g.weight(0, 1) == graph().weight(0, 1) == LCElement(((0, half), (20, half)))
        assert g.degree_weight(0) == graph().degree_weight(0)
