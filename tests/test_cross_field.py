"""Cross-field oracle: one spec over Q(r) and over the Levi-Civita field.

``RFElement.embed`` is the order-preserving ring embedding of Q(r) into the
Levi-Civita field with r -> e, and every value below is built from +, -,
*, / and sign tests.  So a value computed over Q(r) and embedded must agree
with the same value computed over the Levi-Civita field, below the
Levi-Civita guarantee.  The two kernels share no code: ``RFElement`` works
on integer polynomials, ``LCElement`` on sorted exponent-coefficient
series, so each is an oracle for the other through every solver.

The fixtures with integral exponents are built over both fields by flipping
the spec's ``field`` key; ex5 (exponents 1/2^k) has no Q(r) twin.
"""

import pytest

from nacap.capacity import capacity_sequence
from nacap.dirichlet import green_matrix
from nacap.field import INF, precision
from nacap.ratfunc import RFElement
from nacap.specfile import build_graph, load_spec
from nacap.transition import TransitionContext, transition_powers

FIXTURES = ["ex1", "ex2", "ex3", "ex4", "ex6", "ex7", "ex8", "ex9"]
TRANSITION_PAIRS = [(0, 0), (0, 1), (1, 3)]
VALUES_PER_FIXTURE = 33


def twin(name, field):
    spec = dict(load_spec(name))
    spec["field"] = field
    return build_graph(spec)


def values(graph):
    """Capacities cap_n(0) for N = 3 and 4, the Green columns at y = 0 and
    y = 2 on the ball of radius 3, and P^n(x, y) for n <= 5 on three pairs,
    in one fixed order."""
    out = []
    for N in (3, 4):
        out.extend(capacity_sequence(graph, 0, N).values)
    K = graph.ball(0, 4)
    for y in (0, 2):
        column = green_matrix(graph, K, y)
        out.extend(column[x] for x in K)
    ctx = TransitionContext(graph)
    for x, y in TRANSITION_PAIRS:
        out.extend(transition_powers(ctx, x, y, 5))
    return out


@pytest.mark.parametrize("name", FIXTURES)
def test_values_agree_after_embedding(name):
    lc_graph, config = twin(name, "levi-civita")
    rf_graph, _ = twin(name, "rational-function")
    with precision(config):
        lc_values, rf_values = values(lc_graph), values(rf_graph)
        assert len(lc_values) == len(rf_values) == VALUES_PER_FIXTURE
        for index, (lc, rf) in enumerate(zip(lc_values, rf_values)):
            assert isinstance(rf, RFElement)
            embedded = rf.embed()
            difference = lc - embedded
            assert not difference, (name, index, lc, rf)
            # The agreement reaches past the leading term of the value.
            assert difference.guarantee == INF or difference.guarantee > lc.valuation, (
                name, index, lc, rf,
            )
