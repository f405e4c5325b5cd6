"""Reference kernels for LCElement multiplication, inversion and division.

These are the straightforward forms the library's kernels must agree with:
multiplication forms every pair of terms and truncates afterwards;
inversion evaluates the geometric series in h with at most
``geometric_series_depth`` window-truncated products; division multiplies
by that inverse.  The differential tests in ``test_field_kernel.py`` and
``test_transition.py`` compare the library against them with
``assert_refines``.
"""

import math

from nacap.errors import IndeterminateComparisonError
from nacap.exact import Q
from nacap.field import _ONE, INF, LCElement, _finalize, active_precision


def reference_mul(x: LCElement, y: LCElement) -> LCElement:
    cfg = active_precision()
    guarantee = min(
        x.guarantee + y.valuation,
        y.guarantee + x.valuation,
        x.guarantee + y.guarantee,
    )
    acc: dict = {}
    for ex, cx in x.terms:
        for ey, cy in y.terms:
            exponent = ex + ey
            value = acc.get(exponent, Q(0)) + cx * cy
            if value == 0:
                acc.pop(exponent, None)
            else:
                acc[exponent] = value
    return _finalize(sorted(acc.items()), guarantee, cfg)


def reference_inv(x: LCElement) -> LCElement:
    """x = a0*e^(q0)*(1+h); 1/(1+h) by a truncated geometric series whose
    products go through ``reference_mul``."""
    if not x.terms:
        if x.guarantee == INF:
            raise ZeroDivisionError("inverse of zero")
        raise IndeterminateComparisonError("inverse of a zero-like element")
    cfg = active_precision()
    q0, a0 = x.terms[0]
    gh = INF if x.guarantee == INF else x.guarantee - q0
    h = _finalize([(e - q0, c / a0) for e, c in x.terms[1:]], gh, cfg)
    series = _ONE + (-h)
    if h.terms:
        lam = h.terms[0][0]
        steps = min(
            cfg.geometric_series_depth - 1,
            int(math.ceil(cfg.window / lam)) + 1,
        )
        neg_h = -h
        for _ in range(steps - 1):
            series = _ONE + reference_mul(neg_h, series)
        remainder = (steps + 1) * lam
        if remainder < series.guarantee:
            series = _finalize(list(series.terms), remainder, cfg)
    return _finalize(
        [(e - q0, c / a0) for e, c in series.terms],
        series.guarantee if series.guarantee == INF else series.guarantee - q0,
        cfg,
    )


def reference_div(x: LCElement, y: LCElement) -> LCElement:
    return reference_mul(x, reference_inv(y))


def assert_refines(new: LCElement, ref: LCElement):
    """``new`` certifies at least what ``ref`` does, and the same terms."""
    assert all(e < new.guarantee for e, _ in new.terms), new
    assert new.guarantee >= ref.guarantee, (new, ref)
    assert tuple(t for t in new.terms if t[0] < ref.guarantee) == ref.terms, (new, ref)
