"""Reference transition powers and non-decay search.

These are the straightforward forms the library must agree with: every
call iterates P on e_y from scratch, and the non-decay search computes all
``max_power`` powers before it looks at any.  The differential tests in
``test_transition.py`` compare the library, which keeps each column in the
context and stops the search at its first hit, against them.
"""

from nacap import scalars
from nacap.errors import PreconditionError
from nacap.field import INF
from nacap.transition import NonvanishingCertificate, _apply


def reference_transition_powers(ctx, x, y, N, restrict=None) -> list:
    if restrict is not None:
        restrict = set(restrict)
        if x not in restrict or y not in restrict:
            raise PreconditionError("x and y must lie in the restriction set")
    zero = ctx.field.zero()
    one = ctx.field.one()
    f = {y: one}
    out = [one if x == y else zero]
    for _ in range(N):
        f = _apply(ctx, f, restrict)
        out.append(f.get(x, zero))
    return out


def reference_nonvanishing_certificate(ctx, x0, max_power=8, restrict=None):
    powers = reference_transition_powers(ctx, x0, x0, max_power, restrict=restrict)
    for k in range(2, max_power + 1):
        element = powers[k]
        if element.valuation != 0:
            continue
        c = element.standard_part()
        diff = element - ctx.field.rational(c)
        certified = diff.indistinguishable(ctx.field.zero()) and diff.guarantee == INF
        if not certified and not scalars.certainly_positive(diff):
            c = c / 2
        return NonvanishingCertificate(x0, k, c)
    return None
