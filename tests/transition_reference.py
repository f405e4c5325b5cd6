"""Reference transition powers, max-path products and non-decay search.

These are the straightforward forms the library must agree with: every
transition probability p(z, w) = b(z, w) * b(z)^-1 is formed on its own edge
and multiplies the entry it carries, every column iterates P on e_y from
scratch, and the non-decay search is given all ``max_power`` return powers
before it looks at any.  The differential tests in ``test_transition.py`` compare
the library, which divides each vertex's exact weighted sum once, keeps each
column in the context and stops the search at its first hit, against them.
"""

from nacap import scalars
from nacap.errors import PreconditionError
from nacap.field import INF
from nacap.transition import NonvanishingCertificate


def _probabilities(graph, z) -> dict:
    inv_degree = graph.degree_weight(z).inv()
    return {w: b * inv_degree for w, b in graph.neighbors(z).items()}


def _targets(graph, support, keep) -> list:
    return sorted({z for w in support for z in graph.neighbors(w) if keep(z)})


def reference_apply(graph, f: dict, restrict) -> dict:
    zero = graph.field.zero()
    out = {}
    for z in _targets(graph, f, lambda z: restrict is None or z in restrict):
        acc = zero
        for w, p in _probabilities(graph, z).items():
            if w in f:
                acc = acc + p * f[w]
        out[z] = acc
    return out


def _checked(restrict, x, y):
    if restrict is None:
        return None
    restrict = set(restrict)
    if x not in restrict or y not in restrict:
        raise PreconditionError("x and y must lie in the restriction set")
    return restrict


def reference_column(ctx, y, N, restrict=None) -> list:
    """[P^n e_y for n = 0..N] as sparse vectors, each from the one before."""
    column = [{y: ctx.field.one()}]
    for _ in range(N):
        column.append(reference_apply(ctx.graph, column[-1], restrict))
    return column


def reference_transition_powers(ctx, x, y, N, restrict=None) -> list:
    restrict = _checked(restrict, x, y)
    zero = ctx.field.zero()
    return [f.get(x, zero) for f in reference_column(ctx, y, N, restrict)]


def reference_pi_element(ctx, x, y, n, restrict=None):
    """(value, witness path) of the maximal product of transition
    probabilities over length-n paths from x to y; the first-found path
    under ascending neighbour order wins a tie."""
    restrict = _checked(restrict, x, y)
    graph = ctx.graph
    if n == 0:
        return (ctx.field.one(), (x,)) if x == y else (ctx.field.zero(), None)
    dist_to_x = graph.distances_from(x, n)
    current = {y: (ctx.field.one(), (y,))}
    for step in range(1, n + 1):
        remaining = n - step

        def keep(z):
            inside = restrict is None or z in restrict
            return inside and dist_to_x.get(z, n + 1) <= remaining

        nxt = {}
        for z in _targets(graph, current, keep):
            best = None
            for w, p in _probabilities(graph, z).items():
                if w not in current:
                    continue
                value, path = current[w]
                candidate = p * value
                if best is None or scalars.certainly_positive(candidate - best[0]):
                    best = (candidate, (z,) + path)
            nxt[z] = best
        current = nxt
    return current.get(x, (ctx.field.zero(), None))


def reference_nonvanishing_certificate(ctx, x0, powers):
    """The certificate read from all of ``powers`` = [P^k(x0, x0) for k =
    0..max_power]."""
    for k in range(2, len(powers)):
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
