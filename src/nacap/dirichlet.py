"""Exact Dirichlet problems on finite connected vertex sets.

Solves the potential-normalized problem (harmonic on K minus the root,
value 1 at the root, 0 outside K) and the charge-normalized variant
(Laplacian equal to the root indicator on K), both by exact elimination
over the graph's scalar field.  The effective capacity of the root is the
charge of the solution; by the discrete Green formula it coincides with the
solution's energy and is independent of the vertex measure.

Both are systems in the Dirichlet operator A = b(x)δ_xy − b(x,y) over a set
U of unknowns.  A is symmetric, and for u zero outside U its form
uᵀAu = ½ Σ b(x,y)(u(x) − u(y))² is a sum of nonnegative terms in any
ordered field, which vanishes only at u = 0 when every component of U has
an edge leaving U (true for K minus the root, and for K with a boundary).
So A is positive definite, and so is every Schur complement of it, since a
pivot of elimination is the form's value at a nonzero vector.  Hence every
diagonal pivot is positive in exact arithmetic, and symmetric elimination
on the upper triangle needs no pivot search.

Variable ordering is the breadth-first enumeration of K from the root, so
results are bit-for-bit reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from . import scalars
from .errors import (
    DisconnectedSetError,
    PreconditionError,
    PrecisionExhaustedError,
)

__all__ = [
    "DirichletSolution",
    "solve_dp",
    "solve_renormalized",
    "effective_capacity",
    "energy",
    "laplacian_apply",
    "green_matrix",
    "dirichlet_inverse_apply",
]


@dataclass(frozen=True)
class DirichletSolution:
    """Solution of a Dirichlet problem on a finite set K.

    values maps vertices of K to field elements (implicitly zero outside K);
    normalization is "potential" (value 1 at the root) or "charge"
    (Laplacian 1 at the root).  capacity is the effective capacity of the
    root within K and equals the solution's energy in the potential case.
    """

    vertices: tuple
    root: int
    values: Mapping
    normalization: str
    energy: object
    capacity: object


def _bfs_order(graph, K, a):
    members = set(K)
    if a not in members:
        raise ValueError(f"root {a} not in K")
    order = [x for sphere in graph.spheres(a, members) for x in sphere]
    if len(order) != len(members):
        raise DisconnectedSetError("K is not connected")
    return order


def _solve_system(rows, rhs, zero):
    """Exact symmetric Gaussian elimination on the upper triangle.

    rows[i] holds the columns c >= i of row i of a Dirichlet operator.  It
    and every Schur complement that elimination leaves are positive definite
    (see the module docstring), so each diagonal pivot is positive and needs
    no search.  A diagonal pivot that is not certified nonzero is zero-like
    when the precision ran out, or an exact zero when the operator is singular.
    A certified negative pivot contradicts positive definiteness."""
    m = len(rows)
    for i in range(m):
        row = rows[i]
        pivot = row.get(i, zero)
        if not pivot:
            if scalars.is_zero_like(pivot):
                raise PrecisionExhaustedError(
                    f"pivot {i} not certified nonzero; rerun with a larger window"
                )
            raise DisconnectedSetError("singular Dirichlet system")
        if pivot.sign() < 0:
            raise AssertionError(f"pivot {i} is negative in a positive definite system")
        pivot_inv = pivot.inv()
        for r, entry in row.items():
            if r == i:
                continue
            # Zero-like entries are eliminated too: the multiplication and
            # subtraction propagate their finite guarantees instead of
            # pretending the entry is an exact zero.
            factor = entry * pivot_inv
            target = rows[r]
            for c, value in row.items():
                if c < r:
                    continue
                updated = target.get(c, zero) - factor * value
                if updated or scalars.is_zero_like(updated):
                    target[c] = updated
                else:
                    target.pop(c, None)
            rhs[r] = rhs[r] - factor * rhs[i]
    solution = [zero] * m
    for i in range(m - 1, -1, -1):
        acc = rhs[i]
        for c, value in rows[i].items():
            if c > i:
                acc = acc - value * solution[c]
        solution[i] = acc * rows[i][i].inv()
    return solution


def _solve(graph, unknowns, rhs):
    """Solve (b(x)δ_xy − b(x,y)) u = rhs over the ordered unknowns, u being
    zero elsewhere; rhs maps an unknown to its right-hand side."""
    index = {v: i for i, v in enumerate(unknowns)}
    rows = []
    for i, x in enumerate(unknowns):
        row = {i: graph.degree_weight(x)}
        for y, w in graph.neighbors(x).items():
            if index.get(y, -1) > i:
                row[index[y]] = -w
        rows.append(row)
    solution = _solve_system(rows, [rhs(x) for x in unknowns], graph.field.zero())
    return dict(zip(unknowns, solution))


def solve_dp(graph, K, a) -> DirichletSolution:
    """Unique solution of the potential-normalized Dirichlet problem on the
    finite connected set K with root a.

    The solution satisfies 0 < v <= 1 on K (verified), and its energy equals
    the effective capacity of a within K.  A K that holds every vertex of a
    finite graph has no boundary: v = 1 on K and the capacity is exactly 0."""
    order = _bfs_order(graph, K, a)
    one = graph.field.one()
    if len(order) == graph.vertex_count:
        zero = graph.field.zero()
        return DirichletSolution(
            vertices=tuple(order),
            root=a,
            values=dict.fromkeys(order, one),
            normalization="potential",
            energy=zero,
            capacity=zero,
        )
    values = {a: one, **_solve(graph, order[1:], lambda x: graph.weight(x, a))}
    for x in order[1:]:
        v = values[x]
        # 0 < v <= 1 on K: strict positivity must be certified; the upper
        # bound is violated only by a certified positive excess (v equal
        # to 1 within its guarantee is fine).
        if not scalars.certainly_positive(v):
            if scalars.is_zero_like(v):
                raise PrecisionExhaustedError(
                    f"solution value at vertex {x} not certified positive"
                )
            raise AssertionError(f"maximum principle violated at vertex {x}")
        if scalars.certainly_positive(v - one):
            raise AssertionError(f"maximum principle violated at vertex {x}")

    capacity = graph.degree_weight(a)
    for y, w in graph.neighbors(a).items():
        if y in values:
            capacity = capacity - values[y] * w
    return DirichletSolution(
        vertices=tuple(order),
        root=a,
        values=values,
        normalization="potential",
        energy=capacity,
        capacity=capacity,
    )


def solve_renormalized(graph, K, a) -> DirichletSolution:
    """Charge-normalized solution: Laplacian equal to the indicator of a on
    K, zero outside.  Related to the potential solution v by
    v_charge = v / (Delta v(a)) and capacity = m(a) / v_charge(a)."""
    base = solve_dp(graph, K, a)
    capacity = base.capacity
    if not capacity:
        if scalars.is_zero_like(capacity):
            raise PrecisionExhaustedError(
                "capacity not certified nonzero; cannot renormalize"
            )
        # Exact zero: K exhausts a finite graph, constants are harmonic and
        # the charge-normalized problem has no solution.
        raise PreconditionError(
            "the boundary of K is empty; the charge-normalized problem is singular"
        )
    scale = graph.measure(a) * capacity.inv()
    values = {x: v * scale for x, v in base.values.items()}
    return DirichletSolution(
        vertices=base.vertices,
        root=a,
        values=values,
        normalization="charge",
        energy=base.energy * scale * scale,
        capacity=capacity,
    )


def effective_capacity(graph, K, a):
    """cap_K(a): the charge of the potential-normalized solution at a.
    Independent of the measure and monotone decreasing in K."""
    return solve_dp(graph, K, a).capacity


def energy(graph, phi: Mapping):
    """Quadratic form Q(phi) = 1/2 sum (phi(x)-phi(y))^2 b(x,y) for a
    finitely supported phi given as a vertex -> value mapping."""
    zero = graph.field.zero()
    total = zero
    seen = set()
    for x, vx in phi.items():
        for y, w in graph.neighbors(x).items():
            pair = (x, y) if x < y else (y, x)
            if pair in seen:
                continue
            seen.add(pair)
            diff = vx - phi.get(y, zero)
            total = total + diff * diff * w
    return total


def pairing(graph, f: Mapping, g: Mapping):
    """Dual pairing <f, g> = sum f(x) g(x) m(x) over the support of f."""
    total = graph.field.zero()
    for x, fx in f.items():
        gx = g.get(x)
        if gx is not None:
            total = total + fx * gx * graph.measure(x)
    return total


def laplacian_apply(graph, f, x):
    """Delta f(x) = (1/m(x)) sum (f(x) - f(y)) b(x, y); f may be a mapping
    (zero off its keys) or a callable defined on the needed vertices."""
    zero = graph.field.zero()
    if callable(f):
        fetch = f
    else:
        fetch = lambda v: f.get(v, zero)  # noqa: E731
    fx = fetch(x)
    total = zero
    for y, w in graph.neighbors(x).items():
        total = total + (fx - fetch(y)) * w
    return total * graph.measure(x).inv()


def green_matrix(graph, K, y) -> Mapping:
    """Column x -> G_K(x, y) of the inverse Dirichlet Laplacian on K, i.e.
    the charge-normalized solution rooted at y."""
    return solve_renormalized(graph, K, y).values


def dirichlet_inverse_apply(graph, K, phi: Mapping) -> Mapping:
    """Solve Delta_K u = phi on K (u zero outside K) for an arbitrary
    right-hand side supported in K."""
    order = _bfs_order(graph, K, next(iter(K)))
    zero = graph.field.zero()
    return _solve(graph, order, lambda x: graph.measure(x) * phi.get(x, zero))
