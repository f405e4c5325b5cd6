"""Reference Dirichlet solver: general Gaussian elimination.

It assembles both triangles of the Dirichlet matrix b(x)δ_xy − b(x,y),
searches each column for a certified-nonzero pivot and swaps rows when the
diagonal entry is not one.  The library solves the same systems by symmetric
elimination on the upper triangle; the differential tests require it to
reproduce these results term for term.
"""

from nacap import scalars
from nacap.errors import (
    DisconnectedSetError,
    PreconditionError,
    PrecisionExhaustedError,
)


def reference_solve_system(rows, rhs, zero):
    """Exact Gaussian elimination with pivoting by certified nonzero.

    rows is a list of sparse dicts (column -> coefficient) holding the whole
    matrix."""
    m = len(rows)
    for col in range(m):
        pivot_row = None
        saw_zero_like = False
        for r in range(col, m):
            entry = rows[r].get(col)
            if entry is None:
                continue
            if entry:
                pivot_row = r
                break
            saw_zero_like = saw_zero_like or scalars.is_zero_like(entry)
        if pivot_row is None:
            if saw_zero_like:
                raise PrecisionExhaustedError(
                    f"no certified pivot in column {col}; rerun with a larger window"
                )
            raise DisconnectedSetError("singular Dirichlet system")
        if pivot_row != col:
            rows[col], rows[pivot_row] = rows[pivot_row], rows[col]
            rhs[col], rhs[pivot_row] = rhs[pivot_row], rhs[col]
        pivot = rows[col][col]
        pivot_inv = pivot.inv()
        for r in range(col + 1, m):
            entry = rows[r].get(col)
            if entry is None:
                continue
            if not entry and not scalars.is_zero_like(entry):
                rows[r].pop(col, None)
                continue
            factor = entry * pivot_inv
            row_col = rows[col]
            target = rows[r]
            for c, value in row_col.items():
                if c == col:
                    target.pop(col, None)
                    continue
                updated = target.get(c, zero) - factor * value
                if updated or scalars.is_zero_like(updated):
                    target[c] = updated
                else:
                    target.pop(c, None)
            rhs[r] = rhs[r] - factor * rhs[col]
    solution = [zero] * m
    for col in range(m - 1, -1, -1):
        acc = rhs[col]
        for c, value in rows[col].items():
            if c > col:
                acc = acc - value * solution[c]
        solution[col] = acc * rows[col][col].inv()
    return solution


def _order(graph, K, a):
    members = set(K)
    order = [x for sphere in graph.spheres(a, members) for x in sphere]
    if len(order) != len(members):
        raise DisconnectedSetError("K is not connected")
    return order


def reference_solve_dp(graph, K, a):
    """(values, capacity) of the potential-normalized problem on K rooted
    at a, with 0 < v <= 1 certified as the library does."""
    order = _order(graph, K, a)
    zero = graph.field.zero()
    one = graph.field.one()
    members = set(order)
    interior = order[1:]
    index = {v: i for i, v in enumerate(interior)}
    values = {a: one}
    if interior:
        rows = []
        rhs = []
        for x in interior:
            row = {index[x]: graph.degree_weight(x)}
            b = zero
            for y, w in graph.neighbors(x).items():
                if y == a:
                    b = b + w
                elif y in members:
                    row[index[y]] = -w
            rows.append(row)
            rhs.append(b)
        solution = reference_solve_system(rows, rhs, zero)
        for x in interior:
            values[x] = solution[index[x]]
        for x in interior:
            v = values[x]
            if not scalars.certainly_positive(v):
                if scalars.is_zero_like(v):
                    raise PrecisionExhaustedError(f"value at {x} not certified positive")
                raise AssertionError(f"maximum principle violated at vertex {x}")
            if scalars.certainly_positive(v - one):
                raise AssertionError(f"maximum principle violated at vertex {x}")
    capacity = graph.degree_weight(a)
    for y, w in graph.neighbors(a).items():
        if y in members:
            capacity = capacity - values[y] * w
    return values, capacity


def reference_green_column(graph, K, y):
    """x -> G_K(x, y): the potential solution rooted at y scaled by
    m(y)/cap_K(y)."""
    values, capacity = reference_solve_dp(graph, K, y)
    if not capacity:
        if scalars.is_zero_like(capacity):
            raise PrecisionExhaustedError("capacity not certified nonzero")
        raise PreconditionError("the boundary of K is empty")
    scale = graph.measure(y) * capacity.inv()
    return {x: v * scale for x, v in values.items()}


def reference_inverse_apply(graph, K, phi):
    """u with Delta_K u = phi on K and u = 0 outside K."""
    order = _order(graph, K, next(iter(K)))
    zero = graph.field.zero()
    members = set(order)
    index = {v: i for i, v in enumerate(order)}
    rows = []
    rhs = []
    for x in order:
        row = {index[x]: graph.degree_weight(x)}
        for y, w in graph.neighbors(x).items():
            if y in members:
                row[index[y]] = -w
        rows.append(row)
        rhs.append(graph.measure(x) * phi.get(x, zero))
    solution = reference_solve_system(rows, rhs, zero)
    return {x: solution[index[x]] for x in order}
