"""Series-law reference for capacities on path graphs.

On a path rooted at 0 the ball B_n is a chain of n - 1 edges plus the one
edge leaving it, so the edges act as resistors in series (Nash-Williams
1959): cap_n(0) = (sum_{k<n} 1/b(k, k+1))^{-1}.  The capacity tests compare
the library's elimination against it.
"""

from nacap.errors import PreconditionError


def path_series_capacity(graph, a, n):
    """cap_n(0) on a path graph by the series law."""
    if not graph.is_path or a != 0:
        raise PreconditionError("series law oracle applies to path graphs rooted at 0")
    total = graph.field.zero()
    for k in range(n):
        total = total + graph.weight(k, k + 1).inv()
    return total.inv()
