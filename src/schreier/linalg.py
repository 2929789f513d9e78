"""Exact linear algebra over the rationals: the one integer-preserving pivot.

Rational rows are cleared to integers by the LCM of their denominators,
which changes neither rank nor kernel.  Elimination then pivots fraction-free
(Edmonds 1967, Bareiss 1968): after each pivot every entry is d times its
rational value, d the last pivot, and the division by the previous d is exact
by Sylvester's identity.  ``rank``, ``nullspace_vector`` and the simplex
tableau all pivot with ``pivot_rows``.
"""

from fractions import Fraction
from math import lcm


def cleared(values) -> tuple[list[int], int]:
    """The ints and Fractions ``values`` times the LCM of their denominators,
    and that LCM.  Any other value, a float included, raises."""
    values = list(values)
    dens = [v.denominator for v in values]
    scale = lcm(*dens)
    return [v.numerator * (scale // d) for v, d in zip(values, dens)], scale


def eliminate(other, pivot_row, col, p, d):
    """Row ``other`` after the pivot p = ``pivot_row[col]``; over d before, p after."""
    factor = other[col]
    if factor:
        return [(a * p - factor * b) // d for a, b in zip(other, pivot_row)]
    if p != d:
        return [a * p // d for a in other]
    return other


def pivot_rows(rows, r, col, d) -> tuple[list[list[int]], int]:
    """The rows over d after pivoting on ``rows[r][col]``, and the pivot p > 0.

    A negative pivot row is negated first, which keeps p, the new common
    denominator, positive.  Every other row goes through ``eliminate``.
    """
    pivot_row = rows[r]
    if pivot_row[col] < 0:
        pivot_row = [-a for a in pivot_row]
    p = pivot_row[col]
    return [pivot_row if i == r else eliminate(row, pivot_row, col, p, d)
            for i, row in enumerate(rows)], p


def _reduce(rows) -> tuple[list[list[int]], list[int], int]:
    """Integer Gauss-Jordan elimination: (rows, pivot columns, d).

    Pivots go left to right, each on the first remaining row that is nonzero
    in its column.  Row i of the result holds d > 0 in column ``pivots[i]``
    and 0 in every other pivot column; the rows after the last pivot row are
    zero.
    """
    m = [cleared(row)[0] for row in rows]
    pivots: list[int] = []
    d = 1
    for col in range(len(m[0]) if m else 0):
        r = len(pivots)
        if r == len(m):
            break
        found = next((i for i in range(r, len(m)) if m[i][col]), None)
        if found is None:
            continue
        m[r], m[found] = m[found], m[r]
        m, d = pivot_rows(m, r, col, d)
        pivots.append(col)
    return m, pivots, d


def rank(rows) -> int:
    """Exact rank: the number of pivots of the integer elimination."""
    return len(_reduce(rows)[1])


def nullspace_vector(rows, dim: int) -> list[Fraction] | None:
    """One nonzero kernel element of the row system, or None if trivial.

    With j the first free column, the vector is 1 at j, -row[j]/d at the
    pivot column of each reduced row and 0 elsewhere: the vector that reduced
    row echelon form gives, since its free coordinates fix it.
    """
    reduced, pivots, d = _reduce(rows)
    pivot_set = set(pivots)
    free = [j for j in range(dim) if j not in pivot_set]
    if not free:
        return None
    j_free = free[0]
    vec = [Fraction(0)] * dim
    vec[j_free] = Fraction(1)
    for row, col in zip(reduced, pivots):
        vec[col] = Fraction(-row[j_free], d)
    return vec
