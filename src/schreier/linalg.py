"""Exact linear algebra over the rationals: the one integer-preserving pivot.

Rational rows are cleared to integers by the LCM of their denominators,
which changes neither rank nor kernel.  Elimination then pivots fraction-free
(Edmonds 1967, Bareiss 1968): after each pivot every entry is d times its
rational value, d the last pivot, and the division by the previous d is exact
by Sylvester's identity.  ``rank`` runs forward elimination, which pivots
only the rows from the pivot row down; ``nullspace_vector`` runs
Gauss-Jordan, which pivots the rows above as well, as it reads the reduced
echelon form.  Both, and the simplex tableau, pivot with ``pivot_rows``, and
every answer is an integer.
"""

from math import gcd, lcm


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


def _reduce(rows, jordan: bool = True) -> tuple[list[list[int]], list[int], int]:
    """Integer elimination: (rows, pivot columns, d).

    Pivots go left to right, each on the first remaining row that is nonzero
    in its column; the rows after the last pivot row end zero.  Gauss-Jordan
    (``jordan``) pivots every row, so row i of the result holds d > 0 in
    column ``pivots[i]`` and 0 in every other pivot column.  Forward
    elimination pivots only the pivot row and the rows below it, which gives
    the echelon form.  ``pivot_rows`` treats each row apart from the others,
    so the rows from the pivot row down, and with them the pivots and d, are
    the same either way, and the Bareiss division stays exact.
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
        if jordan:
            m, d = pivot_rows(m, r, col, d)
        else:
            m[r:], d = pivot_rows(m[r:], 0, col, d)
        pivots.append(col)
    return m, pivots, d


def rank(rows) -> int:
    """Exact rank: the number of pivots of the forward integer elimination."""
    return len(_reduce(rows, jordan=False)[1])


def nullspace_vector(rows, dim: int) -> list[int] | None:
    """The primitive integer kernel vector of the row system, or None if trivial.

    With j the first free column, the vector is d at j, -row[j] at the pivot
    column of each reduced row and 0 elsewhere, divided by the gcd of its
    entries: d times the vector that reduced row echelon form gives (1 at j),
    made primitive.  It is positive at j, and since the kernel fixes j and the
    echelon vector, every row set with that kernel gives the same vector.
    """
    reduced, pivots, d = _reduce(rows)
    pivot_set = set(pivots)
    j_free = next((j for j in range(dim) if j not in pivot_set), None)
    if j_free is None:
        return None
    vec = [0] * dim
    vec[j_free] = d
    for row, col in zip(reduced, pivots):
        vec[col] = -row[j_free]
    g = gcd(*vec)
    return [v // g for v in vec]
