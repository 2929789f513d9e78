"""Exact linear algebra over the rationals: the one integer-preserving pivot.

Rational rows are cleared to integers by the LCM of their denominators,
which changes neither rank nor kernel.  Elimination then pivots fraction-free
(Edmonds 1967, Bareiss 1968): after each pivot every entry is d times its
rational value, d the last pivot, and the division by the previous d is exact
by Sylvester's identity.  ``nullspace_vector`` runs Gauss-Jordan, which
pivots every row, as it reads the reduced echelon form; it and the simplex
tableau pivot with ``pivot_rows``.  ``rank`` is row-incremental Bareiss: it
pushes one row at a time through the pivots found so far with
``eliminate``, skips a pivot whose factor is 0, and stops at full column
rank (the proof that its divisions are exact is in its docstring).  Every
answer is an integer.
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


def _reduce(rows) -> tuple[list[list[int]], list[int], int]:
    """Integer Gauss-Jordan elimination: (rows, pivot columns, d).

    Pivots go left to right, each on the first remaining row that is nonzero
    in its column; the rows after the last pivot row end zero.  Every row is
    pivoted, so row i of the result holds d > 0 in column ``pivots[i]`` and
    0 in every other pivot column.
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
    """Exact rank, by row-incremental Bareiss elimination.

    Each row is cleared and pushed through the pivots recorded so far, in
    their order; a row that ends nonzero records a new pivot on its first
    nonzero column, and the loop stops once the pivots reach the column
    count, as every later row then lies in their span.

    Exactness.  Let the recorded pivots sit at rows r_1, ..., r_k and
    columns c_1, ..., c_k of the cleared matrix A, and let d_k be the minor
    A[r_1..r_k; c_1..c_k] (d_0 = 1).  Row i at level k holds, in column j,
    the bordered minor A[r_1..r_k, i; c_1..c_k, j], an integer.  The pivot
    row P_k is row r_k at level k - 1, so P_k[c_k] = d_k.  Sylvester's
    identity (Bareiss 1968) gives, for row a at level k - 1 with factor
    f = a[c_k], the level-k row (a d_k - f P_k) / d_(k-1).  It expands a
    determinant, so it holds for any row and column order, and in
    particular for pivots found one row at a time.  At f = 0 the step is
    the rescaling a d_k / d_(k-1), and these telescope: a row last updated
    at level l is a d_(k-1) / d_l at level k - 1, and its next step with
    f = a[c_k] != 0 is (a d_k - f P_k) / d_l.  So ``eliminate`` runs with
    d = d_l and skips every pivot with f = 0; each quotient is a bordered
    minor, so the division is exact.  A row that ends at level l after r
    pivots is a d_r / d_l at level r, again a vector of minors, so a new
    pivot row is rescaled once, exactly, and its entry at the new pivot
    column is d_(r+1).  The bordered minor is d_r times the residual of
    row i off the span of the pivot rows (a Schur complement), so a row
    ends zero exactly when it lies in that span, and the rank is the number
    of pivots.
    """
    pivots: list[tuple[list[int], int, int]] = []  # (P_k, c_k, d_k)
    d = 1  # d_r, the last pivot
    width = len(rows[0]) if rows else 0
    for row in rows:
        if len(pivots) == width:
            break
        a, level = cleared(row)[0], 1  # level holds d_l
        for pivot_row, col, p in pivots:
            if a[col]:
                a, level = eliminate(a, pivot_row, col, p, level), p
        col = next((j for j, v in enumerate(a) if v), None)
        if col is None:
            continue
        if level != d:
            a = [v * d // level for v in a]
        pivots.append((a, col, a[col]))
        d = a[col]
    return len(pivots)


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
