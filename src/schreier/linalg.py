"""Exact linear algebra over the rationals: the one integer-preserving pivot.

Rational rows are cleared to integers by the LCM of their denominators,
which changes neither rank nor kernel.  Elimination then pivots fraction-free
(Edmonds 1967, Bareiss 1968): after each pivot every entry is d times its
rational value, d the last pivot, and the division by the previous d is exact
by Sylvester's identity.  ``_echelon`` is row-incremental Bareiss: it pushes
one row at a time through the pivots found so far with ``eliminate``, skips
a pivot whose factor is 0, and stops at full column rank (the proof that its
divisions are exact is in its docstring).  ``rank`` counts its pivots, and
``nullspace_vector`` back-substitutes through them.  The simplex tableau
pivots with ``pivot_rows``, which runs the same ``eliminate``.  Every answer
is an integer.
"""

from math import gcd, lcm


def cleared(values) -> tuple[list[int], int]:
    """The ints and Fractions ``values`` times the LCM of their denominators,
    and that LCM.  Any other value, a float included, raises.

    A list of ints, the rows of ``rank``, ``_Tableau.add_row`` and the DD,
    comes back as it is, over 1, with no LCM pass; a bool is not an int
    here, so it takes the pass and comes back as 0 or 1, as it always did.
    """
    values = list(values)
    if all(type(v) is int for v in values):
        return values, 1
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


def _echelon(rows) -> list[tuple[list[int], int, int]]:
    """The pivots (P_k, c_k, d_k) of row-incremental Bareiss elimination.

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
    ends zero exactly when it lies in that span, and the pivot rows span
    the row space.
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
    return pivots


def rank(rows) -> int:
    """Exact rank: the number of pivots of ``_echelon``."""
    return len(_echelon(rows))


def nullspace_vector(rows, dim: int) -> list[int] | None:
    """The primitive integer kernel vector of the row system, or None if trivial.

    With the pivots (P_k, c_k, d_k), k = 1..r, of ``_echelon`` and j the
    first column that is not a pivot column, v[j] = |d_r| (1 without
    pivots), every other free column is 0, and v[c_k] = -(P_k . v) / d_k
    for k = r down to 1, each sum taken while v[c_k] is still 0.  The
    vector is divided by the gcd of its entries.

    It is the vector that Gauss-Jordan reads off the reduced row echelon
    form (RREF): d at j, -row[j] at each pivot column, made primitive.
    P_k is row r_k pushed through the pivots before it, so it is zero at
    c_1..c_(k-1), and zero before c_k, its first nonzero column.  So the
    P_k, ordered by c_k, are an echelon basis of the row space.  The
    leading columns of any echelon basis are the RREF pivot columns, so j
    is the RREF's first free column.  P_k . v = 0 then holds for every k
    once v[c_k] is set, as P_k has no entry on c_1..c_(k-1), so v is in
    the kernel.  The pivot minor A[r_1..r_r; c_1..c_r] of the cleared rows
    has determinant d_r (see ``_echelon``), and the kernel vector with
    |d_r| at j and 0 on the other free columns solves a system with that
    matrix, so by Cramer's rule every v[c_k] is an integer and each
    division is exact.  The kernel vectors that are 0 on the free columns
    other than j form a line, on which a primitive vector positive at j is
    unique; Gauss-Jordan's vector lies on it and is positive at j, so the
    two are equal, and every row set with that kernel gives that vector.
    """
    pivots = _echelon(rows)
    pivot_cols = {col for _, col, _ in pivots}
    j_free = next((j for j in range(dim) if j not in pivot_cols), None)
    if j_free is None:
        return None
    vec = [0] * dim
    vec[j_free] = abs(pivots[-1][2]) if pivots else 1
    for pivot_row, col, p in reversed(pivots):
        vec[col] = -sum(a * v for a, v in zip(pivot_row, vec)) // p
    g = gcd(*vec)
    return [v // g for v in vec]
