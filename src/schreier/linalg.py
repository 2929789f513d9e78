"""Exact linear algebra over the rationals: rank, row reduction, kernel.

Rank uses fraction-free (Bareiss) elimination on integer matrices; rational
rows are cleared to integers first, which cannot change the rank.
"""

import math
from fractions import Fraction


def _integer_rows(rows) -> list[list[int]]:
    out = []
    for row in rows:
        row = [Fraction(v) for v in row]
        lcm = math.lcm(*(v.denominator for v in row))
        out.append([int(v * lcm) for v in row])
    return out


def rank(rows) -> int:
    """Exact rank via Bareiss fraction-free elimination."""
    m = _integer_rows(rows)
    if not m:
        return 0
    n_rows, n_cols = len(m), len(m[0])
    r = 0
    prev = 1
    for col in range(n_cols):
        pivot_row = None
        for i in range(r, n_rows):
            if m[i][col] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        pivot = m[r][col]
        for i in range(r + 1, n_rows):
            for j in range(col + 1, n_cols):
                m[i][j] = (pivot * m[i][j] - m[i][col] * m[r][j]) // prev
            m[i][col] = 0
        prev = pivot
        r += 1
        if r == n_rows:
            break
    return r


def rref(rows) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    m = [[Fraction(v) for v in row] for row in rows]
    if not m:
        return [], []
    n_rows, n_cols = len(m), len(m[0])
    pivots: list[int] = []
    r = 0
    for col in range(n_cols):
        pivot_row = None
        for i in range(r, n_rows):
            if m[i][col] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = 1 / m[r][col]
        m[r] = [v * inv for v in m[r]]
        for i in range(n_rows):
            if i != r and m[i][col] != 0:
                factor = m[i][col]
                m[i] = [a - factor * b for a, b in zip(m[i], m[r])]
        pivots.append(col)
        r += 1
        if r == n_rows:
            break
    return m[:r], pivots


def nullspace_vector(rows, dim: int) -> list[Fraction] | None:
    """One nonzero kernel element of the row system, or None if trivial."""
    reduced, pivots = rref(rows)
    pivot_set = set(pivots)
    free = [j for j in range(dim) if j not in pivot_set]
    if not free:
        return None
    j_free = free[0]
    vec = [Fraction(0)] * dim
    vec[j_free] = Fraction(1)
    for row, col in zip(reduced, pivots):
        vec[col] = -row[j_free]
    return vec

