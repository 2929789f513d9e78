"""Reference answers for the query-mix checks, sharing no code with schreier.

Vectors are plain dicts {index: Fraction}.  Admissibility is taken straight
from its definition (a set F of positive integers with min F >= |F|) over
power sets, so none of the package's greedy norm, enumerators, elimination
or simplex can leak into the reference.  The dual norm is an LP over every
admissible set, solved by sympy's exact simplex.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations


@lru_cache(maxsize=4096)
def admissible_subsets(indices: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Every admissible subset of the sorted tuple `indices`, empty set included."""
    out = [()]
    for size in range(1, len(indices) + 1):
        for F in combinations(indices, size):
            if F[0] >= size:
                out.append(F)
    return tuple(out)


def _sums(x: dict) -> list[tuple[tuple[int, ...], Fraction]]:
    support = tuple(sorted(i for i, q in x.items() if q != 0))
    return [(F, sum((abs(x[i]) for i in F), Fraction(0))) for F in admissible_subsets(support)]


def norm(x: dict) -> Fraction:
    return max(total for _, total in _sums(x))


def one_sets(x: dict) -> list[tuple[int, ...]]:
    return sorted(F for F, total in _sums(x) if F and total == 1)


def eps_gap(x: dict) -> Fraction:
    return 1 - max(total for _, total in _sums(x) if total < 1)


def covers(x: dict, i: int) -> bool:
    """Some admissible G containing i has sum of |x| over G equal to 1."""
    others = sorted(j for j, q in x.items() if q != 0 and j != i)
    for size in range(0, len(others) + 1):
        for H in combinations(others, size):
            G = sorted(H + (i,))
            if G[0] >= len(G) and sum((abs(x.get(j, 0)) for j in G), Fraction(0)) == 1:
                return True
    return False


def add(x: dict, y: dict, scale: Fraction = Fraction(1)) -> dict:
    out = dict(x)
    for i, q in y.items():
        out[i] = out.get(i, Fraction(0)) + scale * q
    return {i: q for i, q in out.items() if q != 0}


def rank(rows: list[list[Fraction]]) -> int:
    """Rank by plain Gaussian elimination over Fraction."""
    m = [list(map(Fraction, row)) for row in rows]
    r = 0
    cols = len(m[0]) if m else 0
    for col in range(cols):
        pivot = next((i for i in range(r, len(m)) if m[i][col] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        for i in range(r + 1, len(m)):
            if m[i][col] != 0:
                f = m[i][col] / m[r][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


def section_vertex(e: dict) -> bool:
    """The active signed admissible constraints of e pin it in [1, max supp e].

    Every admissible F in the window with sum of |e| over F equal to 1 gives
    the rows sum(s_i v_i) <= 1 with s_i = sign e_i on the support and both
    signs where e vanishes; e is a vertex when they have full rank.
    """
    N = max(e)
    rows = []
    for F in admissible_subsets(tuple(range(1, N + 1))):
        if not F or sum((abs(e.get(i, 0)) for i in F), Fraction(0)) != 1:
            continue
        zeros = [i for i in F if e.get(i, 0) == 0]
        for mask in range(2 ** len(zeros)):
            row = [0] * N
            for i in F:
                row[i - 1] = 1 if e.get(i, 0) >= 0 else -1
            for bit, i in enumerate(zeros):
                if mask >> bit & 1:
                    row[i - 1] = -1
            rows.append(row)
    return rank(rows) == N


def has_non_maximal_one_set(e: dict) -> bool:
    return any(F[0] > len(F) for F in one_sets(e))


def dual_norm(f: dict) -> Fraction:
    """max sum |f_i| x_i over x >= 0 with sum over F of x <= 1 for admissible F.

    x vanishes off the support S of f at an optimum (those coordinates add
    nothing and only tighten constraints), and the traces F & S of
    admissible sets are exactly the admissible subsets of S, so the LP
    lives on S alone.  A subset of an admissible set is admissible and its
    constraint follows from the larger one's, so only maximal sets are kept.
    """
    from sympy import Rational
    from sympy.solvers.simplex import linprog

    support = tuple(sorted(i for i, q in f.items() if q != 0))
    if not support:
        return Fraction(0)
    sets = [set(F) for F in admissible_subsets(support) if F]
    sets = [F for F in sets if not any(F < G for G in sets)]
    A = [[1 if j in F else 0 for j in support] for F in sets]
    c = [-Rational(abs(f[j]).numerator, abs(f[j]).denominator) for j in support]
    value, _ = linprog(c, A, [1] * len(A))
    value = -value
    return Fraction(int(value.p), int(value.q))
