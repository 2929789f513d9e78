"""Shared helpers: random rational vectors and independent brute-force oracles.

The oracles deliberately avoid the production code paths: admissibility is
re-derived from the raw min >= size condition over power sets and vertices
come from solving every square subsystem with plain Gauss-Jordan
elimination, so the greedy norm, the enumerators, and the certification
logic are checked against arithmetic that cannot share their bugs.
"""

import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import gcd, lcm

import pytest

from schreier import simplex
from schreier.dual import dual_norm_witness
from schreier.errors import UnitNormRequired
from schreier.extreme import positive_extreme_points
from schreier.linalg import cleared, eliminate, pivot_rows
from schreier.vectors import Vector, _greedy, norm


def powerset_admissible(N):
    """All admissible subsets of [1, N] straight from the definition."""
    universe = list(range(1, N + 1))
    out = [()]
    for size in range(1, N + 1):
        for cand in combinations(universe, size):
            if cand[0] >= size:
                out.append(cand)
    return out


@lru_cache(maxsize=None)
def in_schreier_family(F: tuple[int, ...], k: int) -> bool:
    """Membership of the increasing tuple F in S_k from the definition.

    S_0 holds the sets of size at most one, S_1 those with min F >= |F|, and
    F is in S_(k+1) when it splits into at most min F consecutive blocks,
    each in S_k.
    """
    if not F:
        return True
    if k == 0:
        return len(F) <= 1
    if k == 1:
        return F[0] >= len(F)

    def tiles(rest, blocks):
        if not rest:
            return True
        return blocks > 0 and any(
            in_schreier_family(rest[:j], k - 1) and tiles(rest[j:], blocks - 1)
            for j in range(1, len(rest) + 1)
        )

    return tiles(F, F[0])


def canonical_key(v: Vector, N: int):
    """The canonical order on [1, N]: by magnitude then sign, coordinatewise."""
    return tuple((abs(v[i]), 0 if v[i] >= 0 else 1) for i in range(1, N + 1))


def sign_patterns(v: Vector):
    """v under every sign pattern of its support, all signs kept first."""
    support = v.support
    for signs in product((1, -1), repeat=len(support)):
        yield Vector({i: s * v[i] for i, s in zip(support, signs)})


def embed(head, tail, F) -> Vector:
    """The vector with head on [1, len(head)] and tail on F, in order."""
    coords = dict(enumerate(head, start=1))
    coords.update(zip(F, tail))
    return Vector(coords)


def reference_failed_conditions(e: Vector) -> list[str]:
    """The six necessary conditions for extremality, each checked as stated.

    The 1-sets come from the definition: the admissible subsets of supp e
    summing to 1 in |e|.  An index is covered when it lies in a 1-set or
    extends one admissibly.  Names come in report order.
    """
    support = e.support
    sets = [
        F
        for size in range(1, len(support) + 1)
        for F in combinations(support, size)
        if F[0] >= size and sum(abs(e[i]) for i in F) == 1
    ]
    uncovered = [
        i for i in range(1, e.max_index + 2)
        if not any(i in G or min(G[0], i) > len(G) for G in sets)
    ]
    non_max = [F for F in sets if F[0] > len(F)]
    failed = []
    if not non_max:
        failed.append("non_maximal_one_set_exists")
    else:
        F = non_max[0]
        m = len(F)
        if len(non_max) != 1:
            failed.append("non_maximal_one_set_unique")
        if tuple(i for i in support if i >= F[0]) != F:
            failed.append("tail_matches_support")
        if tuple(i for i in support if i <= m) != tuple(range(1, m + 1)):
            failed.append("head_is_initial_segment")
        if len(support) != 2 * m:
            failed.append("support_twice_one_set")
    if uncovered:
        failed.append("coverage")
    return failed


def reference_admissible_sums(
    x: Vector, window: int, order: int = 1, within=None
) -> list[tuple[tuple[int, ...], Fraction]]:
    """(F, sum of |x| over F) in Fractions for every F of S_order in
    [1, window] (and inside ``within`` when given), the empty set included,
    in lexicographic order: the sums admissible_sums clears."""
    universe = [i for i in range(1, window + 1) if within is None or i in within]
    sets = sorted(
        F
        for size in range(len(universe) + 1)
        for F in combinations(universe, size)
        if in_schreier_family(F, order)
    )
    return [(F, sum((abs(x[i]) for i in F), Fraction(0))) for F in sets]


def reference_active_rows(e: Vector, N: int) -> list[list[Fraction]]:
    """The signed row of every admissible F in [1, N] with |e|(F) = 1, in
    Fractions: the sign of e on its support, and both signs at a zero of e."""
    rows = []
    for F, total in reference_admissible_sums(e, N):
        if total != 1:
            continue
        choices = [(1 if e[i] > 0 else -1,) if i in e else (1, -1) for i in F]
        for signs in product(*choices):
            row = [Fraction(0)] * N
            for i, s in zip(F, signs):
                row[i - 1] = Fraction(s)
            rows.append(row)
    return rows


@lru_cache(maxsize=None)
def full_length_traces(n: int) -> list[tuple[int, ...]]:
    """The admissible G in [1, 2^n - 1] with |G| = min G, lexicographically,
    from the power set."""
    return sorted(F for F in powerset_admissible(2**n - 1) if F and len(F) == F[0])


def pairwise_maximal(sets):
    """Inclusion-maximal members of a finite family, by pairwise subset tests."""
    as_sets = [set(F) for F in sets]
    return [F for F, S in zip(sets, as_sets) if not any(S < T for T in as_sets)]


def brute_norm(x: Vector) -> Fraction:
    """Independent norm oracle: maximize |x| sums over the raw power set."""
    best = Fraction(0)
    for F in powerset_admissible(x.max_index):
        total = sum((abs(x[i]) for i in F), Fraction(0))
        if total > best:
            best = total
    return best


def solve_square(rows, rhs) -> list[Fraction] | None:
    """Solve a square system exactly by Gauss-Jordan elimination; None when singular."""
    n = len(rows)
    m = [[Fraction(a) for a in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return None
        m[col], m[pivot] = m[pivot], m[col]
        m[col] = [a / m[col][col] for a in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
    return [row[n] for row in m]


def vertices_by_combination_search(dim, rows):
    """Vertices of {x : coeffs.x <= b for (coeffs, b) in rows}, a polytope.

    Every dim-subset of the rows is solved as equalities; a unique solution
    that satisfies all rows is a vertex.
    """
    found = set()
    for combo in combinations(rows, dim):
        sol = solve_square([coeffs for coeffs, _ in combo], [b for _, b in combo])
        if sol is None:
            continue
        if all(sum(a * v for a, v in zip(coeffs, sol)) <= b for coeffs, b in rows):
            found.add(tuple(sol))
    return found


def dd_point(v) -> tuple[Fraction, ...]:
    """The exact point num / den of a DD vertex."""
    return tuple(Fraction(a, v.den) for a in v.num)


def reference_reduce(rows) -> tuple[list[list[int]], list[int], int]:
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


def reference_kernel_vector(rows, dim: int) -> list[int] | None:
    """The kernel vector read off the reduced echelon form: with j the first
    free column, d at j, -row[j] at the pivot column of each reduced row and
    0 elsewhere, made primitive; None when every column is a pivot."""
    reduced, pivots, d = reference_reduce(rows)
    j = next((j for j in range(dim) if j not in pivots), None)
    if j is None:
        return None
    vec = [0] * dim
    vec[j] = d
    for row, col in zip(reduced, pivots):
        vec[col] = -row[j]
    g = gcd(*vec)
    return [v // g for v in vec]


class ReferenceTableau:
    """The dense integer tableau: rows ``[rhs, x_1..x_n, slack_1..slack_m]`` over d.

    ``simplex._Tableau`` drops the basic columns and must take the same
    pivots, so it is checked against this one, which keeps every column.

    Column j of a row holds variable j (1-based); ``basis[i]`` is the column
    basic in row i, and ``obj`` is the objective row, whose rhs entry is d
    times the LCM of the objective's denominators times its value.  A new
    tableau has no rows and the zero objective; ``optimize`` prices one in.
    """

    def __init__(self, n: int):
        self.n = n
        self.obj = [0] * (n + 1)
        self.rows: list[list[int]] = []
        self.basis: list[int] = []
        self.d = 1

    def add_row(self, row, b) -> None:
        """Append a.x <= b with its own slack, written in the current basis."""
        if len(row) != self.n:
            raise ValueError(f"constraint has {len(row)} coefficients, expected {self.n}")
        ints, _ = cleared([b, *row])  # a positive LCM keeps the sign of b
        if ints[0] < 0:
            raise ValueError("simplex expects nonnegative right-hand sides")
        d = self.d
        new = [d * v for v in ints] + [0] * (len(self.obj) - len(ints))
        for i, var in enumerate(self.basis):
            if var <= self.n and ints[var]:
                coeff = ints[var]
                new = [a - coeff * t for a, t in zip(new, self.rows[i])]
        for other in self.rows:
            other.append(0)
        self.obj.append(0)
        new.append(d)
        self.rows.append(new)
        self.basis.append(len(new) - 1)

    def optimize(self, c, cut=None) -> list[int]:
        """Optimum of c over the rows, re-priced in the current basis: the
        numerators over d of the optimal x.

        ``cut(num, d)`` gets the optimum as integers x = num / d and works as
        in ``lp_max``; its rows stay in the tableau.  With c cleared to ints
        over its LCM scale, the objective value is ``obj[0] / (d * scale)``.
        """
        ints, _ = cleared(c)
        self.obj = self._priced(ints)
        self.primal()
        while True:
            x = self.point()
            violated = cut(x, self.d) if cut is not None else None
            if violated is None:
                return x
            self.add_row(*violated)
            if self.rows[-1][0] >= 0:
                raise ValueError("cut returned a constraint that x satisfies")
            self.dual()

    def row_duals(self, c) -> tuple[list[int], int]:
        """The dual values of the rows for objective c, in row order, over D.

        They are the reduced costs of the slack columns, ``obj[n + 1 + k]``
        over D = d times the LCM of c's denominators, once c is priced in the
        current basis; the basis is read, never pivoted.  Each value belongs
        to its row as cleared to integers (the row itself when it already
        was).  At a basis optimal for c they are an optimal LP dual:
        nonnegative, covering c, and summing to the optimum.
        """
        ints, scale = cleared(c)
        return self._priced(ints)[self.n + 1:], self.d * scale

    def _priced(self, ints) -> list[int]:
        """The objective row of the integer objective ints in the current basis."""
        if len(ints) != self.n:
            raise ValueError(f"objective has {len(ints)} coefficients, expected {self.n}")
        obj = [0] + [-self.d * v for v in ints] + [0] * (len(self.obj) - 1 - self.n)
        for i, var in enumerate(self.basis):
            if var <= self.n and ints[var - 1]:
                coeff = ints[var - 1]
                obj = [a + coeff * t for a, t in zip(obj, self.rows[i])]
        return obj

    def primal(self) -> None:
        """Primal simplex with Bland's rule until no reduced cost is negative."""
        basis = self.basis
        while True:
            rows, obj = self.rows, self.obj
            enter = None
            for j in range(1, len(obj)):
                if obj[j] < 0:
                    enter = j  # Bland: smallest index with negative reduced cost
                    break
            if enter is None:
                return
            leave = None
            for i, row in enumerate(rows):
                coeff = row[enter]
                if coeff > 0:
                    if leave is None:
                        leave = i
                        continue
                    # row[rhs] / coeff against the best ratio, both denominators > 0
                    here = row[0] * rows[leave][enter]
                    best = rows[leave][0] * coeff
                    if here < best or (here == best and basis[i] < basis[leave]):
                        leave = i
            if leave is None:
                raise ValueError("linear program is unbounded")
            self.pivot(leave, enter)

    def dual(self) -> None:
        """Dual simplex with Bland's rule until no right-hand side is negative."""
        basis = self.basis
        while True:
            rows, obj = self.rows, self.obj
            leave = None
            for i, row in enumerate(rows):
                if row[0] < 0 and (leave is None or basis[i] < basis[leave]):
                    leave = i
            if leave is None:
                return
            row = rows[leave]
            enter = None
            for j in range(1, len(row)):
                if row[j] < 0:
                    # obj[j] / -row[j] against the best ratio, both denominators > 0
                    if enter is None or obj[j] * -row[enter] < obj[enter] * -row[j]:
                        enter = j
            if enter is None:
                raise ValueError("linear program is infeasible")
            self.pivot(leave, enter)

    def pivot(self, r: int, s: int) -> None:
        self.rows, p = pivot_rows(self.rows, r, s, self.d)
        self.obj = eliminate(self.obj, self.rows[r], s, p, self.d)
        self.d = p
        self.basis[r] = s

    def point(self) -> list[int]:
        """The numerators over d of x: basic right-hand sides, 0 off the basis."""
        x = [0] * self.n
        for row, var in zip(self.rows, self.basis):
            if var <= self.n:
                x[var - 1] = row[0]
        return x


def _padded_row(F: tuple[int, ...], N: int) -> list[int]:
    row = [0] * N
    for i in F:
        row[i - 1] = 1
    return row


def reference_section_cuts(N: int):
    """The row sets of the padded section LP on [1, N] and its oracle.

    The LP that ``schreier.dual._section_lp`` replaced: one column per index
    of [1, N], zeros of the objective included.  ``sets`` starts as the N
    singletons and the oracle appends each cut, as there; the support
    lemma of ``_section_lp`` says both take the same pivots.
    """
    sets = [(i,) for i in range(1, N + 1)]
    seen = set(sets)

    def separate(num: list[int], d: int):
        value, witness = _greedy({i + 1: v for i, v in enumerate(num) if v})
        if value <= d:
            return None
        if witness in seen:
            raise RuntimeError("separation oracle repeated a constraint")
        seen.add(witness)
        sets.append(witness)
        return _padded_row(witness, N), 1

    return sets, separate


def reference_dual_norm_witness(f: Vector) -> tuple[Fraction, Vector]:
    """The dual norm and its witness from the padded LP on [1, max supp f].

    It reaches lp_max, unit_box and _Tableau through the simplex module,
    so a test that patches ``simplex._Tableau`` counts the pivots of both
    LPs, and both start from ``simplex.unit_box`` at the box vertex.
    """
    N = f.max_index
    _, separate = reference_section_cuts(N)
    value, xs = simplex.lp_max([abs(f[i]) for i in range(1, N + 1)], simplex.unit_box(N), [1] * N,
                               cut=separate)
    return value, Vector({i: q if f[i] >= 0 else -q for i, q in enumerate(xs, 1)})


def reference_dual_solve(N: int):
    """The padded pair line on [1, N]: solve(sizes) and certificate(f), as
    ``schreier.dual._dual_solve`` gives them on a ground."""
    sets, separate = reference_section_cuts(N)
    tab = simplex._Tableau(N)
    for F in sets:
        tab.add_row(_padded_row(F, N), 1)

    def solve(sizes: dict[int, int]) -> tuple[dict[int, int], int]:
        num = tab.optimize([sizes.get(i, 0) for i in range(1, N + 1)], separate)
        return {i: n for i, n in enumerate(num, 1) if n}, tab.d

    def certificate(f: Vector):
        duals, D = tab.row_duals([abs(f[i]) for i in range(1, N + 1)])
        return sets, duals, D

    return solve, certificate


def reference_newton(x: Vector, e: Vector, norming,
                     minorant_start: bool = False) -> tuple[Fraction, Vector | None, list[Fraction]]:
    """Newton search on Fraction Vectors: norming(v) returns (||v||, g) with
    <g, v> = ||v|| and g in the dual ball.

    Every step forms x - t e and takes two Fraction dot products; nothing is
    cleared to integers.  The search starts at 1; with minorant_start it
    first norms x and, when that g has <g, e> < 1 and <g, e> < <g, x>, starts
    at the root (1 - <g, x>) / (1 - <g, e>) of its minorant with g binding.
    Returns the weight, the binding functional and the Newton iterates.
    """
    if x == e:
        return Fraction(1), None, [Fraction(1)]
    lam = Fraction(1)
    binding = None
    if minorant_start:
        _, g = norming(x)
        a, b = g.dot(x), g.dot(e)
        if b < 1 and b < a:
            lam, binding = (1 - a) / (1 - b), g
    iterates = [lam]
    while True:
        value, g = norming(x - lam * e)
        if value <= 1 - lam:
            return lam, binding, iterates
        lam = (1 - g.dot(x)) / (1 - g.dot(e))
        binding = g
        iterates.append(lam)


def _primal_norming(v: Vector) -> tuple[Fraction, Vector]:
    report = norm(v, 1)
    return report.value, Vector({i: (1 if v[i] > 0 else -1) for i in report.witness})


def reference_max_feasible_weight(x: Vector, e: Vector, minorant_start: bool = False
                                  ) -> tuple[Fraction, Vector | None, list[Fraction]]:
    """The Fraction Newton search with norm(x - t e) at every step.

    The reference the integer line of schreier.lambdas is checked against;
    with minorant_start it starts where that line does.
    """
    return reference_newton(x, e, _primal_norming, minorant_start)


def reference_lambda_pair_dual(x_star: Vector, e_star: Vector) -> Fraction:
    """The Fraction Newton search with a cold dual_norm_witness at every step.

    The reference the live-tableau line of schreier.dual.lambda_pair_dual is
    checked against: each step builds a fresh tableau for x* - t e* and
    grows its cuts from the singletons again.
    """
    nx = dual_norm_witness(x_star)[0]
    if nx > 1:
        raise UnitNormRequired(f"dual norm {nx} > 1")
    return reference_newton(x_star, e_star, dual_norm_witness)[0]


def signed_lambda_lower(x: Vector, window: int) -> tuple[Fraction, Vector]:
    """Best weight of x over every sign pattern of the window pool.

    Each positive pool point, in canonical order, is expanded over the sign
    patterns of its support with all signs kept first; the first pattern
    that attains the maximum of reference_max_feasible_weight is returned.
    """
    best_lam, best_e = Fraction(-1), None
    for v in positive_extreme_points(window):
        for e in sign_patterns(v):
            lam, _, _ = reference_max_feasible_weight(x, e)
            if lam > best_lam:
                best_lam, best_e = lam, e
    return best_lam, best_e


def integer_sizes(x: Vector) -> dict[int, int]:
    """{i: |x_i| times the LCM of the denominators of x}: the sizes that
    the order-1 greedy and the pruned walk read."""
    scale = lcm(*(q.denominator for _, q in x.items()))
    return {i: int(abs(q) * scale) for i, q in x.items()}


def spy_norm_work(monkeypatch):
    """Record the norm work of the calls that follow: the x of each
    vectors.norm call (under both names it has in schreier), the sizes of
    each _greedy call that norm makes and the x of each _pruned_walk call."""
    import schreier.extreme
    import schreier.vectors

    greedy, walk = schreier.vectors._greedy, schreier.vectors._pruned_walk
    norms, greedies, walks = [], [], []

    def counted_norm(v, k=1):
        norms.append(v)
        return norm(v, k)

    def counted_greedy(size):
        greedies.append(size)
        return greedy(size)

    def counted_walk(v, *args):
        walks.append(v)
        return walk(v, *args)

    monkeypatch.setattr(schreier.vectors, "norm", counted_norm)
    monkeypatch.setattr(schreier.extreme, "norm", counted_norm)
    monkeypatch.setattr(schreier.vectors, "_greedy", counted_greedy)
    monkeypatch.setattr(schreier.vectors, "_pruned_walk", counted_walk)
    return norms, greedies, walks


def random_fraction(rng, max_num=100, max_den=100, allow_zero=True):
    num = rng.randint(-max_num, max_num)
    if not allow_zero and num == 0:
        num = 1
    return Fraction(num, rng.randint(1, max_den))


def random_vector(rng, max_index=10, density=0.6, max_num=100, max_den=100) -> Vector:
    coords = {}
    for i in range(1, max_index + 1):
        if rng.random() < density:
            q = random_fraction(rng, max_num, max_den)
            if q != 0:
                coords[i] = q
    return Vector(coords)


def random_unit_vector(rng, max_index=6, density=0.6) -> Vector:
    while True:
        v = random_vector(rng, max_index, density, max_num=20, max_den=20)
        if v:
            return v / norm(v, 1).value


@pytest.fixture
def rng():
    return random.Random(20240809)
