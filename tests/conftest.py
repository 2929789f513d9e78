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

import pytest

from schreier.dual import dual_norm_witness
from schreier.errors import UnitNormRequired
from schreier.extreme import positive_extreme_points
from schreier.vectors import Vector, norm


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
        support = v.support
        for signs in product((1, -1), repeat=len(support)):
            e = Vector({i: s * v[i] for i, s in zip(support, signs)})
            lam, _, _ = reference_max_feasible_weight(x, e)
            if lam > best_lam:
                best_lam, best_e = lam, e
    return best_lam, best_e


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
