"""Extreme-point certification and enumeration for the unit ball.

A unit vector e is certified EXTREME exactly when (a) its active signed
admissible-set constraints have full rank on the window [1, max supp e]
(so e is a vertex of the section polytope) and (b) e has a non-maximal
1-set.  (b) forces any midpoint decomposition of e to live inside the
window, so (a)+(b) is equivalent to extremality in the full ball.  Every
other unit vector is certified NOT_EXTREME with a perturbation witness w,
||e + w|| <= 1 and ||e - w|| <= 1; certify_extreme proves that the witness
search one index past the support always finds one.  The rank rows and the
perturbation direction live on supp e: the zeros that the 1-sets cover each
add one unit row, so they are counted, not built, and a certificate costs
the same wherever its support indices lie.

In-space enumeration exploits the forced shape of extreme supports:
supp e = [1, m] + F for the unique non-maximal 1-set F with |F| = m and
min F > m.  For each m the fully-supported candidates form one polytope
up to relabelling of the tail, which is enumerated once (double
description over a sorted-tail fundamental domain).  Each class is
certified once, on its canonical embedding with the tail on [m+1, 2m];
certification is invariant under moving the tail to any legal F and
permuting it (see _positive_pool), so every other embedding is
extreme by construction.

Both enumerations end in one signed-list helper, _signed_points: it takes
nonnegative integer rows over one denominator, expands every sign
pattern and sorts on integer keys into the canonical order.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations, product
from math import lcm

from . import cutoffs
from .dd import DDPolytope, box_seed
from .families import IndexSet, admissible_subsets, enumerate_admissible
from .linalg import cleared, nullspace_vector, rank
from .vectors import Vector, _one_sets, admissible_sums, covered_by, norm

EXTREME = "EXTREME"
NOT_EXTREME = "NOT_EXTREME"


@dataclass(frozen=True)
class SignedConstraint:
    """The halfspace sum(signs[i] * v[i] for i in indices) <= 1."""

    indices: IndexSet
    signs: tuple[int, ...]

    def __post_init__(self):
        if len(self.indices) != len(self.signs):
            raise ValueError("one sign per index required")
        if any(s not in (-1, 1) for s in self.signs):
            raise ValueError("signs are +1 or -1")

    @classmethod
    def _of(cls, indices: IndexSet, signs: tuple[int, ...]) -> "SignedConstraint":
        """The constraint of ``indices`` and ``signs``, taken as they are.

        Nothing is checked: the caller guarantees one sign of +1 or -1 per
        index, which is what __post_init__ checks.  lambda_pair builds its
        binding sets here, from the tight sets of its own walk.
        """
        c = object.__new__(cls)
        object.__setattr__(c, "indices", indices)
        object.__setattr__(c, "signs", signs)
        return c


@dataclass
class ExtremenessCertificate:
    verdict: str
    active_rank: int
    window: int
    witness: Vector | None = None
    failed_conditions: list[str] = field(default_factory=list)


def _non_maximal(sets: list[IndexSet]) -> IndexSet | None:
    """The non-maximal 1-set among the 1-sets ``sets`` (min F > |F|), or
    None; there is at most one (see _failed_conditions)."""
    return next((F for F in sets if F[0] > len(F)), None)


def _support_rows(e: Vector, sets: list[IndexSet]) -> list[list[int]]:
    """The signed indicator of each 1-set in ``sets``, on the columns supp e."""
    signs = [(i, 1 if q > 0 else -1) for i, q in e.items()]
    return [[s if i in F else 0 for i, s in signs] for F in sets]


def _active_rank(e: Vector, sets: list[IndexSet], N: int) -> int:
    """Rank of the active constraints at e on the window [1, N], N >= max supp e.

    ``sets`` are the 1-sets of e.  A tight set of the window is a 1-set plus
    zeros of e that the 1-set covers, and both signs are tight at a zero, so
    the active rows span the signed row of each 1-set, which lives on
    supp e, and a unit row for each covered zero.  The rows are
    block-diagonal, so the rank is the rank of the support rows plus the
    number of covered zeros.  A zero z lies in no 1-set, and it extends a
    maximal G never, as min(G[0], z) <= |G|.  It extends the non-maximal
    1-set F, m = |F|, exactly when z > m.  supp e lies in [1, m] + F, so the
    covered zeros are the N - 2m indices of (m, N] off F; without F there
    are none.
    """
    F = _non_maximal(sets)
    return rank(_support_rows(e, sets)) + (N - 2 * len(F) if F else 0)


def _failed_conditions(e: Vector, sets: list[IndexSet]) -> list[str]:
    """The necessary conditions for membership in E(X) that the unit vector
    e fails, named in report order, read off its 1-sets ``sets``.

    Let F be a non-maximal 1-set, m = |F| < min F.  A support index j > m
    off F would make F + {j} admissible (its minimum exceeds m) with a sum
    above 1, so supp e lies in [1, m] + F.  Another non-maximal 1-set G
    with |G| <= m lies in [1, |G|] + F and above |G|, so inside F, and
    G = F: F is the only one, and it is the support past m.  So
    |supp e| = 2m exactly when [1, m] lies in supp e, and the head and
    the size conditions fail together.  Every index past m extends F.  An
    index i <= m extends no 1-set: not F, as i <= |F|, nor a maximal G,
    as min G = |G|.  So i is uncovered exactly when it lies in no 1-set,
    which holds when i is off the support.  Without a non-maximal 1-set,
    max supp e + 1 is uncovered (see certify_extreme).
    """
    F = _non_maximal(sets)
    if F is None:
        return ["non_maximal_one_set_exists", "coverage"]
    head = range(1, len(F) + 1)
    if not all(i in e for i in head):
        return ["head_is_initial_segment", "support_twice_one_set", "coverage"]
    return [] if all(covered_by(sets, i) for i in head) else ["coverage"]


def perturbation_witness(
    e: Vector, window: int, *, sets: list[IndexSet] | None = None
) -> Vector | None:
    """Nonzero w with ||e+w|| <= 1 and ||e-w|| <= 1, if one exists.

    Uses a null direction of the active constraints over [1, window]
    (preferring a plain uncovered coordinate), scaled by half the worst
    slack-to-action ratio, then re-verified against the norm oracle.

    The direction is found on supp e.  An uncovered index is a zero column
    of the active rows, and the first one in the window is taken.  With a
    non-maximal 1-set F, m = |F|, every index past m is covered and every
    other index is uncovered exactly when it lies in no 1-set (see
    _failed_conditions).  Without F that holds for every index, and
    max supp e + 1 lies in no 1-set.  So the first uncovered index of the
    window is the first index of [1, m], or of [1, max supp e + 1], that
    is uncovered, and the search passes at most |supp e| covered indices.
    If the window has none, the unit row of each of its zeros zeroes the
    kernel there and makes that column a pivot column.  The kernel is then
    the kernel of the support rows, padded with zeros: the same first free
    column and the same primitive vector, which linalg.nullspace_vector
    back-substitutes through the Bareiss pivots that also give the active
    rank.  It is trivial exactly when those rows have full rank, and then no
    witness exists.

    The slack sets are scanned over G = supp e + supp direction, not over
    the window.  Dropping an index of F where both e and the direction
    vanish keeps F admissible and keeps its total and its action, and a
    set inside G lies in the window.  So the admissible subsets of G give
    the same (total, action) pairs, slack or tight alike, and the same
    least ratio.

    Without ``sets`` the support walk finds the 1-sets and checks on the
    way that e is a unit vector (vectors._pruned_walk).  A caller that has
    already walked e passes its 1-sets as ``sets``, and that walk is
    skipped.
    """
    if sets is None:
        sets = _one_sets(e, "perturbation_witness")
    if window < e.max_index:
        raise ValueError(f"window {window} is smaller than max support {e.max_index}")
    F = _non_maximal(sets)
    last = min(window, len(F) if F else e.max_index + 1)
    first = next((i for i in range(1, last + 1) if not covered_by(sets, i)), None)
    if first is not None:
        direction = {first: 1}
    else:
        kernel = nullspace_vector(_support_rows(e, sets), len(e))
        if kernel is None:
            return None
        direction = {i: d for i, d in zip(e.support, kernel) if d}

    # w = s * direction, an integer unit or primitive kernel vector; every
    # bound on s below scales as 1 / the direction's scale, so w does not
    # depend on it.  Bound s so that no sign of e flips (the signed sums
    # of tight sets stay exact) and every slack set stays slack.  The slack
    # bound of F is (scale - total) / (2 scale action), with the integer
    # action of the direction on F; the least (scale - total) / action is
    # found on integers.  A nonzero coordinate j of the direction always
    # gives a bound, from e_j or from the slack singleton {j}.
    bounds = [abs(e[i]) / (2 * abs(d)) for i, d in direction.items() if i in e]
    ground = set(e.support).union(direction)
    scale, sums = admissible_sums(e, enumerate_admissible(1, window, ground))
    at = (dict.fromkeys(ground, 0) | {i: abs(d) for i, d in direction.items()}).__getitem__
    least = None  # (slack, action) with the least ratio so far
    for F, total in sums:
        if total == scale:
            continue
        a = sum(map(at, F))
        if a and (least is None or (scale - total) * least[1] < least[0] * a):
            least = (scale - total, a)
    if least is not None:
        bounds.append(Fraction(least[0], 2 * scale * least[1]))
    s = min(bounds)
    w = Vector({i: s * d for i, d in direction.items()})
    plus = norm(e + w, 1).value
    minus = norm(e - w, 1).value
    if plus > 1 or minus > 1:
        raise RuntimeError(
            f"witness verification failed: ||e+w||={plus}, ||e-w||={minus}"
        )
    return w


def certify_extreme(e: Vector) -> ExtremenessCertificate:
    """Decide extremality with machine-checkable evidence.

    EXTREME iff e is a vertex of its own section and owns a non-maximal
    1-set.  Otherwise NOT_EXTREME, with a perturbation witness searched one
    index past the support, N = max supp e, and the failed necessary
    conditions.

    That search always finds a witness.  If every 1-set is maximal, N + 1
    lies in none and extends none (min(G[0], N + 1) = G[0] = |G|), so it is
    uncovered and its unit vector is the direction.  Otherwise e owns the
    non-maximal F, m = |F|, and is not a vertex: rank_N < N.  Unless some
    index of [1, m] is uncovered (a direction again), [1, m] lies in the
    1-sets, so supp e = [1, m] + F, and the support rows have rank
    rank_N - (N - 2m) < 2m, below their 2m columns: they have a kernel
    vector.  A witness that comes back empty is therefore a bug, raised as
    such.

    A wider window gives the same witness.  The first uncovered index is
    the same for every window past N, and so is the support kernel (see
    perturbation_witness).  Indices past N + 1 carry neither |e| nor the
    direction, so the slack scan over supp e and the direction's support
    gives the same least ratio.
    """
    sets = _one_sets(e, "certify_extreme")
    N = e.max_index
    rank_n = _active_rank(e, sets, N)
    if rank_n == N and _non_maximal(sets):
        return ExtremenessCertificate(EXTREME, rank_n, N)
    failed = _failed_conditions(e, sets)
    witness = perturbation_witness(e, N + 1, sets=sets)
    if witness is None:
        raise RuntimeError(f"no perturbation witness for a non-extreme point at window {N + 1}")
    return ExtremenessCertificate(NOT_EXTREME, rank_n, N, witness, failed)


# ---------------------------------------------------------------------------
# Vertex enumeration for the full section polytope (small windows): double
# description of its nonnegative part, then every sign pattern through the
# signed-list helper that the in-space list shares.


def _signed_points(rows, D: int) -> list[Vector]:
    """Every sign pattern of the points rows / D, in canonical order.

    ``rows`` are distinct nonnegative integer rows on [1, N] over D > 0.
    The canonical order compares two points coordinatewise on the pairs
    (|u_i|, b_i), i in [1, N], where b_i = 1 if u_i < 0 and 0 otherwise.
    A point u = s r / D gets the integer key of 2 r_i + b_i over [1, N].
    Its pairs are (r_i / D, b_i), and (r_i, b_i) -> 2 r_i + b_i is strictly
    increasing in their lexicographic order (b_i is 0 or 1), so sorting on
    the keys gives the canonical order.  The signed points are distinct,
    so no keys tie.  Each key value k stands for (-1)^(k mod 2) (k // 2) / D,
    one Fraction per distinct value.  The points skip Vector's checks
    (Vector._of): their indices increase from 1 and every value is a
    nonzero Fraction.
    """
    keys = []
    for row in rows:
        base = [2 * a for a in row]
        support = [i for i, a in enumerate(row) if a]
        for bits in product((0, 1), repeat=len(support)):
            key = base[:]
            for i, b in zip(support, bits):
                key[i] += b
            keys.append(tuple(key))
    keys.sort()
    value = {}
    for a in {a for row in rows for a in row if a}:
        value[2 * a] = Fraction(a, D)
        value[2 * a + 1] = -value[2 * a]
    return [Vector._of([(i, value[k]) for i, k in enumerate(key, start=1) if k]) for key in keys]


def _maximal_in_window(N: int) -> list[IndexSet]:
    """The nonempty admissible sets of [1, N] that no j in [1, N] extends.

    If |F| = min F = m, no j extends F.  If |F| < m, each j > m off F does,
    so F = [m, N]; then some j < m extends F exactly when |F| < m - 1.  So F
    is maximal iff |F| = min F, or F = [N/2 + 1, N] and N is even.
    """
    sets = list(admissible_subsets(range(1, N + 1), maximal=True))
    if N and N % 2 == 0:
        sets = sorted(sets + [tuple(range(N // 2 + 1, N + 1))])
    return sets


def enumerate_vertices(N: int) -> list[Vector]:
    """All vertices of the section polytope on [1, N], exactly.

    Double description cuts the unit box with sum(v over F) <= 1 for every
    maximal admissible F, which gives the nonnegative part of the section.
    A vertex of that part is a vertex of the section when its active rows
    have full rank; the sign patterns of those vertices are the rest.  The
    kept vertices go to _signed_points as rows over the LCM D of their
    denominators.  At N = 0 the box has one vertex, the empty point, which
    is the zero vector and is dropped, so D = 1 and the list is empty.
    """
    if N < 0:
        raise ValueError("window must be >= 0")
    cutoffs.check("enumerate_vertices", N, cutoffs.vertex_enum_limit())
    poly = DDPolytope(box_seed([(0, 1)] * N))
    for F in _maximal_in_window(N):
        poly.add_constraint([1 if i in F else 0 for i in range(1, N + 1)], 1)

    kept = []
    for vert in poly.vertices:
        v = Vector({i: Fraction(a, vert.den) for i, a in enumerate(vert.num, start=1) if a})
        if v and _active_rank(v, _one_sets(v), N) == N:
            kept.append(vert)
    D = lcm(*(vert.den for vert in kept))
    return _signed_points([tuple(a * (D // vert.den) for a in vert.num) for vert in kept], D)


# ---------------------------------------------------------------------------
# In-space extreme point enumeration via per-size candidate polytopes.
#
# Coordinates of a fully-supported candidate with |F| = m, written in the
# order (1, 2, ..., m, f_1, ..., f_m), satisfy constraints that depend
# only on positions, not on the actual tail indices: head value 1 at
# position 1, tail summing to 1, and for every head position t in [2, m]
# each (t-1)-subset A of the later positions gives value(t) + sum(A) <= 1.
# The pool clears its classes to integer rows, and the signed list expands
# them through _signed_points, like the section vertices above.


def _class_polytope_pieces(m: int):
    """Seed factors and cut rows for the sorted-tail class polytope.

    Reduced coordinates: (v_2..v_m, w_1..w_{m-1}) with w_m = 1 - sum(w).
    The seed is the product of the v-box [0,1]^(m-1), the interval factors
    of box_seed like the box of enumerate_vertices, with the sorted
    probability simplex on the w coordinates; the cuts are the head-subset +
    tail-prefix rows (with sorted tails those dominate every later-position
    subset).  They run with the head position t from m down to 2.  The
    vertex set does not depend on that order, but the lists in between do:
    from m = 4 on, no list after a cut exceeds the final one, 79 vertices at
    m = 5 and 377 at m = 6, where t from 2 up to m peaks at 132 and 678.
    At m = 1 there are no coordinates: the one seed vertex is the empty
    point, head (1,) and tail (1,), and no row cuts it.
    """
    n_v = m - 1
    n_w = m - 1
    dim = n_v + n_w

    simplex_rows = []
    for i in range(n_w - 1):  # w_{i+1} <= w_i
        row = [0] * n_w
        row[i + 1] = 1
        row[i] = -1
        simplex_rows.append((row, 0))
    if n_w:  # w_m <= w_{m-1}
        row = [-1] * n_w
        row[n_w - 1] = -2
        simplex_rows.append((row, -1))
    simplex_rows.append(([1] * n_w, 1))  # w_m >= 0

    simplex_vertices = []
    for j in range(1, m + 1):
        ws = [Fraction(1, j)] * j + [Fraction(0)] * (m - j)
        simplex_vertices.append(tuple(ws[:n_w]))
    factors = [*box_seed([(0, 1)] * n_v), (simplex_rows, simplex_vertices)]

    cut_rows = []
    for t in range(m, 1, -1):
        heads_after = list(range(t - 1, n_v))
        for h in range(0, min(t - 1, len(heads_after)) + 1):
            prefix = t - 1 - h  # <= m - 1, so it always fits the reduced tail
            for H in combinations(heads_after, h):
                row = [0] * dim
                row[t - 2] += 1
                for p in H:
                    row[p] += 1
                for j in range(prefix):
                    row[n_v + j] += 1
                cut_rows.append((row, 1))
    return factors, cut_rows


def _class_reps(m: int, pieces) -> tuple:
    """The certified classes of tail size m from its polytope pieces."""
    n_v = m - 1
    factors, cut_rows = pieces
    poly = DDPolytope(factors)
    for row, b in cut_rows:
        poly.add_constraint(row, b)
    reps = []
    for vert in poly.vertices:
        # Over the vertex denominator d: the head is (d, v_2..v_m), the
        # tail (w_1..w_(m-1), d - sum(w)).
        d, vs, ws = vert.den, vert.num[:n_v], vert.num[n_v:]
        last = d - sum(ws)
        if any(v <= 0 for v in vs) or last <= 0:
            continue
        head = (Fraction(1),) + tuple(Fraction(v, d) for v in vs)
        ws = tuple(Fraction(w, d) for w in ws) + (Fraction(last, d),)
        canonical = Vector(enumerate(head + ws, start=1))  # the tail on [m+1, 2m]
        if certify_extreme(canonical).verdict == EXTREME:
            reps.append((head, ws))
    reps.sort()
    return tuple(reps)


@lru_cache(maxsize=None)
def _class_positive_vertices(m: int) -> tuple[tuple[tuple[Fraction, ...], tuple[Fraction, ...]], ...]:
    """Fully-positive extreme classes for tail size m.

    Returns (head, tail) pairs with head[0] == 1 and tail sorted
    descending; tails are interchangeable, so each pair stands for its
    whole arrangement orbit.  Each pair is a vertex of the DD output
    certified EXTREME on its canonical embedding (tail on [m+1, 2m]).
    """
    return _class_reps(m, _class_polytope_pieces(m))


def positive_extreme_points(N: int) -> list[Vector]:
    """Extreme points with nonnegative coordinates and support within [1, N]."""
    _check_extreme_cutoff(N)
    return list(_positive_pool(N)[0])


def _check_extreme_cutoff(N: int) -> None:
    # Outside the cache, so a cached pool is refused once the cutoff drops.
    if N < 0:
        raise ValueError("window must be >= 0")
    cutoffs.check("enumerate_extreme_in_space", N, cutoffs.extreme_enum_limit())


@lru_cache(maxsize=8)
def _positive_pool(N: int) -> tuple[tuple[Vector, ...], tuple[tuple[int, ...], ...], int]:
    """Every class embedded on every legal tail F in every arrangement.

    Returns (points, rows, D): D is the LCM of the denominators of every
    class value of tail size m <= N/2, and rows[k] holds the coordinates of
    points[k] on [1, N] as integer numerators over D.  The pool is built on
    the rows: each class's head and tail are cleared over D once, the tail
    arrangements are permutations of int tuples, and each point maps its
    row back to Fractions through the class values, by numerator.  The
    points skip Vector's checks (Vector._of): a row's nonzero entries give
    increasing indices from 1 and positive Fraction values.

    No embedding is certified again: each is EXTREME because its class is.
    Let e carry a class's head on [1, m] and an arrangement of its tail on
    F, with min F > m.  An admissible set starting at a head index t holds
    t and at most t - 1 later indices; one starting after m meets only F,
    and every subset of F is admissible, since |F| = m < min F.  So
    the traces of admissible sets on supp e, read as positions (head 1..m,
    then tail 1..m), are the same family for every legal F, and a tail
    permutation maps that family onto itself.  Norm, 1-sets and the
    signed rows of tight sets restricted to the support therefore depend
    only on the class.  Every gap index z in [m+1, max F] off F lies in
    the tight admissible set F + {z}, so its unit row is active and the
    rank on [1, max F] is the number of gaps plus the support rank.  F
    stays a non-maximal 1-set.  Hence EXTREME holds for every embedding
    exactly when it holds for the canonical one.

    The points are in canonical order (see _signed_points), the order of
    ``rows.sort()``.  For e >= 0 every sign bit is 0, so the order is that
    of the value tuples (e_1, ..., e_N), lexicographically.  q -> qD is
    strictly increasing, so that is the lexicographic order of the rows.
    No two points tie: points with different (m, F) have
    different supports [1, m] + F, since every value is positive; on one
    support, two points with different heads differ on [1, m], and two
    with one head differ on F, being distinct arrangements of one tail or
    arrangements of two tails that are different multisets (the DD
    vertices of a class polytope are distinct, and each tail is sorted).
    """
    classes = {m: _class_positive_vertices(m) for m in range(1, N // 2 + 1)}
    values = [q for reps in classes.values() for head, tail in reps for q in head + tail]
    nums, D = cleared(values)
    num, value = dict(zip(values, nums)), dict(zip(nums, values))
    rows = []
    for m, reps in classes.items():
        cleared_reps = [
            ([num[q] for q in head] + [0] * (N - m), sorted(set(permutations([num[q] for q in tail]))))
            for head, tail in reps
        ]
        for F in combinations(range(m, N), m):  # tail positions in the row
            for base, arrangements in cleared_reps:
                for arranged in arrangements:
                    row = base[:]
                    for f, a in zip(F, arranged):
                        row[f] = a
                    rows.append(tuple(row))
    rows.sort()
    points = tuple(Vector._of([(i, value[a]) for i, a in enumerate(row, start=1) if a]) for row in rows)
    return points, tuple(rows), D


def enumerate_extreme_in_space(N: int) -> list[Vector]:
    """All certified extreme points with support inside [1, N].

    The output is closed under sign flips (the norm is 1-unconditional), so
    it is the positive list expanded over all sign patterns.  The signed
    list grows as 4^(|F|) per support; lambda_lower and verify_thm1 scan
    positive_extreme_points instead.  The expansion is _signed_points of
    the pool's rows.

    The signed list has its own window cutoff, below the pool's and checked
    before the pool is built: at window 12 it would hold 9,257,980 points.
    """
    _check_extreme_cutoff(N)
    cutoffs.check("signed in-space list", N, cutoffs.extreme_signed_enum_limit())
    _, rows, D = _positive_pool(N)
    return _signed_points(rows, D)
