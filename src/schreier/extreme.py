"""Extreme-point certification and enumeration for the unit ball.

A unit vector e is certified EXTREME exactly when (a) its active signed
admissible-set constraints have full rank on the window [1, max supp e]
(so e is a vertex of the section polytope) and (b) e has a non-maximal
1-set.  (b) forces any midpoint decomposition of e to live inside the
window, so (a)+(b) is equivalent to extremality in the full ball.  Every
other unit vector is certified NOT_EXTREME with a perturbation witness w,
||e + w|| <= 1 and ||e - w|| <= 1; certify_extreme proves that the witness
search one index past the support always finds one.

In-space enumeration exploits the forced shape of extreme supports:
supp e = [1, m] + F for the unique non-maximal 1-set F with |F| = m and
min F > m.  For each m the fully-supported candidates form one polytope
up to relabelling of the tail, which is enumerated once (double
description over a sorted-tail fundamental domain).  Each class is
certified once, on its canonical embedding with the tail on [m+1, 2m];
certification is invariant under moving the tail to any legal F and
permuting it (see _positive_pool), so every other embedding is
extreme by construction.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations, product
from operator import itemgetter

from . import cutoffs
from .dd import DDPolytope, box_seed
from .families import IndexSet, admissible_subsets, enumerate_admissible
from .linalg import cleared, nullspace_vector, rank
from .vectors import Vector, _one_sets, _require_unit, admissible_sums, covered_by, norm

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


@dataclass
class ExtremenessCertificate:
    verdict: str
    active_rank: int
    window: int
    witness: Vector | None = None
    failed_conditions: list[str] = field(default_factory=list)


def _sign(q: Fraction) -> int:
    return 1 if q >= 0 else -1


def _active_rank_rows(e: Vector, sets: list[IndexSet], N: int) -> list[list[int]]:
    """Rank-equivalent compact basis of the active constraints at e on [1, N].

    ``sets`` are the 1-sets of e.  A tight set of the window is a 1-set plus
    zeros of e that the 1-set covers, and both signs are tight at a zero, so
    the rows are the signed indicator of each 1-set and a unit row for each
    zero of e in [1, N] that ``covered_by`` the 1-sets.
    """
    rows: list[list[int]] = []
    for F in sets:
        row = [0] * N
        for i in F:
            row[i - 1] = _sign(e[i])
        rows.append(row)
    for z in range(1, N + 1):
        if z not in e and covered_by(sets, z):
            row = [0] * N
            row[z - 1] = 1
            rows.append(row)
    return rows


def _active_rank(e: Vector, sets: list[IndexSet], N: int) -> int:
    """Rank of the active constraints at e on the window [1, N]."""
    # The rows grow with the window, not with the support: bound the window
    # as a window scan would.
    cutoffs.check("active rank window", N, cutoffs.admissible_enum_limit(1))
    return rank(_active_rank_rows(e, sets, N))


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
    F = next((G for G in sets if G[0] > len(G)), None)
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

    The 1-sets give the rank rows and the uncovered coordinates.  An
    uncovered index is a zero column of the rank rows, so the rows are
    rank-deficient whenever one exists.  Otherwise their kernel is trivial
    exactly when they have full rank, and then no witness exists.

    The slack sets are scanned over G = supp e + supp direction, not over
    the window.  Dropping an index of F where both e and the direction
    vanish keeps F admissible and keeps its total and its action, and a
    set inside G lies in the window.  So the admissible subsets of G give
    the same (total, action) pairs, slack or tight alike, and the same
    least ratio.

    A caller that has checked that e is a unit vector and found its 1-sets
    passes them as ``sets``; both steps are then skipped, and so is the
    window cutoff, which bounds the rank rows of a public call as a window
    scan would (certify_extreme bounds the support and asks one index past
    it).
    """
    if sets is None:
        _require_unit(e, "perturbation_witness")
    if window < e.max_index:
        raise ValueError(f"window {window} is smaller than max support {e.max_index}")
    if sets is None:
        cutoffs.check("perturbation_witness window", window, cutoffs.admissible_enum_limit(1))
        sets = _one_sets(e)
    uncovered = [i for i in range(1, window + 1) if not covered_by(sets, i)]
    if uncovered:
        direction = [0] * window
        direction[uncovered[0] - 1] = 1
    else:
        kernel = nullspace_vector(_active_rank_rows(e, sets, window), window)
        if kernel is None:
            return None
        direction, _ = cleared(kernel)

    # w = s * direction.  Bound s so that no sign of e flips (the signed sums
    # of tight sets stay exact) and every slack set stays slack.  The slack
    # bound of F is (scale - total) / (2 scale action), with the integer
    # action of the direction on F; the least (scale - total) / action is
    # found on integers.  A nonzero coordinate j of the direction always
    # gives a bound, from e_j or from the slack singleton {j}.
    bounds = [abs(e[i]) / (2 * abs(d)) for i, d in enumerate(direction, start=1) if d and i in e]
    ground = set(e.support).union(i for i, d in enumerate(direction, start=1) if d)
    scale, sums = admissible_sums(e, enumerate_admissible(1, window, ground))
    act = [0] + [abs(d) for d in direction]
    at = act.__getitem__
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
    w = Vector({i: s * d for i, d in enumerate(direction, start=1) if d})
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
    uncovered and its unit vector is the direction.  Otherwise N + 1 is
    covered, and e is not a vertex: rank_N < N.  Unless some index of
    [1, N] is uncovered (a direction again), the rank rows on [1, N + 1]
    are those on [1, N], padded with a zero, plus the unit row of the
    covered zero N + 1, so their rank is rank_N + 1 < N + 1 and they have
    a kernel vector.  A witness that comes back empty is therefore a bug,
    raised as such.

    A wider window gives the same witness.  An index j > N is uncovered
    exactly when every 1-set is maximal, so the first uncovered index is the
    same for every window past N.  Without one, the rank rows past N are
    unit rows at the end, so the kernel vector is the window-N vector padded
    with zeros.  Indices past N + 1 carry neither |e| nor the direction, so
    dropping them from a slack set keeps it admissible and keeps its ratio;
    the slack scan of perturbation_witness runs over supp e and the
    direction's support only, so the window N + 1 may pass the cutoff.
    """
    _require_unit(e, "certify_extreme")
    N = e.max_index
    sets = _one_sets(e)
    rank_n = _active_rank(e, sets, N)
    if rank_n == N and any(F[0] > len(F) for F in sets):
        return ExtremenessCertificate(EXTREME, rank_n, N)
    failed = _failed_conditions(e, sets)
    witness = perturbation_witness(e, N + 1, sets=sets)
    if witness is None:
        raise RuntimeError(f"no perturbation witness for a non-extreme point at window {N + 1}")
    return ExtremenessCertificate(NOT_EXTREME, rank_n, N, witness, failed)


# ---------------------------------------------------------------------------
# Vertex enumeration for the full section polytope (small windows): double
# description of its nonnegative part, then every sign pattern.


def canonical_key(v: Vector, N: int):
    """Deterministic vector order: by magnitude then sign, coordinatewise."""
    return tuple((abs(v[i]), 0 if v[i] >= 0 else 1) for i in range(1, N + 1))


def _sign_patterns(v: Vector):
    """v under every sign pattern of its support, all signs kept first.

    Yields (bits, u): bits[k] is 1 where u negates the k-th support index.
    """
    signed = [(i, q, -q) for i, q in v.items()]
    for bits in product((0, 1), repeat=len(signed)):
        yield bits, Vector({i: neg if b else q for (i, q, neg), b in zip(signed, bits)})


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
    have full rank; the sign patterns of those vertices are the rest.  At
    N = 0 the box has one vertex, the empty point, which is the zero vector
    and is dropped, so the list is empty.
    """
    if N < 0:
        raise ValueError("window must be >= 0")
    cutoffs.check("enumerate_vertices", N, cutoffs.vertex_enum_limit())
    poly = DDPolytope(N, *box_seed([(0, 1)] * N))
    for F in _maximal_in_window(N):
        poly.add_constraint([1 if i in F else 0 for i in range(1, N + 1)], 1)

    reps = []
    for vert in poly.vertices:
        v = Vector({i: Fraction(a, vert.den) for i, a in enumerate(vert.num, start=1) if a})
        if v and _active_rank(v, _one_sets(v), N) == N:
            reps.append(v)

    out = [u for v in reps for _, u in _sign_patterns(v)]
    out.sort(key=lambda u: canonical_key(u, N))
    return out


# ---------------------------------------------------------------------------
# In-space extreme point enumeration via per-size candidate polytopes.
#
# Coordinates of a fully-supported candidate with |F| = m, written in the
# order (1, 2, ..., m, f_1, ..., f_m), satisfy constraints that depend
# only on positions, not on the actual tail indices: head value 1 at
# position 1, tail summing to 1, and for every head position t in [2, m]
# each (t-1)-subset A of the later positions gives value(t) + sum(A) <= 1.


def _embed(head: tuple[Fraction, ...], tail: tuple[Fraction, ...], F) -> Vector:
    """The vector with head on [1, len(head)] and tail on F, in order."""
    coords = dict(enumerate(head, start=1))
    coords.update(zip(F, tail))
    return Vector(coords)


def _class_polytope_pieces(m: int):
    """Seed rows/vertices and cut rows for the sorted-tail class polytope.

    Reduced coordinates: (v_2..v_m, w_1..w_{m-1}) with w_m = 1 - sum(w).
    The seed is the product of the v-box [0,1]^(m-1) with the sorted
    probability simplex; the cuts are the head-subset + tail-prefix rows
    (with sorted tails those dominate every later-position subset).
    """
    n_v = m - 1
    n_w = m - 1
    dim = n_v + n_w

    seed_rows = []
    for t in range(n_v):
        row = [Fraction(0)] * dim
        row[t] = Fraction(-1)
        seed_rows.append((row, Fraction(0)))
        row = [Fraction(0)] * dim
        row[t] = Fraction(1)
        seed_rows.append((row, Fraction(1)))
    for i in range(n_w - 1):  # w_{i+1} <= w_i
        row = [Fraction(0)] * dim
        row[n_v + i + 1] = Fraction(1)
        row[n_v + i] = Fraction(-1)
        seed_rows.append((row, Fraction(0)))
    row = [Fraction(0)] * dim  # w_m <= w_{m-1}
    for i in range(n_w - 1):
        row[n_v + i] = Fraction(-1)
    row[n_v + n_w - 1] = Fraction(-2)
    seed_rows.append((row, Fraction(-1)))
    row = [Fraction(0)] * dim  # w_m >= 0
    for i in range(n_w):
        row[n_v + i] = Fraction(1)
    seed_rows.append((row, Fraction(1)))

    simplex_vertices = []
    for j in range(1, m + 1):
        ws = [Fraction(1, j)] * j + [Fraction(0)] * (m - j)
        simplex_vertices.append(tuple(ws[:n_w]))
    seed_vertices = [
        corner + w
        for corner in product((Fraction(0), Fraction(1)), repeat=n_v)
        for w in simplex_vertices
    ]

    cut_rows = []
    for t in range(2, m + 1):
        heads_after = list(range(t - 1, n_v))
        for h in range(0, min(t - 1, len(heads_after)) + 1):
            prefix = t - 1 - h  # <= m - 1, so it always fits the reduced tail
            for H in combinations(heads_after, h):
                row = [Fraction(0)] * dim
                row[t - 2] += Fraction(1)
                for p in H:
                    row[p] += Fraction(1)
                for j in range(prefix):
                    row[n_v + j] += Fraction(1)
                cut_rows.append((row, Fraction(1)))
    return dim, seed_rows, seed_vertices, cut_rows


def _class_reps(m: int, pieces) -> tuple:
    """The certified classes of tail size m from its polytope pieces."""
    n_v = m - 1
    dim, seed_rows, seed_vertices, cut_rows = pieces
    poly = DDPolytope(dim, seed_rows, seed_vertices)
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
        canonical = _embed(head, ws, range(m + 1, 2 * m + 1))
        if certify_extreme(canonical).verdict == EXTREME:
            reps.append((head, ws))
    reps.sort()
    return tuple(reps)


@lru_cache(maxsize=None)
def _class_positive_vertices(m: int) -> tuple[tuple[tuple[Fraction, ...], tuple[Fraction, ...]], ...]:
    """Fully-positive extreme classes for tail size m.

    Returns (head, tail) pairs with head[0] == 1 and tail sorted
    descending; tails are interchangeable, so each pair stands for its
    whole arrangement orbit.  For m >= 2 each pair is a vertex of the DD
    output certified EXTREME on its canonical embedding (tail on
    [m+1, 2m]); the one class of m = 1 is e_1 + e_2.
    """
    if m == 1:
        return (((Fraction(1),), (Fraction(1),)),)
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
    row back to Fractions through the class values, by numerator.

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

    The points are in canonical order, the order of ``rows.sort()``.  For
    e >= 0 every sign bit of canonical_key(e, N) is 0, so the key orders
    the points as the value tuples (e_1, ..., e_N) in lexicographic order.
    q -> qD is strictly increasing, so that is the lexicographic order of
    the rows.  No two points tie: points with different (m, F) have
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
    points = tuple(Vector({i: value[a] for i, a in enumerate(row, start=1) if a}) for row in rows)
    return points, tuple(rows), D


def enumerate_extreme_in_space(N: int) -> list[Vector]:
    """All certified extreme points with support inside [1, N].

    The output is closed under sign flips (the norm is 1-unconditional), so
    it is the positive list expanded over all sign patterns.  The signed
    list grows as 4^(|F|) per support; lambda_lower and verify_thm1 scan
    positive_extreme_points instead.

    The expansion is sorted on integers: a point u = s e, e in the pool with
    row r over D, gets the key of 2 r_i + b_i over i in [1, N], b_i = 1
    where u_i < 0.  canonical_key(u, N) has the pairs (|u_i|, b_i) =
    (r_i / D, b_i), and (r_i, b_i) -> 2 r_i + b_i is strictly increasing
    in their lexicographic order (b_i is 0 or 1), so both keys give the same
    order.  The signed points are distinct, so no keys tie.

    The signed list has its own window cutoff, below the pool's and checked
    before the pool is built: at window 12 it would hold 9,257,980 points.
    """
    _check_extreme_cutoff(N)
    cutoffs.check("signed in-space list", N, cutoffs.extreme_signed_enum_limit())
    points, rows, _ = _positive_pool(N)
    keyed = []
    for e, row in zip(points, rows):
        support, base = e.support, [2 * a for a in row]
        for bits, u in _sign_patterns(e):
            key = base[:]
            for i, b in zip(support, bits):
                key[i - 1] += b
            keyed.append((tuple(key), u))
    keyed.sort(key=itemgetter(0))
    return [u for _, u in keyed]
