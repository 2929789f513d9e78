"""Finitely supported vectors with exact rational coordinates and their norms.

The norm of order k is the supremum of |x| summed over a member of S_k.
Order 1 is one heap sweep over the minima of the support (_root_bounds):
the best sum at each minimum, in O(n log n); _greedy takes the first best
and its witness.  Higher orders take the first best |x|-sum over the
window [1, max supp x].  The sums run on integers: |x| is cleared once by
the LCM of its denominators, so a caller compares a total with that scale
where it would compare a rational sum with 1.  _pruned_walk answers "sums
to exactly 1" and "best sum below 1" in one pruned walk of the admissible
subsets of the support of a vector of norm at most 1: the 1-sets,
coverage, the gap and the binding sets of a pair lambda.  Its root bounds
are the same sweep over the support, so their maximum is the norm: the
walk checks the unit norm of the 1-set queries, and the norm of at most 1
of every other caller, before it visits a node, and those queries run no
norm of their own.  A unit vector that is not walked, the e of
lambda_pair, is checked by _greedy on its caller's own clearing.
admissible_sums scans every set its caller names, for the questions a
total alone does not prune: norms of order >= 2 and the slack bounds of a
perturbation witness.  Also provides the decay-witness constructor used
by the theorem-1 verifier.
"""

from bisect import insort
from collections import defaultdict
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush
from itertools import accumulate
from operator import index, itemgetter

from . import cutoffs
from .errors import UnitNormRequired
from .families import IndexSet, enumerate_admissible
from .linalg import cleared
from .rationals import exact


_ZERO = Fraction(0)


class Vector:
    """Immutable map from positive 1-based indices to nonzero rationals.

    Indices are integers (``operator.index``); values are ints, Fractions or
    rational strings, and a float, which is binary and not the rational its
    digits spell, is a TypeError; so is a float scalar (``rationals.exact``).
    """

    __slots__ = ("_coords", "_items")

    def __init__(self, coords: Mapping[int, Fraction | int | str] | Iterable[tuple[int, Fraction]] = ()):
        if isinstance(coords, Mapping):
            pairs = coords.items()
        else:
            pairs = list(coords)
        clean: dict[int, Fraction] = {}
        for i, value in pairs:
            i = index(i)
            if i < 1:
                raise ValueError(f"indices are 1-based positive integers, got {i}")
            if type(value) is Fraction:
                q = value
            elif isinstance(value, float):
                raise TypeError(f"coordinate {i} is the float {value!r}; use a Fraction or a string")
            else:
                q = Fraction(value)
            if not q:
                continue
            if i in clean:
                raise ValueError(f"duplicate coordinate index {i}")
            clean[i] = q
        object.__setattr__(self, "_coords", clean)
        object.__setattr__(self, "_items", tuple(sorted(clean.items())))

    @classmethod
    def _of(cls, items) -> "Vector":
        """The Vector of ``items``, (index, value) pairs taken as they are.

        Nothing is checked: the caller guarantees that the indices are ints
        >= 1 in increasing order and that every value is a nonzero
        Fraction, which is what __init__ would make of them.  The extreme
        pools build their points here from integer rows.
        """
        v = object.__new__(cls)
        items = tuple(items)
        object.__setattr__(v, "_coords", dict(items))
        object.__setattr__(v, "_items", items)
        return v

    def __setattr__(self, name, value):
        raise AttributeError("Vector is immutable")

    def __reduce__(self):
        return Vector, (self._items,)

    @classmethod
    def unit(cls, i: int) -> "Vector":
        return cls({i: 1})

    @classmethod
    def zero(cls) -> "Vector":
        return cls()

    @property
    def support(self) -> IndexSet:
        return tuple(i for i, _ in self._items)

    @property
    def max_index(self) -> int:
        return self._items[-1][0] if self._items else 0

    def items(self) -> tuple[tuple[int, Fraction], ...]:
        return self._items

    def __getitem__(self, i: int) -> Fraction:
        return self._coords.get(i, _ZERO)

    def __contains__(self, i: int) -> bool:
        return i in self._coords

    def __bool__(self) -> bool:
        return bool(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __eq__(self, other) -> bool:
        return isinstance(other, Vector) and self._items == other._items

    def __hash__(self) -> int:
        return hash(self._items)

    def __repr__(self) -> str:
        body = ", ".join(f"{i}: {q}" for i, q in self._items)
        return f"Vector({{{body}}})"

    def __add__(self, other: "Vector") -> "Vector":
        coords = dict(self._coords)
        for i, q in other._items:
            coords[i] = coords.get(i, _ZERO) + q
        return Vector(coords)

    def __sub__(self, other: "Vector") -> "Vector":
        return self + (-other)

    def __neg__(self) -> "Vector":
        return Vector({i: -q for i, q in self._items})

    def __mul__(self, scalar) -> "Vector":
        s = exact(scalar)
        return Vector({i: s * q for i, q in self._items})

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "Vector":
        return self * Fraction(1, exact(scalar))

    def __abs__(self) -> "Vector":
        return Vector({i: abs(q) for i, q in self._items})

    def flip_signs(self, indices: Iterable[int]) -> "Vector":
        flip = set(indices)
        return Vector({i: (-q if i in flip else q) for i, q in self._items})

    def is_nonnegative(self) -> bool:
        return all(q > 0 for _, q in self._items)

    def dot(self, other: "Vector") -> Fraction:
        small, big = (self, other) if len(self) <= len(other) else (other, self)
        return sum((q * big[i] for i, q in small._items), Fraction(0))


@dataclass(frozen=True)
class NormReport:
    value: Fraction
    witness: IndexSet


def norm(x: Vector, k: int = 1) -> NormReport:
    """Exact norm of order k with an achieving admissible set."""
    if k < 0:
        raise ValueError("norm order must be >= 0")
    if not x:
        return NormReport(Fraction(0), ())
    if k == 0:
        best_i = min(x.support, key=lambda i: (-abs(x[i]), i))
        return NormReport(abs(x[best_i]), (best_i,))
    if k == 1:
        # The greedy runs on |x| cleared to integers by the LCM of its denominators.
        values, scale = cleared(q for _, q in x.items())
        value, witness = _greedy({i: abs(n) for (i, _), n in zip(x.items(), values)})
        return NormReport(Fraction(value, scale), witness)
    scale, sums = admissible_sums(x, enumerate_admissible(k, x.max_index))
    witness, best = max(sums, key=itemgetter(1))
    return NormReport(Fraction(best, scale), witness)


def _greedy(size: dict[int, int]) -> tuple[int, IndexSet]:
    """The order-1 norm of the nonzero integer sizes {i: |x(i)|} and its set.

    For each minimum m of the support the best admissible sum is size[m]
    plus the m - 1 largest sizes beyond m: _root_bounds over the support,
    one sweep for every m.  The first maximizer m wins, and its set is m
    and its m - 1 largest later indices, ties in "largest" broken to the
    smaller index (one sort of the later indices).  A positive rescaling
    of every size keeps the ranking, ties and witness.

    A minimum m off the support never wins.  Let C be the m - 1 largest
    sizes beyond m and f the least index of C.  At minimum f the rule takes
    f plus the f - 1 >= m largest sizes beyond f; they include C - {f}, a
    prefix of the ranked indices beyond f.  So f does at least as well as m,
    and it ties only when its set is C itself.  A support minimum m' with m < m' < f would
    take m' and all of C and beat C.  So the first maximizer over the
    support minima has the value and the witness of the first maximizer
    over every minimum in [1, max supp].
    """
    ground = sorted(size)
    roots = _root_bounds(ground, [size[i] for i in ground])
    value = max(roots, default=0)
    if not value:
        return 0, ()
    q = roots.index(value)
    m = ground[q]
    later = sorted(ground[q + 1:], key=lambda i: (-size[i], i))
    return value, (m, *sorted(later[:m - 1]))


def admissible_sums(x: Vector, sets: Iterable[IndexSet]) -> tuple[int, Iterator[tuple[IndexSet, int]]]:
    """(scale, sums): the LCM of the denominators of x, and a lazy scan of
    (F, sum of scale * |x| over F) over ``sets``, in their order.

    The full scan, for questions a set's total alone does not prune: the
    norms of order >= 2 and the slack bounds of a perturbation witness.
    "Sums to exactly 1" and "best sum below 1" are _pruned_walk's.  The sums
    are integers: |x| sums to exactly 1 over F when its total is scale.  An
    index off supp x adds 0, so the empty set totals 0: it is never tight
    and never the first maximum of a nonzero x.
    """
    values, scale = cleared(q for _, q in x.items())
    at = defaultdict(int, zip(x.support, map(abs, values))).__getitem__
    return scale, ((F, sum(map(at, F))) for F in sets)


def _root_bounds(ground: Sequence[int], sizes: list[int]) -> list[int]:
    """The best total of an admissible subset of ``ground`` with minimum
    ground[q], for each q: sizes[q] plus its ground[q] - 1 largest later
    sizes (all of them, if fewer are left).

    With ground = supp x and sizes = scale * |x| on it these are _greedy's
    sums, and the largest is scale * ||x||.

    One sweep from the right with a min-heap of later sizes and their
    total.  At q, with m = ground[q], it pops the smallest until the heap
    holds at most m - 1 sizes, sets the bound to sizes[q] + total, and
    pushes sizes[q].  It is exact because the minima fall as the sweep
    moves left.  Let S be the sizes of ground[q + 1:], s = sizes[q] and
    k = min(m - 1, |S|); after the pops at q the heap holds the k largest
    of S.  That holds at the right end, where S is empty.  After the push
    it holds them and s, and the next minimum m' < m needs the
    k' = min(m' - 1, |S| + 1) largest of S + {s}.  If k = |S| the heap
    holds all of S + {s}, so the pops leave the k' largest.  Else
    k = m - 1 >= m' > k', and the k' largest of S + {s} lie among the k
    largest of S plus s: a member of S among them is among the k' largest
    of S.  So again the pops leave the k' largest.  Equal sizes may be
    kept in any order; the total does not change.

    Each size is pushed once and popped at most once, so the sweep costs
    O(n log n) for any ground, also one with an index of 10^18, where it
    pops nothing.
    """
    heap: list[int] = []  # the kept later sizes; total is their sum
    total = 0
    roots = [0] * len(ground)
    for q in reversed(range(len(ground))):
        while len(heap) >= ground[q]:
            total -= heappop(heap)
        roots[q] = sizes[q] + total
        heappush(heap, sizes[q])
        total += sizes[q]
    return roots


def _top_table(sizes: list[int]) -> list[list[int]]:
    """top[p][r], the sum of the r largest of sizes[p:] (all of them past
    n - p), for 0 <= p, r <= n = len(sizes).

    Built from the right with one ascending list that takes each size by
    bisect.insort: row p is the prefix sums of that list read from its
    largest end, padded with its total, instead of one sort per suffix.
    """
    run: list[int] = []
    top = [[0] * (len(sizes) + 1)]
    for p in reversed(range(len(sizes))):
        insort(run, sizes[p])
        row = list(accumulate(reversed(run), initial=0))
        top.append(row + [row[-1]] * p)
    top.reverse()
    return top


def _pruned_walk(
    x: Vector, op: str | None = None, cutoff: str | None = None
) -> tuple[int, list[IndexSet], int]:
    """(scale, tight, below) over the admissible subsets of supp x, its
    ground, whose sizes are read off x's items in one pass.

    Precondition: ||x|| <= 1, so no admissible set totals above scale.  The
    walk checks it before any node, from its root bounds (below).  A
    caller that needs a unit vector passes its operation name as ``op``:
    then ||x|| != 1 raises UnitNormRequired naming op, so one_sets,
    covers_index, eps_gap, certify_extreme and perturbation_witness run no
    norm of their own.  Every other caller (the lambda_pair residual,
    lambda_lower, enumerate_vertices) gets ||x|| > 1 raised; lambda_pair
    checks its e, which it does not walk, with _greedy on the pair's
    clearing.  ``cutoff`` names the check of |supp x| against the order-1
    cutoff, made after the norm check, so a vector off the sphere and past
    the cutoff raises UnitNormRequired, and before the bound table is
    built.

    scale is the LCM of the denominators of x and the totals are sums of
    the integer sizes scale * |x|, as in admissible_sums.  tight lists the
    sets with total scale (|x| sums to exactly 1), in lexicographic order;
    below is the best total under scale, 0 for the empty set at least.

    One depth-first walk in preorder.  The root is the empty set (total 0)
    and its children are the singletons, in ground order.  Below them a
    node is an admissible F with minimum m, total s, the position p in
    ground past max F and r = m - |F| free slots; its children are
    F + {ground[q]} for q = p, p + 1, ..., each with one slot fewer.  Every
    admissible nonempty F is reached exactly once, by adding its elements
    in increasing order: each prefix keeps min F and has at most |F| <= m
    elements.  The recursion is as deep as the largest set, at most
    |supp x|, which every caller's cutoff holds to 24.

    Lexicographic order: a node comes before its descendants, which are
    its proper extensions and sort after it, and the subtree of an earlier
    sibling G + {a} before that of G + {b}, a < b, whose members sort
    after every extension of G + {a}, since they agree on G and differ
    first at a against b.  So preorder is the lexicographic order of the
    tuples, and tight needs no sort.

    One prune: bound = s + (sum of the r largest sizes of ground[p:]) <
    scale.  A descendant adds at most r elements of ground[p:], so totals
    at most bound: none is tight.  The bound is attained: F plus the r
    largest later elements (all of them, if fewer are left) keeps minimum m
    and has m elements or fewer, so it is admissible, and it is the best
    total of the subtree.  The walk takes bound as a candidate for below
    and does not descend.  Every other node is admissible, so by the
    precondition s <= scale, and its own total counts (tight at s = scale,
    else a candidate for below).  So tight and below are those of the full
    listing.

    Root bounds.  The bound of the singleton {ground[q]} is the best total
    of a subset of ground with that minimum, and the largest is
    scale * ||x||: _root_bounds, the order-1 norm's own heap sweep, so the
    walk reads the norm off its own first step, in O(n log n) on a support
    of any size, and checks it before any node and before the cutoff.
    The bounds below the root read the table of _top_table, built after
    the checks.
    """
    ground = x.support
    values, scale = cleared(q for _, q in x.items())
    sizes = [abs(v) for v in values]
    n = len(ground)
    roots = _root_bounds(ground, sizes)
    value = max(roots, default=0)
    if op is not None and value != scale:
        raise UnitNormRequired(f"{op} needs a unit vector; got norm {Fraction(value, scale)}")
    if value > scale:
        raise UnitNormRequired(f"the pruned walk needs ||x|| <= 1; got {Fraction(value, scale)}")
    if cutoff is not None:
        cutoffs.check(cutoff, n, cutoffs.admissible_enum_limit(1))
    top = _top_table(sizes)
    tight: list[IndexSet] = []
    below = 0

    def visit(F: IndexSet, s: int, p: int, r: int) -> None:
        nonlocal below
        if s == scale:
            tight.append(F)
        elif s > below:
            below = s
        if not r:
            return
        r -= 1
        for q in range(p, n):
            t = s + sizes[q]
            bound = t + top[q + 1][r]
            if bound < scale:
                if bound > below:
                    below = bound
                continue
            visit(F + (ground[q],), t, q + 1, r)

    for q, m in enumerate(ground):
        bound = roots[q]
        if bound < scale:
            if bound > below:
                below = bound
            continue
        visit((m,), sizes[q], q + 1, min(m - 1, n - q - 1))
    return scale, tight, below


def one_sets(x: Vector) -> list[IndexSet]:
    """The complete family of 1-sets: admissible, inside supp x, summing to 1."""
    return _one_sets(x, "one_sets")


def _one_sets(x: Vector, op: str | None = None) -> list[IndexSet]:
    """The tight sets of the support walk, in lexicographic order.

    With ``op``, x must be a unit vector and the walk raises
    UnitNormRequired naming op otherwise; without it x must have norm at
    most 1.  Either check comes first, then the support cutoff, before any
    subset is walked."""
    return _pruned_walk(x, op, "one_sets support size")[1]


def covered_by(sets: list[IndexSet], i: int) -> bool:
    """True when i lies in one of the 1-sets or extends one admissibly.

    For i outside a nonempty G, G + {i} is admissible exactly when its
    minimum min(G[0], i) exceeds len(G).
    """
    return any(i in G or min(G[0], i) > len(G) for G in sets)


def covers_index(x: Vector, i: int) -> bool:
    """True when some admissible set containing i has |x|-sum exactly 1."""
    i = index(i)
    if i < 1:
        raise ValueError("indices are positive")
    return covered_by(_one_sets(x, "covers_index"), i)


def eps_gap(x: Vector) -> Fraction:
    """1 minus the best admissible |x|-sum that falls strictly short of 1."""
    scale, _, below = _pruned_walk(x, "eps_gap", "eps_gap support size")
    return 1 - Fraction(below, scale)


def make_thm1_vector(n: int) -> Vector:
    """Unit vector whose extreme-decomposition weight the verifier bounds.

    Coordinates: 1 at index 1, 2/n - 2/n^3 at index 2, 1 - 2/n + 2/n^3 at
    index 3, zeros through n+1, 1/n - 1/n^3 on indices n+2..2n+1, and 1/n^2
    at index 2n+2.  The construction needs the orderings
    1 - 2/n + 2/n^3 > 2/n - 2/n^3 > 0, 1 - 2/n + 2/n^3 > 1/n - 1/n^3 and
    1/n - 1/n^3 > 1/n^2.  Times n^3 they read n^3 - 4n^2 + 4 > 0,
    n^2 - 1 > 0, n^3 - 3n^2 + 3 > 0 and n^2 - n - 1 > 0, which all hold
    for n >= 4: at n = 4 the cubics are 4 and 19, both grow for n >= 3,
    and n^2 - n - 1 >= 11.  So n >= 4 is the only check.
    """
    if not isinstance(n, int):
        raise ValueError("n must be an integer")
    if n < 4:
        raise ValueError(f"construction requires n >= 4 (got {n})")
    x2 = Fraction(2, n) - Fraction(2, n**3)
    x3 = 1 - x2
    tail = Fraction(1, n) - Fraction(1, n**3)
    last = Fraction(1, n * n)
    coords = {1: Fraction(1), 2: x2, 3: x3}
    for i in range(n + 2, 2 * n + 2):
        coords[i] = tail
    coords[2 * n + 2] = last
    return Vector(coords)
