"""Finitely supported vectors with exact rational coordinates and their norms.

The norm of order k is the supremum of |x| summed over a member of S_k.
Order 1 is computed by an exact greedy over the minima in the support;
higher orders take the first best |x|-sum over the window [1, max supp x].
The sums run on integers: |x| is cleared once by the LCM of its
denominators, so a caller compares a total with that scale where it would
compare a rational sum with 1.  _pruned_walk answers "sums to exactly 1"
and "best sum below 1" in one pruned walk of the admissible subsets of a
ground (the support, or a window with zeros): the 1-sets, coverage, the
gap and the binding sets of a pair lambda.
admissible_sums scans every set its caller names, for the questions a
total alone does not prune: norms of order >= 2 and the slack bounds of a
perturbation witness.  Also provides the decay-witness constructor used
by the theorem-1 verifier.
"""

from collections import defaultdict
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from operator import index, itemgetter

from . import cutoffs
from .errors import UnitNormRequired
from .families import IndexSet, enumerate_admissible, index_set
from .linalg import cleared


_ZERO = Fraction(0)


class Vector:
    """Immutable map from positive 1-based indices to nonzero rationals.

    Indices are integers (``operator.index``); values are ints, Fractions or
    rational strings, and a float, which is binary and not the rational its
    digits spell, is a TypeError.
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
        s = Fraction(scalar)
        return Vector({i: s * q for i, q in self._items})

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "Vector":
        return self * (1 / Fraction(scalar))

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

    For each minimum m of the support, in increasing order, the best
    admissible sum is size[m] plus the m - 1 largest sizes beyond m; ties in
    "largest" break to the smaller index, and the first maximizer wins.  A
    positive rescaling of every size keeps the ranking, ties and witness.

    A minimum m off the support never wins.  Let C be the m - 1 largest
    sizes beyond m and f the least index of C.  At minimum f the rule takes
    f plus the f - 1 >= m largest sizes beyond f; they include C - {f}, a
    prefix of the ranked indices beyond f.  So f does at least as well as m,
    and it ties only when its set is C itself.  A support minimum m' with m < m' < f would
    take m' and all of C and beat C.  So the first maximizer over the
    support minima has the value and the witness of the first maximizer
    over every minimum in [1, max supp].
    """
    ranked = sorted(size, key=lambda i: (-size[i], i))
    best_value, best_witness = 0, ()
    for m in sorted(size):
        witness = [m]
        for i in ranked:
            if len(witness) == m:
                break
            if i > m:
                witness.append(i)
        value = sum(size[i] for i in witness)
        if value > best_value:
            best_value, best_witness = value, index_set(witness)
    return best_value, best_witness


def _require_unit(x: Vector, op: str) -> None:
    value = norm(x, 1).value
    if value != 1:
        raise UnitNormRequired(f"{op} needs a unit vector; got norm {value}")


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


def _pruned_walk(x: Vector, ground: Iterable[int]) -> tuple[int, list[IndexSet], int]:
    """(scale, tight, below) over the admissible subsets of ``ground``, an
    increasing sequence of positive integers that may hold zeros of x.

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
    len(ground), which every caller's cutoff holds to 24.

    Lexicographic order: a node comes before its descendants, which are
    its proper extensions and sort after it, and the subtree of an earlier
    sibling G + {a} before that of G + {b}, a < b, whose members sort
    after every extension of G + {a}, since they agree on G and differ
    first at a against b.  So preorder is the lexicographic order of the
    tuples, and tight needs no sort.

    Two prunes, both sound because every size is >= 0, so a descendant
    totals at least s:
    - s > scale: no descendant is tight or below scale.
    - bound = s + (sum of the r largest sizes of ground[p:]) < scale.  A
      descendant adds at most r elements of ground[p:], so totals at most
      bound: none is tight.  The bound is attained: F plus the r largest
      later elements (all of them, if fewer are left) keeps minimum m and
      has m elements or fewer, so it is admissible, and it is the best
      total of the subtree.  The walk takes bound as a candidate for below
      and does not descend.
    Every other node has s <= scale <= bound, and its own total counts
    (tight at s = scale, else a candidate for below).  So tight and below
    are those of the full listing.
    """
    ground = tuple(ground)
    values, scale = cleared(q for _, q in x.items())
    size = dict(zip(x.support, map(abs, values)))
    sizes = [size.get(i, 0) for i in ground]
    n = len(ground)
    # top[p][r] is the sum of the r largest sizes of ground[p:] (all of them
    # past n - p), for r <= n; the singletons cap r at the elements left.
    top = []
    for p in range(n + 1):
        row = list(accumulate(sorted(sizes[p:], reverse=True), initial=0))
        top.append(row + [row[-1]] * p)
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
            if t > scale:
                continue
            bound = t + top[q + 1][r]
            if bound < scale:
                if bound > below:
                    below = bound
                continue
            visit(F + (ground[q],), t, q + 1, r)

    for q, m in enumerate(ground):
        t = sizes[q]
        if t > scale:
            continue
        r = min(m - 1, n - q - 1)
        bound = t + top[q + 1][r]
        if bound < scale:
            if bound > below:
                below = bound
            continue
        visit((m,), t, q + 1, r)
    return scale, tight, below


def _window_tight_sets(x: Vector, N: int) -> list[IndexSet]:
    """The admissible sets of [1, N] on which |x| sums to exactly 1,
    lexicographically, behind the window cutoff of enumerate_admissible."""
    cutoffs.check("enumerate_admissible(k=1)", N, cutoffs.admissible_enum_limit(1))
    return _pruned_walk(x, range(1, N + 1))[1]


def one_sets(x: Vector) -> list[IndexSet]:
    """The complete family of 1-sets: admissible, inside supp x, summing to 1."""
    _require_unit(x, "one_sets")
    return _one_sets(x)


def _one_sets(x: Vector) -> list[IndexSet]:
    """one_sets for a vector already checked to be a unit vector: the tight
    sets of the support walk, in lexicographic order.  Raises before any
    subset is walked when the support is over its cutoff."""
    cutoffs.check("one_sets support size", len(x), cutoffs.admissible_enum_limit(1))
    return _pruned_walk(x, x.support)[1]


def covered_by(sets: list[IndexSet], i: int) -> bool:
    """True when i lies in one of the 1-sets or extends one admissibly.

    For i outside a nonempty G, G + {i} is admissible exactly when its
    minimum min(G[0], i) exceeds len(G).
    """
    return any(i in G or min(G[0], i) > len(G) for G in sets)


def covers_index(x: Vector, i: int) -> bool:
    """True when some admissible set containing i has |x|-sum exactly 1."""
    if i < 1:
        raise ValueError("indices are positive")
    _require_unit(x, "covers_index")
    return covered_by(_one_sets(x), i)


def eps_gap(x: Vector) -> Fraction:
    """1 minus the best admissible |x|-sum that falls strictly short of 1."""
    _require_unit(x, "eps_gap")
    cutoffs.check("eps_gap support size", len(x), cutoffs.admissible_enum_limit(1))
    scale, _, below = _pruned_walk(x, x.support)
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
