"""Schreier families S_k: membership, maximality, and enumeration.

An index set is a strictly increasing tuple of positive integers.  S_0 holds
the sets of size at most one, S_1 the admissible sets (min F >= |F|), and
S_{k+1} is built from S_k by constrained unions: F is in S_{k+1} when the
sorted elements of F split into d consecutive blocks E_1 < ... < E_d with
d <= min E_1 and every block in S_k.  The empty set belongs to every S_k.
admissible_subsets is the one full walk of S_1, over a window or any
ground; the |x|-sum questions that prune it walk in vectors._pruned_walk.
"""

from collections.abc import Iterable
from itertools import combinations
from operator import index
from string import whitespace

from . import cutoffs
from .errors import VectorFormatError
from .rationals import _INDEX_RE

IndexSet = tuple[int, ...]


def index_set(elements: Iterable[int]) -> IndexSet:
    """Canonicalize to a sorted tuple of distinct positive integers.

    Elements are integers (``operator.index``): a float or a string is a
    TypeError, not a truncated index.
    """
    items = sorted(set(map(index, elements)))
    if items and items[0] < 1:
        raise ValueError(f"index sets contain positive integers only, got {items[0]}")
    return tuple(items)


def parse_index_set(text: str) -> IndexSet:
    """Parse the brace form used by the CLI, e.g. '{2,3,6}' or '{}'.

    Only ASCII whitespace may surround the braces and the indices.
    """
    text = text.strip(whitespace)
    if not (text.startswith("{") and text.endswith("}")):
        raise VectorFormatError(f"index set literal must be brace-delimited, got {text!r}")
    body = text[1:-1].strip(whitespace)
    if not body:
        return ()
    parts = [part.strip(whitespace) for part in body.split(",")]
    bad = next((part for part in parts if not _INDEX_RE.fullmatch(part)), None)
    if bad is not None:
        raise VectorFormatError(
            f"bad index set literal {text!r}: {bad!r} is not a positive base-10 index"
        )
    items = [int(part) for part in parts]
    if sorted(items) != items or len(set(items)) != len(items):
        raise VectorFormatError(f"index set {text!r} must be strictly increasing")
    return tuple(items)


def format_index_set(F: IndexSet) -> str:
    return "{" + ",".join(str(i) for i in F) + "}"


def is_admissible(F: Iterable[int], k: int = 1) -> bool:
    """Decide membership of F in the Schreier family of order k.

    Membership stops changing at k = |F|: F is in S_k exactly when it is
    in S_min(k, |F|), so the order is capped there.  Proof by induction on
    |F|.  S_k is inside S_(k+1): a set of S_k is one block, and 1 <= min F.
    A split of F into d >= 2 blocks has blocks smaller than F, so for
    k > |F| each block is in S_(k-1) exactly when it is in S_(|F|-1), by
    induction on |F|.  So for k > |F|, F is in S_k exactly when it is in
    S_(k-1) or has such a split with blocks in S_(|F|-1); by induction on k
    the first puts F in S_|F|, and so does the second, d <= min F.

    For k >= 2, F is in S_k exactly when its greedy split into S_(k-1)
    blocks has at most min F blocks: each block grows until the next
    element would take it out of S_(k-1), then a new block starts.  The
    greedy split has the fewest blocks: its t-th block ends no earlier
    than the t-th block of any split.  By induction on t, the t-th greedy
    block starts no earlier than that block, so up to that block's end it
    is a subset of it, in S_(k-1) since S_(k-1) is hereditary, and the
    greedy block does not end before there.

    The greedy splits of every level run in one left-to-right pass.  A
    greedy split of a prefix is the split of the shorter prefix with the
    new element put in the last block or in a new one, so a block plus x
    is in S_j exactly when x fits the last S_(j-1) block of its split or
    that split has fewer blocks than its minimum.  The pass keeps the open
    block of each level j < k as its minimum and its number of S_(j-1)
    blocks (of elements at j = 1), and level k as F[0] and its number of
    S_(k-1) blocks.  Each element joins the lowest level with room, whose
    count grows by one, and opens a fresh block at every level below; F
    leaves S_k when no level has room.  That is at most k steps per
    element, k <= |F|.
    """
    if k < 0:
        raise ValueError("family order must be >= 0")
    F = index_set(F)
    if not F:
        return True
    k = min(k, len(F))
    if k == 0:
        return len(F) <= 1
    if k == 1:
        return F[0] >= len(F)
    mins, counts = [F[0]] * k, [1] * k
    for x in F[1:]:
        j = 0
        while counts[j] == mins[j]:
            j += 1
            if j == k:
                return False
        counts[j] += 1
        mins[:j], counts[:j] = [x] * j, [1] * j
    return True


def is_maximal(F: Iterable[int], k: int = 1) -> bool:
    """True when no further index can be added while staying inside S_k.

    Candidate extensions only need checking up to max F + 1: pushing an
    extension element further right is a spread, which preserves membership,
    so admissibility of F + {j} for j > max F is settled at j = max F + 1.
    """
    F = index_set(F)
    if not is_admissible(F, k):
        raise ValueError(f"{format_index_set(F)} is not in S_{k}")
    if not F:
        raise ValueError("maximality is defined for non-empty sets")
    if k == 1:
        return F[0] == len(F)
    present = set(F)
    for j in range(1, F[-1] + 2):
        if j not in present and is_admissible(F + (j,), k):
            return False
    return True


def admissible_subsets(ground: Iterable[int], maximal: bool = False):
    """Lazily, every admissible subset of the increasing positive integers
    in ground: the empty set, then each minimum m with at most m - 1 later
    elements of ground.  With maximal, exactly m - 1 later elements
    (|F| = min F) and no empty set.  Lexicographic when maximal.
    """
    ground = tuple(ground)
    if not maximal:
        yield ()
    for pos, m in enumerate(ground):
        later = ground[pos + 1:]
        for size in range(m - 1 if maximal else 0, min(m - 1, len(later)) + 1):
            for rest in combinations(later, size):
                yield (m,) + rest


def enumerate_admissible(k: int, N: int, within: Iterable[int] | None = None) -> list[IndexSet]:
    """All members of S_k contained in [1, N], lexicographically sorted.

    With ``within``, only the members contained in it.  The cutoff bounds
    the ground that is scanned: [1, N], or its indices in ``within``.
    """
    if N < 0:
        raise ValueError("window must be >= 0")
    what, limit = f"enumerate_admissible(k={k})", cutoffs.admissible_enum_limit(k)
    if within is None:
        cutoffs.check(what, N, limit)  # before [1, N] is built
        universe = list(range(1, N + 1))
    else:
        universe = sorted(i for i in set(within) if 1 <= i <= N)
        cutoffs.check(what, len(universe), limit)
    if k == 0:
        return [()] + [(i,) for i in universe]
    if k == 1:
        return sorted(admissible_subsets(universe))
    sets = []
    for size in range(0, len(universe) + 1):
        for cand in combinations(universe, size):
            if is_admissible(cand, k):
                sets.append(cand)
    sets.sort()
    return sets
