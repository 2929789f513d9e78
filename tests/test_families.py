from itertools import combinations

import pytest

from schreier.cutoffs import admissible_enum_limit
from schreier.errors import CutoffExceeded, VectorFormatError
from schreier.families import (
    admissible_subsets,
    enumerate_admissible,
    format_index_set,
    index_set,
    is_admissible,
    is_maximal,
    parse_index_set,
)

from conftest import in_schreier_family, powerset_admissible


def test_admissible_order_one_examples():
    assert is_admissible((2, 3), 1) is True
    assert is_admissible((2, 3, 4), 1) is False
    assert is_admissible((), 1) is True
    assert is_admissible((1,), 1) is True
    assert is_admissible((1, 2), 1) is False


def test_admissible_order_two_example():
    # {2,3} u {6,7,8}: two blocks, both admissible, 2 <= min of first block.
    assert is_admissible((2, 3, 6, 7, 8), 2) is True
    assert is_admissible((1, 2), 2) is False
    assert is_admissible((2, 3, 4), 2) is True  # blocks {2,3} and {4}
    assert is_admissible((), 2) is True


@pytest.mark.parametrize("k", [2, 3])
def test_greedy_blocks_match_the_block_search(k):
    universe = range(1, 12)
    for size in range(len(universe) + 1):
        for F in combinations(universe, size):
            assert is_admissible(F, k) == in_schreier_family(F, k), F


def test_admissible_order_zero():
    assert is_admissible((), 0) is True
    assert is_admissible((5,), 0) is True
    assert is_admissible((1, 2), 0) is False
    with pytest.raises(ValueError, match="family order"):
        is_admissible((2, 3), -1)


def test_membership_stops_changing_at_the_set_size():
    # Past k = |F| the order no longer matters, so a large order is
    # answered at k = |F| instead of recursing once per order.
    assert is_admissible((2, 3), 3000) is True
    assert is_admissible((1, 2), 3000) is False
    assert is_admissible((2, 3, 4, 5), 900) is True
    assert is_maximal((1,), 3000) is True
    assert is_maximal((2, 3), 3000) is False  # extends by 4: {2, 3} u {4}
    for size in range(1, 6):
        for F in combinations(range(1, 8), size):
            for k in range(size, size + 3):
                assert is_admissible(F, k) == in_schreier_family(F, k), (F, k)


def test_long_sets_at_a_large_order():
    # One pass over F, a few levels at a time: a thousand elements at
    # order 5000 answer at once, as at the capped order |F| = 1000.
    F = range(2, 1002)
    assert is_admissible(F, 5000) == is_admissible(F, 1000) is True
    assert is_maximal(F, 5000) is False


def test_maximality_examples():
    assert is_maximal((1,), 1) is True
    assert is_maximal((3, 5), 1) is False
    assert is_maximal((2, 7), 1) is True
    with pytest.raises(ValueError):
        is_maximal((1, 2), 1)
    with pytest.raises(ValueError):
        is_maximal((), 1)


def test_maximality_closed_form_order_one(rng):
    for F in enumerate_admissible(1, 8):
        if F:
            assert is_maximal(F, 1) == (F[0] == len(F))


def test_maximality_higher_orders():
    assert is_maximal((2, 3, 6, 7, 8), 2) is False  # extends by 9
    assert is_maximal((1,), 2) is True  # {1, j} admits no block split
    assert is_maximal((5,), 0) is True


def test_enumerate_examples():
    assert list(admissible_subsets(range(1, 4), maximal=True)) == [(1,), (2, 3)]
    assert enumerate_admissible(1, 2) == [(), (1,), (2,)]
    assert enumerate_admissible(0, 3) == [(), (1,), (2,), (3,)]
    with pytest.raises(ValueError, match="window"):
        enumerate_admissible(1, -1)


def test_enumerate_matches_powerset_filter():
    for N in range(0, 11):
        assert enumerate_admissible(1, N) == sorted(powerset_admissible(N))


def test_hereditary(rng):
    for F in enumerate_admissible(1, 9):
        for size in range(len(F)):
            for G in combinations(F, size):
                assert is_admissible(G, 1)


def test_order_one_inside_order_two():
    for F in enumerate_admissible(1, 8):
        assert is_admissible(F, 2)


def test_spreading_property(rng):
    for _ in range(300):
        N = rng.randint(1, 12)
        F = rng.choice(enumerate_admissible(1, 12))
        if not F:
            continue
        G = []
        floor = 0
        for f in F:
            g = rng.randint(max(f, floor + 1), f + 3)
            G.append(g)
            floor = g
        assert is_admissible(tuple(G), 1)


def test_enumerate_cutoff_error():
    with pytest.raises(CutoffExceeded):
        enumerate_admissible(1, admissible_enum_limit(1) + 1)
    with pytest.raises(CutoffExceeded):
        enumerate_admissible(2, admissible_enum_limit(2) + 1)


def test_index_set_parse_format():
    assert parse_index_set("{2,3,6}") == (2, 3, 6)
    assert parse_index_set("{}") == ()
    assert format_index_set((2, 3, 6)) == "{2,3,6}"
    assert parse_index_set(format_index_set((1, 4, 9))) == (1, 4, 9)
    with pytest.raises(VectorFormatError):
        parse_index_set("{3,2}")
    with pytest.raises(VectorFormatError):
        parse_index_set("{0,1}")
    with pytest.raises(VectorFormatError):
        parse_index_set("2,3")
    with pytest.raises(VectorFormatError, match="bad index set literal"):
        parse_index_set("{a}")
    with pytest.raises(ValueError):
        index_set([0, 1])


def test_index_set_literal_takes_only_plain_indices():
    # int() would read a sign, a leading zero, an underscore or a non-ASCII
    # digit; an index is written as vector files write it.
    for text in ("{+2,3}", "{02,3}", "{1_0}", "{\u0663}"):
        with pytest.raises(VectorFormatError, match="bad index set literal"):
            parse_index_set(text)
    # str.strip() would also remove Unicode whitespace; only ASCII goes.
    for text in ("\u3000{2}\u3000", "{\u00a02,3}", "{2,\u20033}"):
        with pytest.raises(VectorFormatError):
            parse_index_set(text)
    assert parse_index_set("{ 2, 3 }") == (2, 3)
    assert parse_index_set(" {2} ") == (2,)


def test_maximal_walk_agrees_with_filter():
    for N in (4, 6, 8):
        full = enumerate_admissible(1, N)
        maximal = list(admissible_subsets(range(1, N + 1), maximal=True))
        assert maximal == [F for F in full if F and is_maximal(F, 1)]


def _powerset_filter(ground, maximal):
    """Admissible (or |F| = min F) subsets of ground, from the raw power set."""
    subsets = [c for size in range(len(ground) + 1) for c in combinations(ground, size)]
    if maximal:
        return sorted(F for F in subsets if F and F[0] == len(F))
    return sorted(F for F in subsets if not F or F[0] >= len(F))


def test_admissible_subsets_match_the_powerset_filter(rng):
    grounds = [(), (1,), (30, 31, 40), (2, 3, 4), (1, 2, 3, 4, 5, 6, 7)]
    for _ in range(40):
        grounds.append(tuple(sorted(rng.sample(range(1, 41), rng.randint(0, 9)))))
    for ground in grounds:
        for maximal in (False, True):
            walk = list(admissible_subsets(ground, maximal=maximal))
            assert len(set(walk)) == len(walk)
            assert sorted(walk) == _powerset_filter(ground, maximal)
            if maximal:
                assert walk == sorted(walk)


def test_enumerate_admissible_checks_its_window_before_building_it():
    # [1, 10^18] as a list is a MemoryError; the cutoff comes first.
    with pytest.raises(CutoffExceeded, match=r"enumerate_admissible\(k=2\): requested 10{18} "):
        enumerate_admissible(2, 10**18)


def test_index_sets_take_integers_only():
    # int() would truncate 1.9 and 2.5 and parse "2".
    for bad in ([1.9, 2.2], ["2", "3"]):
        with pytest.raises(TypeError):
            index_set(bad)
    with pytest.raises(TypeError):
        is_admissible(["2", "3"])
    with pytest.raises(TypeError):
        is_maximal((2.5, 3.1))
    assert index_set([3, True, 2, 3]) == (1, 2, 3)
