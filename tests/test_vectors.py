import copy
import pickle
from fractions import Fraction
from itertools import combinations
from math import lcm

import pytest

from schreier.errors import CutoffExceeded, UnitNormRequired
from schreier.extreme import certify_extreme
from schreier.families import admissible_subsets, enumerate_admissible
from schreier.vectors import (
    Vector,
    _greedy,
    _pruned_walk,
    admissible_sums,
    covers_index,
    eps_gap,
    make_thm1_vector,
    norm,
    one_sets,
)

from conftest import brute_norm, random_unit_vector, random_vector, reference_admissible_sums

HALF = Fraction(1, 2)
X5 = make_thm1_vector(5)
HALVES = Vector({2: HALF, 3: HALF, 4: HALF})


def test_thm1_vector_n5_exact_coordinates():
    expected = {
        1: Fraction(1),
        2: Fraction(48, 125),
        3: Fraction(77, 125),
        7: Fraction(24, 125),
        8: Fraction(24, 125),
        9: Fraction(24, 125),
        10: Fraction(24, 125),
        11: Fraction(24, 125),
        12: Fraction(1, 25),
    }
    assert dict(X5.items()) == expected


def test_thm1_vector_n4_shape():
    x4 = make_thm1_vector(4)
    assert len(x4.support) == 8
    assert x4.max_index == 10


def test_thm1_vector_rejects_small_n():
    with pytest.raises(ValueError):
        make_thm1_vector(3)
    with pytest.raises(ValueError):
        make_thm1_vector(0)
    with pytest.raises(ValueError, match="must be an integer"):
        make_thm1_vector(4.0)


def test_norm_examples():
    assert norm(X5, 1).value == 1
    assert norm(Vector.unit(1), 1) == norm(Vector.unit(1), 1)
    report = norm(Vector.unit(1), 1)
    assert report.value == 1 and report.witness == (1,)
    report = norm(HALVES, 1)
    assert report.value == 1 and report.witness == (2, 3)


def test_norm_zero_vector():
    assert norm(Vector.zero(), 1).value == 0
    assert norm(Vector.zero(), 1).witness == ()


def test_greedy_of_no_sizes_is_the_zero_norm():
    assert _greedy({}) == (0, ())


def test_norm_order_zero():
    assert norm(X5, 0).value == 1
    assert norm(Vector({3: Fraction(-2, 3), 7: Fraction(1, 2)}), 0).value == Fraction(2, 3)
    with pytest.raises(ValueError, match="norm order"):
        norm(X5, -1)


def test_norm_witness_is_admissible_and_achieves(rng):
    for _ in range(100):
        x = random_vector(rng)
        report = norm(x, 1)
        F = report.witness
        assert not F or F[0] >= len(F)
        assert sum(abs(x[i]) for i in F) == report.value


def test_one_sets_x5():
    sets = one_sets(X5)
    expected = [(1,), (2, 3), (7, 8, 9, 10, 11, 12)]
    expected += [(3, i, j) for i in range(7, 12) for j in range(i + 1, 12)]
    assert sets == sorted(expected)
    assert len(sets) == 13


def test_one_sets_examples():
    assert one_sets(Vector.unit(1)) == [(1,)]
    assert one_sets(HALVES) == [(2, 3), (2, 4), (3, 4)]


def test_one_sets_requires_unit():
    with pytest.raises(UnitNormRequired):
        one_sets(Vector({1: Fraction(1, 2)}))


def test_one_sets_membership_properties(rng):
    for _ in range(60):
        x = random_unit_vector(rng)
        support = set(x.support)
        for F in one_sets(x):
            assert set(F) <= support
            assert sum(abs(x[i]) for i in F) == 1
            assert F[0] >= len(F)


def test_covers_examples():
    assert covers_index(X5, 4) is False
    assert covers_index(X5, 1) is True
    assert covers_index(X5, 13) is True
    with pytest.raises(ValueError, match="indices are positive"):
        covers_index(X5, 0)


@pytest.mark.parametrize("op, call, x", [
    ("covers_index", lambda x: covers_index(x, 4), X5),
    ("eps_gap", eps_gap, X5),
    ("certify_extreme", certify_extreme, Vector({1: 1, 2: 1})),
])
def test_unit_norm_is_checked_once_per_call(monkeypatch, op, call, x):
    import schreier.vectors

    calls = []

    def counted(v, k=1):
        calls.append(v)
        return norm(v, k)

    monkeypatch.setattr(schreier.vectors, "norm", counted)
    call(x)
    assert calls == [x]
    with pytest.raises(UnitNormRequired, match=op):
        call(2 * x)


def test_eps_gap_examples():
    assert eps_gap(Vector.unit(1)) == 1
    assert eps_gap(HALVES) == Fraction(1, 2)
    assert eps_gap(X5) == Fraction(1, 25)


@pytest.mark.parametrize(
    "coords",
    [
        {25: "1/2", 30: "-1/4", 31: "1/8", 40: "-1/8"},
        {3: "1/2", 25: "1/4", 30: "-1/4", 31: "1/4", 40: "1/4"},
    ],
)
def test_support_scan_runs_past_the_window_cutoff(coords):
    # Indices beyond the order-1 window cutoff (24): the support scan walks
    # the support, never the window [1, max supp x].
    x = Vector(coords)
    assert norm(x).value == 1

    def admissible_sums_over(ground):
        return {
            F: sum(abs(x[i]) for i in F)
            for size in range(1, len(ground) + 1)
            for F in combinations(ground, size)
            if F[0] >= size
        }

    sums = admissible_sums_over(x.support)
    assert one_sets(x) == sorted(F for F, total in sums.items() if total == 1)
    assert eps_gap(x) == 1 - max(total for total in sums.values() if total < 1)
    for i in range(1, x.max_index + 3):
        ground = tuple(sorted(set(x.support) | {i}))
        brute = any(i in F and total == 1 for F, total in admissible_sums_over(ground).items())
        assert covers_index(x, i) == brute


def test_eps_gap_positive_on_sphere(rng):
    for _ in range(200):
        x = random_unit_vector(rng)
        assert eps_gap(x) > 0


def test_eps_gap_is_second_best(rng):
    from conftest import powerset_admissible

    for _ in range(40):
        x = random_unit_vector(rng, max_index=5)
        second = Fraction(0)
        for F in powerset_admissible(x.max_index):
            total = sum((abs(x[i]) for i in F), Fraction(0))
            if second < total < 1:
                second = total
        assert eps_gap(x) == 1 - second


@pytest.mark.parametrize("order", [1, 2, 3])
def test_admissible_sums_are_the_cleared_fraction_sums(order, rng):
    # Set sources: window lists ending before, at and past max supp x, with
    # zeros inside; a window list inside a ground set that skips some
    # support indices and holds some zeros; the S_1 walk of the support.
    # Each list holds the empty set, whose total is 0.
    checked = 0
    while checked < 25:
        x = random_vector(rng, max_index=7)
        if len(x) == x.max_index:
            continue
        checked += 1
        window = x.max_index + 2
        ground = {i for i in range(1, window + 1) if rng.random() < 0.6}
        sources = [
            (enumerate_admissible(order, w), reference_admissible_sums(x, w, order))
            for w in range(1, window + 1)
        ]
        sources.append(
            (enumerate_admissible(order, window, ground), reference_admissible_sums(x, window, order, ground))
        )
        sources.append(
            (list(admissible_subsets(x.support)), reference_admissible_sums(x, x.max_index, 1, x.support))
        )
        for sets, reference in sources:
            scale, sums = admissible_sums(x, sets)
            sums = list(sums)
            assert scale == lcm(*(q.denominator for _, q in x.items()))
            assert [F for F, _ in sums] == sets
            assert sorted(sums) == [(F, scale * exact) for F, exact in reference]
            assert all(type(total) is int for _, total in sums)
            assert ((), 0) in sums


def test_pruned_walk_matches_the_fraction_reference(rng):
    # Grounds: the support, up to 16 indices, and windows [1, N] with zeros
    # of x inside, for ||x|| = 1 and ||x|| < 1 (no tight sets).  Small
    # numerators and denominators make ties, so many vectors have several
    # 1-sets.  The tight sets must come in lexicographic order unsorted.
    def check(x, ground):
        reference = reference_admissible_sums(x, max(ground), 1, ground)
        scale, tight, below = _pruned_walk(x, ground)
        assert scale == lcm(*(q.denominator for _, q in x.items()))
        assert all(F < G for F, G in zip(tight, tight[1:]))
        assert tight == [F for F, total in reference if total == 1]
        assert Fraction(below, scale) == max(total for _, total in reference if total < 1)
        return tight

    assert check(Vector({3: 1}), (3,)) == [(3,)]
    assert check(Vector({3: 1}), range(1, 7)) == [
        (2, 3), (3,), (3, 4), (3, 4, 5), (3, 4, 6), (3, 5), (3, 5, 6), (3, 6)
    ]
    assert check(Vector({5: HALF}), range(1, 7)) == []
    for _ in range(3):
        x = Vector({i: Fraction(rng.randint(1, 4), rng.randint(1, 3)) for i in rng.sample(range(1, 31), 16)})
        check(x / norm(x).value, x.support)
    several = 0
    for n in range(120):
        small = n % 2
        x = random_vector(rng, rng.randint(6, 12), 0.7, max_num=2 if small else 20, max_den=2 if small else 20)
        if not x:
            continue
        x = x / norm(x).value
        several += len(check(x, x.support)) > 1
        ground = range(1, rng.randint(x.max_index, 12) + 1)
        check(x, ground)
        assert check(x * Fraction(rng.randint(1, 9), 10), ground) == []
    assert several >= 15


def test_greedy_matches_brute_force(rng):
    for _ in range(200):
        x = random_vector(rng)
        assert norm(x, 1).value == brute_norm(x)


def test_norm_unconditional(rng):
    for _ in range(100):
        x = random_vector(rng)
        flip = [i for i in x.support if rng.random() < 0.5]
        assert norm(x.flip_signs(flip), 1).value == norm(x, 1).value


def test_norm_monotone_in_modulus(rng):
    for _ in range(100):
        x = random_vector(rng)
        shrunk = Vector({i: q * Fraction(rng.randint(0, 3), 3) for i, q in x.items()})
        assert norm(shrunk, 1).value <= norm(x, 1).value


def test_norm_orders_are_nested(rng):
    for _ in range(40):
        x = random_vector(rng, max_index=8)
        n0 = norm(x, 0).value
        n1 = norm(x, 1).value
        n2 = norm(x, 2).value
        assert n0 <= n1 <= n2


def test_norm_order_two_uses_block_unions():
    x = Vector({2: 1, 3: 1, 6: 1, 7: 1, 8: 1})
    assert norm(x, 1).value == 3  # best admissible set has three elements
    assert norm(x, 2).value == 5  # {2,3} u {6,7,8} is order-2 admissible


def test_norm_order_two_stops_at_the_window_cutoff():
    with pytest.raises(CutoffExceeded):
        norm(Vector({1: 1, 13: 1}), 2)


def test_sign_flip_restriction_abs():
    v = Vector({2: Fraction(-1, 2), 3: Fraction(1, 2)})
    assert dict(abs(v).items()) == {2: Fraction(1, 2), 3: Fraction(1, 2)}
    trimmed = Vector({i: q for i, q in X5.items() if i < 7})
    assert dict(trimmed.items()) == {
        1: Fraction(1), 2: Fraction(48, 125), 3: Fraction(77, 125)
    }
    flipped = Vector({2: HALF, 3: HALF}).flip_signs([3])
    assert flipped[3] == -HALF
    assert norm(flipped, 1).value == 1


def test_vector_algebra_and_identity():
    v = Vector({1: 1, 4: Fraction(2, 3)})
    w = Vector({4: Fraction(-2, 3), 5: 1})
    assert dict((v + w).items()) == {1: Fraction(1), 5: Fraction(1)}
    assert (v - v) == Vector.zero()
    assert (2 * v)[4] == Fraction(4, 3)
    assert v.dot(w) == Fraction(-4, 9)
    with pytest.raises(AttributeError, match="immutable"):
        v.coords = {}


def test_vector_rejects_bad_indices():
    with pytest.raises(ValueError):
        Vector({0: 1})
    with pytest.raises(ValueError):
        Vector([(2, Fraction(1)), (2, Fraction(1, 2))])
    # Every value path: a kept Fraction, an int, a string.
    for pairs in ([(0, Fraction(1))], [(-3, 1)], [(0, "1/2")], [(2, 1), (2, "1/2")]):
        with pytest.raises(ValueError):
            Vector(pairs)


def test_vector_keeps_fractions_and_converts_everything_else():
    # A Fraction is kept as it is; ints, strings and other values go through
    # Fraction(); zeros of every kind are dropped.
    kept = Fraction(3, 4)
    v = Vector({5: kept, 1: 2, 3: "-1/3", 2: Fraction(0), 4: "0", 6: 0})
    assert v.items() == ((1, Fraction(2)), (3, Fraction(-1, 3)), (5, Fraction(3, 4)))
    assert all(type(q) is Fraction for _, q in v.items())
    assert v[5] is kept
    assert Vector([(2, Fraction(1, 2)), (1, 1)]) == Vector({1: "1", 2: "1/2"})
    assert Vector({1: Fraction(0)}) == Vector.zero()


@pytest.mark.parametrize("round_trip", [
    lambda v: pickle.loads(pickle.dumps(v)),
    copy.copy,
    copy.deepcopy,
], ids=["pickle", "copy", "deepcopy"])
def test_vector_round_trips_through_pickle_and_copy(round_trip):
    v = Vector({1: 1, 4: Fraction(-2, 3), 9: Fraction(1, 7)})
    u = round_trip(v)
    assert u == v and hash(u) == hash(v)
    assert u.items() == v.items()


def test_vector_rejects_float_indices_and_values():
    # int() would truncate 1.9 to 1, and Fraction(0.1) is the binary double,
    # not 1/10.
    for coords in ({1.9: 1}, {2.0: 1}, {"1": 1}):
        with pytest.raises(TypeError):
            Vector(coords)
    for value in (0.1, 0.5, 0.0):
        with pytest.raises(TypeError, match="float"):
            Vector({1: value})
    assert Vector({True: "1/2", 2: Fraction(1, 3)}) == Vector({1: Fraction(1, 2), 2: Fraction(1, 3)})
