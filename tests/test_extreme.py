import random
import sys
from fractions import Fraction
from itertools import combinations, product
from math import lcm

import pytest

from schreier.cutoffs import admissible_enum_limit
from schreier.errors import CutoffExceeded
from schreier.extreme import (
    EXTREME,
    NOT_EXTREME,
    SignedConstraint,
    _active_rank_rows,
    _class_positive_vertices,
    _embed,
    _maximal_in_window,
    _positive_pool,
    _sign_patterns,
    canonical_key,
    certify_extreme,
    enumerate_extreme_in_space,
    enumerate_vertices,
    perturbation_witness,
    positive_extreme_points,
)
from schreier.families import enumerate_admissible
from schreier.lambdas import lambda_pair
from schreier.linalg import nullspace_vector, rank
from schreier.vectors import Vector, _window_tight_sets, covered_by, make_thm1_vector, norm, one_sets

from conftest import (
    pairwise_maximal,
    powerset_admissible,
    random_unit_vector,
    reference_active_rows,
    reference_admissible_sums,
    reference_failed_conditions,
    solve_square,
    vertices_by_combination_search,
)

E1 = Vector.unit(1)
E12 = Vector({1: 1, 2: 1})
X5 = make_thm1_vector(5)


def test_active_rank_rows_match_the_signed_active_constraints():
    # The rows built from the 1-sets and covered zeros span the same space as
    # the full signed rows of every tight set in the window, so the rank and
    # the reduced-echelon kernel vector agree.
    rng = random.Random(808)
    checked = 0
    while checked < 150:
        e = random_unit_vector(rng, max_index=6)
        if len(e) == e.max_index:
            continue  # no zero inside [1, max supp e]
        checked += 1
        sets = one_sets(e)
        for N in range(e.max_index, e.max_index + 4):
            full = reference_active_rows(e, N)
            compact = _active_rank_rows(e, sets, N)
            assert rank(compact) == rank(full)
            assert nullspace_vector(compact, N) == nullspace_vector(full, N)


def test_extreme_certificates_scan_no_window(monkeypatch):
    head, tail = _class_positive_vertices(4)[0]  # built before counting
    embedded = _embed(head, tail, (6, 8, 9, 11))
    calls = []

    def spy(scan):
        def counted(*args, **kwargs):
            calls.append(args)
            return scan(*args, **kwargs)

        return counted

    # A window reaches the sums through the window list or the pruned walk
    # of the window.  Every module imports them under its own name, so
    # every binding under schreier is replaced.
    patched = set()
    for name, module in list(sys.modules.items()):
        if name == "schreier" or name.startswith("schreier."):
            for attr, value in list(vars(module).items()):
                if value is enumerate_admissible or value is _window_tight_sets:
                    monkeypatch.setattr(module, attr, spy(value))
                    patched.add((name, value.__name__))
    assert {
        ("schreier.extreme", "enumerate_admissible"),
        ("schreier.vectors", "enumerate_admissible"),
        ("schreier.lambdas", "_window_tight_sets"),
    } <= patched
    assert certify_extreme(E12).verdict == EXTREME
    assert certify_extreme(embedded).verdict == EXTREME
    assert calls == []


def test_necessary_conditions_examples():
    assert certify_extreme(E1).failed_conditions == ["non_maximal_one_set_exists", "coverage"]
    assert certify_extreme(E12).failed_conditions == []
    assert [F for F in one_sets(E12) if F[0] > len(F)] == [(2,)]
    assert certify_extreme(Vector.unit(2)).failed_conditions == [
        "head_is_initial_segment", "support_twice_one_set", "coverage"]
    assert "coverage" in certify_extreme(X5).failed_conditions
    assert not covered_by(one_sets(X5), 4)


def _failed_condition_inputs():
    """Seeded unit vectors, then every pool point at windows 6, 8 and 10."""
    rng = random.Random(2425)
    for _ in range(2000):
        yield random_unit_vector(rng, max_index=rng.randint(1, 7), density=rng.choice((0.4, 0.7)))
    for N in (6, 8, 10):
        yield from positive_extreme_points(N)


def test_failed_conditions_match_the_six_checks():
    # The list is read off the 1-sets; the reference evaluates all six
    # conditions, two of which no unit vector fails.  Every list the
    # report can carry must turn up: a head index off the support is
    # always uncovered, so the head and size conditions never fail alone.
    # The rank is checked against the signed rows of every tight set of the
    # window from the power set.
    seen = set()
    for e in _failed_condition_inputs():
        cert = certify_extreme(e)
        failed = cert.failed_conditions
        assert failed == reference_failed_conditions(e), e
        assert cert.active_rank == rank(reference_active_rows(e, e.max_index)), e
        seen.add(tuple(failed))
    assert seen == {
        ("non_maximal_one_set_exists", "coverage"),
        ("head_is_initial_segment", "support_twice_one_set", "coverage"),
        ("coverage",),
        (),
    }


def test_a_non_maximal_one_set_is_unique_and_bounds_the_support():
    # supp e lies in [1, m] + F for a non-maximal 1-set F with m = |F|,
    # and no other 1-set is non-maximal.
    found = 0
    for e in _failed_condition_inputs():
        non_max = [F for F in one_sets(e) if F[0] > len(F)]
        assert len(non_max) <= 1, e
        if non_max:
            F = non_max[0]
            assert set(e.support) <= set(range(1, len(F) + 1)) | set(F), e
            found += 1
    assert found > 500


def test_perturbation_witness_examples():
    w = perturbation_witness(E1, 2)
    assert w is not None and w
    assert norm(E1 + w, 1).value <= 1 and norm(E1 - w, 1).value <= 1
    assert perturbation_witness(E12, 5) is None
    w = perturbation_witness(X5, 12)
    assert w is not None and w[4] != 0


def _reference_witness(e, window):
    """perturbation_witness in Fractions: the same direction q, scaled by the
    least of 1, |e_i| / (2 |q_i|) and (1 - sum) / (2 action) over the slack
    sets of reference_admissible_sums."""
    sets = one_sets(e)
    uncovered = [i for i in range(1, window + 1) if not covered_by(sets, i)]
    if uncovered:
        q = [Fraction(0)] * window
        q[uncovered[0] - 1] = Fraction(1)
    else:
        q = nullspace_vector(_active_rank_rows(e, sets, window), window)
        if q is None:
            return None
    bounds = [Fraction(1)]
    bounds += [abs(e[i]) / (2 * abs(qi)) for i, qi in enumerate(q, start=1) if qi and i in e]
    for F, total in reference_admissible_sums(e, window):
        action = sum(abs(q[i - 1]) for i in F)
        if total != 1 and action:
            bounds.append((1 - total) / (2 * action))
    t = min(bounds)
    return Vector({i: t * qi for i, qi in enumerate(q, start=1) if qi})


def test_perturbation_witness_scale_is_the_fraction_slack_minimum():
    rng = random.Random(909)
    found = 0
    for _ in range(300):
        e = random_unit_vector(rng, max_index=6)
        window = e.max_index + rng.randint(0, 3)
        w = perturbation_witness(e, window)
        assert w == _reference_witness(e, window)
        found += w is not None
    assert found > 200


def test_not_extreme_path_checks_the_unit_norm_and_one_sets_once(monkeypatch):
    import schreier.extreme
    import schreier.vectors

    norms, scans = [], []
    find_one_sets = schreier.extreme._one_sets

    def counted_norm(v, k=1):
        norms.append(v)
        return norm(v, k)

    def counted_one_sets(v):
        scans.append(v)
        return find_one_sets(v)

    monkeypatch.setattr(schreier.vectors, "norm", counted_norm)
    monkeypatch.setattr(schreier.extreme, "_one_sets", counted_one_sets)
    cert = certify_extreme(X5)
    assert cert.verdict == NOT_EXTREME
    assert norms == [X5] and scans == [X5]
    assert cert.witness == _reference_witness(X5, X5.max_index + 3)


def test_certify_extreme_answers_at_the_last_support_indices():
    # The witness window is one index past the support, so it reaches 25
    # at a support index of 24; the slack scan runs over the support and
    # the direction only, so the window cutoff of 24 does not stop it.
    for top in (22, 23, 24):
        cert = certify_extreme(Vector({1: 1, top: Fraction(1, 2)}))
        assert cert.verdict == NOT_EXTREME
        assert cert.witness == Vector({2: Fraction(1, 4)})


def test_perturbation_witness_one_past_the_support_is_the_wide_one():
    rng = random.Random(2213)
    found = 0
    for _ in range(300):
        e = random_unit_vector(rng, max_index=rng.randint(2, 8))
        sets = one_sets(e)
        N = e.max_index
        w = perturbation_witness(e, N + 1, sets=sets)
        assert w == perturbation_witness(e, N + 3, sets=sets)
        found += w is not None
    assert found > 200


def test_perturbation_witness_window_check():
    with pytest.raises(ValueError):
        perturbation_witness(X5, 5)


def test_certify_examples():
    assert certify_extreme(E12).verdict == EXTREME
    cert = certify_extreme(E1)
    assert cert.verdict == NOT_EXTREME
    assert cert.witness is not None and cert.witness.support == (2,)
    assert certify_extreme(X5).verdict == NOT_EXTREME


def test_not_extreme_always_carries_a_witness():
    rng = random.Random(4471)
    refuted = 0
    for _ in range(300):
        e = random_unit_vector(rng, max_index=rng.randint(1, 8))
        cert = certify_extreme(e)
        if cert.verdict == EXTREME:
            assert cert.witness is None
            continue
        assert cert.verdict == NOT_EXTREME
        w = cert.witness
        assert w and norm(e + w, 1).value <= 1 and norm(e - w, 1).value <= 1
        refuted += 1
    assert refuted > 250


def test_a_missing_witness_is_an_internal_error(tmp_path, monkeypatch):
    import schreier.extreme
    from schreier.cli import run
    from schreier.serialize import save_vector_file

    monkeypatch.setattr(schreier.extreme, "perturbation_witness", lambda *args, **kwargs: None)
    with pytest.raises(RuntimeError):
        certify_extreme(E1)
    path = str(tmp_path / "e1.json")
    save_vector_file(path, E1)
    assert run(["extreme", "check", path]) == 3


def test_certify_extreme_invariants():
    cert = certify_extreme(E12)
    assert cert.active_rank == cert.window == 2
    assert any(F[0] > len(F) for F in one_sets(E12))


def test_enumerate_vertices_censuses():
    assert enumerate_vertices(0) == []  # the box's one vertex is the zero vector
    assert len(enumerate_vertices(1)) == 2
    v2 = enumerate_vertices(2)
    assert len(v2) == 4
    assert {tuple(sorted(v.items())) for v in v2} == {
        ((1, Fraction(1)), (2, Fraction(1))),
        ((1, Fraction(1)), (2, Fraction(-1))),
        ((1, Fraction(-1)), (2, Fraction(1))),
        ((1, Fraction(-1)), (2, Fraction(-1))),
    }
    v3 = enumerate_vertices(3)
    assert len(v3) == 8
    supports = {v.support for v in v3}
    assert supports == {(1, 2), (1, 3)}


def test_enumerate_vertices_cutoff():
    with pytest.raises(CutoffExceeded):
        enumerate_vertices(7)


def test_far_windows_stop_at_the_window_cutoff():
    # The rank rows grow with the window, so a far support index or window
    # is refused rather than eliminated.
    beyond = admissible_enum_limit(1) + 1
    with pytest.raises(CutoffExceeded):
        certify_extreme(Vector({1: 1, beyond: 1}))
    with pytest.raises(CutoffExceeded):
        perturbation_witness(E12, beyond)
    with pytest.raises(CutoffExceeded):
        lambda_pair(E1, Vector({1: 1, beyond: 1}))


@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_enumerate_vertices_match_combination_search(N):
    # The section polytope from the definition: every sign pattern on every
    # maximal admissible set of [1, N], each summing to at most 1.
    rows = []
    for F in pairwise_maximal([F for F in powerset_admissible(N) if F]):
        for signs in product((1, -1), repeat=len(F)):
            coeffs = [0] * N
            for i, s in zip(F, signs):
                coeffs[i - 1] = s
            rows.append((coeffs, 1))
    expected = vertices_by_combination_search(N, rows)
    got = [tuple(v[i] for i in range(1, N + 1)) for v in enumerate_vertices(N)]
    assert len(got) == len(set(got))
    assert set(got) == expected


def test_maximal_in_window_matches_the_pairwise_filter():
    for N in range(1, 15):
        family = [F for F in powerset_admissible(N) if F]
        assert _maximal_in_window(N) == sorted(pairwise_maximal(family))


def test_in_space_censuses():
    assert enumerate_extreme_in_space(1) == []
    assert len(enumerate_extreme_in_space(2)) == 4
    assert len(enumerate_extreme_in_space(3)) == 8


def test_in_space_first_member_order():
    points = enumerate_extreme_in_space(2)
    assert points[0] == E12  # canonical order puts the positive rep first


def test_in_space_matches_vertices_with_nonmax_one_set():
    # Independent route: in-space extremes inside [1, N] are exactly the
    # section vertices owning a non-maximal 1-set.
    for N in range(1, 7):
        expected = [
            v for v in enumerate_vertices(N)
            if any(F[0] > len(F) for F in one_sets(v))
        ]
        expected.sort(key=lambda v: canonical_key(v, N))
        assert enumerate_extreme_in_space(N) == expected


def test_in_space_integer_sort_is_the_canonical_order():
    # The signed expansion is sorted on integer keys from the pool's rows;
    # that must be the canonical order, with no two points alike.
    for N in (7, 8):
        points = enumerate_extreme_in_space(N)
        assert len(set(points)) == len(points)
        assert points == sorted(points, key=lambda v: canonical_key(v, N))
        assert sorted(points, key=lambda v: v.items()) == sorted(
            (u for e in positive_extreme_points(N) for _, u in _sign_patterns(e)),
            key=lambda v: v.items())


def test_in_space_supports_and_even_cardinality():
    for N in (3, 4, 5, 6):
        for e in positive_extreme_points(N):
            assert certify_extreme(e).failed_conditions == []
            (F,) = [G for G in one_sets(e) if G[0] > len(G)]
            m = len(F)
            assert len(e.support) == 2 * m
            assert e.support == tuple(range(1, m + 1)) + F


def test_positive_pool_is_in_canonical_order():
    # The pool is sorted on plain coordinate tuples; for e >= 0 that is the
    # canonical order, which fixes the first achiever of lambda_lower.
    for N, size in ((6, 12), (8, 44), (10, 365), (12, 4966)):
        pool = positive_extreme_points(N)
        assert len(set(pool)) == len(pool) == size
        assert pool == sorted(pool, key=lambda v: canonical_key(v, N))


def test_positive_pool_rows_are_the_numerators_over_d():
    # The rows hold each point's coordinates on [1, N] over D, the LCM of
    # the class denominators, and strictly increase, so rows.sort() gave
    # the canonical order without ties.
    for N in range(2, 13):
        points, rows, D = _positive_pool(N)
        values = [q for m in range(1, N // 2 + 1)
                  for head, tail in _class_positive_vertices(m) for q in head + tail]
        assert D == lcm(*(q.denominator for q in values))
        assert len(points) == len(rows)
        for e, row in zip(points, rows):
            assert row == tuple(e[i] * D for i in range(1, N + 1))
        assert all(a < b for a, b in zip(rows, rows[1:]))


def test_pool_members_certify_extreme():
    # The pool is extreme by construction (one certificate per class); the
    # full certificate of each embedding is kept here as a check.
    for e in positive_extreme_points(10):
        assert certify_extreme(e).verdict == EXTREME
    pool = positive_extreme_points(12)
    for e in random.Random(12).sample(pool, 200):
        assert certify_extreme(e).verdict == EXTREME


def test_sign_symmetry_of_certification(rng):
    for _ in range(30):
        e = random_unit_vector(rng, max_index=5)
        flip = [i for i in e.support if rng.random() < 0.5]
        assert certify_extreme(e).verdict == certify_extreme(e.flip_signs(flip)).verdict


def test_one_sets_of_extreme_points_are_active(rng):
    for e in positive_extreme_points(5):
        active_sets = {F for F, total in reference_admissible_sums(e, e.max_index) if total == 1}
        for F in one_sets(e):
            assert F in active_sets


def test_cross_validation_certify_vs_witness(rng):
    for _ in range(60):
        e = random_unit_vector(rng, max_index=6)
        verdict = certify_extreme(e).verdict
        absent = all(
            perturbation_witness(e, w) is None
            for w in range(e.max_index, e.max_index + 4)
        )
        assert (verdict == EXTREME) == absent


def _brute_class(m):
    """Active-set search over the raw candidate rows; oracle for small m.

    Variables are (v_2..v_m, w_1..w_m).  Each row is a head position t in
    [2, m] plus a (t-1)-subset A of the later positions; every vertex with
    positive coordinates that certifies EXTREME on its canonical embedding
    (tail on [m+1, 2m]) is a class, its tail sorted descending.
    """
    nvars = 2 * m - 1
    rows = []
    for t in range(2, m + 1):
        for A in combinations(range(t - 1, nvars), t - 1):
            row = [Fraction(0)] * nvars
            row[t - 2] += 1
            for p in A:
                row[p] += 1
            rows.append(row)
    wrow = [Fraction(0)] * nvars
    for j in range(m):
        wrow[m - 1 + j] = Fraction(1)
    sols = set()
    for combo in combinations(range(len(rows)), nvars - 1):
        system = [wrow] + [rows[i] for i in combo]
        sol = solve_square(system, [Fraction(1)] * nvars)
        if sol is None or any(v <= 0 for v in sol):
            continue
        if any(sum(r[j] * sol[j] for j in range(nvars)) > 1 for r in rows):
            continue
        head = (Fraction(1),) + tuple(sol[: m - 1])
        tail = tuple(sorted(sol[m - 1 :], reverse=True))
        if certify_extreme(_embed(head, tail, range(m + 1, 2 * m + 1))).verdict == EXTREME:
            sols.add((head, tail))
    return sorted(sols)


@pytest.mark.parametrize("m", [2, 3])
def test_class_vertices_match_brute_force(m):
    assert sorted(_class_positive_vertices(m)) == _brute_class(m)


@pytest.mark.parametrize("m", [3, 4, 5])
def test_class_vertices_insertion_order_independent(m, rng):
    # Double-description output must not depend on the cut order; shuffled
    # and reversed insertions exercise different adjacency decisions.
    from schreier.extreme import _class_polytope_pieces, _class_reps

    *seed, cut_rows = _class_polytope_pieces(m)
    baseline = _class_positive_vertices(m)
    assert _class_reps(m, (*seed, list(reversed(cut_rows)))) == baseline
    shuffled = list(cut_rows)
    rng.shuffle(shuffled)
    assert _class_reps(m, (*seed, shuffled)) == baseline


def test_class_reps_known_members():
    assert ((Fraction(1),), (Fraction(1),)) in _class_positive_vertices(1)
    m2 = _class_positive_vertices(2)
    assert ((Fraction(1), Fraction(1, 2)), (Fraction(1, 2), Fraction(1, 2))) in m2
    m5 = _class_positive_vertices(5)
    bad5 = (
        (Fraction(1), Fraction(2, 5), Fraction(3, 5), Fraction(1, 5), Fraction(1, 5)),
        (Fraction(1, 5),) * 5,
    )
    assert bad5 in m5


def test_class_counts():
    # Extreme classes per tail size m; m = 6 needs the DD adjacency pre-filter
    # to stay at desk speed.
    counts = [len(_class_positive_vertices(m)) for m in range(1, 7)]
    assert counts == [1, 1, 1, 4, 12, 49]


def test_signed_constraint_validation():
    with pytest.raises(ValueError):
        SignedConstraint((1, 2), (1,))
    with pytest.raises(ValueError):
        SignedConstraint((1,), (2,))
