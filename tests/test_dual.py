import dataclasses
from fractions import Fraction
from pathlib import Path

import pytest

from schreier import dual, simplex
from schreier.dual import (
    _check_dual_bound,
    _dual_solve,
    dual_norm,
    dual_norm_witness,
    is_dual_extreme,
    lambda_pair_dual,
    make_thm2_functional,
    make_thm2_witness,
    thm2_lambda_bound,
    verify_thm2,
)
from schreier.errors import UnitNormRequired
from schreier.extreme import enumerate_vertices
from schreier.families import admissible_subsets, enumerate_admissible
from schreier.lambdas import max_feasible_weight
from schreier.linalg import cleared
from schreier.simplex import lp_max
from schreier.vectors import Vector, norm

from conftest import (
    full_length_traces,
    powerset_admissible,
    random_fraction,
    random_vector,
    reference_dual_norm_witness,
    reference_dual_solve,
    reference_lambda_pair_dual,
    reference_newton,
)


def test_dual_norm_examples():
    assert dual_norm(Vector({2: 1, 3: 1})) == 1
    assert dual_norm(Vector({1: 1, 2: 1, 3: 1})) == 2
    assert dual_norm(Vector({1: 1})) == 1
    assert dual_norm(Vector.zero()) == 0
    assert dual_norm_witness(Vector.zero()) == (0, Vector.zero())  # an LP with no columns


def test_dual_norm_witness_certifies():
    f = Vector({1: 1, 2: 1, 3: 1})
    value, xhat = dual_norm_witness(f)
    assert value == 2
    assert norm(xhat, 1).value <= 1
    assert f.dot(xhat) == value


def _gapped_functional(rng, top: int) -> Vector:
    """Random p/q, |p|, q <= 20, on 1 to 8 indices drawn from [1, top]."""
    support = rng.sample(range(1, top + 1), rng.randint(1, min(8, top)))
    return Vector({i: random_fraction(rng, 20, 20, allow_zero=False) for i in support})


def test_support_lp_takes_the_pivots_of_the_padded_lp(rng, monkeypatch):
    # The dual norm on supp f against the padded LP on [1, max supp f] that
    # it replaced (conftest): the same value, witness and pivot count, on
    # 514 seeded functionals, at least 500 with gaps, three drawn from
    # [1, 1024], [1, 1000] and [1, 600], and {1000: 1/2, 1024: 1/3}, and
    # on the dual norm inputs of the first 700 queries of query-mix seed 1.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    from queries import make_queries

    pivots = []

    class Counted(simplex._Tableau):
        def pivot(self, r, s):
            pivots[-1] += 1
            super().pivot(r, s)

    monkeypatch.setattr(simplex, "_Tableau", Counted)
    tops = [1024, 1000, 600] + [rng.choice((12, 16, 24, 40, 64)) for _ in range(510)]
    functionals = [_gapped_functional(rng, top) for top in tops]
    functionals += [Vector({1000: Fraction(1, 2), 1024: Fraction(1, 3)})]
    mix = [Vector(q["x"]) for q in make_queries(1, 700) if q["kind"] == "dual_norm"]
    assert len(mix) == 100
    for f in functionals + mix:
        pivots.append(0)
        got = dual_norm_witness(f)
        pivots.append(0)
        assert got == reference_dual_norm_witness(f)
        assert pivots[-2] == pivots[-1]
    assert sum(len(f) < f.max_index for f in functionals) >= 500
    assert max(f.max_index for f in functionals) == 1024
    assert sum(pivots) > 1000


def test_far_dual_norm_runs_on_a_two_column_tableau(monkeypatch):
    # {1000: 1/2, 1024: 1/3}: two columns, the two singleton rows and the
    # one cut {1000, 1024}, where [1, 1024] took 1,024 columns and rows.
    built = []

    class Sized(simplex._Tableau):
        def __init__(self, n):
            built.append(self)
            super().__init__(n)

    monkeypatch.setattr(simplex, "_Tableau", Sized)
    f = Vector({1000: Fraction(1, 2), 1024: Fraction(1, 3)})
    assert dual_norm_witness(f) == (Fraction(1, 2), Vector({1000: 1}))
    assert [(tab.n, len(tab.rows)) for tab in built] == [(2, 3)]


def _brute_dual_norm(f: Vector) -> Fraction:
    """Full-constraint LP over every admissible subset: independent oracle."""
    N = f.max_index
    if N == 0:
        return Fraction(0)
    rows = []
    for F in powerset_admissible(N):
        if F:
            rows.append([Fraction(1) if i + 1 in F else Fraction(0) for i in range(N)])
    value, _ = lp_max([abs(f[i]) for i in range(1, N + 1)], rows, [Fraction(1)] * len(rows))
    return value


def test_dual_norm_matches_full_lp(rng):
    # The lazy cuts on one warm-started tableau against the cold LP over all rows.
    for _ in range(400):
        f = random_vector(rng, max_index=7, max_num=10, max_den=10)
        assert dual_norm(f) == _brute_dual_norm(f)


def test_dual_norm_matches_vertex_maximum(rng):
    # Second oracle: the optimum sits at a vertex of the section polytope.
    for _ in range(20):
        f = random_vector(rng, max_index=4, max_num=10, max_den=10)
        if not f:
            continue
        vertices = enumerate_vertices(f.max_index)
        assert dual_norm(f) == max(f.dot(v) for v in vertices)


def test_duality_pairing_inequality(rng):
    for _ in range(100):
        f = random_vector(rng, max_index=7)
        x = random_vector(rng, max_index=7)
        assert f.dot(x) <= dual_norm(f) * norm(x, 1).value


def test_is_dual_extreme_examples():
    assert is_dual_extreme(Vector({2: 1, 3: 1})) is True
    assert is_dual_extreme(Vector({1: 1})) is True
    assert is_dual_extreme(Vector({2: 1, 4: -1, 5: 1})) is False
    assert is_dual_extreme(Vector({2: 1})) is False  # |F| = 1 < min F = 2
    assert is_dual_extreme(Vector({1: Fraction(1, 2)})) is False
    assert is_dual_extreme(Vector.zero()) is False


def test_dual_extreme_points_have_norm_one(rng):
    for _ in range(50):
        m = rng.randint(1, 4)
        extra = sorted(rng.sample(range(m + 1, m + 8), m - 1))
        F = [m] + extra
        f = Vector({i: rng.choice((-1, 1)) for i in F})
        assert is_dual_extreme(f)
        assert dual_norm(f) == 1


def test_make_thm2_examples():
    f2 = make_thm2_functional(2)
    w2 = make_thm2_witness(2)
    assert dict(f2.items()) == {1: Fraction(1, 2), 2: Fraction(1, 2), 3: Fraction(1, 2)}
    assert dict(w2.items()) == {1: Fraction(1), 2: Fraction(1, 2), 3: Fraction(1, 2)}
    assert dual_norm(f2) == 1
    assert f2.dot(w2) == 1
    assert make_thm2_functional(1) == Vector({1: 1})


def test_thm2_witness_is_unit():
    for n in (1, 2, 3, 4):
        assert norm(make_thm2_witness(n), 1).value == 1


def test_thm2_lambda_bound_examples():
    assert thm2_lambda_bound((1,), 4) == Fraction(1, 4)
    assert thm2_lambda_bound((), 4) == Fraction(0)
    assert thm2_lambda_bound((2, 3), 4) == Fraction(1, 4)
    with pytest.raises(ValueError):
        thm2_lambda_bound((2, 3, 4), 4)  # |G| = 3 > min G = 2
    with pytest.raises(ValueError):
        thm2_lambda_bound((16,), 4)  # outside [1, 15]


def _t_sum_bound(G, n):
    # The dyadic-block formula 1 - T(G)/n, T(G) = sum_k |B_k minus G| / 2^(k-1),
    # clamped at 0: the reference for the pairing <1_G, w> / n.
    T = sum(
        Fraction(sum(1 for i in range(2 ** (k - 1), 2**k) if i not in G), 2 ** (k - 1))
        for k in range(1, n + 1)
    )
    return max(1 - T / n, Fraction(0))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_thm2_lambda_bound_is_the_t_sum_on_every_admissible_trace(n):
    for G in enumerate_admissible(1, 2**n - 1):
        assert thm2_lambda_bound(G, n) == _t_sum_bound(G, n)


@pytest.mark.parametrize("n", [0, -1])
def test_thm2_n_below_one_is_rejected(n):
    with pytest.raises(ValueError, match="n must be >= 1"):
        thm2_lambda_bound((), n)
    for make in (make_thm2_functional, make_thm2_witness):
        with pytest.raises(ValueError, match="n must be >= 1"):
            make(n)


def test_thm2_lambda_bound_sign_independent_by_construction(rng):
    # The bound only reads the trace, never signs: same G, same bound.
    for n in (2, 3):
        for G in full_length_traces(n)[:6]:
            assert thm2_lambda_bound(G, n) == thm2_lambda_bound(tuple(G), n)


def test_lambda_pair_dual_examples():
    e1 = Vector({1: 1})
    assert lambda_pair_dual(e1, e1) == 1
    # x* = e* through the general line and the weak-duality check of f = 0.
    e23 = Vector({2: 1, 3: -1})
    assert lambda_pair_dual(e23, e23) == 1
    assert max_feasible_weight(e23, e23, _dual_solve(e23.support)[0]) == (1, None)
    f2 = make_thm2_functional(2)
    lam = lambda_pair_dual(f2, e1)
    assert lam == Fraction(1, 2)
    assert lam <= thm2_lambda_bound((1,), 2)


def test_lambda_pair_dual_respects_trace_bound(rng):
    x4 = make_thm2_functional(3)
    for G in full_length_traces(3)[:8]:
        signs = {i: rng.choice((-1, 1)) for i in G}
        e_star = Vector(signs)
        lam = lambda_pair_dual(x4, e_star)
        assert lam <= thm2_lambda_bound(G, 3)


def _random_dual_extreme(rng, top: int) -> Vector:
    m = rng.randint(1, 3)
    F = [m] + sorted(rng.sample(range(m + 1, top + 1), m - 1))
    return Vector({i: rng.choice((-1, 1)) for i in F})


def _line_pairs(rng) -> list[tuple[Vector, Vector]]:
    e = Vector({2: 1, 3: -1})
    pairs = [
        (e, e),
        (e / 2, e),  # lambda = 3/4
        # x* - t e* cancels at the top index: at the iterate t = 1/4 of the
        # first pair, at the answer t = 1/13 of the second.
        (Vector({1: Fraction(-1, 2), 2: Fraction(1, 4), 3: Fraction(-1, 2), 4: Fraction(-1, 4)}),
         Vector({2: 1, 4: -1})),
        (Vector({1: Fraction(6, 13), 2: Fraction(6, 13), 3: Fraction(-6, 13),
                 4: Fraction(-2, 13), 5: Fraction(1, 13)}),
         Vector({3: -1, 4: -1, 5: 1})),
    ]
    x3 = make_thm2_functional(3)
    pairs += [(x3, Vector({i: 1 for i in G})) for G in full_length_traces(3)]
    for _ in range(60):
        e_star = _random_dual_extreme(rng, 7)
        x_star = random_vector(rng, max_index=rng.randint(1, 7), max_num=10, max_den=10)
        if x_star:
            x_star = x_star * rng.choice((1, Fraction(1, 2), Fraction(2, 3))) / dual_norm(x_star)
        pairs.append((x_star, e_star))
    return pairs


def test_lambda_pair_dual_line_matches_cold_newton(rng):
    # The live tableau of the line against a cold LP at every Newton step.
    pairs = _line_pairs(rng)
    assert len(pairs) == 77
    expected = [reference_lambda_pair_dual(x, e) for x, e in pairs]
    assert [lambda_pair_dual(x, e) for x, e in pairs] == expected
    assert expected[:4] == [1, Fraction(3, 4), 0, Fraction(1, 13)]


def test_dual_newton_binding_certifies_the_weight(rng):
    # The binding g = s num / d is a point of the primal ball, so it lies in
    # the dual ball of the dual norm; <g, e*> < 1 and <g, x* - lam e*> =
    # 1 - lam then give ||x* - t e*||* > 1 - t for every t > lam.
    for x_star, e_star in _line_pairs(rng):
        lam, g = max_feasible_weight(x_star, e_star, _dual_solve(_ground(x_star, e_star))[0])
        if lam == 1:
            assert g is None and x_star == e_star
            continue
        assert norm(g, 1).value <= 1
        assert g.dot(e_star) < 1
        assert g.dot(x_star - lam * e_star) == 1 - lam


def _ground(x_star: Vector, e_star: Vector) -> list[int]:
    """supp x* | supp e*, the ground of a standalone pair line."""
    return sorted({*x_star.support, *e_star.support})


def _line_certificate(x_star: Vector, e_star: Vector):
    """The line's answer, f = x* - lambda e*, and the certificate of its last basis."""
    solve, certificate = _dual_solve(_ground(x_star, e_star))
    lam, _ = max_feasible_weight(x_star, e_star, solve)
    f = x_star - lam * e_star
    return lam, f, certificate(f)


def _spot_check_pairs(n: int) -> list[tuple[Vector, Vector]]:
    x_star = make_thm2_functional(n)
    return [(x_star, Vector({i: 1 for i in G})) for G in full_length_traces(n)[:10]]


def test_dual_certificate_sums_to_the_cold_dual_norm(rng):
    # The LP dual read off the line's last basis is optimal: its sum is the
    # cold dual norm of x* - lambda e*, and it passes the weak-duality check.
    pairs = _line_pairs(rng) + _spot_check_pairs(3) + _spot_check_pairs(4)
    for x_star, e_star in pairs:
        lam, f, (sets, duals, D) = _line_certificate(x_star, e_star)
        ground = _ground(x_star, e_star)
        assert sets[: len(ground)] == [(i,) for i in ground]
        assert Fraction(sum(duals), D) == dual_norm_witness(f)[0]
        _check_dual_bound(f, 1 - lam, sets, duals, D)


def _lower_largest(sets, duals, D):
    k = duals.index(max(duals))
    duals[k] -= 1
    return sets, duals, D


def _negate_first(sets, duals, D):
    duals[0] = -1  # the singleton {1}, where f = 0: only the sign check sees it
    return sets, duals, D


def _widen_largest(sets, duals, D):
    k = duals.index(max(duals))
    sets[k] = (1,) + sets[k]  # covers more, but |F| > min F
    return sets, duals, D


@pytest.mark.parametrize("corrupt, message", [
    (_lower_largest, "cover"),
    (_negate_first, "< 0"),
    (_widen_largest, "not admissible"),
])
def test_lambda_pair_dual_rejects_a_corrupted_certificate(monkeypatch, corrupt, message):
    x_star, e_star = make_thm2_functional(3), Vector({1: 1})  # lambda = 1/3, f_1 = 0
    lam, f, (sets, duals, D) = _line_certificate(x_star, e_star)
    assert lam == Fraction(1, 3) and f[1] == 0 and max(duals) > 0
    real = dual._dual_solve

    def corrupted(ground):
        solve, certificate = real(ground)

        def bad(f):
            sets, duals, D = certificate(f)
            return corrupt(list(sets), list(duals), D)

        return solve, bad

    monkeypatch.setattr(dual, "_dual_solve", corrupted)
    with pytest.raises(RuntimeError, match=f"dual lambda verification failed: .*{message}"):
        lambda_pair_dual(x_star, e_star)


def test_lambda_pair_dual_rejects_a_wrong_line(monkeypatch):
    # A line that answers too high leaves a basis whose dual cannot prove the
    # bound for the f rebuilt from the Vectors.
    def too_high(x, e, solve):
        lam, binding = max_feasible_weight(x, e, solve)
        return lam + Fraction(1, 6), binding

    monkeypatch.setattr(dual, "max_feasible_weight", too_high)
    with pytest.raises(RuntimeError, match="dual lambda verification failed"):
        lambda_pair_dual(make_thm2_functional(3), Vector({1: 1}))


def test_lambda_pair_dual_solves_no_cold_lp(rng, monkeypatch):
    # The certificate replaces the cold re-solve: with every cold LP path
    # raising, the 77 line pairs answer as before, and verify_thm2 reaches a
    # dual norm only once, for the unit check of x*.
    pairs = _line_pairs(rng)
    expected = [lambda_pair_dual(x, e) for x, e in pairs]

    def no_cold_lp(*args, **kwargs):
        raise AssertionError("a cold LP was solved")

    monkeypatch.setattr(dual, "lp_max", no_cold_lp)
    monkeypatch.setattr(dual, "dual_norm_witness", no_cold_lp)
    assert [lambda_pair_dual(x, e) for x, e in pairs] == expected

    calls = []

    def counted(f):
        calls.append(f)
        return dual_norm_witness(f)

    monkeypatch.setattr(dual, "lp_max", lp_max)
    monkeypatch.setattr(dual, "dual_norm_witness", counted)
    assert verify_thm2(3).passed
    assert calls == [make_thm2_functional(3)]


def test_dual_line_integer_oracle_matches_cold_dual_norm(rng):
    # One live tableau per pair, solved at t = 0 and at every iterate of the
    # cold reference Newton line: on the integer moduli of x* - t e* it must
    # return a point num / d of the primal ball whose value is the cold dual
    # norm of x* - t e*.
    checked = 0
    for x_star, e_star in _line_pairs(rng):
        _, _, iterates = reference_newton(x_star, e_star, dual_norm_witness)
        ground = _ground(x_star, e_star)
        solve, _ = _dual_solve(ground)
        for t in [Fraction(0)] + iterates:
            f = x_star - t * e_star
            ints, scale = cleared([q for _, q in f.items()])
            sizes = {i: abs(w) for i, w in zip(f.support, ints)}
            num, d = solve(sizes)
            assert d > 0 and all(n >= 0 for n in num.values()) and set(num) <= set(ground)
            value = Fraction(sum(n * sizes.get(i, 0) for i, n in num.items()), d * scale)
            assert value == dual_norm_witness(f)[0]
            assert norm(Vector({i: Fraction(n, d) for i, n in num.items()}), 1).value <= 1
            checked += 1
    assert checked > 200


def test_verify_thm2_builds_one_dual_tableau(monkeypatch):
    # The ten spot checks share one _dual_solve line; dual_norm_witness, the
    # unit check of x*, runs its own lp_max.
    built = []

    class Counted(dual._Tableau):
        def __init__(self, n):
            built.append(n)
            super().__init__(n)

    monkeypatch.setattr(dual, "_Tableau", Counted)
    report = verify_thm2(3)
    assert report.passed and len(report.spot_checks) == 10
    assert built == [7]


@pytest.mark.parametrize(("n", "pivots", "solves"), [(3, 51, 34), (4, 215, 18)])
def test_verify_thm2_pivot_work_is_pinned(monkeypatch, n, pivots, solves):
    # Every pivot and solve of verify_thm2: the unit check's lp_max and the
    # spot checks' shared line.  A tableau that strays from Bland's order
    # moves these counts even when every lambda stays the same.  Both LPs
    # start at the box vertex, so the counts leave out the phase-one pivots
    # of their first solves (65 and 245 with them).
    counts = {"pivot": 0, "optimize": 0}

    class Counted(simplex._Tableau):
        def pivot(self, r, s):
            counts["pivot"] += 1
            super().pivot(r, s)

        def optimize(self, c, cut=None):
            counts["optimize"] += 1
            return super().optimize(c, cut)

    monkeypatch.setattr(simplex, "_Tableau", Counted)
    monkeypatch.setattr(dual, "_Tableau", Counted)
    assert verify_thm2(n).passed
    assert counts == {"pivot": pivots, "optimize": solves}


def test_shared_line_matches_fresh_pairs_in_either_order():
    # One line carries the cuts of every earlier pair: the 13 n = 3 traces,
    # solved forward and then reversed on it, answer as on fresh lines.
    x3 = make_thm2_functional(3)
    pairs = [(x3, Vector({i: 1 for i in G})) for G in full_length_traces(3)]
    assert len(pairs) == 13
    fresh = [lambda_pair_dual(x, e) for x, e in pairs]
    line = _dual_solve(range(1, 8))
    shared = [lambda_pair_dual(x, e, _line=line) for x, e in pairs + pairs[::-1]]
    assert shared == fresh + fresh[::-1]


def test_shared_line_matches_the_cold_reference_at_n4():
    line = _dual_solve(range(1, 16))
    pairs = _spot_check_pairs(4)
    shared = [lambda_pair_dual(x, e, _line=line) for x, e in pairs]
    assert shared == [reference_lambda_pair_dual(x, e) for x, e in pairs]


def test_shared_line_short_of_the_pair_is_rejected():
    # x* reaches index 3, past the tableau's [1, 2].
    with pytest.raises(ValueError, match="reaches index 3, off the tableau's ground"):
        lambda_pair_dual(make_thm2_functional(2), Vector({1: 1}), _line=_dual_solve(range(1, 3)))


def test_a_longer_line_pads_the_pair_with_zeros(rng):
    # The support lemma of _section_lp: a zero of every objective takes no
    # pivot, so lines on [1, N], N the pair's largest index, and on
    # [1, N + 3] give the lambda of a fresh line on supp x* | supp e* and,
    # step for step, the same binding.  The line pairs hold the 13 traces
    # at n = 3.
    pairs = _line_pairs(rng) + _spot_check_pairs(4)
    for x_star, e_star in pairs:
        N = max(x_star.max_index, e_star.max_index)
        fresh = lambda_pair_dual(x_star, e_star)
        on_support = max_feasible_weight(x_star, e_star, _dual_solve(_ground(x_star, e_star))[0])
        for window in (range(1, N + 1), range(1, N + 4)):
            assert lambda_pair_dual(x_star, e_star, _line=_dual_solve(window)) == fresh
            assert max_feasible_weight(x_star, e_star, _dual_solve(window)[0]) == on_support


def _gapped_pairs(rng, count: int) -> list[tuple[Vector, Vector]]:
    """Pairs on sparse supports in [1, 40]: e* a dual extreme point and
    x* = t e* + (1 - t) y, y on the dual sphere, so lambda >= t."""
    pairs = []
    for _ in range(count):
        e_star = _random_dual_extreme(rng, 40)
        support = rng.sample(range(1, 41), rng.randint(1, 5))
        y = Vector({i: random_fraction(rng, 10, 10, allow_zero=False) for i in support})
        t = rng.choice((0, Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)))
        pairs.append((t * e_star + (1 - t) * y / dual_norm(y), e_star))
    return pairs


def test_pair_line_on_the_support_matches_the_padded_line(rng):
    # _dual_solve on supp x* | supp e* against the padded line on [1, N]
    # that it replaced (conftest): the same lambda and binding, and a last
    # basis with the same denominator and the same nonzero row duals, on
    # the same cut rows.
    positive = 0
    for x_star, e_star in _line_pairs(rng) + _gapped_pairs(rng, 80):
        N = max(x_star.max_index, e_star.max_index)
        ground = _ground(x_star, e_star)
        solve, certificate = _dual_solve(ground)
        padded_solve, padded_certificate = reference_dual_solve(N)
        lam, binding = max_feasible_weight(x_star, e_star, solve)
        assert (lam, binding) == max_feasible_weight(x_star, e_star, padded_solve)
        f = x_star - lam * e_star
        (sets, duals, D), (padded_sets, padded_duals, padded_D) = certificate(f), padded_certificate(f)
        assert sets[len(ground):] == padded_sets[N:] and D == padded_D
        assert ({F: y for F, y in zip(sets, duals) if y}
                == {F: y for F, y in zip(padded_sets, padded_duals) if y})
        positive += 0 < lam < 1
    assert positive > 50


def test_dual_line_solves_on_the_pair_supports(rng, monkeypatch):
    # Every sizes map the line hands the tableau holds only the nonzero
    # moduli of supp x* | supp e*; the solve pads them up to its [1, N].
    real = dual._dual_solve
    seen = []

    def spied(ground):
        solve, certificate = real(ground)

        def spy(sizes):
            seen.append(sizes)
            return solve(sizes)

        return spy, certificate

    monkeypatch.setattr(dual, "_dual_solve", spied)
    for x_star, e_star in _line_pairs(rng):
        seen.clear()
        lambda_pair_dual(x_star, e_star)
        support = {*x_star.support, *e_star.support}
        assert seen and all(set(s) <= support and all(s.values()) for s in seen)


def test_lambda_pair_dual_checks_e_star_before_any_lp(monkeypatch):
    def no_lp(*args, **kwargs):
        raise AssertionError("an LP was built before e* was checked")

    monkeypatch.setattr(dual, "_Tableau", no_lp)
    monkeypatch.setattr(dual, "lp_max", no_lp)
    with pytest.raises(ValueError, match="dual extreme"):
        lambda_pair_dual(make_thm2_functional(2), Vector({200: 1}))


def test_lambda_pair_dual_rejects_dual_norm_above_one():
    e_star = Vector({2: 1, 3: -1})
    x_star = Vector({1: 1, 2: Fraction(1, 2), 3: Fraction(1, 2)})  # dual norm 3/2
    def line(x, e):  # the line itself checks the dual ball at t = 0
        return max_feasible_weight(x, e, _dual_solve(range(1, 4))[0])

    for fn in (lambda_pair_dual, reference_lambda_pair_dual, line):
        with pytest.raises(UnitNormRequired):
            fn(x_star, e_star)


def test_lambda_pair_dual_preconditions():
    with pytest.raises(ValueError):
        lambda_pair_dual(make_thm2_functional(2), Vector({2: 1}))


def _dual_section_vertex(f: Vector, N: int) -> bool:
    """f is pinned by the primal vertices it norms: the dual section ball is
    the polar of the primal section polytope, so its vertices are exactly the
    functionals whose active primal vertices span the window."""
    from schreier.linalg import rank

    actives = [v for v in enumerate_vertices(N) if f.dot(v) == 1]
    rows = [[v[i] for i in range(1, N + 1)] for v in actives]
    return bool(rows) and rank(rows) == N


def test_dual_characterization_vs_section_perturbation(rng):
    # Members of the closed form stay vertices of the polar at every window
    # (a rank deficit would hand out an explicit midpoint split).
    for _ in range(15):
        m = rng.randint(1, 2)
        extra = sorted(rng.sample(range(m + 1, 5), m - 1))
        f = Vector({i: rng.choice((-1, 1)) for i in [m] + extra})
        assert is_dual_extreme(f)
        for N in range(f.max_index, min(6, f.max_index + 2) + 1):
            assert _dual_section_vertex(f, N)
    # Known non-members lose full rank once the window clears the support.
    assert not _dual_section_vertex(Vector({2: 1}), 3)
    f = Vector({1: Fraction(1, 2), 2: Fraction(1, 2), 3: Fraction(1, 2)})
    assert dual_norm(f) == 1 and not is_dual_extreme(f)
    assert not _dual_section_vertex(f, 3)


def test_verify_thm2_small():
    report = verify_thm2(2, 3)
    assert report.passed
    assert report.candidate_count == 2
    assert report.max_bound == Fraction(1, 2)
    assert report.zero_trace_bound == 0
    assert report.bound_target == Fraction(3, 2)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_verify_thm2_candidate_count_is_the_enumerated_count(n):
    assert verify_thm2(n).candidate_count == len(full_length_traces(n))


@pytest.mark.parametrize("n", [3, 4])
def test_verify_thm2_draws_at_most_ten_traces(n, monkeypatch):
    # The maximum and the count are closed forms: only the ten spot checks
    # draw traces.
    drawn = []

    def counted(*args, **kwargs):
        for G in admissible_subsets(*args, **kwargs):
            drawn.append(G)
            yield G

    monkeypatch.setattr(dual, "admissible_subsets", counted)
    assert verify_thm2(n).passed
    assert 0 < len(drawn) <= 10


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_verify_thm2_max_bound_covers_every_admissible_trace(n):
    # Only traces with |G| = min G are listed; the bound over every
    # admissible trace in [1, 2^n - 1] must still peak at max_bound.
    everything = max(thm2_lambda_bound(G, n) for G in enumerate_admissible(1, 2**n - 1))
    assert everything == verify_thm2(n).max_bound


def test_verify_thm2_report_is_frozen():
    report = verify_thm2(2, 3)
    with pytest.raises(dataclasses.FrozenInstanceError):
        report.max_bound = Fraction(0)
    assert isinstance(report.spot_checks, tuple)


def test_verify_thm2_n1_degenerate():
    report = verify_thm2(1)
    assert report.bound_target == 3
    assert report.passed


def test_verify_thm2_window_check():
    with pytest.raises(ValueError):
        verify_thm2(3, 4)


def test_thm2_lambda_bound_takes_integer_indices_only():
    with pytest.raises(TypeError):
        thm2_lambda_bound((1.5,), 3)
