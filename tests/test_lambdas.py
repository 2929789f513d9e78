import dataclasses
from fractions import Fraction
from itertools import combinations

import pytest

from schreier import lambdas as lambdas_mod
from schreier.errors import CutoffExceeded, UnitNormRequired
from schreier.extreme import (
    SignedConstraint,
    _class_positive_vertices,
    face_points,
    positive_extreme_points,
)
from schreier.cutoffs import admissible_enum_limit
from schreier.families import enumerate_admissible, is_admissible
from schreier.linalg import cleared
from schreier.lambdas import (
    _primal_solve,
    alpha_pattern_vector,
    expected_one_sets,
    gap_bound,
    lambda_lower,
    lambda_pair,
    max_feasible_weight,
    verify_thm1,
)
from schreier.vectors import (
    Vector,
    _pruned_walk,
    admissible_sums,
    make_thm1_vector,
    norm,
    one_sets,
)

from conftest import (
    embed,
    random_fraction,
    random_unit_vector,
    random_vector,
    reference_admissible_sums,
    reference_max_feasible_weight,
    signed_lambda_lower,
    spy_norm_work,
)

E1 = Vector.unit(1)
E12 = Vector({1: 1, 2: 1})
X4 = make_thm1_vector(4)
X5 = make_thm1_vector(5)

# The two extreme points with vanishing last block; they break the decay
# bound for the construction (lambda = (1 - 1/n^2)/2), see notes in README.
BAD4 = Vector({1: 1, 2: Fraction(1, 2), 3: Fraction(1, 2), 4: Fraction(1, 4),
               6: Fraction(1, 4), 7: Fraction(1, 4), 8: Fraction(1, 4), 9: Fraction(1, 4)})
BAD5 = Vector({1: 1, 2: Fraction(2, 5), 3: Fraction(3, 5), 4: Fraction(1, 5),
               5: Fraction(1, 5), 7: Fraction(1, 5), 8: Fraction(1, 5),
               9: Fraction(1, 5), 10: Fraction(1, 5), 11: Fraction(1, 5)})


def test_lambda_pair_self_is_one():
    assert lambda_pair(E12, E12).lam == 1
    assert lambda_pair(E1, E1).lam == 1
    # x = e through the general line: it is zero at t = 1.
    assert max_feasible_weight(E12, E12, _primal_solve) == (1, None)


def test_lambda_pair_basic_example():
    result = lambda_pair(E1, E12)
    assert result.lam == Fraction(1, 2)
    # residual reconstructs x exactly
    for i in (1, 2):
        assert E1[i] == result.lam * E12[i] + (1 - result.lam) * result.residual[i]
    assert norm(result.residual, 1).value <= 1
    assert result.binding  # a tight constraint certifies maximality


def test_lambda_pair_alpha_candidate():
    e_alpha = alpha_pattern_vector(5)
    result = lambda_pair(X5, e_alpha)
    # The decay-target bound is (n+1)/n^2 = 6/25; the exact value is 3/25,
    # bound by the admissible set {6,...,11} that mixes the zero coordinate 6.
    assert result.lam == Fraction(3, 25)
    assert result.lam <= Fraction(6, 25)
    assert any(c.indices == (6, 7, 8, 9, 10, 11) for c in result.binding)


def test_lambda_pair_requires_ball_and_sphere():
    with pytest.raises(UnitNormRequired):
        lambda_pair(Vector({1: 2}), E12)
    # The line itself checks the ball at t = 0, also when x = e.
    for x, e in ((Vector({1: 2}), E12), (E12 * 2, E12 * 2)):
        with pytest.raises(UnitNormRequired):
            max_feasible_weight(x, e, _primal_solve)
    with pytest.raises(UnitNormRequired):
        lambda_pair(E1, Vector({1: Fraction(1, 2)}))


def test_lambda_pair_checks_e_on_its_cleared_pair(rng, monkeypatch):
    # ||e|| = 1 is read off the greedy of the pair's own clearing: the
    # message names e and its norm as vectors.norm gives it, and e is
    # checked before x (whose norm the line checks) and before the support
    # cutoff, which the residual's walk checks last.
    bad = 0
    for _ in range(200):
        e = random_vector(rng, max_index=8, max_num=20, max_den=20)
        x = random_vector(rng, max_index=8, max_num=20, max_den=20) * rng.randint(1, 3)
        value = norm(e, 1).value
        if value == 1:
            continue
        with pytest.raises(UnitNormRequired) as err:
            lambda_pair(x, e)
        assert str(err.value) == f"lambda_pair e needs a unit vector; got norm {value}"
        bad += 1
    assert bad > 150
    with pytest.raises(UnitNormRequired, match="lambda_pair e needs a unit vector; got norm 0$"):
        lambda_pair(Vector.zero(), Vector.zero())
    wide = Vector({i: Fraction(1, 25) for i in range(25, 50)})  # lambda 0 against E1
    with pytest.raises(UnitNormRequired, match="lambda_pair e needs a unit vector; got norm 2$"):
        lambda_pair(wide, Vector.unit(25) * 2)
    with pytest.raises(CutoffExceeded, match="lambda_pair support size: requested 25 exceeds cutoff 24"):
        lambda_pair(wide, E1)
    # A unit e passes without a norm call of its own.
    norms, _, _ = spy_norm_work(monkeypatch)
    monkeypatch.setattr(lambdas_mod, "norm", norms.append)
    assert lambda_pair(E12 / 2, E1).lam == Fraction(1, 2)
    assert norms == []


def test_lambda_pair_bindings_equal_checked_constraints(rng):
    # The unchecked binding sets are the constraints the checked
    # constructor builds: equal, with equal hashes and reprs, one sign of
    # +1 or -1 per index.
    checked = 0
    for n in range(300):
        x = random_unit_vector(rng, max_index=7) * Fraction(rng.randint(1, 4), 4)
        e = _placed_extreme_point(rng, 8) if n % 2 else random_unit_vector(rng, max_index=7)
        for c in lambda_pair(x, e).binding:
            twin = SignedConstraint(c.indices, c.signs)
            assert (c, hash(c), repr(c)) == (twin, hash(twin), repr(twin))
            assert type(c.indices) is tuple and type(c.signs) is tuple
            checked += 1
    assert checked > 200


def _canned(*answers):
    """A fake solve that returns its answers in turn, whatever the sizes."""
    calls = iter(answers)
    return lambda sizes: next(calls)


# The fakes below run on x = E12, e = E1: the line is (1, 1) at t = 0 and
# (0, 1) at t = 1, and a fake answers {index: numerator}.  Each invariant
# check must survive python -O.
@pytest.mark.parametrize("slope", [1, 2])
def test_max_feasible_weight_rejects_a_piece_without_positive_slope(slope):
    # A violated piece whose functional pairs to >= 1 with e has no root
    # below the current weight.
    solve = _canned(({1: 0, 2: 0}, 1), ({1: slope, 2: 1}, 1))
    with pytest.raises(RuntimeError, match="positive slope"):
        max_feasible_weight(E12, E1, solve)


def test_max_feasible_weight_rejects_a_norm_below_its_minorant():
    # The functional (0, 1) at t = 1 sends the line to t = 0, where a zero
    # functional reports a norm of 0 < 1 - 0, below the minorant it came from.
    solve = _canned(({1: 0, 2: 0}, 1), ({1: 0, 2: 1}, 1), ({1: 0, 2: 0}, 1))
    with pytest.raises(RuntimeError, match="below its own minorant"):
        max_feasible_weight(E12, E1, solve)


def test_max_feasible_weight_rejects_a_step_out_of_the_interval():
    # (0, 2) pairs to 2 with a unit vector, so it is no norming functional:
    # its minorant lies above h and its root -1 below 0.
    solve = _canned(({1: 0, 2: 0}, 1), ({1: 0, 2: 2}, 1))
    with pytest.raises(RuntimeError, match="did not decrease"):
        max_feasible_weight(E12, E1, solve)


def test_lambda_pair_zero_vector():
    assert lambda_pair(Vector.zero(), E12).lam == Fraction(1, 2)


def test_lambda_pair_decomposition_identity(rng):
    for _ in range(40):
        e = random_unit_vector(rng, max_index=4)
        x = random_unit_vector(rng, max_index=4)
        result = lambda_pair(x, e)
        if result.lam == 1:
            assert x == e
            continue
        lam = result.lam
        for i in range(1, 5):
            assert x[i] == lam * e[i] + (1 - lam) * result.residual[i]
        assert norm(result.residual, 1).value <= 1
        # maximality: strictly above lam the binding constraint is violated
        if lam < 1:
            eps = (1 - lam) / 2
            probe = lam + min(eps, Fraction(1, 1000))
            assert norm(x - probe * e, 1).value > 1 - probe


def test_one_set_propagation_to_triple_members(rng):
    # Any 1-set of x norms both e and the residual whenever lambda > 0.
    for _ in range(60):
        x = random_unit_vector(rng, max_index=4)
        e = random_unit_vector(rng, max_index=4)
        result = lambda_pair(x, e)
        if result.lam == 0 or result.lam == 1:
            continue
        for F in one_sets(x):
            assert sum(abs(e[i]) for i in F) == 1
            assert sum(abs(result.residual[i]) for i in F) == 1


def test_nonnegative_extreme_dominates(rng):
    # For x >= 0, replacing e by |e| cannot shrink the feasible weight.
    for _ in range(60):
        x = abs(random_unit_vector(rng, max_index=4))
        e = random_unit_vector(rng, max_index=4)
        lam_signed = lambda_pair(x, e).lam
        lam_abs = lambda_pair(x, abs(e)).lam
        assert lam_abs >= lam_signed


def test_gap_bound_examples():
    assert gap_bound(X5, alpha_pattern_vector(5), tuple(range(7, 12))) == Fraction(6, 25)
    assert gap_bound(X4, alpha_pattern_vector(4), tuple(range(6, 10))) == Fraction(5, 16)


def test_gap_bound_errors():
    with pytest.raises(ValueError):
        gap_bound(X5, alpha_pattern_vector(5), (1,))  # sum of |x| over {1} is 1
    with pytest.raises(ValueError):
        gap_bound(X5, alpha_pattern_vector(5), (1, 2))  # not admissible
    with pytest.raises(ValueError):
        gap_bound(X5, Vector({1: -1}), (4,))  # negative candidate
    with pytest.raises(ValueError, match="sum of e over F"):
        gap_bound(Vector.zero(), alpha_pattern_vector(5), (1,))  # e sums to 1 on {1}


def test_gap_bound_dominates_pair_lambda(rng):
    # Whenever the residual is nonnegative on F, lambda <= g/h.
    checked = 0
    for _ in range(80):
        x = abs(random_unit_vector(rng, max_index=5))
        e = abs(random_unit_vector(rng, max_index=5))
        result = lambda_pair(x, e)
        if not 0 < result.lam < 1:
            continue
        for F in [(2, 3), (3, 4), (2,), (3, 4, 5)]:
            sx = sum(abs(x[i]) for i in F)
            se = sum(e[i] for i in F)
            if sx >= 1 or se >= 1:
                continue
            if any(result.residual[i] < 0 for i in F):
                continue
            assert result.lam <= gap_bound(x, e, F)
            checked += 1
    assert checked >= 20


def _lambda_oracle(x, e):
    """Independent maximum-weight oracle: the optimum is a root of some
    signed admissible constraint (or 1 when x == e), so scan every root."""
    from itertools import product as iproduct

    from conftest import powerset_admissible

    if x == e:
        return Fraction(1)
    window = max(x.max_index, e.max_index)
    candidates = [Fraction(0)]
    for F in powerset_admissible(window):
        if not F:
            continue
        for signs in iproduct((1, -1), repeat=len(F)):
            a = sum(s * x[i] for s, i in zip(signs, F))
            b = sum(s * e[i] for s, i in zip(signs, F))
            if b < 1:
                root = (1 - a) / (1 - b)
                if 0 <= root <= 1:
                    candidates.append(root)
    feasible = [
        t for t in set(candidates) if norm(x - t * e, 1).value <= 1 - t
    ]
    return max(feasible)


def test_lambda_pair_matches_root_scan_oracle(rng):
    for _ in range(60):
        x = random_unit_vector(rng, max_index=4)
        e = random_unit_vector(rng, max_index=4)
        assert lambda_pair(x, e).lam == _lambda_oracle(x, e)
    # and on ball interior points
    for _ in range(20):
        x = random_unit_vector(rng, max_index=4) * Fraction(2, 3)
        e = random_unit_vector(rng, max_index=4)
        assert lambda_pair(x, e).lam == _lambda_oracle(x, e)


def test_primal_line_oracle_matches_the_norm_along_the_line(rng):
    # At every reference iterate t and every t that zeroes a coordinate of
    # the line, the primal solve on the integer moduli of x - t e norms them
    # with the indicator of the norm's witness.  Small numerators and
    # denominators force ties in the greedy's ranking.
    checked = 0
    for _ in range(150):
        x = random_vector(rng, max_index=7, max_num=3, max_den=4)
        if x:
            x = x * (Fraction(rng.randint(1, 3), 3) / norm(x, 1).value)
        e = random_unit_vector(rng, max_index=7)
        _, _, iterates = reference_max_feasible_weight(x, e)
        zeroing = [x[i] / e[i] for i in e.support if i in x]
        for t in iterates + zeroing:
            v = x - t * e
            ints, scale = cleared([q for _, q in v.items()])
            sizes = {i: abs(w) for i, w in zip(v.support, ints)}
            num, d = _primal_solve(sizes)
            report = norm(v, 1)
            assert d == 1
            assert num == dict.fromkeys(report.witness, 1)
            assert Fraction(sum(n * sizes[i] for i, n in num.items()), scale) == report.value
            checked += 1
    assert checked > 300


def _on(maps: list[dict[int, int]], support: set[int]) -> bool:
    """Whether every sizes map holds nonzero moduli on support only."""
    return all(set(s) <= support and all(s.values()) for s in maps)


def test_primal_line_solves_on_the_pair_supports(rng, monkeypatch):
    # Every sizes map the line hands _primal_solve holds only the nonzero
    # moduli of supp x | supp e (for lambda_lower, e a pool point in
    # [1, window]), so an index far past the others costs nothing: a pair
    # answers the same (lambda, binding) with its top index at 1,000 as at
    # one past its other indices, and that answer is the reference's.
    seen = []

    def spy(sizes):
        seen.append(sizes)
        return _primal_solve(sizes)

    monkeypatch.setattr(lambdas_mod, "_primal_solve", spy)
    for _ in range(60):
        near_x = random_vector(rng, max_index=6, max_num=5, max_den=5)
        near_e = random_vector(rng, max_index=6, max_num=5, max_den=5)
        top_e = Fraction(rng.randint(0 if near_e else 1, 5), 5)
        top_x = Fraction(rng.randint(0 if top_e else 1, 5), 5)
        scale = Fraction(rng.randint(1, 4), 4)
        near = max(near_x.max_index, near_e.max_index) + 1
        answers = []
        for top in (near, 1000):
            x, e = near_x + top_x * Vector.unit(top), near_e + top_e * Vector.unit(top)
            if x:
                x = x * (scale / norm(x, 1).value)
            e = e / norm(e, 1).value
            seen.clear()
            answers.append(max_feasible_weight(x, e, spy))
            assert seen and _on(seen, {*x.support, *e.support})
            seen.clear()
            lambda_lower(x, 4)
            assert _on(seen, {*x.support, 1, 2, 3, 4})
            if top == near:
                assert reference_max_feasible_weight(x, e, minorant_start=True)[:2] == answers[0]
        (lam, g), far = answers
        if g is not None:
            g = Vector({1000 if i == near else i: q for i, q in g.items()})
        assert far == (lam, g)


def _newton_pairs(rng) -> list[tuple[Vector, Vector]]:
    return [
        (random_unit_vector(rng, max_index=5) * Fraction(rng.randint(1, 4), 4),
         random_unit_vector(rng, max_index=5))
        for _ in range(80)
    ]


def test_newton_weights_and_bindings_match_the_reference(rng):
    # The line starts at the root of its t = 0 minorant, so its binding is
    # that of the reference started there; from 1 the weight is the same.
    for x, e in _newton_pairs(rng):
        lam, binding, _ = reference_max_feasible_weight(x, e, minorant_start=True)
        assert max_feasible_weight(x, e, _primal_solve) == (lam, binding)
        assert reference_max_feasible_weight(x, e)[0] == lam
        assert lambda_pair(x, e).lam == lam


def test_newton_binding_certifies_the_weight(rng):
    # The binding g is a signed indicator of an admissible set, so it lies in
    # the dual ball; <g, e> < 1 and <g, x - lam e> = 1 - lam then give
    # ||x - t e|| >= <g, x - t e> > 1 - t for every t > lam.  No pair has
    # x = e, so every weight is below 1 and has a binding.
    for x, e in _newton_pairs(rng):
        lam, g = max_feasible_weight(x, e, _primal_solve)
        assert is_admissible(g.support, 1) and all(abs(q) == 1 for _, q in g.items())
        assert g.dot(e) < 1
        assert g.dot(x - lam * e) == 1 - lam


def _placed_extreme_point(rng, index_max):
    """A known extreme point: a class of tail size m placed on a random legal
    tail in [m + 1, index_max], its tail values permuted and signs flipped."""
    m = rng.randint(1, index_max // 2)
    head, tail = rng.choice(_class_positive_vertices(m))
    F = sorted(rng.sample(range(m + 1, index_max + 1), m))
    e = embed(head, rng.sample(tail, m), F)
    return e.flip_signs(i for i in e.support if rng.random() < 0.5)


def test_lambda_pair_bindings_are_the_fraction_tight_sets(rng):
    # The binding sets are the sets of the window on which |x - lam e| sums
    # to 1 - lam that lie inside supp (x - lam e), signed like x - lam e:
    # the window scan is the reference, so the support list is pinned
    # against an independent listing of every set of the window.
    bound = 0
    for n in range(150):
        x = random_unit_vector(rng, max_index=7) * Fraction(rng.randint(1, 4), 4)
        e = _placed_extreme_point(rng, 8) if n % 2 else random_unit_vector(rng, max_index=7)
        result = lambda_pair(x, e)
        if result.lam == 1:
            assert result.binding == []
            continue
        v = x - result.lam * e
        window = max(x.max_index, e.max_index)
        expected = [
            SignedConstraint(F, tuple(1 if v[i] > 0 else -1 for i in F))
            for F, total in reference_admissible_sums(v, window)
            if total == 1 - result.lam and all(i in v for i in F)
        ]
        assert result.binding == expected
        bound += bool(expected)
    assert bound > 100


def test_lambda_pair_at_the_window_cutoff():
    # BAD4 and BAD5 continued to n = 11: 1, 2/n, 1 - 2/n, 1/n on [4, n], 0 at
    # n + 1 and 1/n on [n + 2, 2n + 1].  With x_11 the pair's window is 24,
    # the order-1 cutoff, and its residual's support is 23 indices, all but
    # 12.  The bindings are checked on integers against the window list,
    # where no tight set holds 12: the Fraction reference over its 121,393
    # sets is slow.
    n = 11
    x = make_thm1_vector(n)
    e = Vector({1: 1, 2: Fraction(2, n), 3: 1 - Fraction(2, n)}
               | {i: Fraction(1, n) for i in (*range(4, n + 1), *range(n + 2, 2 * n + 2))})
    assert one_sets(x) == expected_one_sets(n) and len(expected_one_sets(n)) == 58
    result = lambda_pair(x, e)
    assert result.lam == Fraction(60, 121) == (1 - Fraction(1, n * n)) / 2
    v = result.residual
    scale, sums = admissible_sums(v, enumerate_admissible(1, 2 * n + 2))
    expected = [
        SignedConstraint(F, tuple(1 if v[i] >= 0 else -1 for i in F))
        for F, total in sums
        if total == scale
    ]
    assert result.binding == expected
    assert len(expected) == 174


def test_lambda_lower_matches_the_reference(rng):
    # The signed oracle scans every sign pattern of the pool.  The positive
    # scan must reach the same weight at the same |achiever|, signed like x
    # (+1 where x is zero), and x must reach that weight against it.
    cases = [(x, 6) for x in (E1, X4, random_unit_vector(rng, max_index=6))]
    cases += [
        (random_unit_vector(rng, max_index=window) * Fraction(rng.randint(1, 4), 4), window)
        for window, count in ((4, 20), (6, 10), (8, 3))
        for _ in range(count)
    ]
    # Unit vectors have 1-sets, so only their face is solved.
    cases += [
        (random_unit_vector(rng, max_index=window), window)
        for window, count in ((4, 10), (6, 5), (8, 1))
        for _ in range(count)
    ]
    for x, window in cases:
        best_lam, best_e = signed_lambda_lower(x, window)
        lam, achiever = lambda_lower(x, window)
        assert lam == best_lam
        assert abs(achiever) == abs(best_e)
        assert all((q < 0) == (x[i] < 0) for i, q in achiever.items())
        assert reference_max_feasible_weight(x, achiever)[0] == lam


def test_lambda_lower_meets_the_thm1_pool_maximum():
    # Both pipelines scan the window-10 pool, one on |x|, one on x_4 itself.
    x = X4.flip_signs(X4.support[1::2])
    lam, achiever = lambda_lower(x, 10)
    assert lam == verify_thm1(4, 10).max_pair_lambda == Fraction(15, 32)
    shared = set(x.support) & set(achiever.support)
    assert shared and all((x[i] < 0) == (achiever[i] < 0) for i in shared)


def test_lambda_lower_keeps_the_first_pool_point_at_weight_zero():
    # Every point of the window-4 pool vanishes on the 1-set {6} of x, so
    # none is on the face and each weighs 0; the achiever stays the first
    # pool point, signed like x.
    x = Vector({1: Fraction(-1, 2), 6: 1})
    pool = positive_extreme_points(4)
    assert norm(x, 1).value == 1 and one_sets(x) == [(6,)]
    assert face_points(4, one_sets(x)) == []
    lam, achiever = lambda_lower(x, 4)
    assert lam == signed_lambda_lower(x, 4)[0] == 0
    assert achiever == pool[0].flip_signs([1])


def test_lambda_lower_past_the_support_cutoff_solves_every_point():
    # A unit vector with more support coordinates than the 1-set scan takes.
    size = admissible_enum_limit(1) + 1
    x = Vector({i: Fraction(1, size) for i in range(size, 2 * size)})
    assert norm(x, 1).value == 1
    assert lambda_lower(x, 4) == signed_lambda_lower(x, 4)


def test_lambda_lower_past_the_support_cutoff_faces_the_norm_witness(monkeypatch):
    # 1/10000 on [1, 20000] has norm 1 with witness [10000, 19999], a 1-set
    # past the window: no pool point sums to 1 on it, so no line is solved,
    # and the first pool point achieves lambda = 0.
    x = Vector({i: Fraction(1, 10000) for i in range(1, 20001)})
    assert norm(x, 1).witness == tuple(range(10000, 20000))
    lines = []
    monkeypatch.setattr(lambdas_mod, "max_feasible_weight",
                        lambda *args: lines.append(args) or max_feasible_weight(*args))
    assert lambda_lower(x, 12) == (0, positive_extreme_points(12)[0])
    assert lines == []


def test_thm1_pool_weights_and_bindings_match_the_reference():
    # Face lemma: a pool point with positive weight sums to 1 on every 1-set
    # of x_4; the face holds exactly the two points with positive weight.
    pool = positive_extreme_points(10)
    assert len(pool) == 365
    sets = one_sets(X4)
    positive = []
    for e in pool:
        lam, binding, _ = reference_max_feasible_weight(X4, e)
        assert max_feasible_weight(X4, e, _primal_solve) == (lam, binding)
        if not all(sum(e[i] for i in F) == 1 for F in sets):
            assert lam == 0
        if lam > 0:
            positive.append(e)
    assert face_points(10, sets) == positive
    assert len(positive) == 2 and BAD4 in positive


def _fraction_face(pool, sets):
    return [e for e in pool if all(sum(e[i] for i in F) == 1 for F in sets)]


def test_on_face_matches_the_fraction_sums(rng):
    # The integer face test agrees with e(F) = 1 on every 1-set, for seeded
    # unit vectors, for pool points (each on its own face) and for 1-sets
    # that reach past the window.
    past = [(X4, 6), (Vector({1: Fraction(-1, 2), 8: 1}), 6)]
    for x, N in past:
        sets = one_sets(x)
        assert any(F[-1] > N for F in sets)
        assert face_points(N, sets) == _fraction_face(positive_extreme_points(N), sets)
    for N in range(4, 11):
        pool = positive_extreme_points(N)
        xs = [random_unit_vector(rng, max_index=N) for _ in range(6)]
        xs += rng.sample(pool, min(4, len(pool)))
        for x in xs:
            sets = one_sets(abs(x))
            face = face_points(N, sets)
            assert face == _fraction_face(pool, sets)
            if x in pool:
                assert x in face


def test_lambda_lower_examples():
    lam, achiever = lambda_lower(E1, 2)
    assert lam == Fraction(1, 2)
    assert achiever == E12
    lam, achiever = lambda_lower(E12, 2)
    assert lam == 1 and achiever == E12
    lam, _ = lambda_lower(Vector.zero(), 2)
    assert lam == Fraction(1, 2)
    with pytest.raises(UnitNormRequired):
        lambda_lower(Vector({1: 2}), 2)
    with pytest.raises(ValueError, match="no extreme points"):
        lambda_lower(E1, 1)  # e_1 alone is not extreme: the window-1 pool is empty


def test_lambda_lower_window_monotone():
    x = Vector({1: Fraction(1, 2), 2: Fraction(1, 4)})
    lam2, _ = lambda_lower(x, 2)
    lam3, _ = lambda_lower(x, 3)
    lam4, _ = lambda_lower(x, 4)
    assert lam2 <= lam3 <= lam4


def test_expected_one_sets_matches_census():
    assert one_sets(X5) == expected_one_sets(5)
    assert one_sets(X4) == expected_one_sets(4)
    assert len(expected_one_sets(5)) == 13


def test_alpha_pattern_is_extreme_and_unit():
    from schreier.extreme import EXTREME, certify_extreme

    for n in (4, 5):
        e = alpha_pattern_vector(n)
        assert norm(e, 1).value == 1
        assert certify_extreme(e).verdict == EXTREME


def test_verify_thm1_propagates_constructor_error():
    with pytest.raises(ValueError):
        verify_thm1(3)
    with pytest.raises(ValueError):
        verify_thm1(5, window=11)


def test_counterexamples_are_extreme_and_feasible():
    """The decay bound (n+1)/n^2 fails on the pool: both vectors below are
    certified extreme, sit inside the verification window, and admit exact
    decomposition weights (1 - 1/n^2)/2, far above the bound."""
    from schreier.extreme import EXTREME, certify_extreme

    assert certify_extreme(BAD4).verdict == EXTREME
    assert certify_extreme(BAD5).verdict == EXTREME
    lam4 = lambda_pair(X4, BAD4).lam
    lam5 = lambda_pair(X5, BAD5).lam
    assert lam4 == Fraction(15, 32) > Fraction(5, 16)
    assert lam5 == Fraction(12, 25) > Fraction(6, 25)


def test_one_set_propagation_across_the_n4_pool():
    # The invariant holds on the verifier run itself: every 1-set of x_4
    # norms e and the residual for every pool member with positive weight.
    from schreier.extreme import positive_extreme_points

    sets = one_sets(X4)
    checked = 0
    for e in positive_extreme_points(10):
        result = lambda_pair(X4, e)
        if not 0 < result.lam < 1:
            continue
        checked += 1
        for F in sets:
            assert sum(abs(e[i]) for i in F) == 1
            assert sum(abs(result.residual[i]) for i in F) == 1
    assert checked >= 2  # the constant-tail candidate and the violator


def test_coverage_is_stable_beyond_the_support(rng):
    # Indices past max supp + 1 are covered iff max supp + 1 is.
    from schreier.vectors import covers_index

    for _ in range(40):
        x = random_unit_vector(rng, max_index=5)
        base = covers_index(x, x.max_index + 1)
        for extra in (2, 5, 9):
            assert covers_index(x, x.max_index + extra) == base


def test_verify_thm1_n4_report_contents():
    report = verify_thm1(4, 10)
    assert report.bound == Fraction(5, 16)
    assert report.norm_ok and report.one_sets_ok
    assert report.covers_ok and report.not_extreme_ok
    assert report.gap_bound_ok and report.gap_bound_value == Fraction(5, 16)
    assert report.alpha_candidate_in_pool
    # honest outcome: the pool contains a vector beating the bound
    assert report.pool_bound_ok is False
    assert report.max_pair_lambda == Fraction(15, 32)
    assert [e for e, _ in report.violations] == [BAD4]
    assert report.claims["iii"] is False  # BAD4 has e(3) = e(2)
    assert report.passed is False


def test_verify_thm1_n5_report_contents():
    report = verify_thm1(5, 12)
    assert report.pool_size == 4966
    assert report.max_pair_lambda == Fraction(12, 25) == (1 - Fraction(1, 25)) / 2
    assert report.violations == ((BAD5, Fraction(12, 25)),)
    assert report.passed is False


def test_verify_thm1_report_is_frozen():
    # The report is a value: a caller must not be able to change it.
    report = verify_thm1(4, 10)
    with pytest.raises(dataclasses.FrozenInstanceError):
        report.pool_size = 0
    with pytest.raises(TypeError):
        report.claims["iii"] = True
    assert isinstance(report.violations, tuple)
    assert verify_thm1(4, 10).claims["iii"] is False


def test_lambda_pair_answers_a_far_pair_and_refuses_a_wide_residual():
    # The binding sets are walked on the residual's support, so an index
    # of 10^9 costs no more than a near one, and the cutoff bounds the
    # size of that support, checked after the line, not the window.
    far = Vector({2: Fraction(1, 2), 10**9: Fraction(1, 2)})
    result = lambda_pair(far, E1)
    assert (result.lam, result.residual) == (0, far)
    assert result.binding == [SignedConstraint((2, 10**9), (1, 1))]
    assert lambda_pair(Vector.unit(10**9), Vector.unit(10**9)).lam == 1
    # 1/25 on [25, 49] is a unit vector with lambda 0 against E1, and its
    # residual, itself, has 25 support indices.
    wide = Vector({i: Fraction(1, 25) for i in range(25, 50)})
    assert max_feasible_weight(wide, E1, _primal_solve)[0] == 0
    with pytest.raises(CutoffExceeded, match="lambda_pair support size: requested 25 exceeds cutoff 24"):
        lambda_pair(wide, E1)


def test_lambda_pair_rejects_a_lambda_above_the_line(monkeypatch):
    # The residual walk's root bounds are the verification: a lambda past
    # the true one leaves ||x - lambda e|| > 1 - lambda, which must raise.
    # x = (1/2, 1/2, 1/2) over e_2 has lambda 1/2, where x_1 = 1/2 already
    # meets 1 - lambda, so a lambda just past it fails too.
    e = Vector.unit(2)
    half = Vector({1: Fraction(1, 2), 2: Fraction(1, 2), 3: Fraction(1, 2)})
    cases = [(Vector.unit(1), Fraction(0), Fraction(1, 2)),
             (half, Fraction(1, 2), Fraction(1, 2) + Fraction(1, 1000))]
    for x, lam, wrong in cases:
        assert lambda_pair(x, e).lam == lam
    for x, lam, wrong in cases:
        monkeypatch.setattr(lambdas_mod, "max_feasible_weight", lambda *args, **kwargs: (wrong, None))
        with pytest.raises(RuntimeError, match="lambda verification failed"):
            lambda_pair(x, e)


def _sparse_extreme_point(rng, index_max):
    """A known extreme point with tail size m <= 3 on a legal tail drawn
    from [m + 1, index_max], so its indices may lie far apart."""
    m = rng.randint(1, 3)
    head, tail = rng.choice(_class_positive_vertices(m))
    F = sorted(rng.sample(range(m + 1, index_max + 1), m))
    e = embed(head, rng.sample(tail, m), F)
    return e.flip_signs(i for i in e.support if rng.random() < 0.5)


def _residual_pairs(rng) -> list[tuple[Vector, Vector]]:
    """600 pairs: signed x of norm 1/4 to 1 on [1, 7] against known extreme
    points and random unit vectors in [1, 8]; signed x of norm 1/4 to 1 on
    1 to 4 indices of [1, 24] against extreme points with a far tail,
    with zeros of the residual between them; and 40 pairs with x = e."""
    pairs = []
    for n in range(500):
        x = random_unit_vector(rng, max_index=7) * Fraction(rng.randint(1, 4), 4)
        e = _placed_extreme_point(rng, 8) if n % 2 else random_unit_vector(rng, max_index=7)
        pairs.append((x, e))
    for _ in range(60):
        support = rng.sample(range(1, 25), rng.randint(1, 4))
        x = Vector({i: random_fraction(rng, 20, 20, allow_zero=False) for i in support})
        pairs.append((x * Fraction(rng.randint(1, 4), 4) / norm(x, 1).value,
                      _sparse_extreme_point(rng, 24)))
    for _ in range(40):
        e = _sparse_extreme_point(rng, rng.choice((8, 24)))
        pairs.append((e, e))
    return pairs


def test_lambda_pair_residual_is_the_fraction_formula(rng):
    # The integer residual (q X - p E) / (L (q - p)) against
    # (x - lambda e) / (1 - lambda) in Fractions, and the binding against
    # the tight sets of the walk over that Fraction residual, signed by it.
    # At lambda = 1 the residual is 0 with no binding.
    kinds = {"zero": 0, "inner": 0, "one": 0, "far": 0}
    for x, e in _residual_pairs(rng):
        result = lambda_pair(x, e)
        lam, window = result.lam, max(x.max_index, e.max_index)
        if lam == 1:
            assert (x, result.residual, result.binding) == (e, Vector.zero(), [])
            kinds["one"] += 1
            continue
        residual = (x - lam * e) / (1 - lam)
        expected = [
            SignedConstraint(F, tuple(1 if residual[i] > 0 else -1 for i in F))
            for F in _pruned_walk(residual)[1]
        ]
        assert result.residual == residual and result.residual.items() == residual.items()
        assert result.binding == expected
        kinds["zero" if lam == 0 else "inner"] += 1
        kinds["far"] += window > 12
    assert min(kinds.values()) >= 40, kinds


def test_lambda_pair_binding_list_is_short_where_the_window_list_is_long():
    # A unit x on four indices of [1, 24] against the extreme point e_1 + e_14:
    # the residual has 17,712 tight sets in the window [1, 24], all but two
    # of them holding zeros, and the binding list is those two, the
    # brute-force list over the admissible subsets of its support.
    x = Vector({2: Fraction(9, 25), 14: Fraction(4, 25), 15: Fraction(9, 25), 24: Fraction(12, 25)})
    result = lambda_pair(x, E1 + Vector.unit(14))
    v = result.residual
    assert result.lam == Fraction(4, 25)
    assert v == Vector({1: Fraction(-4, 21), 2: Fraction(3, 7), 15: Fraction(3, 7), 24: Fraction(4, 7)})
    brute = [
        SignedConstraint(F, tuple(1 if v[i] > 0 else -1 for i in F))
        for r in range(1, len(v) + 1)
        for F in combinations(v.support, r)
        if is_admissible(F, 1) and sum(abs(v[i]) for i in F) == 1
    ]
    assert result.binding == sorted(brute, key=lambda c: c.indices)
    assert [c.indices for c in result.binding] == [(2, 24), (15, 24)]
    scale, sums = admissible_sums(v, enumerate_admissible(1, 24))
    assert sum(total == scale for _, total in sums) == 17712


def test_lambda_pair_rejects_a_lambda_just_above_the_line(rng, monkeypatch):
    # The residual is built from x and e, not from the line, so a line that
    # answers 2^-20 above the true weight leaves a residual of norm above 1,
    # and the walk's root bounds refuse it.
    pairs = [(x, e) for x, e in _residual_pairs(rng)[::8] if lambda_pair(x, e).lam < 1]
    assert len(pairs) >= 60

    def too_high(x, e, solve, **kwargs):
        lam, binding = max_feasible_weight(x, e, solve, **kwargs)
        return lam + Fraction(1, 2**20), binding

    monkeypatch.setattr(lambdas_mod, "max_feasible_weight", too_high)
    for x, e in pairs:
        with pytest.raises(RuntimeError, match="lambda verification failed"):
            lambda_pair(x, e)
