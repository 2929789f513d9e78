"""Exact lambda computations: per-pair maxima, window lower bounds, and the
decay-bound verifier for the theorem-1 construction.

The feasibility function h(t) = ||x - t e|| + t - 1 is convex piecewise
linear, so ``max_feasible_weight`` finds the largest feasible weight by
Newton steps from the right, starting at the root of the minorant that the
norming functional of x gives.  It is the one integer Newton line of the
primal and the dual pair lambda, on the supports of the pair; a norm
supplies only its norming functional on the line's nonzero integer moduli,
keyed by index, here the order-1 greedy (``_primal_solve``), in ``dual``
the section tableau, which writes them on its ground.  Every answer is
re-verified against the norm and comes with the binding constraint whose
positive slope certifies infeasibility above the answer.
"""

from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from types import MappingProxyType

from . import cutoffs
from .errors import UnitNormRequired
from .extreme import (
    EXTREME,
    SignedConstraint,
    _check_extreme_cutoff,
    _positive_pool,
    certify_extreme,
    positive_extreme_points,
)
from .families import IndexSet, index_set, is_admissible
from .linalg import cleared
from .vectors import (
    Vector,
    _greedy,
    _one_sets,
    _pruned_walk,
    covered_by,
    make_thm1_vector,
    norm,
    one_sets,
)


@dataclass
class LambdaResult:
    lam: Fraction
    extreme: Vector
    residual: Vector
    binding: list[SignedConstraint] = field(default_factory=list)


def _cleared_pair(x: Vector, e: Vector) -> tuple[list[int], list[int], list[int], int]:
    """(S, X, E, L): S = supp x | supp e in increasing order, and x and e on
    S cleared over one LCM L, x_i = X_k / L and e_i = E_k / L at i = S[k]."""
    support = sorted({*x.support, *e.support})
    values, L = cleared([v[i] for v in (x, e) for i in support])
    return support, values[:len(support)], values[len(support):], L


def max_feasible_weight(x: Vector, e: Vector, solve, *,
                        _pair=None) -> tuple[Fraction, Vector | None]:
    """Largest t in [0, 1] with ||x - t e|| <= 1 - t, in the norm that solve norms.

    One integer Newton line for both norms.  The line lives on
    S = supp x | supp e: a common zero of x and e is a zero of every point
    of the line and adds nothing to any admissible sum.  x and e are
    cleared once on S over one LCM L, and at t = p/q solve(sizes) gets the
    nonzero moduli of q L x - p L e as {index: modulus}.  It returns their
    norming functional as ({index: num}, d), num >= 0 and d > 0, where an
    index it leaves out has num 0: <num, sizes> / d is the norm of the
    sizes and <num, u> / d <= ||u|| for all u.  Both norms are
    sign-invariant, so g = s num / d, s the sign of the line (+1 at a
    zero), norms x - t e inside the dual ball.  a = <g, x> and b = <g, e>
    are integer sums over d L, read in one pass over num (an index off S
    adds nothing to either), and t is feasible when
    q a - p b <= d L (q - p).  Else a - t b + t - 1 is an affine minorant of
    h(t) = ||x - t e|| + t - 1, and its root (d L - a) / (d L - b) is the
    next t.  The root lies in [0, t): the minorant is positive at t and at
    most h(0) <= 0 at 0.

    The line starts at the root of its t = 0 minorant, not at 1.  The solve
    at t = 0 norms x, so ||x|| = a / d L, and a > d L raises
    UnitNormRequired.  Its g gives the minorant
    m(t) = t (1 - b / d L) - (1 - a / d L) <= h(t), which is 0 at
    t0 = (d L - a) / (d L - b) >= 0.  When b < d L its slope is positive, so
    h > 0 above t0 and lambda <= t0; when also t0 < 1, that is b < a, the
    line starts at t0 with g as its binding, else at 1 with none.  As for
    every root, m(lambda) <= h(lambda) <= 0 puts t0 at or above lambda, and
    convexity takes the steps down to lambda as from 1.  At t0 = 0 the
    answer is 0 with no second solve, since then a = d L and h(0) = 0.  So
    a unit x answers 0 in one solve whenever its g has <g, e> < 1.

    Also returns the binding g of the last step, which certifies that no
    larger t is feasible (None when t = 1).  x = e needs no special case:
    then a = b, so t0 = 1 or b = d L, the line starts at 1, where it is
    zero, and the first step returns (1, None).

    ``lambda_pair``, which needs the clearing too, passes its own
    ``_cleared_pair(x, e)`` as ``_pair``, so the pair is cleared once.
    """
    support, xs, es, L = _cleared_pair(x, e) if _pair is None else _pair
    cx, ce = dict(zip(support, xs)), dict(zip(support, es))

    def step(p: int, q: int) -> tuple[dict[int, int], int, int, int, int]:
        line = {i: q * cx[i] - p * ce[i] for i in support}
        num, d = solve({i: abs(w) for i, w in line.items() if w})
        signed, a, b = {}, 0, 0
        for i, n in num.items():
            if i in line:
                if line[i] < 0:
                    n = -n
                a += n * cx[i]
                b += n * ce[i]
            signed[i] = n
        return signed, d, d * L, a, b

    def functional(bound: tuple[dict[int, int], int] | None) -> Vector | None:
        if bound is None:
            return None
        signed, d = bound
        return Vector({i: Fraction(s, d) for i, s in signed.items()})

    signed, d, dL, a, b = step(0, 1)
    if a > dL:
        raise UnitNormRequired(f"a pair lambda needs ||x|| <= 1; got {Fraction(a, dL)}")
    # The binding stays (signed, d) until the return, which builds its one
    # Vector: most callers drop it.
    lam, bound = Fraction(1), None
    if b < a and b < dL:  # t0 = (dL - a) / (dL - b) < 1
        lam, bound = Fraction(dL - a, dL - b), (signed, d)
        if lam == 0:
            return lam, functional(bound)
    while True:
        p, q = lam.numerator, lam.denominator
        signed, d, dL, a, b = step(p, q)
        slack = dL * (q - p) - (q * a - p * b)
        if slack >= 0:
            if slack and bound is not None:
                value = Fraction(q * a - p * b, dL * q)
                raise RuntimeError(f"norm {value} is below its own minorant {1 - lam}")
            return lam, functional(bound)
        if b >= dL:
            raise RuntimeError("a violated piece must have positive slope")
        new_lam = Fraction(dL - a, dL - b)
        if not 0 <= new_lam < lam:
            raise RuntimeError(f"Newton step to {new_lam} did not decrease within [0, {lam})")
        lam, bound = new_lam, (signed, d)


def _primal_solve(sizes: dict[int, int]) -> tuple[dict[int, int], int]:
    """The order-1 norming functional of the nonzero sizes {i: modulus}: the
    greedy witness's indicator, over 1."""
    return dict.fromkeys(_greedy(sizes)[1], 1), 1


def lambda_pair(x: Vector, e: Vector) -> LambdaResult:
    """Exact maximum lambda with ||x - lambda e|| <= 1 - lambda.

    The Newton line runs on supp x | supp e, but the binding sets are
    walked over the window [1, N] with its zeros, N the largest index of x
    and e, so N is checked against the order-1 cutoff before anything else.

    x and e are cleared once, on S = supp x | supp e over one LCM L
    (``_cleared_pair``): x_i = X_i / L and e_i = E_i / L.  ||e|| = 1 is
    checked next, on that clearing: the greedy value of |E| is L ||e||, a
    positive rescaling keeping the greedy's ranking, so e is a unit vector
    exactly when it is L.  The line (which then checks ||x|| <= 1) runs on
    the same clearing, and so does the residual
    (x - lambda e) / (1 - lambda): with lambda = p / q its coordinate i is
    (q X_i - p E_i) / (L (q - p)).  It comes from x and e themselves, not
    from the line, so a wrong lambda still fails the walk's norm check.
    The walk's tight sets are lexicographic tuples of distinct indices,
    signed here one sign of +1 or -1 per index, so the binding sets are
    built unchecked (``SignedConstraint._of``).
    """
    window = max(x.max_index, e.max_index)
    cutoffs.check("lambda_pair window", window, cutoffs.admissible_enum_limit(1))
    pair = support, xs, es, L = _cleared_pair(x, e)
    value = _greedy({i: abs(b) for i, b in zip(support, es) if b})[0]
    if value != L:
        raise UnitNormRequired(f"lambda_pair e needs a unit vector; got norm {Fraction(value, L)}")
    lam, _ = max_feasible_weight(x, e, _primal_solve, _pair=pair)
    if lam == 1:
        return LambdaResult(lam, e, Vector.zero(), [])
    p, q = lam.numerator, lam.denominator
    den = L * (q - p)
    coords = []
    for i, a, b in zip(support, xs, es):
        w = q * a - p * b
        if w:
            coords.append((i, Fraction(w, den)))
    residual = Vector._of(coords)
    # ||x - lam e|| <= 1 - lam exactly when ||residual|| <= 1, which the
    # walk checks from its root bounds before it lists a set.  v = x - lam e
    # sums to 1 - lam over F exactly when the residual sums to 1 over F.
    try:
        tight = _pruned_walk(residual, range(1, window + 1))[1]
    except UnitNormRequired as err:
        raise RuntimeError(f"lambda verification failed at lambda = {lam}: {err}") from err
    # Signs follow v; a zero of v gets +1.
    negative = {i for i, q in residual.items() if q < 0}
    binding = [SignedConstraint._of(F, tuple(-1 if i in negative else 1 for i in F))
               for F in tight]
    return LambdaResult(lam, e, residual, binding)


def gap_bound(x: Vector, e: Vector, F: IndexSet) -> Fraction:
    """Upper bound g/h on lambda from a single admissible set F.

    Needs both |x| and e to fall short of 1 on F and e nonnegative; any
    decomposition of x over e whose residual is nonnegative on F then has
    lambda at most g/h.
    """
    F = index_set(F)
    if not is_admissible(F, 1):
        raise ValueError(f"set {F} is not admissible")
    if not e.is_nonnegative():
        raise ValueError("gap_bound needs a nonnegative extreme candidate")
    g = 1 - sum((abs(x[i]) for i in F), Fraction(0))
    h = 1 - sum((e[i] for i in F), Fraction(0))
    if g <= 0:
        raise ValueError(f"sum of |x| over F must stay below 1 (gap {g})")
    if h <= 0:
        raise ValueError(f"sum of e over F must stay below 1 (gap {h})")
    return g / h


def _on_face(N: int, sets: list[IndexSet]) -> list[Vector]:
    """The points e of the window-N positive pool with e(F) = 1 for every F in sets.

    The test runs on the pool's integer rows (extreme._positive_pool): e(F)
    = 1 exactly when the numerators of e over D sum to D on F.  The pool
    lives in [1, N], so an index of F past N counts as 0; a 1-set of x may
    reach past the window.  The points come in pool order.

    Face lemma: let x >= 0 and e >= 0 with ||x|| <= 1 = ||e||, and let F be
    a 1-set of x.  If lambda(x, e) > 0 then e(F) = 1.  At lambda = 1,
    ||x - e|| <= 0 gives e = x.  At 0 < lambda < 1, y = (x - lambda e) /
    (1 - lambda) has ||y|| <= 1, and 1 = x(F) = lambda e(F) + (1 - lambda) y(F)
    with e(F) <= ||e|| = 1 and y(F) <= ||y|| <= 1, F being admissible; so
    both sums are 1.  A point off the face therefore has weight exactly 0,
    and dropping it changes neither the best weight nor the set of points
    with positive weight.
    """
    points, rows, D = _positive_pool(N)
    positions = [[i - 1 for i in F if i <= N] for F in sets]
    return [
        e for e, row in zip(points, rows)
        if all(sum(map(row.__getitem__, P)) == D for P in positions)
    ]


def lambda_lower(x: Vector, window: int) -> tuple[Fraction, Vector]:
    """Best weight of x over the extreme points with support in [1, window].

    |x_i - t e_i| >= ||x_i| - t |e_i|| and the norm is a lattice norm, so
    lambda(x, e) <= lambda(|x|, |e|); sign flips are isometries that keep
    extreme points extreme, so lambda(x, s |e|) = lambda(|x|, |e|) for
    s = sign x (+1 where x is zero).  The scan therefore runs on |x| over the
    positive pool and returns s e for its first achiever e in canonical order.

    Only the pool points on the face of the 1-sets of |x| are solved (see
    _on_face); the rest weigh 0, so with a best weight of 0 the first
    achiever is the first pool point.  A vector with ||x|| < 1 has no
    1-sets.  Past the support cutoff the 1-sets are not listed, and the
    norm's witness, itself a 1-set of |x|, is the only face set; the face
    lemma holds for each 1-set alone, so every achiever stays.  Each line
    runs on supp x | supp e, so an index of x far past the window costs no
    more than a near one.
    """
    report = norm(x, 1)
    nx = report.value
    if nx > 1:
        raise UnitNormRequired(f"lambda_lower needs ||x|| <= 1; got {nx}")
    pool = positive_extreme_points(window)
    if not pool:
        raise ValueError(f"no extreme points with support inside [1, {window}]")
    ax = abs(x)
    sets = []
    if nx == 1:
        sets = _one_sets(ax) if len(ax) <= cutoffs.admissible_enum_limit(1) else [report.witness]
    best_lam, best_e = Fraction(0), pool[0]
    for e in _on_face(window, sets):
        lam, _ = max_feasible_weight(ax, e, _primal_solve)
        if lam > best_lam:
            best_lam, best_e = lam, e
    return best_lam, best_e.flip_signs(i for i, q in x.items() if q < 0)


@dataclass(frozen=True)
class Thm1Report:
    n: int
    window: int
    bound: Fraction
    norm_ok: bool
    one_sets_ok: bool
    covers_ok: bool
    not_extreme_ok: bool
    claims: Mapping[str, bool]
    pool_size: int
    max_pair_lambda: Fraction
    pool_bound_ok: bool
    gap_bound_value: Fraction
    gap_bound_ok: bool
    alpha_candidate_in_pool: bool
    violations: tuple[tuple[Vector, Fraction], ...] = ()

    @property
    def passed(self) -> bool:
        return (
            self.norm_ok
            and self.one_sets_ok
            and self.covers_ok
            and self.not_extreme_ok
            and all(self.claims.values())
            and self.pool_bound_ok
            and self.gap_bound_ok
        )


def expected_one_sets(n: int) -> list[IndexSet]:
    """The 1-set inventory of the order-n construction."""
    D = tuple(range(n + 2, 2 * n + 2))
    sets = [(1,), (2, 3), tuple(range(n + 2, 2 * n + 3))]
    sets += [(3, i, j) for k, i in enumerate(D) for j in D[k + 1 :]]
    return sorted(index_set(F) for F in sets)


def alpha_pattern_vector(n: int) -> Vector:
    """The constant-tail extreme candidate with value 1/(n+1) past index 3."""
    alpha = Fraction(1, n + 1)
    coords = {1: Fraction(1), 2: 2 * alpha, 3: 1 - 2 * alpha}
    for i in range(4, 2 * n + 3):
        coords[i] = alpha
    return Vector(coords)


def verify_thm1(n: int, window: int | None = None) -> Thm1Report:
    """Run every check of the decay-bound pipeline at order n.

    Builds the construction, checks its norm, 1-set inventory and
    non-extremality, then evaluates the exact pair lambda against the
    (n+1)/n^2 bound for every nonnegative extreme point in the window on
    the face of the 1-sets of x_n; every other point has lambda = 0 (see
    _on_face), which neither raises the maximum nor breaks a claim.  The
    window and the pool cutoff are checked before anything is built.
    """
    if window is None:
        window = 2 * n + 2
    if window < 2 * n + 2:
        raise ValueError(f"window must reach the last coordinate {2 * n + 2}")
    _check_extreme_cutoff(window)
    x = make_thm1_vector(n)
    bound = Fraction(n + 1, n * n)
    D = tuple(range(n + 2, 2 * n + 2))
    E = tuple(range(4, n + 1))

    norm_ok = norm(x, 1).value == 1
    sets = one_sets(x)
    one_sets_ok = sets == expected_one_sets(n)
    covers_ok = not covered_by(sets, 4)
    not_extreme_ok = certify_extreme(x).verdict != EXTREME

    pool = positive_extreme_points(window)
    claims = {"i": True, "ii": True, "iii": True, "iv": True}
    violations: list[tuple[Vector, Fraction]] = []
    max_lam = Fraction(0)
    for e in _on_face(window, sets):
        lam, _ = max_feasible_weight(x, e, _primal_solve)
        if lam > max_lam:
            max_lam = lam
        if lam > bound:
            violations.append((e, lam))
        if lam == 0:
            continue
        if e.max_index > 2 * n + 2:
            claims["i"] = False
        alpha = e[n + 2]
        constant = alpha > 0 and all(e[i] == alpha for i in D + E)
        if not constant:
            claims["ii"] = False
            claims["iii"] = False
            continue
        if not (e[3] > e[2] > alpha >= e[2 * n + 2] and e[n + 1] == e[2 * n + 2]):
            claims["iii"] = False
        if e[2 * n + 2] == alpha and lam > bound:
            claims["iv"] = False

    e_alpha = alpha_pattern_vector(n)
    gap_value = gap_bound(x, e_alpha, D)
    return Thm1Report(
        n=n,
        window=window,
        bound=bound,
        norm_ok=norm_ok,
        one_sets_ok=one_sets_ok,
        covers_ok=covers_ok,
        not_extreme_ok=not_extreme_ok,
        claims=MappingProxyType(claims),
        pool_size=len(pool),
        max_pair_lambda=max_lam,
        pool_bound_ok=not violations,
        gap_bound_value=gap_value,
        gap_bound_ok=gap_value == bound,
        alpha_candidate_in_pool=e_alpha in pool,
        violations=tuple(violations),
    )
