"""Exact lambda computations: per-pair maxima, window lower bounds, and the
decay-bound verifier for the theorem-1 construction.

The feasibility function h(t) = ||x - t e|| + t - 1 is convex piecewise
linear, so the largest feasible weight is found by Newton steps from the
right: each step evaluates the norm, takes the achieved admissible signed
sum as a global affine minorant, and jumps to that piece's root.  For the
primal norm the steps run on integers along the line x - t e: x and e are
cleared once per pair and the order-1 greedy runs on q L (x - t e).  Every
answer is re-verified against the norm oracle and comes with the binding
constraint whose positive slope certifies infeasibility above the answer.
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
    certify_extreme,
    positive_extreme_points,
)
from .families import IndexSet, index_set, is_admissible
from .linalg import cleared
from .vectors import (
    Vector,
    _greedy,
    _one_sets,
    _tight_sets,
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


def max_feasible_weight(x: Vector, e: Vector, oracle) -> tuple[Fraction, Vector | None]:
    """Largest t in [0, 1] with oracle-norm(x - t e) <= 1 - t.

    oracle(t) returns (value, g, a, b): value is the norm of x - t e, g a
    functional with <g, x - t e> = value and <g, u> <= oracle-norm(u) for
    every u, a = <g, x> and b = <g, e>.  Also returns the binding
    functional certifying that no larger t is feasible (None when t = 1).
    """
    if x == e:
        return Fraction(1), None
    lam = Fraction(1)
    binding = None
    while True:
        value, g, a, b = oracle(lam)
        if value <= 1 - lam:
            if value != 1 - lam and binding is not None:
                raise RuntimeError(f"oracle value {value} is below its own minorant {1 - lam}")
            return lam, binding
        if b >= 1:
            raise RuntimeError("a violated piece must have positive slope")
        new_lam = (1 - a) / (1 - b)
        if new_lam >= lam:
            raise RuntimeError(f"Newton step from {lam} did not decrease lambda")
        lam = new_lam
        binding = g


def _primal_line(x: Vector, e: Vector):
    """The order-1 norm along x - t e, as an oracle(t) for max_feasible_weight.

    x and e are cleared once over one LCM L.  At t = p/q the greedy runs on
    the integers q L (x - t e), a positive rescaling of |x - t e|, so value
    and witness are those of norm(x - t e); a and b are integer sums over L.
    """
    indices = sorted(set(x.support) | set(e.support))
    values, scale = cleared([x[i] for i in indices] + [e[i] for i in indices])
    cx = dict(zip(indices, values))
    ce = dict(zip(indices, values[len(indices):]))

    def oracle(t: Fraction) -> tuple[Fraction, Vector, Fraction, Fraction]:
        p, q = t.numerator, t.denominator
        line = {i: q * cx[i] - p * ce[i] for i in indices}
        value, witness = _greedy({i: abs(v) for i, v in line.items() if v})
        signs = {i: 1 if line[i] > 0 else -1 for i in witness}
        a = sum(s * cx[i] for i, s in signs.items())
        b = sum(s * ce[i] for i, s in signs.items())
        return Fraction(value, q * scale), Vector(signs), Fraction(a, scale), Fraction(b, scale)

    return oracle


def lambda_pair(x: Vector, e: Vector) -> LambdaResult:
    """Exact maximum lambda with ||x - lambda e|| <= 1 - lambda."""
    nx = norm(x, 1).value
    if nx > 1:
        raise UnitNormRequired(f"lambda_pair needs ||x|| <= 1; got {nx}")
    ne = norm(e, 1).value
    if ne != 1:
        raise UnitNormRequired(f"lambda_pair needs ||e|| = 1; got {ne}")
    lam, _ = max_feasible_weight(x, e, _primal_line(x, e))
    if lam == 1:
        return LambdaResult(lam, e, Vector.zero(), [])
    v = x - lam * e
    check = norm(v, 1).value
    if check > 1 - lam:
        raise RuntimeError(f"lambda verification failed: ||x-le|| = {check} > {1 - lam}")
    residual = v / (1 - lam)
    # v sums to 1 - lam over F exactly when the residual sums to 1 over F.
    # Signs follow v; a zero of v gets +1.
    window = max(x.max_index, e.max_index, 1)
    sign = {i: 1 if q > 0 else -1 for i, q in residual.items()}
    binding = [
        SignedConstraint(F, tuple(sign.get(i, 1) for i in F))
        for F in _tight_sets(residual, window)
    ]
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


def _on_face(pool: list[Vector], sets: list[IndexSet]) -> list[Vector]:
    """The members e of the pool with e(F) = 1 for every F in sets, in order.

    Face lemma: let x >= 0 and e >= 0 with ||x|| <= 1 = ||e||, and let F be
    a 1-set of x.  If lambda(x, e) > 0 then e(F) = 1.  At lambda = 1,
    ||x - e|| <= 0 gives e = x.  At 0 < lambda < 1, y = (x - lambda e) /
    (1 - lambda) has ||y|| <= 1, and 1 = x(F) = lambda e(F) + (1 - lambda) y(F)
    with e(F) <= ||e|| = 1 and y(F) <= ||y|| <= 1, F being admissible; so
    both sums are 1.  A point off the face therefore has weight exactly 0,
    and dropping it changes neither the best weight nor the set of points
    with positive weight.
    """
    return [e for e in pool if all(sum(map(e.__getitem__, F)) == 1 for F in sets)]


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
    1-sets; past the support cutoff the 1-sets are not listed and every
    point is solved.
    """
    nx = norm(x, 1).value
    if nx > 1:
        raise UnitNormRequired(f"lambda_lower needs ||x|| <= 1; got {nx}")
    pool = positive_extreme_points(window)
    if not pool:
        raise ValueError(f"no extreme points with support inside [1, {window}]")
    ax = abs(x)
    sets = _one_sets(ax) if nx == 1 and len(ax) <= cutoffs.admissible_enum_limit(1) else []
    best_lam, best_e = Fraction(0), pool[0]
    for e in _on_face(pool, sets):
        lam, _ = max_feasible_weight(ax, e, _primal_line(ax, e))
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
    _on_face), which neither raises the maximum nor breaks a claim.
    """
    if window is None:
        window = 2 * n + 2
    x = make_thm1_vector(n)
    if window < 2 * n + 2:
        raise ValueError(f"window must reach the last coordinate {2 * n + 2}")
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
    for e in _on_face(pool, sets):
        lam, _ = max_feasible_weight(x, e, _primal_line(x, e))
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
