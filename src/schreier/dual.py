"""The dual norm, dual extreme points, and the dual decay-bound verifier.

The dual norm is the maximum of the pairing over the primal section ball,
computed by an exact-rational LP with lazy constraints: the separation
oracle is the primal norm greedy applied to the incumbent, read on the
tableau's integers.  A dual pair lambda runs the one integer Newton line
of ``lambdas.max_feasible_weight``; its norming functional comes from one
live tableau (``_dual_solve``), re-priced for each x* - t e* and keeping
its cuts, and its answer is checked by weak duality against the LP dual
that the tableau's final basis carries, one value per admissible row
(``_check_dual_bound``), with no second solve.  A tableau serves one pair,
or all ten spot checks of ``verify_thm2``, whose cuts stay valid from one
pair to the next.  Dual extreme points have the closed form "all
coefficients of modulus one on a set F with |F| = min F".  The decay bound
of a trace of F is its pairing with the dyadic witness, so its maximum and
the number of full-length traces have closed forms, and ``verify_thm2``
enumerates no traces.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import comb

from . import cutoffs
from .families import IndexSet, admissible_subsets, index_set, is_admissible
from .lambdas import max_feasible_weight
from .linalg import cleared
from .simplex import _Tableau, lp_max
from .vectors import Vector, _greedy, norm


def _indicator(F: IndexSet, N: int) -> list[int]:
    row = [0] * N
    for i in F:
        row[i - 1] = 1
    return row


def _section_cuts(N: int):
    """The row sets of [1, N] in tableau order, and the separation oracle.

    ``sets`` starts as the singletons, the rows a tableau starts with, and
    the oracle appends each cut it returns, so it lists the rows in the
    order the tableau holds them.  The oracle reads the optimum on the
    tableau's integers, x = num / d with num >= 0, and runs the order-1
    greedy on num: x is a positive rescaling of num, which keeps the
    greedy's ranking, ties and witness, so the cut is the witness of
    norm(x), and norm(x) <= 1 exactly when the greedy value of num is at
    most d.  A repeated F means the LP returned an optimum that breaks one
    of its own rows.

    Raises before any row exists when N is over the dual window cutoff:
    every tableau on [1, N] starts with N rows of N integers.
    """
    cutoffs.check("dual norm window", N, cutoffs.dual_window_limit())
    sets: list[IndexSet] = [(i,) for i in range(1, N + 1)]
    seen = set(sets)

    def separate(num: list[int], d: int):
        value, witness = _greedy({i + 1: v for i, v in enumerate(num) if v})
        if value <= d:
            return None
        if witness in seen:
            raise RuntimeError("separation oracle repeated a constraint")
        seen.add(witness)
        sets.append(witness)
        return _indicator(witness, N), 1

    return sets, separate


def dual_norm_witness(f: Vector) -> tuple[Fraction, Vector]:
    """Exact dual norm together with a norming vector from the primal ball.

    The zero functional needs no special case: on [1, 0] the LP has no
    columns, so lp_max returns 0 and the witness is empty.
    """
    N = f.max_index
    # The ball is sign-symmetric, so the optimum is attained at x >= 0 against
    # |f|; constraints start at the singletons and grow lazily on one live
    # tableau, each cut being the admissible set the norm greedy finds.
    sets, separate = _section_cuts(N)
    rows = [_indicator(F, N) for F in sets]
    value, xs = lp_max([abs(f[i]) for i in range(1, N + 1)], rows, [1] * N, cut=separate)
    return value, Vector({i: q if f[i] >= 0 else -q for i, q in enumerate(xs, 1)})


def _dual_solve(N: int):
    """The dual norm on [1, N] as a solve(sizes) for max_feasible_weight,
    and the certificate that the tableau's last basis carries.

    One tableau over [1, N] lives for the whole line: each call re-prices it
    with the integer objective sizes, re-optimises from the last basis
    keeping the cuts found so far, and returns the optimum x = num / d on
    the tableau's integers.  This is exact.  Every cut is x(F) <= 1 for an
    admissible F in [1, N], valid for the section polytope P_N whatever the
    objective, and the cut loop stops only at a point of P_N, so each value
    is the maximum over P_N.  Padding the objective with zeros up to N keeps
    the value of a shorter functional, since the family is hereditary and
    P_N projects onto P_N' for N' < N.  A positive multiple of the
    objective takes the same pivots under Bland's rule and meets the same
    optima and cuts.  So the tableau can also live across pairs on [1, N],
    as it does for the ten spot checks of ``verify_thm2``: whatever pairs
    came before, the cuts it carries are valid for P_N and each value is
    still the maximum over P_N, so no answer depends on earlier calls.  An objective of another length than N raises ValueError
    (``_Tableau``).

    certificate(f) returns (sets, duals, D): the row sets in tableau order
    and their dual values duals / D for the objective |f| in the current
    basis (``_Tableau.row_duals``), without a pivot.  When the last solve
    was at a positive multiple of |f|, that basis is optimal for |f| too,
    so the duals are an optimal LP dual: strong duality makes their sum the
    dual norm of f, and the nonnegative structural reduced costs are the
    covering that ``_check_dual_bound`` checks.
    """
    sets, separate = _section_cuts(N)
    tab = _Tableau(N)
    for F in sets:
        tab.add_row(_indicator(F, N), 1)

    def solve(sizes: list[int]) -> tuple[list[int], int]:
        return tab.optimize(sizes, separate), tab.d

    def certificate(f: Vector) -> tuple[list[IndexSet], list[int], int]:
        duals, D = tab.row_duals([abs(f[i]) for i in range(1, N + 1)])
        return sets, duals, D

    return solve, certificate


def _check_dual_bound(f: Vector, bound: Fraction, sets: list[IndexSet], duals: list[int],
                      D: int) -> None:
    """Raise unless y_F = duals / D on the row sets proves dual_norm(f) <= bound.

    The weak-duality check of ``lambda_pair_dual``, on integers: every F is
    admissible, D > 0, every dual is >= 0, and with |f_i| = v_i / M cleared
    over the LCM M, M * sum_{F ni i} duals_F >= D * v_i for every i in
    supp f and sum duals <= D * bound.
    """
    fail = "dual lambda verification failed"
    if D <= 0:
        raise RuntimeError(f"{fail}: dual denominator {D} is not positive")
    cover: dict[int, int] = {}
    for F, y in zip(sets, duals, strict=True):
        if not is_admissible(F, 1):
            raise RuntimeError(f"{fail}: row {F} is not admissible")
        if y < 0:
            raise RuntimeError(f"{fail}: row {F} has dual value {Fraction(y, D)} < 0")
        for i in F:
            cover[i] = cover.get(i, 0) + y
    items = list(f.items())
    moduli, M = cleared([abs(q) for _, q in items])
    for (i, q), v in zip(items, moduli):
        c = cover.get(i, 0)
        if M * c < D * v:
            raise RuntimeError(f"{fail}: the rows cover index {i} by {Fraction(c, D)} < {abs(q)}")
    total = sum(duals)
    if total * bound.denominator > D * bound.numerator:
        raise RuntimeError(f"{fail}: {Fraction(total, D)} > {bound}")


def dual_norm(f: Vector) -> Fraction:
    return dual_norm_witness(f)[0]


def is_dual_extreme(f: Vector) -> bool:
    """Closed-form test: every coordinate is +-1 and |supp f| = min supp f."""
    if not f:
        return False
    if any(abs(q) != 1 for _, q in f.items()):
        return False
    support = f.support
    return len(support) == support[0]


def make_thm2_functional(n: int) -> Vector:
    """Averaged block functional: 1/n on every index below 2^n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return Vector({i: Fraction(1, n) for i in range(1, 2**n)})


def make_thm2_witness(n: int) -> Vector:
    """Unit vector pairing to 1: 1/2^(k-1) on the dyadic block [2^(k-1), 2^k)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    coords = {}
    for k in range(1, n + 1):
        for i in range(2 ** (k - 1), 2**k):
            coords[i] = Fraction(1, 2 ** (k - 1))
    return Vector(coords)


def thm2_lambda_bound(G: IndexSet, n: int) -> Fraction:
    """Exact decay bound <1_G, w> / n for a trace G of a dual extreme support.

    w = make_thm2_witness(n) is 2^(1-k) on the dyadic block
    B_k = [2^(k-1), 2^k - 1], so <1_G, w> = sum over i in G of
    2^(n - k_i) / 2^(n-1) with k_i the bit length of i.  Any dual extreme
    point whose support meets [1, 2^n - 1] in G admits no decomposition
    weight above the returned value.  It is the bound 1 - T(G)/n with
    T(G) = sum_k |B_k minus G| / 2^(k-1): since |B_k| = 2^(k-1), each block
    adds 1 - |B_k meet G| / 2^(k-1) to T, so T(G) = n - <1_G, w>.  The
    pairing is never negative, and never above 1/n (see verify_thm2).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    G = index_set(G)
    if G and (G[-1] > 2**n - 1 or len(G) > G[0]):
        raise ValueError(
            f"{G} is not a trace of a legal dual support inside [1, {2 ** n - 1}]"
        )
    return Fraction(sum(1 << (n - i.bit_length()) for i in G), n << (n - 1))


def lambda_pair_dual(x_star: Vector, e_star: Vector, *, _line=None) -> Fraction:
    """Exact maximum lambda with dual-norm(x* - lambda e*) <= 1 - lambda.

    e* is checked before any LP is built.  The Newton line
    (``max_feasible_weight``) checks the dual norm of x* at t = 0, starts at
    the root of that functional's minorant, and solves on one live tableau
    (``_dual_solve``), whose last solve is at the answer.  ``verify_thm2``
    passes its own ``_dual_solve(N)`` as ``_line`` to share one tableau
    between its spot checks; N must be the largest index of the pair, else
    the first solve raises ValueError.  The
    answer is then checked by weak duality against the LP dual of that
    final basis, with no second LP.  Let f = x* - lambda e*, let every row
    set F be admissible with y_F >= 0, and let sum_{F ni i} y_F >= |f_i|
    for every i.  Then every x in the ball, |x|(F) <= 1 on each F, has

        <f, x> <= sum_i |f_i| |x_i| <= sum_F y_F |x|(F) <= sum_F y_F,

    so sum_F y_F <= 1 - lambda proves dual-norm(f) <= 1 - lambda.  f is
    rebuilt from the Vectors, not from the line's moduli, so a stale basis
    or a wrong line fails the check (``_check_dual_bound``) and raises.
    At lambda = 1 the check needs no guard: x* = e*, so f = 0, every dual is
    0 and the sum 0 meets the bound 0.
    """
    if not is_dual_extreme(e_star):
        raise ValueError("e* must be a dual extreme point")
    N = max(x_star.max_index, e_star.max_index)
    solve, certificate = _dual_solve(N) if _line is None else _line
    lam, _ = max_feasible_weight(x_star, e_star, solve)
    f = x_star - lam * e_star
    _check_dual_bound(f, 1 - lam, *certificate(f))
    return lam


@dataclass(frozen=True)
class Thm2Report:
    n: int
    window: int
    candidate_count: int
    max_bound: Fraction
    bound_target: Fraction
    zero_trace_bound: Fraction
    unit_checks_ok: bool
    spot_checks: tuple[tuple[IndexSet, Fraction, Fraction], ...] = ()

    @property
    def bounds_ok(self) -> bool:
        return self.max_bound < self.bound_target

    @property
    def spot_checks_ok(self) -> bool:
        return all(lam <= bound for _, lam, bound in self.spot_checks)

    @property
    def passed(self) -> bool:
        return (
            self.unit_checks_ok
            and self.bounds_ok
            and self.spot_checks_ok
            and self.zero_trace_bound == 0
        )


def verify_thm2(n: int, window: int | None = None) -> Thm2Report:
    """Evaluate the dual decay bound over every realizable trace at order n.

    Checks the averaged functional sits on the dual sphere, takes the
    largest bound and the number of full-length traces (|G| = min G) in
    closed form, records the empty-trace branch, and spot-checks the first
    ten traces, drawn lazily, with exact pair computations on one shared
    ``_dual_solve(N)`` tableau (see there why that is exact).

    The largest bound is 1/n, at G = {1}.  Every admissible G has
    ||1_G||* <= 1, since <1_G, x> <= |x|(G) <= ||x||, and unit_ok checks
    ||w|| = 1, so <1_G, w> <= 1 = w_1 for every admissible trace, not
    only the full-length ones.  A full-length trace with min G = m is
    {m} with m - 1 of the N - m indices in [m + 1, N], N = 2^n - 1, so
    there are C(N - m, m - 1) of them; summed over m that is the Fibonacci
    number F_N.  The trace window [1, 2^n - 1] meets its cutoff before
    anything is built.
    """
    cutoffs.check_thm2_window(n)
    N = 2**n - 1
    if window is None:
        window = N
    if window < N:
        raise ValueError(f"window must cover [1, {N}]")
    x_star = make_thm2_functional(n)
    witness = make_thm2_witness(n)
    unit_ok = (
        dual_norm(x_star) == 1
        and x_star.dot(witness) == 1
        and norm(witness, 1).value == 1
    )
    spot_checks = []
    line = _dual_solve(N)
    for G in islice(admissible_subsets(range(1, N + 1), maximal=True), 10):
        e_star = Vector({i: 1 for i in G})
        lam = lambda_pair_dual(x_star, e_star, _line=line)
        spot_checks.append((G, lam, thm2_lambda_bound(G, n)))
    return Thm2Report(
        n=n,
        window=window,
        candidate_count=sum(comb(N - m, m - 1) for m in range(1, N + 1)),
        max_bound=thm2_lambda_bound((1,), n),
        bound_target=Fraction(3, n),
        zero_trace_bound=thm2_lambda_bound((), n),
        unit_checks_ok=unit_ok,
        spot_checks=tuple(spot_checks),
    )
