"""Hypothesis property suites for the exact cores.

The integer order-1 greedy is checked against the power-set norm and against
the greedy on Fractions it replaced; the warm-started simplex against the
same LP given every row up front and against sympy's exact ``lpmax``; the
integer separation oracle of the lazy cuts against the norm on Fractions;
the lazy-cut dual norm by its witness; the vector file format by its
parse/serialize round trip.  Examples are derandomized so a run is
reproducible.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from schreier.dual import _section_lp, dual_norm_witness  # noqa: E402
from schreier.families import index_set, is_admissible  # noqa: E402
from schreier.rationals import format_rational, parse_rational  # noqa: E402
from schreier.serialize import SPACE_DUAL, SPACE_PRIMAL, dumps_vector, loads_vector  # noqa: E402
from schreier.simplex import lp_max  # noqa: E402
from schreier.vectors import NormReport, Vector, norm  # noqa: E402

from conftest import brute_norm  # noqa: E402

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)


def _fraction_greedy(x: Vector) -> NormReport:
    """The order-1 greedy on Fractions, as it ran before the integer version."""
    ranked = sorted(x.support, key=lambda i: (-abs(x[i]), i))
    best_value = Fraction(-1)
    best_witness = ()
    for m in range(1, x.max_index + 1):
        chosen = []
        if m > 1:
            for i in ranked:
                if i > m:
                    chosen.append(i)
                    if len(chosen) == m - 1:
                        break
        value = sum((abs(x[i]) for i in chosen), Fraction(0))
        witness = chosen
        if m in x:
            value += abs(x[m])
            witness = [m] + chosen
        if value > best_value:
            best_value = value
            best_witness = index_set(witness)
    return NormReport(best_value, best_witness)


def _rationals(num: int, den: int):
    return st.builds(Fraction, st.integers(-num, num), st.integers(1, den))


def _vectors(max_index: int, num: int = 20, den: int = 20):
    return st.dictionaries(
        st.integers(1, max_index), _rationals(num, den), min_size=1, max_size=max_index
    ).map(Vector).filter(bool)


@PROPERTY
@given(_vectors(9))
def test_integer_greedy_matches_power_set_norm(x):
    report = norm(x, 1)
    assert report.value == brute_norm(x)
    assert report == _fraction_greedy(x)  # same value and the same witness
    assert is_admissible(report.witness)
    assert sum((abs(x[i]) for i in report.witness), Fraction(0)) == report.value


@PROPERTY
@given(st.dictionaries(
    st.integers(1, 12), st.integers(1, 3).flatmap(lambda n: st.sampled_from([n, -n])),
    min_size=1, max_size=12,
).map(Vector))
def test_integer_greedy_matches_on_tied_sizes(x):
    # Few distinct sizes make ties in the ranking common, so the tie-breaks
    # and the first-maximizer rule decide the witness.
    report = norm(x, 1)
    assert report.value == brute_norm(x)
    assert report == _fraction_greedy(x)


# Small coefficient and right-hand-side sets make tied ratios common, so the
# dual phase's lowest-index tie-break runs; every dual pivot is negative, so
# the sign flip runs on every cut.
_COEFFS = st.sampled_from([Fraction(-1), Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2)])
_RHS = st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2)])


@st.composite
def _cut_lps(draw):
    """(c, box rows, box rhs, cuts): a bounded LP plus constraints to add lazily."""
    n = draw(st.integers(1, 4))
    c = draw(st.lists(st.builds(Fraction, st.integers(-2, 4), st.integers(1, 3)),
                      min_size=n, max_size=n))
    box = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    bounds = draw(st.lists(_RHS, min_size=n, max_size=n))
    cuts = draw(st.lists(st.tuples(st.lists(_COEFFS, min_size=n, max_size=n), _RHS), max_size=6))
    return c, box, bounds, cuts


def _first_violated(cuts):
    def cut(num, d):
        x = [Fraction(v, d) for v in num]
        for row, b in cuts:
            if sum(a * v for a, v in zip(row, x)) > b:
                return row, b
        return None

    return cut


@PROPERTY
@given(_cut_lps())
@example(([Fraction(1), Fraction(1)], [[1, 0], [0, 1]], [1, 1], [([1, 1], 1)]))
def test_lp_with_cuts_matches_all_rows_up_front(lp):
    c, box, bounds, cuts = lp
    value, x = lp_max(c, box, bounds, cut=_first_violated(cuts))
    rows = box + [row for row, _ in cuts]
    rhs = bounds + [b for _, b in cuts]
    assert value == lp_max(c, rows, rhs)[0]
    assert all(v >= 0 for v in x)
    for row, b in zip(rows, rhs):
        assert sum(a * v for a, v in zip(row, x)) <= b
    assert sum(a * v for a, v in zip(c, x)) == value


def test_lp_cut_breaks_a_dual_tie_to_the_lowest_index():
    # After x = (1, 1), the cut x1 + x2 <= 1 ties both slacks in the dual
    # ratio test; the lower one (x1's) enters, which leaves x = (0, 1).
    value, x = lp_max([1, 1], [[1, 0], [0, 1]], [1, 1], cut=_first_violated([([1, 1], 1)]))
    assert (value, x) == (1, [0, 1])


def test_lp_cut_rejects_a_bad_constraint():
    with pytest.raises(ValueError, match="satisfies"):
        lp_max([1], [[1]], [1], cut=lambda num, d: ([1], 2))
    with pytest.raises(ValueError, match="nonnegative"):
        lp_max([1], [[1]], [1], cut=lambda num, d: ([-1], -1))


@settings(PROPERTY, max_examples=30)
@given(_cut_lps())
def test_lp_with_cuts_matches_sympy_lpmax(lp):
    sympy = pytest.importorskip("sympy")
    from sympy.solvers.simplex import lpmax

    c, box, bounds, cuts = lp
    value, _ = lp_max(c, box, bounds, cut=_first_violated(cuts))
    xs = sympy.symbols(f"x0:{len(c)}")

    def rational(q):
        return sympy.Rational(q.numerator, q.denominator)

    constraints = [v >= 0 for v in xs] + [
        sum(rational(Fraction(a)) * v for a, v in zip(row, xs)) <= rational(Fraction(b))
        for row, b in [*zip(box, bounds), *cuts]
    ]
    expected, _ = lpmax(sum(rational(a) * v for a, v in zip(c, xs)), constraints)
    assert value == Fraction(int(expected.p), int(expected.q))


# Tableau optima x = num / d: nonnegative numerators over a positive d.  Few
# distinct numerators make tied coordinates common, and ties decide the
# greedy's witness, so the cut.
_TABLEAU_POINTS = st.integers(1, 9).flatmap(lambda N: st.tuples(
    st.one_of(st.lists(st.integers(0, 3), min_size=N, max_size=N),
              st.lists(st.integers(0, 60), min_size=N, max_size=N)),
    st.integers(1, 12),
))


@PROPERTY
@given(_TABLEAU_POINTS)
@example(([1, 1, 1], 2))  # norm exactly 1: no cut
@example(([0, 1, 1, 1], 1))  # a tie beyond the minimum 2: the cut is {2, 3}
def test_integer_separation_matches_the_norm_on_fractions(point):
    # The lazy-cut oracle reads the tableau's integers; it must give the
    # verdict and the cut that the norm of x = num / d gives on Fractions.
    num, d = point
    N = len(num)
    _, _, separate = _section_lp(range(1, N + 1))
    report = norm(Vector({i + 1: Fraction(v, d) for i, v in enumerate(num)}), 1)
    if report.value <= 1:
        assert separate(num, d) is None
    elif len(report.witness) == 1:  # a singleton row is already in the tableau
        with pytest.raises(RuntimeError, match="repeated"):
            separate(num, d)
    else:
        row = [int(i + 1 in report.witness) for i in range(N)]
        assert separate(num, d) == (row, 1)
        with pytest.raises(RuntimeError, match="repeated"):
            separate(num, d)


@PROPERTY
@given(_vectors(7, num=10, den=10))
def test_dual_norm_witness_norms_the_functional(f):
    value, x = dual_norm_witness(f)
    assert norm(x, 1).value <= 1
    assert f.dot(x) == value
    assert value >= max(abs(q) for _, q in f.items())  # each unit vector is in the ball


@PROPERTY
@given(st.fractions())
def test_rational_format_then_parse_is_identity(q):
    assert parse_rational(format_rational(q)) == q


@PROPERTY
@given(
    st.dictionaries(st.integers(1, 10**12), _rationals(10**12, 10**12), max_size=8).map(Vector),
    st.sampled_from([SPACE_PRIMAL, SPACE_DUAL]),
    st.integers(0, 5),
)
def test_vector_dump_then_load_is_identity(v, space, order):
    text = dumps_vector(v, space, order)
    assert loads_vector(text, space, order) == v
    assert dumps_vector(loads_vector(text), space, order) == text
