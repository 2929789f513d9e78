from fractions import Fraction
from math import gcd, lcm

import pytest

from schreier.dd import DDPolytope, box_seed
from schreier.dual import _indicator, _section_cuts
from schreier.linalg import _reduce, nullspace_vector, rank
from schreier.simplex import _Tableau, lp_max

from conftest import ReferenceTableau, dd_point, solve_square, vertices_by_combination_search


def test_rank_basics():
    assert rank([]) == 0
    assert rank([[0, 0], [0, 0]]) == 0
    assert rank([[1, 0], [0, 1]]) == 2
    assert rank([[1, 2], [2, 4]]) == 1
    assert rank([[Fraction(1, 2), 0], [0, Fraction(1, 3)], [1, 1]]) == 2


def _random_rational_rows(rng, n_rows, n_cols):
    """Small rational matrices: integer entries, with halves and thirds among them."""
    return [
        [Fraction(rng.randint(-3, 3), rng.choice([1, 1, 1, 2, 3])) for _ in range(n_cols)]
        for _ in range(n_rows)
    ]


def _sympy_matrix(sympy, rows, dim):
    entries = [sympy.Rational(q.numerator, q.denominator) for row in rows for q in row]
    return sympy.Matrix(len(rows), dim, entries)


def test_rank_matches_sympy(rng):
    sympy = pytest.importorskip("sympy")
    for _ in range(100):
        n_rows = rng.randint(1, 6)
        n_cols = rng.randint(1, 6)
        rows = _random_rational_rows(rng, n_rows, n_cols)
        assert rank(rows) == _sympy_matrix(sympy, rows, n_cols).rank()


def _deficient_rows(rng, n_rows, n_cols):
    """Integer rows spanned by min(n_rows, n_cols) - 1 random rows, some with a
    zero first entry, so that elimination meets zero rows, row swaps and
    negative pivots."""
    basis = [[rng.randint(-4, 4) for _ in range(n_cols)]
             for _ in range(max(min(n_rows, n_cols) - 1, 0))]
    rows = [[sum(rng.randint(-2, 2) * b[j] for b in basis) for j in range(n_cols)]
            for _ in range(n_rows)]
    if rows and rng.random() < 0.5:
        for row in rows[: rng.randint(1, n_rows)]:
            row[0] = 0
    return rows


def test_rank_matches_gauss_jordan(rng):
    # Forward elimination pivots only the rows from the pivot row down; its
    # pivots and last pivot must be those of the full Gauss-Jordan.
    assert rank([]) == len(_reduce([])[1]) == 0
    assert rank([[0, -2], [-3, 1]]) == 2  # a swap, then negative pivots
    assert rank([[0, 0, 0], [0, 0, 0]]) == 0
    matrices = []
    for _ in range(400):
        n_rows, n_cols = rng.randint(1, 7), rng.randint(1, 7)
        matrices.append([[rng.randint(-3, 3) for _ in range(n_cols)] for _ in range(n_rows)])
        matrices.append(_deficient_rows(rng, n_rows, n_cols))
        matrices.append(_random_rational_rows(rng, n_rows, n_cols))
    assert any(rank(rows) < min(len(rows), len(rows[0])) for rows in matrices)
    for rows in matrices:
        assert rank(rows) == len(_reduce(rows)[1])
        assert _reduce(rows, jordan=False)[1:] == _reduce(rows)[1:]


def test_nullspace_vector(rng):
    # The kernel vector is pinned, not just checked: it must be the primitive
    # integer multiple of sympy's first nullspace basis vector (1 at the first
    # free column, 0 at the others), positive at that column.  Perturbation
    # witnesses and the golden reports depend on that choice.
    sympy = pytest.importorskip("sympy")
    assert nullspace_vector([], 3) == [1, 0, 0]
    assert nullspace_vector([[0, 2, 4]], 3) == [1, 0, 0]
    assert nullspace_vector([[1, 2, 4]], 3) == [-2, 1, 0]
    assert nullspace_vector([[-2, 1]], 2) == [1, 2]
    assert nullspace_vector([[1, 0], [0, Fraction(1, 3)]], 2) is None
    for _ in range(100):
        dim = rng.randint(1, 6)
        rows = _random_rational_rows(rng, rng.randint(0, dim + 1), dim)
        kernel = nullspace_vector(rows, dim)
        basis = _sympy_matrix(sympy, rows, dim).nullspace()
        if kernel is None:
            assert not basis
            assert rank(rows) == dim
            continue
        assert all(type(v) is int for v in kernel)
        assert gcd(*kernel) == 1
        pivots = _sympy_matrix(sympy, rows, dim).rref()[1]
        free = min(set(range(dim)) - set(pivots))
        assert kernel[free] > 0
        assert [Fraction(v, kernel[free]) for v in kernel] == [
            Fraction(int(q.p), int(q.q)) for q in basis[0]]
        for row in rows:
            assert sum(a * b for a, b in zip(row, kernel)) == 0


def test_solve_square():
    assert solve_square([[2, 0], [0, 4]], [1, 1]) == [Fraction(1, 2), Fraction(1, 4)]
    assert solve_square([[1, 1], [2, 2]], [1, 2]) is None


def test_lp_simple():
    value, x = lp_max([1, 1], [[1, 0], [0, 1], [1, 1]], [1, 1, 1])
    assert value == 1
    assert sum(x) == 1


def test_lp_unbounded():
    with pytest.raises(ValueError):
        lp_max([1], [[-1]], [0])


def test_lp_degenerate_terminates():
    rows = [[1, 1, 0], [0, 1, 1], [1, 0, 1], [1, 1, 1]]
    value, x = lp_max([1, 1, 1], rows, [1, 1, 1, 1])
    assert value == 1  # the row x1 + x2 + x3 <= 1 caps the pairwise optimum 3/2
    for row in rows:
        assert sum(a * b for a, b in zip(row, x)) <= 1


def test_lp_matches_vertex_scan(rng):
    # Oracle: optimum of a linear functional over a product of intervals.
    for _ in range(50):
        dim = rng.randint(1, 4)
        c = [Fraction(rng.randint(-4, 4)) for _ in range(dim)]
        hi = [Fraction(rng.randint(1, 5)) for _ in range(dim)]
        rows = [[Fraction(1) if j == i else Fraction(0) for j in range(dim)] for i in range(dim)]
        value, x = lp_max(c, rows, hi)
        expected = sum(max(ci, 0) * h for ci, h in zip(c, hi))
        assert value == expected


def test_live_tableau_reprices_each_objective(rng):
    # One tableau keeps its basis and its cuts across 50 seeded objectives;
    # each optimum must match a cold solve over the box and every cut, and
    # the objective row must hold it over d times the LCM of c's denominators.
    dim = 5
    box = [[int(i == j) for j in range(dim)] for i in range(dim)]
    bounds = [rng.randint(1, 4) for _ in range(dim)]
    cuts = [([rng.randint(-2, 3) for _ in range(dim)], Fraction(rng.randint(1, 12), rng.randint(1, 3)))
            for _ in range(12)]

    def cut(num, d):
        x = [Fraction(v, d) for v in num]
        for row, b in cuts:
            if sum(a * v for a, v in zip(row, x)) > b:
                return row, b
        return None

    tab = _Tableau(dim)
    for row, b in zip(box, bounds):
        tab.add_row(row, b)
    with pytest.raises(ValueError, match="coefficients"):
        tab.add_row(box[0][:-1], 1)
    rows = box + [row for row, _ in cuts]
    rhs = bounds + [b for _, b in cuts]
    for _ in range(50):
        c = [Fraction(rng.randint(-5, 6), rng.randint(1, 4)) for _ in range(dim)]
        x = [Fraction(v, tab.d) for v in tab.optimize(c, cut)]
        value = Fraction(tab.obj[0], tab.d * lcm(*(q.denominator for q in c)))
        assert value == lp_max(c, rows, rhs)[0]
        assert all(v >= 0 for v in x)
        for row, b in zip(rows, rhs):
            assert sum(a * v for a, v in zip(row, x)) <= b
        assert sum(a * v for a, v in zip(c, x)) == value
    assert len(tab.rows) > dim  # the cuts stayed in the tableau
    assert all(len(r) == dim + 1 for r in tab.rows)  # one column per nonbasic variable


def _outcomes(cls, dim, rows, rhs, objectives, cut):
    """Each objective's answer on one live tableau of class cls: the optimum
    numerators, d, the pivots so far, the basis and the row duals, or the
    error it raised."""
    pivots = 0

    class Counted(cls):
        def pivot(self, r, s):
            nonlocal pivots
            pivots += 1
            super().pivot(r, s)

    tab = Counted(dim)
    for row, b in zip(rows, rhs):
        tab.add_row(row, b)
    out = []
    for c in objectives:
        try:
            num = tab.optimize(c, cut)
        except ValueError as exc:
            out.append((type(exc), str(exc), pivots))
        else:
            out.append((num, tab.d, pivots, list(tab.basis), tab.row_duals(c)))
    return out


def test_compact_tableau_pivots_as_the_dense_reference(rng):
    # The compact tableau keeps no basic column, but Bland's rule by variable
    # id must take the dense tableau's pivots: the same optima, d, pivot
    # counts, bases, row duals and errors, cuts included.  Dropping some box
    # rows leaves some of these LPs unbounded.
    errors = 0
    for _ in range(40):
        dim = rng.randint(1, 5)
        box = [([int(i == j) for j in range(dim)], rng.randint(1, 4))
               for i in range(dim) if rng.random() < 0.8]
        cuts = [([rng.randint(-2, 3) for _ in range(dim)],
                 Fraction(rng.randint(1, 12), rng.randint(1, 3))) for _ in range(12)]

        def cut(num, d):
            for row, b in cuts:
                if sum(a * v for a, v in zip(row, num)) > b * d:
                    return row, b
            return None

        objectives = [[Fraction(rng.randint(-5, 6), rng.randint(1, 4)) for _ in range(dim)]
                      for _ in range(10)]
        rows, rhs = [r for r, _ in box], [b for _, b in box]
        got = _outcomes(_Tableau, dim, rows, rhs, objectives, cut)
        assert got == _outcomes(ReferenceTableau, dim, rows, rhs, objectives, cut)
        errors += sum(len(o) == 3 for o in got)
    assert errors > 0
    for N in range(1, 11):
        objectives = [[rng.randint(0, 9) for _ in range(N)] for _ in range(8)]
        runs = []
        for cls in (_Tableau, ReferenceTableau):
            sets, separate = _section_cuts(N)
            rows = [_indicator(F, N) for F in sets]
            runs.append((_outcomes(cls, N, rows, [1] * N, objectives, separate), sets))
        assert runs[0] == runs[1]


def test_dd_cube_cut():
    rows, vertices = box_seed([(0, 1)] * 3)
    poly = DDPolytope(3, rows, vertices)
    assert len(poly.vertices) == 8
    poly.add_constraint([1, 1, 1], Fraction(3, 2))
    points = {dd_point(v) for v in poly.vertices}
    # Four corners with coordinate sum >= 3/2 are cut; six edges cross.
    assert (Fraction(1), Fraction(1), Fraction(1)) not in points
    assert (Fraction(1), Fraction(1, 2), Fraction(0)) in points
    assert len(points) == 10
    for v in points:
        assert sum(v) <= Fraction(3, 2)


def test_dd_simplex_from_cube():
    rows, vertices = box_seed([(0, 1)] * 2)
    poly = DDPolytope(2, rows, vertices)
    poly.add_constraint([1, 1], 1)
    points = sorted(dd_point(v) for v in poly.vertices)
    assert points == [
        (Fraction(0), Fraction(0)),
        (Fraction(0), Fraction(1)),
        (Fraction(1), Fraction(0)),
    ]
    # A cut that no vertex violates keeps every vertex, in order.
    before = [(dd_point(v), v.tight) for v in poly.vertices]
    poly.add_constraint([1, 1], 2)
    assert [(dd_point(v), v.tight) for v in poly.vertices] == before
    assert len(poly.rows) == 6


def test_dd_empty_intersection_face():
    rows, vertices = box_seed([(0, 1)] * 2)
    poly = DDPolytope(2, rows, vertices)
    poly.add_constraint([1, 0], 0)  # x <= 0 collapses to a facet
    points = sorted(dd_point(v) for v in poly.vertices)
    assert points == [(Fraction(0), Fraction(0)), (Fraction(0), Fraction(1))]


def test_dd_fuzz_against_combination_search(rng):
    for trial in range(30):
        dim = rng.randint(2, 4)
        seed_rows, seed_vertices = box_seed([(0, 1)] * dim)
        poly = DDPolytope(dim, seed_rows, seed_vertices)
        all_rows = [(tuple(Fraction(a) for a in coeffs), Fraction(b)) for coeffs, b in seed_rows]
        for _ in range(rng.randint(1, 5)):
            coeffs = [Fraction(rng.randint(-2, 3)) for _ in range(dim)]
            if all(c == 0 for c in coeffs):
                coeffs[0] = Fraction(1)
            b = Fraction(rng.randint(1, 4), rng.randint(1, 3))
            poly.add_constraint(coeffs, b)
            all_rows.append((tuple(coeffs), b))
        expected = vertices_by_combination_search(dim, all_rows)
        got = {dd_point(v) for v in poly.vertices}
        assert got == expected, f"trial {trial}: DD {len(got)} vs oracle {len(expected)}"


def _assert_lowest_terms(poly):
    for v in poly.vertices:
        assert v.den > 0 and gcd(v.den, *v.num) == 1


def test_dd_rational_box_and_cuts_match_combination_search():
    # Rational bounds and coefficients: rows are cleared to integers and
    # each vertex is kept as integers over its own denominator.
    bounds = [(0, Fraction(1, 3)), (0, Fraction(2, 5)), (0, 1)]
    seed_rows, seed_vertices = box_seed(bounds)
    poly = DDPolytope(3, seed_rows, seed_vertices)
    cuts = [
        ([Fraction(3, 2), Fraction(5, 7), Fraction(1, 4)], Fraction(1, 2)),
        ([Fraction(-1, 3), Fraction(2, 3), Fraction(5, 6)], Fraction(3, 4)),
        ([Fraction(1, 5), 0, Fraction(7, 9)], Fraction(2, 3)),
    ]
    rows = [(tuple(Fraction(a) for a in coeffs), Fraction(b)) for coeffs, b in seed_rows]
    for coeffs, b in cuts:
        poly.add_constraint(coeffs, b)
        rows.append((tuple(Fraction(a) for a in coeffs), Fraction(b)))
        assert {dd_point(v) for v in poly.vertices} == vertices_by_combination_search(3, rows)
        _assert_lowest_terms(poly)
    assert (Fraction(0), Fraction(2, 5), Fraction(0)) in {dd_point(v) for v in poly.vertices}


def test_dd_fuzz_rational_boxes_against_combination_search(rng):
    for trial in range(30):
        dim = rng.randint(2, 4)
        bounds = []
        for _ in range(dim):
            lo = Fraction(rng.randint(-3, 1), rng.randint(1, 4))
            bounds.append((lo, lo + Fraction(rng.randint(1, 5), rng.randint(1, 6))))
        seed_rows, seed_vertices = box_seed(bounds)
        poly = DDPolytope(dim, seed_rows, seed_vertices)
        rows = [(tuple(Fraction(a) for a in coeffs), Fraction(b)) for coeffs, b in seed_rows]
        for _ in range(rng.randint(1, 4)):
            coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 5)) for _ in range(dim)]
            if not any(coeffs):
                coeffs[0] = Fraction(1, 2)
            b = Fraction(rng.randint(0, 4), rng.randint(1, 7))
            poly.add_constraint(coeffs, b)
            rows.append((tuple(coeffs), b))
        expected = vertices_by_combination_search(dim, rows)
        assert {dd_point(v) for v in poly.vertices} == expected, f"trial {trial}"
        _assert_lowest_terms(poly)


def _random_lp(rng):
    """A small LP with rational data; half are 0/1 packing LPs with ties."""
    n = rng.randint(1, 4)
    m = rng.randint(1, 5)
    if rng.random() < 0.5:
        c = [Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(n)]
        rows = [[Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(n)] for _ in range(m)]
        rhs = [Fraction(rng.randint(0, 5), rng.randint(1, 3)) for _ in range(m)]
    else:
        # Equal right-hand sides, 0/1 rows, a repeated row and zero rows of
        # the right-hand side: many ratio-test ties and degenerate pivots.
        c = [Fraction(rng.randint(0, 6), rng.randint(1, 5)) for _ in range(n)]
        rows = [[Fraction(rng.randint(0, 1)) for _ in range(n)] for _ in range(m)]
        rows.append(list(rng.choice(rows)))
        rhs = [Fraction(rng.choice([0, 1, 1, 1])) for _ in rows]
    return c, rows, rhs


def test_lp_matches_sympy_lpmax(rng):
    sympy = pytest.importorskip("sympy")
    from sympy.solvers.simplex import UnboundedLPError, lpmax

    def rational(q):
        return sympy.Rational(q.numerator, q.denominator)

    for trial in range(80):
        c, rows, rhs = _random_lp(rng)
        xs = sympy.symbols(f"x0:{len(c)}")
        constraints = [x >= 0 for x in xs] + [
            sum(rational(a) * x for a, x in zip(row, xs)) <= rational(b)
            for row, b in zip(rows, rhs)
        ]
        objective = sum(rational(a) * x for a, x in zip(c, xs))
        try:
            expected, _ = lpmax(objective, constraints)
        except UnboundedLPError:
            with pytest.raises(ValueError, match="unbounded"):
                lp_max(c, rows, rhs)
            continue
        value, x = lp_max(c, rows, rhs)
        assert value == Fraction(int(expected.p), int(expected.q)), f"trial {trial}"
        assert all(v >= 0 for v in x)
        for row, b in zip(rows, rhs):
            assert sum(a * v for a, v in zip(row, x)) <= b
        assert sum(a * v for a, v in zip(c, x)) == value


def test_lp_returns_fractions():
    rows_int = [[1, 2], [3, 1]]
    rows_frac = [[Fraction(1), Fraction(2)], [Fraction(3), Fraction(1)]]
    rows_mixed = [[1, Fraction(2)], [Fraction(3), 1]]
    for c, rows, rhs in [
        ([1, 1], rows_int, [4, 6]),
        ([Fraction(1), Fraction(1)], rows_frac, [Fraction(4), Fraction(6)]),
        ([1, Fraction(1)], rows_mixed, [Fraction(4), 6]),
    ]:
        value, x = lp_max(c, rows, rhs)
        assert type(value) is Fraction
        assert all(type(v) is Fraction for v in x)
        assert (value, x) == (Fraction(14, 5), [Fraction(8, 5), Fraction(6, 5)])
    # No pivot at all: the zero objective stays a Fraction too.
    value, x = lp_max([0, 0], rows_int, [4, 6])
    assert type(value) is Fraction and all(type(v) is Fraction for v in x)
    assert value == 0 and x == [0, 0]
