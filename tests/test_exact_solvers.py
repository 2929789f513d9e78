from fractions import Fraction
from itertools import combinations, product
from math import gcd, lcm

import pytest

from schreier import linalg
from schreier.dd import DDPolytope, _cleared_row, box_seed
from schreier.dual import _section_lp
from schreier.extreme import _class_polytope_pieces, _support_rows, positive_extreme_points
from schreier.linalg import cleared, nullspace_vector, rank
from schreier.simplex import _Tableau, lp_max
from schreier.vectors import norm, one_sets

from conftest import (
    ReferenceTableau,
    dd_point,
    reference_kernel_vector,
    reference_reduce,
    solve_square,
    vertices_by_combination_search,
)


def test_cleared_returns_an_int_list_as_it_is():
    # Integer rows skip the LCM pass: the same values, over 1, in a new list.
    ints = [3, -4, 0, 10**40]
    values, scale = cleared(ints)
    assert (values, scale) == (ints, 1) and values is not ints
    assert all(type(v) is int for v in values)
    assert cleared(iter([5, 0])) == ([5, 0], 1)
    assert cleared([]) == ([], 1)
    # Rationals still take the pass; a float, alone or beside a Fraction, raises.
    assert cleared([Fraction(1, 2), 3, Fraction(-2, 3)]) == ([3, 18, -4], 6)
    for bad in ([1, 2.0], [Fraction(1, 2), 0.5], [0.5]):
        with pytest.raises(AttributeError, match="'float' object has no attribute 'denominator'"):
            cleared(bad)
    # A bool is not an int here: it takes the pass and comes back as a plain int.
    for values, expected in (([True, 2], ([1, 2], 1)), ([False, True], ([0, 1], 1)),
                             ([True, Fraction(1, 2)], ([2, 1], 2))):
        got = cleared(values)
        assert got == expected and all(type(v) is int for v in got[0])


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
    # Row-incremental Bareiss must count the pivots of the full Gauss-Jordan.
    assert rank([]) == len(reference_reduce([])[1]) == 0
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
        assert rank(rows) == len(reference_reduce(rows)[1])


def _exact(n, d):
    q, r = divmod(n, d)
    assert r == 0, f"{n} / {d} is not exact"
    return q


def _checked_bareiss_rank(rows):
    """Rank by row-incremental Bareiss, every division asserted exact.

    Each row goes through every recorded pivot, rescaled by d_k / d_(k-1)
    at a zero factor too, and again through only the pivots with a nonzero
    factor and one rescaling by d_r / d_l at the end, as linalg.rank does;
    the two must give the same row.  Every row is pushed, also past full
    rank, where it must end zero.
    """
    pivots = []  # (pivot row at its level, column)
    for row in rows:
        full, d = cleared(row)[0], 1
        for pivot_row, col in pivots:
            p, f = pivot_row[col], full[col]
            full, d = [_exact(a * p - f * b, d) for a, b in zip(full, pivot_row)], p
        skip, level = cleared(row)[0], 1
        for pivot_row, col in pivots:
            p, f = pivot_row[col], skip[col]
            if f:
                skip, level = [_exact(a * p - f * b, level) for a, b in zip(skip, pivot_row)], p
        assert [_exact(a * d, level) for a in skip] == full
        col = next((j for j, a in enumerate(full) if a), None)
        if col is not None:
            assert len(pivots) < len(row)
            pivots.append((full, col))
    return len(pivots)


def _sign_rows(rng, n_rows, n_cols):
    """Tall 0/+-1 rows like the signed 1-set rows of a certificate: one sign
    per column, each row the signed indicator of a set of columns.  The
    sets come from a pool of at most n_cols of them, which often leaves the
    rows rank-deficient; a prefix of the sets [0, k] reaches full rank
    early, and empty sets give zero rows."""
    signs = [rng.choice((-1, 1)) for _ in range(n_cols)]
    pool = [frozenset(rng.sample(range(n_cols), rng.randint(1, n_cols)))
            for _ in range(rng.randint(1, n_cols))]
    sets = [rng.choice(pool) if rng.random() < 0.85 else frozenset() for _ in range(n_rows)]
    if rng.random() < 0.3:
        sets[:n_cols] = [frozenset(range(k + 1)) for k in range(n_cols)]
    return [[signs[j] if j in F else 0 for j in range(n_cols)] for F in sets[:n_rows]]


def test_rank_of_tall_sign_rows(rng, monkeypatch):
    matrices = [_sign_rows(rng, rng.randint(1, 40), rng.randint(1, 10)) for _ in range(300)]
    matrices += [[[1, 0], [0, 1]] + [[1, 1]] * 38, [[0] * 10] * 40]
    matrices.append([[1 if j <= k else 0 for j in range(10)] for k in range(10)] + [[-1] * 10] * 30)
    expected = [len(reference_reduce(rows)[1]) for rows in matrices]
    assert [_checked_bareiss_rank(rows) for rows in matrices] == expected
    assert any(r < min(len(rows), len(rows[0])) for rows, r in zip(matrices, expected))
    assert any(r == len(rows[0]) < len(rows) for rows, r in zip(matrices, expected))
    assert any(not any(row) for rows in matrices for row in rows)

    def checked(other, pivot_row, col, p, d):
        # rank skips every pivot whose factor is 0; the rest divide exactly.
        factor = other[col]
        assert factor
        return [_exact(a * p - factor * b, d) for a, b in zip(other, pivot_row)]

    monkeypatch.setattr(linalg, "eliminate", checked)
    assert [rank(rows) for rows in matrices] == expected


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


def _pool_midpoint_rows(rng, window, pairs):
    """The signed support rows of the unit midpoints of seeded pairs of the
    positive pool, one sign pattern drawn per pair: the rows whose kernel
    gives the perturbation direction of a certificate."""
    pool = positive_extreme_points(window)
    out = []
    for a, b in rng.sample(list(combinations(pool, 2)), pairs):
        mid = ((a + b) / 2).flip_signs(i for i in range(1, window + 1) if rng.random() < 0.5)
        if norm(mid, 1).value == 1:
            out.append(_support_rows(mid, one_sets(mid)))
    return out


def test_nullspace_vector_matches_gauss_jordan(rng):
    # The kernel vector back-substituted through the row-incremental Bareiss
    # pivots is Gauss-Jordan's: d at the first free column, -row[j] at the
    # pivots, made primitive.  The sign rows have negative pivots and
    # several free columns.
    matrices = [_sign_rows(rng, rng.randint(1, 40), rng.randint(1, 10)) for _ in range(300)]
    matrices += _pool_midpoint_rows(rng, 8, 300)
    kernels = 0
    for rows in matrices:
        dim = len(rows[0])
        kernel = nullspace_vector(rows, dim)
        assert kernel == reference_kernel_vector(rows, dim), rows
        if kernel is not None:
            kernels += 1
            for row in rows:
                assert sum(a * v for a, v in zip(row, kernel)) == 0
    assert kernels > 100
    assert any(len(rows[0]) - rank(rows) > 1 for rows in matrices)


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


def _outcomes(cls, dim, rows, rhs, objectives, cut, of=False):
    """Each objective's answer on one live tableau of class cls: the optimum
    numerators, d, the pivots so far, the basis and the row duals, or the
    error it raised.  The tableau is built by ``cls.of`` with ``of``, so
    box rows start at the box vertex, else row by row with add_row."""
    pivots = 0

    class Counted(cls):
        def pivot(self, r, s):
            nonlocal pivots
            pivots += 1
            super().pivot(r, s)

    if of:
        tab = Counted.of(dim, rows, rhs)
    else:
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


def _after_start(outcomes, skipped):
    """The outcomes of ``_outcomes`` with ``skipped`` fewer pivots each."""
    return [(*o[:2], o[2] - skipped, *o[3:]) for o in outcomes]


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
    # The section LP starts at the box vertex, so its pivots are compared
    # after the start: the reference adds one phase-one pivot per positive
    # column of the first objective.  The same optima, d, bases, row duals
    # and cuts on [1, N] and on grounds with gaps in [1, 12], the latter
    # with many zeros in each objective.
    sections = [(range(1, N + 1), [[rng.randint(0, 9) for _ in range(N)] for _ in range(8)])
                for N in range(1, 11)]
    for _ in range(60):
        ground = sorted(rng.sample(range(1, 13), rng.randint(1, 12)))
        sections.append((ground, [[rng.choice((0, 0, rng.randint(1, 9))) for _ in ground]
                                  for _ in range(6)]))
    for ground, objectives in sections:
        n = len(ground)
        runs = []
        for cls, of in ((_Tableau, True), (ReferenceTableau, False)):
            sets, rows, separate = _section_lp(ground)
            runs.append((_outcomes(cls, n, rows, [1] * n, objectives, separate, of), sets))
        skipped = sum(c > 0 for c in objectives[0])
        assert runs[0] == (_after_start(runs[1][0], skipped), runs[1][1])


def test_box_start_is_blands_phase_one(rng):
    # A fresh box tableau (_Tableau.of) starts where Bland's primal phase
    # from the all-slack basis ends: entry for entry the same rows,
    # objective, cols, basis and d as the tableau built row by row after
    # its first optimize, with exactly one pivot fewer per positive column.
    # The bounds differ per row and the objectives carry zeros, negatives
    # and Fractions.
    starts = 0
    for _ in range(300):
        n = rng.randint(0, 12)
        box = [[int(i == j) for j in range(n)] for i in range(n)]
        bounds = [rng.randint(1, 9) for _ in range(n)]
        c = [rng.choice((0, 0, rng.randint(-9, 9), Fraction(rng.randint(-9, 9), rng.randint(1, 4))))
             for _ in range(n)]
        tabs, pivots = [], []
        for of in (True, False):
            count = [0]

            class Counted(_Tableau):
                def pivot(self, r, s, count=count):
                    count[0] += 1
                    super().pivot(r, s)

            if of:
                tab = Counted.of(n, box, bounds)
                assert tab.box
            else:
                tab = Counted(n)
                for row, b in zip(box, bounds):
                    tab.add_row(row, b)
                assert not tab.box
            tab.optimize(c)
            tabs.append((tab.rows, tab.obj, tab.cols, tab.basis, tab.d))
            pivots.append(count[0])
        assert tabs[0] == tabs[1]
        assert pivots == [0, sum(q > 0 for q in c)]
        starts += pivots[1] > 0
    assert starts > 200
    # Only the box starts there: a missing, extra, reordered, scaled or
    # Fraction row, a nonpositive or Fraction bound, or a tuple row is
    # written row by row.
    box = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert _Tableau.of(3, box, [1, 2, 3]).box
    for rows, rhs in [(box[:2], [1, 1]), (box + [[1, 1, 0]], [1, 1, 1, 1]),
                      (box[::-1], [1, 1, 1]), ([[2, 0, 0], *box[1:]], [1, 1, 1]),
                      ([[Fraction(1), 0, 0], *box[1:]], [1, 1, 1]), (box, [1, 0, 1]),
                      (box, [1, Fraction(1), 1]), ([tuple(box[0]), *box[1:]], [1, 1, 1])]:
        assert not _Tableau.of(3, rows, rhs).box
    # A row added to a fresh box ends the box.
    tab = _Tableau.of(3, box, [1, 1, 1])
    tab.add_row([1, 1, 1], 2)
    assert not tab.box
    with pytest.raises(ValueError, match="row has 2 coefficients, expected 3"):
        _Tableau.of(3, box, [1, 1, 1]).optimize([1, 1])


def _dense_rows(poly):
    """The rows of ``poly`` as dense (coeffs, rhs) tuples of Fractions."""
    return [(tuple(Fraction(dict(row).get(k, 0)) for k in range(poly.dim)), Fraction(b))
            for row, b in poly.rows]


def test_dd_cube_cut():
    poly = DDPolytope(box_seed([(0, 1)] * 3))
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
    poly = DDPolytope(box_seed([(0, 1)] * 2))
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
    poly = DDPolytope(box_seed([(0, 1)] * 2))
    poly.add_constraint([1, 0], 0)  # x <= 0 collapses to a facet
    points = sorted(dd_point(v) for v in poly.vertices)
    assert points == [(Fraction(0), Fraction(0)), (Fraction(0), Fraction(1))]


def test_dd_fuzz_against_combination_search(rng):
    for trial in range(30):
        dim = rng.randint(2, 4)
        poly = DDPolytope(box_seed([(0, 1)] * dim))
        all_rows = _dense_rows(poly)
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


def _seed_each_vertex(factors):
    """The product seed built point by point: every factor row padded to
    the full coordinates, every product point cleared as a whole and
    tested on every row.  (rows, [(num, den, tight)]) in DDPolytope's form."""
    widths = [len(vertices[0]) for _, vertices in factors]
    dim = sum(widths)
    rows = []
    for k, (factor_rows, _) in enumerate(factors):
        before = sum(widths[:k])
        for coeffs, b in factor_rows:
            padded = [0] * before + list(coeffs) + [0] * (dim - before - widths[k])
            rows.append(_cleared_row(padded, b))
    seeded = []
    for parts in product(*(vertices for _, vertices in factors)):
        num, den = cleared([q for part in parts for q in part])
        tight = 0
        for idx, (row, b) in enumerate(rows):
            if sum(a * num[k] for k, a in row) == b * den:
                tight |= 1 << idx
        seeded.append((tuple(num), den, tight))
    return rows, seeded


def test_product_seed_matches_seeding_each_vertex(rng):
    # Each factor tests its own vertices on its own rows; the product's
    # rows, vertex order, numerators, denominators and tight masks must be
    # those of testing every product point on every row.
    cases = [_class_polytope_pieces(m)[0] for m in range(1, 8)]
    for dim in range(7):
        cases.append(box_seed([(0, 1)] * dim))
        cases.append(box_seed([(rng.randint(-3, 1), rng.randint(1, 4)) for _ in range(dim)]))
        bounds = []
        for _ in range(dim):
            lo = Fraction(rng.randint(-3, 1), rng.randint(1, 4))
            width = Fraction(rng.randint(0, 5), rng.randint(1, 6))  # 0: a point
            bounds.append((lo, lo + width))
        cases.append(box_seed(bounds))
    assert any(len(vertices) == 1 for factors in cases for _, vertices in factors)
    for factors in cases:
        poly = DDPolytope(factors)
        rows, seeded = _seed_each_vertex(factors)
        assert poly.rows == rows
        assert poly.dim == sum(len(vertices[0]) for _, vertices in factors)
        assert [(v.num, v.den, v.tight) for v in poly.vertices] == seeded


def _assert_lowest_terms(poly):
    for v in poly.vertices:
        assert v.den > 0 and gcd(v.den, *v.num) == 1


def test_dd_rational_box_and_cuts_match_combination_search():
    # Rational bounds and coefficients: rows are cleared to integers and
    # each vertex is kept as integers over its own denominator.
    bounds = [(0, Fraction(1, 3)), (0, Fraction(2, 5)), (0, 1)]
    poly = DDPolytope(box_seed(bounds))
    cuts = [
        ([Fraction(3, 2), Fraction(5, 7), Fraction(1, 4)], Fraction(1, 2)),
        ([Fraction(-1, 3), Fraction(2, 3), Fraction(5, 6)], Fraction(3, 4)),
        ([Fraction(1, 5), 0, Fraction(7, 9)], Fraction(2, 3)),
    ]
    rows = _dense_rows(poly)
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
        poly = DDPolytope(box_seed(bounds))
        rows = _dense_rows(poly)
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
