"""Exact simplex for small LPs in standard form, on a compact integer tableau.

Maximize c.x subject to A x <= b, x >= 0 with b >= 0, so the all-slack basis
is feasible and no phase one is needed.  Bland's rule guarantees termination.

The tableau holds integers over one common denominator d, the last pivot
(integer-preserving pivoting: Edmonds 1967, Bareiss 1968).  Pivots are
``linalg.pivot_rows``, whose update is ``linalg.eliminate``, the step of the
Bareiss loop behind ``linalg.rank`` and ``linalg.nullspace_vector``; the
clearing is ``linalg.cleared``, as there.  Each constraint row and its
right-hand side are cleared to integers by the LCM of their denominators,
and that row's slack is scaled by the same factor, so the slack columns
start as the identity with d = 1.  The objective row is cleared by
its own LCM.  A positive rescaling of a row or of a slack changes no
reduced-cost sign and no ratio, so Bland's rule takes the same pivots as on
the rational tableau; ratios are compared by cross-multiplication.

After pivoting to a basis B, d = det B and every entry is d times the rational
tableau entry, that is, a minor of the starting integer matrix.  Sylvester's
identity therefore makes the update
``T[i][j] = (T[i][j] * p - T[i][s] * T[r][j]) // d`` an exact division; the
pivot row stays as it is and d becomes the pivot p.  Entries grow like
determinants, and no gcd is taken while pivoting.

The tableau is compact, as in the integer dictionary of lrs (Avis 2000): a
basic variable's column is d times a unit vector, so it is not stored.  The
variable ids are the columns of the dense tableau ``[rhs, x, slacks]``: x_j
is j, for 1 <= j <= n, and the slack of row k (0-based) is n + 1 + k.  Each
row holds its rhs and one entry per nonbasic variable, ``cols[j - 1]`` being
the variable of column j, so every row has n + 1 entries however many rows
there are, and a pivot rewrites m (n + 1) integers where the dense tableau
rewrites m (n + m + 1).  A pivot on (r, s) is the dense pivot with the
basic columns left out.  The entering column becomes p e_r, implicit from
then on.  The leaving variable's column was d e_r; with sigma the sign of
T[r][s] (the pivot row is negated when sigma < 0), the same update makes it
sigma d in row r, -sigma T[i][s] in every other row i and -sigma obj[s] in
the objective, read from the entries before the pivot.  That column goes
into column s, and the leaving and entering ids swap places in ``cols`` and
``basis``.  Every stored entry is the dense tableau's, so d, the optimum,
the duals and every ratio are the same.  Bland's rules compare variable
ids, not column positions, and so take the dense tableau's pivots: primal,
the entering variable is the lowest id with a negative reduced cost, and
the leaving row wins the ratio test, ties to the lower basic id; dual, the
leaving row is the infeasible one with the lowest basic id, and the
entering column has the smallest ratio, ties to the lower id.

Constraints can also arrive while the tableau lives (lazy cuts,
warm-started as in Applegate, Cook, Dash & Espinoza 2007).  A new row
``a.x + s = b``, cleared like the others, gets its own slack, which becomes
basic, so no column is added to any row.  It is written in terms of the
current basis (``_written``) as ``d * row - sum(row[v] * T[i])`` over the
structural basic variables v of rows i: d a_v on a nonbasic x_v, 0 on a
nonbasic slack, d b on the rhs.
In the dense tableau that zeroes its basic columns, the ones the compact
row leaves out, and it is an integer combination, so no division is
needed.  The starting matrix grows by that row and column, and the new basis
(old basis plus the new slack) has the same determinant d, because the slack
column is a unit vector; so the entries are still d times the rational
tableau and the divisions of later pivots stay exact.  A cut that the
optimum x violates leaves a negative right-hand side in its row while the
reduced costs stay nonnegative, so a dual-simplex phase restores primal
feasibility.  That is Bland's rule on the dual, which terminates.  A dual
pivot is negative; its row is negated before pivoting, which keeps the
pivot, and so d, positive.

The cut callback reads the optimum on the tableau's own integers:
``cut(num, d)`` gets the numerators x_j = num[j] / d, the basic right-hand
sides of the structural variables (0 for a nonbasic one), and the common
denominator d > 0; num >= 0 because the basis is primal feasible whenever
the callback runs.  No Fraction is built inside the cut loop; ``lp_max``
builds them once, for the optimum it returns.

The objective can change while the tableau lives too.  ``optimize``
re-prices the objective row for a new c in the current basis
(``_priced``): it is the row ``[0, c]`` written as a new constraint would
be, c cleared by the LCM of its denominators, and negated, that is
``-d * c + sum(c[v] * T[i])``; the same integer combination with no
division.  It is d times that LCM times the rational reduced-cost
row on the nonbasic columns, and zero on the basic ones.  The basis stays
primal feasible, so primal Bland's rule resumes from it.
``row_duals`` prices an objective the same way without pivoting and reads
the slacks: the reduced cost of a row's slack is that row's LP dual value,
its priced entry when the slack is nonbasic and 0 when it is basic.  At an
optimal basis they form a dual solution that certifies the optimum by
weak duality.
``lp_max`` is a fresh tableau with its rows and one ``optimize``: on the
all-slack basis with d = 1 the re-priced row is -c, so it takes the same
pivots as a cold solve.

The box start.  ``unit_box(n)`` builds the n unit rows of n columns, in
column order, as a ``_Box``, and it is the only producer of that type.
A fresh tableau whose rows are a ``_Box`` of n rows, x_j <= b_j with
positive integer b_j, on the all-slack basis with d = 1 (``_Tableau.of``
sees the type and writes the rows as they are, with no ``add_row``),
starts its first ``optimize`` at the vertex Bland's primal phase reaches
(``_box_start``), with no pricing pass and no pivot.  Those are the rows
of the section LP.
With c cleared to the integers c_j, the priced row is [0, -c].  Bland
enters the lowest id with a negative reduced cost, x_j for the least j
with c_j > 0.  Its column is the unit column of row j (0-based j - 1), the
only row with a positive entry there, so that row leaves, and the pivot
is 1 = d: every other row is zero in column j and stays as it is, and
row j stays [b_j, e_j], its 1 now in the column of its slack, which
leaves.  The objective gains c_j times row j: its value c_j b_j, 0 on
x_j's column, which the slack's column replaces with -(-c_j) = c_j, and
nothing elsewhere.  No other reduced cost changes, so the next entering
variable is the next j with c_j > 0, on its own row again, and after them
the negative reduced costs are gone: each c_j <= 0 leaves -c_j >= 0 and
each slack that left has c_j > 0.  So Bland's primal phase ends with the
rows and d = 1 as they were, x_j basic in row j exactly when c_j > 0 (its
slack in column j, the other columns as they were), and the objective
[sum of c_j b_j over c_j > 0, |c_1|, ..., |c_n|].  ``_box_start`` writes
that tableau entry for entry: rows, objective, ``cols``, ``basis`` and d.
Every later pivot, cut, optimum and row dual is therefore the same; only
the pivot count drops, by the number of columns with c_j > 0 at each
fresh start.  Any other rows, plain lists of unit rows included, or a row
added before the first ``optimize``, make the tableau take the general
path, which reaches the same tableau with those pivots.
"""

from fractions import Fraction
from operator import mul

from .linalg import cleared, eliminate, pivot_rows


class _Tableau:
    """Compact rows ``[rhs, one entry per nonbasic column]`` of integers over d.

    Variable ids are 1..n for x and n + 1 + k for the slack of row k.
    ``cols[j - 1]`` is the variable of column j, ``basis[i]`` the variable
    basic in row i, whose unit column d e_i is implicit, and ``obj`` is the
    objective row, whose rhs entry is d times the LCM of the objective's
    denominators times its value.  Every row, the objective included, has
    n + 1 entries however many rows there are.  A new tableau has no rows
    and the zero objective; ``optimize`` prices one in.  ``box`` is True
    while the tableau is a fresh box (``of``): its first ``optimize``
    starts at the box vertex.
    """

    def __init__(self, n: int):
        self.n = n
        self.obj = [0] * (n + 1)
        self.rows: list[list[int]] = []
        self.basis: list[int] = []
        self.cols = list(range(1, n + 1))
        self.d = 1
        self.box = False

    @classmethod
    def of(cls, n: int, rows, rhs) -> "_Tableau":
        """A new tableau over n columns holding the rows a.x <= b, in order.

        When the rows are a ``_Box`` (``unit_box``) of n rows and every b is
        a positive int, they are written as they are (all-int rows are their
        own clearing, and on the all-slack basis with d = 1 a row is written
        as itself), and the tableau is a fresh box.  The type carries the
        shape: ``unit_box`` is its only producer.  Any other rows go through
        ``add_row`` one by one.
        """
        tab = cls(n)
        rhs = list(rhs)
        if (type(rows) is _Box and len(rows) == n == len(rhs)
                and all(type(b) is int and b > 0 for b in rhs)):
            tab.rows = [[b, *row] for row, b in zip(rows, rhs)]
            tab.basis = list(range(n + 1, 2 * n + 1))
            tab.box = True
        else:
            for row, b in zip(rows, rhs, strict=True):
                tab.add_row(row, b)
        return tab

    def add_row(self, row, b) -> None:
        """Append a.x <= b, written in the current basis; its new slack is basic."""
        ints, _ = cleared([b, *row])  # a positive LCM keeps the sign of b
        if ints[0] < 0:
            raise ValueError("simplex expects nonnegative right-hand sides")
        new = self._written(ints)
        self.basis.append(self.n + 1 + len(self.rows))
        self.rows.append(new)
        self.box = False

    def optimize(self, c, cut=None) -> list[int]:
        """Optimum of c over the rows, re-priced in the current basis: the
        numerators over d of the optimal x.

        ``cut(num, d)`` gets the optimum as integers x = num / d and works as
        in ``lp_max``; its rows stay in the tableau.  With c cleared to ints
        over its LCM scale, the objective value is ``obj[0] / (d * scale)``.
        """
        ints, _ = cleared(c)
        if self.box:
            self._box_start(ints)
        else:
            self.obj = self._priced(ints)
            self.primal()
        while True:
            x = self.point()
            violated = cut(x, self.d) if cut is not None else None
            if violated is None:
                return x
            self.add_row(*violated)
            if self.rows[-1][0] >= 0:
                raise ValueError("cut returned a constraint that x satisfies")
            self.dual()

    def row_duals(self, c) -> tuple[list[int], int]:
        """The dual values of the rows for objective c, in row order, over D.

        Once c is priced in the current basis, the dual of row k is the
        reduced cost of its slack: the priced entry of the slack's column
        when the slack is nonbasic, 0 when it is basic.  D is d times the
        LCM of c's denominators, and the basis is read, never pivoted.  Each
        value belongs to its row as cleared to integers (the row itself when
        it already was).  At a basis optimal for c they are an optimal LP
        dual: nonnegative, covering c, and summing to the optimum.
        """
        ints, scale = cleared(c)
        obj, n = self._priced(ints), self.n
        duals = [0] * len(self.rows)
        for j, var in enumerate(self.cols, 1):
            if var > n:
                duals[var - n - 1] = obj[j]
        return duals, self.d * scale

    def _written(self, ints) -> list[int]:
        """The integer row ``[b, a]`` in the current basis: d [b, a on the
        nonbasic columns] - sum(a_v T_i) over the structural basic
        variables v of rows i (0 on a nonbasic slack)."""
        d, n = self.d, self.n
        if len(ints) != n + 1:
            raise ValueError(f"row has {len(ints) - 1} coefficients, expected {n}")
        new = [d * ints[0]] + [d * ints[var] if var <= n else 0 for var in self.cols]
        for row, var in zip(self.rows, self.basis):
            if var <= n and ints[var]:
                coeff = ints[var]
                new = [a - coeff * t for a, t in zip(new, row)]
        return new

    def _box_start(self, ints) -> None:
        """Start the fresh box at the vertex Bland's primal phase reaches for
        the integer objective ints: x_j basic in its own row for every
        c_j > 0, its slack in column j, the rows and d = 1 unchanged, and
        the objective [sum of c_j b_j over c_j > 0, |c_1|, ..., |c_n|] (the
        module docstring proves it)."""
        n, rows, cols, basis = self.n, self.rows, self.cols, self.basis
        if len(ints) != n:
            raise ValueError(f"row has {len(ints)} coefficients, expected {n}")
        value = 0
        for j, c in enumerate(ints, 1):
            if c > 0:
                value += c * rows[j - 1][0]
                cols[j - 1], basis[j - 1] = n + j, j
        self.obj = [value, *map(abs, ints)]
        self.box = False

    def _priced(self, ints) -> list[int]:
        """The objective row of the integer objective ints in the current
        basis: the negated row ``[0, c]`` written in it."""
        return [-t for t in self._written([0, *ints])]

    def primal(self) -> None:
        """Primal simplex with Bland's rule until no reduced cost is negative."""
        basis, cols = self.basis, self.cols
        while True:
            rows, obj = self.rows, self.obj
            enter = None
            for j in range(1, len(obj)):
                # Bland: the lowest variable id with a negative reduced cost
                if obj[j] < 0 and (enter is None or cols[j - 1] < cols[enter - 1]):
                    enter = j
            if enter is None:
                return
            leave = None
            for i, row in enumerate(rows):
                coeff = row[enter]
                if coeff > 0:
                    if leave is None:
                        leave = i
                        continue
                    # row[rhs] / coeff against the best ratio, both denominators > 0
                    here = row[0] * rows[leave][enter]
                    best = rows[leave][0] * coeff
                    if here < best or (here == best and basis[i] < basis[leave]):
                        leave = i
            if leave is None:
                raise ValueError("linear program is unbounded")
            self.pivot(leave, enter)

    def dual(self) -> None:
        """Dual simplex with Bland's rule until no right-hand side is negative."""
        basis, cols = self.basis, self.cols
        while True:
            rows, obj = self.rows, self.obj
            leave = None
            for i, row in enumerate(rows):
                if row[0] < 0 and (leave is None or basis[i] < basis[leave]):
                    leave = i
            if leave is None:
                return
            row = rows[leave]
            enter = None
            for j in range(1, len(row)):
                if row[j] < 0:
                    if enter is None:
                        enter = j
                        continue
                    # obj[j] / -row[j] against the best ratio, both denominators > 0
                    here = obj[j] * -row[enter]
                    best = obj[enter] * -row[j]
                    if here < best or (here == best and cols[j - 1] < cols[enter - 1]):
                        enter = j
            if enter is None:
                raise ValueError("linear program is infeasible")
            self.pivot(leave, enter)

    def pivot(self, r: int, s: int) -> None:
        """Pivot on row r and column s; column s then holds the leaving variable."""
        d = self.d
        column, obj_s = [row[s] for row in self.rows], self.obj[s]
        sign = 1 if column[r] > 0 else -1
        rows, p = pivot_rows(self.rows, r, s, d)
        obj = eliminate(self.obj, rows[r], s, p, d)
        # The leaving variable's unit column d e_r, through the same update.
        # The rows may be the old lists; those are dropped, so patch in place.
        for row, t in zip(rows, column):
            row[s] = -sign * t
        rows[r][s] = sign * d
        obj[s] = -sign * obj_s
        self.rows, self.obj, self.d = rows, obj, p
        self.cols[s - 1], self.basis[r] = self.basis[r], self.cols[s - 1]

    def point(self) -> list[int]:
        """The numerators over d of x: basic right-hand sides, 0 off the basis."""
        x = [0] * self.n
        for row, var in zip(self.rows, self.basis):
            if var <= self.n:
                x[var - 1] = row[0]
        return x


class _Box(tuple):
    """The unit rows of ``unit_box``, the one shape ``_Tableau.of`` starts
    at the box vertex.  A slice of it is a plain tuple."""


def unit_box(n: int) -> _Box:
    """The n unit rows of n columns in column order, row k the unit row of
    column k + 1, as ints: with positive int bounds, the rows a fresh
    ``_Tableau.of`` starts at the box vertex."""
    return _Box([(0,) * k + (1,) + (0,) * (n - 1 - k) for k in range(n)])


def lp_max(c, rows, rhs, cut=None) -> tuple[Fraction, list[Fraction]]:
    """Return (optimal value, optimal x).  Raises on unbounded problems.

    With ``cut``, each optimum x = num / d is passed to ``cut(num, d)`` as
    integers, num >= 0 and d > 0; it returns a constraint ``(row, b)`` that
    x violates, with b >= 0, or None when x is feasible.  The row joins the
    live tableau and dual simplex re-optimises from the current basis; the
    optimum of all rows is returned, turned into Fractions once.  Rows
    built by ``unit_box``, as the section LP's singletons are, start at the
    box vertex (``_Tableau.of``).
    """
    tab = _Tableau.of(len(c), rows, rhs)
    num = tab.optimize(c, cut)
    ints, scale = cleared(c)
    value = Fraction(sum(map(mul, ints, num)), scale * tab.d)
    return value, [Fraction(v, tab.d) for v in num]
