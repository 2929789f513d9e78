"""Incremental double-description vertex tracking for bounded polytopes.

The polytope is maintained as an exact vertex list; each inserted halfspace
keeps the satisfied vertices and introduces the cut points of violated edges.
Edges are recognized combinatorially: u, v are adjacent iff no third vertex
is tight on every constraint tight at both u and v.  Tight sets are bitmasks
over the constraint list, so the adjacency scan is cheap.  Before the scan,
a pair sharing fewer than dim - 1 tight constraints is dropped: two vertices
of a dim-dimensional polyhedron can only be adjacent if they do (Fukuda &
Prodon 1996, "Double description method revisited").  The face of their
midpoint has dimension dim minus the rank of the shared constraints, so for
such a pair it has a third vertex and the scan would reject the pair too;
the vertex list and its order are unchanged.

The arithmetic is on integers.  Each row is cleared by the LCM of its
denominators (``linalg.cleared``), which keeps its halfspace, and each vertex
is an integer numerator vector over one positive denominator, in lowest
terms.  A slack is then the integer b d - a.num, a positive multiple of the
rational slack, so its sign and its zeros are those of the rational one.

Seeding requires a starting polytope whose vertices and tight masks are
known; callers here use boxes, simplices, and their products.  The vertex
set of the result does not depend on the order the halfspaces are inserted
in, but the sizes of the lists in between do, and with them the cost of
the adjacency scans.
"""

from dataclasses import dataclass
from math import gcd

from .linalg import cleared


@dataclass
class DDVertex:
    num: tuple[int, ...]
    den: int  # > 0, and coprime to the numerators as a whole
    tight: int  # bitmask over the constraint list


class DDPolytope:
    """Bounded polytope carried as (H-list, V-list with tight masks)."""

    def __init__(self, dim: int, seed_rows, seed_vertices):
        """seed_rows: list of (coeffs, rhs) meaning coeffs.x <= rhs.
        seed_vertices: exact vertex points of the seed polytope."""
        self.dim = dim
        self.rows: list[tuple[tuple[tuple[int, int], ...], int]] = [
            _cleared_row(coeffs, b) for coeffs, b in seed_rows
        ]
        self.vertices: list[DDVertex] = []
        for point in seed_vertices:
            num, den = cleared(point)
            self.vertices.append(DDVertex(tuple(num), den, self._tight_mask(num, den)))

    def _tight_mask(self, num, den: int) -> int:
        mask = 0
        for idx, (row, b) in enumerate(self.rows):
            if _dot(row, num) == b * den:
                mask |= 1 << idx
        return mask

    def add_constraint(self, coeffs, b) -> None:
        """Cut the polytope with coeffs.x <= b.

        A cut that no vertex violates needs no special case: with no
        violated vertex there are no cut points, and the kept vertices stay
        in their order.
        """
        row, b = _cleared_row(coeffs, b)
        idx = len(self.rows)
        self.rows.append((row, b))
        bit = 1 << idx

        slack = [b * v.den - _dot(row, v.num) for v in self.vertices]
        keep: list[DDVertex] = []
        plus: list[int] = []
        minus: list[int] = []
        for i, v in enumerate(self.vertices):
            if slack[i] > 0:
                plus.append(i)
                keep.append(v)
            elif slack[i] == 0:
                v.tight |= bit
                keep.append(v)
            else:
                minus.append(i)

        masks = [v.tight for v in self.vertices]
        new_vertices: list[DDVertex] = []
        for i in plus:
            for j in minus:
                common = masks[i] & masks[j]
                if common.bit_count() < self.dim - 1 or not self._adjacent(i, j, common, masks):
                    continue
                # The cut point u + si / (si - sj) (w - u), sj < 0 < si, over
                # the denominators du and dw: (si W - sj U) / (si dw - sj du).
                si, sj = slack[i], slack[j]
                u, w = self.vertices[i], self.vertices[j]
                num = [si * c - sj * a for a, c in zip(u.num, w.num)]
                den = si * w.den - sj * u.den
                g = gcd(den, *num)
                new_vertices.append(DDVertex(tuple(a // g for a in num), den // g, common | bit))
        self.vertices = keep + new_vertices

    def _adjacent(self, i: int, j: int, common: int, masks: list[int]) -> bool:
        for k, mask in enumerate(masks):
            if k != i and k != j and mask & common == common:
                return False
        return True


def _cleared_row(coeffs, b) -> tuple[tuple[tuple[int, int], ...], int]:
    """The row a.x <= b times the LCM of its denominators: its nonzero
    (position, coefficient) pairs and its right-hand side."""
    values, _ = cleared([*coeffs, b])
    return tuple((k, a) for k, a in enumerate(values[:-1]) if a), values[-1]


def _dot(row, num) -> int:
    return sum(a * num[k] for k, a in row)


def box_seed(bounds) -> tuple[list, list]:
    """Seed rows and vertices for a product of intervals [lo_i, hi_i].

    The rows are -x_i <= -lo_i and x_i <= hi_i with int coefficients; the
    bounds, ints or Fractions, are kept as they were given.
    """
    dim = len(bounds)
    rows = []
    for i, (lo, hi) in enumerate(bounds):
        for sign, b in ((-1, -lo), (1, hi)):
            row = [0] * dim
            row[i] = sign
            rows.append((row, b))
    vertices = [()]
    for lo, hi in bounds:
        vertices = [v + (val,) for v in vertices for val in ((lo, hi) if lo != hi else (lo,))]
    return rows, vertices
