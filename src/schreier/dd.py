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

The seed is a product of factor polytopes, each given by its rows and its
vertices on its own coordinates: boxes (``box_seed``, a product of
intervals), simplices, and their products.  Each factor tests its own
vertices on its own rows once.  A factor row touches only that factor's
coordinates, so a product vertex is tight on it exactly when the factor's
component is, and its tight mask is the OR of its components' masks, each
shifted by its factor's row offset.  The vertex set of the result does not
depend on the order the halfspaces are inserted in, but the sizes of the
lists in between do, and with them the cost of the adjacency scans.
"""

from dataclasses import dataclass
from functools import reduce
from itertools import product
from math import gcd, lcm
from operator import or_

from .linalg import cleared


@dataclass
class DDVertex:
    num: tuple[int, ...]
    den: int  # > 0, and coprime to the numerators as a whole
    tight: int  # bitmask over the constraint list


class DDPolytope:
    """Bounded polytope carried as (H-list, V-list with tight masks)."""

    def __init__(self, factors):
        """The product of ``factors``, each a pair (rows, vertices) on its
        own coordinates: rows a list of (coeffs, rhs) meaning
        coeffs.x <= rhs, vertices the exact vertex points of that factor, at
        least one.  The factors take consecutive coordinates and rows in
        their order, and the vertices come in product order, the first
        factor outermost.  No factors give the one empty point."""
        self.rows: list[tuple[tuple[tuple[int, int], ...], int]] = []
        parts = []
        dim = 0
        for rows, vertices in factors:
            cleared_rows = [_cleared_row(coeffs, b) for coeffs, b in rows]
            shift = len(self.rows)
            self.rows += [(tuple((k + dim, a) for k, a in row), b) for row, b in cleared_rows]
            part = []
            for point in vertices:
                num, den = cleared(point)
                mask = 0
                for idx, (row, b) in enumerate(cleared_rows):
                    if _dot(row, num) == b * den:
                        mask |= 1 << idx
                part.append((num, den, mask << shift))
            parts.append(part)
            dim += len(vertices[0])
        self.dim = dim
        self.vertices: list[DDVertex] = [_product_vertex(combo) for combo in product(*parts)]

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


def _product_vertex(components) -> DDVertex:
    """The product vertex of one (num, den, shifted mask) per factor.

    Its denominator is the LCM of the factors' denominators, which is the
    LCM of every coordinate's, so the numerators are those ``cleared`` gives
    the whole point, in lowest terms like each factor's."""
    den = lcm(*(d for _, d, _ in components))
    num = tuple(a * (den // d) for part, d, _ in components for a in part)
    return DDVertex(num, den, reduce(or_, (mask for _, _, mask in components), 0))


def box_seed(bounds) -> list[tuple[list, list]]:
    """The factors of a product of intervals [lo_i, hi_i], one per interval.

    Each has the rows -x <= -lo and x <= hi with int coefficients, and the
    vertices (lo,) and (hi,), or just (lo,) when lo = hi; the bounds, ints
    or Fractions, are kept as they were given.
    """
    return [([([-1], -lo), ([1], hi)], [(lo,), (hi,)] if lo != hi else [(lo,)])
            for lo, hi in bounds]
