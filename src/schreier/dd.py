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

Seeding requires a starting polytope whose vertices and tight masks are
known; callers here use boxes, simplices, and their products.
"""

from dataclasses import dataclass
from fractions import Fraction


@dataclass
class DDVertex:
    point: tuple[Fraction, ...]
    tight: int  # bitmask over the constraint list


class DDPolytope:
    """Bounded polytope carried as (H-list, V-list with tight masks)."""

    def __init__(self, dim: int, seed_rows, seed_vertices):
        """seed_rows: list of (coeffs, rhs) meaning coeffs.x <= rhs.
        seed_vertices: exact vertex points of the seed polytope."""
        self.dim = dim
        self.rows: list[tuple[tuple[Fraction, ...], Fraction]] = [
            (tuple(Fraction(a) for a in coeffs), Fraction(b)) for coeffs, b in seed_rows
        ]
        self.vertices: list[DDVertex] = []
        for point in seed_vertices:
            point = tuple(Fraction(v) for v in point)
            self.vertices.append(DDVertex(point, self._tight_mask(point)))

    def _tight_mask(self, point) -> int:
        mask = 0
        for idx, (coeffs, b) in enumerate(self.rows):
            if _dot(coeffs, point) == b:
                mask |= 1 << idx
        return mask

    def add_constraint(self, coeffs, b) -> None:
        coeffs = tuple(Fraction(a) for a in coeffs)
        b = Fraction(b)
        idx = len(self.rows)
        self.rows.append((coeffs, b))
        bit = 1 << idx

        slack = [b - _dot(coeffs, v.point) for v in self.vertices]
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
        if not minus:
            self.vertices = keep
            return

        masks = [v.tight for v in self.vertices]
        new_vertices: list[DDVertex] = []
        for i in plus:
            for j in minus:
                common = masks[i] & masks[j]
                if common.bit_count() < self.dim - 1 or not self._adjacent(i, j, common, masks):
                    continue
                si, sj = slack[i], slack[j]
                t = si / (si - sj)  # sj < 0 < si
                u, w = self.vertices[i].point, self.vertices[j].point
                point = tuple(a + t * (c - a) for a, c in zip(u, w))
                new_vertices.append(DDVertex(point, common | bit))
        self.vertices = keep + new_vertices

    def _adjacent(self, i: int, j: int, common: int, masks: list[int]) -> bool:
        for k, mask in enumerate(masks):
            if k != i and k != j and mask & common == common:
                return False
        return True


def _dot(coeffs, point) -> Fraction:
    return sum((a * v for a, v in zip(coeffs, point) if a), Fraction(0))


def box_seed(bounds) -> tuple[list, list]:
    """Seed rows and vertices for a product of intervals [lo_i, hi_i]."""
    dim = len(bounds)
    rows = []
    for i, (lo, hi) in enumerate(bounds):
        row_lo = [Fraction(0)] * dim
        row_lo[i] = Fraction(-1)
        rows.append((row_lo, -Fraction(lo)))
        row_hi = [Fraction(0)] * dim
        row_hi[i] = Fraction(1)
        rows.append((row_hi, Fraction(hi)))
    vertices = [()]
    for lo, hi in bounds:
        vertices = [v + (val,) for v in vertices for val in ((Fraction(lo), Fraction(hi)) if lo != hi else (Fraction(lo),))]
    return rows, vertices
