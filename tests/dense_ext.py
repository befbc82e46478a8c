"""Reference Ext^1 as the cokernel of a dense intertwining matrix.

This is the route `qtors.rep.ExtGroup` took before it read its cocycles off
one sparse exact kernel: the intertwining matrix delta built as a dense
`Matrix`, and one RREF of [delta | I] whose identity-block pivots are the
cocycle coordinates and whose rows past the rank of delta project onto the
cokernel.  It is kept only as a test oracle, and the RREF is the entry-wise
`Fraction` one of `fraction_linalg`, so it shares no elimination with
qtors.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

import fraction_linalg
from qtors import Matrix, Rep
from qtors.rep import Morphism


def dense_delta(x: Rep, y: Rep) -> Matrix:
    """The map delta(phi)_a = y_a phi_s - phi_t x_a from the sum over
    vertices v of Hom_k(x_v, y_v) to the sum over arrows a: s -> t of
    Hom_k(x_s, y_t), as one dense exact matrix.  Variable (v, i, j) is
    entry (i, j) of phi_v; row (a, i, j) is entry (i, j) of delta(phi)_a,
    arrows in quiver order."""
    q = x.quiver
    offsets = []
    nvars = 0
    for v in range(q.n):
        offsets.append(nvars)
        nvars += y.dims[v] * x.dims[v]
    # integer rows over the lcm of all arrow denominators
    den = lcm(*(m._den for m in x.arrow_maps + y.arrow_maps))
    rows: list[tuple[int, ...]] = []
    for a, (s, t) in enumerate(q.arrows):
        s -= 1
        t -= 1
        xa, ya = x.arrow_maps[a], y.arrow_maps[a]
        fx, fy = den // xa._den, den // ya._den
        for i in range(y.dims[t]):
            yrow = ya._num[i]
            for j in range(x.dims[s]):
                row = [0] * nvars
                # phi_t[i][c] at offsets[t] + i * x_t + c
                o = offsets[t] + i * x.dims[t]
                for c in range(x.dims[t]):
                    row[o + c] -= fx * xa._num[c][j]
                # phi_s[c][j] at offsets[s] + c * x_s + j
                o = offsets[s] + j
                for c in range(y.dims[s]):
                    row[o + c * x.dims[s]] += fy * yrow[c]
                rows.append(tuple(row))
    return Matrix._reduce(len(rows), nvars, tuple(rows), den)


def cokernel(m: Matrix) -> tuple[list[int], Matrix]:
    """The indices j of the standard vectors e_j that complete the column
    span of m greedily in index order, and a projection P whose kernel is
    that span: P m = 0, and P e_j is the k-th unit vector for the k-th
    index j.

    The RREF of [m | I] is E [m | I] for an invertible E; the rows past the
    rank of m are zero on m, and their identity parts, whose pivots are the
    picked e_j, are P.
    """
    n, c, den = m.rows, m.cols, m._den
    aug = fraction_linalg.Matrix(
        n,
        c + n,
        [
            [Fraction(x, den) if x else 0 for x in r] + [int(i == j) for j in range(n)]
            for i, r in enumerate(m._num)
        ],
    )
    red, pivots, _ = aug.rref()
    rank = sum(1 for p in pivots if p < c)
    picked = [p - c for p in pivots[rank:]]
    return picked, Matrix(len(picked), n, [red.row(r)[c:] for r in range(rank, n)])


def flatten(cocycle: Morphism) -> list:
    """An arrow tuple as its cocycle coordinates, arrow by arrow, row-major."""
    return [e for m in cocycle for e in m.entries()]


def unflatten(flat: list, shapes: list[tuple[int, int]]) -> Morphism:
    """Cocycle coordinates as an arrow tuple of the given shapes."""
    maps, o = [], 0
    for r, c in shapes:
        maps.append(Matrix(r, c, [flat[o + i * c : o + (i + 1) * c] for i in range(r)]))
        o += r * c
    return tuple(maps)


class DenseExt:
    """Ext^1(Z, X) from the dense delta and its [delta | I] elimination: the
    picked coordinates, every cocycle built at once, and the coboundary
    test P eta = 0."""

    def __init__(self, x: Rep, z: Rep):
        self.delta = dense_delta(z, x)
        self.picked, self.projection = cokernel(self.delta)
        self.shapes = [(x.dims[t - 1], z.dims[s - 1]) for s, t in x.quiver.arrows]
        self.cocycles = [
            unflatten([int(i == k) for i in range(self.delta.rows)], self.shapes)
            for k in self.picked
        ]

    def is_coboundary(self, cocycle: Morphism) -> bool:
        return not any(self.projection.apply(flatten(cocycle)))
