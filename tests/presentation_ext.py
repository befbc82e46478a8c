"""Reference Ext^1 along a projective presentation 0 -> K -> P0 -> Z -> 0.

This is the route `qtors.rep` took before Ext^1(Z, X) became the cokernel
of the intertwining matrix: cocycles are morphisms K -> X, the
coboundaries are the restrictions of morphisms P0 -> X, and the middle term
of an extension is the pushout (X + P0) / graph.  It is kept only as a test
oracle for the dimension, the cocycle classes and the middle terms.
"""

from __future__ import annotations

from fractions import Fraction

from qtors import (
    Matrix,
    Rep,
    column_space_contains,
    extend_to_basis,
    hom_basis,
    projective_presentation,
)
from qtors.linalg import complement_indices
from qtors.rep import Morphism, PresentationData, _paths_from, compose


def _flatten(f: Morphism) -> list[Fraction]:
    return [e for m in f for e in m.entries()]


def projective_hom_basis(pres: PresentationData, x: Rep) -> list[Morphism]:
    """Basis of Hom(P0, X): a morphism is fixed by the image of the top of
    each summand P(v_i), any vector of X_{v_i}.  The element for (i, j) sends
    the top of summand i to the j-th standard basis vector of X_{v_i} and the
    other tops to 0; at w it sends the path p of P(v_i)_w to column j of
    x.path_map(p, v_i), in the column order of `projective_presentation`."""
    q = x.quiver
    paths = {v: _paths_from(q, v) for v in set(pres.tops)}
    blocks = {
        (v, w): [x.path_map(p, v) for p in paths[v][w]]
        for v in paths
        for w in range(1, q.n + 1)
    }
    basis = []
    for i, v in enumerate(pres.tops):
        for j in range(x.dim(v)):
            f = []
            for w in range(1, q.n + 1):
                zero = [Fraction(0)] * x.dim(w)
                cols = [
                    m.col(j) if k == i else zero
                    for k, u in enumerate(pres.tops)
                    for m in blocks[u, w]
                ]
                f.append(Matrix.from_columns(cols, nrows=x.dim(w)))
            basis.append(tuple(f))
    return basis


class PresentationExt:
    """Ext^1(Z, X) as the cokernel of Hom(P0, X) -> Hom(K, X), restriction
    along the inclusion K -> P0; z must be non-zero."""

    def __init__(self, x: Rep, z: Rep):
        self.x = x
        self.pres = projective_presentation(z)
        self.hom_k = hom_basis(self.pres.kernel, x)
        self._coords = Matrix.from_columns(
            [_flatten(f) for f in self.hom_k],
            nrows=sum(d * k for d, k in zip(x.dims, self.pres.kernel.dims)),
        )
        basis = projective_hom_basis(self.pres, x)
        self.image = Matrix.from_columns(
            [self.coordinates(compose(f, self.pres.incl)) for f in basis],
            nrows=len(self.hom_k),
        )
        self.cocycles = [self.hom_k[i] for i in complement_indices(self.image)]
        self.dimension = len(self.cocycles)

    def coordinates(self, g: Morphism) -> list[Fraction]:
        """hom_k coordinates of a morphism K -> X."""
        sol = self._coords.solve(_flatten(g))
        if sol is None:
            raise ValueError("map outside Hom(K, X)")
        return sol

    def is_coboundary(self, cocycle: Morphism) -> bool:
        return column_space_contains(self.image, self.coordinates(cocycle))

    def middle_term(self, cocycle: Morphism) -> Rep:
        """The pushout E = (X + P0) / graph of the cocycle K -> X."""
        x, pres = self.x, self.pres
        q = x.quiver
        quot = []  # E_v <- X_v + P0_v
        sec = []  # a section of quot
        for v in range(q.n):
            graph = Matrix.vstack([cocycle[v], -pres.incl[v]])
            comp = extend_to_basis(graph)
            b = Matrix.hstack([graph, comp]) if graph.cols else comp
            quot.append(b.inverse().submatrix(range(graph.cols, b.rows), range(b.rows)))
            sec.append(comp)
        maps = tuple(
            quot[t - 1] * Matrix.block_diag([x.arrow_maps[a], pres.p0.arrow_maps[a]]) * sec[s - 1]
            for a, (s, t) in enumerate(q.arrows)
        )
        return Rep(q, tuple(m.rows for m in quot), maps)
