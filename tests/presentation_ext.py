"""Reference Ext^1 along a projective presentation 0 -> K -> P0 -> Z -> 0.

This is the route `qtors.rep` took before Ext^1(Z, X) became the cokernel
of the intertwining matrix: cocycles are morphisms K -> X, the
coboundaries are the restrictions of morphisms P0 -> X, and the middle term
of an extension is the pushout (X + P0) / graph.  It is kept only as a test
oracle for the dimension, the cocycle classes and the middle terms.

`fraction_int_kernel` is the oracle of `_kernel_triples`: the kernel
basis of the entry-wise `Fraction` matrix of `fraction_linalg`, each
vector scaled to a primitive integer vector; `dense_kernel` makes the
triples a dense basis to compare with it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

import numpy as np

from qtors import (
    Matrix,
    Rep,
    extend_to_basis,
    hom_basis,
    projective_presentation,
)
from qtors.linalg import complement_indices
from qtors.modkernel import int_array
from qtors.rep import Morphism, PresentationData, _paths_from

import fraction_linalg


def nonzero_triples(
    a: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple[int, int]]:
    """The ModKernel input of a dense integer matrix (int64 or object): the
    row indices, column indices and values of its non-zero entries, and its
    shape."""
    ri, ci = np.nonzero(a)
    return ri, ci, a[ri, ci], a.shape


def fraction_int_kernel(mat: np.ndarray) -> np.ndarray:
    """Integer basis of the rational kernel of an integer matrix, shape
    (ncols, nullity): the `Fraction` kernel basis (1 at each free column in
    increasing order, 0 at the other free columns), each vector times the
    least common multiple of its denominators, which makes it primitive
    with a positive entry at its free column.  int64 when every entry
    fits, object otherwise."""
    m, n = mat.shape
    basis = fraction_linalg.Matrix(m, n, mat.tolist()).kernel_basis()
    if not basis:
        return np.zeros((n, 0), dtype=np.int64)
    cols = []
    for vec in basis:
        den = lcm(*(x.denominator for x in vec))
        cols.append([int(x * den) for x in vec])
    return int_array(cols).T


def dense_kernel(
    triples: tuple[np.ndarray, np.ndarray, np.ndarray, int], nrows: int
) -> np.ndarray:
    """The (nrows, nullity) kernel basis whose non-zero entries are the
    (rows, columns, values, nullity) of `qtors.rep._kernel_triples`, in the
    dtype of the values."""
    rows, cols, vals, nullity = triples
    kernel = np.zeros((nrows, nullity), dtype=vals.dtype)
    kernel[rows, cols] = vals
    return kernel


def compose(g: Morphism, f: Morphism) -> Morphism:
    """g after f, vertexwise."""
    return tuple(gm * fm for gm, fm in zip(g, f))


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
        return self.image.solve(self.coordinates(cocycle)) is not None

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
