"""Certified kernel computations for integer matrices.

Exact answers only: reduction mod a prime can merely *lower* the rank of an
integer matrix, so a mod-p kernel dimension is a rigorous upper bound for
the rational kernel dimension, and the exact kernel dimension and vectors
come from an elimination over the integers.  Both eliminations are sparse:
one connected component of the matrix at a time, each row a dict of its
non-zero entries, forward elimination first.  Modulo the prime the entries
are Python ints reduced at every step, and the canonical kernel vectors mod
p are back-substituted from the forward echelon form when first read.  Over
the integers it is the fraction-free elimination of qtors.linalg (which
`Matrix.rref` runs too), back-substituted once (`exact_kernel`, which gives
the presentation kernels, Ext groups and `hom_basis` of qtors.rep).  Dense
residue matrices (rank tests, products) stay numpy float64 with deferred
reduction: products stay below 2**53, hence exact.
"""

from __future__ import annotations

import random
from math import gcd, lcm
from typing import Iterable, Iterator

import numpy as np

from .linalg import _back_substitute, _echelon, _pivot_groups

# a prime just below 2**19: with p**2 < 2**38, up to ~2**14 accumulated
# products of reduced values fit in float64 exactly, so reductions mod p can
# be deferred across the whole elimination of a matrix with <= 8192 rows or
# columns, and a dot product of reduced vectors over <= 8192 entries is exact
PRIME = 524287

_MAX_COLS = 8192  # deferred-reduction exactness bound for the prime size


class ReconstructionError(RuntimeError):
    """A rational kernel vector that did not reconstruct from residues.
    Exact kernels come from the fraction-free elimination and never raise
    it; the benchmark tracer counts its instances by name."""


def _row_dicts(ri: np.ndarray, ci: np.ndarray, vals: list[int]) -> Iterable[dict[int, int]]:
    """The rows of a matrix whose entry at (ri[k], ci[k]) is vals[k], each
    a dict {column: value} of its non-zero values, in the order of their
    first entries (row order for the entries of `np.nonzero`); rows
    without one are left out."""
    rows: dict[int, dict[int, int]] = {}
    for i, j, v in zip(ri.tolist(), ci.tolist(), vals):
        if v:
            row = rows.get(i)
            if row is None:
                rows[i] = {j: v}
            else:
                row[j] = v
    return rows.values()


def echelon_mod_p(a: np.ndarray, p: int) -> tuple[list[dict[int, int]], list[int]]:
    """Forward echelon form of the integer matrix `a` mod p: returns (rows,
    pivot_columns), the r non-zero echelon rows in pivot order and their r
    pivot columns.  Row i is a dict {column: residue} of its non-zero
    residues in [1, p): 1 at pivot column i and nothing left of it; it is
    not reduced above the later pivots (see `_BlockMatrix.kernel`).  `a`
    holds integers of any integer dtype, or Python ints in an object
    array, and is only read.

    A sparse elimination over the columns in order (`_pivot_groups`), on
    Python ints reduced mod p at every step: the pivot row is normalized,
    and its multiple is subtracted from the other rows waiting under its
    column.  The greedy pivot columns of an echelon form do not depend on
    the choice of pivot row, and only non-zero entries are ever visited:
    a fully dense n x n matrix costs about n**3/3 updates of Python ints,
    a Hom block with little fill about as many as its entries.  Every
    value is reduced when it is made, so no size bounds its exactness.
    """
    ri, ci = np.nonzero(a)
    out: list[dict[int, int]] = []
    pivots: list[int] = []
    for c, group in _pivot_groups(_row_dicts(ri, ci, [v % p for v in a[ri, ci].tolist()])):
        inv = pow(group[0][c], -1, p)
        pivot = {j: v * inv % p for j, v in group[0].items()}
        out.append(pivot)
        pivots.append(c)
        for row in group[1:]:
            f = row[c]
            for j, v in pivot.items():
                w = (row.get(j, 0) - f * v) % p
                if w:
                    row[j] = w
                else:
                    del row[j]
    return out, pivots


def _exact_echelon(
    rows: np.ndarray, cols: np.ndarray, vals: np.ndarray
) -> tuple[list[dict[int, int]], list[int]]:
    """Forward echelon form over the integers of the integer matrix whose
    non-zero entries are vals (int64, or Python ints in an object array)
    at (rows, cols), each position at most once, as `echelon_mod_p` gives
    it mod p: (rows, pivot_columns), row i a dict {column: int} of its
    non-zero entries, non-zero at pivot column i and nothing left of it.
    The fraction-free elimination of qtors.linalg (`linalg._echelon`)."""
    return _echelon(_row_dicts(rows, cols, vals.tolist()))


def exact_kernel(
    rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, ncols: int
) -> dict[int, list[tuple[int, int, int]]]:
    """The exact kernel of the integer matrix with ncols columns whose
    non-zero entries are vals at (rows, cols) (`_exact_echelon`): for every
    free column f, ascending, the entries (c, h, v) of column f of the
    reduced echelon form over the integers, one per row with pivot column
    c (ascending), entry h there and v != 0 at f.  One `_exact_echelon`,
    back-substituted (`linalg._back_substitute`)."""
    ech, piv = _exact_echelon(rows, cols, vals)
    _back_substitute(ech, piv)
    pivots = set(piv)
    out = {f: [] for f in range(ncols) if f not in pivots}
    for row, c in zip(ech, piv):
        h = row[c]
        for f, v in row.items():
            if f != c:
                out[f].append((c, h, v))
    return out


def primitive_vector(entries: list[tuple[int, int, int]]) -> tuple[int, list[tuple[int, int]]]:
    """The canonical kernel vector with the entries (c, h, v) of
    `exact_kernel`, 1 at its free column and -v/h at each c, times the least
    d that makes it integral, which makes it primitive: returns d and the
    pairs (c, -d * v / h)."""
    den = lcm(1, *(h // gcd(h, v) for _, h, v in entries))
    return den, [(c, -(den * v // h)) for c, h, v in entries]


def pivot_columns_mod_p(a: np.ndarray, p: int) -> list[int]:
    """The greedy pivot columns of `a` mod p (the columns outside the span
    of the columns before them), which are the pivot columns of its
    echelon form, by forward elimination alone.  `a` holds residues mod p
    as float64 and is used as scratch: its contents afterwards are
    unspecified.

    The k-th pivot row is swapped into row k, normalized right of its pivot
    and its rank-1 update is subtracted from the contiguous block of rows
    below it and columns right of it; rows above are never touched.  A
    column is reduced mod p when it is searched and a pivot row when it is
    normalized; every other reduction is deferred: with p < 2**19 each entry
    gains at most one product of reduced residues, below 2**38, per pivot,
    and there are at most min(rows, cols) <= _MAX_COLS = 2**13 pivots, so
    float64 holds every value exactly.  Dense residue matrices, such as
    the Gen certificate's, go here; sparse blocks go to `echelon_mod_p`."""
    m, n = a.shape
    if min(m, n) > _MAX_COLS:
        raise ValueError("matrix too large for exact deferred reduction")
    pivots: list[int] = []
    r = 0
    for c in range(n):
        if r == m:
            break
        col = a[r:, c]
        np.remainder(col, p, out=col)
        nz = col.nonzero()[0]
        if not nz.size:
            continue
        if nz[0]:
            k = r + int(nz[0])
            a[[r, k], c:] = a[[k, r], c:]
        if nz.size > 1:
            pivot = a[r, c + 1 :]
            np.remainder(pivot, p, out=pivot)
            pivot *= pow(int(a[r, c]), -1, p)
            np.remainder(pivot, p, out=pivot)
            a[r + 1 :, c + 1 :] -= np.multiply.outer(a[r + 1 :, c], pivot)
        pivots.append(c)
        r += 1
    return pivots


def matmul_mod_p(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b mod p for float64 arrays of residues mod p, where b is a matrix
    or a stack of matrices; exact at any inner width, since the partial
    products are reduced every _MAX_COLS terms."""
    if a.shape[1] <= _MAX_COLS:
        out = a @ b
        return np.remainder(out, p, out=out)
    out = 0
    for c in range(0, a.shape[1], _MAX_COLS):
        out = (out + a[:, c : c + _MAX_COLS] @ b[..., c : c + _MAX_COLS, :]) % p
    return out


def _draw(seed: int, shape: tuple[int, int], modulus: int) -> np.ndarray:
    """Pseudo-random uint32 array of the given shape with entries in [0,
    modulus) for a modulus up to 2**32, deterministic in `seed`: 32 random
    bits per entry from one draw of random bytes, reduced.  The slight bias
    of the reduction only matters to how often a random candidate helps,
    never to an answer."""
    raw = random.Random(seed).randbytes(4 * shape[0] * shape[1])
    return (np.frombuffer(raw, dtype=np.uint32) % np.uint32(modulus)).reshape(shape)


def int_array(rows: list[list[int]]) -> np.ndarray:
    """Integer rows as an int64 array when every entry fits, as an object
    array of Python ints otherwise."""
    try:
        return np.array(rows, dtype=np.int64)
    except OverflowError:
        return np.array(rows, dtype=object)


def max_abs(a: np.ndarray) -> int:
    """Largest absolute entry of an integer array (int64 or object) as a
    Python int; 0 for an empty array."""
    return int(np.abs(a).max()) if a.size else 0


def _components(
    ri: np.ndarray, ci: np.ndarray, shape: tuple[int, int]
) -> tuple[np.ndarray, np.ndarray]:
    """Connected components of the bipartite graph joining row ri[k] to
    column ci[k] for every non-zero entry k of a matrix of the given shape,
    as the component number of every row and of every column.  Components
    are numbered in ascending order of their smallest column; columns
    without a non-zero entry form one last component with no rows, and
    zero rows belong to no component (number -1)."""
    m, n = shape
    # min-label propagation with pointer jumping: each column's label is a
    # column of its component no larger than itself, and labels only fall,
    # so the loop ends; at its fixed point every row sees a single label
    lab = np.arange(n)
    while True:
        rowlab = np.full(m, n)
        np.minimum.at(rowlab, ri, lab[ci])
        new = lab.copy()
        np.minimum.at(new, ci, rowlab[ri])
        new = new[new]
        if np.array_equal(new, lab):
            break
        lab = new
    live = np.zeros(n, dtype=bool)
    live[ci] = True
    lab[~live] = n
    # number the labels in ascending order; the label n of the empty
    # columns comes last
    seen = np.zeros(n + 1, dtype=bool)
    seen[lab] = True
    number = np.cumsum(seen) - 1
    return np.where(rowlab < n, number[rowlab], -1), number[lab]


class _BlockMatrix:
    """Integer sub-matrix of one or more connected components of a ModKernel
    matrix (components with identical entries share it), with its forward
    echelon form mod PRIME, the canonical kernel coordinates mod PRIME
    (back-substituted when first read) and its exact kernel (eliminated
    when first asked for)."""

    def __init__(self, base: np.ndarray):
        self.base = base
        self.pivot_rows, self.pivots = echelon_mod_p(base, PRIME)
        self._kernel: tuple[np.ndarray, np.ndarray] | None = None
        self._exact: dict[int, list[tuple[int, int, int]]] | None = None

    def kernel(self) -> tuple[np.ndarray, np.ndarray]:
        """Canonical kernel vectors mod PRIME: the slot of every local
        column among the free ones (-1 at a pivot) and the float64
        pivot-coordinate block, one column per free column, which is minus
        the free columns of the reduced echelon form.

        Sparse back-substitution, last pivot row first: the reduced row of
        pivot i is its forward row minus, for each later pivot j the row
        holds, that entry times the reduced row of j.  Reduced rows are 0 at
        the other pivots, so only their free entries are kept."""
        if self._kernel is None:
            p, ech, piv = PRIME, self.pivot_rows, self.pivots
            n = self.base.shape[1]
            slot = np.zeros(n, dtype=np.intp)
            slot[piv] = -1
            free = np.flatnonzero(slot == 0)
            slot[free] = np.arange(len(free))
            at = {c: i for i, c in enumerate(piv)}
            reduced: dict[int, dict[int, int]] = {}
            for i in range(len(piv) - 1, -1, -1):
                row = {j: v for j, v in ech[i].items() if j not in at}
                for j, f in ech[i].items():
                    t = at.get(j, i)
                    if t == i:
                        continue
                    for c, v in reduced[t].items():
                        w = (row.get(c, 0) - f * v) % p
                        if w:
                            row[c] = w
                        else:
                            del row[c]
                reduced[i] = row
            ii = [i for i, row in reduced.items() for _ in row]
            cc = [c for row in reduced.values() for c in row]
            vv = [v for row in reduced.values() for v in row.values()]
            coords = np.zeros((len(piv), len(free)), dtype=np.float64)
            coords[ii, slot[cc]] = np.subtract(p, vv, dtype=np.float64)
            self._kernel = (slot, coords)
        return self._kernel

    def exact_columns(self) -> dict[int, list[tuple[int, int, int]]]:
        """The exact kernel of the block matrix (`exact_kernel`), eliminated
        when first asked for."""
        if self._exact is None:
            ri, ci = np.nonzero(self.base)
            self._exact = exact_kernel(ri, ci, self.base[ri, ci], self.base.shape[1])
        return self._exact


class ModKernel:
    """Kernel analysis of one integer matrix: the rank mod PRIME gives the
    dimension upper bound and random kernel vectors mod PRIME, and an
    exact elimination gives the exact dimension and kernel vectors.

    The matrix is given by its non-zero entries: row indices, column
    indices and integer values (int64 or Python ints in an object array),
    each position at most once, and its shape.  It is split once into the
    connected components of its row-column graph and each component is
    eliminated on its own.  The greedy pivot columns of an echelon form
    are the columns outside the span of the columns before them, and that
    span splits along the components, so the pivots are those of one
    elimination of the whole matrix, mod PRIME or exactly; the canonical
    kernel vector of a free column is non-zero only inside that column's
    component.  Components with the same shape, dtype and entries share one
    `_BlockMatrix`: equal integer matrices have equal echelons and kernel
    vectors, so each is eliminated once mod PRIME and at most once
    exactly.  The split itself is held in flat arrays (the columns in
    component order, every block's offset and size in that order, every
    block's matrix), so only the distinct block matrices are Python
    objects.

    Exact kernel vectors are yielded as (numerators, denominator): integer
    entries over one positive denominator, in lowest terms."""

    def __init__(
        self,
        rows: np.ndarray,
        cols: np.ndarray,
        vals: np.ndarray,
        shape: tuple[int, int],
    ):
        m, n = shape
        self.ncols = n
        rowcomp, block_of = _components(rows, cols, shape)
        nb = int(block_of.max(initial=-1)) + 1
        # the columns in block order, ascending within a block, with every
        # block's offset into that order and its size; the local position of
        # every column and of every row inside its block
        corder = np.argsort(block_of, kind="stable")
        csize = np.bincount(block_of, minlength=nb)
        coff = np.cumsum(csize) - csize
        local = np.empty(n, dtype=np.intp)
        local[corder] = np.arange(n) - np.repeat(coff, csize)
        # (zero rows, numbered -1, sort first and are left out)
        rorder = np.argsort(rowcomp, kind="stable")[np.count_nonzero(rowcomp < 0) :]
        rsize = np.bincount(rowcomp[rorder], minlength=nb)
        roff = np.cumsum(rsize) - rsize
        local_row = np.zeros(m, dtype=np.intp)
        local_row[rorder] = np.arange(len(rorder)) - np.repeat(roff, rsize)
        # the cells of every block in one buffer, the blocks of one shape
        # adjacent and in block order, so that each shape is one stack of
        # matrices; one scatter fills them all
        shape_key = rsize * (n + 1) + csize
        border = np.argsort(shape_key, kind="stable")
        cells = rsize * csize
        boff = np.empty(nb, dtype=np.intp)
        boff[border] = np.cumsum(cells[border]) - cells[border]
        buf = np.zeros(int(cells.sum()), dtype=vals.dtype)
        eb = block_of[cols]
        buf[boff[eb] + local_row[rows] * csize[eb] + local[cols]] = vals
        # blocks with equal entries share one matrix: per matrix, the first
        # block holding it, its entries and the columns of the blocks
        # holding it; the matrices are numbered in the order of their first
        # blocks
        shared: list[tuple[int, np.ndarray, np.ndarray]] = []
        ends = np.flatnonzero(np.diff(shape_key[border])) + 1
        ends = ends.tolist() + [nb] if nb else []
        start = 0
        for end in ends:
            group = border[start:end]
            start, count = end, len(group)
            r, c = int(rsize[group[0]]), int(csize[group[0]])
            at = int(boff[group[0]])
            stack = buf[at : at + count * r * c].reshape(count, r, c)
            if buf.dtype == object:
                keys = map(tuple, stack.reshape(count, r * c).tolist())
            else:
                raw, size = stack.tobytes(), r * c * buf.itemsize
                keys = (raw[i * size : (i + 1) * size] for i in range(count))
            members: dict = {}
            for i, key in enumerate(keys):
                members.setdefault(key, []).append(i)
            distinct = stack[[ms[0] for ms in members.values()]]  # a copy
            columns = corder[coff[group, None] + np.arange(c)]
            for base, ms in zip(distinct, members.values()):
                shared.append((int(group[ms[0]]), base, columns[ms]))
        shared.sort(key=lambda rec: rec[0])
        self._matrices = [_BlockMatrix(base) for _, base, _ in shared]
        # the columns of every block sharing a matrix, one row per block
        self._instances = [columns for _, _, columns in shared]
        free = np.ones(n, dtype=bool)
        for bm, columns in zip(self._matrices, self._instances):
            free[columns[:, bm.pivots]] = False
        self._free = np.flatnonzero(free)

    @property
    def dim_upper_bound(self) -> int:
        """Exact upper bound for the rational kernel dimension: the nullity
        mod PRIME."""
        return len(self._free)

    def _exact_blocks(self) -> Iterator[tuple[_BlockMatrix, np.ndarray]]:
        """(matrix, columns of its blocks) of every block matrix with a free
        column mod PRIME; the rank mod PRIME is at most the rank over the
        rationals, so no other block has a rational kernel vector."""
        for bm, columns in zip(self._matrices, self._instances):
            if len(bm.pivots) < bm.base.shape[1]:
                yield bm, columns

    @property
    def nullity(self) -> int:
        """The exact dimension of the rational kernel."""
        return sum(
            len(columns) * len(bm.exact_columns()) for bm, columns in self._exact_blocks()
        )

    def random_residues(self, count: int, seed: int = 0) -> tuple[np.ndarray, int]:
        """`count` random kernel vectors modulo p = PRIME, with no lifting:
        the columns of an (ncols, count) float64 array of residues whose
        free coordinates are uniform in [0, p) (deterministic in `seed`)
        and whose pivot coordinates follow from the canonical kernel
        vectors, in one product per block matrix for all the blocks that
        share it.  Returns the array and p."""
        p = PRIME
        u = np.zeros((self.ncols, count), dtype=np.float64)
        u[self._free] = _draw(seed, (len(self._free), count), p)
        for bm, cols in zip(self._matrices, self._instances):
            slot, coords = bm.kernel()
            if not coords.size:  # no pivots, or no free columns
                continue
            # (blocks, free, count) -> (blocks, pivots, count)
            u[cols[:, bm.pivots]] = matmul_mod_p(coords, u[cols[:, slot >= 0]], p)
        return u, p

    def exact_vectors(self) -> Iterator[tuple[list[int], int]]:
        """Yield the canonical basis of the rational kernel as (numerators,
        denominator), one vector per free column of the exact pivot
        structure, in ascending order: 1 at its own free column and 0 at
        the others, so the vectors are independent, and there are
        `nullity` of them.  Each is the primitive integer vector on its
        ray with its positive entry at its free column, over that entry as
        denominator: a canonical vector in lowest terms.

        The exact free columns of every block are collected before the
        first vector is yielded: under an unlucky prime they differ from
        the free columns mod PRIME, so the global order is only known once
        every block with a free column mod PRIME is eliminated."""
        found = []
        for bm, columns in self._exact_blocks():
            kernel = bm.exact_columns()
            for cols in columns.tolist():
                found += [(cols[f], cols, entries) for f, entries in kernel.items()]
        found.sort(key=lambda rec: rec[0])
        for col, cols, entries in found:
            den, body = primitive_vector(entries)
            out = [0] * self.ncols
            out[col] = den
            for c, v in body:
                out[cols[c]] = v
            yield out, den
