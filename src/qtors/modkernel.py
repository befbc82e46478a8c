"""Fast certified kernel computations for integer matrices.

Exact answers only: reduction mod a prime can merely *lower* the rank of an
integer matrix, so a mod-p kernel dimension is a rigorous upper bound for
the rational kernel dimension, while lower bounds are only ever claimed by
exhibiting explicit rational kernel vectors that are re-verified in exact
arithmetic.  The modular eliminations are sparse: one connected component
of the matrix at a time, each row a dict of its non-zero residues, Python
ints reduced mod p at every step, forward elimination only.  The canonical
kernel vectors mod p are back-substituted from the forward echelon form
when first read, and candidate rational vectors are recovered from them by
CRT across several primes followed by rational reconstruction.  Dense
residue matrices (rank tests, products) stay numpy float64 with deferred
reduction: products stay below 2**53, hence exact.
"""

from __future__ import annotations

import heapq
import random
from collections.abc import Sequence
from math import gcd, lcm
from typing import Iterator

import numpy as np

# primes just below 2**19: with p**2 < 2**38, up to ~2**14 accumulated
# products of reduced values fit in float64 exactly, so reductions mod p can
# be deferred across the whole elimination of a matrix with <= 8192 rows or
# columns, and a dot product of reduced vectors over <= 8192 entries is exact
PRIMES = (
    524287, 524269, 524261, 524257, 524243, 524231, 524221, 524219,
    524203, 524201, 524197, 524189, 524171, 524149, 524123, 524119,
)

_MAX_COLS = 8192  # deferred-reduction exactness bound for the prime size

_MAX_PRIMES = 8  # primes a kernel may use before reconstruction gives up


# verification primes, the 64 largest below 2**24: large enough that few are
# needed to exceed the bit bound of an exact dot product, small enough that
# the int64 matvec (base % q) @ (vec % q) cannot overflow for <= _MAX_COLS
# columns
_VERIFY_PRIMES = (
    16777213, 16777199, 16777183, 16777153, 16777141, 16777139, 16777127, 16777121,
    16777099, 16777049, 16777027, 16776989, 16776973, 16776971, 16776967, 16776961,
    16776941, 16776937, 16776931, 16776919, 16776901, 16776899, 16776869, 16776857,
    16776839, 16776833, 16776817, 16776763, 16776731, 16776719, 16776713, 16776691,
    16776689, 16776679, 16776659, 16776631, 16776623, 16776619, 16776607, 16776593,
    16776581, 16776547, 16776521, 16776491, 16776481, 16776469, 16776451, 16776401,
    16776391, 16776379, 16776371, 16776367, 16776343, 16776337, 16776317, 16776313,
    16776289, 16776217, 16776211, 16776191, 16776187, 16776173, 16776169, 16776167,
)


class ReconstructionError(RuntimeError):
    """Raised when no prime schedule yields verifiable rational vectors."""


def echelon_mod_p(a: np.ndarray, p: int) -> tuple[list[dict[int, int]], list[int]]:
    """Forward echelon form of the integer matrix `a` mod p: returns (rows,
    pivot_columns), the r non-zero echelon rows in pivot order and their r
    pivot columns.  Row i is a dict {column: residue} of its non-zero
    residues in [1, p): 1 at pivot column i and nothing left of it; it is
    not reduced above the later pivots (see `_BlockMatrix.kernel`).  `a`
    holds integers, int64 or Python ints in an object array, and is only
    read.

    A sparse elimination over the columns in order, on Python ints reduced
    mod p at every step.  Every row that holds no pivot yet waits under its
    leading column; when that column comes up, the waiting row with the
    fewest entries becomes its pivot row and is normalized, and its
    multiple is subtracted from the other waiting rows, which then wait
    under their new leading columns.  Rows with a pivot are never touched
    again.  The greedy pivot columns of an echelon form do not depend on
    the choice of pivot row, and only non-zero entries are ever visited:
    a fully dense n x n matrix costs about n**3/3 updates of Python ints,
    a Hom block with little fill about as many as its entries.  A matrix
    whose smaller side exceeds _MAX_COLS is refused before anything is
    read; that is the size limit of one Hom block.
    """
    m, n = a.shape
    if min(m, n) > _MAX_COLS:
        raise ValueError("matrix too large for one block elimination")
    ri, ci = np.nonzero(a)
    res = (a[ri, ci] % p).tolist()
    rows: dict[int, dict[int, int]] = {}
    for i, j, v in zip(ri.tolist(), ci.tolist(), res):
        if v:
            row = rows.get(i)
            if row is None:
                rows[i] = {j: v}
            else:
                row[j] = v
    # the rows without a pivot, each under its leading column
    waiting: dict[int, list[dict[int, int]]] = {}
    for row in rows.values():
        waiting.setdefault(min(row), []).append(row)
    heads = list(waiting)
    heapq.heapify(heads)
    out: list[dict[int, int]] = []
    pivots: list[int] = []
    while heads:
        c = heapq.heappop(heads)
        group = waiting.pop(c)
        group.sort(key=len)  # stable: the first of the fewest entries
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
            if row:
                head = min(row)
                if head in waiting:
                    waiting[head].append(row)
                else:
                    waiting[head] = [row]
                    heapq.heappush(heads, head)
    return out, pivots


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


def _crt_pair(r1: int, m1: int, r2: int, m2: int) -> tuple[int, int]:
    t = ((r2 - r1) * pow(m1, -1, m2)) % m2
    return r1 + m1 * t, m1 * m2


def _rational_reconstruct(u: int, m: int) -> tuple[int, int] | None:
    """Wang's algorithm: the unique n/d with |n|, d <= sqrt(m/2), d > 0,
    gcd(d, m) = 1 and n = u*d mod m, as (n, d) in lowest terms, if it
    exists."""
    a0, a1 = m, u % m
    x0, x1 = 0, 1
    while a1 * a1 * 2 > m:
        q = a0 // a1
        a0, a1 = a1, a0 - q * a1
        x0, x1 = x1, x0 - q * x1
    if x1 == 0 or x1 * x1 * 2 > m:
        return None
    n, d = a1, x1
    if d < 0:
        n, d = -n, -d
    if gcd(n, d) != 1:
        return None
    if n * n * 2 > m:
        return None
    return n, d


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
    matrix (components with identical entries share it), with one forward
    echelon form per prime of the schedule, the canonical kernel
    coordinates of each (back-substituted when first read) and the residues
    of its verification primes."""

    def __init__(self, base: np.ndarray):
        self.base = base
        self.max_abs = max_abs(base)
        self.echelons: list[tuple[list[dict[int, int]], list[int]]] = []
        self._kernels: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self.verify_residues: dict[int, np.ndarray] = {}

    def kernel(self, k: int, p: int) -> tuple[np.ndarray, np.ndarray]:
        """Canonical kernel vectors of the echelon at the k-th prime p: the
        slot of every local column among the free ones (-1 at a pivot) and
        the float64 pivot-coordinate block, one column per free column,
        which is minus the free columns of the reduced echelon form.

        Sparse back-substitution, last pivot row first: the reduced row of
        pivot i is its forward row minus, for each later pivot j the row
        holds, that entry times the reduced row of j.  Reduced rows are 0 at
        the other pivots, so only their free entries are kept."""
        out = self._kernels.get(k)
        if out is None:
            ech, piv = self.echelons[k]
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
            out = self._kernels[k] = (slot, coords)
        return out

    def verified(self, w: list[int]) -> bool:
        """Exact zero test of base @ w for an integer vector w (numerators
        over any common denominator): the integers base @ w are checked to
        vanish modulo verification primes whose product exceeds twice the
        a-priori magnitude bound, so vanishing modulo all of them implies
        vanishing over the integers."""
        if self.base.shape[0] == 0:
            return True
        bound = 2 * len(w) * self.max_abs * max(
            (abs(c) for c in w), default=0
        ) + 1
        nzi = [j for j, c in enumerate(w) if c]
        sparse = len(nzi) * 2 < len(w)
        modulus = 1
        for q in _VERIFY_PRIMES:
            if modulus > bound:
                return True
            rq = self.verify_residues.get(q)
            if rq is None:
                rq = (self.base % q).astype(np.int64)
                self.verify_residues[q] = rq
            if sparse:
                wq = np.array([w[j] % q for j in nzi], dtype=np.int64)
                rq = rq[:, nzi]
            else:
                wq = np.array([c % q for c in w], dtype=np.int64)
            prod = np.zeros(rq.shape[0], dtype=np.int64)
            for c in range(0, len(wq), _MAX_COLS):  # no int64 overflow
                prod = (prod + rq[:, c : c + _MAX_COLS] @ wq[c : c + _MAX_COLS]) % q
            if prod.any():
                return False
            modulus *= q
        # the candidate's entries are too tall for the prime pool; fall back
        # to the direct exact dot products
        nz = [(j, c) for j, c in enumerate(w) if c]
        return not any(
            sum(int(row[j]) * c for j, c in nz) for row in self.base
        )


class _Blocks(Sequence):
    """The (columns, block matrix) pair of every component of a ModKernel
    matrix, in component order, read off the flat block arrays when
    asked."""

    def __init__(self, corder, coff, csize, matrix_of, matrices):
        self._corder, self._coff, self._csize = corder, coff, csize
        self._matrix_of, self._matrices = matrix_of, matrices

    def __len__(self) -> int:
        return len(self._coff)

    def __getitem__(self, i: int) -> tuple[np.ndarray, _BlockMatrix]:
        at = int(self._coff[i])
        return (
            self._corder[at : at + int(self._csize[i])],
            self._matrices[int(self._matrix_of[i])],
        )


def _reconstructed(
    residues: list[list[int]], primes: list[int]
) -> tuple[list[int], int] | None:
    """Rational vector whose entries reduce to the given residue vectors
    modulo the given primes (CRT, then rational reconstruction), as integer
    numerators over one positive denominator, in lowest terms; None when
    some entry does not reconstruct."""
    res, mod = residues[0], primes[0]
    for vec, p in zip(residues[1:], primes[1:]):
        res = [_crt_pair(r1, mod, r2, p)[0] for r1, r2 in zip(res, vec)]
        mod *= p
    fracs: list[tuple[int, int]] = []
    den = 1
    for u in res:
        if not u:
            fracs.append((0, 1))
            continue
        fr = _rational_reconstruct(u, mod)
        if fr is None:
            return None
        fracs.append(fr)
        den = lcm(den, fr[1])
    return [n * (den // d) for n, d in fracs], den


class ModKernel:
    """Kernel analysis of one integer matrix, growing a prime schedule
    lazily: one prime gives the dimension upper bound and the pivot/free
    structure, more primes refine CRT residues until rational kernel
    vectors reconstruct and verify.

    The matrix is given by its non-zero entries: row indices, column
    indices and integer values (int64 or Python ints in an object array),
    each position at most once, and its shape.  It is split once into the
    connected components of its row-column graph and every prime
    eliminates each component on its own.  The greedy pivot
    columns of an echelon form are the columns outside the span of the
    columns before them, and that span splits along the components, so the
    pivots are those of one elimination of the whole matrix; the canonical
    kernel vector of a free column is non-zero only inside that column's
    component.  Components with the same shape, dtype and entries share one
    `_BlockMatrix`: equal integer matrices have equal echelons, kernel
    vectors and verification results, so each is eliminated once per
    prime.  The split itself is held in flat arrays (the columns in
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
        rowcomp, self._block_of = _components(rows, cols, shape)
        nb = int(self._block_of.max(initial=-1)) + 1
        # the columns in block order, ascending within a block, with every
        # block's offset into that order and its size; the local position of
        # every column and of every row inside its block
        corder = np.argsort(self._block_of, kind="stable")
        csize = np.bincount(self._block_of, minlength=nb)
        coff = np.cumsum(csize) - csize
        self._local = np.empty(n, dtype=np.intp)
        self._local[corder] = np.arange(n) - np.repeat(coff, csize)
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
        eb = self._block_of[cols]
        buf[boff[eb] + local_row[rows] * csize[eb] + self._local[cols]] = vals
        # blocks with equal entries share one matrix: per matrix, the first
        # block holding it, its entries and the blocks and columns holding
        # it; the matrices are numbered in the order of their first blocks
        shared: list[tuple[int, np.ndarray, np.ndarray, np.ndarray]] = []
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
                shared.append((int(group[ms[0]]), base, group[ms], columns[ms]))
        shared.sort(key=lambda rec: rec[0])
        matrix_of = np.empty(nb, dtype=np.intp)
        for mi, (_, _, blocks, _) in enumerate(shared):
            matrix_of[blocks] = mi
        self._matrices = [_BlockMatrix(base) for _, base, _, _ in shared]
        self._blocks = _Blocks(corder, coff, csize, matrix_of, self._matrices)
        # the columns of every block sharing a matrix, one row per block
        self._instances = [columns for _, _, _, columns in shared]
        self._primes: list[int] = []
        self._pivots: list[list[int]] = []  # whole-matrix pivots per prime
        self._add_prime()

    def _add_prime(self) -> None:
        for p in PRIMES:
            if p not in self._primes:
                break
        else:
            raise ReconstructionError("prime schedule exhausted")
        pivots = []
        for bm, cols in zip(self._matrices, self._instances):
            bm.echelons.append(echelon_mod_p(bm.base, p))
            pivots.append(cols[:, bm.echelons[-1][1]].ravel())
        self._primes.append(p)
        self._pivots.append(np.sort(np.concatenate(pivots)).tolist() if pivots else [])

    @property
    def dim_upper_bound(self) -> int:
        """Exact upper bound for the rational kernel dimension."""
        return self.ncols - max(len(piv) for piv in self._pivots)

    def _structure(self) -> tuple[int, list[int], list[int]]:
        """Index of the prime of largest rank (the first among equals), its
        pivot columns and its free columns."""
        k = max(range(len(self._primes)), key=lambda i: len(self._pivots[i]))
        pivset = set(self._pivots[k])
        free = [c for c in range(self.ncols) if c not in pivset]
        return k, self._pivots[k], free

    def _lucky(self, base_pivots: list[int]) -> list[int]:
        """Indices of the primes whose pivots are the base pivots; the
        others are unlucky (rank dropped or structure shifted)."""
        ks = [k for k, piv in enumerate(self._pivots) if piv == base_pivots]
        if not ks:
            raise RuntimeError("no prime with the base pivots to reconstruct from")
        return ks

    def _grow(self, base_pivots: list[int]) -> None:
        """Add a prime after a failed candidate, keeping the structure."""
        if len(self._primes) >= _MAX_PRIMES:
            raise ReconstructionError(
                "kernel vector did not reconstruct from "
                f"{len(self._primes)} primes"
            )
        self._add_prime()
        if self._structure()[1] != base_pivots:
            raise ReconstructionError("unstable pivot structure")

    def random_residues(self, count: int, seed: int = 0) -> tuple[np.ndarray, int]:
        """`count` random kernel vectors modulo the prime p of the largest
        rank, with no lifting: the columns of an (ncols, count) float64
        array of residues whose free coordinates are uniform in [0, p)
        (deterministic in `seed`) and whose pivot coordinates follow from
        the canonical kernel vectors, in one product per block matrix for
        all the blocks that share it.  Returns the array and p."""
        k, _, free = self._structure()
        p = self._primes[k]
        u = np.zeros((self.ncols, count), dtype=np.float64)
        u[free] = _draw(seed, (len(free), count), p)
        for bm, cols in zip(self._matrices, self._instances):
            piv = bm.echelons[k][1]
            slot, coords = bm.kernel(k, p)
            if not coords.size:  # no pivots, or no free columns
                continue
            # (blocks, free, count) -> (blocks, pivots, count)
            u[cols[:, piv]] = matmul_mod_p(coords, u[cols[:, slot >= 0]], p)
        return u, p

    def exact_vectors(self) -> Iterator[tuple[list[int], int]]:
        """Yield verified rational kernel vectors as (numerators,
        denominator), one per free column in ascending order (so the
        collection is independent: each has entry 1, numerator equal to the
        denominator, at its own free column and 0 at the others).  Yields at
        most dim_upper_bound vectors; if all of them verify they form a full
        kernel basis."""
        _, base_pivots, free = self._structure()

        def candidate(col: int, bi: int) -> tuple[list[int], int] | None:
            """CRT residues of the canonical kernel vector of a free column
            across the lucky primes, restricted to its block and rationally
            reconstructed; None if reconstruction fails (the caller should
            add a prime and retry)."""
            bc, bm = self._blocks[bi]
            residues: list[list[int]] = []
            primes: list[int] = []
            for k in self._lucky(base_pivots):
                piv = bm.echelons[k][1]
                slot, coords = bm.kernel(k, self._primes[k])
                coords = coords[:, slot[self._local[col]]]
                vec = [0] * len(bc)
                vec[self._local[col]] = 1
                for c, e in zip(piv, coords.tolist()):
                    vec[c] = int(e)
                residues.append(vec)
                primes.append(self._primes[k])
            return _reconstructed(residues, primes)

        for col in free:
            bi = int(self._block_of[col])
            bc, bm = self._blocks[bi]
            while True:
                part = candidate(col, bi)
                if part is not None and bm.verified(part[0]):
                    out = [0] * self.ncols
                    for c, e in zip(bc.tolist(), part[0]):
                        out[c] = e
                    yield out, part[1]
                    break
                self._grow(base_pivots)
