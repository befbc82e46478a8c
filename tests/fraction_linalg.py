"""Reference dense linear algebra with one `fractions.Fraction` per entry.

This is the entry-wise `Fraction` implementation that `qtors.linalg`
replaced with integer numerators over one common denominator.  It is kept
only as a test oracle: the differential tests hold every public operation
of `qtors.linalg` equal to the operation of the same name here.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

Scalar = int | Fraction


_ZERO = Fraction(0)


def _frac(x: Scalar) -> Fraction:
    # Fractions are immutable, so every zero entry can be the same object
    if type(x) is Fraction:
        return x
    return Fraction(x) if x else _ZERO


class Matrix:
    """Dense rows x cols matrix of Fractions, stored row-major."""

    __slots__ = ("rows", "cols", "_data")

    def __init__(self, rows: int, cols: int, data: Sequence[Sequence[Scalar]]):
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimension")
        if len(data) != rows or any(len(r) != cols for r in data):
            raise ValueError(f"data shape does not match {rows}x{cols}")
        self.rows = rows
        self.cols = cols
        self._data = tuple(tuple(map(_frac, row)) for row in data)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(rows: int, cols: int) -> "Matrix":
        return Matrix(rows, cols, [[0] * cols for _ in range(rows)])

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix(n, n, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @staticmethod
    def from_rows(rows: Sequence[Sequence[Scalar]]) -> "Matrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
        return Matrix(r, c, rows)

    @staticmethod
    def column(entries: Sequence[Scalar]) -> "Matrix":
        return Matrix(len(entries), 1, [[x] for x in entries])

    @staticmethod
    def from_columns(cols: Sequence[Sequence[Scalar]], nrows: int | None = None) -> "Matrix":
        if not cols:
            if nrows is None:
                raise ValueError("need nrows for a matrix with no columns")
            return Matrix.zero(nrows, 0)
        r = len(cols[0])
        return Matrix(r, len(cols), [[col[i] for col in cols] for i in range(r)])

    @staticmethod
    def hstack(mats: Sequence["Matrix"]) -> "Matrix":
        if not mats:
            raise ValueError("hstack of nothing")
        r = mats[0].rows
        if any(m.rows != r for m in mats):
            raise ValueError("hstack row mismatch")
        data = [[x for m in mats for x in m._data[i]] for i in range(r)]
        return Matrix(r, sum(m.cols for m in mats), data)

    @staticmethod
    def vstack(mats: Sequence["Matrix"]) -> "Matrix":
        if not mats:
            raise ValueError("vstack of nothing")
        c = mats[0].cols
        if any(m.cols != c for m in mats):
            raise ValueError("vstack column mismatch")
        data = [row for m in mats for row in m._data]
        return Matrix(sum(m.rows for m in mats), c, data)

    @staticmethod
    def block_diag(mats: Sequence["Matrix"]) -> "Matrix":
        rows = sum(m.rows for m in mats)
        cols = sum(m.cols for m in mats)
        data = [[Fraction(0)] * cols for _ in range(rows)]
        r0 = c0 = 0
        for m in mats:
            for i in range(m.rows):
                for j in range(m.cols):
                    data[r0 + i][c0 + j] = m._data[i][j]
            r0 += m.rows
            c0 += m.cols
        return Matrix(rows, cols, data)

    # -- basic access ------------------------------------------------------

    def __getitem__(self, idx: tuple[int, int]) -> Fraction:
        i, j = idx
        return self._data[i][j]

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self._data[i]

    def col(self, j: int) -> list[Fraction]:
        return [self._data[i][j] for i in range(self.rows)]

    def columns(self) -> list[list[Fraction]]:
        return [self.col(j) for j in range(self.cols)]

    def entries(self) -> list[Fraction]:
        """Row-major flattening."""
        return [x for row in self._data for x in row]

    def submatrix(self, row_idx: Iterable[int], col_idx: Iterable[int]) -> "Matrix":
        ri, ci = list(row_idx), list(col_idx)
        return Matrix(len(ri), len(ci), [[self._data[i][j] for j in ci] for i in ri])

    def is_zero(self) -> bool:
        return all(x == 0 for row in self._data for x in row)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self._data == other._data
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self._data))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in row) for row in self._data)
        return f"Matrix({self.rows}x{self.cols}: [{body}])"

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in addition")
        return Matrix(
            self.rows,
            self.cols,
            [
                [self._data[i][j] + other._data[i][j] for j in range(self.cols)]
                for i in range(self.rows)
            ],
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + (-other)

    def __neg__(self) -> "Matrix":
        return Matrix(
            self.rows, self.cols, [[-x for x in row] for row in self._data]
        )

    def scale(self, c: Scalar) -> "Matrix":
        c = _frac(c)
        return Matrix(
            self.rows, self.cols, [[c * x for x in row] for row in self._data]
        )

    def __mul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        ot = other._data
        data = []
        for i in range(self.rows):
            row = self._data[i]
            data.append(
                [
                    sum((row[k] * ot[k][j] for k in range(self.cols)), Fraction(0))
                    for j in range(other.cols)
                ]
            )
        return Matrix(self.rows, other.cols, data)

    def apply(self, vec: Sequence[Scalar]) -> list[Fraction]:
        """Matrix-vector product."""
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        v = [_frac(x) for x in vec]
        return [
            sum((self._data[i][j] * v[j] for j in range(self.cols)), Fraction(0))
            for i in range(self.rows)
        ]

    def transpose(self) -> "Matrix":
        return Matrix(
            self.cols,
            self.rows,
            [[self._data[i][j] for i in range(self.rows)] for j in range(self.cols)],
        )

    # -- elimination -------------------------------------------------------

    def rref(self) -> tuple["Matrix", tuple[int, ...], int]:
        """Reduced row echelon form; returns (rref, pivot columns, rank)."""
        m = [list(row) for row in self._data]
        pivots: list[int] = []
        pr = 0
        for pc in range(self.cols):
            pivot_row = None
            for i in range(pr, self.rows):
                if m[i][pc] != 0:
                    pivot_row = i
                    break
            if pivot_row is None:
                continue
            m[pr], m[pivot_row] = m[pivot_row], m[pr]
            # scaling or subtracting a zero changes nothing, so only the
            # non-zero entries of the pivot row are visited
            prow = m[pr]
            nz = [j for j, b in enumerate(prow) if b]
            inv = 1 / prow[pc]
            for j in nz:
                prow[j] *= inv
            for i in range(self.rows):
                row = m[i]
                if i != pr and row[pc]:
                    f = row[pc]
                    for j in nz:
                        row[j] -= f * prow[j]
            pivots.append(pc)
            pr += 1
            if pr == self.rows:
                break
        return Matrix(self.rows, self.cols, m), tuple(pivots), len(pivots)

    def rank(self) -> int:
        return self.rref()[2]

    def kernel_basis(self) -> list[list[Fraction]]:
        """Basis of the right null space, as column vectors; size cols - rank."""
        red, pivots, rank = self.rref()
        piv_set = set(pivots)
        free = [j for j in range(self.cols) if j not in piv_set]
        basis = []
        for f in free:
            v = [Fraction(0)] * self.cols
            v[f] = Fraction(1)
            for r, pc in enumerate(pivots):
                v[pc] = -red._data[r][f]
            basis.append(v)
        return basis

    def solve(self, b: Sequence[Scalar]) -> list[Fraction] | None:
        """One solution of self * x = b, or None if inconsistent."""
        if len(b) != self.rows:
            raise ValueError("right-hand side length mismatch")
        aug = Matrix.hstack([self, Matrix.column(b)]) if self.cols else Matrix.column(b)
        red, pivots, _ = aug.rref()
        if self.cols in pivots:
            return None
        x = [Fraction(0)] * self.cols
        for r, pc in enumerate(pivots):
            x[pc] = red._data[r][self.cols]
        return x

    def inverse(self) -> "Matrix":
        if self.rows != self.cols:
            raise ValueError("inverse of a non-square matrix")
        n = self.rows
        if n == 0:
            return self
        red, pivots, rank = Matrix.hstack([self, Matrix.identity(n)]).rref()
        if rank < n or pivots != tuple(range(n)):
            raise ValueError("matrix is singular")
        return red.submatrix(range(n), range(n, 2 * n))


def complement_indices(m: Matrix) -> list[int]:
    """Indices j of the standard basis vectors e_j completing the column
    span of m to k^rows, chosen greedily in index order.

    They are the pivots that fall in the identity block of one RREF of
    [m | I]: e_j is a pivot there exactly when it lies outside the span of
    m and e_0 .. e_{j-1}.
    """
    _, pivots, _ = Matrix.hstack([m, Matrix.identity(m.rows)]).rref()
    return [c - m.cols for c in pivots if c >= m.cols]


def extend_to_basis(m: Matrix) -> Matrix:
    """Standard basis vectors completing the columns of m to a basis of
    k^rows, as a rows x (rows - rank) matrix (`complement_indices`)."""
    cols = []
    for j in complement_indices(m):
        e = [Fraction(0)] * m.rows
        e[j] = Fraction(1)
        cols.append(e)
    return Matrix.from_columns(cols, nrows=m.rows)


def symmetric_definiteness(b: Matrix) -> tuple[bool, bool, int]:
    """Classify a symmetric rational matrix.

    Returns (positive_definite, positive_semidefinite, kernel_dimension),
    decided exactly by symmetric Gaussian elimination with diagonal pivoting.
    """
    if b.rows != b.cols:
        raise ValueError("symmetric test on a non-square matrix")
    n = b.rows
    m = [list(row) for row in b._data]
    active = list(range(n))
    pos_pivots = 0
    while active:
        piv = None
        for i in active:
            if m[i][i] != 0:
                piv = i
                break
        if piv is None:
            # zero diagonal on the active block: any nonzero off-diagonal
            # entry gives an indefinite 2x2 principal submatrix
            for i in active:
                for j in active:
                    if m[i][j] != 0:
                        return False, False, 0
            break  # active block is identically zero
        d = m[piv][piv]
        if d < 0:
            return False, False, 0
        pos_pivots += 1
        active.remove(piv)
        for i in active:
            f = m[i][piv] / d
            if f != 0:
                for j in active:
                    m[i][j] -= f * m[piv][j]
        # clear the pivot row and column only after every row update: the
        # updates above still read m[piv][j]
        for i in active:
            m[i][piv] = Fraction(0)
            m[piv][i] = Fraction(0)
    ker = n - pos_pivots
    return (ker == 0), True, ker
