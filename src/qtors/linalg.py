"""Exact dense linear algebra over the rationals.

Everything downstream (Hom spaces, Ext groups, Coxeter matrices) runs on
these matrices, so all arithmetic is exact; there is no floating point
anywhere.  A matrix is stored as rows of Python ints (`_num`) over one
positive common denominator (`_den`), kept canonical: the gcd of the
denominator and all numerators is 1, so equal matrices have equal storage.
Arithmetic works on the integers alone, and elimination is fraction-free
in the manner of Bareiss (Math. Comp. 22, 1968): every intermediate value
is an integer and every division is exact.  Entries are read out as
`fractions.Fraction`.  Matrices are immutable after construction.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import index, mul
from typing import Iterable, Sequence

Scalar = int | Fraction

IntRows = tuple[tuple[int, ...], ...]


def _ratio(x: Scalar) -> tuple[int, int]:
    """(numerator, positive denominator) of an exact scalar; integer types
    such as numpy ints go through `operator.index`, anything else through
    `Fraction`."""
    if type(x) is Fraction:
        return x.as_integer_ratio()
    if type(x) is int:
        return x, 1
    try:
        return index(x), 1
    except TypeError:
        return Fraction(x).as_integer_ratio()


def _fractions(values: Iterable[int], den: int) -> list[Fraction]:
    if den == 1:
        return [Fraction(x) for x in values]
    return [Fraction(x, den) for x in values]


def _scaled(num: IntRows, f: int) -> IntRows:
    if f == 1:
        return num
    return tuple(tuple(x * f for x in row) for row in num)


def _transposed(num: IntRows, cols: int) -> IntRows:
    return tuple(zip(*num)) if num else ((),) * cols


def _exact_quotient(values: list[int], d: int) -> list[int]:
    """values divided by d > 0; raises if some division is not exact."""
    if gcd(d, *values) != d:
        raise ArithmeticError("inexact division in fraction-free elimination")
    return [x // d for x in values]


def _gauss_jordan(m: list[list[int]], ncols: int) -> list[int]:
    """Integer Gauss-Jordan elimination of the rows m, in place; returns the
    pivot columns.

    The pivot rule is that of textbook RREF: in each column the first row
    at or below the current pivot row that is non-zero there.  A row is
    only defined up to a non-zero factor, so an update is the integer
    combination (p/g)·row − (f/g)·pivot row with g = gcd(p, f), divided by
    the gcd of its entries; every division is exact.  Afterwards row r is
    row r of the reduced echelon form times its pivot entry, and the rows
    past the rank are zero.
    """
    nrows = len(m)
    pivots: list[int] = []
    pr = 0
    for pc in range(ncols):
        for i in range(pr, nrows):
            if m[i][pc]:
                break
        else:
            continue
        m[pr], m[i] = m[i], m[pr]
        prow = m[pr]
        p = prow[pc]
        for i in range(nrows):
            row = m[i]
            f = row[pc]
            if f and i != pr:
                g = gcd(p, f)
                a, b = p // g, f // g
                new = [a * x - b * y for x, y in zip(row, prow)]
                c = gcd(*new)
                m[i] = [x // c for x in new] if c > 1 else new
        pivots.append(pc)
        pr += 1
        if pr == nrows:
            break
    return pivots


class Matrix:
    """Dense rows x cols rational matrix: integer rows over one denominator."""

    __slots__ = ("rows", "cols", "_num", "_den")

    def __init__(self, rows: int, cols: int, data: Sequence[Sequence[Scalar]]):
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimension")
        if len(data) != rows or any(len(r) != cols for r in data):
            raise ValueError(f"data shape does not match {rows}x{cols}")
        self.rows = rows
        self.cols = cols
        if all(type(x) is int for r in data for x in r):
            self._num = tuple(map(tuple, data))
            self._den = 1
            return
        # the Fraction case of _ratio inlined: it is the common one here
        ratios = [
            [x.as_integer_ratio() if type(x) is Fraction else _ratio(x) for x in r]
            for r in data
        ]
        # the lcm of reduced denominators leaves the numerators coprime to it
        den = lcm(*(d for r in ratios for _, d in r))
        if den == 1:
            self._num = tuple(tuple(n for n, _ in r) for r in ratios)
        else:
            self._num = tuple(tuple(n * (den // d) for n, d in r) for r in ratios)
        self._den = den

    @classmethod
    def _canonical(cls, rows: int, cols: int, num: IntRows, den: int = 1) -> "Matrix":
        """Matrix num / den, with num and den > 0 already canonical."""
        m = object.__new__(cls)
        m.rows, m.cols, m._num, m._den = rows, cols, num, den
        return m

    @classmethod
    def _reduce(cls, rows: int, cols: int, num: IntRows, den: int = 1) -> "Matrix":
        """Matrix num / den for any den > 0, brought to canonical form."""
        if den != 1:
            g = gcd(den, *chain.from_iterable(num))
            if g > 1:
                num = tuple(tuple(x // g for x in r) for r in num)
                den //= g
        return cls._canonical(rows, cols, num, den)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(rows: int, cols: int) -> "Matrix":
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimension")
        return Matrix._canonical(rows, cols, ((0,) * cols,) * rows)

    @staticmethod
    def identity(n: int) -> "Matrix":
        if n < 0:
            raise ValueError("negative matrix dimension")
        num = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        return Matrix._canonical(n, n, num)

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

    # Stacking over the lcm of the denominators stays canonical: a prime
    # power dividing the lcm exactly divides some block's denominator, and
    # that block has a numerator the prime does not divide.

    @staticmethod
    def hstack(mats: Sequence["Matrix"]) -> "Matrix":
        if not mats:
            raise ValueError("hstack of nothing")
        r = mats[0].rows
        if any(m.rows != r for m in mats):
            raise ValueError("hstack row mismatch")
        den = lcm(*(m._den for m in mats))
        parts = [_scaled(m._num, den // m._den) for m in mats]
        num = tuple(tuple(chain.from_iterable(p[i] for p in parts)) for i in range(r))
        return Matrix._canonical(r, sum(m.cols for m in mats), num, den)

    @staticmethod
    def vstack(mats: Sequence["Matrix"]) -> "Matrix":
        if not mats:
            raise ValueError("vstack of nothing")
        c = mats[0].cols
        if any(m.cols != c for m in mats):
            raise ValueError("vstack column mismatch")
        den = lcm(*(m._den for m in mats))
        num = tuple(chain.from_iterable(_scaled(m._num, den // m._den) for m in mats))
        return Matrix._canonical(sum(m.rows for m in mats), c, num, den)

    @staticmethod
    def block_diag(mats: Sequence["Matrix"]) -> "Matrix":
        rows = sum(m.rows for m in mats)
        cols = sum(m.cols for m in mats)
        den = lcm(*(m._den for m in mats))
        num: list[tuple[int, ...]] = []
        c0 = 0
        for m in mats:
            left, right = (0,) * c0, (0,) * (cols - c0 - m.cols)
            num.extend(left + r + right for r in _scaled(m._num, den // m._den))
            c0 += m.cols
        return Matrix._canonical(rows, cols, tuple(num), den)

    # -- basic access ------------------------------------------------------

    def __getitem__(self, idx: tuple[int, int]) -> Fraction:
        i, j = idx
        x = self._num[i][j]
        return Fraction(x) if self._den == 1 else Fraction(x, self._den)

    def row(self, i: int) -> tuple[Fraction, ...]:
        return tuple(_fractions(self._num[i], self._den))

    def col(self, j: int) -> list[Fraction]:
        return _fractions((r[j] for r in self._num), self._den)

    def columns(self) -> list[list[Fraction]]:
        return [_fractions(c, self._den) for c in _transposed(self._num, self.cols)]

    def entries(self) -> list[Fraction]:
        """Row-major flattening."""
        return _fractions(chain.from_iterable(self._num), self._den)

    def submatrix(self, row_idx: Iterable[int], col_idx: Iterable[int]) -> "Matrix":
        ri, ci = list(row_idx), list(col_idx)
        num = self._num
        sub = tuple(tuple(num[i][j] for j in ci) for i in ri)
        return Matrix._reduce(len(ri), len(ci), sub, self._den)

    def is_zero(self) -> bool:
        return not any(map(any, self._num))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self._den == other._den
            and self._num == other._num
        )

    def __hash__(self) -> int:
        # the hash of the entries as Fractions; an integer hashes like the
        # Fraction it equals
        if self._den == 1:
            return hash((self.rows, self.cols, self._num))
        rows = tuple(tuple(_fractions(r, self._den)) for r in self._num)
        return hash((self.rows, self.cols, rows))

    def __repr__(self) -> str:
        body = "; ".join(
            " ".join(str(x) for x in _fractions(row, self._den)) for row in self._num
        )
        return f"Matrix({self.rows}x{self.cols}: [{body}])"

    # -- arithmetic --------------------------------------------------------

    def _combine(self, other: "Matrix", sign: int) -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in addition")
        den = lcm(self._den, other._den)
        fa, fb = den // self._den, sign * (den // other._den)
        num = tuple(
            tuple(fa * x + fb * y for x, y in zip(r, s))
            for r, s in zip(self._num, other._num)
        )
        return Matrix._reduce(self.rows, self.cols, num, den)

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._combine(other, 1)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._combine(other, -1)

    def __neg__(self) -> "Matrix":
        return Matrix._canonical(self.rows, self.cols, _scaled(self._num, -1), self._den)

    def scale(self, c: Scalar) -> "Matrix":
        n, d = _ratio(c)
        if n == 0:
            return Matrix.zero(self.rows, self.cols)
        return Matrix._reduce(self.rows, self.cols, _scaled(self._num, n), self._den * d)

    def __mul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        ot = _transposed(other._num, other.cols)
        num = tuple(tuple(sum(map(mul, r, c)) for c in ot) for r in self._num)
        return Matrix._reduce(self.rows, other.cols, num, self._den * other._den)

    def apply(self, vec: Sequence[Scalar]) -> list[Fraction]:
        """Matrix-vector product."""
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        ratios = [_ratio(x) for x in vec]
        dv = lcm(*(d for _, d in ratios))
        v = [n * (dv // d) for n, d in ratios]
        return _fractions((sum(map(mul, r, v)) for r in self._num), self._den * dv)

    def transpose(self) -> "Matrix":
        return Matrix._canonical(
            self.cols, self.rows, _transposed(self._num, self.cols), self._den
        )

    # -- elimination -------------------------------------------------------

    def rref(self) -> tuple["Matrix", tuple[int, ...], int]:
        """Reduced row echelon form; returns (rref, pivot columns, rank)."""
        m = [list(r) for r in self._num]
        pivots = _gauss_jordan(m, self.cols)
        # row r is reduced row r times its pivot entry, so the lcm of the
        # pivot entries is a common denominator
        rank = len(pivots)
        den = lcm(*(m[r][c] for r, c in enumerate(pivots)))
        num = tuple(tuple(x * (den // row[c]) for x in row) for row, c in zip(m, pivots))
        num += tuple(map(tuple, m[rank:]))
        return Matrix._reduce(self.rows, self.cols, num, den), tuple(pivots), rank

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
                v[pc] = -red[r, f]
            basis.append(v)
        return basis

    def solve(self, b: Sequence[Scalar]) -> list[Fraction] | None:
        """One solution of self * x = b, or None if inconsistent."""
        if len(b) != self.rows:
            raise ValueError("right-hand side length mismatch")
        aug = Matrix.hstack([self, Matrix.column(b)])
        red, pivots, _ = aug.rref()
        if self.cols in pivots:
            return None
        x = [Fraction(0)] * self.cols
        for r, pc in enumerate(pivots):
            x[pc] = red[r, self.cols]
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


def column_space_contains(m: Matrix, vec: Sequence[Scalar]) -> bool:
    """True iff vec lies in the column span of m."""
    return m.solve(vec) is not None


def complement_indices(m: Matrix) -> list[int]:
    """Indices j of the standard basis vectors e_j completing the column
    span of m to k^rows, chosen greedily in index order.

    They are the pivots that fall in the identity block of one RREF of
    [m | I]: e_j is a pivot there exactly when it lies outside the span of
    m and e_0 .. e_{j-1}.
    """
    return cokernel(m)[0]


def cokernel(m: Matrix) -> tuple[list[int], Matrix]:
    """The indices `complement_indices(m)`, and a projection P whose kernel
    is the column span of m: P m = 0, and P e_j is a non-zero multiple of
    the k-th unit vector for the k-th index j.

    Eliminating [m | I] (numerators only: they span the same columns) gives
    rows E [m | I] for an invertible E; the rows past the rank of m are zero
    on m, and their identity parts, whose pivots are the picked e_j, are P.
    """
    n, c = m.rows, m.cols
    rows = [list(r) + [0] * i + [1] + [0] * (n - 1 - i) for i, r in enumerate(m._num)]
    pivots = _gauss_jordan(rows, c + n)
    rank = sum(1 for p in pivots if p < c)
    picked = [p - c for p in pivots[rank:]]
    return picked, Matrix._canonical(len(picked), n, tuple(tuple(r[c:]) for r in rows[rank:]))


def extend_to_basis(m: Matrix) -> Matrix:
    """Standard basis vectors completing the columns of m to a basis of
    k^rows, as a rows x (rows - rank) matrix (`complement_indices`)."""
    picked = complement_indices(m)
    num = tuple(tuple(int(i == j) for j in picked) for i in range(m.rows))
    return Matrix._canonical(m.rows, len(picked), num)


def symmetric_definiteness(b: Matrix) -> tuple[bool, bool, int]:
    """Classify a symmetric rational matrix.

    Returns (positive_definite, positive_semidefinite, kernel_dimension),
    decided exactly by symmetric Gaussian elimination with diagonal
    pivoting.  It runs fraction-free on the numerators (a positive multiple
    of b, with the same signature): step k replaces each entry a of the
    active block by (d_k·a − a_ip·a_pj) / d_{k−1}, where d_k is the k-th
    pivot and d_0 = 1, which is exact because the result is a minor of b
    (Bareiss).  A row that is zero in the pivot column only changes by the
    factor d_k / d_{k−1}, so it is skipped and brought up to date, exactly,
    when it is next needed.  Every pivot used is positive, so each stored
    row is a positive multiple of the Schur complement row it stands for:
    the signs and zeros that decide the answer are those of the Schur
    complement.
    """
    if b.rows != b.cols:
        raise ValueError("symmetric test on a non-square matrix")
    n = b.rows
    # rows and columns of the active block, in index order
    m = [list(r) for r in b._num]
    level = [0] * n  # the step each row was last brought up to
    d = [1]  # d[k]: pivot of step k
    while m:
        p = next((i for i, row in enumerate(m) if row[i]), None)
        if p is None:
            # zero diagonal on the active block: any nonzero off-diagonal
            # entry gives an indefinite 2x2 principal submatrix
            if any(map(any, m)):
                return False, False, 0
            break  # active block is identically zero
        if m[p][p] < 0:
            return False, False, 0
        k = len(d)
        top = d[-1]
        prow = m.pop(p)
        lvl = level.pop(p)
        if lvl != k - 1:
            prow = _exact_quotient([x * top for x in prow], d[lvl])
        dk = prow[p]
        for i, row in enumerate(m):
            if row[p]:
                if level[i] != k - 1:
                    row = _exact_quotient([x * top for x in row], d[level[i]])
                f = row[p]
                new = [dk * x - f * y for x, y in zip(row, prow)]
                m[i] = new if top == 1 else _exact_quotient(new, top)
                level[i] = k
        for row in m:
            del row[p]
        d.append(dk)
    ker = n - (len(d) - 1)
    return (ker == 0), True, ker
