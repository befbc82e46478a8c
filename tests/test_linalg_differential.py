"""Differential tests: `qtors.linalg`, integer rows over one denominator,
against the entry-wise `Fraction` implementation kept in
`fraction_linalg.py`.  Every public operation must give the same values,
the same `Fraction` entries, the same pivots and the same `==`, `hash` and
`repr`, on int, `Fraction` and numpy-int entries, entries beyond 2**64 and
empty shapes."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fraction_linalg as ref
from qtors import linalg
from qtors.linalg import Matrix

small = st.integers(min_value=-5, max_value=5)
huge = st.integers(min_value=2**64, max_value=2**70) | st.integers(
    min_value=-(2**70), max_value=-(2**64)
)
scalars = st.one_of(
    st.just(0),
    small,
    huge,
    st.builds(Fraction, small, st.integers(min_value=1, max_value=6)),
    st.builds(Fraction, huge, st.integers(min_value=1, max_value=6)),
    st.builds(Fraction, small, st.integers(min_value=2**64, max_value=2**66)),
    st.builds(np.int64, small),
    st.builds(np.int32, small),
)
# small rationals only, for the eliminations whose oracle is slow on huge
# entries
light = st.one_of(
    st.just(0),
    small,
    st.builds(Fraction, small, st.integers(min_value=1, max_value=4)),
    st.builds(np.int64, small),
)

SETTINGS = settings(max_examples=120, deadline=None)

# mostly zeros: three in four entries are 0
sparse = st.tuples(st.integers(0, 3), light).map(lambda t: 0 if t[0] else t[1])


def tables(entry=scalars, rows=None, cols=None, max_dim=4):
    """Row lists of a rows x cols table (each drawn in 0..max_dim if not
    given)."""
    dim = st.integers(min_value=0, max_value=max_dim)
    return st.tuples(
        dim if rows is None else st.just(rows), dim if cols is None else st.just(cols)
    ).flatmap(
        lambda rc: st.lists(
            st.lists(entry, min_size=rc[1], max_size=rc[1]),
            min_size=rc[0],
            max_size=rc[0],
        ).map(lambda data, rc=rc: (rc[0], rc[1], data))
    )


def wide_sparse_tables():
    """Sparse tables of 1-6 rows and 6-12 columns: the elimination takes
    the row of fewest entries under a column as its pivot row, which here
    is often not the first row that textbook RREF takes."""
    return st.tuples(st.integers(1, 6), st.integers(6, 12)).flatmap(
        lambda rc: tables(entry=sparse, rows=rc[0], cols=rc[1])
    )


# the first row under column 0 has four entries and the second one: the
# pivot row of column 0 is the second
FEWEST_NOT_FIRST = (3, 7, [[1, 2, 0, 1, 1, 0, 0], [2, 0, 0, 0, 0, 0, 0], [0, 1, 1, 0, 0, 0, 3]])


def _plain(x):
    return int(x) if isinstance(x, np.integer) else x


def both(table):
    """The same table as a `qtors` matrix and as an oracle matrix."""
    r, c, data = table
    return Matrix(r, c, data), ref.Matrix(r, c, [[_plain(x) for x in row] for row in data])


def assert_same(new, old):
    assert isinstance(new, Matrix)
    assert (new.rows, new.cols) == (old.rows, old.cols)
    entries = new.entries()
    assert entries == old.entries()
    assert all(type(x) is Fraction for x in entries)
    assert repr(new) == repr(old)
    assert hash(new) == hash(old)
    # the oracle's entries rebuild an equal matrix
    assert Matrix(old.rows, old.cols, [list(old.row(i)) for i in range(old.rows)]) == new


def assert_same_vectors(new, old):
    assert new == old
    assert all(type(x) is Fraction for v in new for x in v)


class TestAccessAndIdentity:
    @given(tables())
    @SETTINGS
    def test_access(self, t):
        m, o = both(t)
        assert_same(m, o)
        for i in range(m.rows):
            assert m.row(i) == o.row(i) and type(m.row(i)) is tuple
            for j in range(m.cols):
                assert m[i, j] == o[i, j] and type(m[i, j]) is Fraction
        for j in range(m.cols):
            assert m.col(j) == o.col(j)
        assert m.columns() == o.columns()
        assert m.is_zero() == o.is_zero()

    @given(tables(), st.integers(min_value=1, max_value=2**70))
    @SETTINGS
    def test_equal_values_written_with_different_denominators(self, t, k):
        m, _ = both(t)
        # the same values, reached through denominators k and 2
        others = [
            m.scale(k).scale(Fraction(1, k)),
            m.scale(Fraction(1, k)).scale(k),
            (m + m).scale(Fraction(1, 2)),
            Matrix.hstack([m, Matrix.column([Fraction(1, 4)] * m.rows)]).submatrix(
                range(m.rows), range(m.cols)
            ),
        ]
        for other in others:
            assert other == m
            assert hash(other) == hash(m)
            assert repr(other) == repr(m)

    def test_half_and_two_quarters(self):
        a = Matrix.from_rows([[Fraction(1, 2), 1]])
        b = Matrix.from_rows([[2, 4]]).scale(Fraction(1, 4))
        c = Matrix.from_rows([[Fraction(2, 4), np.int64(1)]])
        assert a == b == c
        assert hash(a) == hash(b) == hash(c) == hash(ref.Matrix.from_rows([[Fraction(1, 2), 1]]))

    def test_empty_shapes(self):
        for r, c in [(0, 0), (0, 3), (3, 0)]:
            m, o = Matrix.zero(r, c), ref.Matrix.zero(r, c)
            assert_same(m, o)
            assert_same(m.transpose(), o.transpose())
            assert m.kernel_basis() == o.kernel_basis()
            assert_same(m.kernel_matrix(), ref.Matrix.from_columns(o.kernel_basis(), nrows=c))
            assert m.rref()[1:] == o.rref()[1:]
            assert_same(linalg.extend_to_basis(m), ref.extend_to_basis(o))


class TestArithmetic:
    @given(st.data())
    @SETTINGS
    def test_sum_difference_negation_scale(self, data):
        t = data.draw(tables())
        m, o = both(t)
        m2, o2 = both(data.draw(tables(rows=t[0], cols=t[1])))
        c = data.draw(scalars)
        assert_same(m + m2, o + o2)
        assert_same(m - m2, o - o2)
        assert_same(-m, -o)
        assert_same(m.scale(c), o.scale(_plain(c)))

    @given(st.data())
    @SETTINGS
    def test_products(self, data):
        a, oa = both(data.draw(tables()))
        b, ob = both(data.draw(tables(rows=a.cols)))
        assert_same(a * b, oa * ob)
        vec = data.draw(st.lists(scalars, min_size=a.cols, max_size=a.cols))
        assert a.apply(vec) == oa.apply([_plain(x) for x in vec])
        assert all(type(x) is Fraction for x in a.apply(vec))

    @given(st.data())
    @SETTINGS
    def test_shape_operations(self, data):
        m, o = both(data.draw(tables()))
        assert_same(m.transpose(), o.transpose())
        ri = data.draw(st.lists(st.integers(0, max(m.rows - 1, 0)), max_size=m.rows)) if m.rows else []
        ci = data.draw(st.lists(st.integers(0, max(m.cols - 1, 0)), max_size=m.cols)) if m.cols else []
        assert_same(m.submatrix(ri, ci), o.submatrix(ri, ci))
        m2, o2 = both(data.draw(tables(rows=m.rows)))
        m3, o3 = both(data.draw(tables(cols=m.cols)))
        assert_same(Matrix.hstack([m, m2]), ref.Matrix.hstack([o, o2]))
        assert_same(Matrix.vstack([m, m3]), ref.Matrix.vstack([o, o3]))
        assert_same(Matrix.block_diag([m, m2, m3]), ref.Matrix.block_diag([o, o2, o3]))
        assert_same(Matrix.block_diag([]), ref.Matrix.block_diag([]))

    def test_shape_errors_match(self):
        a, b = Matrix.identity(2), Matrix.zero(2, 3)
        for op in (lambda x, y: x + y, lambda x, y: x - y, lambda x, y: y * x):
            with pytest.raises(ValueError):
                op(a, b)
        with pytest.raises(ValueError):
            Matrix(2, 2, [[1, 2]])
        with pytest.raises(ValueError):
            Matrix.zero(-1, 2)


class TestElimination:
    @given(st.one_of(tables(entry=light, max_dim=5), wide_sparse_tables()))
    @example(FEWEST_NOT_FIRST)
    @SETTINGS
    def test_rref_rank_kernel(self, t):
        m, o = both(t)
        red, piv, rank = m.rref()
        ored, opiv, orank = o.rref()
        assert_same(red, ored)
        assert (piv, rank) == (opiv, orank)
        assert m.rank() == o.rank()
        assert_same_vectors(m.kernel_basis(), o.kernel_basis())
        # the kernel as one matrix, built from the integer RREF
        assert_same(m.kernel_matrix(), ref.Matrix.from_columns(o.kernel_basis(), nrows=o.cols))
        assert linalg.complement_indices(m) == ref.complement_indices(o)
        assert_same(linalg.extend_to_basis(m), ref.extend_to_basis(o))
        # rank and complement_indices read only the forward pivots, so the
        # transpose is one more input for them
        assert m.transpose().rank() == o.transpose().rank()
        assert linalg.complement_indices(m.transpose()) == ref.complement_indices(o.transpose())

    @given(tables(max_dim=3))
    @settings(max_examples=60, deadline=None)
    def test_rref_and_kernel_on_huge_entries(self, t):
        m, o = both(t)
        assert_same(m.rref()[0], o.rref()[0])
        assert_same_vectors(m.kernel_basis(), o.kernel_basis())
        assert_same(m.kernel_matrix(), ref.Matrix.from_columns(o.kernel_basis(), nrows=o.cols))

    @given(st.data())
    @SETTINGS
    def test_solve(self, data):
        m, o = both(data.draw(st.one_of(tables(entry=light, max_dim=5), wide_sparse_tables())))
        b = data.draw(st.lists(light, min_size=m.rows, max_size=m.rows))
        b_in = o.apply([Fraction(i + 1) for i in range(m.cols)])
        for rhs in (b, b_in):
            got, want = m.solve(rhs), o.solve([_plain(x) for x in rhs])
            assert got == want
            if got is not None:
                assert all(type(x) is Fraction for x in got)

    @given(st.integers(min_value=0, max_value=5).flatmap(
        lambda n: tables(entry=light, rows=n, cols=n)
    ))
    @SETTINGS
    def test_inverse(self, t):
        m, o = both(t)
        try:
            want = o.inverse()
        except ValueError:
            with pytest.raises(ValueError):
                m.inverse()
            return
        assert_same(m.inverse(), want)

    def test_inverse_of_non_square_raises(self):
        with pytest.raises(ValueError):
            Matrix.zero(2, 3).inverse()


def symmetric_tables():
    """Random symmetric rational matrices of the kinds that exercise every
    branch: sums A + A^T (mostly indefinite), Gram matrices A^T A
    (semidefinite, often singular) and block sums with zero-diagonal
    active blocks, each under a random positive rescaling."""
    entry = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))

    def build(args):
        kind, n, rows, scale, zero_block = args
        a = ref.Matrix(n, n, rows)
        if kind == 0:
            b = a + a.transpose()
        elif kind == 1:
            b = a.transpose() * a
        else:
            # a semidefinite block next to [[0, x], [x, 0]]: elimination
            # reaches an active block with zero diagonal
            b = ref.Matrix.block_diag([a.transpose() * a, zero_block])
        return b.scale(scale)

    zero_blocks = st.sampled_from([
        ref.Matrix.zero(2, 2),
        ref.Matrix.from_rows([[0, 1], [1, 0]]),
        ref.Matrix.from_rows([[0, Fraction(-2, 3)], [Fraction(-2, 3), 0]]),
    ])
    return st.integers(1, 5).flatmap(
        lambda n: st.tuples(
            st.integers(0, 2),
            st.just(n),
            st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n),
            st.builds(Fraction, st.integers(1, 2**65), st.integers(1, 7)),
            zero_blocks,
        ).map(build)
    )


class TestSymmetricDefiniteness:
    @given(symmetric_tables())
    @settings(max_examples=300, deadline=None)
    def test_matches_fraction_elimination(self, o):
        m = Matrix(o.rows, o.cols, [list(o.row(i)) for i in range(o.rows)])
        assert linalg.symmetric_definiteness(m) == ref.symmetric_definiteness(o)

    @given(symmetric_tables(), st.builds(Fraction, st.integers(1, 2**70), st.integers(1, 2**70)))
    @settings(max_examples=100, deadline=None)
    def test_invariant_under_positive_rescaling(self, o, c):
        m = Matrix(o.rows, o.cols, [list(o.row(i)) for i in range(o.rows)])
        assert linalg.symmetric_definiteness(m.scale(c)) == linalg.symmetric_definiteness(m)

    def test_negative_pivot_after_positive_ones(self):
        # pivots 2, 3/2, then -2/3 on the Schur complement
        b = Matrix.from_rows([[2, -1, 0], [-1, 2, -1], [0, -1, 0]])
        assert linalg.symmetric_definiteness(b) == ref.symmetric_definiteness(
            ref.Matrix.from_rows([[2, -1, 0], [-1, 2, -1], [0, -1, 0]])
        ) == (False, False, 0)

    def test_skipped_rows_are_brought_up_to_date(self):
        # the Tits matrix of the 4-cycle (affine A~3): the first pivot skips
        # the row of vertex 3, which is brought up to date by the second;
        # the radical is 1-dimensional
        b = Matrix.from_rows(
            [[2, -1, 0, -1], [-1, 2, -1, 0], [0, -1, 2, -1], [-1, 0, -1, 2]]
        )
        assert linalg.symmetric_definiteness(b) == (False, True, 1)

    def test_inexact_division_raises(self):
        with pytest.raises(ArithmeticError):
            linalg._exact_quotient([4, 6], 4)
        assert linalg._exact_quotient([4, -8, 0], 4) == [1, -2, 0]
