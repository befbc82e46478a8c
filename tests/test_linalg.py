import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtors import Matrix, extend_to_basis, symmetric_definiteness

from conftest import random_fraction_matrix


small_int = st.integers(min_value=-6, max_value=6)


def matrices(max_dim=5):
    return st.integers(min_value=1, max_value=max_dim).flatmap(
        lambda r: st.integers(min_value=1, max_value=max_dim).flatmap(
            lambda c: st.lists(
                st.lists(small_int, min_size=c, max_size=c),
                min_size=r,
                max_size=r,
            ).map(Matrix.from_rows)
        )
    )


def rational_matrices(max_dim=5):
    """Rational matrices of any shape up to max_dim, empty ones included;
    zero entries are frequent, so rank deficiency is common."""
    entry = st.one_of(
        st.just(Fraction(0)),
        st.builds(Fraction, small_int, st.integers(min_value=1, max_value=4)),
    )
    return st.integers(min_value=0, max_value=max_dim).flatmap(
        lambda r: st.integers(min_value=0, max_value=max_dim).flatmap(
            lambda c: st.lists(
                st.lists(entry, min_size=c, max_size=c), min_size=r, max_size=r
            ).map(lambda rows, r=r, c=c: Matrix(r, c, rows))
        )
    )


class TestArithmetic:
    def test_identity_is_neutral(self):
        m = Matrix.from_rows([[1, 2], [3, 4], [5, 6]])
        assert Matrix.identity(3) * m == m
        assert m * Matrix.identity(2) == m

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            Matrix.identity(2) * Matrix.identity(3)
        with pytest.raises(ValueError):
            Matrix.identity(2) + Matrix.zero(2, 3)

    @given(matrices(), small_int)
    def test_scale_distributes(self, m, c):
        assert m.scale(c) + m == m.scale(c + 1)

    @given(matrices())
    def test_transpose_involution(self, m):
        assert m.transpose().transpose() == m

    def test_hstack_vstack_block_diag(self):
        a = Matrix.from_rows([[1, 2]])
        b = Matrix.from_rows([[3]])
        assert Matrix.hstack([a, b]) == Matrix.from_rows([[1, 2, 3]])
        assert Matrix.vstack([a, Matrix.from_rows([[4, 5]])]) == Matrix.from_rows(
            [[1, 2], [4, 5]]
        )
        d = Matrix.block_diag([a, b])
        assert (d.rows, d.cols) == (2, 3)
        assert d[0, 0] == 1 and d[1, 2] == 3 and d[0, 2] == 0


class TestRrefKernelSolve:
    @given(matrices())
    @settings(max_examples=60)
    def test_rref_pivot_structure(self, m):
        r, pivots, rank = m.rref()
        assert rank == len(pivots)
        for i, p in enumerate(pivots):
            assert r[i, p] == 1
            for k in range(m.rows):
                if k != i:
                    assert r[k, p] == 0

    @given(matrices())
    @settings(max_examples=60)
    def test_kernel_vectors_annihilate(self, m):
        ker = m.kernel_basis()
        assert len(ker) == m.cols - m.rank()
        for v in ker:
            assert all(x == 0 for x in m.apply(v))

    @given(matrices())
    @settings(max_examples=60)
    def test_solve_consistency(self, m):
        # a right-hand side inside the column space is always solvable
        x = [Fraction(i + 1) for i in range(m.cols)]
        b = m.apply(x)
        sol = m.solve(b)
        assert sol is not None
        assert m.apply(sol) == b

    def test_solve_inconsistent(self):
        m = Matrix.from_rows([[1, 0], [1, 0]])
        assert m.solve([1, 2]) is None

    @given(matrices(max_dim=4))
    @settings(max_examples=40)
    def test_rank_transpose_invariant(self, m):
        assert m.rank() == m.transpose().rank()

    def test_inverse_and_det(self):
        m = Matrix.from_rows([[2, 1], [1, 1]])
        assert m * m.inverse() == Matrix.identity(2)
        with pytest.raises(ValueError):
            Matrix.from_rows([[1, 1], [1, 1]]).inverse()

    def test_column_space_contains(self):
        # a vector lies in the column span exactly when solve finds a preimage
        m = Matrix.from_rows([[1, 0], [0, 1], [0, 0]])
        assert m.solve([3, 4, 0]) == [3, 4]
        assert m.solve([0, 0, 1]) is None

    def test_extend_to_basis(self):
        m = Matrix.from_rows([[1], [1]])
        extra = extend_to_basis(m)
        assert (extra.rows, extra.cols) == (2, 1)
        assert Matrix.hstack([m, extra]).rank() == 2

    @given(rational_matrices())
    @settings(max_examples=200, deadline=None)
    def test_extend_to_basis_matches_greedy_rank_oracle(self, m):
        assert extend_to_basis(m) == _greedy_extend_to_basis(m)


def _greedy_extend_to_basis(m: Matrix) -> Matrix:
    """Reference: try e_0, e_1, ... in order and keep each one that raises
    the rank of the columns kept so far (one rank per candidate)."""
    chosen: list[list[Fraction]] = []
    current = m
    r = current.rank()
    for j in range(m.rows):
        if r == m.rows:
            break
        e = [Fraction(0)] * m.rows
        e[j] = Fraction(1)
        cand = Matrix.hstack([current, Matrix.column(e)])
        if cand.rank() > r:
            chosen.append(e)
            current = cand
            r += 1
    return Matrix.from_columns(chosen, nrows=m.rows)


def _definiteness_oracle(b: Matrix) -> tuple[bool, bool]:
    """(positive definite, positive semidefinite) via sympy's exact checks."""
    import sympy

    s = sympy.Matrix(
        [[sympy.Rational(b[i, j]) for j in range(b.cols)] for i in range(b.rows)]
    )
    return bool(s.is_positive_definite), bool(s.is_positive_semidefinite)


class TestSymmetricDefiniteness:
    def test_identity_positive_definite(self):
        pd, psd, nullity = symmetric_definiteness(Matrix.identity(3))
        assert (pd, psd, nullity) == (True, True, 0)

    def test_rank_deficient_semidefinite(self):
        b = Matrix.from_rows([[1, 1], [1, 1]])
        pd, psd, nullity = symmetric_definiteness(b)
        assert (pd, psd, nullity) == (False, True, 1)

    def test_indefinite(self):
        b = Matrix.from_rows([[1, 0], [0, -1]])
        pd, psd, _ = symmetric_definiteness(b)
        assert (pd, psd) == (False, False)

    def test_pivot_row_preserved_during_elimination(self):
        # this matrix is indefinite: (0, 1, 1) gives value 4 but
        # (1, 0, 1) gives -2; a Schur-complement update that clears the
        # pivot row too early misclassifies it as semidefinite
        b = Matrix.from_rows([[2, -1, -2], [-1, 2, 0], [-2, 0, 2]])
        pd, psd, _ = symmetric_definiteness(b)
        assert (pd, psd) == (False, False)

    def test_against_exact_oracle(self):
        rng = random.Random(7)
        for _ in range(120):
            n = rng.randint(1, 4)
            a = random_fraction_matrix(rng, n, n, bound=3)
            b = a + a.transpose()
            if rng.random() < 0.4:
                # bias towards semidefinite inputs, which are rare at random
                b = a.transpose() * a
            pd, psd, nullity = symmetric_definiteness(b)
            want_pd, want_psd = _definiteness_oracle(b)
            assert (pd, psd) == (want_pd, want_psd)
            if psd:
                assert nullity == b.cols - b.rank()
