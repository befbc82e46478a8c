from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtors import (
    Matrix,
    Quiver,
    ar_translate,
    cartan_matrix,
    coxeter_matrix,
    enumerate_indecomposables,
    euler_form,
    ext1_dim,
    forms_context,
    hom_dim,
    projective_rep,
    tau_dimvec,
    tau_inverse_dimvec,
    triple_quiver,
    wild_triple_euler_value,
)
from qtors.quiver import QuiverError

from conftest import linear_quiver, star_quiver


def test_cartan_counts_paths():
    q = linear_quiver(3)
    c = cartan_matrix(q)
    # entry (i, j) counts paths j -> i: exactly the pairs j <= i here
    assert c == Matrix.from_rows([[1, 0, 0], [1, 1, 0], [1, 1, 1]])
    q2 = Quiver(2, ((1, 2), (1, 2)))
    assert cartan_matrix(q2)[1, 0] == 2


def test_cartan_rejects_cycles():
    with pytest.raises(QuiverError):
        # the constructor itself refuses cyclic quivers
        Quiver(2, ((1, 2), (2, 1)))


def test_coxeter_identity():
    for q in [linear_quiver(3), star_quiver(3)]:
        c = cartan_matrix(q)
        assert coxeter_matrix(q) == (-c.transpose()) * c.inverse()
        ctx = forms_context(q)
        assert ctx.coxeter * ctx.coxeter_inv == Matrix.identity(q.n)


def test_euler_form_on_simples_reads_arrows():
    q = Quiver(3, ((1, 2), (1, 2), (2, 3)))
    e = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert euler_form(q, e[0], e[0]) == 1
    assert euler_form(q, e[0], e[1]) == -2  # minus the arrow count 1 -> 2
    assert euler_form(q, e[1], e[0]) == 0


@st.composite
def quivers_with_vectors(draw):
    """A random acyclic quiver, multiple arrows allowed, with vertices
    relabelled so arrows need not point upwards, and two integer vectors."""
    n = draw(st.integers(1, 5))
    label = draw(st.permutations(range(1, n + 1)))
    edges = [(s, t) for s in range(n) for t in range(s + 1, n)]
    chosen = draw(st.lists(st.sampled_from(edges), max_size=8)) if edges else []
    q = Quiver(n, tuple((label[s], label[t]) for s, t in chosen))
    vec = st.lists(st.integers(-4, 6), min_size=n, max_size=n)
    return q, draw(vec), draw(vec)


@settings(max_examples=200, deadline=None)
@given(quivers_with_vectors())
def test_euler_form_is_the_inverse_cartan_form(case):
    # reference: x^t (C^{-1})^t y over the rationals
    q, x, y = case
    cinv_t = cartan_matrix(q).inverse().transpose()
    want = sum(Fraction(a) * b for a, b in zip(x, cinv_t.apply(y)))
    got = euler_form(q, x, y)
    assert type(got) is int
    assert got == want


@pytest.mark.parametrize("q", [linear_quiver(3), star_quiver(3)])
def test_euler_form_is_hom_minus_ext(q):
    mods = enumerate_indecomposables(q)
    for x in mods[:6]:
        for y in mods[:6]:
            want = hom_dim(x, y) - ext1_dim(x, y)
            assert euler_form(q, list(x.dims), list(y.dims)) == want


@pytest.mark.parametrize("q", [linear_quiver(3), star_quiver(3)])
def test_tau_dimvec_matches_translate(q):
    projs = [projective_rep(q, v) for v in range(1, q.n + 1)]
    proj_dims = {p.dims for p in projs}
    for m in enumerate_indecomposables(q):
        if m.dims in proj_dims:
            continue
        t = ar_translate(m)
        assert list(t.dims) == tau_dimvec(q, list(m.dims))


def test_tau_inverse_inverts():
    q = linear_quiver(4)
    for d in [[1, 1, 0, 0], [2, 3, 1, 0], [1, 0, 0, 1]]:
        assert tau_inverse_dimvec(q, tau_dimvec(q, d)) == d


def test_triple_quiver_layout():
    q = triple_quiver(2, 1, 3)
    assert q.n == 3
    assert sorted(q.arrows) == [(1, 2)] * 2 + [(1, 3)] * 3 + [(2, 3)]
    assert triple_quiver(0, 0, 0).arrows == ()
    for abc in [(2, -3, 1), (-1, 1, 0), (2, 1, -1)]:
        with pytest.raises(QuiverError, match="non-negative"):
            triple_quiver(*abc)


def test_closed_form_matches_matrix_form_samples():
    for a, b, c in [(2, 1, 0), (2, 2, 1), (3, 1, 2), (4, 5, 6)]:
        q = triple_quiver(a, b, c)
        ctx = forms_context(q)
        m = [1, a, 0]
        assert ctx.euler_form(ctx.tau_dimvec(m), m) == wild_triple_euler_value(a, b, c)
