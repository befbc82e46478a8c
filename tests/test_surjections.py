"""Surjections and isomorphisms come from the reduced Hom system; they are
held here to the dense search over a `hom_basis` basis, and the route each
answer takes is checked: a pinned "yes" lifts nothing, an unpinned one is
decided by exact draws."""

import itertools
from fractions import Fraction
from unittest import mock

import pytest

import qtors.rep
from qtors import (
    Rep,
    catalog,
    direct_sum,
    enumerate_indecomposables,
    exists_surjection,
    forms_context,
    gen_contains,
    hom_dim,
    is_isomorphic,
    projective_rep,
    simple_rep,
    surjection_table,
)
from qtors.modkernel import ModKernel

from conftest import dense_exists_surjection, dense_is_isomorphic, linear_quiver
from test_hom_route import _twisted

A3 = linear_quiver(3)


@pytest.fixture(scope="module")
def a3_reps() -> list[Rep]:
    """The indecomposables of A3 and their sums of two summands."""
    mods = enumerate_indecomposables(A3)
    return mods + [
        direct_sum([a, b]) for a, b in itertools.combinations_with_replacement(mods, 2)
    ]


def test_exists_surjection_matches_the_dense_search(a3_reps):
    answers = {True: 0, False: 0}
    for x in a3_reps:
        for y in a3_reps:
            expected = dense_exists_surjection(x, y)
            assert exists_surjection(x, y) == expected, (x.dims, y.dims)
            answers[expected] += 1
    assert min(answers.values()) > 0


def test_is_isomorphic_matches_the_dense_search(a3_reps):
    reps = a3_reps + [_twisted(x) for x in a3_reps]
    isomorphic = 0
    for x in reps:
        for y in reps:
            if x.dims != y.dims:
                assert not is_isomorphic(x, y)
                continue
            expected = dense_is_isomorphic(x, y)
            assert is_isomorphic(x, y) == expected, (x.dims, y.dims)
            isomorphic += expected
    # each module and its rescaled copy, both ways, and nothing else: the
    # sums of two summands are pairwise non-isomorphic
    assert isomorphic == 4 * len(a3_reps)


def test_surjection_table_needs_no_dense_basis(monkeypatch):
    cat = catalog(A3)
    expected = {
        (i, j): dense_exists_surjection(x, y)
        for i, x in enumerate(cat.modules)
        for j, y in enumerate(cat.modules)
    }

    def refuse(x, y):
        raise AssertionError("hom_basis called for a surjection test")

    monkeypatch.setattr(qtors.rep, "hom_basis", refuse)
    assert surjection_table(A3) == expected


def test_pinned_yes_lifts_nothing():
    p1, s1 = projective_rep(A3, 1), simple_rep(A3, 1)
    twisted = Rep(
        A3, p1.dims, (p1.arrow_maps[0].scale(3), p1.arrow_maps[1].scale(Fraction(1, 2)))
    )
    # the first calls build the presentations, whose kernels are lifted;
    # the Hom systems are pinned, so a repeated call lifts no solution
    assert exists_surjection(p1, s1) and is_isomorphic(p1, twisted)
    with mock.patch.object(ModKernel, "exact_vectors", side_effect=AssertionError):
        assert exists_surjection(p1, s1)
        assert is_isomorphic(p1, twisted)


def test_unpinned_yes_is_decided_by_exact_draws():
    # Ext^1(S1, S2) is not zero, so Hom(x, x) has dimension 2 against an
    # Euler form of 1, and the one-prime certificate does not apply
    x = direct_sum([simple_rep(A3, 1), simple_rep(A3, 2)])
    assert hom_dim(x, x) > forms_context(A3).euler_form(list(x.dims), list(x.dims))
    spy = mock.patch.object(
        qtors.rep, "_exact_column_span_full", wraps=qtors.rep._exact_column_span_full
    )
    with spy as span_full:
        assert gen_contains(x, x)
        assert not span_full.called
        assert exists_surjection(x, x)
        assert span_full.called


def test_draw_count_needs_total_dim_below_the_prime():
    # with 3 in place of the draw prime, a target of total dimension 4 has
    # no draw count that meets the bound; P1^2 + S2^2 -> S2^4 is not
    # certified by one solution, so the draws are reached
    q = linear_quiver(2)
    x = direct_sum([projective_rep(q, 1)] * 2 + [simple_rep(q, 2)] * 2)
    y = direct_sum([simple_rep(q, 2)] * 4)
    with mock.patch.object(qtors.rep, "PRIME", 3):
        with pytest.raises(ValueError, match="below the draw prime"):
            exists_surjection(x, y)
