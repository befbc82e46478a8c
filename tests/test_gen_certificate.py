"""The one-prime Gen certificate (`rep._gen_certified_mod_p`) against the
exact lifting route, and the pin guard that keeps it sound: on fresh
objects, `gen_contains` gives the same answers with the certificate as with
it switched off, and a prime that lowers the rank of the Hom system cannot
make it answer True."""

from unittest import mock

import numpy as np
import pytest

from qtors import (
    Matrix,
    Quiver,
    Rep,
    build_wild_witness,
    direct_sum,
    enumerate_indecomposables,
    exists_surjection,
    forms_context,
    gen_contains,
    hom_basis,
    hom_dim,
    is_isomorphic,
    kronecker_window,
    simple_rep,
    triple_quiver,
)
from qtors import modkernel, rep
from qtors.modkernel import PRIME

from conftest import linear_quiver, star_quiver
from test_hom_route import _twisted


def _answers(reps):
    return [[gen_contains(a, b) for b in reps] for a in reps]


def _compare_routes(build):
    """Gen answers on every ordered pair of the objects `build` returns,
    first with the certificate, then without it on fresh objects; also the
    certificate's own results."""
    seen = []
    orig = rep._gen_certified_mod_p

    def recorded(sys, ti):
        out = orig(sys, ti)
        seen.append(out)
        return out

    with mock.patch.object(rep, "_gen_certified_mod_p", recorded):
        with_cert = _answers(build())
    with mock.patch.object(rep, "_gen_certified_mod_p", lambda sys, ti: False):
        exact = _answers(build())
    assert with_cert == exact
    return seen, with_cert


# (certificate, projective "yes") counts of the True answers
_ROUTES = {(2, 5): (36, 10), (3, 4): (21, 8)}


@pytest.mark.parametrize("n, depth", [(2, 5), (3, 4)])
def test_kronecker_window_members(n, depth):
    def build():
        w = kronecker_window(n, depth)
        return w.preprojectives + w.preinjectives

    seen, answers = _compare_routes(build)
    # every True on these pinned systems is certified, by one of two routes:
    # the one-prime certificate, or the projective "yes", which answers
    # before any Hom system is built, when the first member is its own P0
    # and the top of the second lies on its generator vertices
    calls = []
    orig = rep._hom_system

    def hom_system(x, y):
        calls.append((x, y))
        return orig(x, y)

    projective = 0
    reps = build()
    with mock.patch.object(rep, "_hom_system", hom_system):
        for a in reps:
            for b in reps:
                del calls[:]
                if gen_contains(a, b) and not calls:
                    tops = rep._integer_form(a)._tops
                    assert tops.p0_dims == list(a.dims)
                    assert rep._integer_form(b)._tops.support <= tops.support
                    projective += 1
    assert (seen.count(True), projective) == _ROUTES[n, depth]
    assert seen.count(True) + projective == sum(map(sum, answers))


@pytest.mark.parametrize("quiver", [linear_quiver(3), star_quiver(3)], ids=["A3", "D4"])
def test_twisted_dynkin_indecomposables(quiver):
    def build():
        mods = enumerate_indecomposables(quiver)
        twisted = [_twisted(m) for m in mods]
        sums = [direct_sum([a, b]) for a, b in zip(mods, twisted[1:])]
        return mods + twisted + sums

    seen, _ = _compare_routes(build)
    # the certificate is also tried, and fails, on pinned "no" pairs, such
    # as a summand into a sum it does not generate
    assert True in seen and False in seen


@pytest.mark.parametrize("abc", [(2, 1, 0), (2, 1, 1)])
def test_wild_witness_pairs(abc):
    def build():
        w = build_wild_witness(triple_quiver(*abc))
        return [w.m, w.n, direct_sum([w.m, w.n])]

    _compare_routes(build)


def test_path_maps_past_int64():
    big = 10**19 + 7

    def build():
        mods = enumerate_indecomposables(linear_quiver(3))
        tall = [
            Rep(m.quiver, m.dims, tuple(a.scale(big) for a in m.arrow_maps))
            for m in mods
        ]
        return mods + tall

    seen, _ = _compare_routes(build)
    assert True in seen
    reps = build()
    systems = [
        rep._hom_system(rep._integer_form(x), rep._integer_form(y))
        for x in reps
        for y in reps
    ]
    assert any(m.dtype == object for sys in systems for m in sys.ynp.values())


def _unlucky_pair():
    """S1 + S2 and t of dims (1, 1) on 1 -> 2 whose arrow map is the
    prime: modulo the prime t looks like S1 + S2, so the Hom system has
    upper bound 2, while over the rationals Hom(S1 + S2, t) = Hom(S2, t)
    has dimension 1 and the trace misses vertex 1."""
    q = Quiver(2, ((1, 2),))
    g = direct_sum([simple_rep(q, 1), simple_rep(q, 2)])
    t = Rep(q, (1, 1), (Matrix(1, 1, [[PRIME]]),))
    return g, t


def _unlucky_unpinned_pair(arrow):
    """S1 + S2 and t of dims (1, 1) on the Kronecker quiver 1 => 2 whose
    arrow maps are `arrow`, a multiple of the prime, and 0: modulo the
    prime t looks like S1 + S2, so the Hom system has upper bound 2 against
    a Euler bound of 0 and is not pinned, while Hom(S1 + S2, t) = Hom(S2, t)
    has dimension 1.  The free columns mod p are not the exact ones, so
    the answers must come from the exact elimination."""
    q = Quiver(2, ((1, 2), (1, 2)))
    g = direct_sum([simple_rep(q, 1), simple_rep(q, 2)])
    t = Rep(q, (1, 1), (Matrix(1, 1, [[arrow]]), Matrix(1, 1, [[0]])))
    return g, t


def _unlucky_brick(arrow):
    """The brick t of dims (2, 1) on the Kronecker quiver 1 => 2 whose
    arrow maps are the functionals (1, 0) and (0, arrow), `arrow` a
    multiple of the prime.  Its top is exactly vertex 1, but modulo the
    prime the second map vanishes: the End(t) system has upper bound 3
    against a Euler bound of 1 and is not pinned, while End(t) = k."""
    q = Quiver(2, ((1, 2), (1, 2)))
    return Rep(q, (2, 1), (Matrix(1, 2, [[1, 0]]), Matrix(1, 2, [[0, arrow]])))


# a prime other than PRIME, so that PRIME * _OTHER_PRIME is unlucky at PRIME
# and has a second large prime factor
_OTHER_PRIME = 524269


def test_unlucky_prime_cannot_certify():
    g, t = _unlucky_pair()
    assert not gen_contains(g, t)
    g, t = _unlucky_pair()
    sys = rep._hom_system(rep._integer_form(g), rep._integer_form(t))
    euler = forms_context(t.quiver).euler_form(list(g.dims), list(t.dims))
    # the unlucky prime leaves the system unpinned
    assert (sys.upper, euler) == (2, 1)
    assert not rep._pinned(sys, g, t)
    # without the pin guard the mod-p trace is full and would answer True
    assert rep._gen_certified_mod_p(sys, rep._integer_form(t))
    assert not gen_contains(g, t)
    g, t = _unlucky_pair()
    # the exact nullity, with no kernel vector built
    with mock.patch.object(rep.ModKernel, "exact_vectors", side_effect=AssertionError):
        assert hom_dim(g, t) == 1

    for arrow in (PRIME, PRIME * _OTHER_PRIME):
        g, t = _unlucky_unpinned_pair(arrow)
        sys = rep._hom_system(rep._integer_form(g), rep._integer_form(t))
        euler = forms_context(t.quiver).euler_form(list(g.dims), list(t.dims))
        assert (sys.upper, euler) == (2, 0)
        g, t = _unlucky_unpinned_pair(arrow)
        assert not gen_contains(g, t)
        assert not gen_contains(g, t)
        g, t = _unlucky_unpinned_pair(arrow)
        assert hom_dim(g, t) == 1
        # a brick whose End system is unlucky although its top is exact:
        # the identity is onto
        t = _unlucky_brick(arrow)
        assert rep._integer_form(t)._tops.support == {1}
        sys = rep._hom_system(rep._integer_form(t), rep._integer_form(t))
        euler = forms_context(t.quiver).euler_form(list(t.dims), list(t.dims))
        assert (sys.upper, euler) == (3, 1) and not rep._pinned(sys, t, t)
        t = _unlucky_brick(arrow)
        assert hom_dim(t, t) == 1
        assert gen_contains(t, t)
        assert exists_surjection(t, t)
        assert is_isomorphic(t, t)
        assert len(hom_basis(t, t)) == 1

    # a system eliminates its blocks exactly once, not once per question
    g, t = _unlucky_unpinned_pair(PRIME)
    with mock.patch.object(
        modkernel, "_exact_echelon", wraps=modkernel._exact_echelon
    ) as exact:
        assert not gen_contains(g, t)
        calls = exact.call_count
        for _ in range(3):
            assert not gen_contains(g, t)
    assert calls and exact.call_count == calls


def test_certificate_reads_cached_path_residues():
    w = kronecker_window(2, 4)
    top = direct_sum(w.preprojectives[:2])
    m = w.preprojectives[-1]
    assert gen_contains(top, m)
    sys = rep._hom_system(rep._integer_form(top), rep._integer_form(m))
    maps = sys.path_residues
    assert sys.path_residues is maps
    assert all(pth for _, pth in maps)  # the identity is never stored
    for (v, pth), res in maps.items():
        assert np.array_equal(res, sys.ynp[(v, pth)] % PRIME)
