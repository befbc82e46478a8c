"""Hom dimensions and Gen-membership come from the reduced Hom system only;
they are held here to the dense `hom_basis` system and the dense Gen
oracle, on small pairs, twisted copies, direct sums and random inputs."""

from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qtors.rep
from qtors import (
    Matrix,
    Quiver,
    Rep,
    direct_sum,
    enumerate_indecomposables,
    forms_context,
    gen_contains,
    hom_basis,
    hom_dim,
    kronecker_window,
    simple_rep,
    zero_rep,
)
from qtors.modkernel import PRIME, _MAX_COLS, echelon_mod_p, pivot_columns_mod_p
from qtors.rep import _exact_column_span_full

from conftest import dense_gen_contains, linear_quiver, star_quiver

ZIGZAG_A5 = Quiver(5, ((1, 2), (3, 2), (3, 4), (5, 4)))
QUIVERS = {"A3": linear_quiver(3), "D4": star_quiver(3), "A5zigzag": ZIGZAG_A5}


def _twisted(x: Rep) -> Rep:
    """Isomorphic copy of x over a Fraction base change at every vertex:
    g_v is upper unitriangular with Fraction entries, scaled by a
    vertex-dependent Fraction, and the map along s -> t becomes
    g_t . x_a . g_s^-1."""
    def entry(v: int, i: int, j: int) -> Fraction:
        if i == j:
            return Fraction(v + 2, 2 * v + 3)
        return Fraction(i + j + 1, j + 2) if j > i else Fraction(0)

    g = [
        Matrix(d, d, [[entry(v, i, j) for j in range(d)] for i in range(d)])
        for v, d in enumerate(x.dims)
    ]
    maps = tuple(
        g[t - 1] * m * g[s - 1].inverse()
        for (s, t), m in zip(x.quiver.arrows, x.arrow_maps)
    )
    return Rep(x.quiver, x.dims, maps)


def _assert_matches_oracles(x: Rep, y: Rep) -> None:
    assert hom_dim(x, y) == len(hom_basis(x, y)), (x.dims, y.dims)
    assert gen_contains(x, y) == dense_gen_contains(x, y), (x.dims, y.dims)


class TestDifferential:
    @pytest.mark.parametrize("name", QUIVERS)
    def test_indecomposables_and_twisted_copies(self, name):
        mods = enumerate_indecomposables(QUIVERS[name])
        twisted = [_twisted(m) for m in mods]
        assert any(
            e.denominator != 1
            for t in twisted
            for m in t.arrow_maps
            for e in m.entries()
        )
        reps = mods + twisted
        for x in reps:
            for y in reps:
                _assert_matches_oracles(x, y)

    @pytest.mark.parametrize("name", ["A3", "D4"])
    def test_sums_with_repeated_summands_and_zero_vertices(self, name):
        q = QUIVERS[name]
        mods = enumerate_indecomposables(q)
        sums = [
            direct_sum([mods[0], mods[0]]),
            direct_sum([mods[-1], _twisted(mods[-1]), mods[1]]),
            direct_sum([mods[2]] * 3),
            zero_rep(q),
        ]
        assert any(0 in s.dims for s in sums)
        for s in sums:
            for m in mods + sums:
                _assert_matches_oracles(s, m)
                _assert_matches_oracles(m, s)

    def test_entries_past_int64(self):
        # a path through a zero space next to an arrow with entries above
        # 2**63 once made the int64 path-map product overflow
        mods = enumerate_indecomposables(QUIVERS["A3"])
        big = 10**19 + 7
        tall = [
            Rep(m.quiver, m.dims, tuple(a.scale(big) for a in m.arrow_maps))
            for m in mods
        ]
        for x in mods + tall:
            for y in tall:
                _assert_matches_oracles(x, y)

    def test_route_ranking_builds_one_presentation(self):
        # the two routes are ranked by shapes read off the top generators;
        # only the chosen one builds presentation kernels
        mods = enumerate_indecomposables(QUIVERS["D4"])
        for m in mods:
            for n in mods:
                x = Rep(m.quiver, m.dims, m.arrow_maps)
                y = Rep(n.quiver, n.dims, n.arrow_maps)
                assert x._rescaled is None and y._rescaled is None
                assert hom_dim(x, y) == len(hom_basis(x, y))
                built = [r for r in (x, y._dual) if "_presentation" in vars(r)]
                assert len(built) <= 1

    def test_no_dense_hom_system_needed(self, monkeypatch):
        q = QUIVERS["D4"]
        mods = enumerate_indecomposables(q)
        reps = mods + [_twisted(m) for m in mods[::3]] + [direct_sum([mods[4]] * 2)]
        expected = {
            (i, j): (len(hom_basis(x, y)), dense_gen_contains(x, y))
            for i, x in enumerate(reps)
            for j, y in enumerate(reps)
        }

        def refuse(x, y):
            raise AssertionError("hom_basis called for a dimension or a Gen test")

        monkeypatch.setattr(qtors.rep, "hom_basis", refuse)
        for (i, j), (dim, gen) in expected.items():
            assert hom_dim(reps[i], reps[j]) == dim
            assert gen_contains(reps[i], reps[j]) == gen


@st.composite
def _quiver_with_reps(draw):
    """A random acyclic quiver on 2-4 vertices with arrow multiplicities up
    to 2 and shuffled labels, and two representations with dimensions at
    most 2 and small Fraction maps."""
    n = draw(st.integers(2, 4))
    label = draw(st.permutations(range(1, n + 1)))
    arrows = []
    for s in range(n):
        for t in range(s + 1, n):
            arrows += [(label[s], label[t])] * draw(st.integers(0, 2))
    q = Quiver(n, tuple(arrows))
    entry = st.fractions(min_value=-3, max_value=3, max_denominator=3)

    def rep():
        dims = tuple(draw(st.integers(0, 2)) for _ in range(n))
        maps = tuple(
            Matrix(
                dims[t - 1],
                dims[s - 1],
                [[draw(entry) for _ in range(dims[s - 1])] for _ in range(dims[t - 1])],
            )
            for s, t in arrows
        )
        return Rep(q, dims, maps)

    return rep(), rep()


@settings(max_examples=50, deadline=None)
@given(_quiver_with_reps())
def test_random_representations_match_the_oracles(pair):
    x, y = pair
    xy, xx = direct_sum([x, y]), direct_sum([x, x])
    for a, b in ((x, y), (y, x), (x, x), (xy, y), (x, xx)):
        _assert_matches_oracles(a, b)


class TestWideRadical:
    """A radical wider than one modular elimination: X_2 of the
    2-Kronecker representation of dims (4100, 1) is the image of 8200
    columns.  Its top generators come from an echelon one column wide."""

    def test_hom_and_gen_into_the_simple_at_the_sink(self):
        q = Quiver(2, ((1, 2), (1, 2)))
        d = 4100
        ones = Matrix(1, d, [[Fraction(1)] * d])
        ramp = Matrix(1, d, [[Fraction(j) for j in range(d)]])
        x = Rep(q, (d, 1), (ones, ramp))
        s2 = simple_rep(q, 2)
        assert hom_dim(x, s2) == 0
        assert not gen_contains(x, s2)


# `_exact_column_span_full` is one exact rank: it builds no ModKernel
_NO_MODKERNEL = mock.patch.object(
    qtors.rep, "ModKernel", mock.Mock(side_effect=AssertionError("ModKernel"))
)


@_NO_MODKERNEL
class TestWideColumnBuffers:
    """The exact Gen route ranks trace columns as `gen_contains` does: their
    residues mod PRIME as float64 go to `pivot_columns_mod_p`, and a
    vertex left short is decided by `_exact_column_span_full`."""

    @staticmethod
    def _pivots(cols):
        p = PRIME
        return pivot_columns_mod_p(
            (np.stack(cols, axis=1) % p).astype(np.float64), p
        )

    def test_more_columns_than_one_echelon_takes(self):
        cols = [np.array([1, 0], dtype=np.int64)] * _MAX_COLS + [
            np.array([0, 1], dtype=np.int64)
        ]
        assert self._pivots(cols) == [0, _MAX_COLS]
        assert _exact_column_span_full(cols, 2)
        assert not _exact_column_span_full(cols[:-1], 2)

    def test_object_columns(self):
        big = 10**30
        cols = [np.array([big, 2 * big], dtype=object), np.array([1, 0], dtype=object)]
        assert self._pivots(cols) == [0, 1]
        assert _exact_column_span_full(cols, 2)
        assert not _exact_column_span_full(cols[:1], 2)

    @pytest.mark.parametrize("seed", range(6))
    def test_same_greedy_columns_as_one_echelon(self, seed):
        rng = np.random.default_rng(seed)
        dim, rank, n = 12, 7, 90
        a = rng.integers(-3, 4, (dim, rank)) @ rng.integers(-3, 4, (rank, n))
        a[:, rng.integers(0, n, 20)] = 0
        cols = [a[:, j] for j in range(n)]
        p = PRIME
        _, piv = echelon_mod_p(a, p)
        assert self._pivots(cols) == piv
        assert _exact_column_span_full(cols, dim) == (len(piv) == dim)


class TestExactGenRoute:
    @_NO_MODKERNEL
    def test_full_over_q_but_zero_mod_the_first_prime(self):
        assert _exact_column_span_full([np.array([PRIME], dtype=np.int64)], 1)

    @_NO_MODKERNEL
    def test_rank_deficient_columns(self):
        cols = [np.array(c, dtype=np.int64) for c in ([1, 2, 3], [2, 4, 6], [1, 1, 1])]
        assert not _exact_column_span_full(cols, 3)
        assert not _exact_column_span_full([], 1)
        assert _exact_column_span_full(cols + [np.array([0, 0, 1])], 3)

    def test_unpinned_yes_reads_the_whole_basis_once(self):
        """A3 + B1 of the 2-Kronecker window maps onto A5 through an
        unpinned system (upper bound 3 against a Euler bound of -3).  The
        exact route reads all three basis vectors, then ranks the trace
        columns at the one top vertex of A5 once: they are full mod PRIME,
        so no exact rank is taken."""
        w = kronecker_window(2, 5)
        m = direct_sum([w.preprojectives[2], w.preinjectives[0]])
        x = w.preprojectives[4]
        lifted = []
        solutions = qtors.rep._HomSystem.solutions

        def counted(sys):
            for u in solutions(sys):
                lifted.append(u)
                yield u

        ranks = mock.patch.object(
            qtors.rep, "pivot_columns_mod_p", wraps=pivot_columns_mod_p
        )
        exact = mock.patch.object(
            qtors.rep, "_exact_column_span_full", side_effect=AssertionError
        )
        with mock.patch.object(qtors.rep._HomSystem, "solutions", counted), ranks as rank, exact:
            assert gen_contains(m, x)
        assert qtors.rep._integer_form(x)._tops.support == {1}
        assert len(lifted) == 3 and rank.call_count == 1
        lower = forms_context(m.quiver).euler_form(list(m.dims), list(x.dims))
        assert lower == -3 and hom_dim(m, x) == 3
        assert dense_gen_contains(m, x)

    def test_one_rank_test_per_top_vertex(self):
        """With the certificate switched off, a Gen "yes" from the exact
        route makes one `pivot_columns_mod_p` call per top vertex of the
        target and a "no" at most that many, on Kronecker window members
        and on twisted Dynkin modules and their sums."""
        w = kronecker_window(3, 4)
        mods = enumerate_indecomposables(star_quiver(3))
        sums = [direct_sum([a, b]) for a, b in zip(mods, mods[1:])]
        reps = [w.preprojectives + w.preinjectives, mods + [_twisted(x) for x in mods] + sums]
        calls = []
        hom_system = qtors.rep._hom_system

        def built(x, y):
            calls.append("system")
            return hom_system(x, y)

        def ranked(a, p):
            calls.append("rank")
            return pivot_columns_mod_p(a, p)

        routed = {True: 0, False: 0}
        with mock.patch.object(
            qtors.rep, "_gen_certified_mod_p", return_value=False
        ), mock.patch.object(qtors.rep, "_hom_system", built), mock.patch.object(
            qtors.rep, "pivot_columns_mod_p", ranked
        ):
            for group in reps:
                for m in group:
                    for x in group:
                        del calls[:]
                        got = gen_contains(m, x)
                        assert got == dense_gen_contains(m, x)
                        if not calls:
                            continue
                        # a "no" stops at the first top vertex left short
                        top = len(qtors.rep._integer_form(x)._tops.support)
                        ranks = calls.count("rank")
                        assert calls == ["system"] + ["rank"] * ranks, (m.dims, x.dims)
                        assert ranks == top if got else ranks <= top, (m.dims, x.dims)
                        routed[got] += ranks > 0
        assert routed[True] > 20 and routed[False] > 20
