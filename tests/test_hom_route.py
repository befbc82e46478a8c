"""Hom dimensions and Gen-membership come from the reduced Hom system only;
they are held here to the dense `hom_basis` system and the dense Gen
oracle, on small pairs, twisted copies, direct sums and random inputs."""

from fractions import Fraction

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
    gen_contains,
    hom_basis,
    hom_dim,
    zero_rep,
)
from qtors.modkernel import PRIMES, _MAX_COLS, echelon_mod_p
from qtors.rep import _modp_full, _modp_pivot_columns

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


class TestWideColumnBuffers:
    def test_more_columns_than_one_echelon_takes(self):
        cols = [np.array([1, 0], dtype=np.int64)] * _MAX_COLS + [
            np.array([0, 1], dtype=np.int64)
        ]
        assert _modp_pivot_columns(cols, 2) == [0, _MAX_COLS]
        assert _modp_full(cols, 2)
        assert not _modp_full(cols[:-1], 2)

    def test_object_columns(self):
        big = 10**30
        cols = [np.array([big, 2 * big], dtype=object), np.array([1, 0], dtype=object)]
        assert _modp_pivot_columns(cols, 2) == [0, 1]
        assert _modp_full(cols, 2)

    @pytest.mark.parametrize("seed", range(6))
    def test_same_greedy_columns_as_one_echelon(self, seed):
        rng = np.random.default_rng(seed)
        dim, rank, n = 12, 7, 90
        a = rng.integers(-3, 4, (dim, rank)) @ rng.integers(-3, 4, (rank, n))
        a[:, rng.integers(0, n, 20)] = 0
        cols = [a[:, j] for j in range(n)]
        p = PRIMES[0]
        _, piv = echelon_mod_p((a % p).astype(np.float64), p)
        assert _modp_pivot_columns(cols, dim) == piv
        assert _modp_full(cols, dim) == (len(piv) == dim)
