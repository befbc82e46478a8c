"""ExtGroup held to the dense route it replaced (`dense_ext`): the same
cocycle coordinates, and the same coboundary answers on images of delta
and on images plus one unit cocycle."""

from __future__ import annotations

import random
import time
import tracemalloc
from fractions import Fraction
from math import lcm

import pytest

from qtors import (
    Matrix,
    Quiver,
    Rep,
    build_wild_witness,
    enumerate_indecomposables,
    triple_quiver,
)
from qtors.rep import ExtGroup, _intertwining_matrix

from conftest import linear_quiver, random_fraction_matrix, star_quiver
from dense_ext import DenseExt, dense_delta, flatten, unflatten

A3 = linear_quiver(3)
D4 = star_quiver(3)


def _check_delta(x, y):
    # the triples are delta's numerators over the lcm of the arrow
    # denominators, each position once and every value non-zero
    rows, cols, vals, (nrows, nvars) = _intertwining_matrix(x, y)
    cells = list(zip(rows.tolist(), cols.tolist()))
    assert len(set(cells)) == len(cells) and all(vals.tolist())
    dense = [[0] * nvars for _ in range(nrows)]
    for (i, j), v in zip(cells, vals.tolist()):
        dense[i][j] = v
    den = lcm(*(m._den for m in x.arrow_maps + y.arrow_maps))
    assert Matrix(nrows, nvars, dense).scale(Fraction(1, den)) == dense_delta(x, y)


def _check(x, z, rng, images=3):
    ext, old = ExtGroup(x, z), DenseExt(x, z)
    assert ext.dimension == len(old.picked)
    assert list(ext.cocycles) == old.cocycles
    delta = old.delta
    for _ in range(images):
        phi = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(delta.cols)]
        image = delta.apply(phi)
        assert ext.is_coboundary(unflatten(image, old.shapes))
        if old.picked:
            k = rng.randrange(len(old.picked))
            unit = flatten(old.cocycles[k])
            eta = unflatten([a + b for a, b in zip(image, unit)], old.shapes)
            assert not ext.is_coboundary(eta)
            assert not old.is_coboundary(eta)


@pytest.mark.parametrize("q", [A3, D4], ids=["A3", "D4"])
def test_all_dynkin_pairs(q):
    rng = random.Random(1)
    mods = enumerate_indecomposables(q)
    for x in mods:
        for z in mods:
            _check_delta(z, x)
            _check(x, z, rng)


@pytest.mark.parametrize("abc", [(2, 1, 0), (2, 1, 1), (3, 2, 1)])
def test_witness_pairs(abc):
    rng = random.Random(2)
    w = build_wild_witness(triple_quiver(*abc))
    for x in (w.m, w.n):
        for z in (w.m, w.n):
            _check_delta(z, x)
            _check(x, z, rng, images=1)


def _random_rep(q, rng, big):
    dims = tuple(rng.randint(0, 3) for _ in range(q.n))
    maps = []
    for s, t in q.arrows:
        m = random_fraction_matrix(rng, dims[t - 1], dims[s - 1], bound=2)
        maps.append(m.scale(2**70 + 1) if big else m)
    return Rep(q, dims, tuple(maps))


@pytest.mark.parametrize("big", [False, True], ids=["fractions", "beyond-int64"])
def test_random_rational_pairs(big):
    # arrow maps with denominators, or with entries past int64, on the
    # Kronecker quiver and D4
    rng = random.Random(3)
    for q in (Quiver(2, ((1, 2), (1, 2))), D4):
        for _ in range(25):
            x, z = _random_rep(q, rng, big), _random_rep(q, rng, big)
            _check_delta(z, x)
            _check(x, z, rng)


def test_the_541_ext_group_is_cheap():
    """Ext^1(N, M) of the (5,4,1) witness, 11000 cocycle coordinates and
    dimension 10140, answers in well under a second and a few MB (the
    [delta | I] elimination took 38 s and 2 GB)."""
    w = build_wild_witness(triple_quiver(5, 4, 1))
    started = time.perf_counter()
    ext = ExtGroup(w.m, w.n)
    elapsed = time.perf_counter() - started
    tracemalloc.start()
    try:
        ExtGroup(w.m, w.n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ext.dimension == 10140
    assert not ext.is_coboundary(ext.cocycles[0])
    assert elapsed < 4, f"Ext^1(N, M) took {elapsed:.1f}s of 4s"
    assert peak < 64 * 2**20
