"""`hom_basis`, the oracle of many Hom tests, held to an oracle of its own:
the kernel basis of the dense intertwining matrix delta (`dense_ext`)
computed by the entry-wise `Fraction` RREF of `fraction_linalg`, which
shares no elimination with qtors.  The canonical kernel basis (1 at a free
column, minus that column of the RREF at the pivots) is unique, so the two
must agree vector for vector, in order."""

from __future__ import annotations

import itertools

import pytest

import fraction_linalg
from qtors import enumerate_indecomposables, hom_basis, kronecker_window

from conftest import linear_quiver, star_quiver
from dense_ext import dense_delta, flatten
from test_hom_route import _twisted


def _check(x, y):
    delta = dense_delta(x, y)
    want = fraction_linalg.Matrix(
        delta.rows, delta.cols, [list(delta.row(i)) for i in range(delta.rows)]
    ).kernel_basis()
    got = hom_basis(x, y)
    # variable (v, i, j) is entry (i, j) of phi_v: the maps, row-major,
    # vertex by vertex
    assert [flatten(f) for f in got] == want, (x.dims, y.dims)
    for f in got:
        assert [(m.rows, m.cols) for m in f] == list(zip(y.dims, x.dims))


@pytest.mark.parametrize("q", [linear_quiver(3), star_quiver(3)], ids=["A3", "D4"])
def test_dynkin_indecomposables(q):
    mods = enumerate_indecomposables(q)
    for x, y in itertools.product(mods, repeat=2):
        _check(x, y)


def test_twisted_d4_indecomposables():
    # arrow maps with denominators: delta is scaled to integers first
    mods = [_twisted(m) for m in enumerate_indecomposables(star_quiver(3))]
    for x, y in itertools.product(mods[::3], mods):
        _check(x, y)


def test_kronecker_window_pairs():
    w = kronecker_window(2, 4)
    members = w.preprojectives + w.preinjectives
    for x, y in itertools.product(members, repeat=2):
        _check(x, y)
