"""The reduced Hom system is assembled as the non-zero triples of its
matrix.  Here the triples are held to the dense assembly they replaced, the
system shape read off the top generators to the built presentation, and the
top generators to an echelon of [radical | I]."""

import numpy as np
import pytest

from qtors import (
    Matrix,
    Rep,
    enumerate_indecomposables,
    kronecker_window,
)
from qtors.modkernel import PRIMES, echelon_mod_p
from qtors.rep import (
    _complement_coords,
    _hom_rows,
    _integer_form,
    _system_shape,
)

from conftest import linear_quiver, star_quiver
from test_hom_route import _twisted


def _dense_hom_rows(x: Rep, y: Rep) -> np.ndarray:
    """The reduced Hom system as one dense matrix of Python ints: per vertex
    w with equations, k_w * e_w rows holding sum_b kernel[b, q] * ymap_b[e, c]
    at row q * e_w + e and column offsets[j] + c; the groups stacked in
    vertex order."""
    tops, kernels = x._tops, x._presentation
    q = x.quiver
    offsets, ncols = [], 0
    for v, _ in tops.summands:
        offsets.append(ncols)
        ncols += y.dim(v)
    groups = []
    for w in range(1, q.n + 1) if ncols else ():
        kmat = kernels[w - 1].astype(object)
        e_w, k_w = y.dim(w), kmat.shape[1]
        if k_w == 0 or e_w == 0:
            continue
        group = np.zeros((k_w * e_w, ncols), dtype=object)
        roff = 0
        for j, (v, _) in enumerate(tops.summands):
            pths = tops.paths[v][w]
            c_j = y.dim(v)
            acc = np.zeros((k_w, e_w, c_j), dtype=object)
            for b, pth in enumerate(pths):
                ym = y.path_map(pth, v)
                ymap = np.array(
                    [[int(ym[e, c]) for c in range(c_j)] for e in range(e_w)],
                    dtype=object,
                ).reshape(e_w, c_j)
                acc += np.multiply.outer(kmat[roff + b], ymap)
            roff += len(pths)
            group[:, offsets[j] : offsets[j] + c_j] = acc.reshape(k_w * e_w, c_j)
        groups.append(group)
    return np.vstack(groups) if groups else np.zeros((0, ncols), dtype=object)


def _assert_triples_match(x: Rep, y: Rep) -> None:
    xi, yi = _integer_form(x), _integer_form(y)
    _, ncols, _, (rows, cols, vals, shape) = _hom_rows(xi, yi)
    dense = _dense_hom_rows(xi, yi)
    assert shape == dense.shape
    assert shape[1] == ncols
    if ncols:  # without unknowns no equation is assembled
        assert shape == _system_shape(xi, yi)
    keys = rows.astype(object) * max(ncols, 1) + cols
    assert list(keys) == sorted(set(keys))  # row-major, each position once
    assert all(v != 0 for v in vals)
    scattered = np.zeros(shape, dtype=object)
    scattered[rows, cols] = vals
    assert (scattered == dense).all(), (x.dims, y.dims)


def test_kronecker_window_pairs():
    w = kronecker_window(2, 5)
    members = w.preprojectives + w.preinjectives
    for x in members:
        for y in members:
            _assert_triples_match(x, y)


@pytest.mark.parametrize("quiver", [linear_quiver(3), star_quiver(3)], ids=["A3", "D4"])
def test_twisted_indecomposables(quiver):
    twisted = [_twisted(m) for m in enumerate_indecomposables(quiver)]
    for x in twisted:
        for y in twisted:
            _assert_triples_match(x, y)


def test_object_route_past_the_int64_bound():
    mods = enumerate_indecomposables(linear_quiver(3))
    big = 10**19 + 7
    tall = [
        Rep(m.quiver, m.dims, tuple(a.scale(big) for a in m.arrow_maps)) for m in mods
    ]
    seen_object = False
    for x in mods + tall:
        for y in tall:
            _assert_triples_match(x, y)
            vals = _hom_rows(_integer_form(x), _integer_form(y))[3][2]
            seen_object |= vals.dtype == object
    assert seen_object


def test_tops_are_the_identity_pivots_of_radical_beside_identity():
    rng = np.random.default_rng(3)
    p = PRIMES[0]
    for _ in range(40):
        d, m, rank = (int(t) for t in rng.integers(1, 7, 3))
        r = rng.integers(-3, 4, (d, min(rank, d))) @ rng.integers(-3, 4, (min(rank, d), m))
        r[rng.integers(0, d)] *= p  # a row that vanishes mod p only
        aug = np.hstack([r % p, np.eye(d, dtype=np.int64)]).astype(np.float64)
        _, piv = echelon_mod_p(aug, p)
        want = [c - m for c in piv if c >= m]
        assert _complement_coords(Matrix.from_rows(r.tolist())) == want

