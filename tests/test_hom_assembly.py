"""The reduced Hom system is assembled as the non-zero triples of its
matrix.  Here the triples are held to the dense assembly and to the
per-generator assembly they replaced, the system shape read off the top
generators to the built presentation, and the top generators to an exact
RREF of [radical | I]."""

import numpy as np
import pytest

from qtors import (
    Matrix,
    Quiver,
    Rep,
    enumerate_indecomposables,
    kronecker_window,
)
from qtors.modkernel import PRIME, max_abs
from qtors.rep import (
    _hom_rows,
    _integer_form,
    _np_path_map,
    _system_shape,
    radical_generators,
)

import fraction_linalg as ref
from conftest import linear_quiver, star_quiver
from presentation_ext import dense_kernel
from test_hom_route import _twisted


def _dense_kernel(x: Rep, w: int) -> np.ndarray:
    """The presentation kernel of x at w as a dense (dim P0_w, nullity)
    basis."""
    return dense_kernel(x._presentation[w - 1], x._tops.p0_dims[w - 1])


def _dense_hom_rows(x: Rep, y: Rep) -> np.ndarray:
    """The reduced Hom system as one dense matrix of Python ints: per vertex
    w with equations, k_w * e_w rows holding sum_b kernel[b, q] * ymap_b[e, c]
    at row q * e_w + e and column offsets[j] + c; the groups stacked in
    vertex order."""
    tops = x._tops
    q = x.quiver
    offsets, ncols = [], 0
    for v, _ in tops.summands:
        offsets.append(ncols)
        ncols += y.dim(v)
    groups = []
    for w in range(1, q.n + 1) if ncols else ():
        kmat = _dense_kernel(x, w).astype(object)
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


def _per_generator_hom_rows(x, y):
    """The assembly that the per-path one replaced: one product of a kernel
    row and a path map per generator and path, with the int64/object bound
    taken per generator.  Returns the column offsets, the column count and
    the (rows, cols, values, shape) of the system."""
    tops, q = x._tops, x.quiver
    offsets, ncols = [], 0
    for v, _ in tops.summands:
        offsets.append(ncols)
        ncols += y.dim(v)
    parts, nrows = [], 0
    for w in range(1, q.n + 1) if ncols else ():
        kmat = _dense_kernel(x, w)
        e_w, k_w = y.dim(w), kmat.shape[1]
        if k_w == 0 or e_w == 0:
            continue
        roff = 0
        for j, (v, _) in enumerate(tops.summands):
            pths = tops.paths[v][w]
            ks = kmat[roff : roff + len(pths)]
            roff += len(pths)
            if not pths or not y.dim(v):
                continue
            ymaps = [_np_path_map(y, pth, v) for pth in pths]
            exact = max_abs(ks) * max(map(max_abs, ymaps)) * len(pths) < 2**62
            for kb, ym in zip(ks, ymaps):
                qi = np.flatnonzero(kb)
                ei, ci = np.nonzero(ym)
                if not qi.size or not ei.size:
                    continue
                kv, yv = kb[qi], ym[ei, ci]
                dtype = np.int64 if exact else object
                kv, yv = kv.astype(dtype), yv.astype(dtype)
                parts.append(
                    (
                        (nrows + qi[:, None] * e_w + ei).ravel(),
                        np.broadcast_to(offsets[j] + ci, (qi.size, ci.size)).ravel(),
                        np.multiply.outer(kv, yv).ravel(),
                    )
                )
        nrows += k_w * e_w
    if not parts:
        empty = np.zeros(0, dtype=np.intp)
        return offsets, ncols, (empty, empty, empty.astype(np.int64), (nrows, ncols))
    keys = np.concatenate([r * ncols + c for r, c, _ in parts])
    vals = np.concatenate([v for _, _, v in parts])
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    sums = np.add.reduceat(vals[order], starts)
    keep = sums != 0
    keys = keys[starts[keep]]
    return offsets, ncols, (keys // ncols, keys % ncols, sums[keep], (nrows, ncols))


def _assert_per_generator_match(x, y):
    """The triples, their order and every dtype agree with the
    per-generator assembly."""
    xi, yi = _integer_form(x), _integer_form(y)
    offsets, ncols, _, (rows, cols, vals, shape) = _hom_rows(xi, yi)
    want_offsets, want_ncols, (wr, wc, wv, wshape) = _per_generator_hom_rows(xi, yi)
    assert (offsets, ncols, shape) == (want_offsets, want_ncols, wshape)
    for got, want in ((rows, wr), (cols, wc), (vals, wv)):
        assert got.dtype == want.dtype, (x.dims, y.dims)
        assert got.tolist() == want.tolist(), (x.dims, y.dims)
    return vals.dtype


def test_per_generator_assembly_on_kronecker_window_pairs():
    w = kronecker_window(3, 5)
    members = w.preprojectives + w.preinjectives
    for x in members:
        for y in members:
            _assert_per_generator_match(x, y)


@pytest.mark.parametrize("quiver", [linear_quiver(3), star_quiver(3)], ids=["A3", "D4"])
def test_per_generator_assembly_on_twisted_indecomposables(quiver):
    twisted = [_twisted(m) for m in enumerate_indecomposables(quiver)]
    for x in twisted:
        for y in twisted:
            _assert_per_generator_match(x, y)


def test_per_generator_assembly_past_the_int64_bound():
    mods = enumerate_indecomposables(star_quiver(3))
    dtypes = set()
    for big in (2**31 - 1, 10**19 + 7):
        tall = [
            Rep(m.quiver, m.dims, tuple(a.scale(big) for a in m.arrow_maps))
            for m in mods
        ]
        for x in mods + tall:
            for y in tall:
                dtypes.add(_assert_per_generator_match(x, y))
    assert dtypes == {np.dtype(np.int64), np.dtype(object)}


def test_per_generator_bound_when_a_tall_generator_adds_no_term():
    # on the Kronecker quiver, the presentation kernel of x at vertex 2 is
    # (-1, 0, 0, 2**62) over (g1 a, g1 b, g2 a, g2 b): the tall entry lies
    # on path b, which y maps to zero, so g2 adds no term and the int64
    # bound of g1 alone decides, as it did per generator
    q = Quiver(2, ((1, 2), (1, 2)))
    xa = Matrix.from_rows([[2**62, 0], [0, 0], [0, 1]])
    xb = Matrix.from_rows([[0, 1], [1, 0], [0, 0]])
    x = Rep(q, (2, 3), (xa, xb))
    y = Rep(q, (1, 1), (Matrix.from_rows([[1]]), Matrix.from_rows([[0]])))
    assert _dense_kernel(_integer_form(x), 2).ravel().tolist() == [-1, 0, 0, 2**62]
    assert _assert_per_generator_match(x, y) == np.int64


def test_tops_are_the_identity_pivots_of_radical_beside_identity():
    # the top generators at each vertex are the identity pivots of one
    # exact RREF of [radical | I] (the Fraction oracle), also where a row of
    # the radical vanishes mod PRIME only: the top support is exact
    q = Quiver(3, ((1, 3), (1, 3), (2, 3)))
    rng = np.random.default_rng(3)
    for _ in range(30):
        a, b, d, rank = (int(t) for t in rng.integers(1, 4, 4))
        r = rng.integers(-3, 4, (d, rank)) @ rng.integers(-3, 4, (rank, 2 * a + b))
        r[rng.integers(0, d)] *= PRIME
        maps = (r[:, :a], r[:, a : 2 * a], r[:, 2 * a :])
        x = Rep(q, (a, b, d), tuple(Matrix.from_rows(m.tolist()) for m in maps))
        want = []
        for v in range(1, q.n + 1):
            rad = radical_generators(x, v)
            oracle = ref.Matrix(rad.rows, rad.cols, [list(rad.row(i)) for i in range(rad.rows)])
            want += [(v, c) for c in ref.complement_indices(oracle)]
        assert x._tops.summands == want
        assert x._tops.support == {v for v, _ in want}
