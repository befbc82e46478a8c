"""The presentation kernels come from one exact elimination as the
non-zero entries of their basis (`_kernel_triples`), held here, once made
dense, to the `Fraction` kernel basis scaled to primitive integer vectors
(`presentation_ext.fraction_int_kernel`) in shape, dtype and values; and no
presentation needs `ModKernel`, which only the Hom systems build."""

import time
from unittest import mock

import numpy as np
import pytest

import qtors.rep
from qtors import (
    Rep,
    build_wild_witness,
    kronecker_window,
    nonff_evidence,
    triple_quiver,
)
from qtors.rep import _integer_form, _kernel_triples, _top_presentation

from presentation_ext import dense_kernel, fraction_int_kernel


def _dense(triples, ncols):
    """The dense kernel basis of triples that are non-zero and sorted by
    row and then by column, each position once."""
    rows, cols, vals, nullity = triples
    keys = rows.astype(object) * max(nullity, 1) + cols
    assert list(keys) == sorted(set(keys))
    assert all(v != 0 for v in vals)
    return dense_kernel(triples, ncols)


def _assert_same_kernel(mat):
    new = _dense(_kernel_triples(mat), mat.shape[1])
    old = fraction_int_kernel(mat)
    assert new.shape == old.shape == (mat.shape[1], new.shape[1])
    assert new.dtype == old.dtype
    assert np.array_equal(new, old)


def _random_epi(rng, rows, cols):
    """Columns drawn as zero, unit (up to sign), a repeat of an earlier
    column, or dense in [-3, 3]."""
    out = []
    for _ in range(cols):
        kind = rng.integers(4)
        col = np.zeros(rows, dtype=np.int64)
        if kind == 1 and rows:
            col[rng.integers(rows)] = rng.choice([-1, 1])
        elif kind == 2 and out:
            col = out[rng.integers(len(out))].copy()
        elif kind == 3:
            col = rng.integers(-3, 4, rows)
        out.append(col)
    return np.stack(out, axis=1) if out else np.zeros((rows, 0), dtype=np.int64)


@pytest.mark.parametrize("seed", range(60))
def test_random_epis_with_zero_repeated_unit_and_dense_columns(seed):
    rng = np.random.default_rng(seed)
    mat = _random_epi(rng, int(rng.integers(1, 9)), int(rng.integers(1, 25)))
    _assert_same_kernel(mat)


@pytest.mark.parametrize("seed", range(12))
def test_entries_past_2_62(seed):
    """Object epis: the kernel is int64 when it fits after the gcd division
    and object when it does not."""
    rng = np.random.default_rng(100 + seed)
    mat = _random_epi(rng, int(rng.integers(1, 6)), int(rng.integers(2, 12)))
    big = mat.astype(object)
    big[:, 0] = big[:, 0] * (2**62 + 1) + 2**63
    _assert_same_kernel(big)
    _assert_same_kernel(mat.astype(object) * 2**70)


def test_kernel_entries_past_int64():
    mat = np.array([[1, -(2**63)], [0, 0]], dtype=object)
    kernel = _dense(_kernel_triples(mat), 2)
    assert kernel.dtype == object and kernel[:, 0].tolist() == [2**63, 1]
    _assert_same_kernel(mat)


@pytest.mark.parametrize("shape", [(0, 0), (0, 5), (3, 0)])
def test_no_rows_or_no_columns(shape):
    _assert_same_kernel(np.zeros(shape, dtype=np.int64))


def _recorded_epis(run):
    """Every matrix `_kernel_triples` is called on while `run` runs."""
    with mock.patch.object(qtors.rep, "_kernel_triples", wraps=_kernel_triples) as spy:
        run()
    return [c.args[0] for c in spy.call_args_list]


def _fresh(x):
    """An equal Rep with no cached presentation."""
    return Rep(x.quiver, x.dims, x.arrow_maps)


def test_presentations_of_the_kronecker_window_members():
    w = kronecker_window(3, 6)
    members = [_fresh(x) for x in w.preprojectives + w.preinjectives]
    epis = _recorded_epis(
        lambda: [_top_presentation(_integer_form(x)) for x in members]
    )
    assert len(epis) == 2 * len(members)
    for mat in epis:
        _assert_same_kernel(mat)


def test_presentations_of_the_210_tower_at_length_6():
    w = build_wild_witness(triple_quiver(2, 1, 0))
    epis = _recorded_epis(lambda: nonff_evidence(w, 6))
    assert epis
    for mat in epis:
        _assert_same_kernel(mat)


_REFUSED = mock.Mock(side_effect=AssertionError("ModKernel outside a Hom system"))


@pytest.mark.parametrize(
    "make",
    [
        lambda: build_wild_witness(triple_quiver(3, 2, 1)).n,
        lambda: kronecker_window(3, 6).preprojectives[-1],
    ],
    ids=["321-witness-N", "kronecker-A6"],
)
def test_presentations_need_no_modkernel(make):
    x = _integer_form(_fresh(make()))
    with mock.patch.object(qtors.rep, "ModKernel", _REFUSED):
        kernels = _top_presentation(x)
    # each epi maps onto x_w, so its nullity is dim P0_w - dim x_w
    tops = x._tops
    assert [nullity for *_, nullity in kernels] == [
        p - d for p, d in zip(tops.p0_dims, x.dims)
    ]


def test_the_440_witness_verifies_within_budget():
    start = time.perf_counter()
    w = build_wild_witness(triple_quiver(4, 4, 0))
    assert w.report.ok()
    assert time.perf_counter() - start < 5


def test_the_450_witness_memory_peak():
    """No presentation kernel is held dense: building the (4,5,0) witness
    stays under 64 MB of traced allocations (about 11 MB; the dense
    7980 x 7960 kernel of N at vertex 3 alone took 485 MB)."""
    import tracemalloc

    tracemalloc.start()
    try:
        w = build_wild_witness(triple_quiver(4, 5, 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert w.report.ok()
    assert peak < 64 * 2**20
