import itertools
import math
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qtors import Matrix, modkernel
from qtors.modkernel import (
    PRIME,
    ModKernel,
    echelon_mod_p,
    pivot_columns_mod_p,
)

import fraction_linalg
from presentation_ext import nonzero_triples

# primes below 2**19 at which the modular eliminations are tested
PRIMES = (PRIME, 524269, 524261, 524257, 524243, 524231, 524221, 524219)


def _fracs(vec):
    """An exact kernel vector (numerators, denominator) as Fractions."""
    nums, den = vec
    return [Fraction(n, den) for n in nums]


def _lowest_terms(vec):
    nums, den = vec
    return den > 0 and math.gcd(den, *nums) == 1


def _random_int_rows(rng, rows, cols, bound=10 ** 6):
    return [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]


def _rank_deficient_rows(rng, rows, cols, rank):
    """Random integer matrix of prescribed rank built as a product."""
    left = [[rng.randint(-9, 9) for _ in range(rank)] for _ in range(rows)]
    right = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rank)]
    return [
        [sum(left[i][k] * right[k][j] for k in range(rank)) for j in range(cols)]
        for i in range(rows)
    ]


def test_echelon_mod_p_small():
    a = np.array([[2, 4], [1, 2]])
    rows, pivots = echelon_mod_p(a, 7)
    assert pivots == [0]
    assert rows == [{0: 1, 1: 2}]
    assert _oracle_residues(a, 7) == _block_residues(a, 7) == ([0], [1], [[5]])


def _rref_mod_p(rows, ncols, p):
    """Reference: the non-zero rows and pivot columns of the reduced row
    echelon form mod p, by plain Gauss-Jordan on Python ints."""
    rows = [list(r) for r in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        k = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if k is None:
            continue
        rows[r], rows[k] = rows[k], rows[r]
        inv = pow(rows[r][c], -1, p)
        rows[r] = [x * inv % p for x in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[c]:
                f = row[c]
                rows[i] = [(x - f * y) % p for x, y in zip(row, rows[r])]
        pivots.append(c)
    return rows[: len(pivots)], pivots


@st.composite
def residue_matrices(draw):
    """(matrix of residues in [0, p), p): wide, tall, or of low rank built
    as a product, with a drawn share of zero entries, at a prime of
    PRIMES; the entries come from a drawn seed."""
    p = draw(st.sampled_from(PRIMES))
    kind = draw(st.sampled_from(["wide", "tall", "low rank"]))
    if kind == "wide":
        m, n = draw(st.integers(0, 40)), draw(st.integers(0, 200))
    elif kind == "tall":
        m, n = draw(st.integers(0, 200)), draw(st.integers(0, 40))
    else:
        m, n = draw(st.integers(0, 80)), draw(st.integers(0, 80))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    zeros = draw(st.sampled_from([0.0, 0.5, 0.95]))
    if kind == "low rank":
        k = draw(st.integers(0, min(m, n)))
        left = rng.integers(0, p, (m, k)) * (rng.random((m, k)) >= zeros)
        right = rng.integers(0, p, (k, n))
        a = left @ right % p  # exact in int64: k (p - 1)**2 < 2**63
    else:
        a = rng.integers(0, p, (m, n)) * (rng.random((m, n)) >= zeros)
    return a, p


def _oracle_residues(base, p):
    """The pivots, the free columns and the canonical kernel coordinates of
    an integer matrix mod p from the plain-Python RREF of its residues: the
    coordinates are minus its free columns."""
    n = base.shape[1]
    rref, piv = _rref_mod_p((base % p).tolist(), n, p)
    free = [c for c in range(n) if c not in set(piv)]
    return piv, free, [[-row[f] % p for f in free] for row in rref]


def _block_residues(base, p):
    """The same data from `echelon_mod_p` and the back-substitution of
    `_BlockMatrix.kernel`, with p in place of PRIME."""
    with mock.patch.object(modkernel, "PRIME", p):
        bm = modkernel._BlockMatrix(base)
        slot, coords = bm.kernel()
    piv = bm.pivots
    free = np.flatnonzero(slot >= 0).tolist()
    assert coords.dtype == np.float64 and coords.shape == (len(piv), len(free))
    assert slot[free].tolist() == list(range(len(free)))
    assert (slot[piv] == -1).all()
    return piv, free, coords.astype(np.int64).tolist()


def _assert_forward_echelon(rows, pivots, base, p):
    """Row i holds residues in [1, p), 1 at pivot i and nothing left of it,
    and the rows span the row space of `base` mod p: their RREF is that of
    `base`."""
    n = base.shape[1]
    assert len(rows) == len(pivots) and pivots == sorted(set(pivots))
    for row, c in zip(rows, pivots):
        assert row[c] == 1 and min(row) == c
        assert all(type(v) is int and 0 < v < p for v in row.values())
    dense = [[row.get(j, 0) for j in range(n)] for row in rows]
    assert _rref_mod_p(dense, n, p) == _rref_mod_p((base % p).tolist(), n, p)


@st.composite
def integer_blocks(draw):
    """(integer matrix, p) beyond the residue matrices: fully dense blocks
    of random residues (the worst case for fill), rank-deficient blocks
    built as a product of small integers, and object arrays of Python ints
    beyond int64 whose residues are dense, sparse or of low rank."""
    p = draw(st.sampled_from(PRIMES))
    kind = draw(st.sampled_from(["dense", "rank deficient", "beyond int64"]))
    m, n = draw(st.integers(0, 40)), draw(st.integers(0, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "dense":
        return rng.integers(1, p, (m, n)), p
    k = draw(st.integers(0, min(m, n)))
    low = rng.integers(-3, 4, (m, k)) @ rng.integers(-3, 4, (k, n))
    if kind == "rank deficient":
        return low, p
    shift = draw(st.sampled_from([63, 64, 100]))
    res = draw(st.sampled_from(["dense", "sparse", "low rank"]))
    if res == "low rank":
        small = low.astype(object)
    else:
        keep = rng.random((m, n)) >= (0.9 if res == "sparse" else 0.0)
        small = (rng.integers(0, p, (m, n)) * keep).astype(object)
    lift = rng.integers(-(2**20), 2**20, (m, n)).astype(object)
    return small + lift * p * 2**shift, p


@settings(max_examples=120, deadline=None)
@given(case=st.one_of(residue_matrices(), integer_blocks()))
@example(case=(np.zeros((0, 0), dtype=np.int64), PRIMES[0]))
@example(case=(np.zeros((3, 0), dtype=np.int64), PRIMES[0]))
@example(case=(np.zeros((0, 3), dtype=np.int64), PRIMES[0]))
@example(case=(np.zeros((2, 3), dtype=np.int64), PRIMES[1]))
@example(case=(np.array([[0, 1, 1], [0, 2, 2], [1, 0, 0]]), PRIMES[2]))
@example(case=(np.array([[2**70 * PRIMES[0], 1]], dtype=object), PRIMES[0]))
@example(case=(np.full((3, 3), -(2**64) - 1, dtype=object), PRIMES[1]))
def test_echelon_mod_p_is_the_rref(case):
    """The forward echelon rows span the rows of the matrix, their pivots
    are those of the RREF, and back-substitution gives minus the free
    columns of the RREF."""
    a, p = case
    rows, pivots = echelon_mod_p(a, p)
    _assert_forward_echelon(rows, pivots, a, p)
    assert _block_residues(a, p) == _oracle_residues(a, p)


def test_echelon_mod_p_eliminates_past_the_float64_bound():
    # the dict elimination reduces every value when it is made, so the
    # float64 bound of pivot_columns_mod_p does not limit it
    n = modkernel._MAX_COLS + 1
    rows, pivots = echelon_mod_p(np.eye(n, dtype=np.int8), PRIMES[0])
    assert pivots == list(range(n))
    assert rows == [{i: 1} for i in range(n)]


@settings(max_examples=100, deadline=None)
@given(case=residue_matrices(), lift=st.sampled_from([0, 1, 2]), seed=st.integers(0, 3))
@example(case=(np.zeros((0, 0), dtype=np.int64), PRIMES[0]), lift=0, seed=0)
@example(case=(np.zeros((3, 0), dtype=np.int64), PRIMES[0]), lift=0, seed=0)
@example(case=(np.zeros((0, 3), dtype=np.int64), PRIMES[0]), lift=0, seed=0)
@example(case=(np.zeros((2, 3), dtype=np.int64), PRIMES[1]), lift=2, seed=1)
@example(case=(np.array([[0, 1, 1], [0, 2, 2], [1, 0, 0]]), PRIMES[2]), lift=0, seed=0)
@example(case=(np.array([[0, 1], [0, 1], [1, 0]]), PRIMES[3]), lift=1, seed=2)
def test_pivot_columns_mod_p_are_the_echelon_pivots(case, lift, seed):
    # entries raised by up to `lift` multiples of p keep their residues, so
    # that zero residues become non-zero entries
    a, p = case
    raised = a + p * np.random.default_rng(seed).integers(0, lift + 1, a.shape)
    want = echelon_mod_p(a, p)[1]
    assert pivot_columns_mod_p(raised.astype(np.float64), p) == want
    assert pivot_columns_mod_p(a.astype(np.float64), p) == want


def test_pivot_columns_mod_p_guard_allocates_nothing():
    # the size check comes before any write to the read-only view, and it
    # bounds the smaller side only
    a = np.broadcast_to(np.zeros(1), (modkernel._MAX_COLS + 1,) * 2)
    with pytest.raises(ValueError, match="too large"):
        pivot_columns_mod_p(a, PRIMES[0])
    tall = np.ones((modkernel._MAX_COLS + 1, 2))
    assert pivot_columns_mod_p(tall, PRIMES[0]) == [0]


def test_upper_bound_matches_exact_nullity():
    rng = random.Random(11)
    for _ in range(30):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        rank = rng.randint(0, min(rows, cols))
        data = _rank_deficient_rows(rng, rows, cols, rank)
        exact = cols - Matrix.from_rows(data).rank()
        assert ModKernel(*nonzero_triples(np.array(data))).dim_upper_bound == exact


def test_exact_vectors_are_verified_kernel_members():
    rng = random.Random(13)
    for _ in range(15):
        rows = rng.randint(2, 6)
        cols = rng.randint(2, 7)
        rank = rng.randint(0, min(rows, cols))
        data = _rank_deficient_rows(rng, rows, cols, rank)
        mk = ModKernel(*nonzero_triples(np.array(data)))
        m = Matrix.from_rows(data)
        assert mk.dim_upper_bound == mk.nullity == cols - m.rank()
        vecs = list(mk.exact_vectors())
        assert len(vecs) == mk.nullity
        assert all(_lowest_terms(v) for v in vecs)
        vecs = [nums for nums, _ in vecs]
        for v in vecs:
            assert all(x == 0 for x in m.apply(v))
        # the vectors are linearly independent: each has a unit at a free
        # column no nonzero entry of another vector shares
        if vecs:
            stacked = Matrix.from_columns(vecs, nrows=cols)
            assert stacked.rank() == len(vecs)


def test_candidate_residues_match_exact_solutions():
    rng = random.Random(19)
    data = _rank_deficient_rows(rng, 3, 6, 2)
    mk = ModKernel(*nonzero_triples(np.array(data)))
    pivots, free, coords, p = _canonical_residues(mk)
    vecs = list(mk.exact_vectors())
    assert len(vecs) == len(free)
    for k, (nums, den) in enumerate(vecs):
        assert nums[free[k]] == den
        for r, piv in enumerate(pivots):
            want = nums[piv] * pow(den, -1, p) % p
            assert int(coords[r, k]) == want


def test_large_entries_still_exact():
    # entries big enough that naive float elimination would lose precision
    rng = random.Random(23)
    base = _rank_deficient_rows(rng, 4, 5, 3)
    scaled = [[x * (10 ** 12 + 7) for x in row] for row in base]
    mk = ModKernel(*nonzero_triples(np.array(scaled)))
    m = Matrix.from_rows(scaled)
    assert mk.dim_upper_bound == 5 - m.rank()
    for nums, _ in mk.exact_vectors():
        assert all(x == 0 for x in m.apply(nums))


def test_zero_matrix():
    mk = ModKernel(*nonzero_triples(np.array([[0, 0, 0]])))
    assert mk.dim_upper_bound == 3
    vecs = list(mk.exact_vectors())
    assert vecs == [([1, 0, 0], 1), ([0, 1, 0], 1), ([0, 0, 1], 1)]


def test_random_vectors_of_a_block_wider_than_2_15_columns():
    # one dense row is one block of 100 000 columns.  Its canonical kernel
    # coordinates are p - 2, so over dense free coordinates the plain dot
    # products pass 2**53 (float64, in random_residues): only chunked
    # reduction keeps them exact.  Its exact kernel is back-substituted
    # once, not once per vector
    n = 100_000
    row = np.full(n, -2, dtype=np.int64)
    row[0] = -1
    mk = ModKernel(*nonzero_triples(row[None, :]))
    (bm,) = mk._matrices
    assert mk.dim_upper_bound == mk.nullity == n - 1
    first = itertools.islice(mk.exact_vectors(), 3)
    for j, (nums, den) in enumerate(first, start=1):
        assert den == 1 and nums[0] == -2 and nums[j] == 1
        assert sum(1 for e in nums if e) == 2
    # column f of the exact reduced row -1 at 0, -2 at f: the canonical
    # kernel vector 1 at f and -2 at 0
    kernel = bm.exact_columns()
    assert list(kernel) == list(range(1, n))
    assert all(entries == [(0, -1, -2)] for entries in kernel.values())
    u, p = mk.random_residues(2, seed=1)
    for res in u.T.astype(np.int64).tolist():
        assert sum(1 for e in res if e) > n // 2
        assert res[0] == -2 * sum(res[1:]) % p
        # the exact kernel vector whose free coordinates are the symmetric
        # lifts of the residues, about half of them negative: the
        # combination of the exact basis by those coordinates
        w = [0] + [e - p if 2 * e > p else e for e in res[1:]]
        w[0] = sum(w[f] * -v // h for f, ((_, h, v),) in kernel.items())
        assert w[0] % p == res[0]
        assert -w[0] - 2 * sum(w[1:]) == 0


# -- the block split against one elimination of the whole matrix ------------

P0 = PRIME


@st.composite
def block_matrices(draw):
    """Random block-diagonal integer matrix under random row and column
    permutations.  Blocks may have no rows or no columns, are often of low
    rank, may hold multiples of PRIMES[0] (non-zero in the matrix but zero
    modulo the first prime), and may be repeated, so that several
    components share one block matrix."""
    shapes = draw(
        st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=4)
    )
    blocks = []
    for r, c in shapes:
        k = draw(st.integers(0, min(r, c)))
        small = st.integers(-2, 2)
        left = np.array(draw(st.lists(small, min_size=r * k, max_size=r * k)))
        right = np.array(draw(st.lists(small, min_size=k * c, max_size=k * c)))
        block = left.reshape(r, k).astype(np.int64) @ right.reshape(k, c)
        if r * c and draw(st.booleans()):
            i, j = draw(st.integers(0, r - 1)), draw(st.integers(0, c - 1))
            block[i, j] = P0 * draw(st.sampled_from([1, -1, 2]))
        blocks += [block] * draw(st.integers(1, 3))
    m = sum(b.shape[0] for b in blocks)
    n = sum(b.shape[1] for b in blocks)
    base = np.zeros((m, n), dtype=np.int64)
    r0 = c0 = 0
    for block in blocks:
        r, c = block.shape
        base[r0 : r0 + r, c0 : c0 + c] = block
        r0, c0 = r0 + r, c0 + c
    rows = draw(st.permutations(range(m)))
    cols = draw(st.permutations(range(n)))
    return base[np.ix_(rows, cols)]


def _one_block(rows, cols, shape):
    """The whole matrix as one component, zero rows included (no component
    at all without columns), as flat labels like `_components`."""
    m, n = shape
    return np.full(m, 0 if n else -1), np.zeros(n, dtype=np.intp)


def _canonical_residues(mk):
    """The mod-p canonical kernel vectors as the block records hold them:
    the pivot and free columns mod PRIME, the prime, and the
    pivot-coordinate block (column k belongs to the vector with 1 at the
    k-th free column and 0 at the others), gathered from the
    `_BlockMatrix.kernel` of every block."""
    free = mk._free.tolist()
    pivots = sorted(set(range(mk.ncols)).difference(free))
    row = {c: i for i, c in enumerate(pivots)}
    col = {c: j for j, c in enumerate(free)}
    coords = np.zeros((len(pivots), len(free)))
    for bm, instances in zip(mk._matrices, mk._instances):
        slot, block = bm.kernel()
        for bc in instances:
            for i, c in enumerate(bm.pivots):
                for f in np.flatnonzero(slot >= 0):
                    coords[row[bc[c]], col[bc[f]]] = block[i, slot[f]]
    return pivots, free, coords, PRIME


def _observe(mk, seed):
    """Everything ModKernel answers, in a fixed order."""
    pivots, free, coords, p = _canonical_residues(mk)
    return {
        "dim": mk.dim_upper_bound,
        "residues": (list(pivots), list(free), coords.tolist(), p),
        "random": mk.random_residues(3, seed=seed)[0].tolist(),
        "nullity": mk.nullity,
        "plain": list(mk.exact_vectors()),
    }


@settings(max_examples=200, deadline=None)
@given(base=block_matrices(), seed=st.integers(0, 3))
@example(base=np.zeros((0, 0), dtype=np.int64), seed=0)
@example(base=np.zeros((3, 0), dtype=np.int64), seed=0)
@example(base=np.zeros((0, 3), dtype=np.int64), seed=0)
@example(base=np.zeros((2, 3), dtype=np.int64), seed=0)
@example(base=np.array([[1, 2, 3], [2, 4, 6], [0, 1, 1]]), seed=1)
@example(base=np.array([[P0, 1], [0, 0]]), seed=0)
@example(base=np.array([[P0, 0], [0, 1], [0, 0]]), seed=2)
def test_block_split_matches_one_elimination(base, seed):
    m, n = base.shape
    mk = ModKernel(*nonzero_triples(base))
    with mock.patch.object(modkernel, "_components", _one_block):
        whole = ModKernel(*nonzero_triples(base))
    assert sum(map(len, whole._instances)) == (1 if n else 0)

    # the RREF of the whole matrix at the first prime
    piv, free, want = _oracle_residues(base, P0)
    pivots, got_free, coords, p = _canonical_residues(mk)
    assert (list(pivots), list(got_free), p) == (piv, free, P0)
    assert mk.dim_upper_bound == len(free)
    assert coords.tolist() == want

    seen = _observe(mk, seed)
    assert seen == _observe(whole, seed)

    # the rational kernel: the exact vectors are exactly Matrix.kernel_basis,
    # also when the prime lowers the rank
    kb = Matrix(m, n, base.tolist()).kernel_basis()
    assert seen["dim"] >= seen["nullity"] == len(kb)
    assert all(_lowest_terms(v) for v in seen["plain"])
    assert [_fracs(v) for v in seen["plain"]] == kb


# -- exact vectors against the Fraction kernel basis ---------------------


def _primitive(vec):
    """A Fraction kernel basis vector (1 at its free column) as the
    primitive integer vector on its ray over its entry at the free column:
    the numerators times the least common multiple of the denominators."""
    den = math.lcm(*(x.denominator for x in vec))
    return [int(x * den) for x in vec], den


@st.composite
def sparse_integer_matrices(draw):
    """Random sparse integer matrices with small entries, most of them
    zero, so that they split into several blocks of every rank."""
    m, n = draw(st.integers(0, 12)), draw(st.integers(0, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    keep = rng.random((m, n)) < draw(st.sampled_from([0.1, 0.25, 0.5]))
    return rng.integers(-3, 4, (m, n)) * keep


@st.composite
def exact_kernel_cases(draw):
    """Sparse random matrices and block matrices (repeated blocks, entries
    that are multiples of the prime), as int64, as object arrays of the
    same ints, or as object arrays with some entries raised beyond int64."""
    base = draw(st.one_of(sparse_integer_matrices(), block_matrices()))
    kind = draw(st.sampled_from(["int64", "object", "beyond int64"]))
    if kind == "int64":
        return base
    big = base.astype(object)
    if kind == "beyond int64":
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        big = np.where(rng.random(big.shape) < 0.3, big * (2**64 + 1), big)
    return big


@settings(max_examples=200, deadline=None)
@given(base=exact_kernel_cases())
@example(base=np.zeros((0, 0), dtype=np.int64))
@example(base=np.zeros((2, 3), dtype=np.int64))
@example(base=np.array([[P0, 1]]))
@example(base=np.array([[P0, 1], [P0, 1], [0, 0]], dtype=object))
@example(base=np.array([[2, 4, 6], [3, 6, 9 + P0]]))
@example(base=np.array([[2**64 + 1, -(2**70), 0], [0, 0, 3]], dtype=object))
def test_exact_vectors_match_the_fraction_kernel_basis(base):
    m, n = base.shape
    mk = ModKernel(*nonzero_triples(base))
    want = fraction_linalg.Matrix(m, n, base.tolist()).kernel_basis()
    assert list(mk.exact_vectors()) == [_primitive(v) for v in want]
    assert mk.dim_upper_bound >= mk.nullity == len(want)


def test_identical_blocks_share_one_elimination():
    blocks = [np.array([[1, 2, 3], [2, 4, 7]])] * 5 + [np.array([[1, 1], [0, 1]])] * 2
    base = np.zeros((14, 19), dtype=np.int64)
    r0 = c0 = 0
    for block in blocks:
        base[r0 : r0 + 2, c0 : c0 + block.shape[1]] = block
        r0, c0 = r0 + 2, c0 + block.shape[1]
    calls = []

    def counting(fn):
        # the shape of the matrix: an array, or its non-zero entries
        # (rows, cols, values) with the column count last
        def counted(a, *p):
            shape = a.shape if a.ndim == 2 else (len(set(a.tolist())), p[-1])
            calls.append((fn.__name__, shape))
            return fn(a, *p)

        return counted

    with mock.patch.object(
        modkernel, "echelon_mod_p", counting(modkernel.echelon_mod_p)
    ), mock.patch.object(
        modkernel, "exact_kernel", counting(modkernel.exact_kernel)
    ):
        mk = ModKernel(*nonzero_triples(base))
        assert sum(map(len, mk._instances)) == 7
        assert len(mk._matrices) == 2
        assert calls == [("echelon_mod_p", (2, 3)), ("echelon_mod_p", (2, 2))]
        assert mk.dim_upper_bound == mk.nullity == 5
        exact = Matrix.from_rows(base.tolist())
        vecs = list(mk.exact_vectors())
    assert [_fracs(v) for v in vecs] == exact.kernel_basis()
    # one exact elimination, of the only matrix with a kernel mod p
    assert calls[2:] == [("exact_kernel", (2, 3))]


def test_kronecker_window_echelon_traffic():
    """The chain check of kronecker_window(3, 6) eliminates its Hom systems
    block by block, and each distinct block once per prime: no modular
    elimination above 100 000 cells, fewer than 2 M cells in all (one dense
    elimination of its largest system alone has 9.15 M) and fewer than 1000
    eliminations (4358 with one per block), and the answers still hold."""
    from qtors import kronecker_chain_check, kronecker_window, rep

    sizes = []

    def counting(fn):
        def counted(a, p):
            sizes.append(a.size)
            return fn(a, p)

        return counted

    # the block eliminations, the top-generator tests and the rank tests
    # of the Gen certificate
    with mock.patch.object(
        modkernel, "echelon_mod_p", counting(modkernel.echelon_mod_p)
    ), mock.patch.object(
        rep, "echelon_mod_p", counting(rep.echelon_mod_p)
    ), mock.patch.object(
        rep, "pivot_columns_mod_p", counting(rep.pivot_columns_mod_p)
    ):
        report = kronecker_chain_check(kronecker_window(3, 6))
    assert report.ok()
    assert max(sizes) <= 100_000
    assert sum(sizes) < 2_000_000
    assert len(sizes) < 1000


def test_kronecker_window_sparse_elimination_traffic():
    """The chain check of kronecker_window(3, 6) eliminates its Hom blocks
    sparsely: every block's forward pivot rows hold at most twice the
    block's non-zero entries (1.2 times at most when measured), and a
    pinned hom_dim reads only the rank, so it back-substitutes no block
    (every block record's `_kernel` stays unset)."""
    from qtors import kronecker_chain_check, kronecker_window, rep
    from qtors.forms import forms_context

    fill = []

    def echelon(a, p):
        out = echelon_mod_p(a, p)
        fill.append((sum(map(len, out[0])), int(np.count_nonzero(a))))
        return out

    fresh = []

    def best_dim_system(xi, yi):
        sys = best(xi, yi)
        records = sys.mk._matrices if sys.mk is not None else []
        fresh.append((sys, all(bm._kernel is None for bm in records)))
        return sys

    pinned = []

    def hom_dim(x, y):
        del fresh[:]
        out = dim(x, y)
        lower = max(forms_context(x.quiver).euler_form(list(x.dims), list(y.dims)), 0)
        for sys, was_fresh in fresh:
            if was_fresh and sys.mk is not None and sys.upper == lower:
                pinned.append([bm._kernel is not None for bm in sys.mk._matrices])
        return out

    best, dim = rep._best_dim_system, rep.hom_dim
    with mock.patch.object(modkernel, "echelon_mod_p", echelon), mock.patch.object(
        rep, "_best_dim_system", best_dim_system
    ), mock.patch.object(rep, "hom_dim", hom_dim):
        report = kronecker_chain_check(kronecker_window(3, 6))
    assert report.ok()
    assert fill and all(held <= 2 * nonzero for held, nonzero in fill)
    assert len(pinned) >= 10
    assert not any(any(kernels) for kernels in pinned)


def test_kronecker_window_memory_peak():
    """No Hom system of the kronecker_window(3, 6) chain check is held
    dense: its traced allocation peak stays under 40 MB (the dense 3024 x
    3025 and 1155 x 7920 systems alone took about 73 MB each)."""
    import tracemalloc

    from qtors import kronecker_chain_check, kronecker_window

    tracemalloc.start()
    try:
        report = kronecker_chain_check(kronecker_window(3, 6))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok()
    assert peak < 40 * 2**20


# -- the flat block split against the per-block construction --------------


def _per_block_components(ri, ci, shape):
    """The components as (rows, columns) pairs, both ascending, in order of
    their smallest column, the columns without entries last with no rows:
    the list of groups that the flat labels replaced."""
    m, n = shape
    lab = np.arange(n)
    while True:
        rowlab = np.full(m, n)
        np.minimum.at(rowlab, ri, lab[ci])
        new = lab.copy()
        np.minimum.at(new, ci, rowlab[ri])
        new = new[new]
        if np.array_equal(new, lab):
            break
        lab = new
    live = np.zeros(n, dtype=bool)
    live[ci] = True
    lab[~live] = n
    corder = np.argsort(lab, kind="stable")
    rorder = np.argsort(rowlab, kind="stable")
    ccuts = np.flatnonzero(np.diff(lab[corder])) + 1
    rcuts = np.flatnonzero(np.diff(rowlab[rorder])) + 1
    col_groups = np.split(corder, ccuts) if n else []
    row_groups = np.split(rorder, rcuts) if m else []
    out = [(r, c) for r, c in zip(row_groups, col_groups) if rowlab[r[0]] < n]
    if n and not live[col_groups[-1][0]]:
        out.append((np.zeros(0, dtype=np.intp), col_groups[-1]))
    return out


def _per_block_construction(rows, cols, vals, shape):
    """The construction the flat block arrays replaced, one component at a
    time: each block scattered from its own entries, and blocks of equal
    shape, dtype and entries sharing the first one's matrix.  Returns the
    columns and matrix index of every block, the matrices and, per matrix,
    the columns of its blocks stacked."""
    m, n = shape
    comps = _per_block_components(rows, cols, shape)
    block_of = np.zeros(n, dtype=np.intp)
    local = np.zeros(n, dtype=np.intp)
    local_row = np.zeros(m, dtype=np.intp)
    for bi, (r, c) in enumerate(comps):
        block_of[c] = bi
        local[c] = np.arange(len(c))
        local_row[r] = np.arange(len(r))
    shared, matrices, instances, blocks = {}, [], [], []
    for bi, (r, c) in enumerate(comps):
        ent = np.flatnonzero(block_of[cols] == bi)
        sub = np.zeros((len(r), len(c)), dtype=vals.dtype)
        sub[local_row[rows[ent]], local[cols[ent]]] = vals[ent]
        content = tuple(sub.ravel().tolist()) if sub.dtype == object else sub.tobytes()
        mi = shared.setdefault((sub.shape, sub.dtype.str, content), len(matrices))
        if mi == len(matrices):
            matrices.append(sub)
            instances.append([])
        instances[mi].append(c)
        blocks.append((c, mi))
    return blocks, matrices, [np.stack(cs) for cs in instances]


def _assert_same_construction(rows, cols, vals, shape):
    mk = ModKernel(rows, cols, vals, shape)
    _, matrices, instances = _per_block_construction(rows, cols, vals, shape)
    assert len(mk._matrices) == len(matrices)
    for bm, want in zip(mk._matrices, matrices):
        assert (bm.base.dtype, bm.base.shape) == (want.dtype, want.shape)
        assert bm.base.tolist() == want.tolist()
    assert len(mk._instances) == len(instances)
    for got, want in zip(mk._instances, instances):
        assert got.shape == want.shape and got.tolist() == want.tolist()
    return mk


@settings(max_examples=200, deadline=None)
@given(base=block_matrices(), as_object=st.booleans())
@example(base=np.zeros((0, 0), dtype=np.int64), as_object=False)
@example(base=np.zeros((3, 0), dtype=np.int64), as_object=False)
@example(base=np.zeros((0, 3), dtype=np.int64), as_object=True)
@example(base=np.zeros((2, 3), dtype=np.int64), as_object=False)
@example(base=np.array([[1, 0, 1], [0, 0, 0], [1, 0, 1]]), as_object=True)
def test_flat_block_split_matches_the_per_block_construction(base, as_object):
    dtype = object if as_object else np.int64
    _assert_same_construction(*nonzero_triples(base.astype(dtype)))


def test_ten_thousand_identical_one_by_one_components():
    n = 10_000
    perm = np.random.default_rng(5).permutation(n)
    rows, cols = np.arange(n), perm
    vals = np.full(n, 7, dtype=np.int64)
    mk = _assert_same_construction(rows, cols, vals, (n + 3, n))
    assert len(mk._matrices) == 1
    assert mk._instances[0].shape == (n, 1)
    assert mk.dim_upper_bound == 0


# -- random kernel vectors modulo the structure prime -----------------------


@settings(max_examples=100, deadline=None)
@given(base=block_matrices(), seed=st.integers(0, 3), count=st.integers(1, 4))
@example(base=np.zeros((2, 3), dtype=np.int64), seed=0, count=2)
@example(base=np.array([[P0, 1], [0, 0]]), seed=0, count=3)
def test_random_residues_are_kernel_vectors_mod_p(base, seed, count):
    mk = ModKernel(*nonzero_triples(base))
    u, p = mk.random_residues(count, seed=seed)
    pivots, free, coords, q = _canonical_residues(mk)
    assert p == q and u.shape == (base.shape[1], count)
    assert (pivots, free, coords.tolist()) == _oracle_residues(base, p)
    assert ((0 <= u) & (u < p)).all() and (u == np.round(u)).all()
    ints = u.astype(np.int64)
    # A u = 0 mod p, in exact integer arithmetic
    prod = (base.astype(object) % p).dot(ints.astype(object)) % p
    assert not prod.any()
    # the pivot coordinates are the canonical kernel vectors combined by
    # the free coordinates
    want = coords.astype(np.int64).astype(object).dot(ints[free].astype(object)) % p
    assert (ints[pivots] == want.astype(np.int64)).all()
    again, _ = mk.random_residues(count, seed=seed)
    assert np.array_equal(u, again)


def test_random_residues_span_the_mod_p_kernel():
    rng = random.Random(31)
    blocks = [np.array(_rank_deficient_rows(rng, 5, 9, 3))] * 3
    base = np.zeros((15, 27), dtype=np.int64)
    for i, b in enumerate(blocks):
        base[5 * i : 5 * i + 5, 9 * i : 9 * i + 9] = b
    mk = ModKernel(*nonzero_triples(base))
    assert len(mk._matrices) == 1 and mk.dim_upper_bound == 18
    u, p = mk.random_residues(20, seed=5)
    _, piv = echelon_mod_p(u.T.astype(np.int64), p)
    assert len(piv) == 18


def test_prime_literal():
    # the largest prime below 2**19 is 2**19 - 1, and a matmul_mod_p partial sum of
    # _MAX_COLS products of residues stays below 2**53
    p = PRIME
    assert p == 2**19 - 1 and all(p % d for d in range(2, math.isqrt(p) + 1))
    assert (p - 1) ** 2 * modkernel._MAX_COLS < 2**53


def test_no_fraction_in_modkernel():
    assert "Fraction" not in vars(modkernel)
    assert "fractions" not in vars(modkernel)


def test_random_residues_at_an_unlucky_prime():
    # column 0 vanishes modulo the prime only, so the prime is unlucky: the
    # random residues and the upper bound follow the mod-p kernel, the
    # exact vectors the rational one
    base = np.array([[P0, 0], [0, 1]])
    mk = ModKernel(*nonzero_triples(base))
    u, p = mk.random_residues(3, seed=2)
    assert p == P0 and mk.dim_upper_bound == 1
    assert not u[1].any() and u[0].any()
    assert mk.nullity == 0 and list(mk.exact_vectors()) == []
    # the free column mod p is 0, the exact one 1
    mk = ModKernel(*nonzero_triples(np.array([[P0, 1]])))
    assert mk._free.tolist() == [0]
    assert mk.nullity == 1 and list(mk.exact_vectors()) == [([-1, P0], P0)]
