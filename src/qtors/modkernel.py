"""Fast certified kernel computations for integer matrices.

Exact answers only: reduction mod a prime can merely *lower* the rank of an
integer matrix, so a mod-p kernel dimension is a rigorous upper bound for
the rational kernel dimension, while lower bounds are only ever claimed by
exhibiting explicit rational kernel vectors that are re-verified in exact
arithmetic.  The modular eliminations run on numpy float64 blocks (products
stay below 2**53, hence exact); candidate rational vectors are recovered by
CRT across several primes followed by rational reconstruction.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd
from typing import Iterator

import numpy as np

# primes just below 2**19: with p**2 < 2**38, up to ~2**14 accumulated
# products of reduced values fit in float64 exactly, so reductions mod p can
# be deferred across the whole elimination of a matrix with <= 8192 columns
PRIMES = (
    524287, 524269, 524261, 524257, 524243, 524231, 524221, 524219,
    524203, 524201, 524197, 524189, 524171, 524149, 524123, 524119,
)

_PANEL = 192
_SUBPANEL = 16
_MAX_COLS = 8192  # deferred-reduction exactness bound for the prime size


def _primes_below(bound: int, count: int) -> tuple[int, ...]:
    out: list[int] = []
    c = bound - 1 | 1
    while len(out) < count and c > 2:
        d, composite = 3, c % 2 == 0
        while not composite and d * d <= c:
            composite = c % d == 0
            d += 2
        if not composite:
            out.append(c)
        c -= 2
    return tuple(out)


# verification primes: large enough that few are needed to exceed the bit
# bound of an exact dot product, small enough that the int64 matvec
# (base % q) @ (vec % q) cannot overflow for <= _MAX_COLS columns
_VERIFY_PRIMES = _primes_below(1 << 24, 64)


class ReconstructionError(RuntimeError):
    """Raised when no prime schedule yields verifiable rational vectors."""


def echelon_mod_p(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """In-place row echelon form of `a` mod p with unit pivots.

    Returns (a, pivot_columns); rows 0..len(pivots)-1 of `a` hold the
    echelon rows (fully reduced mod p); the rows below are scratch.

    Two-level blocked right-looking elimination.  Reductions mod p are
    deferred: with p < 2**19 every intermediate value is a sum of at most
    ~2**14 products of reduced residues plus an initial residue, which
    float64 holds exactly.  Pivot rows are reduced and normalized when
    promoted; rows below a pivot only ever have their current sub-panel
    reduced, the rest is updated by one small matmul per sub-panel and one
    large matmul per panel.
    """
    m, n = a.shape
    if n > _MAX_COLS:
        raise ValueError("matrix too wide for exact deferred reduction")
    r = 0
    pivots: list[int] = []
    c0 = 0
    while c0 < n and r < m:
        c1 = min(c0 + _PANEL, n)
        panel_pivots: list[int] = []
        factors = np.zeros((m - r, c1 - c0), dtype=np.float64)
        s0 = c0
        while s0 < c1:
            s1 = min(s0 + _SUBPANEL, c1)
            rr0 = r + len(panel_pivots)
            if rr0 >= m:
                break
            # catch the sub-panel block of the remaining rows up with the
            # panel pivots found so far; work on its transpose so that both
            # the per-column reductions and the rank-1 updates run on
            # contiguous memory
            k0 = len(panel_pivots)
            if k0:
                a[rr0:, s0:s1] -= factors[rr0 - r :, :k0] @ a[r : r + k0, s0:s1]
            sub = np.ascontiguousarray(a[rr0:, s0:s1].T)  # (width, m - rr0)
            for j in range(s1 - s0):
                lr = r + len(panel_pivots) - rr0  # local index of pivot row
                if lr >= sub.shape[1]:
                    break
                sub[j, lr:] %= p
                nz = np.nonzero(sub[j, lr:])[0]
                if nz.size == 0:
                    continue
                pl = lr + int(nz[0])
                rr = rr0 + lr
                if pl != lr:
                    sub[:, [lr, pl]] = sub[:, [pl, lr]]
                    a[[rr, rr0 + pl], s1:] = a[[rr0 + pl, rr], s1:]
                    factors[[rr - r, rr0 + pl - r], :] = factors[
                        [rr0 + pl - r, rr - r], :
                    ]
                # complete the new pivot row against the panel pivots and
                # normalize it; it is frozen (fully reduced) from here on
                k = len(panel_pivots)
                if k:
                    a[rr, s1:] -= factors[rr - r, :k] @ a[r : r + k, s1:]
                a[rr, s1:] %= p
                inv = pow(int(sub[j, lr]), p - 2, p)
                sub[j:, lr] %= p
                sub[j:, lr] *= inv
                sub[j:, lr] %= p
                a[rr, s1:] *= inv
                a[rr, s1:] %= p
                f = sub[j, lr + 1 :].copy()  # reduced multipliers below
                if f.size and j + 1 < s1 - s0:
                    sub[j + 1 :, lr + 1 :] -= np.multiply.outer(
                        sub[j + 1 :, lr], f
                    )
                factors[rr + 1 - r :, k] = f
                panel_pivots.append(s0 + j)
            a[rr0:, s0:s1] = sub.T
            s0 = s1
        k = len(panel_pivots)
        if k and c1 < n:
            a[r + k :, c1:] -= factors[k:, :k] @ a[r : r + k, c1:]
        pivots.extend(panel_pivots)
        r += k
        c0 = c1
    if r:
        a[:r] %= p  # clear the deferred junk left of the pivots
    return a, pivots


def _kernel_coords_mod_p(
    ech: np.ndarray, pivots: list[int], free_cols: list[int], p: int
) -> np.ndarray:
    """Pivot-coordinate block of the kernel vectors (one per free column,
    unit at its own free column, zero at the others), by back-substitution
    on the echelon rows."""
    r = len(pivots)
    k = len(free_cols)
    x = np.zeros((r, k), dtype=np.float64)
    for i in range(r - 1, -1, -1):
        rhs = ech[i, free_cols].copy()
        if i + 1 < r:
            rhs = rhs + ech[i, pivots[i + 1 :]] @ x[i + 1 :, :]
        x[i, :] = np.mod(-rhs, p)
    return x


def _kernel_combo_mod_p(
    ech: np.ndarray, pivots: list[int], free: list[int], w: list[int], p: int
) -> np.ndarray:
    """Pivot-coordinate vector of the kernel element with the given integer
    free coordinates, by one back-substitution on the echelon rows."""
    r = len(pivots)
    wfull = np.zeros(ech.shape[1], dtype=np.float64)
    wfull[free] = [wi % p for wi in w]
    base = (ech[:r] @ wfull) % p
    x = np.zeros(r, dtype=np.float64)
    for i in range(r - 1, -1, -1):
        rhs = base[i]
        if i + 1 < r:
            rhs = rhs + ech[i, pivots[i + 1 :]] @ x[i + 1 :]
        x[i] = (-rhs) % p
    return x


def _crt_pair(r1: int, m1: int, r2: int, m2: int) -> tuple[int, int]:
    t = ((r2 - r1) * pow(m1, -1, m2)) % m2
    return r1 + m1 * t, m1 * m2


def _rational_reconstruct(u: int, m: int) -> Fraction | None:
    """Wang's algorithm: the unique n/d with |n|, d <= sqrt(m/2), d > 0,
    gcd(d, m) = 1 and n = u*d mod m, if it exists."""
    a0, a1 = m, u % m
    x0, x1 = 0, 1
    bound = m // 2
    while a1 * a1 * 2 > m:
        q = a0 // a1
        a0, a1 = a1, a0 - q * a1
        x0, x1 = x1, x0 - q * x1
    if x1 == 0 or x1 * x1 * 2 > m:
        return None
    n, d = a1, x1
    if d < 0:
        n, d = -n, -d
    if gcd(n, d) != 1 or d == 0:
        return None
    if n * n * 2 > m:
        return None
    return Fraction(n, d)


class ModKernel:
    """Kernel analysis of one integer matrix, growing a prime schedule
    lazily: one prime gives the dimension upper bound and the pivot/free
    structure, more primes refine CRT residues until rational kernel
    vectors reconstruct and verify."""

    def __init__(
        self,
        rows: list[list[int]] | np.ndarray,
        ncols: int,
        max_primes: int = 8,
    ):
        self.ncols = ncols
        self.max_primes = max_primes
        if isinstance(rows, np.ndarray):
            self._base = rows if rows.size else np.zeros((0, ncols), dtype=np.int64)
        elif rows:
            try:
                self._base = np.array(rows, dtype=np.int64)
            except OverflowError:
                self._base = np.array(rows, dtype=object)
        else:
            self._base = np.zeros((0, ncols), dtype=np.int64)
        self._max_abs = int(np.abs(self._base).max()) if self._base.size else 0
        self._verify_residues: dict[int, np.ndarray] = {}
        self._echelons: list[tuple[int, np.ndarray, list[int]]] = []
        self._add_prime()

    def _add_prime(self) -> None:
        used = {p for p, _, _ in self._echelons}
        for p in PRIMES:
            if p not in used:
                break
        else:
            raise ReconstructionError("prime schedule exhausted")
        a = (self._base % p).astype(np.float64)
        ech, pivots = echelon_mod_p(a, p)
        self._echelons.append((p, ech, pivots))

    @property
    def dim_upper_bound(self) -> int:
        """Exact upper bound for the rational kernel dimension."""
        return min(self.ncols - len(piv) for _, _, piv in self._echelons)

    def _structure(self) -> tuple[np.ndarray, list[int], list[int], int]:
        p, ech, pivots = min(
            self._echelons, key=lambda t: self.ncols - len(t[2])
        )
        pivset = set(pivots)
        free = [c for c in range(self.ncols) if c not in pivset]
        return ech, pivots, free, p


    def _verified(self, vec: list[Fraction]) -> bool:
        """Exact zero test of base @ vec: the integers base @ w (w = vec with
        denominators cleared) are checked to vanish modulo verification
        primes whose product exceeds twice the a-priori magnitude bound, so
        vanishing modulo all of them implies vanishing over the integers."""
        if self._base.shape[0] == 0:
            return True
        den = 1
        for e in vec:
            d = e.denominator
            if d != 1:
                den = den * d // gcd(den, d)
        if den == 1:
            w = [e.numerator for e in vec]
        else:
            w = [int(e * den) for e in vec]
        bound = 2 * self.ncols * self._max_abs * max(
            (abs(c) for c in w), default=0
        ) + 1
        nzi = [j for j, c in enumerate(w) if c]
        sparse = len(nzi) * 2 < len(w)
        modulus = 1
        for q in _VERIFY_PRIMES:
            if modulus > bound:
                return True
            rq = self._verify_residues.get(q)
            if rq is None:
                rq = (self._base % q).astype(np.int64)
                self._verify_residues[q] = rq
            if sparse:
                wq = np.array([w[j] % q for j in nzi], dtype=np.int64)
                prod = rq[:, nzi] @ wq
            else:
                wq = np.array([c % q for c in w], dtype=np.int64)
                prod = rq @ wq
            if (prod % q).any():
                return False
            modulus *= q
        # the candidate's entries are too tall for the prime pool; fall back
        # to the direct exact dot products
        nz = [(j, c) for j, c in enumerate(w) if c]
        return not any(
            sum(int(row[j]) * c for j, c in nz) for row in self._base
        )

    def candidate_residues(
        self, columns: list[int] | None = None
    ) -> tuple[list[int], list[int], np.ndarray, int]:
        """Mod-p data of canonical kernel vectors in one backsubstitution:
        the pivot columns, the free columns, the pivot-coordinate block
        (column k belongs to the vector with 1 at the k-th requested free
        column and 0 at the others), and the prime used.  `columns`
        restricts the computation to the given free columns."""
        ech, pivots, free, p = self._structure()
        cols = free if columns is None else columns
        return pivots, free, _kernel_coords_mod_p(ech, pivots, cols, p), p

    def exact_vectors(
        self,
        count: int | None = None,
        spread: bool = False,
        columns: list[int] | None = None,
    ) -> Iterator[list[Fraction]]:
        """Yield verified rational kernel vectors, one per free column (so
        the collection is independent: each has entry 1 at its own free
        column and 0 at the others).  Free columns are visited in ascending
        order, in a golden-ratio stride order when `spread` is set (useful
        when consecutive columns give near-redundant vectors), or restricted
        to the given free `columns`.  Yields at most `count` vectors, at
        most dim_upper_bound in total; if all dim_upper_bound vectors verify
        they form a full kernel basis."""
        _, base_pivots, free, _ = self._structure()
        if columns is not None:
            freeset = set(free)
            free = [f for f in columns if f in freeset]
        elif spread and len(free) > 2:
            n = len(free)
            step = max(1, round(n * 0.6180339887))
            while gcd(step, n) != 1:
                step += 1
            free = [free[(i * step) % n] for i in range(n)]
        total = len(free) if count is None else min(count, len(free))
        sel = free[:total]
        coord_cache: dict[int, np.ndarray] = {}

        def candidate(idx: int) -> list[Fraction] | None:
            """CRT residues of one kernel vector across the current primes,
            rationally reconstructed; None if reconstruction fails (the
            caller should add a prime and retry).  Backsubstitution runs
            once per prime for the whole selection."""
            res: list[int] | None = None
            mod = 1
            for p, ech, pivots in self._echelons:
                if pivots != base_pivots:
                    # unlucky prime: rank dropped or structure shifted
                    continue
                coords = coord_cache.get(p)
                if coords is None:
                    coords = _kernel_coords_mod_p(ech, pivots, sel, p)
                    coord_cache[p] = coords
                vec = [0] * self.ncols
                vec[sel[idx]] = 1
                for i, c in enumerate(pivots):
                    vec[c] = int(coords[i, idx])
                if res is None:
                    res, mod = vec, p
                else:
                    res = [
                        _crt_pair(r1, mod, r2, p)[0]
                        for r1, r2 in zip(res, vec)
                    ]
                    mod *= p
            if res is None:
                raise RuntimeError("no prime with the base pivots to reconstruct from")
            zero = Fraction(0)
            out = [zero] * self.ncols
            for i, u in enumerate(res):
                if u:
                    fr = _rational_reconstruct(u, mod)
                    if fr is None:
                        return None
                    out[i] = fr
            return out

        for idx in range(total):
            while True:
                vec = candidate(idx)
                if vec is not None and self._verified(vec):
                    yield vec
                    break
                if len(self._echelons) >= self.max_primes:
                    raise ReconstructionError(
                        "kernel vector did not reconstruct from "
                        f"{len(self._echelons)} primes"
                    )
                self._add_prime()
                if self._structure()[1] != base_pivots:
                    raise ReconstructionError("unstable pivot structure")


    def exact_random_vectors(
        self, count: int, seed: int = 0, bound: int = 1
    ) -> Iterator[list[Fraction]]:
        """Yield verified rational kernel vectors whose free coordinates are
        dense random integers in [-bound, bound] (deterministic in `seed`).
        Each one is a generic point of the kernel, useful when the canonical
        per-free-column vectors of `exact_vectors` are too structured; the
        random signs keep numerator heights close to canonical, so the prime
        schedule rarely needs to grow."""
        _, base_pivots, free, _ = self._structure()
        if not free:
            return
        rng = random.Random(seed)

        def candidate(w: list[int]) -> list[Fraction] | None:
            res: list[int] | None = None
            mod = 1
            for p, ech, pivots in self._echelons:
                if pivots != base_pivots:
                    continue
                x = _kernel_combo_mod_p(ech, pivots, free, w, p)
                if res is None:
                    res, mod = [int(v) for v in x], p
                else:
                    res = [
                        _crt_pair(r1, mod, int(r2), p)[0]
                        for r1, r2 in zip(res, x)
                    ]
                    mod *= p
            if res is None:
                raise RuntimeError("no prime with the base pivots to reconstruct from")
            out = [Fraction(0)] * self.ncols
            for j, c in enumerate(free):
                out[c] = Fraction(w[j])
            for i, c in enumerate(base_pivots):
                if res[i]:
                    fr = _rational_reconstruct(res[i], mod)
                    if fr is None:
                        return None
                    out[c] = fr
            return out

        for _ in range(count):
            w = [rng.randint(-bound, bound) for _ in free]
            if not any(w):
                w[0] = 1
            while True:
                vec = candidate(w)
                if vec is not None and self._verified(vec):
                    yield vec
                    break
                if len(self._echelons) >= self.max_primes:
                    raise ReconstructionError(
                        "kernel vector did not reconstruct from "
                        f"{len(self._echelons)} primes"
                    )
                self._add_prime()
                if self._structure()[1] != base_pivots:
                    raise ReconstructionError("unstable pivot structure")


def kernel_dim_upper_bound(rows: list[list[int]], ncols: int) -> int:
    return ModKernel(rows, ncols).dim_upper_bound
