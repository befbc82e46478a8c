from __future__ import annotations

import os

# the modular elimination blocks are small; BLAS thread pools only add
# spin overhead (and wildly unstable timings on shared single-core boxes)
for _var in (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ.setdefault(_var, "1")

import itertools
import random
from fractions import Fraction

import pytest

from qtors import Matrix, Quiver, hom_basis


def linear_quiver(n: int) -> Quiver:
    """Linear A_n quiver 1 -> 2 -> ... -> n."""
    return Quiver(n, tuple((i, i + 1) for i in range(1, n)))


def star_quiver(leaves: int) -> Quiver:
    """Star with `leaves` outer vertices, all arrows pointing at the center."""
    center = leaves + 1
    return Quiver(center, tuple((i, center) for i in range(1, leaves + 1)))


def random_fraction_matrix(rng: random.Random, rows: int, cols: int, bound: int = 5):
    return Matrix(
        rows,
        cols,
        [
            [
                Fraction(rng.randint(-bound, bound), rng.randint(1, 3))
                for _ in range(cols)
            ]
            for _ in range(rows)
        ],
    )


def dense_gen_contains(m, x) -> bool:
    """Gen oracle: x lies in Fac(m) iff at every vertex the maps of a dense
    Hom(m, x) basis jointly have full rank."""
    basis = hom_basis(m, x)
    for v in range(m.quiver.n):
        if x.dims[v] == 0:
            continue
        cols = [phi[v] for phi in basis if phi[v].cols > 0]
        if not cols or Matrix.hstack(cols).rank() < x.dims[v]:
            return False
    return True


def _dense_rank_search(x, y, ranks) -> bool:
    """Whether some combination of a dense Hom(x, y) basis has rank
    ranks[v] at every vertex: 32 random rational points, then every point
    of the grid {-2..2}^m, m = dim Hom (exponential in m; small inputs
    only)."""
    basis = hom_basis(x, y)

    def accept(coeffs) -> bool:
        for v, r in enumerate(ranks):
            if r == 0:
                continue
            phi = basis[0][v].scale(coeffs[0])
            for f, c in zip(basis[1:], coeffs[1:]):
                phi = phi + f[v].scale(c)
            if phi.rank() != r:
                return False
        return True

    draw = random.Random(0)
    points = [
        [Fraction(draw.randint(-7, 7), draw.randint(1, 7)) for _ in basis]
        for _ in range(32)
    ]
    grid = itertools.product(range(-2, 3), repeat=len(basis))
    return bool(basis) and any(
        accept(c) for c in itertools.chain(points, grid) if any(c)
    )


def dense_exists_surjection(x, y) -> bool:
    """Surjection oracle: the dense search on the rank dim y_v at every
    vertex, after the certain "no"s (a dimension of y above that of x, or
    y not in Fac(x) by `dense_gen_contains`)."""
    if y.is_zero():
        return True
    if any(dx < dy for dx, dy in zip(x.dims, y.dims)) or not dense_gen_contains(x, y):
        return False
    return _dense_rank_search(x, y, y.dims)


def dense_is_isomorphic(x, y) -> bool:
    """Isomorphism oracle: equal dimension vectors and the dense search on
    the rank dim x_v at every vertex."""
    return x.dims == y.dims and (x.is_zero() or _dense_rank_search(x, y, x.dims))


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20260826)


# one line per acceptance criterion, printed after the run so pytest's
# output capture cannot swallow them
acceptance_lines: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)
