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
