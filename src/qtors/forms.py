"""Cartan matrix, Coxeter matrix, Euler form and the Coxeter action on
dimension vectors for the path algebra of an acyclic quiver."""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .linalg import Matrix
from .quiver import Quiver, QuiverError


class FormsContext:
    """Caches the Cartan matrix C and the Coxeter matrix Phi = -C^t * C^{-1}
    and its inverse for one quiver.  All entries are exact."""

    def __init__(self, q: Quiver):
        if q.topological_order() is None:
            raise QuiverError("forms require an acyclic quiver")
        self.quiver = q
        self.cartan = cartan_matrix(q)
        self.coxeter = (-self.cartan.transpose()) * self.cartan.inverse()
        self.coxeter_inv = self.coxeter.inverse()

    def euler_form(self, x: list[int], y: list[int]) -> int:
        """<x, y> = sum_v x_v y_v - sum_{arrows s -> t} x_s y_t, which is
        x^t * (C^{-1})^t * y as C^{-1} = I - N; equals dim Hom - dim Ext^1
        on dimension vectors."""
        if len(x) != self.quiver.n or len(y) != self.quiver.n:
            raise ValueError("dimension vector length mismatch")
        arrows = sum(x[s - 1] * y[t - 1] for s, t in self.quiver.arrows)
        return sum(a * b for a, b in zip(x, y)) - arrows

    def tau_dimvec(self, d: list[int]) -> list[int]:
        """Phi * d; equals dimvec of the AR translate for indecomposable
        non-projectives.  Entries may be negative (projective detection)."""
        return _int_vector(self.coxeter.apply(d))

    def tau_inverse_dimvec(self, d: list[int]) -> list[int]:
        return _int_vector(self.coxeter_inv.apply(d))


def _int_vector(v: list[Fraction]) -> list[int]:
    if any(x.denominator != 1 for x in v):
        raise RuntimeError("dimension vector is not integral")
    return [int(x) for x in v]


@lru_cache(maxsize=None)
def forms_context(q: Quiver) -> FormsContext:
    return FormsContext(q)


def cartan_matrix(q: Quiver) -> Matrix:
    """Entry (i, j) counts directed paths from j to i; computed as
    (I - N)^{-1} for the arrow-count matrix N, which is nilpotent since the
    quiver is acyclic."""
    if q.topological_order() is None:
        raise QuiverError("Cartan matrix requires an acyclic quiver")
    n = q.n
    data = [[0] * n for _ in range(n)]
    for i in range(n):
        data[i][i] = 1
    for s, t in q.arrows:
        data[t - 1][s - 1] -= 1
    return Matrix(n, n, data).inverse()


def coxeter_matrix(q: Quiver) -> Matrix:
    return forms_context(q).coxeter


def euler_form(q: Quiver, x: list[int], y: list[int]) -> int:
    return forms_context(q).euler_form(x, y)


def tau_dimvec(q: Quiver, d: list[int]) -> list[int]:
    return forms_context(q).tau_dimvec(d)


def tau_inverse_dimvec(q: Quiver, d: list[int]) -> list[int]:
    return forms_context(q).tau_inverse_dimvec(d)


def triple_quiver(a: int, b: int, c: int) -> Quiver:
    """The three-vertex quiver with a arrows 1->2, b arrows 2->3 and c
    arrows 1->3; a negative multiplicity raises QuiverError."""
    if min(a, b, c) < 0:
        raise QuiverError(f"arrow multiplicities must be non-negative, got {a},{b},{c}")
    arrows = [(1, 2)] * a + [(2, 3)] * b + [(1, 3)] * c
    return Quiver(3, tuple(arrows))


def wild_triple_euler_value(a: int, b: int, c: int) -> int:
    """Closed form for <dim tau(M), dim M> on the (a, b, c) triple quiver,
    M the extended projective with dimension vector (1, a, 0):
    -1 - a^2(a^2 b^2 - 2b^2 - 1) - abc(2a^2 - 3) - c^2(a^2 - 1)."""
    return (
        -1
        - a * a * (a * a * b * b - 2 * b * b - 1)
        - a * b * c * (2 * a * a - 3)
        - c * c * (a * a - 1)
    )
