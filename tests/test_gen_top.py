"""Gen-membership and surjections decided on the top of the target: the
closed-form deciders (the top "no" and the projective "yes"), the
certificate and the exact route, which test ranks at the top vertices of
the target only, are held to dense oracles built from `hom_basis`.

The Gen oracle is the rank of the trace over the rationals
(`dense_gen_contains`).  The surjection oracle is the exact rank of the
image of random rational combinations of the `hom_basis` basis: a "yes" is
certain, and by Schwartz-Zippel a draw misses a surjection with
probability at most (total dim y) / (2 * 10**6 + 1), so 16 draws miss it
with probability far below 2**-64."""

import random
from fractions import Fraction
from unittest import mock

import pytest

from qtors import (
    Matrix,
    Quiver,
    Rep,
    direct_sum,
    exists_surjection,
    gen_contains,
    hom_basis,
    projective_rep,
    simple_rep,
    triple_quiver,
)
from qtors import rep
from qtors.modkernel import PRIME

from conftest import dense_gen_contains, linear_quiver, star_quiver
from test_gen_certificate import _unlucky_pair

QUIVERS = {
    "A3": linear_quiver(3),
    "D4": star_quiver(3),
    "wild": triple_quiver(2, 1, 0),
}


def _oracle_surjection(x: Rep, y: Rep) -> bool:
    if y.is_zero():
        return True
    basis = hom_basis(x, y)
    draw = random.Random(0)
    for _ in range(16 if basis else 0):
        coeffs = [
            Fraction(draw.randint(-10**6, 10**6), draw.randint(1, 10**3)) for _ in basis
        ]

        def image_rank(v: int) -> int:
            phi = basis[0][v].scale(coeffs[0])
            for f, c in zip(basis[1:], coeffs[1:]):
                phi = phi + f[v].scale(c)
            return phi.rank()

        if all(image_rank(v) == d for v, d in enumerate(y.dims) if d):
            return True
    return False


def _random_rep(q: Quiver, draw: random.Random) -> Rep:
    """Dimensions 0..3 and small integer or Fraction maps, a third of them
    zero, so that vertices have a top, a radical or both."""
    dims = tuple(draw.randint(0, 3) for _ in range(q.n))
    maps = []
    for s, t in q.arrows:
        rows, cols = dims[t - 1], dims[s - 1]
        if draw.random() < 1 / 3:
            maps.append(Matrix.zero(rows, cols))
            continue
        den = draw.choice((1, 1, 2, 3))
        maps.append(
            Matrix(
                rows,
                cols,
                [
                    [Fraction(draw.randint(-2, 2), den) for _ in range(cols)]
                    for _ in range(rows)
                ],
            )
        )
    return Rep(q, dims, tuple(maps))


def _has_top_and_radical(x: Rep) -> bool:
    """Some vertex where top x and rad x are both non-zero."""
    for v in range(1, x.quiver.n + 1):
        rad = rep.radical_generators(x, v).rank()
        if 0 < rad < x.dim(v):
            return True
    return False


def _check_pairs(sources, targets):
    """Both answers of every pair against the oracles; the number of pairs
    answered without building a Hom system, by answer."""
    closed = {True: 0, False: 0}
    built = []
    orig = rep._hom_system

    def hom_system(x, y):
        built.append((x, y))
        return orig(x, y)

    for m in sources:
        for x in targets:
            del built[:]
            with mock.patch.object(rep, "_hom_system", hom_system):
                got = gen_contains(m, x)
            assert got == dense_gen_contains(m, x), (m.dims, x.dims)
            if not built and not x.is_zero():
                closed[got] += 1
            assert exists_surjection(m, x) == _oracle_surjection(m, x), (m.dims, x.dims)
    return closed


@pytest.mark.parametrize("name", sorted(QUIVERS))
def test_seeded_representations_match_the_oracles(name):
    q = QUIVERS[name]
    draw = random.Random(f"gen-top:{name}")
    reps = [_random_rep(q, draw) for _ in range(9)]
    reps += [projective_rep(q, v) for v in range(1, q.n + 1)]
    assert any(_has_top_and_radical(x) for x in reps)
    _check_pairs(reps, reps)


@pytest.mark.parametrize("name", sorted(QUIVERS))
def test_projective_sources_answer_before_any_hom_system(name):
    q = QUIVERS[name]
    projectives = [projective_rep(q, v) for v in range(1, q.n + 1)]
    sources = projectives + [
        direct_sum([a, b]) for i, a in enumerate(projectives) for b in projectives[i:]
    ]
    draw = random.Random(f"gen-top-projective:{name}")
    # simples and random targets: tops that miss, meet or lie on the
    # generator vertices of each source
    targets = [simple_rep(q, v) for v in range(1, q.n + 1)]
    targets += [_random_rep(q, draw) for _ in range(6)] + projectives
    closed = _check_pairs(sources, targets)
    assert closed[True] and closed[False]


def test_over_counted_top_never_yields_a_wrong_no():
    # S1 + S2 into t with arrow map PRIME: t's top looks like vertices 1
    # and 2 mod p, but only vertex 1 exactly
    g, t = _unlucky_pair()
    assert rep._integer_form(t)._tops.support == {1, 2}
    assert rep.radical_generators(t, 2).rank() == t.dim(2)
    assert gen_contains(g, t) is dense_gen_contains(g, t) is False
    assert exists_surjection(g, t) is _oracle_surjection(g, t) is False
    # P1 has no generator at vertex 2, where t's top is over-counted: the
    # exact confirmation stops the top "no", and t = P1 up to isomorphism
    q = t.quiver
    p1 = projective_rep(q, 1)
    _, t = _unlucky_pair()
    assert gen_contains(p1, t) and exists_surjection(p1, t)
    assert dense_gen_contains(p1, t) and _oracle_surjection(p1, t)
    # the same radical vanishing mod p only, inside a larger target
    q = linear_quiver(3)
    t = Rep(q, (1, 1, 1), (Matrix(1, 1, [[PRIME]]), Matrix(1, 1, [[PRIME * 3]])))
    assert rep._integer_form(t)._tops.support == {1, 2, 3}
    p1, p2, p3 = (projective_rep(q, v) for v in (1, 2, 3))
    for m in (p1, p2, direct_sum([p2, p3])):
        assert gen_contains(m, t) == dense_gen_contains(m, t), m.dims
        assert exists_surjection(m, t) == _oracle_surjection(m, t), m.dims


def test_kronecker_window_gen_traffic():
    """The chain check of kronecker_window(3, 6) builds 28 Hom systems (27
    of them with unknowns), calls the certificate 9 times and makes 9 mod-p
    rank tests in `rep` (54, 48, 22 and 41 before rank tests moved to the
    top of the target).  Its top and bottom checks, Fac(A1 + A2) and Fac(A1)
    against every window member, build no Hom system: the projective "yes"
    and the top "no" answer them."""
    from qtors import families, kronecker_chain_check, kronecker_window

    counts = {"systems": 0, "unknowns": 0, "certificates": 0, "ranks": 0}
    hom_rows, certify = rep._hom_rows, rep._gen_certified_mod_p
    pivots = rep.pivot_columns_mod_p

    def counted_rows(x, y):
        out = hom_rows(x, y)
        counts["systems"] += 1
        counts["unknowns"] += out[1] > 0
        return out

    def counted_certificate(*args, **kwargs):
        counts["certificates"] += 1
        return certify(*args, **kwargs)

    def counted_rank(a, p):
        counts["ranks"] += 1
        return pivots(a, p)

    w = kronecker_window(3, 6)
    bottom = w.preprojectives[0]
    top_dims = tuple(a + b for a, b in zip(bottom.dims, w.preprojectives[1].dims))
    gen = families.gen_contains
    closed = []

    def recorded_gen(m, x):
        before = counts["systems"]
        out = gen(m, x)
        if m is bottom or m.dims == top_dims:
            closed.append(counts["systems"] == before)
        return out

    with mock.patch.object(rep, "_hom_rows", counted_rows), mock.patch.object(
        rep, "_gen_certified_mod_p", counted_certificate
    ), mock.patch.object(rep, "pivot_columns_mod_p", counted_rank), mock.patch.object(
        families, "gen_contains", recorded_gen
    ):
        report = kronecker_chain_check(w)
    assert report.ok()
    assert counts == {"systems": 28, "unknowns": 27, "certificates": 9, "ranks": 9}
    members = len(w.preprojectives + w.preinjectives)
    assert len(closed) == 2 * members - 1 and all(closed)
