import time
from fractions import Fraction
from unittest import mock

import pytest

from qtors import (
    Matrix,
    Quiver,
    Rep,
    ar_translate,
    ar_translate_inverse,
    direct_sum,
    dualize,
    enumerate_indecomposables,
    exists_surjection,
    ext1_dim,
    extension_realize,
    gen_contains,
    hom_basis,
    hom_dim,
    injective_rep,
    is_brick,
    is_isomorphic,
    is_rigid,
    opposite,
    projective_presentation,
    projective_rep,
    reflect,
    simple_rep,
    zero_rep,
)
from qtors import rep
from qtors.linalg import extend_to_basis
from qtors.rep import ExtGroup

from conftest import dense_gen_contains, linear_quiver, star_quiver
from dense_ext import DenseExt
from presentation_ext import PresentationExt, compose, projective_hom_basis

A3 = linear_quiver(3)
D4 = star_quiver(3)
# orientations with a source at every kind of vertex: the ends and the
# middle of A3, the leaves and the center of D4
SOURCE_QUIVERS = [A3, Quiver(3, ((2, 1), (2, 3))), D4, opposite(D4)]


def _is_morphism(f, x, y):
    q = x.quiver
    for a, (s, t) in enumerate(q.arrows):
        if f[t - 1] * x.arrow_maps[a] != y.arrow_maps[a] * f[s - 1]:
            return False
    return True


class TestStandardReps:
    def test_simple_projective_injective_dims(self):
        assert simple_rep(A3, 2).dims == (0, 1, 0)
        assert projective_rep(A3, 1).dims == (1, 1, 1)
        assert projective_rep(A3, 3).dims == (0, 0, 1)
        assert injective_rep(A3, 3).dims == (1, 1, 1)
        assert injective_rep(A3, 1).dims == (1, 0, 0)

    def test_direct_sum(self):
        s = direct_sum([simple_rep(A3, 1), projective_rep(A3, 2)])
        assert s.dims == (1, 1, 1)
        assert zero_rep(A3).is_zero()

    def test_rep_shape_validation(self):
        with pytest.raises(ValueError):
            # arrow 1 -> 2 needs a 1x1 map here, not an empty one
            from qtors import Rep

            Rep(A3, (1, 1, 0), (Matrix.zero(0, 1), Matrix.zero(0, 1)))


class TestHom:
    def test_hom_members_are_morphisms(self):
        mods = enumerate_indecomposables(A3)
        for x in mods:
            for y in mods:
                for f in hom_basis(x, y):
                    assert _is_morphism(f, x, y)

    def test_hom_dims_a3(self):
        p1 = projective_rep(A3, 1)
        assert hom_dim(p1, p1) == 1
        assert hom_dim(p1, simple_rep(A3, 1)) == 1
        assert hom_dim(simple_rep(A3, 1), p1) == 0
        # Hom out of a projective has dimension dim at that vertex
        for m in enumerate_indecomposables(A3):
            assert hom_dim(p1, m) == m.dims[0]

    def test_compose(self):
        p2 = projective_rep(A3, 2)
        s2 = simple_rep(A3, 2)
        (f,) = hom_basis(p2, s2)
        (g,) = hom_basis(projective_rep(A3, 3), p2)
        gf = compose(f, g)
        assert all(m.is_zero() for m in gf)


class TestExt:
    def test_euler_route_equals_presentation_route(self):
        mods = enumerate_indecomposables(A3)
        for x in mods:
            for z in mods:
                ext = ExtGroup(x, z)
                assert ext.dimension == ext1_dim(z, x)
                assert len(ext.cocycles) == ext.dimension

    def test_presentation_is_exact(self):
        for m in enumerate_indecomposables(D4):
            pres = projective_presentation(m)
            assert _is_morphism(pres.epi, pres.p0, m)
            assert _is_morphism(pres.incl, pres.kernel, pres.p0)
            for v in range(m.quiver.n):
                # epi surjective, incl injective, composite zero, exactness
                assert pres.epi[v].rank() == m.dims[v]
                assert pres.incl[v].rank() == pres.kernel.dims[v]
                assert (pres.epi[v] * pres.incl[v]).is_zero()
                assert pres.kernel.dims[v] == pres.p0.dims[v] - m.dims[v]

    def test_realize_nonsplit(self):
        s1, s2 = simple_rep(A3, 1), simple_rep(A3, 2)
        ext = ExtGroup(s2, s1)  # Ext^1(S1, S2) = k for 1 -> 2
        assert ext.dimension == 1
        e, iota, pi = extension_realize(s2, s1, ext.cocycles[0])
        assert e.dims == (1, 1, 0)
        assert _is_morphism(iota, s2, e) and _is_morphism(pi, e, s1)
        assert is_isomorphic(e, projective_rep(A3, 1).__class__(
            A3, (1, 1, 0), (Matrix.identity(1), Matrix.zero(0, 1))
        ))
        assert not ext.is_coboundary(ext.cocycles[0])

    def test_realize_split(self):
        s1, s3 = simple_rep(A3, 1), simple_rep(A3, 3)
        ext = ExtGroup(s3, s1)
        assert ext.dimension == 0
        zero_cocycle = _zero_cocycle(s3, s1)
        assert ext.is_coboundary(zero_cocycle)
        e, _, _ = extension_realize(s3, s1, zero_cocycle)
        assert is_isomorphic(e, direct_sum([s3, s1]))


def _zero_cocycle(x, z):
    """The zero arrow tuple (Z_s -> X_t)."""
    return tuple(Matrix.zero(x.dims[t - 1], z.dims[s - 1]) for s, t in x.quiver.arrows)


class TestCocycleOracle:
    """Ext^1(Z, X) as the cokernel of the intertwining matrix, held to the
    route along a projective presentation of Z (`presentation_ext`)."""

    def _check(self, x, z):
        ext = ExtGroup(x, z)
        old = PresentationExt(x, z)
        assert ext.dimension == ext1_dim(z, x) == old.dimension
        assert all(not ext.is_coboundary(c) for c in ext.cocycles)
        assert ext.is_coboundary(_zero_cocycle(x, z))
        if ext.dimension == 1:
            # a one-dimensional Ext has one non-split middle term up to
            # isomorphism, and a True from is_isomorphic is exact
            e, iota, pi = extension_realize(x, z, ext.cocycles[0])
            assert _is_morphism(iota, x, e) and _is_morphism(pi, e, z)
            assert is_isomorphic(e, old.middle_term(old.cocycles[0]))

    @pytest.mark.parametrize("q", [A3, D4], ids=["A3", "D4"])
    def test_all_dynkin_pairs(self, q):
        mods = enumerate_indecomposables(q)
        for x in mods:
            for z in mods:
                self._check(x, z)

    @pytest.mark.parametrize("abc", [(2, 1, 0), (2, 1, 1)])
    def test_case_i_witness_pairs(self, abc):
        from qtors import build_wild_witness, triple_quiver

        w = build_wild_witness(triple_quiver(*abc))
        assert w.case == "i"
        for x in (w.m, w.n):
            for z in (w.m, w.n):
                self._check(x, z)


def _eager_cocycles(x, z):
    """The cocycles built all at once, as ExtGroup did before they became
    lazy: one arrow tuple per picked cokernel coordinate (`DenseExt`)."""
    return DenseExt(x, z).cocycles


@pytest.mark.parametrize("abc", [(2, 1, 0), (2, 1, 1)])
def test_cocycles_are_built_when_read(abc):
    from unittest import mock

    from qtors import build_wild_witness, rep, triple_quiver

    w = build_wild_witness(triple_quiver(*abc))
    for x, z in ((w.m, w.n), (w.n, w.m), (w.n, w.n)):
        with mock.patch.object(
            rep._UnitCocycles, "__getitem__", side_effect=RuntimeError("built early")
        ):
            ext = ExtGroup(x, z)
        want = _eager_cocycles(x, z)
        assert len(ext.cocycles) == ext.dimension == len(want)
        assert list(ext.cocycles) == want
        assert [ext.cocycles[i] for i in range(len(want))] == want
        if want:
            assert ext.cocycles[-1] == want[-1]
            assert ext.cocycles[1:3] == want[1:3]
            with pytest.raises(IndexError):
                ext.cocycles[len(want)]


def test_projective_hom_oracle_spans_the_dense_basis():
    # the Hom(P0, X) basis the oracle reads off the projective tops spans
    # what the intertwining system gives
    x = projective_rep(D4, 1)
    for z in enumerate_indecomposables(D4):
        pres = projective_presentation(z)
        tops = projective_hom_basis(pres, x)
        dense = hom_basis(pres.p0, x)
        assert len(tops) == len(dense)
        assert all(_is_morphism(f, pres.p0, x) for f in tops)
        flat = [[e for m in f for e in m.entries()] for f in tops + dense]
        nent = len(flat[0]) if flat else 0
        both = Matrix.from_columns(flat, nrows=nent)
        assert both.rank() == len(tops)


def test_is_coboundary_rejects_a_wrong_shape():
    x, z = projective_rep(A3, 2), simple_rep(A3, 1)
    ext = ExtGroup(x, z)
    zero = _zero_cocycle(x, z)
    assert ext.is_coboundary(zero)
    with pytest.raises(ValueError, match="per arrow"):
        ext.is_coboundary(zero[:1])
    wide = (Matrix.zero(x.dims[1], z.dims[0] + 1),) + zero[1:]
    with pytest.raises(ValueError, match="per arrow"):
        ext.is_coboundary(wide)


def _cokernel_source_reflection(x, vertex):
    """Reference source reflection: the cokernel of the assembled outgoing
    map, projected onto standard coordinates completing its image."""
    q = x.quiver
    arrows_at = q.arrows_out(vertex)
    blocks = [x.arrow_maps[a] for a in arrows_at]
    assembled = Matrix.vstack(blocks) if blocks else Matrix.zero(0, x.dim(vertex))
    col_basis = assembled.submatrix(range(assembled.rows), [])
    if assembled.cols:
        _, piv, _ = assembled.rref()
        col_basis = assembled.submatrix(range(assembled.rows), piv)
    comp = extend_to_basis(col_basis)
    pieces = [m for m in (col_basis, comp) if m.cols]
    b = Matrix.hstack(pieces) if pieces else Matrix.zero(0, 0)
    quot = b.inverse().submatrix(range(col_basis.cols, b.rows), range(b.cols))
    dims = list(x.dims)
    dims[vertex - 1] = comp.cols
    maps = list(x.arrow_maps)
    row0 = 0
    for a in arrows_at:
        t = q.arrows[a][1]
        maps[a] = quot.submatrix(range(comp.cols), range(row0, row0 + x.dim(t)))
        row0 += x.dim(t)
    arrows = tuple((t, s) if vertex in (s, t) else (s, t) for s, t in q.arrows)
    return Rep(Quiver(q.n, arrows), tuple(dims), tuple(maps))


class TestSourceReflectionOracle:
    def _check(self, x, vertex):
        old = _cokernel_source_reflection(x, vertex)
        new = reflect(x, vertex)
        assert new.quiver == old.quiver
        assert is_isomorphic(new, old)

    @pytest.mark.parametrize("q", SOURCE_QUIVERS, ids=["A3", "A3mid", "D4", "D4op"])
    def test_dynkin_indecomposables(self, q):
        sources = [v for v in range(1, q.n + 1) if q.is_source(v)]
        for m in enumerate_indecomposables(q):
            for v in sources:
                self._check(m, v)

    def test_kronecker_window_members(self):
        from qtors import kronecker_window

        w = kronecker_window(2, 5)
        for m in w.preprojectives + w.preinjectives:
            self._check(m, 1)


class TestPairMemo:
    def test_dead_partners_leave_no_entries(self):
        x = projective_rep(A3, 1)
        partners = [simple_rep(A3, 1 + i % 3) for i in range(200)]
        for y in partners:
            hom_dim(x, y)
        assert hom_dim(x, x) == 1
        assert len(x._pair_data) == 201
        del partners, y
        assert set(x._pair_data) == {id(x)}


class TestReflectionAndTranslate:
    def test_reflect_swaps_quiver_orientation(self):
        r = reflect(simple_rep(A3, 2), 3)
        assert r.quiver == Quiver(3, ((1, 2), (3, 2)))
        # at the sink the new dimension is (incoming total) - (old dim)
        assert r.dims == (0, 1, 1)

    def test_reflect_kills_sink_simple(self):
        assert reflect(simple_rep(A3, 3), 3).is_zero()

    def test_reflection_formula_on_dims(self):
        # at a sink v: new dim = (sum over arrows into v) - old dim
        m = projective_rep(A3, 1)
        r = reflect(m, 3)
        assert r.dims == (1, 1, 0)

    def test_translate_kills_projectives(self):
        for q in (A3, D4):
            for v in range(1, q.n + 1):
                assert ar_translate(projective_rep(q, v)).is_zero()

    def test_translate_inverse_kills_injectives(self):
        for v in range(1, 4):
            assert ar_translate_inverse(injective_rep(A3, v)).is_zero()

    def test_translate_roundtrip_on_nonprojectives(self):
        projs = {projective_rep(A3, v).dims for v in range(1, 4)}
        for m in enumerate_indecomposables(A3):
            if m.dims in projs:
                continue
            back = ar_translate_inverse(ar_translate(m))
            assert is_isomorphic(back, m)

    def test_dualize_involution_and_hom_transport(self):
        mods = enumerate_indecomposables(A3)
        for x in mods[:4]:
            assert is_isomorphic(dualize(dualize(x)), x)
        for x in mods[:4]:
            for y in mods[:4]:
                assert hom_dim(x, y) == hom_dim(dualize(y), dualize(x))
        assert dualize(simple_rep(A3, 1)).quiver == opposite(A3)


class TestPredicates:
    def test_all_dynkin_indecomposables_are_bricks_and_rigid(self):
        for q in (A3, D4):
            for m in enumerate_indecomposables(q):
                assert is_brick(m)
                assert is_rigid(m)
                assert hom_dim(m, ar_translate(m)) == 0

    def test_non_brick(self):
        m = direct_sum([simple_rep(A3, 1)] * 2)
        assert not is_brick(m)


class TestGenAndSurjections:
    def test_gen_contains_quotients(self):
        p1 = projective_rep(A3, 1)
        for m in enumerate_indecomposables(A3):
            # quotients of P1 are exactly the intervals containing vertex 1
            expected = m.dims[0] == 1 and gen_contains(p1, m)
            assert gen_contains(p1, m) == (m.dims[0] == 1)
            assert expected == exists_surjection(p1, m)

    def test_gen_contains_zero_and_self(self):
        m = projective_rep(A3, 2)
        assert gen_contains(m, zero_rep(A3))
        assert gen_contains(m, direct_sum([m, m]))

    def test_fast_path_agrees_with_exact_fallback(self):
        mods = enumerate_indecomposables(D4)
        big = direct_sum(mods[:5])
        for x in mods:
            assert gen_contains(big, x) == dense_gen_contains(big, x)

    def test_exists_surjection_basic(self):
        p1 = projective_rep(A3, 1)
        s1 = simple_rep(A3, 1)
        assert exists_surjection(p1, s1)
        assert not exists_surjection(s1, p1)

    def test_certified_no_answers_skip_the_search(self):
        # no answer here reads a morphism matrix.  On 1 -> 2 the first pair
        # has dim Hom 11 against End dimensions 10 and 13; the second is not
        # generated.  P1^k + S2^k generates S2^2k and is as large at every
        # vertex, yet P1 maps to S2 by zero, so every morphism has rank at
        # most k at vertex 2: a dense grid over dim Hom 2k^2 would have
        # 5**18 points at k = 3
        q = linear_quiver(2)
        p1, s1, s2 = projective_rep(q, 1), simple_rep(q, 1), simple_rep(q, 2)
        x = direct_sum([p1, p1, s2, s1])
        y = direct_sum([p1, s2, s2, s1, s1])
        simples = direct_sum([s1] * 6 + [s2] * 6)
        tops = direct_sum([p1] * 3 + [s2] * 3)
        socles = direct_sum([s2] * 6)
        with mock.patch.object(rep, "hom_basis", side_effect=AssertionError):
            start = time.perf_counter()
            assert not is_isomorphic(x, y)
            assert not exists_surjection(simples, p1)
            assert not exists_surjection(tops, socles)
            assert time.perf_counter() - start < 1
        assert (hom_dim(x, y), hom_dim(x, x), hom_dim(y, y)) == (11, 10, 13)
        assert not gen_contains(simples, p1)
        assert gen_contains(tops, socles) and hom_dim(tops, socles) == 18

    def test_enumerate_indecomposables_counts(self):
        # number of positive roots: n(n+1)/2 for A_n, 12 for D4
        assert len(enumerate_indecomposables(A3)) == 6
        assert len(enumerate_indecomposables(D4)) == 12
        assert len(enumerate_indecomposables(linear_quiver(4))) == 10

    def test_isomorphism_detects_base_change(self):
        m = projective_rep(A3, 1)
        twisted = m.__class__(
            A3,
            m.dims,
            (m.arrow_maps[0].scale(3), m.arrow_maps[1].scale(Fraction(1, 2))),
        )
        assert is_isomorphic(m, twisted)
        assert not is_isomorphic(m, simple_rep(A3, 1))
