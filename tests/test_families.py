import gc
import weakref

import pytest

from qtors import (
    build_wild_witness,
    case_quiver,
    detect_case,
    gen_contains,
    hom_dim,
    kronecker_chain_check,
    kronecker_quiver,
    kronecker_window,
    nonff_evidence,
    triple_quiver,
    uniserial_tower,
    verify_witness,
)
from qtors.quiver import QuiverError, classify

CASES = ["i", "ii", "iii", "iv", "v", "vi"]


class TestKronecker:
    def test_window_is_freed_with_its_caches(self):
        # derived data lives on the representations and holds no reference
        # cycle, so reference counting alone frees a checked window
        gc.disable()
        try:
            w = kronecker_window(3, 4)
            assert kronecker_chain_check(w).ok()
            refs = [weakref.ref(m) for m in w.preprojectives + w.preinjectives]
            cached = any("_pair_data" in vars(r()) for r in refs)
            del w
            alive = [r for r in refs if r() is not None]
        finally:
            gc.enable()
        assert not alive
        assert cached

    def test_quiver_shape(self):
        q = kronecker_quiver(3)
        assert q.n == 2 and q.arrows == ((1, 2),) * 3

    def test_window_validation(self):
        with pytest.raises(ValueError):
            kronecker_window(1, 4)
        with pytest.raises(ValueError):
            kronecker_window(2, 1)

    def test_window_dims_n2(self):
        w = kronecker_window(2, 5)
        assert [m.dims for m in w.preprojectives] == [
            (0, 1),
            (1, 2),
            (2, 3),
            (3, 4),
            (4, 5),
        ]
        assert [m.dims for m in w.preinjectives] == [
            (1, 0),
            (2, 1),
            (3, 2),
            (4, 3),
            (5, 4),
        ]

    @pytest.mark.parametrize("n, depth", [(2, 4), (3, 4)])
    def test_coxeter_preinjectives_are_the_exact_mirror(self, n, depth):
        # the source reflections behind tau^-1 are the duals of the sink
        # reflections behind tau, so iterating tau on S1 and I2 gives the
        # mirrored preprojectives matrix for matrix
        from qtors import ar_translate, injective_rep, simple_rep
        from qtors.families import _kronecker_mirror

        w = kronecker_window(n, depth)
        q = w.quiver
        b = [simple_rep(q, 1), injective_rep(q, 2)]
        while len(b) < depth:
            b.append(ar_translate(b[-2]))
        assert b == [_kronecker_mirror(x, q) for x in w.preprojectives]

    def test_chain_check_n2(self):
        report = kronecker_chain_check(kronecker_window(2, 4))
        assert report.ok(), report.failures
        assert report.all_bricks
        assert report.consecutive_pairs_rigid
        assert report.chain_inclusions_hold
        assert report.top_class_is_everything
        assert report.bottom_generates_only_itself

    def test_chain_strictness_direction(self):
        # later window classes do not generate earlier ones
        w = kronecker_window(2, 4)
        a = w.preprojectives
        assert not gen_contains(a[2], a[1])
        assert not gen_contains(a[3], a[2])


class TestWitnessCases:
    def test_case_quiver_and_detect_roundtrip(self):
        # several (case, parameters) readings can describe one quiver;
        # detect_case picks the earliest, and that reading must rebuild
        # the same quiver
        for case in CASES:
            q = case_quiver(case, 3, 2, 1)
            got_case, abc = detect_case(q)
            assert case_quiver(got_case, *abc) == q
        assert detect_case(case_quiver("i", 3, 2, 1)) == ("i", (3, 2, 1))

    def test_build_requires_wild(self):
        with pytest.raises(QuiverError):
            build_wild_witness(triple_quiver(1, 1, 0))  # Dynkin A3 layout

    def test_case_i_witness_shape(self):
        w = build_wild_witness(triple_quiver(2, 1, 0))
        assert w.case == "i" and w.abc == (2, 1, 0)
        assert w.m.dims == (1, 2, 0)
        assert w.n.dims == (3, 2, 2)
        report = verify_witness(w)
        assert report.ok(), report.failures
        assert report.closed_form is not None and report.closed_form < 0

    @pytest.mark.parametrize("case", CASES)
    def test_all_cases_verify_for_one_triple(self, case):
        q = case_quiver(case, 2, 1, 1)
        assert classify(q).tag == "Wild"
        w = build_wild_witness(q)
        assert w.quiver == q
        report = verify_witness(w)
        assert report.ok(), (case, report.failures)


class TestTower:
    def test_tower_dims_and_tops(self):
        w = build_wild_witness(triple_quiver(2, 1, 0))
        tower = uniserial_tower(w, 4)
        assert [lvl.top for lvl in tower] == ["M", "N", "M", "N"]
        assert [lvl.rep.dims for lvl in tower] == [
            (1, 2, 0),
            (4, 4, 2),
            (5, 6, 2),
            (8, 8, 4),
        ]
        assert not any(lvl.split for lvl in tower)
        # each level surjects onto its top via the recorded map
        for lvl, top in zip(tower, [w.m, w.n, w.m, w.n]):
            for v in range(3):
                assert lvl.top_map[v].rank() == top.dims[v]

    def test_tower_validation(self):
        w = build_wild_witness(triple_quiver(2, 1, 0))
        with pytest.raises(ValueError):
            uniserial_tower(w, 0)

    def test_ext_builds_no_presentation(self, monkeypatch):
        # Ext and its middle terms come from the intertwining matrix alone
        from qtors import catalog, enumerate_stt, fac_class, pair_module, rep, taurig
        from qtors import torsion_axiom_spotcheck

        from conftest import linear_quiver

        def refuse(*args):
            raise RuntimeError("projective presentation built")

        monkeypatch.setattr(rep, "projective_presentation", refuse)
        w = build_wild_witness(triple_quiver(2, 1, 0))
        assert len(uniserial_tower(w, 4)) == 4
        a3 = linear_quiver(3)
        taurig.catalog.cache_clear()
        cat = catalog(a3)
        for p in enumerate_stt(a3):
            report = torsion_axiom_spotcheck(a3, fac_class(a3, p), pair_module(cat, p))
            assert report.ok()

    def test_nonff_evidence_all_false(self):
        w = build_wild_witness(triple_quiver(2, 1, 0))
        evidence = nonff_evidence(w, 4)
        assert evidence.gen_results == [False, False, False]
        assert evidence.ok()
        # yet each level maps nontrivially to the next: Hom never vanishes
        assert all(h >= 1 for h in evidence.hom_dims)
        assert len(evidence.hom_dims) == 3


def _change_basis(x):
    """x transported along the basis change 2I + N (N the ones just above
    the diagonal) at every vertex: isomorphic, with other matrices."""
    from qtors import Matrix, Rep

    g = [
        Matrix(d, d, [[2 if j == i else int(j == i + 1) for j in range(d)] for i in range(d)])
        for d in x.dims
    ]
    maps = tuple(
        g[t - 1] * m * g[s - 1].inverse()
        for (s, t), m in zip(x.quiver.arrows, x.arrow_maps)
    )
    return Rep(x.quiver, x.dims, maps)


def test_chain_check_on_hand_built_window():
    # a window whose preinjective side comes from Coxeter iteration followed
    # by a change of basis instead of the duality mirror: the same series up
    # to isomorphism, not matrix for matrix, so the check must compute both
    # sides directly and still pass
    from qtors import ar_translate, injective_rep, simple_rep
    from qtors.families import KroneckerWindow, _kronecker_mirror

    w = kronecker_window(2, 4)
    q = w.quiver
    b = [simple_rep(q, 1), injective_rep(q, 2)]
    while len(b) < 4:
        b.append(ar_translate(b[-2]))
    b = [_change_basis(y) for y in b]
    assert any(
        _kronecker_mirror(x, q) != y for x, y in zip(w.preprojectives, b)
    )
    hand = KroneckerWindow(2, 4, q, w.preprojectives, b)
    report = kronecker_chain_check(hand)
    assert report.ok()
    assert report.dims_preinjective == [(1, 0), (2, 1), (3, 2), (4, 3)]
