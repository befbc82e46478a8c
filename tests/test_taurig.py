import json
from itertools import combinations

import pytest

from qtors import (
    Quiver,
    ar_translate,
    catalog,
    enumerate_stt,
    enumerate_stt_exhaustive,
    enumerate_stt_mutation,
    fac_class,
    gen_contains,
    hom_dim,
    is_compatible,
    mutations,
    pair_module,
    projective_rep,
    stt_pairs_to_json,
    surjection_table,
    tc_join,
    tc_left_perp,
    tc_meet,
    tc_perp,
    tits_form,
    torsion_axiom_spotcheck,
    triple_quiver,
)
from qtors import taurig
from qtors.quiver import QuiverError

from conftest import linear_quiver, star_quiver

A2 = linear_quiver(2)
A3 = linear_quiver(3)
A5_ZIGZAG = Quiver(5, ((1, 2), (3, 2), (3, 4), (5, 4)))

# quivers on which the table-driven engine is held to the slow oracles below
DIFFERENTIAL = [
    pytest.param(A3, id="A3"),
    pytest.param(Quiver(3, ((1, 2), (3, 2))), id="A3-sink"),
    pytest.param(linear_quiver(4), id="A4"),
    pytest.param(star_quiver(3), id="D4"),
    pytest.param(A5_ZIGZAG, id="A5-zigzag"),
]


def gen_fac_class(q, p):
    """Oracle: Fac(M) by testing Gen-membership of every catalog member."""
    cat = catalog(q)
    m = pair_module(cat, p)
    if m is None:
        return frozenset()
    return frozenset(i for i in range(cat.size()) if gen_contains(m, cat.modules[i]))


def combination_cliques(q):
    """Oracle: every n-subset of summands whose members are pairwise
    compatible."""
    cat = catalog(q)
    return {
        frozenset(c)
        for c in combinations(cat.summands(), q.n)
        if all(is_compatible(cat, u, v) for u, v in combinations(c, 2))
    }


def scanned_mutations(q, p):
    """Oracle: each exchange partner found by scanning every summand."""
    cat = catalog(q)
    out = []
    for u in sorted(p):
        rest = p - {u}
        partners = [
            w
            for w in cat.summands()
            if w not in p and all(is_compatible(cat, w, r) for r in rest)
        ]
        out.append([rest | {w} for w in partners])
    return out


def test_catalog_requires_dynkin():
    with pytest.raises(QuiverError):
        catalog(triple_quiver(2, 1, 0))


def test_catalog_summands_all_tau_rigid():
    cat = catalog(A3)
    assert cat.size() == 6
    # every A3 indecomposable is tau-rigid, plus three shifted projectives
    summands = cat.summands()
    assert len(summands) == 9
    assert sum(1 for k, _ in summands if k == "proj") == 3


def test_compatibility_examples():
    cat = catalog(A2)
    p1 = cat.index_of_dims((1, 1))
    s1 = cat.index_of_dims((1, 0))
    s2 = cat.index_of_dims((0, 1))
    assert is_compatible(cat, ("mod", p1), ("mod", s1))
    # tau(S2) = S1 for 1 -> 2, so S1 + S2 is not tau-rigid
    assert not is_compatible(cat, ("mod", s2), ("mod", s1))
    # a shifted projective at v excludes modules supported at v
    assert not is_compatible(cat, ("proj", 1), ("mod", p1))
    assert is_compatible(cat, ("proj", 1), ("mod", s2))
    assert is_compatible(cat, ("proj", 1), ("proj", 2))


def test_counts_and_strategy_agreement():
    assert len(enumerate_stt(Quiver(1, ()))) == 2
    assert len(enumerate_stt(A2)) == 5
    pairs = enumerate_stt(A3)
    assert len(pairs) == 14
    assert enumerate_stt_exhaustive(A3) == enumerate_stt_mutation(A3)


def test_every_pair_has_n_mutations():
    for p in enumerate_stt(A3):
        neighbors = mutations(A3, p)
        assert len(neighbors) == 3
        all_pairs = set(enumerate_stt(A3))
        for m in neighbors:
            assert m in all_pairs
            assert len(m & p) == 2


def test_strategy_disagreement_raises(monkeypatch):
    # a real exception, so the check also holds under python -O; the
    # catalog's record checks the walk against the search once, when built
    monkeypatch.setattr(taurig, "enumerate_stt_exhaustive", lambda q: set())
    taurig.catalog.cache_clear()
    with pytest.raises(RuntimeError, match="strategies disagree"):
        enumerate_stt(A2)
    taurig.catalog.cache_clear()


def d_quiver(n):
    """D_n: the path 1 -> ... -> n-2 with two arrows n-2 -> n-1, n-2 -> n."""
    return Quiver(n, tuple((i, i + 1) for i in range(1, n - 2)) + ((n - 2, n - 1), (n - 2, n)))


def e_quiver(n):
    """E_n: the path 1 -> ... -> n-1 with one more arrow 3 -> n."""
    return Quiver(n, tuple((i, i + 1) for i in range(1, n - 1)) + ((3, n),))


@pytest.mark.parametrize(
    "q, count",
    [pytest.param(linear_quiver(n), n * (n + 1) // 2, id=f"A{n}") for n in range(1, 8)]
    + [pytest.param(A5_ZIGZAG, 15, id="A5-zigzag")]
    + [pytest.param(d_quiver(n), n * (n - 1), id=f"D{n}") for n in range(4, 8)]
    + [pytest.param(star_quiver(3), 12, id="D4-star")]
    + [pytest.param(e_quiver(n), c, id=f"E{n}") for n, c in ((6, 36), (7, 63), (8, 120))],
)
def test_catalog_roots_are_the_positive_roots(q, count):
    roots = catalog(q).roots
    assert len(set(roots)) == len(roots) == count
    assert all(min(r) >= 0 and tits_form(q, list(r)) == 1 for r in roots)
    assert roots == sorted(roots, key=lambda d: (sum(d), d))


@pytest.mark.parametrize(
    "q",
    [
        A3,
        Quiver(3, ((1, 2), (3, 2))),
        star_quiver(3),
        A5_ZIGZAG,
        d_quiver(5),
        e_quiver(6),
        Quiver(6, ((2, 1), (2, 3), (4, 3), (4, 5), (6, 3))),
    ],
    ids=["A3", "A3-sink", "D4", "A5-zigzag", "D5", "E6", "E6-alternating"],
)
def test_catalog_tables_match_fresh_hom(q):
    cat = catalog(q)
    mods = cat.modules
    taus = [ar_translate(m) for m in mods]
    projs = [projective_rep(q, v) for v in range(1, q.n + 1)]
    hom = [[hom_dim(x, y) for y in mods] for x in mods]
    tau_hom = [[hom_dim(x, t) for t in taus] for x in mods]
    proj_hom = [[hom_dim(p, y) for y in mods] for p in projs]
    assert cat.hom_table == hom
    assert cat.tau_hom_table == tau_hom
    assert cat.proj_hom_table == proj_hom
    rigid = [("mod", i) for i in range(len(mods)) if tau_hom[i][i] == 0]
    summands = rigid + [("proj", v) for v in range(1, q.n + 1)]
    assert cat.summands() == summands

    def compatible(u, v):
        if u[0] == v[0] == "proj":
            return True
        if u[0] == "proj":
            u, v = v, u
        if v[0] == "proj":
            return proj_hom[v[1] - 1][u[1]] == 0
        i, j = u[1], v[1]
        return tau_hom[i][j] == 0 and tau_hom[j][i] == 0

    for u in summands:
        for v in summands:
            assert is_compatible(cat, u, v) == compatible(u, v), (u, v)
    n = len(mods)
    for i in range(n):
        zero_from = frozenset(j for j in range(n) if hom[i][j] == 0)
        zero_into = frozenset(j for j in range(n) if hom[j][i] == 0)
        assert tc_perp(q, frozenset({i})) == zero_from
        assert tc_left_perp(q, frozenset({i})) == zero_into


@pytest.mark.parametrize("q", DIFFERENTIAL)
def test_fac_class_tables_match_gen_contains(q):
    for p in enumerate_stt(q):
        assert fac_class(q, p) == gen_fac_class(q, p), sorted(p)


@pytest.mark.parametrize("q", DIFFERENTIAL)
def test_clique_search_and_mutations_match_oracles(q):
    pairs = enumerate_stt_exhaustive(q)
    assert pairs == combination_cliques(q)
    for p in pairs:
        assert [[m] for m in mutations(q, p)] == scanned_mutations(q, p)


def test_pair_module_and_fac_class_generation():
    cat = catalog(A2)
    pairs = enumerate_stt(A2)
    all_shifted = frozenset({("proj", 1), ("proj", 2)})
    assert all_shifted in pairs
    assert pair_module(cat, all_shifted) is None
    assert fac_class(A2, all_shifted) == frozenset()
    for p in pairs:
        m = pair_module(cat, p)
        t = fac_class(A2, p)
        for i in t:
            assert gen_contains(m, cat.modules[i])


def test_distinct_pairs_give_distinct_classes():
    pairs = enumerate_stt(A3)
    classes = {fac_class(A3, p) for p in pairs}
    assert len(classes) == len(pairs)


def test_perp_galois_connection():
    for p in enumerate_stt(A3):
        t = fac_class(A3, p)
        assert tc_left_perp(A3, tc_perp(A3, t)) == t


def test_meet_join_bounds():
    pairs = enumerate_stt(A2)
    classes = sorted({fac_class(A2, p) for p in pairs}, key=sorted)
    for a in classes:
        for b in classes:
            m = tc_meet(A2, [a, b])
            j = tc_join(A2, [a, b])
            assert m <= a and m <= b
            assert a <= j and b <= j


def test_spotcheck_clean_on_a2():
    table = surjection_table(A2)
    cat = catalog(A2)
    for p in enumerate_stt(A2):
        t = fac_class(A2, p)
        report = torsion_axiom_spotcheck(A2, t, pair_module(cat, p), table)
        assert report.ok()


def test_spotcheck_flags_non_torsion_set():
    # {P1} alone is not quotient-closed for 1 -> 2: P1 surjects onto S1
    cat = catalog(A2)
    p1 = cat.index_of_dims((1, 1))
    report = torsion_axiom_spotcheck(A2, frozenset({p1}), cat.modules[p1])
    assert report.quotient_violations


def test_json_export_deterministic():
    pairs = enumerate_stt(A2)
    text = stt_pairs_to_json(A2, pairs)
    assert text == stt_pairs_to_json(A2, pairs)
    data = json.loads(text)
    assert data["count"] == 5
    assert len(data["pairs"]) == 5
