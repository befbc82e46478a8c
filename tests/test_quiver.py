import json
import random
import time
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qtors import (
    Quiver,
    QuiverClass,
    QuiverError,
    QuiverSyntaxError,
    classify,
    classify_by_shape,
    find_witness_subquiver,
    full_subquiver,
    opposite,
    parse_quiver,
    theorem_main_decision,
    tits_form,
    tits_matrix,
    triple_quiver,
)
from qtors import cli, quiver
from qtors.cli import main

from conftest import linear_quiver, star_quiver


class TestConstruction:
    def test_rejects_loops_cycles_and_bad_arrows(self):
        with pytest.raises(QuiverError):
            Quiver(2, ((1, 1),))
        with pytest.raises(QuiverError):
            Quiver(2, ((1, 2), (2, 1)))
        with pytest.raises(QuiverError):
            Quiver(2, ((1, 3),))
        with pytest.raises(QuiverError):
            Quiver(0, ())

    def test_topological_order_sources_first(self):
        q = Quiver(3, ((2, 1), (3, 1)))
        order = q.topological_order()
        assert order is not None
        assert order.index(2) < order.index(1)
        assert order.index(3) < order.index(1)

    def test_sinks_sources_connectivity(self):
        q = linear_quiver(3)
        assert q.is_source(1) and q.is_sink(3)
        assert not q.is_sink(1)
        assert q.is_connected()
        assert not Quiver(3, ((1, 2),)).is_connected()


class TestDsl:
    def test_roundtrip(self):
        q = Quiver(3, ((1, 2), (1, 2), (2, 3)))
        assert parse_quiver(q.to_dsl()) == q

    def test_comments_and_multiplicity(self):
        q = parse_quiver("# a comment\nvertices 2\narrow 1 2 *3\n")
        assert q == Quiver(2, ((1, 2),) * 3)

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "arrow 1 2",
            "vertices x",
            "vertices 2\narrow 1 2 *0",
            "vertices 2\narrow 1 3",
            "vertices 2\narrow 1 1",
            "vertices 2\nedge 1 2",
        ],
    )
    def test_syntax_errors(self, text):
        with pytest.raises(QuiverSyntaxError):
            parse_quiver(text)


DYNKIN = [
    (Quiver(1, ()), "A1"),
    (linear_quiver(4), "A4"),
    (Quiver(3, ((2, 1), (2, 3))), "A3"),
    (star_quiver(3), "D4"),
    (Quiver(6, ((1, 2), (2, 3), (3, 4), (4, 5), (6, 3))), "E6"),
]

EXTENDED = [
    Quiver(2, ((1, 2), (1, 2))),  # Kronecker
    Quiver(3, ((1, 2), (2, 3), (1, 3))),  # acyclic 3-cycle
    Quiver(4, ((1, 2), (2, 3), (3, 4), (1, 4))),  # acyclic 4-cycle
    star_quiver(4),  # 4-leaf star
]

WILD = [
    Quiver(2, ((1, 2),) * 3),
    triple_quiver(2, 1, 0),
    Quiver(3, ((1, 2), (1, 3), (1, 3))),
    Quiver(4, ((1, 2), (1, 3), (1, 4), (1, 4), (1, 4))),
]


class TestClassification:
    @pytest.mark.parametrize("q,label", DYNKIN)
    def test_dynkin(self, q, label):
        cls = classify(q)
        assert cls.tag == "Dynkin"
        assert cls.type_name == label

    @pytest.mark.parametrize("q", EXTENDED)
    def test_extended_dynkin(self, q):
        assert classify(q).tag == "ExtendedDynkin"

    @pytest.mark.parametrize("q", WILD)
    def test_wild(self, q):
        assert classify(q).tag == "Wild"

    @pytest.mark.parametrize("q", [q for q, _ in DYNKIN] + EXTENDED + WILD)
    def test_shape_and_form_agree(self, q):
        assert classify_by_shape(q).tag == classify(q).tag

    @pytest.mark.parametrize("q", [q for q, _ in DYNKIN] + EXTENDED + WILD)
    def test_orientation_independent(self, q):
        assert classify(opposite(q)).tag == classify(q).tag


class TestTitsForm:
    def test_matrix_matches_form(self):
        for q in [linear_quiver(3), star_quiver(3), triple_quiver(2, 1, 1)]:
            b = tits_matrix(q)
            for x in [[1] * q.n, list(range(1, q.n + 1)), [0, 1] * q.n][:3]:
                x = x[: q.n]
                quad = sum(
                    b[i, j] * x[i] * x[j] for i in range(q.n) for j in range(q.n)
                )
                assert quad == 2 * tits_form(q, x)

    def test_dynkin_form_positive_on_roots(self):
        q = linear_quiver(3)
        assert tits_form(q, [1, 1, 1]) == 1
        assert tits_form(q, [0, 1, 0]) == 1

    def test_extended_null_vector(self):
        q = Quiver(2, ((1, 2), (1, 2)))
        assert tits_form(q, [1, 1]) == 0


class TestSubquiversAndDecision:
    def test_full_subquiver_relabels(self):
        q = Quiver(4, ((1, 2), (2, 3), (3, 4)))
        sub, vmap = full_subquiver(q, {2, 3})
        assert sub.n == 2
        assert sub.arrows == ((vmap[2], vmap[3]),)

    def test_witness_none_for_dynkin(self):
        assert find_witness_subquiver(linear_quiver(4)) is None
        assert find_witness_subquiver(Quiver(2, ((1, 2),) * 5)) is None

    def test_witness_is_minimal_non_dynkin(self):
        q = Quiver(4, ((1, 2), (2, 3), (1, 3), (3, 4)))
        vs, cls = find_witness_subquiver(q)
        assert vs == frozenset({1, 2, 3})
        assert cls.tag == "ExtendedDynkin"

    def test_decision_positive(self):
        for q, _ in DYNKIN:
            verdict, cert = theorem_main_decision(q)
            assert verdict and cert["reason"] == "Dynkin"
        verdict, cert = theorem_main_decision(Quiver(2, ((1, 2),) * 4))
        assert verdict and cert["reason"] == "at most 2 vertices"

    def test_decision_negative_with_witness(self):
        verdict, cert = theorem_main_decision(triple_quiver(2, 1, 0))
        assert not verdict
        assert cert["reason"] == "witness subquiver"
        sub, _ = full_subquiver(triple_quiver(2, 1, 0), set(cert["vertices"]))
        assert classify(sub).tag in ("ExtendedDynkin", "Wild")

    def test_decision_requires_connected(self):
        with pytest.raises(QuiverError):
            theorem_main_decision(Quiver(3, ((1, 2),)))


def _exhaustive_witness(q):
    """Reference: every vertex subset by size, then lexicographically,
    skipping the disconnected ones."""
    if q.n <= 2 or classify(q).tag == "Dynkin":
        return None
    for size in range(3, q.n + 1):
        for vs in combinations(range(1, q.n + 1), size):
            sub, _ = full_subquiver(q, set(vs))
            if not sub.is_connected():
                continue
            cls = classify(sub)
            if cls.tag == "ExtendedDynkin" or (cls.tag == "Wild" and size == 3):
                return frozenset(vs), cls
    raise AssertionError("no witness for a non-Dynkin quiver")


def _from_edges(n, edges, label=None):
    """Quiver with each undirected edge (a, b) pointing from its smaller end
    to its larger one, after relabelling vertex v as label[v - 1]."""
    label = label or list(range(1, n + 1))
    return Quiver(n, tuple((label[a - 1], label[b - 1]) for a, b in edges))


def _cycle(n):
    return _from_edges(n, [(i, i + 1) for i in range(1, n)] + [(1, n)])


def _star_of_paths(branches):
    """Tree with one centre (vertex 1) and paths of the given lengths."""
    edges, n = [], 1
    for length in branches:
        prev = 1
        for _ in range(length):
            n += 1
            edges.append((prev, n))
            prev = n
    return _from_edges(n, edges)


def _affine_d(n):
    """D~_n on n + 1 vertices: the path 1..n-3 with leaves n-2 and n-1 at
    vertex 1 and leaves n and n+1 at vertex n-3."""
    edges = [(i, i + 1) for i in range(1, n - 3)]
    edges += [(1, n - 2), (1, n - 1), (n - 3, n), (n - 3, n + 1)]
    return _from_edges(n + 1, edges)


def _seeded(q, seed):
    """q with its vertices relabelled and each arrow turned round with
    probability 1/2, by a seeded draw; a draw that makes an oriented cycle
    is drawn again."""
    rng = random.Random(seed)
    label = list(range(1, q.n + 1))
    rng.shuffle(label)
    while True:
        arrows = [
            (label[s - 1], label[t - 1]) if rng.random() < 0.5 else (label[t - 1], label[s - 1])
            for s, t in q.arrows
        ]
        try:
            return Quiver(q.n, tuple(arrows))
        except QuiverError:
            continue


# the extended Dynkin quivers with at least 3 vertices, as (id, quiver)
AFFINE = (
    [(f"A~{n - 1}", _cycle(n)) for n in range(3, 25)]
    + [(f"D~{n}", _affine_d(n)) for n in range(4, 24)]
    + [("E~6", _star_of_paths([2, 2, 2])), ("E~7", _star_of_paths([1, 3, 3])),
       ("E~8", _star_of_paths([1, 2, 5]))]
)


@st.composite
def connected_quivers(draw, min_vertices=1, max_vertices=10):
    """A random connected acyclic quiver on min_vertices to max_vertices
    vertices: a random spanning tree plus a few chords, edge multiplicities
    up to 3, arrows oriented along a random vertex order.  Half the tree
    vertices hang off the previous one and half the quivers are trees, so
    long paths, and with them large witnesses, are common."""
    n = draw(st.integers(min_vertices, max_vertices))
    label = draw(st.permutations(range(1, n + 1)))
    edges = [
        (v - 1 if draw(st.booleans()) else draw(st.integers(1, v - 1)), v)
        for v in range(2, n + 1)
    ]
    pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
    if pairs and draw(st.booleans()):
        edges += draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=2))
    arrows = []
    for a, b in edges:
        mult = draw(st.sampled_from([1] * 20 + [2, 3]))
        s, t = sorted((label[a - 1], label[b - 1]))
        arrows += [(s, t)] * mult
    return Quiver(n, tuple(arrows))


class TestWitnessSearch:
    @settings(max_examples=400, deadline=None)
    @given(connected_quivers())
    def test_matches_exhaustive_search(self, q):
        assert find_witness_subquiver(q) == _exhaustive_witness(q)

    @pytest.mark.parametrize(
        "q, vertices, type_name",
        [
            # cycles with a chord: the shorter cycle, or on a tie the
            # lexicographically first one
            (_from_edges(8, [(i, i + 1) for i in range(1, 8)] + [(1, 8), (1, 5)]),
             {1, 2, 3, 4, 5}, "A~4"),
            (_from_edges(9, [(i, i + 1) for i in range(1, 9)] + [(1, 9), (3, 6)]),
             {3, 4, 5, 6}, "A~3"),
            (_from_edges(7, [(i, i + 1) for i in range(1, 7)] + [(1, 7), (2, 7)]),
             {1, 2, 7}, "A~2"),
            (_star_of_paths([2, 2, 2]), set(range(1, 8)), "E~6"),
            (_star_of_paths([1, 3, 3]), set(range(1, 9)), "E~7"),
            (_star_of_paths([1, 2, 5]), set(range(1, 10)), "E~8"),
            (_affine_d(9), set(range(1, 11)), "D~9"),
            # a long path ending in a double arrow: the double arrow and
            # its neighbour form a wild 3-vertex subquiver
            (_from_edges(9, [(i, i + 1) for i in range(1, 9)] + [(8, 9)]),
             {7, 8, 9}, None),
            # two 4-cycles, {2, 5, 7, 9} and {1, 3, 8, 10}, joined by the
            # edge 9-10: lexicographic order picks the second
            (_from_edges(10, [(2, 5), (5, 7), (7, 9), (2, 9), (1, 3), (3, 8),
                              (8, 10), (1, 10), (9, 10), (4, 6), (4, 5), (6, 8)]),
             {1, 3, 8, 10}, "A~3"),
        ],
        ids=["chord-tie", "chord-short", "chord-triangle", "E~6", "E~7", "E~8",
             "D~9-long-middle", "path-double-end", "two-4-cycles"],
    )
    def test_explicit_cases(self, q, vertices, type_name):
        witness = find_witness_subquiver(q)
        assert witness == _exhaustive_witness(q)
        vs, cls = witness
        assert vs == frozenset(vertices)
        assert cls.type_name == type_name

    def test_builds_polynomially_many_subquivers(self, monkeypatch):
        calls = 0
        real = quiver.full_subquiver

        def counting(q, vs):
            nonlocal calls
            calls += 1
            return real(q, vs)

        monkeypatch.setattr(quiver, "full_subquiver", counting)
        n = 14
        vs, cls = find_witness_subquiver(_cycle(n))
        assert vs == frozenset(range(1, n + 1)) and cls.tag == "ExtendedDynkin"
        # the n-cycle has n connected sets of each size below n; a scan of
        # all subsets builds about 2^n subquivers
        assert calls <= n * n

    def test_wild_search_builds_polynomially_many_subquivers(self, monkeypatch):
        calls = 0
        real = quiver.full_subquiver

        def counting(q, vs):
            nonlocal calls
            calls += 1
            return real(q, vs)

        monkeypatch.setattr(quiver, "full_subquiver", counting)
        # a 40-cycle with a pendant at vertex 1: wild, and its smallest
        # witness is the E~7 of the pendant and three cycle vertices on
        # each side of vertex 1
        n = 40
        q = _from_edges(n + 1, [(i, i + 1) for i in range(1, n)] + [(1, n), (1, n + 1)])
        vs, cls = find_witness_subquiver(q)
        assert vs == frozenset({1, 2, 3, 4, n - 2, n - 1, n, n + 1})
        assert cls == QuiverClass("ExtendedDynkin", "E~7")
        # each of the six levels 3 to 8 holds the n arcs of the cycle and
        # at most 7 arcs through vertex 1 with the pendant added; a scan of
        # all subsets would build about binom(41, 8) = 95 million
        assert calls <= 6 * (n + 7)

    @pytest.mark.parametrize(
        "q", [_cycle(24), _affine_d(23)], ids=["cycle-24", "D~23"]
    )
    def test_check_lattice_on_large_affine_quivers(self, capsys, tmp_path, q):
        f = tmp_path / "q.quiver"
        f.write_text(q.to_dsl())
        started = time.perf_counter()
        code = main(["check-lattice", str(f)])
        elapsed = time.perf_counter() - started
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["theorem_decision"] is False
        assert data["certificate"]["vertices"] == list(range(1, q.n + 1))
        assert data["certificate"]["class"]["tag"] == "ExtendedDynkin"
        assert elapsed < 10, f"check-lattice took {elapsed:.1f}s of 10s"

    def test_check_lattice_on_seeded_40_cycle(self, capsys, tmp_path):
        # an extended Dynkin quiver is its own smallest witness, so one
        # exact definiteness test of the 40 x 40 Tits matrix decides; the
        # level search classified about 1500 connected sets here
        n = 40
        label = list(range(1, n + 1))
        random.Random(40).shuffle(label)
        q = _from_edges(n, [(i, i + 1) for i in range(1, n)] + [(1, n)], label)
        f = tmp_path / "q.quiver"
        f.write_text(q.to_dsl())
        started = time.perf_counter()
        code = main(["check-lattice", str(f)])
        elapsed = time.perf_counter() - started
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["theorem_decision"] is False
        assert data["certificate"]["vertices"] == list(range(1, n + 1))
        assert data["certificate"]["class"] == {"tag": "ExtendedDynkin", "type": "A~39"}
        assert elapsed < 4, f"check-lattice took {elapsed:.1f}s of 4s"


class TestAffineWitness:
    """On a connected extended Dynkin quiver with at least 3 vertices, every
    proper full subquiver is Dynkin, so the whole quiver is the witness and
    no search runs."""

    @pytest.mark.parametrize("q", [q for _, q in AFFINE], ids=[name for name, _ in AFFINE])
    def test_whole_quiver_is_the_smallest_witness(self, q):
        for seed in range(3):
            r = _seeded(q, seed)
            witness = find_witness_subquiver(r)
            assert witness == quiver._smallest_witness(r)
            if r.n <= 12:
                assert witness == _exhaustive_witness(r)
            assert witness[0] == frozenset(range(1, r.n + 1))
            verdict, cert = theorem_main_decision(r)
            assert not verdict and cert["vertices"] == list(range(1, r.n + 1))

    @pytest.mark.parametrize("mult", [2, 3])
    def test_kronecker_quivers_have_at_most_2_vertices(self, mult):
        q = Quiver(2, ((1, 2),) * mult)
        assert find_witness_subquiver(q) is None
        verdict, cert = theorem_main_decision(q)
        assert verdict and cert == {"reason": "at most 2 vertices", "vertices": 2}

    @pytest.mark.parametrize(
        "q", [_seeded(_cycle(24), 1), _seeded(_affine_d(23), 1)], ids=["cycle-24", "D~23"]
    )
    def test_check_lattice_classifies_once_and_builds_no_subquiver(
        self, capsys, tmp_path, monkeypatch, q
    ):
        calls = {"classify": 0, "full_subquiver": 0}

        def counting(name, real):
            def wrapped(*args):
                calls[name] += 1
                return real(*args)

            return wrapped

        monkeypatch.setattr(cli, "classify", counting("classify", quiver.classify))
        monkeypatch.setattr(quiver, "classify", counting("classify", quiver.classify))
        monkeypatch.setattr(
            quiver, "full_subquiver", counting("full_subquiver", quiver.full_subquiver)
        )
        f = tmp_path / "q.quiver"
        f.write_text(q.to_dsl())
        assert main(["check-lattice", str(f)]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["certificate"]["vertices"] == list(range(1, q.n + 1))
        assert calls == {"classify": 1, "full_subquiver": 0}

    def test_check_lattice_on_200_cycle(self, capsys, tmp_path):
        n = 200
        q = _seeded(_cycle(n), 200)
        f = tmp_path / "q.quiver"
        f.write_text(q.to_dsl())
        started = time.perf_counter()
        code = main(["check-lattice", str(f)])
        elapsed = time.perf_counter() - started
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["theorem_decision"] is False
        assert data["certificate"]["vertices"] == list(range(1, n + 1))
        assert data["certificate"]["class"] == {"tag": "ExtendedDynkin", "type": "A~199"}
        assert elapsed < 1, f"check-lattice took {elapsed:.2f}s of 1s"


class TestWildWitness:
    @settings(max_examples=300, deadline=None)
    @given(connected_quivers(min_vertices=3, max_vertices=20))
    def test_wild_quivers_have_a_witness_of_at_most_9_vertices(self, q):
        # a multiple edge or a vertex with 4 neighbours gives a witness of
        # at most 5 vertices; a shortest cycle of 8 or more vertices, with
        # one more neighbour, holds an E~7; a tree holds a D~4, E~6, E~7
        # or E~8
        assume(classify(q).tag == "Wild")
        vs, cls = find_witness_subquiver(q)
        assert len(vs) <= 9
        sub, _ = full_subquiver(q, set(vs))
        assert sub.is_connected() and classify(sub) == cls
        assert cls.tag == "ExtendedDynkin" or (cls.tag == "Wild" and len(vs) == 3)
