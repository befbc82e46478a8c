import json
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtors import (
    FinitePoset,
    PosetError,
    Quiver,
    build_poset,
    catalog,
    enumerate_stt_exhaustive,
    fac_class,
    poset_from_json,
    torsion_poset,
)
from qtors.poset import set_bits, transpose_masks
from qtors.taurig import class_count

from conftest import linear_quiver


def divisors_poset(n: int) -> FinitePoset:
    divs = [d for d in range(1, n + 1) if n % d == 0]
    return build_poset(divs, lambda a, b: b % a == 0)


def test_rejects_non_orders():
    with pytest.raises(PosetError):
        build_poset([1, 2], lambda a, b: True)  # not antisymmetric
    with pytest.raises(PosetError):
        build_poset([1, 2, 4], lambda a, b: b == a + a or a == b)  # not transitive


def test_divisor_lattice():
    p = divisors_poset(12)
    assert p.bottom() == 1 and p.top() == 12
    assert p.meet([4, 6]) == 2
    assert p.join([4, 6]) == 12
    ok, witness = p.is_lattice()
    assert ok and witness is None
    assert p.is_complete_lattice()
    assert sorted(p.hasse) == sorted(
        (p.elements.index(a), p.elements.index(b))
        for a, b in [(1, 2), (1, 3), (2, 4), (2, 6), (3, 6), (4, 12), (6, 12)]
    )


def test_non_lattice_witnessed():
    # two minimal and two maximal elements: meets/joins fail
    elements = ["a", "b", "x", "y"]
    order = {("a", "x"), ("a", "y"), ("b", "x"), ("b", "y")}
    p = build_poset(elements, lambda u, v: u == v or (u, v) in order)
    ok, witness = p.is_lattice()
    assert not ok
    assert set(witness) in ({"a", "b"}, {"x", "y"})
    assert p.bottom() is None and p.top() is None


def test_dual_and_interval():
    p = divisors_poset(12)
    d = p.dual()
    assert d.bottom() == 12 and d.top() == 1
    assert d.meet([4, 6]) == 12
    i = p.interval(2, 12)
    assert sorted(i.elements) == [2, 4, 6, 12]
    with pytest.raises(PosetError):
        p.interval(4, 6)


def test_isomorphism_and_duality():
    p = divisors_poset(12)
    q = divisors_poset(18)  # same shape: 1,2,3,6,9,18 vs 1,2,3,4,6,12
    assert p.is_isomorphic(q)
    assert p.is_dual_isomorphic(q)  # divisor lattices are self-dual
    chain = build_poset([0, 1, 2], lambda a, b: a <= b)
    assert not p.is_isomorphic(chain)
    iso = p.find_isomorphism(q)
    assert iso is not None
    for a in p.elements:
        for b in p.elements:
            assert p.leq(a, b) == q.leq(iso[a], iso[b])


def test_export_json_roundtrip():
    p = divisors_poset(12)
    text = p.export_json()
    back = poset_from_json(text)
    assert back.is_isomorphic(p)
    assert json.loads(text)["hasse"] == sorted(json.loads(text)["hasse"])


def test_export_dot_shape():
    p = build_poset([0, 1], lambda a, b: a <= b)
    dot = p.export_dot()
    assert dot.startswith("digraph hasse {")
    assert "n0 -> n1;" in dot
    assert dot.count("->") == 1


def test_torsion_poset_smallest_cases():
    p1 = torsion_poset(linear_quiver(1))
    assert len(p1.elements) == 2
    p2 = torsion_poset(linear_quiver(2))
    assert len(p2.elements) == 5
    assert p2.is_complete_lattice()
    assert p2.bottom() == frozenset()


class NaivePoset:
    """Reference: the order as a list of lists, every answer by direct
    search over elements."""

    def __init__(self, elements, rel):
        self.elements = elements
        self.rel = rel
        self.n = len(elements)

    def error(self):
        e, m, r = self.elements, self.rel, range(self.n)
        for i in r:
            if not m[i][i]:
                return f"not reflexive at {e[i]!r}"
        for i in r:
            for j in r:
                if i != j and m[i][j] and m[j][i]:
                    return f"antisymmetry fails at ({e[i]!r}, {e[j]!r})"
        for i in r:
            for j in r:
                for k in r:
                    if m[i][j] and m[j][k] and not m[i][k]:
                        return f"transitivity fails at ({e[i]!r}, {e[j]!r}, {e[k]!r})"
        return None

    def hasse(self):
        m, r = self.rel, range(self.n)
        return [
            (i, j)
            for i in r
            for j in r
            if i != j
            and m[i][j]
            and not any(k not in (i, j) and m[i][k] and m[k][j] for k in r)
        ]

    def _greatest(self, idx, rel):
        if not idx:
            return None
        best = [i for i in idx if all(rel(j, i) for j in idx)]
        return self.elements[best[0]] if best else None

    def meet(self, subset):
        pos = [self.elements.index(a) for a in subset]
        lower = [i for i in range(self.n) if all(self.rel[i][j] for j in pos)]
        return self._greatest(lower, lambda a, b: self.rel[a][b])

    def join(self, subset):
        pos = [self.elements.index(a) for a in subset]
        upper = [i for i in range(self.n) if all(self.rel[j][i] for j in pos)]
        return self._greatest(upper, lambda a, b: self.rel[b][a])

    def top(self):
        return self._greatest(list(range(self.n)), lambda a, b: self.rel[a][b])

    def bottom(self):
        return self._greatest(list(range(self.n)), lambda a, b: self.rel[b][a])

    def is_lattice(self):
        for bound in (self.meet, self.join):
            for i, a in enumerate(self.elements):
                for b in self.elements[i + 1 :]:
                    if bound([a, b]) is None:
                        return False, (a, b)
        return True, None


@st.composite
def relations(draw):
    """A relation on up to 12 labelled elements: a random order (the
    reflexive transitive closure of random pairs along a shuffled chain),
    optionally with one entry flipped, or an arbitrary relation."""
    n = draw(st.integers(min_value=0, max_value=12))
    labels = draw(st.permutations([f"e{k}" for k in range(n)]))
    kind = draw(st.sampled_from(["order", "flipped", "arbitrary"]))
    if kind == "arbitrary":
        rel = [[draw(st.booleans()) for _ in range(n)] for _ in range(n)]
        return labels, rel
    pos = draw(st.permutations(range(n)))
    rel = [[i == j for j in range(n)] for i in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            if draw(st.booleans()):
                rel[pos[a]][pos[b]] = True
    for k in range(n):
        for i in range(n):
            for j in range(n):
                rel[i][j] = rel[i][j] or (rel[i][k] and rel[k][j])
    if kind == "flipped" and n:
        i = draw(st.integers(min_value=0, max_value=n - 1))
        j = draw(st.integers(min_value=0, max_value=n - 1))
        rel[i][j] = not rel[i][j]
    return labels, rel


@settings(max_examples=300, deadline=None)
@given(relations())
def test_bitset_poset_matches_naive_reference(case):
    labels, rel = case
    ref = NaivePoset(labels, rel)
    pos = {e: i for i, e in enumerate(labels)}
    expected_error = ref.error()
    if expected_error is not None:
        with pytest.raises(PosetError) as exc:
            FinitePoset(labels, lambda a, b: rel[pos[a]][pos[b]])
        assert str(exc.value) == expected_error
        return
    p = FinitePoset(labels, lambda a, b: rel[pos[a]][pos[b]])
    assert p.hasse == ref.hasse()
    assert p.is_lattice() == ref.is_lattice()
    assert p.top() == ref.top() and p.bottom() == ref.bottom()
    for a in labels:
        for b in labels:
            assert p.leq(a, b) == rel[pos[a]][pos[b]]
            assert p.meet([a, b]) == ref.meet([a, b])
            assert p.join([a, b]) == ref.join([a, b])
    if len(labels) >= 3:
        assert p.meet(labels[:3]) == ref.meet(labels[:3])
        assert p.join(labels[:3]) == ref.join(labels[:3])
    back = poset_from_json(p.export_json())
    assert back.hasse == p.hasse
    assert all(
        back.leq(i, j) == rel[i][j] for i in range(len(labels)) for j in range(len(labels))
    )


def _orientations(n, edges):
    """Every orientation of the underlying graph with the given edges."""
    for signs in product((False, True), repeat=len(edges)):
        yield Quiver(n, tuple((t, s) if flip else (s, t) for (s, t), flip in zip(edges, signs)))


def _path_edges(n):
    return [(i, i + 1) for i in range(1, n)]


# every orientation of A1-A5 and D4, one orientation each of D5 and E6
RECORD_QUIVERS = (
    [q for n in range(1, 6) for q in _orientations(n, _path_edges(n))]
    + list(_orientations(4, [(1, 2), (2, 3), (2, 4)]))
    + [
        Quiver(5, ((1, 2), (2, 3), (3, 4), (3, 5))),
        Quiver(6, ((1, 2), (2, 3), (3, 4), (4, 5), (3, 6))),
    ]
)


@pytest.mark.parametrize("q", RECORD_QUIVERS, ids=lambda q: str(q.arrows))
def test_catalog_route_matches_the_generic_poset(q):
    p = torsion_poset(q)
    # the classes from the exhaustive search, by the generic constructor
    classes = sorted(
        {fac_class(q, s) for s in enumerate_stt_exhaustive(q)},
        key=lambda t: (len(t), sorted(t)),
    )
    ref = FinitePoset(classes, lambda a, b: a <= b)
    assert p.elements == ref.elements
    assert p.hasse == ref.hasse
    assert p._up == ref._up and p._down == ref._down
    assert class_count(q) == len(p.elements)
    assert p.is_lattice() == ref.is_lattice() == (True, None)
    masks = catalog(q).tau_tilting.class_masks
    assert masks == tuple(sum(1 << m for m in t) for t in classes)
    # one meet-irreducible torsion class per brick, i.e. per positive root
    assert p.intersection_certificate(masks) == (True, catalog(q).size())


def _member_up(classes):
    """Oracle for the `up` masks of a family of sets: t <= u iff u holds
    every member of t, so up(t) is the intersection, over the members m of
    t, of the classes holding m."""
    holding = [0] * max(t.bit_length() for t in classes)
    for k, t in enumerate(classes):
        for m in set_bits(t):
            holding[m] |= 1 << k
    up = []
    for t in classes:
        u = (1 << len(classes)) - 1
        for m in set_bits(t):
            u &= holding[m]
        up.append(u)
    return up


@pytest.mark.parametrize(
    "q",
    [linear_quiver(n) for n in range(2, 7)]
    + [Quiver(n, tuple((i, i + 1) for i in range(1, n - 2)) + ((n - 2, n - 1), (n - 2, n)))
       for n in range(4, 7)]
    + [Quiver(n, tuple((i, i + 1) for i in range(1, n - 1)) + ((3, n),)) for n in (6, 7)],
    ids=["A2", "A3", "A4", "A5", "A6", "D4", "D5", "D6", "E6", "E7"],
)
def test_up_masks_from_module_summands_match_every_member(q):
    # the catalog forms up(t) from the module summands of the pair of t
    # alone; the intersection over every member of t is the definition
    tt = catalog(q).tau_tilting
    assert tt.poset._up == _member_up(tt.class_masks)


def test_from_hasse_checks_the_edges():
    p = torsion_poset(linear_quiver(3))
    edges = p.hasse
    assert FinitePoset.from_hasse(p.elements, p._up, edges).hasse == edges
    for k, (i, j) in enumerate(edges):
        dropped = edges[:k] + edges[k + 1 :]
        with pytest.raises(RuntimeError):
            FinitePoset.from_hasse(p.elements, p._up, dropped)
        with pytest.raises(RuntimeError):
            FinitePoset.from_hasse(p.elements, p._up, sorted(dropped + [(j, i)]))
    # an edge from the bottom to the top is in the order but is no cover
    with pytest.raises(RuntimeError, match="not a cover"):
        FinitePoset.from_hasse(p.elements, p._up, sorted(edges + [(0, len(p.elements) - 1)]))


def _set_family(sets):
    elements = sorted((frozenset(s) for s in sets), key=lambda t: (len(t), sorted(t)))
    p = FinitePoset(elements, lambda a, b: a <= b)
    return p, [sum(1 << "abcd".index(x) for x in t) for t in elements]


def test_intersection_certificate():
    # {a, b} and {b, c} meet in {b}, which is missing; the poset is still a
    # lattice (its meet is the empty set), so only the certificate says no
    p, masks = _set_family(["", "ab", "bc", "abc"])
    assert p.is_lattice() == (True, None)
    assert p.intersection_certificate(masks) == (False, 3)
    p, masks = _set_family(["", "b", "ab", "bc", "abc"])
    assert p.intersection_certificate(masks) == (True, 3)
    # closed under intersection, but with two maximal elements
    p, masks = _set_family(["", "a", "b"])
    assert p.intersection_certificate(masks)[0] is False


@given(
    st.integers(0, 70).flatmap(
        lambda w: st.tuples(st.just(w), st.lists(st.integers(0, 2**w - 1), max_size=40))
    )
)
@settings(max_examples=150, deadline=None)
def test_transpose_masks_matches_one_bit_at_a_time(case):
    # the loop `TauTilting.poset` used: one OR per set bit
    width, masks = case
    want = [0] * width
    for i, m in enumerate(masks):
        for j in set_bits(m):
            want[j] |= 1 << i
    assert transpose_masks(masks, width) == want
