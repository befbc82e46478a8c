"""Finite posets with Hasse diagrams, meet/join and lattice verification,
duality and interval extraction, plus DOT/JSON export."""

from __future__ import annotations

import io
import json
from functools import cached_property
from itertools import compress, count
from json.encoder import encode_basestring_ascii
from typing import Callable, Hashable, Iterable, Iterator, Sequence, TextIO


class PosetError(ValueError):
    pass


class FinitePoset:
    """Finite poset over opaque element ids.  The order relation is stored
    once, as int bitmasks: bit j of `_up[i]` and bit i of `_down[j]` are set
    iff element i <= element j.  It is validated (reflexive, antisymmetric,
    transitive) at construction and the Hasse edges are precomputed."""

    def __init__(self, elements: Sequence[Hashable], leq: Callable[[Hashable, Hashable], bool]):
        self._set_elements(elements)
        rev = self.elements[::-1]  # binary literals put the last element first
        self._set_order(
            [int("".join("1" if leq(a, b) else "0" for b in rev), 2) for a in self.elements]
        )

    @classmethod
    def _from_up(cls, elements: Sequence[Hashable], up: list[int]) -> "FinitePoset":
        """Poset whose relation is given as the `_up` bitmasks."""
        p = cls.__new__(cls)
        p._set_elements(elements)
        p._set_order(up)
        return p

    @classmethod
    def from_hasse(
        cls, elements: Sequence[Hashable], up: list[int], hasse: list[tuple[int, int]]
    ) -> "FinitePoset":
        """Poset whose order is given as the `_up` bitmasks together with
        its Hasse diagram: strictly increasing (i, j) pairs with i < j, the
        order `_hasse_edges` yields, so the element order is a linear
        extension.  `up` must be a partial order (inclusion of distinct
        sets is one), so it is not validated.  The edges are checked, not
        trusted, and any failure raises RuntimeError: their reflexive
        transitive closure, taken in reverse element order, must equal
        `up`, and each edge must be a cover.  `_down` is the closure of the
        reversed edges, so no transpose is needed."""
        p = cls.__new__(cls)
        p._set_elements(elements)
        n = len(p.elements)
        if any(a >= b for a, b in zip(hasse, hasse[1:])):
            raise RuntimeError("Hasse edges are not strictly increasing")
        above: list[list[int]] = [[] for _ in range(n)]
        below: list[list[int]] = [[] for _ in range(n)]
        for i, j in hasse:
            if not i < j:
                raise RuntimeError(f"Hasse edge ({i}, {j}) goes down the element order")
            above[i].append(j)
            below[j].append(i)
        # up[j] of every j > i is checked by then, so it is the closure at j
        for i in reversed(range(n)):
            reach = 1 << i
            for j in above[i]:
                reach |= up[j]
            if reach != up[i]:
                raise RuntimeError(
                    f"the Hasse edges do not generate the order at {p.elements[i]!r}"
                )
        down = []
        for j in range(n):
            reach = 1 << j
            for i in below[j]:
                reach |= down[i]
            down.append(reach)
        for i, j in hasse:
            if (up[i] & down[j]).bit_count() != 2:
                raise RuntimeError(f"Hasse edge ({i}, {j}) is not a cover")
        p._up, p._down, p._full = up, down, (1 << n) - 1
        p.hasse = list(hasse)
        return p

    def _set_elements(self, elements: Sequence[Hashable]):
        self.elements = list(elements)
        self._index = {e: i for i, e in enumerate(self.elements)}
        if len(self._index) != len(self.elements):
            raise PosetError("duplicate elements")

    def _set_order(self, up: list[int]):
        n = len(self.elements)
        self._up = up
        self._down = transpose_masks(up, n)
        self._full = (1 << n) - 1
        self._validate()
        self.hasse = self._hasse_edges()

    def _validate(self):
        up, down = self._up, self._down
        for i in range(len(self.elements)):
            if not up[i] >> i & 1:
                raise PosetError(f"not reflexive at {self.elements[i]!r}")
        for i in range(len(self.elements)):
            both = up[i] & down[i] & ~(1 << i)
            if both:
                j = _lowest(both)
                raise PosetError(
                    f"antisymmetry fails at ({self.elements[i]!r}, {self.elements[j]!r})"
                )
        # up(j) must lie inside up(i) for every j in up(i)
        for i in range(len(self.elements)):
            outside = ~up[i]
            if any(map(outside.__and__, map(up.__getitem__, set_bits(up[i])))):
                j = next(j for j in set_bits(up[i]) if up[j] & outside)
                k = _lowest(up[j] & outside)
                raise PosetError(
                    "transitivity fails at "
                    f"({self.elements[i]!r}, {self.elements[j]!r}, {self.elements[k]!r})"
                )

    def _hasse_edges(self) -> list[tuple[int, int]]:
        """(i, j) where j covers i: up(i) and down(j) share only i and j."""
        up, down = self._up, self._down
        edges = []
        for i in range(len(self.elements)):
            js = list(set_bits(up[i] & ~(1 << i)))
            shared = map(int.bit_count, map(up[i].__and__, map(down.__getitem__, js)))
            edges.extend((i, j) for j, s in zip(js, shared) if s == 2)
        return edges

    # -- order primitives ----------------------------------------------------

    def leq(self, a: Hashable, b: Hashable) -> bool:
        return bool(self._up[self._index[a]] >> self._index[b] & 1)

    def _bound(
        self, masks: list[int], index: dict[int, int], subset: Sequence[Hashable]
    ) -> Hashable | None:
        """The element whose mask is the intersection of the subset's masks,
        or None.  With `_down` masks this is the meet: in a finite poset the
        common lower bounds have a unique maximal element c exactly when
        they are down(c).  With `_up` masks it is the join."""
        common = self._full
        for e in subset:
            common &= masks[self._index[e]]
        c = index.get(common)
        return None if c is None else self.elements[c]

    @cached_property
    def _down_index(self) -> dict[int, int]:
        return {m: i for i, m in enumerate(self._down)}

    @cached_property
    def _up_index(self) -> dict[int, int]:
        return {m: i for i, m in enumerate(self._up)}

    def meet(self, subset: Sequence[Hashable]) -> Hashable | None:
        """Unique maximal lower bound of a nonempty subset, or None."""
        if not subset:
            raise PosetError("meet of the empty subset")
        return self._bound(self._down, self._down_index, subset)

    def join(self, subset: Sequence[Hashable]) -> Hashable | None:
        if not subset:
            raise PosetError("join of the empty subset")
        return self._bound(self._up, self._up_index, subset)

    def bottom(self) -> Hashable | None:
        i = self._up_index.get(self._full)
        return None if i is None else self.elements[i]

    def top(self) -> Hashable | None:
        i = self._down_index.get(self._full)
        return None if i is None else self.elements[i]

    # -- lattice checks --------------------------------------------------------

    def _first_missing_bound(
        self, masks: list[int], index: dict[int, int]
    ) -> tuple[Hashable, Hashable] | None:
        """First pair (a, b), in element order, whose masks intersect in no
        mask of the list; comparable pairs always have one."""
        up, down = self._up, self._down
        for i in range(len(self.elements)):
            later = self._full & ~((2 << i) - 1)
            js = list(set_bits(later & ~(up[i] | down[i])))
            found = list(map(index.__contains__, map(masks[i].__and__, map(masks.__getitem__, js))))
            if not all(found):
                return self.elements[i], self.elements[js[found.index(False)]]
        return None

    def is_meet_semilattice(self) -> tuple[bool, tuple[Hashable, Hashable] | None]:
        witness = self._first_missing_bound(self._down, self._down_index)
        return witness is None, witness

    def is_join_semilattice(self) -> tuple[bool, tuple[Hashable, Hashable] | None]:
        witness = self._first_missing_bound(self._up, self._up_index)
        return witness is None, witness

    def is_lattice(self) -> tuple[bool, tuple[Hashable, Hashable] | None]:
        ok, witness = self.is_meet_semilattice()
        if not ok:
            return False, witness
        # a finite meet-semilattice with a top is a lattice: the join of a
        # and b is the meet of their (nonempty) set of upper bounds
        if self.top() is not None:
            return True, None
        return self.is_join_semilattice()

    def intersection_certificate(self, sets: Sequence[int]) -> tuple[bool, int]:
        """Certify that the elements, with the order being inclusion of
        `sets` (one bitmask per element, in element order), form a lattice
        whose meet is ∩.  Returns whether the certificate holds and the
        number of meet-irreducible elements.

        An element below the top is meet-irreducible when its set differs
        from the intersection of the sets of its upper covers.  Going down
        from the top, every other element is that intersection, so every
        element is an intersection of irreducibles and the top.  Hence, if
        there is a top and T ∩ M is a set of the family for every element
        T and every irreducible M, the family is closed under ∩, and a
        finite ∩-closed family with a top is a lattice whose meet is ∩
        (the irreducibles are those of Barnard-Carroll-Zhu, arXiv:1710.08837,
        for torsion classes).  A False proves nothing: the poset may still
        be a lattice whose meet is not ∩."""
        covers: list[int | None] = [None] * len(sets)
        for i, j in self.hasse:
            covers[i] = sets[j] if covers[i] is None else covers[i] & sets[j]
        irreducible = [s for s, c in zip(sets, covers) if c is not None and c != s]
        if self.top() is None:
            return False, len(irreducible)
        family = set(sets)
        closed = all((t & m) in family for m in irreducible for t in sets)
        return closed, len(irreducible)

    def is_complete_lattice(self) -> bool:
        """For a finite poset: a lattice with top and bottom is complete."""
        return (
            self.is_lattice()[0]
            and self.top() is not None
            and self.bottom() is not None
        )

    # -- constructions -----------------------------------------------------------

    def dual(self) -> "FinitePoset":
        return FinitePoset._from_up(self.elements, list(self._down))

    def interval(self, lo: Hashable, hi: Hashable) -> "FinitePoset":
        if not self.leq(lo, hi):
            raise PosetError("interval bounds are not comparable")
        inside = self._up[self._index[lo]] & self._down[self._index[hi]]
        members = [self.elements[i] for i in set_bits(inside)]
        return FinitePoset(members, self.leq)

    # -- isomorphism -----------------------------------------------------------

    def _signature(self, i: int) -> tuple[int, int]:
        return self._down[i].bit_count(), self._up[i].bit_count()

    def find_isomorphism(self, other: "FinitePoset") -> dict | None:
        """Order isomorphism self -> other by backtracking, or None."""
        n = len(self.elements)
        if n != len(other.elements):
            return None
        sig_self = [self._signature(i) for i in range(n)]
        sig_other = [other._signature(i) for i in range(n)]
        if sorted(sig_self) != sorted(sig_other):
            return None
        assignment: list[int | None] = [None] * n
        used = [False] * n

        def ok(i: int, j: int) -> bool:
            for k in range(n):
                jk = assignment[k]
                if jk is None:
                    continue
                if self._up[i] >> k & 1 != other._up[j] >> jk & 1:
                    return False
                if self._down[i] >> k & 1 != other._down[j] >> jk & 1:
                    return False
            return True

        def backtrack(i: int) -> bool:
            if i == n:
                return True
            for j in range(n):
                if used[j] or sig_self[i] != sig_other[j]:
                    continue
                if ok(i, j):
                    assignment[i] = j
                    used[j] = True
                    if backtrack(i + 1):
                        return True
                    assignment[i] = None
                    used[j] = False
            return False

        if backtrack(0):
            return {
                self.elements[i]: other.elements[assignment[i]] for i in range(n)
            }
        return None

    def is_isomorphic(self, other: "FinitePoset") -> bool:
        return self.find_isomorphism(other) is not None

    def is_dual_isomorphic(self, other: "FinitePoset") -> bool:
        return self.find_isomorphism(other.dual()) is not None

    # -- export -------------------------------------------------------------------

    def export_dot(self, label: Callable[[Hashable], str] = str) -> str:
        lines = ["digraph hasse {", "  rankdir=BT;"]
        for i, e in enumerate(self.elements):
            lines.append(f'  n{i} [label="{label(e)}"];')
        for lo, hi in self.hasse:
            lines.append(f"  n{lo} -> n{hi};")
        lines.append("}")
        return "\n".join(lines) + "\n"

    def export_json(self, label: Callable[[Hashable], str] = str) -> str:
        """The text `write_json` writes, without its final newline."""
        buf = io.StringIO()
        self.write_json(buf, label)
        return buf.getvalue()[:-1]

    def write_json(self, out: TextIO, label: Callable[[Hashable], str] = str) -> None:
        """Write the poset as the JSON object {"elements": [{"id", "label",
        "payload"}, ...], "hasse": [[lo, hi], ...]}, with the Hasse edges
        sorted.  The bytes are exactly those of `json.dumps(obj,
        indent=2)` followed by one newline, as `print` would put them out,
        and they go out one element or edge per `out.write`, so the whole
        document is never held.  Str labels and int-list payloads are joined
        directly; any other label or payload is encoded by
        `json.dumps(value, indent=2)` and indented to its depth.  A value
        that cannot be encoded raises `TypeError` after the elements before
        it have been written."""
        elements = (
            f'    {{\n      "id": {i},\n      "label": {_value_text(label(e))},\n'
            f'      "payload": {_value_text(_payload(e))}\n    }}'
            for i, e in enumerate(self.elements)
        )
        _write_json_list(out, '{\n  "elements": ', elements, len(self.elements), ",\n")
        edges = (f"    [\n      {lo},\n      {hi}\n    ]" for lo, hi in sorted(self.hasse))
        _write_json_list(out, '  "hasse": ', edges, len(self.hasse), "\n}\n")


_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


def set_bits(m: int) -> Iterator[int]:
    """Positions of the set bits of m, in increasing order."""
    return compress(count(), bin(m)[:1:-1].encode().translate(_BIT_BYTES))


def transpose_masks(masks: list[int], width: int) -> list[int]:
    """The transpose of a 0/1 matrix held as row bitmasks below 2**width:
    `width` masks, bit i of mask j set iff bit j of masks[i] is.  It goes
    through fixed-width bit strings, least significant bit first, so no big
    int is rebuilt per set bit."""
    if not masks or not width:
        return [0] * width
    rows = [format(m, f"0{width}b")[::-1] for m in masks]
    return [int("".join(col)[::-1], 2) for col in zip(*rows)]


def _lowest(m: int) -> int:
    return (m & -m).bit_length() - 1


def _payload(e: Hashable):
    if isinstance(e, frozenset):
        return sorted(e)
    if isinstance(e, (tuple, list)):
        return list(e)
    return e


def _value_text(v) -> str:
    """`json.dumps(v, indent=2)` laid out at the depth of a field of an
    element in `FinitePoset.write_json`: its lines after the first indented
    by 6.  A str (every CLI label) and a list of ints (every torsion-class
    payload) are joined directly."""
    if type(v) is str:
        return encode_basestring_ascii(v)
    if type(v) is list and all(type(x) is int for x in v):
        return "[\n        " + ",\n        ".join(map(str, v)) + "\n      ]" if v else "[]"
    return json.dumps(v, indent=2).replace("\n", "\n      ")


def _write_json_list(
    out: TextIO, opening: str, texts: Iterable[str], n: int, closing: str
) -> None:
    """Write a list of n items that is a value of a top-level JSON object,
    laid out as `json.dumps(indent=2)` lays it out: `opening` (the text
    before the list), the list, then `closing`.  Each item text holds the
    item's lines, indented by 4; each goes out in its own write, with the
    comma and line break that end it."""
    if not n:
        out.write(opening + "[]" + closing)
        return
    out.write(opening + "[\n")
    for k, text in enumerate(texts, 1):
        out.write(text + ",\n" if k < n else text + "\n")
    out.write("  ]" + closing)


def poset_from_json(text: str) -> FinitePoset:
    """Rebuild a poset from export_json output (ids become the elements)."""
    data = json.loads(text)
    ids = [el["id"] for el in data["elements"]]
    edges = {(lo, hi) for lo, hi in data["hasse"]}
    # reflexive transitive closure of the Hasse relation (Warshall on rows)
    up = [1 << i for i in range(len(ids))]
    for lo, hi in edges:
        up[lo] |= 1 << hi
    for k in range(len(ids)):
        for i in range(len(ids)):
            if up[i] >> k & 1:
                up[i] |= up[k]
    return FinitePoset._from_up(ids, up)


def build_poset(elements: Sequence[Hashable], leq: Callable[[Hashable, Hashable], bool]) -> FinitePoset:
    return FinitePoset(elements, leq)


def torsion_poset(q) -> FinitePoset:
    """Poset of the functorially finite torsion classes of a Dynkin quiver,
    ordered by inclusion; elements are frozensets of catalog indices.  It
    is the one cached on the quiver's catalog (`taurig.tau_tilting`), so it
    is shared between callers."""
    from .taurig import tau_tilting

    return tau_tilting(q).poset
