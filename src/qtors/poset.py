"""Finite posets with Hasse diagrams, meet/join and lattice verification,
duality and interval extraction, plus DOT/JSON export."""

from __future__ import annotations

import json
from typing import Callable, Hashable, Sequence


class PosetError(ValueError):
    pass


class FinitePoset:
    """Finite poset over opaque element ids; the order relation is validated
    (reflexive, antisymmetric, transitive) at construction and the Hasse
    edges are precomputed."""

    def __init__(self, elements: Sequence[Hashable], leq: Callable[[Hashable, Hashable], bool]):
        self.elements = list(elements)
        n = len(self.elements)
        if len(set(self.elements)) != n:
            raise PosetError("duplicate elements")
        self._index = {e: i for i, e in enumerate(self.elements)}
        self._leq = [[bool(leq(a, b)) for b in self.elements] for a in self.elements]
        self._validate()
        self.hasse = self._hasse_edges()

    def _validate(self):
        n = len(self.elements)
        m = self._leq
        for i in range(n):
            if not m[i][i]:
                raise PosetError(f"not reflexive at {self.elements[i]!r}")
        for i in range(n):
            for j in range(n):
                if i != j and m[i][j] and m[j][i]:
                    raise PosetError(
                        f"antisymmetry fails at ({self.elements[i]!r}, {self.elements[j]!r})"
                    )
        for i in range(n):
            for j in range(n):
                if not m[i][j]:
                    continue
                for k in range(n):
                    if m[j][k] and not m[i][k]:
                        raise PosetError(
                            "transitivity fails at "
                            f"({self.elements[i]!r}, {self.elements[j]!r}, {self.elements[k]!r})"
                        )

    def _hasse_edges(self) -> list[tuple[int, int]]:
        n = len(self.elements)
        m = self._leq
        edges = []
        for i in range(n):
            for j in range(n):
                if i == j or not m[i][j]:
                    continue
                if any(k != i and k != j and m[i][k] and m[k][j] for k in range(n)):
                    continue
                edges.append((i, j))
        return edges

    # -- order primitives ----------------------------------------------------

    def leq(self, a: Hashable, b: Hashable) -> bool:
        return self._leq[self._index[a]][self._index[b]]

    def _maximal(self, idx: list[int]) -> list[int]:
        return [
            i
            for i in idx
            if not any(j != i and self._leq[i][j] for j in idx)
        ]

    def _minimal(self, idx: list[int]) -> list[int]:
        return [
            i
            for i in idx
            if not any(j != i and self._leq[j][i] for j in idx)
        ]

    def meet(self, subset: Sequence[Hashable]) -> Hashable | None:
        """Unique maximal lower bound of a nonempty subset, or None."""
        if not subset:
            raise PosetError("meet of the empty subset")
        idx = [self._index[e] for e in subset]
        lower = [
            i
            for i in range(len(self.elements))
            if all(self._leq[i][j] for j in idx)
        ]
        if not lower:
            return None
        mx = self._maximal(lower)
        return self.elements[mx[0]] if len(mx) == 1 else None

    def join(self, subset: Sequence[Hashable]) -> Hashable | None:
        if not subset:
            raise PosetError("join of the empty subset")
        idx = [self._index[e] for e in subset]
        upper = [
            i
            for i in range(len(self.elements))
            if all(self._leq[j][i] for j in idx)
        ]
        if not upper:
            return None
        mn = self._minimal(upper)
        return self.elements[mn[0]] if len(mn) == 1 else None

    def bottom(self) -> Hashable | None:
        mn = self._minimal(list(range(len(self.elements))))
        return self.elements[mn[0]] if len(mn) == 1 else None

    def top(self) -> Hashable | None:
        mx = self._maximal(list(range(len(self.elements))))
        return self.elements[mx[0]] if len(mx) == 1 else None

    # -- lattice checks --------------------------------------------------------

    def is_meet_semilattice(self) -> tuple[bool, tuple[Hashable, Hashable] | None]:
        for i, a in enumerate(self.elements):
            for b in self.elements[i + 1 :]:
                if self.meet([a, b]) is None:
                    return False, (a, b)
        return True, None

    def is_join_semilattice(self) -> tuple[bool, tuple[Hashable, Hashable] | None]:
        for i, a in enumerate(self.elements):
            for b in self.elements[i + 1 :]:
                if self.join([a, b]) is None:
                    return False, (a, b)
        return True, None

    def is_lattice(self) -> tuple[bool, tuple[Hashable, Hashable] | None]:
        ok, witness = self.is_meet_semilattice()
        if not ok:
            return False, witness
        return self.is_join_semilattice()

    def is_complete_lattice(self) -> bool:
        """For a finite poset: a lattice with top and bottom is complete."""
        return (
            self.is_lattice()[0]
            and self.top() is not None
            and self.bottom() is not None
        )

    # -- constructions -----------------------------------------------------------

    def dual(self) -> "FinitePoset":
        leq = self._leq
        idx = self._index
        return FinitePoset(self.elements, lambda a, b: leq[idx[b]][idx[a]])

    def interval(self, lo: Hashable, hi: Hashable) -> "FinitePoset":
        if not self.leq(lo, hi):
            raise PosetError("interval bounds are not comparable")
        members = [e for e in self.elements if self.leq(lo, e) and self.leq(e, hi)]
        leq = self._leq
        idx = self._index
        return FinitePoset(members, lambda a, b: leq[idx[a]][idx[b]])

    # -- isomorphism -----------------------------------------------------------

    def _signature(self, i: int) -> tuple[int, int]:
        below = sum(1 for j in range(len(self.elements)) if self._leq[j][i])
        above = sum(1 for j in range(len(self.elements)) if self._leq[i][j])
        return below, above

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
                if self._leq[i][k] != other._leq[j][jk]:
                    return False
                if self._leq[k][i] != other._leq[jk][j]:
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
        return json.dumps(
            {
                "elements": [
                    {"id": i, "label": label(e), "payload": _payload(e)}
                    for i, e in enumerate(self.elements)
                ],
                "hasse": [[lo, hi] for lo, hi in sorted(self.hasse)],
            },
            indent=2,
        )


def _payload(e: Hashable):
    if isinstance(e, frozenset):
        return sorted(e)
    if isinstance(e, (tuple, list)):
        return list(e)
    return e


def poset_from_json(text: str) -> FinitePoset:
    """Rebuild a poset from export_json output (ids become the elements)."""
    data = json.loads(text)
    ids = [el["id"] for el in data["elements"]]
    edges = {(lo, hi) for lo, hi in data["hasse"]}
    # transitive closure of the Hasse relation
    n = len(ids)
    leq = [[i == j for j in range(n)] for i in range(n)]
    for lo, hi in edges:
        leq[lo][hi] = True
    changed = True
    while changed:
        changed = False
        for i in range(n):
            for j in range(n):
                if leq[i][j]:
                    for k in range(n):
                        if leq[j][k] and not leq[i][k]:
                            leq[i][k] = True
                            changed = True
    return FinitePoset(ids, lambda a, b: leq[a][b])


def build_poset(elements: Sequence[Hashable], leq: Callable[[Hashable, Hashable], bool]) -> FinitePoset:
    return FinitePoset(elements, leq)


def torsion_poset(q) -> FinitePoset:
    """Poset of the functorially finite torsion classes of a Dynkin quiver,
    ordered by inclusion; elements are frozensets of catalog indices."""
    from .taurig import enumerate_stt, fac_class

    classes = sorted(
        {fac_class(q, p) for p in enumerate_stt(q)},
        key=lambda t: (len(t), sorted(t)),
    )
    return FinitePoset(classes, lambda a, b: a <= b)
