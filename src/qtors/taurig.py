"""Support tau-tilting pairs for Dynkin quivers and the resulting finite
torsion-class model: enumeration (two independent strategies), mutation
neighborhoods, Fac-classes, perpendicular categories and meet/join."""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from math import comb

from .forms import forms_context
from .poset import FinitePoset, set_bits, transpose_masks
from .quiver import Quiver, QuiverError, classify
from .rep import (
    ExtGroup,
    Morphism,
    Rep,
    direct_sum,
    enumerate_indecomposables,
    exists_surjection,
    extension_realize,
    gen_contains,
    projective_rep,
)

# A decorated summand is ("mod", catalog index) for a module summand or
# ("proj", vertex) for a shifted projective.
Summand = tuple[str, int]
SttPair = frozenset[Summand]
TorsionClassModel = frozenset[int]


class Catalog:
    """The indecomposables of a Dynkin quiver as its positive roots: the
    Coxeter orbits of the injective dimension vectors, in the order of
    `enumerate_indecomposables`.  Hom(X, Y) and Ext^1(X, Y) are never both
    non-zero for Dynkin indecomposables (Ringel, LNM 1099, §2.4), so every
    Hom/tau table is read off the Euler form; module matrices are built
    only when `modules` is read."""

    def __init__(self, q: Quiver):
        if classify(q).tag != "Dynkin":
            raise QuiverError("catalog requires a Dynkin quiver")
        self.quiver = q
        ctx = forms_context(q)
        found = set()
        for v in range(q.n):
            dims = [int(c) for c in ctx.cartan.row(v)]  # dim I_v: paths into v
            while min(dims) >= 0:
                found.add(tuple(dims))
                dims = ctx.tau_dimvec(dims)
        self.roots: list[tuple[int, ...]] = sorted(found, key=lambda d: (sum(d), d))
        euler = [[ctx.euler_form(x, y) for y in self.roots] for x in self.roots]
        # dim Hom(M_i, M_j)
        self.hom_table = [[max(0, e) for e in row] for row in euler]
        # dim Hom(M_i, tau M_j) = dim Ext^1(M_j, M_i) (AR formula), 0 for a
        # projective M_j: the column of M_i in the Euler matrix
        self.tau_hom_table = [[max(0, -e) for e in col] for col in zip(*euler)]
        # dim Hom(P_v, M_j), row v - 1 for the projective at vertex v
        self.proj_hom_table = [[r[v] for r in self.roots] for v in range(q.n)]

    @cached_property
    def modules(self) -> list[Rep]:
        """The indecomposables as representations, in the order of `roots`."""
        mods = enumerate_indecomposables(self.quiver)
        if [m.dims for m in mods] != self.roots:
            raise RuntimeError("indecomposables do not match the positive roots")
        return mods

    @cached_property
    def ext_cocycles(self) -> dict[tuple[int, int], Sequence[Morphism]]:
        """Cocycles of Ext^1(M_z, M_x), keyed (x, z)."""
        return {
            (xi, zi): ExtGroup(x, z).cocycles
            for zi, z in enumerate(self.modules)
            for xi, x in enumerate(self.modules)
        }

    @cached_property
    def _summands(self) -> tuple[Summand, ...]:
        mods = [
            ("mod", i) for i in range(self.size()) if self.tau_hom_table[i][i] == 0
        ]
        projs = [("proj", v) for v in range(1, self.quiver.n + 1)]
        return tuple(mods + projs)

    @cached_property
    def compat_masks(self) -> list[int]:
        """Bit k of entry i is set iff summands i and k differ and are
        compatible, indexing `summands()`."""
        items = self._summands
        return [
            sum(
                1 << k
                for k, v in enumerate(items)
                if k != i and is_compatible(self, u, v)
            )
            for i, u in enumerate(items)
        ]

    @cached_property
    def fac_masks(self) -> dict[Summand, int]:
        """Catalog members a summand admits into the torsion class of any
        pair containing it, as a bitmask: ⊥(τM_i) for the module M_i,
        P_v^⊥ for the shifted projective at v."""
        out = {}
        for kind, i in self._summands:
            if kind == "mod":
                dims = [row[i] for row in self.tau_hom_table]  # Hom(M_j, τM_i)
            else:
                dims = self.proj_hom_table[i - 1]  # Hom(P_i, M_j)
            out[kind, i] = sum(1 << j for j, d in enumerate(dims) if d == 0)
        return out

    @cached_property
    def summand_index(self) -> dict[Summand, int]:
        return {s: k for k, s in enumerate(self._summands)}

    @cached_property
    def tau_tilting(self) -> "TauTilting":
        """The support tau-tilting pairs and torsion classes, built once."""
        return TauTilting(self)

    def _exchange(self, p: int) -> list[int]:
        """The n neighbours of the pair whose summands are the bits of p,
        one per summand in increasing order: the summands outside p
        compatible with the other n-1 are exactly one, which replaces it."""
        nbr = self.compat_masks
        ks = list(set_bits(p))
        outside = ~p & ((1 << len(nbr)) - 1)
        out = []
        for u in ks:
            completions = outside
            for r in ks:
                if r != u:
                    completions &= nbr[r]
            found = completions.bit_count()
            if found != 1:
                raise RuntimeError(f"expected a unique exchange partner, got {found}")
            out.append(p ^ (1 << u) | completions)
        return out

    def _mutation_walk(self) -> tuple[list[int], list[tuple[int, int]]]:
        """Breadth-first mutation walk from the all-projectives pair: the
        pairs as summand bitmasks in the order found, and every exchange
        edge once, as (a, b) positions in that list with a < b."""
        index = self.summand_index
        start = sum(
            1 << index["mod", self.index_of_dims(projective_rep(self.quiver, v).dims)]
            for v in range(1, self.quiver.n + 1)
        )
        found = {start: 0}
        order = [start]
        edges = []
        for a, p in enumerate(order):  # order grows while it is read
            for m in self._exchange(p):
                b = found.get(m)
                if b is None:
                    b = found[m] = len(order)
                    order.append(m)
                if a < b:
                    edges.append((a, b))
        return order, edges

    def size(self) -> int:
        return len(self.roots)

    def hom(self, i: int, j: int) -> int:
        return self.hom_table[i][j]

    def hom_from_projective(self, v: int, j: int) -> int:
        return self.proj_hom_table[v - 1][j]

    def index_of_dims(self, dims: tuple[int, ...]) -> int:
        for i, r in enumerate(self.roots):
            if r == dims:
                return i
        raise KeyError(f"no catalog module with dims {dims}")

    def summands(self) -> list[Summand]:
        """All decorated summands: tau-rigid modules plus shifted
        projectives, in canonical order."""
        return list(self._summands)


@lru_cache(maxsize=None)
def catalog(q: Quiver) -> Catalog:
    return Catalog(q)


def is_compatible(cat: Catalog, u: Summand, v: Summand) -> bool:
    """tau-rigidity of the direct sum: module/module needs Hom into each
    other's translate to vanish; a shifted projective at i needs the module
    unsupported at i; shifted projectives never interfere."""
    if u[0] == "proj" and v[0] == "proj":
        return True
    if u[0] == "proj":
        u, v = v, u
    if v[0] == "proj":
        return cat.hom_from_projective(v[1], u[1]) == 0
    i, j = u[1], v[1]
    return cat.tau_hom_table[i][j] == 0 and cat.tau_hom_table[j][i] == 0


def enumerate_stt_exhaustive(q: Quiver) -> set[SttPair]:
    """All n-cliques of the compatibility graph of the decorated summands,
    found by backtracking over the bitmask neighbour sets; each clique is
    built in increasing summand order, so each is found once."""
    cat = catalog(q)
    items = cat.summands()
    nbr = cat.compat_masks
    pairs = set()

    def extend(chosen: list[int], cand: int) -> None:
        if len(chosen) == q.n:
            pairs.add(frozenset(items[k] for k in chosen))
            return
        while cand:
            low = cand & -cand
            cand ^= low
            k = low.bit_length() - 1
            extend(chosen + [k], cand & nbr[k])

    extend([], (1 << len(items)) - 1)
    return pairs


def mutations(q: Quiver, p: SttPair) -> list[SttPair]:
    """The n neighbors of a pair: each summand has a unique alternative
    completion of the remaining n-1 summands, the one summand outside p
    compatible with all of them."""
    cat = catalog(q)
    index = cat.summand_index
    return [
        _pair_of_bits(cat, m) for m in cat._exchange(sum(1 << index[s] for s in p))
    ]


def _pair_of_bits(cat: Catalog, p: int) -> SttPair:
    items = cat._summands
    return frozenset(items[k] for k in set_bits(p))


def enumerate_stt_mutation(q: Quiver) -> set[SttPair]:
    """Breadth-first mutation walk from the all-projectives pair."""
    cat = catalog(q)
    return {_pair_of_bits(cat, p) for p in cat._mutation_walk()[0]}


# Largest number of torsion classes `tau_tilting` admits.
CLASS_LIMIT = 60000


def class_count(q: Quiver) -> int:
    """Number of support tau-tilting pairs, equivalently of torsion
    classes, of a Dynkin quiver: the Coxeter-Catalan number of its type,
    read off the type alone."""
    cls = classify(q)
    if cls.tag != "Dynkin":
        raise QuiverError("catalog requires a Dynkin quiver")
    kind, n = cls.type_name[0], int(cls.type_name[1:])
    if kind == "A":
        return comb(2 * n + 2, n + 1) // (n + 2)
    if kind == "D":
        return (3 * n - 2) * comb(2 * n - 2, n - 1) // n
    return {6: 833, 7: 4160, 8: 25080}[n]


def tau_tilting(q: Quiver) -> "TauTilting":
    """The catalog's tau-tilting record of a Dynkin quiver.  Size limit: a
    quiver with more than CLASS_LIMIT torsion classes is refused with
    ValueError, by `class_count`, before its catalog is built."""
    count = class_count(q)
    if count > CLASS_LIMIT:
        raise ValueError(
            f"too many torsion classes: {count} exceed the limit of {CLASS_LIMIT}"
        )
    return catalog(q).tau_tilting


class TauTilting:
    """The support tau-tilting pairs of a Dynkin quiver and their torsion
    classes, from one mutation walk, which is checked once against the
    exhaustive clique search.

    Mutation is the Hasse diagram of the torsion classes, oriented by
    inclusion (Adachi-Iyama-Reiten, arXiv:1210.1036, Thm 2.33).
    `FinitePoset.from_hasse` checks that claim: the oriented exchange
    edges must generate the inclusion order, and each must be a cover."""

    def __init__(self, cat: Catalog):
        walked, edges = cat._mutation_walk()
        pairs = [_pair_of_bits(cat, p) for p in walked]
        if set(pairs) != enumerate_stt_exhaustive(cat.quiver):
            raise RuntimeError("enumeration strategies disagree")
        self.pairs: tuple[SttPair, ...] = tuple(sorted(pairs, key=_pair_sort_key))
        fac = [cat.fac_masks[s] for s in cat._summands]
        masks = []
        for p in walked:
            inside = (1 << cat.size()) - 1
            for k in set_bits(p):
                inside &= fac[k]
            masks.append(inside)
        if len(set(masks)) != len(masks):
            raise RuntimeError("two pairs give one torsion class")
        # element order: by size, then by the sorted members
        order = sorted(
            range(len(masks)), key=lambda k: (masks[k].bit_count(), list(set_bits(masks[k])))
        )
        position = [0] * len(order)
        for i, k in enumerate(order):
            position[k] = i
        #: the members of each torsion class as a bitmask, in element order
        self.class_masks: tuple[int, ...] = tuple(masks[k] for k in order)
        items = cat._summands
        # the catalog indices of the module summands of each pair, in
        # element order
        self._module_summands: tuple[tuple[int, ...], ...] = tuple(
            tuple(items[b][1] for b in set_bits(walked[k]) if items[b][0] == "mod")
            for k in order
        )
        hasse = []
        for a, b in edges:
            if (masks[a] & ~masks[b]) == 0:
                hasse.append((position[a], position[b]))
            elif (masks[b] & ~masks[a]) == 0:
                hasse.append((position[b], position[a]))
            else:
                raise RuntimeError("an exchange edge joins incomparable classes")
        hasse.sort()
        self._hasse = hasse
        self._members = cat.size()

    @cached_property
    def poset(self) -> FinitePoset:
        """The torsion classes ordered by inclusion, as frozensets of
        catalog indices, with the exchange edges as Hasse diagram."""
        classes = self.class_masks
        # t = Fac M for the module M of its pair, and Fac M lies in a
        # torsion class u iff M does; so up(t) is the intersection, over
        # the at most n module summands m of the pair, of the classes
        # holding m
        holding = transpose_masks(classes, self._members)
        up = []
        for summands in self._module_summands:
            u = (1 << len(classes)) - 1
            for m in summands:
                u &= holding[m]
            up.append(u)
        elements = [frozenset(set_bits(t)) for t in classes]
        return FinitePoset.from_hasse(elements, up, self._hasse)


def enumerate_stt(q: Quiver) -> list[SttPair]:
    """All basic support tau-tilting pairs of a Dynkin quiver, sorted; the
    exhaustive search and the mutation walk must agree.  The list is
    fresh, read from the catalog's record (`tau_tilting`)."""
    return list(tau_tilting(q).pairs)


def _pair_sort_key(p: SttPair):
    return sorted(p)


def pair_module(cat: Catalog, p: SttPair) -> Rep | None:
    """Direct sum of the module summands, or None for the all-shifted pair."""
    mods = [cat.modules[i] for kind, i in sorted(p) if kind == "mod"]
    return direct_sum(mods) if mods else None


def fac_class(q: Quiver, p: SttPair) -> TorsionClassModel:
    """Torsion class Fac(M) of the pair (M, P), as the set of catalog
    indices it generates, read from the catalog tables by the identity
    Fac M = ⊥(τM) ∩ P^⊥ (Adachi-Iyama-Reiten, arXiv:1210.1036, §2).  The
    all-shifted pair gives the empty class: every module lies outside
    some P_v^⊥."""
    cat = catalog(q)
    inside = (1 << cat.size()) - 1
    for s in p:
        inside &= cat.fac_masks[s]
    return frozenset(i for i in range(cat.size()) if inside >> i & 1)


def tc_perp(q: Quiver, t: TorsionClassModel) -> frozenset[int]:
    """Right perpendicular: catalog members receiving no nonzero map from t."""
    cat = catalog(q)
    return frozenset(
        x
        for x in range(cat.size())
        if all(cat.hom(m, x) == 0 for m in t)
    )


def tc_left_perp(q: Quiver, f: frozenset[int]) -> TorsionClassModel:
    cat = catalog(q)
    return frozenset(
        x
        for x in range(cat.size())
        if all(cat.hom(x, m) == 0 for m in f)
    )


def tc_meet(q: Quiver, ts: list[TorsionClassModel]) -> TorsionClassModel:
    out = frozenset(range(catalog(q).size()))
    for t in ts:
        out &= t
    return out


def tc_join(q: Quiver, ts: list[TorsionClassModel]) -> TorsionClassModel:
    inter = frozenset(range(catalog(q).size()))
    for t in ts:
        inter &= tc_perp(q, t)
    return tc_left_perp(q, inter)


@dataclass
class SpotcheckReport:
    quotient_violations: list[tuple[int, int]] = field(default_factory=list)
    extension_violations: list[tuple[int, int]] = field(default_factory=list)

    def ok(self) -> bool:
        return not self.quotient_violations and not self.extension_violations


def torsion_axiom_spotcheck(
    q: Quiver,
    t: TorsionClassModel,
    generator: Rep | None,
    surjection_table: dict[tuple[int, int], bool] | None = None,
) -> SpotcheckReport:
    """Closure checks for a finite torsion-class model: every catalog
    quotient of a member is a member, and every extension middle term of
    two members is generated by the class generator."""
    cat = catalog(q)
    report = SpotcheckReport()
    for x in sorted(t):
        for y in range(cat.size()):
            if y in t:
                continue
            if surjection_table is not None:
                surj = surjection_table[x, y]
            else:
                surj = exists_surjection(cat.modules[x], cat.modules[y])
            if surj:
                report.quotient_violations.append((x, y))
    if generator is not None:
        for zi in sorted(t):
            z = cat.modules[zi]
            for xi in sorted(t):
                x = cat.modules[xi]
                for coc in cat.ext_cocycles[xi, zi]:
                    e, _, _ = extension_realize(x, z, coc)
                    if not gen_contains(generator, e):
                        report.extension_violations.append((zi, xi))
                        break
    return report


def surjection_table(q: Quiver) -> dict[tuple[int, int], bool]:
    """exists_surjection for every ordered pair of catalog members, computed
    once and shared by all spot-checks."""
    cat = catalog(q)
    table = {}
    for x in range(cat.size()):
        for y in range(cat.size()):
            table[x, y] = exists_surjection(cat.modules[x], cat.modules[y])
    return table


def stt_pairs_to_json(q: Quiver, pairs: list[SttPair]) -> str:
    cat = catalog(q)
    out = []
    for p in pairs:
        entry = {
            "modules": [list(cat.roots[i]) for k, i in sorted(p) if k == "mod"],
            "shifted_projectives": [i for k, i in sorted(p) if k == "proj"],
        }
        out.append(entry)
    return json.dumps({"count": len(pairs), "pairs": out}, indent=2)
