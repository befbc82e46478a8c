"""Support tau-tilting pairs for Dynkin quivers and the resulting finite
torsion-class model: enumeration (two independent strategies), mutation
neighborhoods, Fac-classes, perpendicular categories and meet/join."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

from .forms import forms_context
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
    def ext_cocycles(self) -> dict[tuple[int, int], list[Morphism]]:
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
    items = cat.summands()
    index = cat.summand_index
    nbr = cat.compat_masks
    outside = (1 << len(items)) - 1
    for w in p:
        outside &= ~(1 << index[w])
    out = []
    for u in sorted(p):
        rest = p - {u}
        completions = outside
        for r in rest:
            completions &= nbr[index[r]]
        found = completions.bit_count()
        if found != 1:
            raise RuntimeError(f"expected a unique exchange partner, got {found}")
        out.append(rest | {items[completions.bit_length() - 1]})
    return out


def enumerate_stt_mutation(q: Quiver) -> set[SttPair]:
    """Breadth-first mutation walk from the all-projectives pair."""
    cat = catalog(q)
    start = frozenset(
        ("mod", cat.index_of_dims(projective_rep(q, v).dims))
        for v in range(1, q.n + 1)
    )
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for p in frontier:
            for m in mutations(q, p):
                if m not in seen:
                    seen.add(m)
                    nxt.append(m)
        frontier = nxt
    return seen


def enumerate_stt(q: Quiver) -> list[SttPair]:
    """All basic support tau-tilting pairs of a Dynkin quiver; the
    exhaustive search and the mutation walk must agree."""
    exhaustive = enumerate_stt_exhaustive(q)
    walked = enumerate_stt_mutation(q)
    if exhaustive != walked:
        raise RuntimeError("enumeration strategies disagree")
    return sorted(exhaustive, key=_pair_sort_key)


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
