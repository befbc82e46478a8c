"""Reference uniserial tower by a scan of Ext^1 of the growing level.

This is the route `qtors.families.uniserial_tower` took before it lifted
the top's cocycle: every step builds Ext^1(U, X_l) from the intertwining
matrix of the whole level X_l and takes the first of its cocycles whose
pushforward along the top surjection X_l -> T is not a coboundary in
Ext^1(U, T).  It is kept only as a test oracle for the tower's levels.
"""

from __future__ import annotations

from qtors import Matrix
from qtors.families import TowerLevel, WildWitness
from qtors.rep import ExtGroup, extension_realize


def scan_tower(w: WildWitness, lmax: int) -> list[TowerLevel]:
    """Tower X_1 = M, X_{l+1} = middle term of the first cocycle of
    Ext^1(U, X_l) with a nonzero pushforward to Ext^1(U, T); tops alternate
    starting with M."""
    simples = {"M": w.m, "N": w.n}
    levels = [
        TowerLevel(w.m, "M", tuple(Matrix.identity(d) for d in w.m.dims), False)
    ]
    while len(levels) < lmax:
        cur = levels[-1]
        other = "N" if cur.top == "M" else "M"
        u = simples[other]
        ext_big = ExtGroup(cur.rep, u)
        ext_top = ExtGroup(simples[cur.top], u)
        chosen = None
        for coc in ext_big.cocycles:
            # pushforward along the top map f: (f_t eta_a) per arrow a: s -> t
            pushed = tuple(
                cur.top_map[t - 1] * eta for (_, t), eta in zip(u.quiver.arrows, coc)
            )
            if not ext_top.is_coboundary(pushed):
                chosen = coc
                break
        if chosen is None:
            raise RuntimeError("no cocycle with nonzero pushforward")
        e, _, pi = extension_realize(cur.rep, u, chosen)
        levels.append(TowerLevel(e, other, pi, ext_big.is_coboundary(chosen)))
    return levels
