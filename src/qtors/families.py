"""Desk-scale windows into the two infinite-type phenomena: the chain of
torsion classes of the multi-arrow Kronecker quiver, and the wild 3-vertex
witness pair whose Filt-closure generates a non-functorially-finite torsion
class, exhibited through a uniserial tower."""

from __future__ import annotations

from dataclasses import dataclass, field

from .forms import forms_context, triple_quiver, wild_triple_euler_value
from .linalg import Matrix
from .quiver import Quiver, QuiverError, classify
from .rep import (
    ExtGroup,
    Morphism,
    Rep,
    ar_translate,
    ar_translate_inverse,
    direct_sum,
    dualize,
    ext1_dim,
    extension_realize,
    gen_contains,
    hom_dim,
    is_brick,
    is_rigid,
    projective_rep,
    reflect,
    simple_rep,
)


# -- Kronecker window ---------------------------------------------------------


def kronecker_quiver(n: int) -> Quiver:
    return Quiver(2, ((1, 2),) * n)


@dataclass
class KroneckerWindow:
    """First `depth` preprojectives (A) and preinjectives (B) of the
    n-arrow Kronecker quiver.  The preprojectives come from Coxeter
    iteration; the preinjectives are their mirror images under the duality
    composed with the arrow-reversing vertex swap (an isomorphism of the
    Kronecker quiver with its opposite), which keeps the two sides in exact
    matrix-level correspondence."""

    n: int
    depth: int
    quiver: Quiver
    preprojectives: list[Rep]
    preinjectives: list[Rep]


_KRONECKER_SWAP = {1: 2, 2: 1}


def _kronecker_mirror(x: Rep, q: Quiver) -> Rep:
    return _relabel(dualize(x), q, _KRONECKER_SWAP)


# Largest dim A_1 + ... + dim A_depth that `kronecker_window` admits.
WINDOW_LIMIT = 1500


def kronecker_window(n: int, depth: int) -> KroneckerWindow:
    """The window of the n-arrow Kronecker quiver at the given depth.

    Size limit: the total dimension of the preprojectives A_1, ..., A_depth
    may be at most WINDOW_LIMIT, else ValueError.  It is read off the Coxeter
    recursion before any module is built: dim A_k = (x_{k-1}, x_k) with
    x_0 = 0, x_1 = 1 and x_{k+1} = n x_k - x_{k-1}, and the recursion stops
    as soon as the sum passes the limit.  The cost of the chain check
    follows that sum rather than the deepest member alone, since for n = 2
    the members grow linearly but the Gen tests quadratically with the
    depth.  n = 2 at depth 38 and n = 4 at depth 6 sit just below the
    limit and take about 12 s each; n = 3 at depth 8 (sum 2205, about 60 s
    and 2.9 GB) is refused."""
    if n < 2:
        raise ValueError("Kronecker window needs at least 2 arrows")
    if depth < 2:
        raise ValueError("window depth must be at least 2")
    x0, x1, total = 0, 1, 1
    for k in range(2, depth + 1):
        x0, x1 = x1, n * x1 - x0
        total += x0 + x1
        if total > WINDOW_LIMIT:
            raise ValueError(
                f"window too large: dim A_1 + ... + dim A_{k} = {total} "
                f"exceeds the limit of {WINDOW_LIMIT}"
            )
    q = kronecker_quiver(n)
    a = [simple_rep(q, 2), projective_rep(q, 1)]
    while len(a) < depth:
        a.append(ar_translate_inverse(a[-2]))
    a = a[:depth]
    b = [_kronecker_mirror(x, q) for x in a]
    return KroneckerWindow(n, depth, q, a, b)


@dataclass
class KroneckerReport:
    dims_preprojective: list[tuple[int, ...]]
    dims_preinjective: list[tuple[int, ...]]
    all_bricks: bool
    consecutive_pairs_rigid: bool
    chain_inclusions_hold: bool
    top_class_is_everything: bool
    bottom_generates_only_itself: bool
    failures: list[str] = field(default_factory=list)

    def ok(self) -> bool:
        return not self.failures


def kronecker_chain_check(w: KroneckerWindow) -> KroneckerReport:
    """Window-expressible content of the two-vertex chain: Coxeter dims,
    bricks, rigidity of consecutive pairs, the descending Fac-inclusions on
    window members, the top class Fac(A1 + A2) = Fac(kQ) being everything,
    and Fac(A1) containing no other window member."""
    failures: list[str] = []
    ctx = forms_context(w.quiver)
    members = w.preprojectives + w.preinjectives

    # Coxeter recursion on dimension vectors
    for i in range(2, w.depth):
        want = ctx.tau_inverse_dimvec(list(w.preprojectives[i - 2].dims))
        if list(w.preprojectives[i].dims) != want:
            failures.append(f"preprojective {i} dims off the Coxeter recursion")
        want = ctx.tau_dimvec(list(w.preinjectives[i - 2].dims))
        if list(w.preinjectives[i].dims) != want:
            failures.append(f"preinjective {i} dims off the Coxeter recursion")

    # When the preinjective side is the exact relabeled dual of the
    # preprojective side, duality (which preserves Hom and Ext dimensions
    # with the arguments flipped) transports bricks and consecutive-pair
    # rigidity, so only one side needs computing.
    mirrored = all(
        _kronecker_mirror(x, w.quiver) == y
        for x, y in zip(w.preprojectives, w.preinjectives)
    )
    brick_side = w.preprojectives if mirrored else members
    all_bricks = all(is_brick(m) for m in brick_side)
    if not all_bricks:
        failures.append("non-brick window member")
    rigid_pairs = True
    rigid_series = (
        (w.preprojectives,) if mirrored else (w.preprojectives, w.preinjectives)
    )
    for series in rigid_series:
        for x, y in zip(series, series[1:]):
            if ext1_dim(x, y) or ext1_dim(y, x) or ext1_dim(x, x) or ext1_dim(y, y):
                rigid_pairs = False
                failures.append("consecutive pair not rigid")

    # T_{i+1} <= T_i on window members for i >= 2: Fac A_i within Fac A_{i-1}.
    # The Gen rows are filled from the highest index down; a quotient of a
    # quotient is a quotient, so A_{i+1} in Fac(A_i) makes every Fac(A_{i+1})
    # member a Fac(A_i) member, and only the entries not settled that way
    # are computed directly.
    a = w.preprojectives
    links = [gen_contains(a[i], a[i + 1]) for i in range(1, len(a) - 1)]
    gen_row: list[dict[int, bool]] = [dict() for _ in a]
    for i in range(len(a) - 1, 0, -1):
        for mi, m in enumerate(members):
            if m is a[i]:
                gen_row[i][mi] = True
            elif i + 1 < len(a) and links[i - 1] and gen_row[i + 1][mi]:
                gen_row[i][mi] = True
            else:
                gen_row[i][mi] = gen_contains(a[i], m)
    chain_ok = True
    for i in range(2, len(a)):
        if gen_contains(a[i], a[i - 1]):
            chain_ok = False
            failures.append(f"Fac A_{i + 1} not strictly below Fac A_{i}")
        for mi, m in enumerate(members):
            if gen_row[i][mi] and not gen_row[i - 1][mi]:
                chain_ok = False
                failures.append(f"Fac inclusion fails at window member {m.dims}")

    top = direct_sum([w.preprojectives[0], w.preprojectives[1]])
    top_ok = all(gen_contains(top, m) for m in members)
    if not top_ok:
        failures.append("Fac(A1 + A2) misses a window member")

    bottom = w.preprojectives[0]
    bottom_ok = all(
        not gen_contains(bottom, m) for m in members if m.dims != bottom.dims
    )
    if not bottom_ok:
        failures.append("Fac A1 contains another window member")

    return KroneckerReport(
        [m.dims for m in w.preprojectives],
        [m.dims for m in w.preinjectives],
        all_bricks,
        rigid_pairs,
        chain_ok,
        top_ok,
        bottom_ok,
        failures,
    )


# -- wild 3-vertex witnesses --------------------------------------------------

# arrow-multiplicity patterns (mult 1->2, mult 2->3, mult 1->3) of the six
# orientation cases, as functions of the base parameters (a, b, c) with
# a >= 2, b >= 1, c >= 0
CASE_PATTERNS: dict[str, tuple[int, int, int]] = {
    "i": (0, 1, 2),  # (a, b, c)
    "ii": (1, 2, 0),  # (b, c, a)
    "iii": (2, 0, 1),  # (c, a, b)
    "iv": (1, 0, 2),  # (b, a, c)
    "v": (2, 1, 0),  # (c, b, a)
    "vi": (0, 2, 1),  # (a, c, b)
}
CASE_ORDER = ["i", "ii", "iii", "iv", "v", "vi"]


@dataclass
class WildWitness:
    quiver: Quiver
    m: Rep
    n: Rep
    case: str
    abc: tuple[int, int, int]
    report: WitnessReport | None = None  # set by build_wild_witness


def case_quiver(case: str, a: int, b: int, c: int) -> Quiver:
    perm = CASE_PATTERNS[case]
    abc = (a, b, c)
    return triple_quiver(abc[perm[0]], abc[perm[1]], abc[perm[2]])


def detect_case(q: Quiver) -> tuple[str, tuple[int, int, int]]:
    """Match a 3-vertex quiver (arrows only in positions 1->2, 2->3, 1->3)
    against the six orientation cases; earliest case wins."""
    mult = {12: 0, 23: 0, 13: 0}
    for s, t in q.arrows:
        key = 10 * s + t
        if key not in mult:
            raise QuiverError("quiver vertices are not numbered topologically")
        mult[key] += 1
    triple = (mult[12], mult[23], mult[13])
    for case in CASE_ORDER:
        perm = CASE_PATTERNS[case]
        abc = [0, 0, 0]
        for slot, m in zip(perm, triple):
            abc[slot] = m
        a, b, c = abc
        if a >= 2 and b >= 1:
            return case, (a, b, c)
    raise QuiverError(f"no orientation case matches multiplicities {triple}")


def _relabel(rep: Rep, target: Quiver, vertex_map: dict[int, int]) -> Rep:
    """Transport a representation along a quiver isomorphism onto `target`.

    vertex_map sends vertices of rep.quiver to vertices of target; arrows
    must correspond bijectively under it.
    """
    src = rep.quiver
    dims = [0] * target.n
    for v in range(1, src.n + 1):
        dims[vertex_map[v] - 1] = rep.dim(v)
    assignment: list[int | None] = [None] * len(target.arrows)
    used = [False] * len(src.arrows)
    for ti, (ts, tt) in enumerate(target.arrows):
        for si, (ss, st) in enumerate(src.arrows):
            if used[si]:
                continue
            if vertex_map[ss] == ts and vertex_map[st] == tt:
                assignment[ti] = si
                used[si] = True
                break
        if assignment[ti] is None:
            raise QuiverError("vertex map is not a quiver isomorphism")
    maps = tuple(rep.arrow_maps[assignment[ti]] for ti in range(len(target.arrows)))
    return Rep(target, tuple(dims), maps)


def _case_i_witness(a: int, b: int, c: int) -> WildWitness:
    """M = projective of the a-arrow subquiver on {1, 2} extended by zero,
    N = tau(M)."""
    q = triple_quiver(a, b, c)
    dims = (1, a, 0)
    maps = []
    k = 0
    for s, t in q.arrows:
        if (s, t) == (1, 2):
            col = [[1 if i == k else 0] for i in range(a)]
            maps.append(Matrix(a, 1, col))
            k += 1
        else:
            maps.append(Matrix.zero(dims[t - 1], dims[s - 1]))
    m = Rep(q, dims, tuple(maps))
    n = ar_translate(m)
    return WildWitness(q, m, n, "i", (a, b, c))


# Largest n = ab + c of a witness that `build_wild_witness` admits.  Every
# case first builds the case-(i) pair, whose N has dim (n**2 - 1, b*n, n).
WITNESS_LIMIT = 47


def build_wild_witness(q: Quiver) -> WildWitness:
    """Witness pair (M, N) on a connected wild 3-vertex quiver: built
    directly in case (i), transported along a reflection functor for cases
    (ii)/(iii), and by the k-dual for (iv)/(v)/(vi).  Verified before
    returning; the report is kept on the witness."""
    if q.n != 3 or not q.is_connected():
        raise QuiverError("witness construction needs a connected 3-vertex quiver")
    if classify(q).tag != "Wild":
        raise QuiverError("witness construction needs a wild quiver")
    case, (a, b, c) = detect_case(q)
    if a * b + c > WITNESS_LIMIT:
        raise QuiverError(
            f"witness too large: n = ab + c = {a * b + c} exceeds the limit of {WITNESS_LIMIT}"
        )
    w = _build_case(case, a, b, c)
    target = _relabel_onto(w, q)
    target.report = verify_witness(target)
    if not target.report.ok():
        raise RuntimeError(
            f"witness verification failed: {target.report.failures}"
        )
    return target


def _relabel_onto(w: WildWitness, q: Quiver) -> WildWitness:
    ident = {1: 1, 2: 2, 3: 3}
    return WildWitness(q, _relabel(w.m, q, ident), _relabel(w.n, q, ident), w.case, w.abc)


def _build_case(case: str, a: int, b: int, c: int) -> WildWitness:
    if case == "i":
        return _case_i_witness(a, b, c)
    if case in ("ii", "iii"):
        base = _case_i_witness(a, b, c)
        if case == "ii":
            # reflect at the source 1 of case (i), relabel (1,2,3)->(3,1,2)
            vm = {1: 3, 2: 1, 3: 2}
            m = reflect(base.m, 1)
            n = reflect(base.n, 1)
        else:
            # reflect at the sink 3 of case (i), relabel (1,2,3)->(2,3,1)
            vm = {1: 2, 2: 3, 3: 1}
            m = reflect(base.m, 3)
            n = reflect(base.n, 3)
        target = case_quiver(case, a, b, c)
        return WildWitness(
            target, _relabel(m, target, vm), _relabel(n, target, vm), case, (a, b, c)
        )
    if case in ("iv", "v", "vi"):
        dual_of = {"iv": "i", "v": "ii", "vi": "iii"}[case]
        base = _build_case(dual_of, a, b, c)
        vm = {1: 3, 2: 2, 3: 1}
        dm, dn = dualize(base.m), dualize(base.n)
        target = case_quiver(case, a, b, c)
        return WildWitness(
            target, _relabel(dm, target, vm), _relabel(dn, target, vm), case, (a, b, c)
        )
    raise ValueError(f"unknown case {case!r}")


@dataclass
class WitnessReport:
    hom_mn: int
    hom_nm: int
    ext_mn: int
    ext_nm: int
    end_m: int
    end_n: int
    rigid_m: bool
    rigid_n: bool
    euler_nm: int
    closed_form: int | None
    failures: list[str] = field(default_factory=list)

    def ok(self) -> bool:
        return not self.failures


def verify_witness(w: WildWitness) -> WitnessReport:
    """Check the five Hom/Ext/End conditions, rigidity, and (in case (i))
    the Euler-form closed form on the witness pair."""
    failures = []
    hom_mn = hom_dim(w.m, w.n)
    hom_nm = hom_dim(w.n, w.m)
    ext_mn = ext1_dim(w.m, w.n)
    ext_nm = ext1_dim(w.n, w.m)
    end_m = hom_dim(w.m, w.m)
    end_n = hom_dim(w.n, w.n)
    rigid_m = is_rigid(w.m)
    rigid_n = is_rigid(w.n)
    ctx = forms_context(w.quiver)
    euler_nm = ctx.euler_form(list(w.n.dims), list(w.m.dims))
    closed = None
    if hom_mn != 0:
        failures.append(f"Hom(M, N) = {hom_mn}, expected 0")
    if hom_nm != 0:
        failures.append(f"Hom(N, M) = {hom_nm}, expected 0")
    if ext_mn < 1:
        failures.append("Ext^1(M, N) vanishes")
    if ext_nm < 1:
        failures.append("Ext^1(N, M) vanishes")
    if end_m != 1:
        failures.append(f"End(M) has dimension {end_m}, expected 1")
    if end_n != 1:
        failures.append(f"End(N) has dimension {end_n}, expected 1")
    if not rigid_m:
        failures.append("M is not rigid")
    if not rigid_n:
        failures.append("N is not rigid")
    if w.case == "i":
        a, b, c = w.abc
        closed = wild_triple_euler_value(a, b, c)
        expected_n = (
            a * a * b * b + 2 * a * b * c + c * c - 1,
            a * b * b + b * c,
            a * b + c,
        )
        if w.n.dims != expected_n:
            failures.append(f"dim N = {w.n.dims}, expected {expected_n}")
        if euler_nm != closed:
            failures.append(
                f"Euler form {euler_nm} does not match closed form {closed}"
            )
        if closed >= 0:
            failures.append("closed form is not negative")
    return WitnessReport(
        hom_mn, hom_nm, ext_mn, ext_nm, end_m, end_n, rigid_m, rigid_n,
        euler_nm, closed, failures,
    )


# -- uniserial tower ----------------------------------------------------------


@dataclass
class TowerLevel:
    rep: Rep
    top: str  # "M" or "N"
    top_map: Morphism  # surjection rep -> (M or N)
    split: bool


def uniserial_tower(w: WildWitness, lmax: int) -> list[TowerLevel]:
    """Tower X_1 = M, X_{l+1} = middle term of an extension of the opposite
    simple U by X_l whose pushforward along the top surjection f: X_l -> T
    is a nonzero class in Ext^1(U, T); tops alternate starting with M.

    Each step lifts the first cocycle eta of Ext^1(U, T), built once per
    top.  f is the projection [0 I] onto the last block of X_l, so the
    lift ([0; eta_a]) is a cocycle of Ext^1(U, X_l) with pushforward eta.
    Ext^2 = 0 over a hereditary algebra, so f_* is onto and nothing is lost;
    a split extension has a split pushforward, so the lift does not split."""
    if lmax < 1:
        raise ValueError("tower length must be at least 1")
    simples = {"M": w.m, "N": w.n}
    ext_top: dict[str, ExtGroup] = {}
    levels = [
        TowerLevel(w.m, "M", tuple(Matrix.identity(d) for d in w.m.dims), False)
    ]
    while len(levels) < lmax:
        cur = levels[-1]
        other = "N" if cur.top == "M" else "M"
        top, u = simples[cur.top], simples[other]
        if cur.top not in ext_top:
            ext_top[cur.top] = ExtGroup(top, u)
        ext = ext_top[cur.top]
        pad = [x - y for x, y in zip(cur.rep.dims, top.dims)]
        lifted = tuple(
            Matrix.vstack([Matrix.zero(pad[t - 1], eta.cols), eta])
            for (_, t), eta in zip(w.quiver.arrows, ext.cocycles[0])
        )
        pushed = tuple(cur.top_map[t - 1] * m for (_, t), m in zip(w.quiver.arrows, lifted))
        split = ext.is_coboundary(pushed)
        if split:
            raise RuntimeError("tower step extension split")
        e, _, pi = extension_realize(cur.rep, u, lifted)
        if e.dims != tuple(x + y for x, y in zip(cur.rep.dims, u.dims)):
            raise RuntimeError("tower dimension bookkeeping failed")
        levels.append(TowerLevel(e, other, pi, split))
    return levels


@dataclass
class NonFFReport:
    gen_results: list[bool]
    hom_dims: list[int]
    tower: list[TowerLevel]

    def ok(self) -> bool:
        return not any(self.gen_results)


# Largest dim X_1 + ... + dim X_L that `nonff_evidence` admits.
TOWER_LIMIT = 1000


def nonff_evidence(w: WildWitness, lmax: int) -> NonFFReport:
    """Finite-stage shadow of non-functorial-finiteness: the sum of the
    first l tower levels never generates level l+1.

    Size limit, read off dim M, dim N and lmax before any level is built:
    dim X_1 + ... + dim X_lmax is at most TOWER_LIMIT, or ValueError; X_l
    has the dimension of ceil(l/2) copies of M and floor(l/2) of N.  The
    Gen checks follow that sum, and the Ext groups of the tops grow with
    dim N: the heaviest admitted input found, (29,1,0) at length 2 (sum
    958, an Ext^1(N, M) of 706440 cocycle coordinates), takes about 3.4 s
    and 300 MB."""
    total = 0
    for l in range(1, lmax + 1):
        total += (l + 1) // 2 * sum(w.m.dims) + l // 2 * sum(w.n.dims)
        if total > TOWER_LIMIT:
            raise ValueError(
                f"tower too large: dim X_1 + ... + dim X_{l} = {total} "
                f"exceeds the limit of {TOWER_LIMIT}"
            )
    tower = uniserial_tower(w, lmax)
    gen_results = []
    homs = []
    for l in range(1, len(tower)):
        partial = direct_sum([lvl.rep for lvl in tower[:l]])
        target = tower[l].rep
        gen_results.append(gen_contains(partial, target))
        homs.append(hom_dim(partial, target))
    return NonFFReport(gen_results, homs, tower)
