"""Quiver representations over the rationals and the module-level
computations built on them: Hom spaces, Ext groups via projective
presentations, BGP reflection functors, the Auslander-Reiten translate as a
Coxeter functor, Gen-membership, surjection search and extension
realization."""

from __future__ import annotations

import itertools
import random
import weakref
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

import numpy as np

from .forms import forms_context
from .linalg import Matrix, complement_indices, extend_to_basis
from .modkernel import (
    PRIMES,
    ModKernel,
    ReconstructionError,
    echelon_mod_p,
    int_array,
    max_abs,
)
from .quiver import Quiver, QuiverError, opposite

DEFAULT_SEED = 0

# randomized-search policy: Zariski-open conditions (surjectivity,
# invertibility) are tried on random combinations first, then on a
# deterministic coefficient grid before answering "no"
RANDOM_TRIALS = 32
RANDOM_BOUND = 7
FALLBACK_RANGE = range(-2, 3)

Morphism = tuple[Matrix, ...]  # one matrix per vertex, maps X_v -> Y_v


@dataclass(frozen=True)
class Rep:
    """Representation: one vector space dimension per vertex and one matrix
    per arrow, matrix shapes dims[target] x dims[source]."""

    quiver: Quiver
    dims: tuple[int, ...]
    arrow_maps: tuple[Matrix, ...]

    def __post_init__(self):
        q = self.quiver
        if len(self.dims) != q.n:
            raise ValueError("dims length must match vertex count")
        if len(self.arrow_maps) != len(q.arrows):
            raise ValueError("one matrix per arrow required")
        for (s, t), m in zip(q.arrows, self.arrow_maps):
            if (m.rows, m.cols) != (self.dims[t - 1], self.dims[s - 1]):
                raise ValueError(
                    f"arrow ({s},{t}) map is {m.rows}x{m.cols}, "
                    f"expected {self.dims[t - 1]}x{self.dims[s - 1]}"
                )

    def dim(self, v: int) -> int:
        return self.dims[v - 1]

    def total_dim(self) -> int:
        return sum(self.dims)

    def is_zero(self) -> bool:
        return all(d == 0 for d in self.dims)

    def path_map(self, path: tuple[int, ...], start: int) -> Matrix:
        """Composite of arrow maps along a path (arrow indices, earliest
        first); the empty path is the identity at `start`."""
        m = Matrix.identity(self.dim(start))
        for a in path:
            m = self.arrow_maps[a] * m
        return m

    # Derived data of the reduced Hom engine, computed on first use and kept
    # in the instance dict, so it is freed together with the representation.
    # No value refers back to its owner.

    @cached_property
    def _rescaled(self) -> Rep | None:
        """Isomorphic copy with integer maps; None when already integer."""
        return _rescale_to_integers(self)

    @cached_property
    def _dual(self) -> Rep:
        return dualize(self)

    @cached_property
    def _presentation(self) -> _TopPresentation:
        return _top_presentation(self)

    @cached_property
    def _np_paths(self) -> dict[tuple[int, tuple[int, ...]], np.ndarray]:
        return {}

    @cached_property
    def _pair_data(self) -> dict[int, tuple[weakref.ref, dict]]:
        """Per-pair data with this representation as first argument, keyed by
        the id of the second and held with only a weak reference to it."""
        return {}


def zero_rep(q: Quiver) -> Rep:
    return Rep(q, (0,) * q.n, tuple(Matrix.zero(0, 0) for _ in q.arrows))


def _paths_from(q: Quiver, start: int) -> dict[int, list[tuple[int, ...]]]:
    """All directed paths starting at `start`, grouped by end vertex, as
    tuples of arrow indices in a deterministic DFS order."""
    paths: dict[int, list[tuple[int, ...]]] = {v: [] for v in range(1, q.n + 1)}

    def walk(v: int, path: tuple[int, ...]):
        paths[v].append(path)
        for a in q.arrows_out(v):
            walk(q.arrows[a][1], path + (a,))

    walk(start, ())
    return paths


def projective_rep(q: Quiver, vertex: int) -> Rep:
    """Indecomposable projective at a vertex: basis at w = paths vertex->w,
    arrow maps append the arrow to the path."""
    paths = _paths_from(q, vertex)
    index = {v: {p: i for i, p in enumerate(paths[v])} for v in paths}
    dims = tuple(len(paths[v]) for v in range(1, q.n + 1))
    maps = []
    for a, (s, t) in enumerate(q.arrows):
        m = [[Fraction(0)] * dims[s - 1] for _ in range(dims[t - 1])]
        for j, p in enumerate(paths[s]):
            m[index[t][p + (a,)]][j] = Fraction(1)
        maps.append(Matrix(dims[t - 1], dims[s - 1], m))
    return Rep(q, dims, tuple(maps))


def simple_rep(q: Quiver, vertex: int) -> Rep:
    dims = tuple(1 if v == vertex else 0 for v in range(1, q.n + 1))
    maps = tuple(
        Matrix.zero(dims[t - 1], dims[s - 1]) for s, t in q.arrows
    )
    return Rep(q, dims, maps)


def injective_rep(q: Quiver, vertex: int) -> Rep:
    """Indecomposable injective, realized as the dual of the projective of
    the opposite quiver."""
    return dualize(projective_rep(opposite(q), vertex))


def direct_sum(reps: list[Rep]) -> Rep:
    if not reps:
        raise ValueError("direct sum of an empty list (pass zero_rep instead)")
    q = reps[0].quiver
    if any(r.quiver != q for r in reps):
        raise ValueError("direct sum requires a common quiver")
    dims = tuple(sum(r.dims[v] for r in reps) for v in range(q.n))
    maps = tuple(
        Matrix.block_diag([r.arrow_maps[a] for r in reps])
        for a in range(len(q.arrows))
    )
    return Rep(q, dims, maps)


# -- Hom and basic invariants ----------------------------------------------


def hom_basis(x: Rep, y: Rep) -> list[Morphism]:
    """Basis of Hom(x, y): solutions of all intertwining equations
    y_a . phi_s = phi_t . x_a."""
    q = x.quiver
    if y.quiver != q:
        raise ValueError("Hom requires representations of the same quiver")
    offsets = []
    nvars = 0
    for v in range(q.n):
        offsets.append(nvars)
        nvars += y.dims[v] * x.dims[v]

    def var(v: int, i: int, j: int) -> int:  # phi_v[i][j], v zero-based
        return offsets[v] + i * x.dims[v] + j

    rows: list[list[Fraction]] = []
    for a, (s, t) in enumerate(q.arrows):
        s -= 1
        t -= 1
        xa, ya = x.arrow_maps[a], y.arrow_maps[a]
        for i in range(y.dims[t]):
            for j in range(x.dims[s]):
                row = [Fraction(0)] * nvars
                for c in range(x.dims[t]):
                    row[var(t, i, c)] += -xa[c, j]
                for c in range(y.dims[s]):
                    row[var(s, c, j)] += ya[i, c]
                if any(e != 0 for e in row):
                    rows.append(row)
    if rows:
        kernel = Matrix(len(rows), nvars, rows).kernel_basis()
    else:
        kernel = Matrix.zero(0, nvars).kernel_basis()
    basis = []
    for vec in kernel:
        mats = []
        for v in range(q.n):
            o = offsets[v]
            mats.append(
                Matrix(
                    y.dims[v],
                    x.dims[v],
                    [
                        vec[o + i * x.dims[v] : o + (i + 1) * x.dims[v]]
                        for i in range(y.dims[v])
                    ],
                )
            )
        basis.append(tuple(mats))
    return basis


def hom_dim(x: Rep, y: Rep) -> int:
    """dim Hom(x, y) from the reduced Hom system, kept on x for the pair
    (`_pair_memo`).  The modular upper bound meets the Euler-form lower
    bound (dim Hom >= <dim x, dim y> over a hereditary algebra) in the
    common rigid cases; otherwise every solution of the reduced system is
    lifted and verified, which pins the dimension exactly."""
    if x.quiver != y.quiver:
        raise ValueError("Hom requires representations of the same quiver")
    memo = _pair_memo(x, y)
    if "dim" not in memo:
        lower = max(forms_context(x.quiver).euler_form(list(x.dims), list(y.dims)), 0)
        sys = _best_dim_system(_integer_form(x), _integer_form(y))
        if sys.upper != lower:
            sys.refine()
        memo["dim"] = lower if sys.upper == lower else sum(1 for _ in sys.solutions())
    return memo["dim"]


def compose(g: Morphism, f: Morphism) -> Morphism:
    """g after f, vertexwise."""
    return tuple(gm * fm for gm, fm in zip(g, f))


def morphism_combination(basis: list[Morphism], coeffs: list[Fraction]) -> Morphism:
    n_vertices = len(basis[0])
    out = []
    for v in range(n_vertices):
        acc = basis[0][v].scale(coeffs[0])
        for m, c in zip(basis[1:], coeffs[1:]):
            acc = acc + m[v].scale(c)
        out.append(acc)
    return tuple(out)


def ext1_dim(x: Rep, y: Rep) -> int:
    """dim Ext^1(x, y) = dim Hom(x, y) - <dim x, dim y> (hereditary)."""
    if x.quiver != y.quiver:
        raise ValueError("Ext requires representations of the same quiver")
    ctx = forms_context(x.quiver)
    val = hom_dim(x, y) - ctx.euler_form(list(x.dims), list(y.dims))
    if val < 0:
        raise RuntimeError("negative Ext dimension: internal inconsistency")
    return val


def is_brick(x: Rep) -> bool:
    return hom_dim(x, x) == 1


def is_rigid(x: Rep) -> bool:
    return ext1_dim(x, x) == 0


def is_tau_rigid(x: Rep) -> bool:
    return hom_dim(x, ar_translate(x)) == 0


# -- projective presentations and Ext via cocycles ---------------------------


@dataclass(frozen=True)
class PresentationData:
    """Minimal projective presentation 0 -> K -> P0 -> Z -> 0, with
    P0 = P(tops[0]) + P(tops[1]) + ... in that summand order."""

    p0: Rep
    epi: Morphism
    kernel: Rep
    incl: Morphism
    tops: tuple[int, ...]


def radical_generators(z: Rep, v: int) -> Matrix:
    """Columns spanning the radical of z at vertex v: the images of all
    incoming arrow maps."""
    incoming = [z.arrow_maps[a] for a in z.quiver.arrows_in(v)]
    if not incoming:
        return Matrix.zero(z.dim(v), 0)
    return Matrix.hstack(incoming)


def projective_presentation(z: Rep) -> PresentationData:
    """P0 = direct sum of projectives lifting a basis of top Z; kernel taken
    vertexwise with induced arrow maps (first syzygy, minimal since the
    generators complement the radical)."""
    q = z.quiver
    if z.is_zero():
        raise ValueError("presentation of the zero representation")
    # choose generators: per vertex, standard basis vectors completing rad
    summands: list[tuple[int, list[Fraction]]] = []  # (vertex, generator in Z_v)
    for v in range(1, q.n + 1):
        comp = extend_to_basis(radical_generators(z, v))
        for col in comp.columns():
            summands.append((v, col))
    p0 = direct_sum([projective_rep(q, v) for v, _ in summands])
    paths = {v: _paths_from(q, v) for v in set(v for v, _ in summands)}
    # epi at each vertex: columns follow the direct-sum basis order
    epi = []
    for w in range(1, q.n + 1):
        cols: list[list[Fraction]] = []
        for v, gen in summands:
            for p in paths[v][w]:
                cols.append(z.path_map(p, v).apply(gen))
        epi.append(Matrix.from_columns(cols, nrows=z.dim(w)))
    for w in range(1, q.n + 1):
        if epi[w - 1].rank() != z.dim(w):
            raise RuntimeError("presentation epi not surjective")
    # kernel with induced maps
    incl = [Matrix.from_columns(epi[w].kernel_basis(), nrows=p0.dims[w]) for w in range(q.n)]
    kdims = tuple(m.cols for m in incl)
    kmaps = []
    for a, (s, t) in enumerate(q.arrows):
        carried = p0.arrow_maps[a] * incl[s - 1]
        cols = []
        for col in carried.columns():
            sol = incl[t - 1].solve(col)
            if sol is None:
                raise RuntimeError("kernel not arrow-stable")
            cols.append(sol)
        kmaps.append(Matrix.from_columns(cols, nrows=kdims[t - 1]))
    kernel = Rep(q, kdims, tuple(kmaps))
    tops = tuple(v for v, _ in summands)
    return PresentationData(p0, tuple(epi), kernel, tuple(incl), tops)


def _projective_hom_basis(pres: PresentationData, x: Rep) -> list[Morphism]:
    """Basis of Hom(P0, X): a morphism is fixed by the image of the top of
    each summand P(v_i), any vector of X_{v_i}.  The element for (i, j) sends
    the top of summand i to the j-th standard basis vector of X_{v_i} and the
    other tops to 0; at w it sends the path p of P(v_i)_w to column j of
    x.path_map(p, v_i), in the column order of `projective_presentation`."""
    q = x.quiver
    paths = {v: _paths_from(q, v) for v in set(pres.tops)}
    blocks = {
        (v, w): [x.path_map(p, v) for p in paths[v][w]]
        for v in paths
        for w in range(1, q.n + 1)
    }
    basis = []
    for i, v in enumerate(pres.tops):
        for j in range(x.dim(v)):
            f = []
            for w in range(1, q.n + 1):
                zero = [Fraction(0)] * x.dim(w)
                cols = [
                    m.col(j) if k == i else zero
                    for k, u in enumerate(pres.tops)
                    for m in blocks[u, w]
                ]
                f.append(Matrix.from_columns(cols, nrows=x.dim(w)))
            basis.append(tuple(f))
    return basis


class ExtGroup:
    """Ext^1(Z, X) computed as the cokernel of Hom(P0, X) -> Hom(K, X)
    along a fixed projective presentation of Z."""

    def __init__(self, x: Rep, z: Rep, presentation: PresentationData | None = None):
        if x.quiver != z.quiver:
            raise ValueError("Ext requires representations of the same quiver")
        self.x = x
        self.z = z
        if z.is_zero():
            self.presentation = None
            self.hom_k: list[Morphism] = []
            self._image = Matrix.zero(0, 0)
            self.dimension = 0
            self.cocycles: list[Morphism] = []
            return
        self.presentation = presentation or projective_presentation(z)
        pres = self.presentation
        self.hom_k = hom_basis(pres.kernel, x)
        # hom_k is the kernel_basis of the hom_basis system, whose variables
        # are ordered as _flatten orders entries: each element is 1 at its
        # own free variable, 0 at the others and non-zero elsewhere only at
        # pivot variables before its own, so its free variable is its last
        # non-zero entry, and the hom_k coordinates of any f in Hom(K, X)
        # are the entries of f at the free variables
        flat = [self._flatten(f) for f in self.hom_k]
        free = [max(i for i, e in enumerate(v) if e) for v in flat]
        if any(
            v[i] != (a == b) for a, v in enumerate(flat) for b, i in enumerate(free)
        ):
            raise RuntimeError("Hom(K, X) basis is not a canonical kernel basis")
        entries = [
            (v, i, j)
            for v in range(x.quiver.n)
            for i in range(x.dims[v])
            for j in range(pres.kernel.dims[v])
        ]
        self._free = [entries[i] for i in free]
        self._kmaps = [_int_form(m) for m in pres.kernel.arrow_maps]
        self._xmaps = [_int_form(m) for m in x.arrow_maps]
        incl = [_int_form(m) for m in pres.incl]
        restricted = (
            [(a @ b, da * db) for (a, da), (b, db) in zip(map(_int_form, f), incl)]
            for f in _projective_hom_basis(pres, x)
        )
        self._image = Matrix.from_columns(
            [self._coordinates(g) for g in restricted], nrows=len(self.hom_k)
        )
        # cocycle representatives: hom_k elements completing the image
        self.cocycles = [self.hom_k[i] for i in complement_indices(self._image)]
        self.dimension = len(self.cocycles)

    def _flatten(self, f: Morphism) -> list[Fraction]:
        return [e for m in f for e in m.entries()]

    def _coordinates(self, g: list[tuple[np.ndarray, int]]) -> list[Fraction]:
        """hom_k coordinates of a map K -> X in integer form (`_int_form`
        per vertex), after an exact check that it lies in Hom(K, X)."""
        for a, (s, t) in enumerate(self.x.quiver.arrows):
            (xa, dx), (ka, dk) = self._xmaps[a], self._kmaps[a]
            (gs, ds), (gt, dt) = g[s - 1], g[t - 1]
            # x_a g_s = g_t k_a with the denominators cross-multiplied
            if not ((xa @ gs) * (dt * dk) == (gt @ ka) * (dx * ds)).all():
                raise RuntimeError("morphism outside Hom(K, X)")
        return [Fraction(int(g[v][0][i, j]), g[v][1]) for v, i, j in self._free]

    def is_coboundary(self, cocycle: Morphism) -> bool:
        """True iff the class of the cocycle vanishes, i.e. the extension
        it realizes splits."""
        if self.presentation is None:
            return True
        coords = self._coordinates([_int_form(m) for m in cocycle])
        if self._image.cols == 0:
            return all(c == 0 for c in coords)
        return self._image.solve(coords) is not None


def ext1_via_presentation(x: Rep, z: Rep) -> tuple[int, list[Morphism]]:
    ext = ExtGroup(x, z)
    return ext.dimension, ext.cocycles


def extension_realize(
    x: Rep, z: Rep, cocycle: Morphism, presentation: PresentationData | None = None
) -> tuple[Rep, Morphism, Morphism]:
    """Middle term of the extension of Z by X classified by the cocycle
    K -> X: E = (X + P0) / graph, with the inclusion X -> E and projection
    E -> Z.  The sequence splits iff the cocycle is a coboundary."""
    pres = presentation or projective_presentation(z)
    q = x.quiver
    quot = []  # E_v <- X_v + P0_v
    sec = []  # section of quot
    for v in range(q.n):
        graph = Matrix.vstack([cocycle[v], -pres.incl[v]])
        if graph.rank() != graph.cols:
            raise RuntimeError("graph columns dependent")
        comp = extend_to_basis(graph)
        b = Matrix.hstack([graph, comp]) if graph.cols else comp
        binv = b.inverse()
        de = comp.cols
        quot.append(binv.submatrix(range(graph.cols, graph.cols + de), range(b.rows)))
        sec.append(comp)
    dims = tuple(m.rows for m in quot)
    maps = []
    for a, (s, t) in enumerate(q.arrows):
        big = Matrix.block_diag([x.arrow_maps[a], pres.p0.arrow_maps[a]])
        maps.append(quot[t - 1] * big * sec[s - 1])
    e = Rep(q, dims, tuple(maps))
    iota = tuple(
        quot[v] * Matrix.vstack([Matrix.identity(x.dims[v]), Matrix.zero(pres.p0.dims[v], x.dims[v])])
        for v in range(q.n)
    )
    pi = tuple(
        Matrix.hstack([Matrix.zero(z.dims[v], x.dims[v]), pres.epi[v]]) * sec[v]
        for v in range(q.n)
    )
    return e, iota, pi


# -- reflection functors and the AR translate --------------------------------


def _reflected_quiver(q: Quiver, vertex: int) -> Quiver:
    arrows = tuple(
        (t, s) if s == vertex or t == vertex else (s, t) for s, t in q.arrows
    )
    return Quiver(q.n, arrows)


def reflect(x: Rep, vertex: int) -> Rep:
    """BGP reflection at a sink or a source; the result lives over the
    quiver with the arrows at the vertex reversed.  At a sink the space is
    replaced by the kernel of the assembled incoming map, with the kernel
    coordinates as the new outgoing maps.  At a source the reflection is
    the k-dual of the sink reflection of the dual (Bernstein-Gelfand-
    Ponomarev), so one exact kernel computation serves both halves."""
    q = x.quiver
    if not q.is_sink(vertex):
        if q.is_source(vertex):
            return dualize(reflect(dualize(x), vertex))
        raise QuiverError(f"vertex {vertex} is neither a sink nor a source")
    arrows_at = q.arrows_in(vertex)
    blocks = [x.arrow_maps[a] for a in arrows_at]
    assembled = Matrix.hstack(blocks) if blocks else Matrix.zero(x.dim(vertex), 0)
    kernel = Matrix.from_columns(assembled.kernel_basis(), nrows=assembled.cols)
    dims = list(x.dims)
    dims[vertex - 1] = kernel.cols
    maps = list(x.arrow_maps)
    row0 = 0
    for a in arrows_at:
        s = q.arrows[a][0]
        maps[a] = kernel.submatrix(range(row0, row0 + x.dim(s)), range(kernel.cols))
        row0 += x.dim(s)
    return Rep(_reflected_quiver(q, vertex), tuple(dims), tuple(maps))


def dualize(x: Rep) -> Rep:
    """k-dual over the opposite quiver: same dimensions, transposed maps."""
    return Rep(
        opposite(x.quiver),
        x.dims,
        tuple(m.transpose() for m in x.arrow_maps),
    )


def ar_translate(x: Rep) -> Rep:
    """AR translate via the Coxeter functor: reflect at sinks along a
    reversed topological order.  Kills projective summands; on an
    indecomposable non-projective the dimension vector transforms by the
    Coxeter matrix."""
    order = x.quiver.topological_order()
    if order is None:
        raise ValueError("AR translate requires an acyclic quiver")
    cur = x
    for v in reversed(order):
        cur = reflect(cur, v)
    if cur.quiver != x.quiver:
        raise RuntimeError("reflections did not return to the quiver")
    return cur


def ar_translate_inverse(x: Rep) -> Rep:
    order = x.quiver.topological_order()
    if order is None:
        raise ValueError("AR translate requires an acyclic quiver")
    cur = x
    for v in order:
        cur = reflect(cur, v)
    if cur.quiver != x.quiver:
        raise RuntimeError("reflections did not return to the quiver")
    return cur


# -- surjections and isomorphism ---------------------------------------------


def _search_combination(basis: list[Morphism], accept, seed: int) -> bool:
    """Look for a linear combination of Hom basis elements passing `accept`;
    random rational trials first, then a deterministic small-integer grid."""
    if not basis:
        return False
    rng = random.Random(seed)
    m = len(basis)
    for _ in range(RANDOM_TRIALS):
        coeffs = [
            Fraction(rng.randint(-RANDOM_BOUND, RANDOM_BOUND), rng.randint(1, RANDOM_BOUND))
            for _ in range(m)
        ]
        if accept(morphism_combination(basis, coeffs)):
            return True
    for combo in itertools.product(FALLBACK_RANGE, repeat=m):
        if all(c == 0 for c in combo):
            continue
        if accept(morphism_combination(basis, [Fraction(c) for c in combo])):
            return True
    return False


def exists_surjection(x: Rep, y: Rep, seed: int = DEFAULT_SEED) -> bool:
    """True iff some morphism x -> y is surjective at every vertex."""
    if x.quiver != y.quiver:
        raise ValueError("surjection test requires a common quiver")
    if y.is_zero():
        return True
    if any(dx < dy for dx, dy in zip(x.dims, y.dims)):
        return False
    basis = hom_basis(x, y)

    def accept(phi: Morphism) -> bool:
        return all(
            phi[v].rank() == y.dims[v] for v in range(y.quiver.n) if y.dims[v] > 0
        )

    return _search_combination(basis, accept, seed)


def is_isomorphic(x: Rep, y: Rep, seed: int = DEFAULT_SEED) -> bool:
    if x.quiver != y.quiver:
        raise ValueError("isomorphism test requires a common quiver")
    if x.dims != y.dims:
        return False
    if x.is_zero():
        return True
    basis = hom_basis(x, y)

    def accept(phi: Morphism) -> bool:
        return all(
            phi[v].rank() == x.dims[v] for v in range(x.quiver.n) if x.dims[v] > 0
        )

    return _search_combination(basis, accept, seed)


# -- indecomposables of Dynkin quivers ---------------------------------------


def enumerate_indecomposables(q: Quiver) -> list[Rep]:
    """All indecomposables of a Dynkin quiver, one per isomorphism class,
    obtained by iterating the AR translate on the injectives (everything is
    preinjective in finite type).  Sorted by (total dimension, dimension
    vector); each entry is certified a brick."""
    from .quiver import classify

    if classify(q).tag != "Dynkin":
        raise QuiverError("indecomposable enumeration requires a Dynkin quiver")
    found: dict[tuple[int, ...], Rep] = {}
    for v in range(1, q.n + 1):
        cur = injective_rep(q, v)
        while not cur.is_zero():
            found.setdefault(cur.dims, cur)
            cur = ar_translate(cur)
    reps = sorted(found.values(), key=lambda r: (r.total_dim(), r.dims))
    for r in reps:
        if not is_brick(r):
            raise RuntimeError(f"non-brick in Dynkin enumeration: dims {r.dims}")
    return reps


# -- the reduced Hom system: Hom dimensions and Gen-membership ---------------
#
# Every Hom dimension and Gen test runs on a reduced linear system, never on
# the dense intertwining system of `hom_basis`, which only supplies morphism
# matrices to the callers that need them.  Fixing a projective presentation
# P1 -> P0 -> x -> 0, a morphism x -> y is a choice of images in y for the
# top generators of x, subject to one linear condition per kernel column of
# the presentation; the trace of x in y is then spanned by the path images
# of those generator images, so Gen-membership needs no decoded morphism
# matrices at all.  After rescaling both representations to integer form
# (an isomorphism, always possible over an acyclic quiver), the system has
# integer entries and its kernel is analyzed by qtors.modkernel: modular
# nullities are certified upper bounds, verified lifted vectors certified
# lower bounds, and every value returned here is exact.  The integer and
# dual forms, presentations and path maps are cached on the Rep they
# describe; Hom systems and dimensions on the first argument, keyed by a
# weak reference to the second (`_pair_memo`).

_GEN_LIFT_CAP = 24  # morphisms lifted before trying a quotient certificate
_GEN_RANDOM_TRIES = 6  # generic solutions absorbed before the column screen


def _den_lcm(m: Matrix) -> int:
    d = 1
    for e in m.entries():
        d = lcm(d, e.denominator)
    return d


def _int_form(m: Matrix) -> tuple[np.ndarray, int]:
    """m as (a, d) with m = a / d: d the lcm of the denominators and a an
    object array of Python ints, so products stay exact without Fraction
    arithmetic."""
    d = _den_lcm(m)
    a = np.empty((m.rows, m.cols), dtype=object)
    for i in range(m.rows):
        a[i, :] = [e.numerator * (d // e.denominator) for e in m.row(i)]
    return a, d


def _integer_form(x: Rep) -> Rep:
    return x._rescaled or x


def _rescale_to_integers(x: Rep) -> Rep | None:
    """Isomorphic copy with integer matrices: rescaling the basis at vertex
    v by a scalar s_v multiplies the map along an arrow by s_target/s_source,
    and along a topological order the targets can always absorb the
    denominators of their incoming maps."""
    q = x.quiver
    dens = [_den_lcm(m) for m in x.arrow_maps]
    if all(d == 1 for d in dens):
        return None
    order = q.topological_order()
    if order is None:
        raise ValueError("integer rescaling requires an acyclic quiver")
    scale = [1] * (q.n + 1)
    for v in order:
        s = 1
        for a in q.arrows_in(v):
            s = lcm(s, scale[q.arrows[a][0]] * dens[a])
        scale[v] = s
    maps = tuple(
        m.scale(Fraction(scale[t], scale[s]))
        for (s, t), m in zip(q.arrows, x.arrow_maps)
    )
    return Rep(q, x.dims, maps)


def _np_int(m: Matrix) -> np.ndarray:
    out = np.zeros((m.rows, m.cols), dtype=object)
    for i in range(m.rows):
        for j, e in enumerate(m.row(i)):
            out[i, j] = int(e)
    return out


def _np_path_map(x: Rep, path: tuple[int, ...], start: int) -> np.ndarray:
    """Composite of arrow maps along a path of an integer representation, as
    an integer ndarray; int64 matmul while an a-priori magnitude bound keeps
    the products exact, exact object arithmetic beyond that."""
    cache = x._np_paths
    key = (start, path)
    pm = cache.get(key)
    if pm is not None:
        return pm
    if not path:
        pm = np.eye(x.dim(start), dtype=np.int64)
    else:
        prev = _np_path_map(x, path[:-1], start)
        arr = _np_int(x.arrow_maps[path[-1]])
        if max_abs(arr) * max_abs(prev) * max(arr.shape[1], 1) < 2**62:
            pm = arr.astype(np.int64) @ prev.astype(np.int64)
        else:
            pm = arr @ prev.astype(object)
    cache[key] = pm
    return pm


def _complement_coords(r: Matrix) -> list[int]:
    """Indices of standard basis vectors completing the column space of an
    integer matrix, read off a mod-p echelon of [r | I].  The echelon always
    finds a full pivot set there, and full mod-p rank certifies full
    rational rank, so the chosen vectors provably complete the span; an
    unlucky prime can only make the choice non-minimal, never wrong."""
    d = r.rows
    if d == 0:
        return []
    if r.cols == 0:
        return list(range(d))
    p = PRIMES[0]
    arr = np.zeros((d, r.cols + d), dtype=np.float64)
    for i in range(d):
        for j, e in enumerate(r.row(i)):
            arr[i, j] = int(e) % p
        arr[i, r.cols + i] = 1.0
    _, piv = echelon_mod_p(arr, p)
    if len(piv) != d:
        raise RuntimeError("augmented identity lost rank")
    return [c - r.cols for c in piv if c >= r.cols]


def _scaled_int_vector(vec: list[Fraction]) -> list[int]:
    den = 1
    for e in vec:
        if e.denominator != 1:
            den = lcm(den, e.denominator)
    if den == 1:
        ints = [e.numerator for e in vec]
    else:
        ints = [int(e * den) for e in vec]
    g = 0
    for c in ints:
        g = gcd(g, c)
    if g > 1:
        ints = [c // g for c in ints]
    return ints


def _certified_int_kernel(mat: np.ndarray) -> np.ndarray:
    """Integer basis of the rational kernel of an integer matrix, shape
    (ncols, nullity).  Every basis vector is verified exactly and the count
    matches the modular nullity bound, so completeness is certified; if
    lifting fails the exact fallback runs instead."""
    m, n = mat.shape
    try:
        mk = ModKernel(mat, n)
        cols = [_scaled_int_vector(vec) for vec in mk.exact_vectors()]
    except ReconstructionError:
        exact = Matrix(
            m, n, [[Fraction(int(mat[i, j])) for j in range(n)] for i in range(m)]
        )
        cols = [_scaled_int_vector(vec) for vec in exact.kernel_basis()]
    if not cols:
        return np.zeros((n, 0), dtype=np.int64)
    return int_array(cols).T


@dataclass
class _TopPresentation:
    """Vertexwise data of a projective presentation of an integer
    representation: top generators (standard coordinates completing the
    radical), the paths out of their vertices, the number of paths each
    generator contributes to each vertex, and an integer basis of the
    presentation kernel at each vertex."""

    summands: list[tuple[int, int]]
    paths: dict[int, dict[int, list[tuple[int, ...]]]]
    kernels: list[np.ndarray]
    path_counts: list[list[int]]


def _top_presentation(x: Rep) -> _TopPresentation:
    q = x.quiver
    summands: list[tuple[int, int]] = []
    for v in range(1, q.n + 1):
        for c in _complement_coords(radical_generators(x, v)):
            summands.append((v, c))
    paths = {v: _paths_from(q, v) for v in sorted({v for v, _ in summands})}
    kernels: list[np.ndarray] = []
    path_counts: list[list[int]] = []
    for w in range(1, q.n + 1):
        cols: list[list[int]] = []
        counts: list[int] = []
        for v, c in summands:
            pths = paths[v][w]
            counts.append(len(pths))
            for pth in pths:
                pm = _np_path_map(x, pth, v)
                cols.append([int(e) for e in pm[:, c]])
        path_counts.append(counts)
        if cols:
            epi = int_array(cols).T.reshape(x.dim(w), len(cols))
        else:
            epi = np.zeros((x.dim(w), 0), dtype=np.int64)
        kernels.append(_certified_int_kernel(epi))
    return _TopPresentation(summands, paths, kernels, path_counts)


def _weighted_blocks(ks: np.ndarray, pmats: list[np.ndarray]) -> np.ndarray:
    """sum_b ks[b, q] * pmats[b] for each q, laid out as (q, e, c); int64
    einsum when an a-priori magnitude bound allows, exact object arithmetic
    otherwise."""
    stack = np.stack(pmats)
    if max_abs(ks) * max_abs(stack) * len(pmats) < 2**62:
        return np.einsum(
            "bq,bec->qec",
            ks.astype(np.int64),
            stack.astype(np.int64),
        )
    out = np.zeros((ks.shape[1],) + pmats[0].shape, dtype=object)
    for qi in range(ks.shape[1]):
        acc = np.zeros(pmats[0].shape, dtype=object)
        for bi in range(len(pmats)):
            coeff = int(ks[bi, qi])
            if coeff:
                acc = acc + coeff * stack[bi]
        out[qi] = acc
    return out


@dataclass
class _HomSystem:
    """Reduced linear system whose rational kernel is Hom(x, y): one block
    of unknowns per top generator of x (its image in y), one block of
    equations per kernel column of the presentation of x."""

    summands: list[tuple[int, int]]
    paths: dict[int, dict[int, list[tuple[int, ...]]]]
    offsets: list[int]
    ncols: int
    mk: ModKernel | None
    ynp: dict[tuple[int, tuple[int, ...]], np.ndarray]

    @property
    def upper(self) -> int:
        """Certified upper bound for dim Hom(x, y)."""
        return self.mk.dim_upper_bound if self.mk is not None else self.ncols

    def refine(self) -> None:
        if self.mk is None:
            return
        try:
            self.mk._add_prime()
        except ReconstructionError:
            pass

    def solutions(
        self,
        count: int | None = None,
        spread: bool = False,
        columns: list[int] | None = None,
        generic: bool = False,
    ):
        """Verified exact solution vectors, independent by construction; if
        the iterator is exhausted without error the solutions span.  With
        `generic` set, yield `count` dense random kernel vectors instead
        (not independent, but with generic trace images)."""
        if self.mk is None:
            return iter(())
        if generic:
            return self.mk.exact_random_vectors(count or 1)
        return self.mk.exact_vectors(count, spread=spread, columns=columns)


def _hom_rows(
    x: Rep, y: Rep
) -> tuple[
    _TopPresentation,
    list[int],
    int,
    dict[tuple[int, tuple[int, ...]], np.ndarray],
    np.ndarray,
]:
    """Assembled equation rows of the reduced Hom system, without the
    modular elimination; x and y must be integer representations of the
    same quiver."""
    pres = x._presentation
    q = x.quiver
    offsets: list[int] = []
    ncols = 0
    for v, _ in pres.summands:
        offsets.append(ncols)
        ncols += y.dim(v)
    ynp: dict[tuple[int, tuple[int, ...]], np.ndarray] = {}
    for v in pres.paths:
        for w in range(1, q.n + 1):
            for pth in pres.paths[v][w]:
                if (v, pth) not in ynp:
                    ynp[(v, pth)] = _np_path_map(y, pth, v)
    blocks: list[np.ndarray] = []
    if ncols:
        for w in range(1, q.n + 1):
            kmat = pres.kernels[w - 1]
            e_w = y.dim(w)
            k_w = kmat.shape[1]
            if k_w == 0 or e_w == 0:
                continue
            block = np.zeros((k_w * e_w, ncols), dtype=np.int64)
            roff = 0
            for j, (v, _) in enumerate(pres.summands):
                b = pres.path_counts[w - 1][j]
                c_j = y.dim(v)
                if b and c_j:
                    contrib = _weighted_blocks(
                        kmat[roff : roff + b, :],
                        [ynp[(v, pth)] for pth in pres.paths[v][w]],
                    )
                    if contrib.dtype == object and block.dtype != object:
                        # a magnitude bound failed: exact object arithmetic
                        block = block.astype(object)
                    block[:, offsets[j] : offsets[j] + c_j] = contrib.reshape(
                        k_w * e_w, c_j
                    )
                roff += b
            blocks.append(block)
    if blocks:
        rows = np.vstack(blocks)
    else:
        rows = np.zeros((0, ncols), dtype=np.int64)
    return pres, offsets, ncols, ynp, rows


def _pair_memo(x: Rep, y: Rep) -> dict:
    """Data cached for the ordered pair (x, y), stored on x.  The entry is
    dropped when y dies; an entry left by an earlier object with the same
    id as y is replaced, never read."""
    key = id(y)
    entry = x._pair_data.get(key)
    if entry is None or entry[0]() is not y:
        owner = weakref.ref(x)

        def drop(ref: weakref.ref) -> None:
            # only the entry this reference belongs to; x is held weakly, so
            # the callback keeps nothing alive
            holder = owner()
            if holder is not None and holder._pair_data.get(key, (None,))[0] is ref:
                del holder._pair_data[key]

        entry = (weakref.ref(y, drop), {})
        x._pair_data[key] = entry
    return entry[1]


def _hom_system(x: Rep, y: Rep) -> _HomSystem:
    """x and y must be integer representations of the same quiver."""
    memo = _pair_memo(x, y)
    if "system" not in memo:
        pres, offsets, ncols, ynp, rows = _hom_rows(x, y)
        mk = ModKernel(rows, ncols) if ncols else None
        memo["system"] = _HomSystem(
            pres.summands, pres.paths, offsets, ncols, mk, ynp
        )
    return memo["system"]


def _system_shape(x: Rep, y: Rep) -> tuple[int, int]:
    pres = x._presentation
    cols = sum(y.dim(v) for v, _ in pres.summands)
    rows = sum(
        pres.kernels[w].shape[1] * y.dims[w] for w in range(x.quiver.n)
    )
    return rows, cols


def _best_dim_system(xi: Rep, yi: Rep) -> _HomSystem:
    """Smaller of the two presentations of Hom(x, y): via a presentation of
    x, or of the dual of y (Hom(x, y) and Hom(Dy, Dx) agree in dimension)."""

    def cost(pair: tuple[Rep, Rep]) -> int:
        rows, cols = _system_shape(*pair)
        return max(rows, 1) * cols * cols

    return _hom_system(*min(((xi, yi), (yi._dual, xi._dual)), key=cost))


def _hom_vanishes_certified(xi: Rep, yi: Rep) -> bool:
    """True only with a certificate that Hom(xi, yi) = 0; False means
    unknown."""
    sys = _best_dim_system(xi, yi)
    if sys.upper == 0:
        return True
    sys.refine()
    return sys.upper == 0


def _columns_mod_p(columns: list[np.ndarray], dim: int, p: int) -> np.ndarray:
    """Residues of integer columns (int64 or object), shape (dim, count)."""
    if all(c.dtype == np.int64 for c in columns):
        return np.stack(columns, axis=1) % p
    arr = np.empty((dim, len(columns)), dtype=np.int64)
    for j, c in enumerate(columns):
        for i in range(dim):
            arr[i, j] = int(c[i]) % p
    return arr


def _modp_full(columns: list[np.ndarray], dim: int) -> bool:
    """True only with a certificate: full rank modulo a prime implies full
    rational rank (the converse can fail, so False means unknown)."""
    return len(columns) >= dim and len(_modp_pivot_columns(columns, dim)) == dim


def _modp_pivot_columns(columns: list[np.ndarray], dim: int) -> list[int]:
    """Indices of a mod-p independent (hence exactly independent) column
    subset spanning all columns mod p: the greedy pivot columns, for any
    number of columns."""
    if dim == 0 or not columns:
        return []
    p = PRIMES[0]
    return _ModSpan(dim, p).extend(_columns_mod_p(columns, dim, p))


def _exact_column_span_full(columns: list[np.ndarray], dim: int) -> bool:
    """Exact answer whether integer columns span the full space: fullness
    certified mod p, deficiency certified by a verified exact vector
    orthogonal to every column."""
    if dim == 0:
        return True
    if _modp_full(columns, dim):
        return True
    if not columns:
        return False
    rows = np.empty((len(columns), dim), dtype=object)
    for j, c in enumerate(columns):
        rows[j, :] = c
    try:
        mk = ModKernel(rows, dim)
        if mk.dim_upper_bound == 0:
            return True
        for _ in mk.exact_vectors(1):
            return False
        return True
    except ReconstructionError:
        exact = Matrix.from_columns(
            [[Fraction(int(v)) for v in c] for c in columns], nrows=dim
        )
        return exact.rank() == dim


def _quotient_rep(t: Rep, subs: list[Matrix]) -> Rep | None:
    """Quotient of t by the subspaces (columns of subs); None when the
    subspaces are not arrow-stable, checked exactly."""
    q = t.quiver
    projs: list[Matrix] = []
    lifts: list[Matrix] = []
    for v in range(q.n):
        d = t.dims[v]
        if d == 0:
            projs.append(Matrix.zero(0, 0))
            lifts.append(Matrix.zero(0, 0))
            continue
        s = subs[v]
        comp = extend_to_basis(s)
        pieces = [m for m in (s, comp) if m.cols]
        b = Matrix.hstack(pieces)
        binv = b.inverse()
        projs.append(binv.submatrix(range(s.cols, d), range(d)))
        lifts.append(comp)
    dims = tuple(m.cols for m in lifts)
    maps = []
    for a, (sv, tv) in enumerate(q.arrows):
        if subs[sv - 1].cols and not (
            projs[tv - 1] * (t.arrow_maps[a] * subs[sv - 1])
        ).is_zero():
            return None
        maps.append(projs[tv - 1] * (t.arrow_maps[a] * lifts[sv - 1]))
    return Rep(q, dims, tuple(maps))


class _ModSpan:
    """Incremental mod-p column span in reduced form: each stored column
    has entry 1 at its own pivot row and 0 at the pivot rows of the
    others."""

    def __init__(self, dim: int, p: int):
        self.p = p
        self.cols = np.zeros((dim, 0), dtype=np.int64)
        self.pivs: list[int] = []

    @property
    def rank(self) -> int:
        return len(self.pivs)

    def insert(self, col: np.ndarray) -> bool:
        """Reduce a column against the span; True when it added a new
        direction."""
        p = self.p
        c = col % p
        if self.pivs:
            coeff = c[self.pivs]
            if coeff.any():
                c = (c - self.cols @ coeff) % p
        if not c.any():
            return False
        i = int(np.nonzero(c)[0][0])
        c = (c * pow(int(c[i]), -1, p)) % p
        if self.pivs:
            row = self.cols[i, :]
            if row.any():
                self.cols = (self.cols - np.outer(c, row)) % p
        self.cols = np.concatenate([self.cols, c[:, None]], axis=1)
        self.pivs.append(i)
        return True

    def extend(self, cols: np.ndarray) -> list[int]:
        """Insert the columns of an int64 residue array in order, stopping
        at full rank; the indices of those that added a new direction, i.e.
        the greedy pivot columns.  Each chunk of dim columns is first
        reduced against the span in one product, so columns already in it
        cost no insert."""
        dim = self.cols.shape[0]
        added: list[int] = []
        for start in range(0, cols.shape[1], max(dim, 1)):
            if self.rank == dim:
                break
            chunk = cols[:, start : start + dim]
            if self.pivs:
                chunk = (chunk - self.cols @ chunk[self.pivs]) % self.p
            for j in np.flatnonzero(chunk.any(axis=0)).tolist():
                if self.insert(chunk[:, j]):
                    added.append(start + j)
                    if self.rank == dim:
                        break
        return added


def _screen_gen_columns(sys: _HomSystem, ti: Rep) -> list[int] | None:
    """Free columns of the Hom system whose canonical solutions jointly
    have mod-p full trace images at every vertex (a small subset found
    greedily); None when the single-prime screen cannot reach fullness, in
    which case the caller falls back to the general lifting path."""
    pivots, free, _, p = sys.mk.candidate_residues(columns=[])
    q = ti.quiver
    dims = ti.dims
    pmod = {
        key: (
            (m % p).astype(np.int64)
            if m.dtype != object
            else np.array([[int(e) % p for e in row] for row in m], dtype=np.int64)
        )
        for key, m in sys.ynp.items()
    }
    spans = [_ModSpan(d, p) for d in dims]
    full = [d == 0 for d in dims]
    chosen: list[int] = []
    pividx = np.array(pivots, dtype=np.intp)
    n = len(free)
    step = max(1, round(n * 0.6180339887))
    while n > 1 and gcd(step, n) != 1:
        step += 1
    order = [i * step % n for i in range(n)]
    chunk = 256
    for start in range(0, n, chunk):
        if all(full):
            break
        batch = order[start : start + chunk]
        _, _, coords, _ = sys.mk.candidate_residues(
            columns=[free[k] for k in batch]
        )
        for bi, k in enumerate(batch):
            if all(full):
                break
            u = np.zeros(sys.ncols, dtype=np.int64)
            u[free[k]] = 1
            if pividx.size:
                u[pividx] = coords[:, bi].astype(np.int64)
            took = False
            for j, (v, _) in enumerate(sys.summands):
                uj = u[sys.offsets[j] : sys.offsets[j] + dims[v - 1]]
                if not uj.any():
                    continue
                for tv in range(1, q.n + 1):
                    if full[tv - 1]:
                        continue
                    for pth in sys.paths[v][tv]:
                        col = pmod[(v, pth)] @ uj
                        if spans[tv - 1].insert(col):
                            took = True
            if took:
                chosen.append(free[k])
                for v in range(q.n):
                    full[v] = full[v] or spans[v].rank == dims[v]
    return chosen if all(full) else None


def gen_contains(m: Rep, x: Rep) -> bool:
    """True iff x lies in Fac(m): the trace of m in x fills x vertexwise.

    Decided on the reduced Hom system.  The trace is spanned by the path
    images of the lifted generator images, so it grows by verified exact
    columns only; vertexwise fullness (certified mod p) decides True, a
    certified vanishing Hom into the quotient by an arrow-stable part of
    the trace decides False, and exhausting a full verified solution basis
    decides either way exactly."""
    if m.quiver != x.quiver:
        raise ValueError("Gen test requires a common quiver")
    if x.is_zero():
        return True
    gi, ti = _integer_form(m), _integer_form(x)
    sys = _hom_system(gi, ti)
    if sys.upper == 0:
        return False
    q = ti.quiver
    # structural deficiency: a nonzero vertex of t reached by no path out
    # of any generator vertex has zero trace
    for tv in range(1, q.n + 1):
        if ti.dims[tv - 1] and not any(
            sys.paths[v][tv] for v, _ in sys.summands
        ):
            return False
    buffers: list[list[np.ndarray]] = [[] for _ in range(q.n)]
    full = [d == 0 for d in ti.dims]

    ynp_max = max((max_abs(a) for a in sys.ynp.values()), default=0)
    ydim_max = max(ti.dims, default=0)

    def absorb(u: list[Fraction]) -> None:
        den = 1
        for e in u:
            if e.denominator != 1:
                den = lcm(den, e.denominator)
        if den == 1:
            w = [e.numerator for e in u]
        else:
            w = [int(e * den) for e in u]
        wmax = max(map(abs, w), default=0)
        # int64 matvecs are exact under this bound; otherwise fall back to
        # object arithmetic
        dtype: type | np.dtype = (
            np.int64
            if ynp_max * wmax * max(1, ydim_max) < 2**62
            else object
        )
        for j, (v, _) in enumerate(sys.summands):
            uj = np.array(
                w[sys.offsets[j] : sys.offsets[j] + ti.dim(v)], dtype=dtype
            )
            if not uj.size or not uj.any():
                continue
            for tv in range(1, q.n + 1):
                if full[tv - 1]:
                    continue
                for pth in sys.paths[v][tv]:
                    ym = sys.ynp[(v, pth)]
                    if dtype is np.int64 and ym.dtype == object:
                        ym = ym.astype(np.int64)
                    buffers[tv - 1].append(ym @ uj)

    def saturated() -> bool:
        for v in range(q.n):
            if not full[v]:
                full[v] = _modp_full(buffers[v], ti.dims[v])
        return all(full)

    # generic solutions first: a few kernel vectors with dense random small
    # free coordinates have jointly full trace images unless the trace is
    # genuinely deficient, and they are exact, so mod-p fullness of their
    # images certifies membership outright
    try:
        for u in sys.solutions(generic=True, count=_GEN_RANDOM_TRIES):
            absorb(u)
            if saturated():
                return True
    except ReconstructionError:
        pass
    # single-prime screen: a small set of solutions whose images are jointly
    # full mod p; their exact lifts then certify fullness
    chosen = _screen_gen_columns(sys, ti)
    if chosen is not None:
        try:
            for u in sys.solutions(columns=chosen):
                absorb(u)
        except ReconstructionError:
            pass
        if saturated():
            return True

    lifted = 0
    capped = False
    for u in sys.solutions(spread=True):
        absorb(u)
        lifted += 1
        if saturated():
            return True
        if lifted >= _GEN_LIFT_CAP and lifted < sys.upper:
            capped = True
            break
    if not capped:
        # the verified solutions span Hom(g, t), so the buffers span the
        # exact trace
        return all(
            _exact_column_span_full(buffers[v], ti.dims[v]) for v in range(q.n)
        )
    # quotient certificate: close an independent part of the trace under
    # the arrow maps (the closure stays inside the trace, which is a
    # subrepresentation) and test Hom into the quotient
    subs_cols = [
        [buffers[v][j] for j in _modp_pivot_columns(buffers[v], ti.dims[v])]
        for v in range(q.n)
    ]
    tnp = [_np_int(a) for a in ti.arrow_maps]
    changed = True
    while changed:
        changed = False
        for a, (sv, tv) in enumerate(q.arrows):
            trial = [tnp[a] @ col for col in subs_cols[sv - 1]]
            before = len(_modp_pivot_columns(subs_cols[tv - 1], ti.dims[tv - 1]))
            merged = subs_cols[tv - 1] + [c for c in trial if any(c)]
            piv = _modp_pivot_columns(merged, ti.dims[tv - 1])
            if len(piv) > before:
                subs_cols[tv - 1] = [merged[j] for j in piv]
                changed = True
    subs = [
        Matrix.from_columns(
            [[Fraction(int(e)) for e in c] for c in subs_cols[v]],
            nrows=ti.dims[v],
        )
        for v in range(q.n)
    ]
    if any(subs[v].cols < ti.dims[v] for v in range(q.n)):
        qt = _quotient_rep(ti, subs)
        if qt is not None and _hom_vanishes_certified(gi, _integer_form(qt)):
            return False
    for u in sys.solutions(spread=True):
        absorb(u)
        if saturated():
            return True
    return all(
        _exact_column_span_full(buffers[v], ti.dims[v]) for v in range(q.n)
    )
