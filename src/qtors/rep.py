"""Quiver representations over the rationals and the module-level
computations built on them: Hom spaces, Ext groups as the cokernel of the
intertwining matrix (Ringel's standard resolution), BGP reflection
functors, the Auslander-Reiten translate as a Coxeter functor,
Gen-membership, surjection search and extension realization."""

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
from .linalg import Matrix, cokernel, extend_to_basis
from .modkernel import (
    PRIMES,
    ModKernel,
    ReconstructionError,
    echelon_mod_p,
    int_array,
    max_abs,
    nonzero_triples,
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
    def _tops(self) -> _Tops:
        return _top_generators(self)

    @cached_property
    def _presentation(self) -> list[np.ndarray]:
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


def _intertwining_matrix(x: Rep, y: Rep) -> Matrix:
    """The map delta(phi)_a = y_a phi_s - phi_t x_a from the sum over vertices
    v of Hom_k(x_v, y_v) to the sum over arrows a: s -> t of Hom_k(x_s, y_t),
    as one exact matrix.  Its kernel is Hom(x, y) and its cokernel
    Ext^1(x, y): over a path algebra
    0 -> Hom(x, y) -> (+)_v Hom_k(x_v, y_v) -> (+)_a Hom_k(x_s, y_t) -> Ext^1(x, y) -> 0
    is exact (Ringel's standard resolution).  Variable (v, i, j) is entry
    (i, j) of phi_v; row (a, i, j) is entry (i, j) of delta(phi)_a, arrows in
    quiver order.  Zero rows stay: the rows are the cocycle coordinates."""
    q = x.quiver
    if y.quiver != q:
        raise ValueError("Hom requires representations of the same quiver")
    offsets = []
    nvars = 0
    for v in range(q.n):
        offsets.append(nvars)
        nvars += y.dims[v] * x.dims[v]
    # integer rows over the lcm of all arrow denominators
    den = lcm(*(m._den for m in x.arrow_maps + y.arrow_maps))
    rows: list[tuple[int, ...]] = []
    for a, (s, t) in enumerate(q.arrows):
        s -= 1
        t -= 1
        xa, ya = x.arrow_maps[a], y.arrow_maps[a]
        fx, fy = den // xa._den, den // ya._den
        for i in range(y.dims[t]):
            yrow = ya._num[i]
            for j in range(x.dims[s]):
                row = [0] * nvars
                # phi_t[i][c] at offsets[t] + i * x_t + c
                o = offsets[t] + i * x.dims[t]
                for c in range(x.dims[t]):
                    row[o + c] -= fx * xa._num[c][j]
                # phi_s[c][j] at offsets[s] + c * x_s + j
                o = offsets[s] + j
                for c in range(y.dims[s]):
                    row[o + c * x.dims[s]] += fy * yrow[c]
                rows.append(tuple(row))
    return Matrix._reduce(len(rows), nvars, tuple(rows), den)


def hom_basis(x: Rep, y: Rep) -> list[Morphism]:
    """Basis of Hom(x, y): the kernel basis of `_intertwining_matrix`, one
    matrix X_v -> Y_v per vertex."""
    basis = []
    for vec in _intertwining_matrix(x, y).kernel_basis():
        mats = []
        o = 0
        for dx, dy in zip(x.dims, y.dims):
            mats.append(Matrix(dy, dx, [vec[o + i * dx : o + (i + 1) * dx] for i in range(dy)]))
            o += dx * dy
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


# -- Ext via the standard resolution -----------------------------------------
#
# Ext^1(Z, X) is the cokernel of delta = `_intertwining_matrix(z, x)`, whose
# rows are indexed by the entries of arrow tuples (eta_a: Z_s -> X_t).  Every
# such tuple is a cocycle, and its class is its image in the cokernel.


class ExtGroup:
    """Ext^1(Z, X) as the cokernel of delta: the cocycles are the standard
    vectors that `cokernel` picks to complete the image of delta, in that
    order, each an arrow tuple (eta_a: Z_s -> X_t) with a single entry 1."""

    def __init__(self, x: Rep, z: Rep):
        if x.quiver != z.quiver:
            raise ValueError("Ext requires representations of the same quiver")
        self.x = x
        self.z = z
        delta = _intertwining_matrix(z, x)
        picked, self._projection = cokernel(delta)
        self._shapes = [(x.dims[t - 1], z.dims[s - 1]) for s, t in x.quiver.arrows]
        n = delta.rows
        self.cocycles: list[Morphism] = [
            self._arrow_tuple([0] * k + [1] + [0] * (n - 1 - k)) for k in picked
        ]
        self.dimension = len(self.cocycles)

    def _arrow_tuple(self, flat: list[int]) -> Morphism:
        """The arrow tuple with the cocycle coordinates `flat`."""
        out = []
        o = 0
        for r, c in self._shapes:
            out.append(Matrix(r, c, [flat[o + i * c : o + (i + 1) * c] for i in range(r)]))
            o += r * c
        return tuple(out)

    def is_coboundary(self, cocycle: Morphism) -> bool:
        """True iff the class of the cocycle vanishes, i.e. the extension
        it realizes splits: exactly when eta lies in the image of delta."""
        if len(cocycle) != len(self._shapes) or any(
            (m.rows, m.cols) != shape for m, shape in zip(cocycle, self._shapes)
        ):
            raise ValueError("a cocycle is one matrix Z_s -> X_t per arrow")
        return not any(self._projection.apply([e for m in cocycle for e in m.entries()]))


def extension_realize(x: Rep, z: Rep, cocycle: Morphism) -> tuple[Rep, Morphism, Morphism]:
    """Middle term of the extension 0 -> X -> E -> Z -> 0 classified by the
    cocycle (eta_a: Z_s -> X_t): E_v = X_v + Z_v and E_a = [[X_a, eta_a],
    [0, Z_a]], with the inclusion [I; 0] and the projection [0 I].  The
    sequence splits iff the cocycle is a coboundary."""
    q = x.quiver
    maps = tuple(
        Matrix.vstack(
            [
                Matrix.hstack([x.arrow_maps[a], eta]),
                Matrix.hstack([Matrix.zero(z.dims[t - 1], x.dims[s - 1]), z.arrow_maps[a]]),
            ]
        )
        for a, ((s, t), eta) in enumerate(zip(q.arrows, cocycle))
    )
    e = Rep(q, tuple(dx + dz for dx, dz in zip(x.dims, z.dims)), maps)
    iota = tuple(
        Matrix.vstack([Matrix.identity(dx), Matrix.zero(dz, dx)])
        for dx, dz in zip(x.dims, z.dims)
    )
    pi = tuple(
        Matrix.hstack([Matrix.zero(dz, dx), Matrix.identity(dz)])
        for dx, dz in zip(x.dims, z.dims)
    )
    return e, iota, pi


# -- projective presentations ------------------------------------------------
#
# Nothing in the package builds a whole presentation: Hom and Gen read the
# top generators (`_top_generators`), and Ext comes from delta.
# `projective_presentation` stays public because the tests use it as the
# reference route to Ext and the benchmark tracer wraps it by name.


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


def _int_form(m: Matrix) -> tuple[np.ndarray, int]:
    """m as (a, d) with m = a / d: the stored numerators and common
    denominator of m, a as an object array of Python ints, so products stay
    exact without Fraction arithmetic."""
    a = np.empty((m.rows, m.cols), dtype=object)
    for i, row in enumerate(m._num):
        a[i, :] = row
    return a, m._den


def _integer_form(x: Rep) -> Rep:
    return x._rescaled or x


def _rescale_to_integers(x: Rep) -> Rep | None:
    """Isomorphic copy with integer matrices: rescaling the basis at vertex
    v by a scalar s_v multiplies the map along an arrow by s_target/s_source,
    and along a topological order the targets can always absorb the
    denominators of their incoming maps."""
    q = x.quiver
    dens = [m._den for m in x.arrow_maps]
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
    """An integer matrix as an object array of its Python ints."""
    if m._den != 1:
        raise ValueError("integer form of a matrix with denominators")
    return _int_form(m)[0]


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
        # each factor at least 1, so that a zero matrix cannot hide a tall one
        bound = max(max_abs(arr), 1) * max(max_abs(prev), 1) * max(arr.shape[1], 1)
        if bound < 2**62:
            pm = arr.astype(np.int64) @ prev.astype(np.int64)
        else:
            pm = arr @ prev.astype(object)
    cache[key] = pm
    return pm


def _complement_coords(r: Matrix) -> list[int]:
    """Indices of standard basis vectors completing the column space of an
    integer matrix: e_i is taken exactly when row i of r lies in the span of
    the rows below it, tested mod p by the pivots of an echelon of the
    reversed transpose of r (as wide as r is tall).  These are the identity
    pivots of an echelon of [r | I] at the same prime.  The rows of r at the
    indices not taken are independent mod p, hence over the rationals, so
    the chosen vectors provably complete the span; an unlucky prime can
    only make the choice non-minimal, never wrong."""
    d = r.rows
    if d == 0:
        return []
    if r.cols == 0:
        return list(range(d))
    p = PRIMES[0]
    arr = np.zeros((r.cols, d), dtype=np.float64)
    for i in range(d):
        arr[:, d - 1 - i] = [e % p for e in r._num[i]]
    _, piv = echelon_mod_p(arr, p)
    independent = {d - 1 - j for j in piv}
    return [i for i in range(d) if i not in independent]


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
        mk = ModKernel(*nonzero_triples(mat))
        cols = [_scaled_int_vector(vec) for vec in mk.exact_vectors()]
    except ReconstructionError:
        exact = Matrix(m, n, mat.tolist())
        cols = [_scaled_int_vector(vec) for vec in exact.kernel_basis()]
    if not cols:
        return np.zeros((n, 0), dtype=np.int64)
    return int_array(cols).T


@dataclass
class _Tops:
    """Top generators of an integer representation (standard coordinates
    completing the radical at each vertex), the paths out of their vertices
    and the dimension at each vertex of the projective P0 they span.  The
    generators map P0 onto the representation, so the presentation kernel
    at w has p0_dims[w - 1] - dim x_w columns."""

    summands: list[tuple[int, int]]
    paths: dict[int, dict[int, list[tuple[int, ...]]]]
    p0_dims: list[int]


def _top_generators(x: Rep) -> _Tops:
    q = x.quiver
    summands: list[tuple[int, int]] = []
    for v in range(1, q.n + 1):
        for c in _complement_coords(radical_generators(x, v)):
            summands.append((v, c))
    paths = {v: _paths_from(q, v) for v in sorted({v for v, _ in summands})}
    p0_dims = [
        sum(len(paths[v][w]) for v, _ in summands) for w in range(1, q.n + 1)
    ]
    return _Tops(summands, paths, p0_dims)


def _top_presentation(x: Rep) -> list[np.ndarray]:
    """Integer basis of the kernel of the top presentation at each
    vertex."""
    tops = x._tops
    kernels: list[np.ndarray] = []
    for w in range(1, x.quiver.n + 1):
        cols: list[list[int]] = []
        for v, c in tops.summands:
            for pth in tops.paths[v][w]:
                pm = _np_path_map(x, pth, v)
                cols.append([int(e) for e in pm[:, c]])
        if cols:
            epi = int_array(cols).T.reshape(x.dim(w), len(cols))
        else:
            epi = np.zeros((x.dim(w), 0), dtype=np.int64)
        kernels.append(_certified_int_kernel(epi))
    return kernels


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
    list[int],
    int,
    dict[tuple[int, tuple[int, ...]], np.ndarray],
    tuple[np.ndarray, np.ndarray, np.ndarray, tuple[int, int]],
]:
    """Column offsets, column count, path maps of y and the non-zero
    entries of the reduced Hom system as (rows, cols, values, shape),
    without the modular elimination; x and y must be integer
    representations of the same quiver.

    The equations at vertex w come in one group of k_w * e_w rows (k_w
    kernel columns of the presentation at w, e_w = dim y_w), skipped when
    empty; within it, row q * e_w + e and column offsets[j] + c hold
    sum over the paths b of generator j of kernel[b, q] * ymap_b[e, c].
    Each term comes from a non-zero kernel entry and a non-zero path map
    entry; repeated positions are summed and zero sums dropped.  Values are
    int64 while an a-priori magnitude bound keeps every sum exact, Python
    ints in an object array otherwise."""
    tops = x._tops
    q = x.quiver
    offsets: list[int] = []
    ncols = 0
    for v, _ in tops.summands:
        offsets.append(ncols)
        ncols += y.dim(v)
    ynp: dict[tuple[int, tuple[int, ...]], np.ndarray] = {}
    for v in tops.paths:
        for w in range(1, q.n + 1):
            for pth in tops.paths[v][w]:
                if (v, pth) not in ynp:
                    ynp[(v, pth)] = _np_path_map(y, pth, v)
    parts: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    nrows = 0
    # the kernels are only needed, and built, when there are unknowns
    for w in range(1, q.n + 1) if ncols else ():
        kmat = x._presentation[w - 1]
        e_w = y.dim(w)
        k_w = kmat.shape[1]
        if k_w == 0 or e_w == 0:
            continue
        roff = 0
        for j, (v, _) in enumerate(tops.summands):
            pths = tops.paths[v][w]
            ks = kmat[roff : roff + len(pths)]
            roff += len(pths)
            if not pths or not y.dim(v):
                continue
            ymaps = [ynp[(v, pth)] for pth in pths]
            exact = max_abs(ks) * max(map(max_abs, ymaps)) * len(pths) < 2**62
            for kb, ym in zip(ks, ymaps):
                qi = np.flatnonzero(kb)
                ei, ci = np.nonzero(ym)
                if not qi.size or not ei.size:
                    continue
                kv, yv = kb[qi], ym[ei, ci]
                if exact:
                    kv, yv = kv.astype(np.int64), yv.astype(np.int64)
                else:
                    kv, yv = kv.astype(object), yv.astype(object)
                parts.append(
                    (
                        (nrows + qi[:, None] * e_w + ei).ravel(),
                        np.broadcast_to(offsets[j] + ci, (qi.size, ci.size)).ravel(),
                        np.multiply.outer(kv, yv).ravel(),
                    )
                )
        nrows += k_w * e_w
    if not parts:
        empty = np.zeros(0, dtype=np.intp)
        return offsets, ncols, ynp, (empty, empty, empty.astype(np.int64), (nrows, ncols))
    keys = np.concatenate([r * ncols + c for r, c, _ in parts])
    vals = np.concatenate([v for _, _, v in parts])
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    sums = np.add.reduceat(vals[order], starts)
    keep = sums != 0
    keys = keys[starts[keep]]
    return offsets, ncols, ynp, (keys // ncols, keys % ncols, sums[keep], (nrows, ncols))


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
        offsets, ncols, ynp, triples = _hom_rows(x, y)
        mk = ModKernel(*triples) if ncols else None
        tops = x._tops
        memo["system"] = _HomSystem(
            tops.summands, tops.paths, offsets, ncols, mk, ynp
        )
    return memo["system"]


def _system_shape(x: Rep, y: Rep) -> tuple[int, int]:
    """Shape of the reduced Hom system of (x, y), read off the tops of x
    without building its presentation kernels."""
    tops = x._tops
    cols = sum(y.dim(v) for v, _ in tops.summands)
    rows = sum(
        (tops.p0_dims[w] - x.dims[w]) * y.dims[w] for w in range(x.quiver.n)
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
        mk = ModKernel(*nonzero_triples(rows))
        if mk.dim_upper_bound == 0:
            return True
        for _ in mk.exact_vectors(1):
            return False
        return True
    except ReconstructionError:
        exact = Matrix.from_columns(
            [[int(v) for v in c] for c in columns], nrows=dim
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
            [[int(e) for e in c] for c in subs_cols[v]],
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
