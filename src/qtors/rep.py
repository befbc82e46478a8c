"""Quiver representations over the rationals and the module-level
computations built on them: Hom spaces, Ext groups as the cokernel of the
intertwining matrix (Ringel's standard resolution), read off one sparse
exact kernel of its transpose, BGP reflection functors, the
Auslander-Reiten translate as a Coxeter functor, Gen-membership,
surjection and isomorphism tests and extension realization."""

from __future__ import annotations

import itertools
import weakref
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm

from .forms import forms_context
from .linalg import Matrix, complement_indices, extend_to_basis
from .modkernel import (
    PRIME,
    ModKernel,
    exact_kernel,
    int_array,
    matmul_mod_p,
    max_abs,
    pivot_columns_mod_p,
    primitive_vector,
)
from .quiver import Quiver, QuiverError, opposite

# numpy is loaded by modkernel, after that module is compiled: without
# cached bytecode every module is compiled when first imported, and a
# compile that runs after numpy is loaded raises the process's peak memory
import numpy as np  # noqa: E402

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
    def _presentation(self) -> list[tuple]:
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


def _intertwining_matrix(
    x: Rep, y: Rep
) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple[int, int]]:
    """The map delta(phi)_a = y_a phi_s - phi_t x_a from the sum over vertices
    v of Hom_k(x_v, y_v) to the sum over arrows a: s -> t of Hom_k(x_s, y_t),
    as the non-zero entries (rows, cols, values, shape) of one integer
    matrix, the numerators over the lcm of all arrow denominators (int64
    when all fit, Python ints in an object array otherwise).  Its kernel is
    Hom(x, y) and its cokernel Ext^1(x, y): over a path algebra
    0 -> Hom(x, y) -> (+)_v Hom_k(x_v, y_v) -> (+)_a Hom_k(x_s, y_t) -> Ext^1(x, y) -> 0
    is exact (Ringel's standard resolution).  Variable (v, i, j) is entry
    (i, j) of phi_v; row (a, i, j) is entry (i, j) of delta(phi)_a, arrows in
    quiver order, and it holds -x_a[c, j] at phi_t[i, c] and y_a[i, c] at
    phi_s[c, j]; the quiver has no loops, so no position is met twice.  Zero
    rows count: the rows are the cocycle coordinates."""
    q = x.quiver
    if y.quiver != q:
        raise ValueError("Hom requires representations of the same quiver")
    offsets = list(itertools.accumulate((dx * dy for dx, dy in zip(x.dims, y.dims)), initial=0))
    den = lcm(*(m._den for m in x.arrow_maps + y.arrow_maps))
    parts = [(np.zeros(0, np.intp),) * 3]
    nrows = 0
    for a, (s, t) in enumerate(q.arrows):
        xs, xt, yt = x.dims[s - 1], x.dims[t - 1], y.dims[t - 1]
        xa, ya = (_np_int(r.arrow_maps[a].scale(f)) for r, f in ((x, -den), (y, den)))
        # entry (c, j) of x_a enters row (i, j) at phi_t[i, c] for every i,
        # entry (i, c) of y_a enters row (i, j) at phi_s[c, j] for every j
        c, j = np.nonzero(xa)
        i = np.arange(yt)[:, None]
        parts.append((nrows + i * xs + j, offsets[t - 1] + i * xt + c, np.tile(xa[c, j], (yt, 1))))
        i, c = (u[:, None] for u in np.nonzero(ya))
        j = np.arange(xs)
        parts.append((nrows + i * xs + j, offsets[s - 1] + c * xs + j, np.tile(ya[i, c], (1, xs))))
        nrows += yt * xs
    rows, cols, vals = (np.concatenate([u.ravel() for u in k]) for k in zip(*parts))
    return rows, cols, int_array(vals.tolist()), (nrows, offsets[-1])


def hom_basis(x: Rep, y: Rep) -> list[Morphism]:
    """Basis of Hom(x, y): the canonical kernel basis of
    `_intertwining_matrix` (`exact_kernel`), 1 at a free column and minus
    that column of the reduced echelon form at the pivots, one matrix
    X_v -> Y_v per vertex."""
    rows, cols, vals, (_, nvars) = _intertwining_matrix(x, y)
    basis = []
    for f, entries in exact_kernel(rows, cols, vals, nvars).items():
        vec: list[int | Fraction] = [0] * nvars
        vec[f] = 1
        for c, h, v in entries:
            vec[c] = Fraction(-v, h)
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
    common rigid cases; otherwise the dimension is the exact nullity of the
    system, read off its exact elimination without building any kernel
    vector."""
    if x.quiver != y.quiver:
        raise ValueError("Hom requires representations of the same quiver")
    memo = _pair_memo(x, y)
    if "dim" not in memo:
        sys = _best_dim_system(_integer_form(x), _integer_form(y))
        memo["dim"] = sys.upper if _pinned(sys, x, y) else sys.mk.nullity
    return memo["dim"]


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


class _UnitCocycles(Sequence):
    """Arrow tuples (eta_a: Z_s -> X_t), each with a single entry 1 at one
    of the given cocycle coordinates, in that order; each tuple is built
    when it is read."""

    def __init__(self, shapes: list[tuple[int, int]], picked: list[int]):
        self._shapes = shapes
        self._picked = picked

    def __len__(self) -> int:
        return len(self._picked)

    def __getitem__(self, i: int | slice) -> Morphism | list[Morphism]:
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        k = self._picked[i]
        out = []
        o = 0
        for r, c in self._shapes:
            rows = [[0] * c for _ in range(r)]
            if o <= k < o + r * c:
                rows[(k - o) // c][(k - o) % c] = 1
            out.append(Matrix(r, c, rows))
            o += r * c
        return tuple(out)


class ExtGroup:
    """Ext^1(Z, X) as the cokernel of delta: the cocycles are the standard
    vectors e_j completing the image of delta, taken greedily in index
    order (e_j exactly when row j of delta lies in the span of the rows
    below it), each an arrow tuple (eta_a: Z_s -> X_t) with a single entry
    1, built when it is read.  The j taken are the free columns f = nrows -
    1 - j of the reversed transpose of delta, and one `exact_kernel` of it
    gives for each f a kernel vector: read backwards, an integer w with
    w delta = 0, non-zero at j and zero at the other j taken."""

    def __init__(self, x: Rep, z: Rep):
        if x.quiver != z.quiver:
            raise ValueError("Ext requires representations of the same quiver")
        self.x = x
        self.z = z
        rows, cols, vals, (nrows, _) = _intertwining_matrix(z, x)
        kernel = exact_kernel(cols, nrows - 1 - rows, vals, nrows)
        # (f, w_f, the other non-zero entries (c, w_c) of w), by descending f
        self._annihilator = [(f, *primitive_vector(kernel[f])) for f in reversed(kernel)]
        self._shapes = [(x.dims[t - 1], z.dims[s - 1]) for s, t in x.quiver.arrows]
        picked = [nrows - 1 - f for f, _, _ in self._annihilator]
        self.cocycles: Sequence[Morphism] = _UnitCocycles(self._shapes, picked)
        self.dimension = len(self.cocycles)

    def is_coboundary(self, cocycle: Morphism) -> bool:
        """True iff the class of the cocycle vanishes, i.e. the extension
        it realizes splits: exactly when eta lies in the image of delta,
        which is when w eta = 0 for every annihilator vector w."""
        if len(cocycle) != len(self._shapes) or any(
            (m.rows, m.cols) != shape for m, shape in zip(cocycle, self._shapes)
        ):
            raise ValueError("a cocycle is one matrix Z_s -> X_t per arrow")
        den = lcm(*(m._den for m in cocycle))
        # the numerators over den, in reversed row order
        flat = [v * (den // m._den) for m in cocycle for r in m._num for v in r][::-1]
        return not any(
            w_f * flat[f] + sum(v * flat[c] for c, v in body)
            for f, w_f, body in self._annihilator
        )


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
    incl = [epi[w].kernel_matrix() for w in range(q.n)]
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
    kernel = assembled.kernel_matrix()
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


def _coxeter_functor(x: Rep, at_sinks: bool) -> Rep:
    """Reflect at every vertex once, along a reversed topological order
    (each vertex a sink when reached) or along a topological order (each a
    source), which brings the arrows back to the quiver of x."""
    order = x.quiver.topological_order()
    if order is None:
        raise ValueError("AR translate requires an acyclic quiver")
    cur = x
    for v in reversed(order) if at_sinks else order:
        cur = reflect(cur, v)
    if cur.quiver != x.quiver:
        raise RuntimeError("reflections did not return to the quiver")
    return cur


def ar_translate(x: Rep) -> Rep:
    """AR translate via the Coxeter functor: reflect at sinks along a
    reversed topological order.  Kills projective summands; on an
    indecomposable non-projective the dimension vector transforms by the
    Coxeter matrix."""
    return _coxeter_functor(x, at_sinks=True)


def ar_translate_inverse(x: Rep) -> Rep:
    """Inverse AR translate: reflect at sources along a topological
    order.  Kills injective summands."""
    return _coxeter_functor(x, at_sinks=False)


# -- surjections and isomorphism ---------------------------------------------


def exists_surjection(x: Rep, y: Rep) -> bool:
    """True iff some morphism x -> y is surjective at every vertex.

    Decided on the reduced Hom system, where the image of a morphism at a
    vertex is spanned by the path images of its generator images
    (`_trace_columns`).  A dimension of y above that of x, or y not in
    Fac(x), is a certain "no".  The image of a morphism is a
    subrepresentation, so by Nakayama's lemma (see `gen_contains`) it is
    all of y once it fills y at the vertices in the top support of y;
    every rank test below runs at those vertices only.  On a pinned system
    one random solution mod p whose trace has rank dim y_v at every tested
    vertex v certifies "yes" (`_gen_certified_mod_p`).  Otherwise seeded
    random combinations of the exact solution basis, with integer
    coefficients in [1, p] for p = PRIME, are tested exactly, each top
    vertex once per draw (`_column_span_full`); every "yes" is certified.

    The last "no" is probabilistic, not a proof: if a surjection exists, a
    product of one dim y_v minor of the trace columns per vertex is a
    non-zero polynomial of degree D = total dim y in the coefficients, so
    by Schwartz-Zippel a draw misses it with probability at most D/p; the
    number k of draws is the least with (D/p)^k <= 2^-64.  Testing fewer
    vertices only lowers the degree, so the bound still holds."""
    if x.quiver != y.quiver:
        raise ValueError("surjection test requires a common quiver")
    if y.is_zero():
        return True
    if any(dx < dy for dx, dy in zip(x.dims, y.dims)) or not gen_contains(x, y):
        return False
    gi, ti = _integer_form(x), _integer_form(y)
    sys = _hom_system(gi, ti)
    if _pinned(sys, x, y) and _gen_certified_mod_p(sys, ti, solutions=1):
        return True
    p, d = PRIME, ti.total_dim()
    if d >= p:
        raise ValueError("surjection test requires total dim y below the draw prime")
    basis = np.array([w for w, _ in sys.solutions()], dtype=object)
    rng = np.random.default_rng(0)
    top = ti._tops.support
    skip = [not dv or v not in top for v, dv in enumerate(ti.dims, 1)]
    for _ in range(next(k for k in itertools.count(1) if d**k << 64 <= p**k)):
        coeffs = rng.integers(1, p, size=len(basis), endpoint=True).astype(object)
        cols = _trace_columns(sys, ti, (coeffs @ basis).tolist(), skip)
        if all(
            s or _column_span_full(c, dv) for s, c, dv in zip(skip, cols, ti.dims)
        ):
            return True
    return False


def is_isomorphic(x: Rep, y: Rep) -> bool:
    """True iff x and y are isomorphic.

    A False answer is certified when the dimension vectors differ, or when
    dim Hom(x, y) differs from dim End(x) or dim End(y) (an isomorphism
    identifies all three, and `hom_dim` is exact).  Otherwise the answer
    is `exists_surjection(x, y)`, with its bound on a "no": between equal
    dimension vectors a surjection is an isomorphism."""
    if x.quiver != y.quiver:
        raise ValueError("isomorphism test requires a common quiver")
    if x.dims != y.dims:
        return False
    h = hom_dim(x, y)
    return h == hom_dim(x, x) == hom_dim(y, y) and exists_surjection(x, y)


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


# -- the reduced Hom system: Hom dimensions, Gen-membership, surjections --
#
# Every Hom dimension, Gen test and surjection test runs on a reduced linear
# system.  `hom_basis`, the kernel basis of the whole intertwining system,
# has no caller in the package; it stays as the oracle of the tests and as a
# boundary of the benchmark tracer.  Fixing a projective presentation
# P1 -> P0 -> x -> 0, a morphism x -> y is a choice of images in y for the
# top generators of x, subject to one linear condition per kernel column of
# the presentation; the image of a morphism, and the trace of x in y, are
# then spanned by the path images of generator images, so no decoded
# morphism matrices are needed.  The top generators are exact: at each
# vertex, the standard coordinates that `complement_indices` picks to
# complete the radical, read off the package's one exact elimination.
# After rescaling both representations to integer form (an isomorphism,
# always possible over an acyclic quiver), the presentation kernels come
# from the sparse fraction-free elimination (`_kernel_triples`), each held
# as its non-zero entries: the epis are wide and mostly zero and unit
# columns, so their kernels are almost all zero.
# The system then has integer entries and its kernel is analyzed by
# qtors.modkernel: the nullity modulo one prime is a certified upper bound,
# and the package's one exact elimination (qtors.linalg) of each block gives
# the exact nullity and the exact canonical kernel basis, so every value
# returned here is exact.  A system is *pinned* when its upper bound meets
# the Euler-form lower bound; then its dimension needs no exact elimination,
# and a Gen or surjection "yes" is certified modulo the prime
# (`_gen_certified_mod_p`).  Every other question reads the exact kernel.
# Gen and surjection answers test ranks only at the vertices where the
# target has a top, each once per question or draw (`_column_span_full`): a
# trace or an image is a subrepresentation, so by Nakayama's lemma it is
# everything once it fills the top (`gen_contains`); two closed-form
# deciders, a top "no" and a projective "yes", answer before any system is
# built.  The integer and dual forms, presentations and path maps are
# cached on the Rep they describe; Hom systems and dimensions on the first
# argument, keyed by a weak reference to the second (`_pair_memo`).

# slack of the one-prime Gen certificate: trace columns it draws at each
# top vertex v of the target beyond dim t_v
_GEN_RANDOM_TRIES = 6


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
    """An integer matrix as an object array of its Python ints, so products
    stay exact without Fraction arithmetic."""
    if m._den != 1:
        raise ValueError("integer form of a matrix with denominators")
    a = np.empty((m.rows, m.cols), dtype=object)
    for i, row in enumerate(m._num):
        a[i, :] = row
    return a


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
        pm = arr.astype(np.int64) if bound < 2**62 else arr
        # after the empty path, whose map is the identity, the arrow map is
        # the path map
        if len(path) > 1:
            pm = pm @ prev.astype(pm.dtype)
    cache[key] = pm
    return pm


def _kernel_triples(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Integer basis of the rational kernel of an integer matrix: the
    non-zero entries (rows, columns, values) of its (ncols, nullity) matrix,
    sorted by row, then column, and the nullity.  Column k is the
    `primitive_vector` of the k-th free column of `exact_kernel`; int64 if all fit."""
    ri, ci = np.nonzero(mat)
    kernel = exact_kernel(ri, ci, mat[ri, ci], mat.shape[1])
    entries = []
    for k, (f, column) in enumerate(kernel.items()):
        den, body = primitive_vector(column)
        entries += [(f, k, den)] + [(c, k, v) for c, v in body]
    entries.sort()  # each (row, column) pair occurs once
    rows, cols, vals = zip(*entries) if entries else ((), (), ())
    nullity = len(kernel)
    return np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp), int_array(vals), nullity


@dataclass
class _Tops:
    """Top generators of an integer representation (the standard
    coordinates that `complement_indices` picks to complete the radical at
    each vertex), the paths out of their vertices and the dimension at each
    vertex of the projective P0 they span.  The generators map P0 onto the
    representation, so the presentation kernel at w has p0_dims[w - 1] -
    dim x_w columns.

    `support` holds the vertices with a top generator, exactly: at every
    other vertex the radical is full."""

    summands: list[tuple[int, int]]
    paths: dict[int, dict[int, list[tuple[int, ...]]]]
    p0_dims: list[int]
    support: frozenset[int]


def _top_generators(x: Rep) -> _Tops:
    q = x.quiver
    summands: list[tuple[int, int]] = []
    for v in range(1, q.n + 1):
        for c in complement_indices(radical_generators(x, v)):
            summands.append((v, c))
    paths = {v: _paths_from(q, v) for v in sorted({v for v, _ in summands})}
    p0_dims = [
        sum(len(paths[v][w]) for v, _ in summands) for w in range(1, q.n + 1)
    ]
    return _Tops(summands, paths, p0_dims, frozenset(paths))


def _top_presentation(x: Rep) -> list[tuple]:
    """Integer basis of the kernel of the top presentation at each vertex,
    as non-zero entries (`_kernel_triples`)."""
    tops = x._tops
    kernels = []
    for w in range(1, x.quiver.n + 1):
        cols = [
            _np_path_map(x, pth, v)[:, c]
            for v, c in tops.summands
            for pth in tops.paths[v][w]
        ]
        epi = (
            np.stack(cols, axis=1)
            if cols
            else np.zeros((x.dim(w), 0), dtype=np.int64)
        )
        kernels.append(_kernel_triples(epi))
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

    @cached_property
    def ynp_max(self) -> int:
        """Largest absolute entry of the path maps of y."""
        return max((max_abs(a) for a in self.ynp.values()), default=0)

    @cached_property
    def path_residues(self) -> dict[tuple[int, tuple[int, ...]], np.ndarray]:
        """The maps of y along the non-empty paths reduced mod PRIME, as
        float64 arrays (an empty path maps by the identity)."""
        return {
            (v, pth): (m % PRIME).astype(np.float64)
            for (v, pth), m in self.ynp.items()
            if pth
        }

    def solutions(self):
        """The canonical basis of the solutions, from one exact elimination
        per block (`ModKernel.exact_vectors`): (numerators, denominator),
        one vector per free column of the exact pivot structure, in
        ascending order."""
        if self.mk is not None:
            yield from self.mk.exact_vectors()


def _generator_runs(
    summands: list[tuple[int, int]], offsets: list[int]
) -> list[tuple[int, int, int]]:
    """The runs of consecutive top generators at one vertex v, as (v, first
    unknown, number of generators); the unknowns of a run are consecutive
    too, dim y_v per generator."""
    runs = []
    for v, group in itertools.groupby(zip(summands, offsets), lambda s: s[0][0]):
        offs = [off for _, off in group]
        runs.append((v, offs[0], len(offs)))
    return runs


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
    runs = _generator_runs(tops.summands, offsets)
    parts: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    nrows = 0
    # the kernels are only needed, and built, when there are unknowns
    for w in range(1, q.n + 1) if ncols else ():
        krows, kcols, kvals, k_w = x._presentation[w - 1]
        e_w = y.dim(w)
        if k_w == 0 or e_w == 0:
            continue
        roff = 0
        for v, off, n_v in runs:
            pths = tops.paths[v][w]
            start, roff = roff, roff + n_v * len(pths)
            lo, hi = np.searchsorted(krows, (start, roff)).tolist()
            c_v = y.dim(v)
            if lo == hi or not c_v:
                continue
            # kernel row start + g * len(pths) + b is generator g at path b
            gen_of, path_of = np.divmod(krows[lo:hi] - start, len(pths))
            ks, kq = kvals[lo:hi], kcols[lo:hi]
            ymaps = [ynp[(v, pth)] for pth in pths]
            # int64 is exact unless a generator with a term (an entry at a path
            # with a non-zero map) has an entry k, |k| * max |map| * paths >= 2**62
            scale = max(map(max_abs, ymaps)) * len(pths)
            tall = {g for g, k in zip(gen_of.tolist(), ks.tolist()) if abs(k) * scale >= 2**62}
            pairs = zip(gen_of.tolist(), path_of.tolist())
            dtype = object if any(g in tall and ymaps[b].any() for g, b in pairs) else np.int64
            # the entries grouped by path, each group in row order
            by_path = np.argsort(path_of, kind="stable")
            groups = np.split(by_path, np.searchsorted(path_of[by_path], range(1, len(pths))))
            for ym, sel in zip(ymaps, groups):
                ei, ci = np.nonzero(ym)
                if not sel.size or not ei.size:
                    continue
                gi, qi = gen_of[sel], kq[sel]
                kv, yv = ks[sel].astype(dtype), ym[ei, ci].astype(dtype)
                parts.append(
                    (
                        np.add.outer(nrows + qi * e_w, ei).ravel(),
                        np.add.outer(off + gi * c_v, ci).ravel(),
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


def _pinned(sys: _HomSystem, x: Rep, y: Rep) -> bool:
    """Whether the upper bound of a system for Hom(x, y) meets the
    Euler-form lower bound max(0, <dim x, dim y>) of dim Hom, which pins
    dim Hom to it.  An unlucky prime leaves the system unpinned, and its
    questions go to the exact kernel."""
    lower = max(forms_context(x.quiver).euler_form(list(x.dims), list(y.dims)), 0)
    return sys.upper == lower


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


def _exact_column_span_full(columns: list[np.ndarray], dim: int) -> bool:
    """Exact answer whether integer columns span the full space: the exact
    rank of the matrix they form."""
    exact = Matrix.from_columns([c.tolist() for c in columns], nrows=dim)
    return exact.rank() == dim


def _column_span_full(columns: list[np.ndarray], dim: int) -> bool:
    """Whether integer columns span the full space of dimension dim > 0:
    full rank of their residues mod PRIME, from one `pivot_columns_mod_p`,
    proves it (a minor non-zero mod p is non-zero), and only columns left
    short go to the exact rank (`_exact_column_span_full`)."""
    if not columns:
        return False
    res = (np.stack(columns, axis=1) % PRIME).astype(np.float64)
    return len(pivot_columns_mod_p(res, PRIME)) == dim or _exact_column_span_full(columns, dim)


def _gen_certified_mod_p(sys: _HomSystem, ti: Rep, solutions: int = 0) -> bool:
    """True only with a certificate that the trace of g in t is full, read
    off random kernel vectors of a pinned Hom system modulo one prime, with
    no lifting; False means unknown.  The caller must have checked that the
    system is pinned: its upper bound, the nullity modulo p = PRIME, equals
    the Euler-form lower bound, so dim K_p = dim_Q ker A for the system
    matrix A and K_p = ker(A mod p).

    Proof.  Let L = ker_Q(A) ∩ Z^n.  L is saturated (v in L and v = 0 mod p
    give v/p in L), so L/pL embeds in F_p^n, and its image lies in K_p.
    Pinned means dim K_p = dim_Q ker A = rank L, so the reduction of L is
    all of K_p: every mod-p kernel vector reduces from an integer
    homomorphism g -> t.  The trace columns of such a homomorphism are
    integer vectors that reduce to the mod-p trace columns.  If the mod-p
    columns have rank d_v = dim t_v at a vertex v, some d_v x d_v minor of
    the integer columns is non-zero mod p, hence non-zero, so the trace T
    fills t_v.  Only the vertices in the top support of t are tested
    (`_Tops.support`): T is a subrepresentation, and at every other vertex
    rad t_v = t_v, so T fills the top, and by Nakayama's lemma (see
    `gen_contains`) T = t.

    Each solution adds one trace column at v per path into v from the
    vertex of a generator.  A tested vertex v takes enough solutions for
    d_v + `_GEN_RANDOM_TRIES` columns, all of them at most dim Hom, and is
    tested by one elimination.  A non-zero `solutions` caps the count; with
    one solution the columns span the image of one morphism, a
    subrepresentation too, so True certifies a surjection g -> t by the
    same proof."""
    q = ti.quiver
    dims = ti.dims
    top = ti._tops.support
    # the dimension to reach at each vertex: dim t_v at the top vertices of
    # t, 0 elsewhere
    tested = [d if v in top else 0 for v, d in enumerate(dims, 1)]
    # runs of consecutive generators at one vertex v with t_v != 0
    runs = [r for r in _generator_runs(sys.summands, sys.offsets) if dims[r[0] - 1]]
    # trace columns one solution adds at each vertex
    per = [
        sum(len(sys.paths[v][tv]) * n for v, _, n in runs) for tv in range(1, q.n + 1)
    ]
    if any(d and not c for d, c in zip(tested, per)):
        return False
    # solutions used at each vertex: enough for dim t_v + slack columns
    need = [-(-(d + _GEN_RANDOM_TRIES) // c) if d else 0 for d, c in zip(tested, per)]
    count = min(sys.upper, solutions or max(need))
    if any(-(-d // c) > count for d, c in zip(tested, per) if d):
        return False  # too few columns for rank dim t_v
    u, p = sys.mk.random_residues(count)
    pmod = sys.path_residues
    for tv in range(1, q.n + 1):
        d = tested[tv - 1]
        if not d:
            continue
        k = min(count, need[tv - 1])
        rows = np.empty((k * per[tv - 1], d), dtype=np.float64)  # trace columns
        at = 0
        for v, start, n in runs:
            # (generators, dim t_v, k): the generator images of k solutions
            images = u[start : start + n * dims[v - 1]].reshape(n, dims[v - 1], count)
            for pth in sys.paths[v][tv]:
                img = images[:, :, :k]
                if pth:
                    img = matmul_mod_p(pmod[(v, pth)], img, p)
                rows[at : at + n * k].reshape(n, k, d)[...] = img.transpose(0, 2, 1)
                at += n * k
        if len(pivot_columns_mod_p(rows, p)) < d:
            return False
    return True


def _trace_columns(
    sys: _HomSystem, t: Rep, w: list[int], skip: list[bool]
) -> list[list[np.ndarray]]:
    """The trace columns of one integer solution w of the Hom system into t
    at each vertex (0-based), none where `skip` is set: the path images of
    its generator images, which span the image of the morphism there."""
    # int64 matvecs are exact under this bound, object arithmetic beyond it
    exact = sys.ynp_max * max(map(abs, w), default=0) * max(1, *t.dims) < 2**62
    dtype = np.int64 if exact else object
    new: list[list[np.ndarray]] = [[] for _ in t.dims]
    for j, (v, _) in enumerate(sys.summands):
        uj = np.array(w[sys.offsets[j] : sys.offsets[j] + t.dim(v)], dtype=dtype)
        if not uj.size or not uj.any():
            continue
        for tv in range(1, t.quiver.n + 1):
            if skip[tv - 1]:
                continue
            for pth in sys.paths[v][tv]:
                ym = sys.ynp[(v, pth)]
                if dtype is np.int64 and ym.dtype == object:
                    ym = ym.astype(np.int64)
                new[tv - 1].append(ym @ uj)
    return new


def gen_contains(m: Rep, x: Rep) -> bool:
    """True iff x lies in Fac(m): the trace of m in x fills x vertexwise.

    The trace T of m in x is a subrepresentation, so it is enough that T
    fills x at the vertices in the top support of x (`_Tops.support`).
    Proof (Nakayama's lemma): the arrow ideal J is nilpotent.  Let
    T ⊆ X be a subrepresentation with T_v = X_v at every top vertex v.  At
    every other vertex rad X_v = X_v, so T + rad X = X.  Then
    X/T = J(X/T), and therefore X/T = 0.

    Decided in this order, with no Hom system built before the last step:
    - x = 0 is in Fac(m).
    - Top "no".  A surjection m^k -> x maps rad onto rad, so top x is a
      quotient of (top m)^k: if top x is non-zero at a vertex where top m
      is zero, the answer is "no".  Past this step every non-zero vertex
      of x, reached by a path from a top vertex of x, is reached from a
      top vertex of m.
    - Projective "yes".  Past the top "no", top x is non-zero only at
      generator vertices of m.  When every presentation kernel of m is
      empty (P0 = m), every choice of generator images is a morphism, so
      T_v = x_v at every generator vertex v of m, hence at every vertex
      where top x is non-zero, and T = x by the lemma above.
    - Otherwise the reduced Hom system decides.  Its upper bound 0 means
      "no".  A pinned system (upper bound equal to the Euler-form lower
      bound) certifies "yes" from random solutions modulo one prime, with
      rank tests at the top vertices of x only (`_gen_certified_mod_p`).
      Failing that, the trace columns of the whole exact canonical solution
      basis, which span the trace, are collected at the top vertices of x,
      and each top vertex is decided once by `_column_span_full`."""
    if m.quiver != x.quiver:
        raise ValueError("Gen test requires a common quiver")
    if x.is_zero():
        return True
    gi, ti = _integer_form(m), _integer_form(x)
    gens, top = gi._tops, ti._tops.support
    # top "no": top x non-zero where top m is zero
    if top - gens.support:
        return False
    # projective "yes": m is its own P0
    if gens.p0_dims == list(gi.dims):
        return True
    sys = _hom_system(gi, ti)
    if sys.upper == 0:
        return False
    if _pinned(sys, m, x) and _gen_certified_mod_p(sys, ti):
        return True
    skip = [v not in top for v in range(1, ti.quiver.n + 1)]
    columns: list[list[np.ndarray]] = [[] for _ in ti.dims]
    # the numerators of a solution span the same trace as the solution
    for w, _ in sys.solutions():
        for v, cols in enumerate(_trace_columns(sys, ti, w, skip)):
            columns[v] += cols
    return all(
        s or _column_span_full(c, dv) for s, c, dv in zip(skip, columns, ti.dims)
    )
