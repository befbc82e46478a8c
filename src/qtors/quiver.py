"""Quiver data model, DSL parsing, and structural classification.

A quiver is a finite acyclic directed multigraph on vertices 1..n.  The
classification splits connected quivers into Dynkin (ADE trees), extended
Dynkin (affine ADE, including the double edge on two vertices) and wild,
by definiteness of the symmetrized Tits form; an independent shape matcher
over the underlying multigraph provides the type labels and serves as a
cross-check in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import Matrix, symmetric_definiteness


class QuiverError(ValueError):
    pass


class QuiverSyntaxError(QuiverError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class Quiver:
    """Acyclic directed multigraph; vertices are 1..n, arrows (source, target)."""

    n: int
    arrows: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.n < 1:
            raise QuiverError("quiver needs at least one vertex")
        for s, t in self.arrows:
            if not (1 <= s <= self.n and 1 <= t <= self.n):
                raise QuiverError(f"arrow ({s},{t}) out of vertex range 1..{self.n}")
            if s == t:
                raise QuiverError(f"loop at vertex {s}")
        if self.topological_order() is None:
            raise QuiverError("quiver has an oriented cycle")

    # -- structure ---------------------------------------------------------

    def topological_order(self) -> tuple[int, ...] | None:
        """Vertices ordered sources-first, or None if the quiver is cyclic."""
        indeg = {v: 0 for v in range(1, self.n + 1)}
        for _, t in self.arrows:
            indeg[t] += 1
        order = []
        ready = sorted(v for v, d in indeg.items() if d == 0)
        while ready:
            v = ready.pop(0)
            order.append(v)
            for s, t in self.arrows:
                if s == v:
                    indeg[t] -= 1
                    if indeg[t] == 0 and t not in ready:
                        ready.append(t)
            ready.sort()
        return tuple(order) if len(order) == self.n else None

    def is_connected(self) -> bool:
        if self.n == 1:
            return True
        adj = {v: set() for v in range(1, self.n + 1)}
        for s, t in self.arrows:
            adj[s].add(t)
            adj[t].add(s)
        seen = {1}
        stack = [1]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == self.n

    def edge_multiplicities(self) -> dict[tuple[int, int], int]:
        """Undirected edge -> multiplicity, keys with smaller vertex first."""
        mult: dict[tuple[int, int], int] = {}
        for s, t in self.arrows:
            key = (min(s, t), max(s, t))
            mult[key] = mult.get(key, 0) + 1
        return mult

    def arrows_out(self, v: int) -> list[int]:
        return [i for i, (s, _) in enumerate(self.arrows) if s == v]

    def arrows_in(self, v: int) -> list[int]:
        return [i for i, (_, t) in enumerate(self.arrows) if t == v]

    def is_sink(self, v: int) -> bool:
        return not self.arrows_out(v)

    def is_source(self, v: int) -> bool:
        return not self.arrows_in(v)

    # -- serialization -----------------------------------------------------

    def to_dsl(self) -> str:
        lines = [f"vertices {self.n}"]
        mult: dict[tuple[int, int], int] = {}
        for a in self.arrows:
            mult[a] = mult.get(a, 0) + 1
        for (s, t), m in sorted(mult.items()):
            lines.append(f"arrow {s} {t}" + (f" *{m}" if m > 1 else ""))
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class QuiverClass:
    """Classification tag: 'Dynkin', 'ExtendedDynkin' or 'Wild', with type label."""

    tag: str
    type_name: str | None = None

    def __str__(self) -> str:
        return f"{self.tag}({self.type_name})" if self.type_name else self.tag


def parse_quiver(text: str) -> Quiver:
    """Parse the quiver DSL.

    Comment lines start with '#'; the first significant line is
    "vertices <n>"; then "arrow <src> <dst>" or "arrow <src> <dst> *<mult>".
    """
    n = None
    arrows: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if n is None:
            if parts[0] != "vertices" or len(parts) != 2:
                raise QuiverSyntaxError("expected 'vertices <n>'", lineno)
            try:
                n = int(parts[1])
            except ValueError:
                raise QuiverSyntaxError("vertex count is not an integer", lineno)
            if n < 1:
                raise QuiverSyntaxError("vertex count must be positive", lineno)
            continue
        if parts[0] != "arrow" or len(parts) not in (3, 4):
            raise QuiverSyntaxError("expected 'arrow <src> <dst> [*<mult>]'", lineno)
        try:
            s, t = int(parts[1]), int(parts[2])
        except ValueError:
            raise QuiverSyntaxError("arrow endpoints are not integers", lineno)
        mult = 1
        if len(parts) == 4:
            if not parts[3].startswith("*"):
                raise QuiverSyntaxError("multiplicity must look like '*<k>'", lineno)
            try:
                mult = int(parts[3][1:])
            except ValueError:
                raise QuiverSyntaxError("multiplicity is not an integer", lineno)
            if mult < 1:
                raise QuiverSyntaxError("multiplicity must be >= 1", lineno)
        if not (1 <= s <= n and 1 <= t <= n):
            raise QuiverSyntaxError(f"vertex out of range 1..{n}", lineno)
        if s == t:
            raise QuiverSyntaxError(f"loop at vertex {s}", lineno)
        arrows.extend([(s, t)] * mult)
    if n is None:
        raise QuiverSyntaxError("missing 'vertices <n>' line", 1)
    return Quiver(n, tuple(arrows))


def tits_matrix(q: Quiver) -> Matrix:
    """Symmetrized Tits form matrix B with q(x) = x^T B x / 2."""
    data = [[0] * q.n for _ in range(q.n)]
    for v in range(q.n):
        data[v][v] = 2
    for (a, b), m in q.edge_multiplicities().items():
        data[a - 1][b - 1] -= m
        data[b - 1][a - 1] -= m
    return Matrix(q.n, q.n, data)


def tits_form(q: Quiver, x: list[int]) -> int:
    """q(x) = sum x_i^2 - sum over arrows x_s * x_t."""
    val = sum(xi * xi for xi in x)
    for s, t in q.arrows:
        val -= x[s - 1] * x[t - 1]
    return val


def _branch_lengths(adj: dict[int, set[int]], center: int) -> list[int] | None:
    """Lengths of the simple paths hanging off a tree vertex, or None if not
    a star-of-paths rooted there."""
    lengths = []
    for start in adj[center]:
        length = 1
        prev, cur = center, start
        while True:
            nxt = [w for w in adj[cur] if w != prev]
            if not nxt:
                break
            if len(nxt) > 1:
                return None
            prev, cur = cur, nxt[0]
            length += 1
        lengths.append(length)
    return sorted(lengths)


def classify_by_shape(q: Quiver) -> QuiverClass:
    """Classify by matching the underlying multigraph against the ADE and
    affine ADE shapes directly.  Independent of the Tits-form route."""
    if not q.is_connected():
        raise QuiverError("classification requires a connected quiver")
    n = q.n
    mult = q.edge_multiplicities()
    edges = sum(mult.values())
    if n == 1:
        return QuiverClass("Dynkin", "A1")
    if any(m > 2 for m in mult.values()) or (
        any(m == 2 for m in mult.values()) and (n > 2 or len(mult) > 1)
    ):
        if n == 2 and len(mult) == 1 and edges == 2:
            return QuiverClass("ExtendedDynkin", "A~1")
        return QuiverClass("Wild")
    if n == 2 and edges == 2:
        return QuiverClass("ExtendedDynkin", "A~1")
    if n == 2:
        return QuiverClass("Dynkin", "A2")

    degrees = {v: 0 for v in range(1, n + 1)}
    adj: dict[int, set[int]] = {v: set() for v in range(1, n + 1)}
    for a, b in mult:
        degrees[a] += 1
        degrees[b] += 1
        adj[a].add(b)
        adj[b].add(a)

    if edges == n:  # connected with one independent cycle
        if all(d == 2 for d in degrees.values()):
            return QuiverClass("ExtendedDynkin", f"A~{n - 1}")
        return QuiverClass("Wild")
    if edges > n:
        return QuiverClass("Wild")

    # tree with simple edges
    branch_vertices = [v for v, d in degrees.items() if d >= 3]
    if not branch_vertices:
        return QuiverClass("Dynkin", f"A{n}")
    if len(branch_vertices) == 1:
        c = branch_vertices[0]
        if degrees[c] == 4:
            if n == 5:
                return QuiverClass("ExtendedDynkin", "D~4")
            return QuiverClass("Wild")
        if degrees[c] > 4:
            return QuiverClass("Wild")
        br = _branch_lengths(adj, c)
        if br is None or len(br) != 3:
            raise RuntimeError("tree with one branch vertex lacks three branches")
        if br[0] == 1 and br[1] == 1:
            return QuiverClass("Dynkin", f"D{n}")
        if br == [1, 2, 2]:
            return QuiverClass("Dynkin", "E6")
        if br == [1, 2, 3]:
            return QuiverClass("Dynkin", "E7")
        if br == [1, 2, 4]:
            return QuiverClass("Dynkin", "E8")
        if br == [2, 2, 2]:
            return QuiverClass("ExtendedDynkin", "E~6")
        if br == [1, 3, 3]:
            return QuiverClass("ExtendedDynkin", "E~7")
        if br == [1, 2, 5]:
            return QuiverClass("ExtendedDynkin", "E~8")
        return QuiverClass("Wild")
    if len(branch_vertices) == 2:
        a, b = branch_vertices
        if degrees[a] == degrees[b] == 3:
            # affine D: a path between the two fork vertices, each carrying
            # two extra leaf edges
            leaves_a = sum(1 for w in adj[a] if degrees[w] == 1)
            leaves_b = sum(1 for w in adj[b] if degrees[w] == 1)
            if leaves_a >= 2 and leaves_b >= 2:
                return QuiverClass("ExtendedDynkin", f"D~{n - 1}")
        return QuiverClass("Wild")
    return QuiverClass("Wild")


def classify(q: Quiver) -> QuiverClass:
    """Classify by exact definiteness of the symmetrized Tits form:
    positive definite = Dynkin, positive semidefinite with one-dimensional
    radical = extended Dynkin, otherwise wild.  Type labels come from the
    shape matcher, which must agree on the tag."""
    if not q.is_connected():
        raise QuiverError("classification requires a connected quiver")
    posdef, possemi, ker = symmetric_definiteness(tits_matrix(q))
    if posdef:
        tag = "Dynkin"
    elif possemi and ker == 1:
        tag = "ExtendedDynkin"
    else:
        tag = "Wild"
    shaped = classify_by_shape(q)
    if shaped.tag != tag:
        raise RuntimeError(f"Tits form and shape matcher disagree on {q}")
    return shaped


def opposite(q: Quiver) -> Quiver:
    """All arrows reversed, vertices unchanged; arrow order preserved."""
    return Quiver(q.n, tuple((t, s) for s, t in q.arrows))


def full_subquiver(q: Quiver, vs: set[int]) -> tuple[Quiver, dict[int, int]]:
    """Full subquiver on vs, relabeled 1..|vs| in increasing vertex order.

    Returns (subquiver, relabeling old vertex -> new vertex).
    """
    if not vs:
        raise QuiverError("empty vertex set")
    ordered = sorted(vs)
    relabel = {v: i + 1 for i, v in enumerate(ordered)}
    arrows = tuple(
        (relabel[s], relabel[t]) for s, t in q.arrows if s in vs and t in vs
    )
    return Quiver(len(ordered), arrows), relabel


def find_witness_subquiver(q: Quiver) -> tuple[frozenset[int], QuiverClass] | None:
    """Smallest full subquiver that is extended Dynkin with >= 3 vertices or
    wild with exactly 3 vertices; None iff q is Dynkin or has <= 2 vertices.

    Among the witnesses of smallest size the lexicographically first sorted
    vertex tuple is returned.  An extended Dynkin quiver is its own witness
    (`_witness`); a wild one is searched level by level
    (`_smallest_witness`).
    """
    if not q.is_connected():
        raise QuiverError("witness search requires a connected quiver")
    if q.n <= 2:
        return None
    cls = classify(q)
    if cls.tag == "Dynkin":
        return None
    return _witness(q, cls)


def _witness(q: Quiver, cls: QuiverClass) -> tuple[frozenset[int], QuiverClass]:
    """The witness of `find_witness_subquiver` on a connected non-Dynkin
    quiver with at least 3 vertices whose class `cls` is known.

    An extended Dynkin quiver is its own smallest witness, because every
    proper full subquiver of it is Dynkin (the Perron-Frobenius argument
    of Kac, Infinite dimensional Lie algebras, Lemma 4.3):
    - The symmetrized Tits matrix B has off-diagonal entries <= 0, and
      `classify` has certified it positive semidefinite with a
      1-dimensional radical; so q(x) = 0 iff Bx = 0.
    - If Bx = 0, then q(|x|) <= q(x) = 0, so B|x| = 0.  If x_i = 0, then
      (B|x|)_i = 0 forces every neighbour of i to 0.  The quiver is
      connected, so the radical is spanned by a sincere vector δ.
    - Let x != 0 be supported on a proper vertex set.  If q(x) = 0, then
      x ∈ ℚδ, which is impossible because δ is non-zero everywhere.  So
      every proper full subquiver has a positive definite form, which
      means it is Dynkin.
    The witness is therefore the whole vertex set, with the class `cls`
    that the search would also find, since `full_subquiver` on every
    vertex is q itself.  Only wild input is searched.
    """
    if cls.tag == "ExtendedDynkin":
        return frozenset(range(1, q.n + 1)), cls
    return _smallest_witness(q)


def _smallest_witness(q: Quiver) -> tuple[frozenset[int], QuiverClass]:
    """The smallest witness of a connected quiver already known to be
    non-Dynkin with at least 3 vertices, found by search.

    Only connected vertex sets can be witnesses, and only those are built:
    level s + 1 holds S + {w} for every connected S of size s and every
    neighbour w of S outside S, which reaches every connected set, since
    each has a vertex whose removal leaves it connected.  From size 3 on,
    each level is classified in sorted-tuple order, so the sets tested and
    their order are those of a scan of all subsets by size and then
    lexicographically that skips the disconnected ones.  Below the witness
    size every connected full subquiver is Dynkin, which keeps each level
    polynomial in the number of vertices (README, "Witness subquivers").
    """
    adj: dict[int, set[int]] = {v: set() for v in range(1, q.n + 1)}
    for s, t in q.arrows:
        adj[s].add(t)
        adj[t].add(s)
    level = {frozenset(edge) for edge in q.edge_multiplicities()}
    for size in range(3, q.n + 1):
        level = {vs | {w} for vs in level for u in vs for w in adj[u] - vs}
        for vs in sorted(tuple(sorted(vs)) for vs in level):
            sub, _ = full_subquiver(q, set(vs))
            cls = classify(sub)
            if cls.tag == "ExtendedDynkin":
                return frozenset(vs), cls
            if cls.tag == "Wild" and size == 3:
                return frozenset(vs), cls
    raise RuntimeError("no witness found for a non-Dynkin quiver with >= 3 vertices")


def theorem_main_decision(q: Quiver) -> tuple[bool, dict]:
    """Decide whether the functorially finite torsion classes of the path
    algebra form a lattice: true iff the quiver is Dynkin or has at most
    two vertices.  The certificate names the reason, or the witness
    subquiver on failure."""
    if not q.is_connected():
        raise QuiverError("decision requires a connected quiver")
    return decide_with_class(q, classify(q))


def decide_with_class(q: Quiver, cls: QuiverClass) -> tuple[bool, dict]:
    """`theorem_main_decision` for a connected quiver whose classification
    `cls` is already known, so that callers which need the class as well
    classify only once."""
    if cls.tag == "Dynkin":
        return True, {"reason": "Dynkin", "type": cls.type_name}
    if q.n <= 2:
        return True, {"reason": "at most 2 vertices", "vertices": q.n}
    vs, wcls = _witness(q, cls)
    return False, {
        "reason": "witness subquiver",
        "vertices": sorted(vs),
        "class": {"tag": wcls.tag, "type": wcls.type_name},
    }
