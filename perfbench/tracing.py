"""Span tracing of qtors layer boundaries, installed from outside the package.

`install` wraps the public functions named in BOUNDARIES.  A function that
another qtors module imported by value (`from .rep import hom_dim`) is
rebound in every module that holds it; methods are patched on their class.
Each call records one span (name, start, end, parent span, command id) in
flat arrays, which `Tracer.save` writes out when the worker ends and
`layer_metrics` turns into per-layer calls, self and inclusive times.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array

MODULES = ("cli", "linalg", "quiver", "forms", "modkernel", "rep", "taurig", "poset", "families")

# (module, attribute path) of every traced boundary; a dotted path names a
# method, patched on its class.
BOUNDARIES = (
    ("cli", "main"),
    ("taurig", "catalog"),
    ("taurig", "is_compatible"),
    ("taurig", "enumerate_stt_exhaustive"),
    ("taurig", "enumerate_stt_mutation"),
    ("taurig", "mutations"),
    ("taurig", "fac_class"),
    ("poset", "FinitePoset.__init__"),
    ("poset", "FinitePoset.is_lattice"),
    ("rep", "hom_dim"),
    ("rep", "hom_basis"),
    ("rep", "gen_contains"),
    ("rep", "reflect"),
    ("rep", "ar_translate"),
    ("rep", "ar_translate_inverse"),
    ("rep", "ExtGroup.__init__"),
    ("rep", "extension_realize"),
    ("rep", "projective_presentation"),
    ("rep", "enumerate_indecomposables"),
    ("linalg", "Matrix.rref"),
    ("modkernel", "echelon_mod_p"),
    ("modkernel", "ModKernel.__init__"),
    ("quiver", "classify"),
    ("quiver", "find_witness_subquiver"),
    ("families", "kronecker_window"),
    ("families", "kronecker_chain_check"),
    ("families", "build_wild_witness"),
    ("families", "verify_witness"),
    ("families", "uniserial_tower"),
    ("families", "nonff_evidence"),
)

# Boundaries that are only counted: no span, so no time.
COUNTED = (("forms", "forms_context"),)

# Counters kept next to the spans; every traced run reports all of them.
COUNTERS = (
    "taurig.stt_pairs",
    "taurig.stt_candidates",
    "linalg.rref.cells",
    "modkernel.echelon.cells",
    "modkernel.reconstruction_errors",
)


def span_name(module: str, path: str) -> str:
    return f"{module}.{path}"


class Tracer:
    """Spans and counters of one worker process, all held in memory."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.cmd = array("i")
        # 1 when no span of the same name encloses this one, so recursive
        # calls are not counted twice in inclusive time
        self.outer = array("b")
        self._stack = [-1]
        self._depth: list[int] = []
        self.command = -1
        self.paused = False
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.calls = {span_name(m, p): 0 for m, p in COUNTED}
        # identity pairs seen by rep.hom_dim; the arguments are kept alive so
        # that an id is never reused for another object during the run
        self.hom_pairs: dict[tuple[int, int], tuple[object, object]] = {}

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
        return self._ids[name]

    def wrap(self, name: str, fn, on_call=None):
        nid = self._id(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            if on_call is not None:
                on_call(args)
            i = len(self.start)
            self.name.append(nid)
            self.parent.append(self._stack[-1])
            self.cmd.append(self.command)
            self.outer.append(self._depth[nid] == 0)
            self.end.append(0.0)
            self._stack.append(i)
            self._depth[nid] += 1
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[i] = clock()
                self._stack.pop()
                self._depth[nid] -= 1

        return traced

    def count(self, name: str, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if not self.paused:
                self.calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    def save(self, path: str) -> None:
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            cmd=np.frombuffer(self.cmd, dtype=np.int32),
            outer=np.frombuffer(self.outer, dtype=np.int8),
        )

    def summary(self) -> dict:
        """Counters and call counts that are not spans."""
        out = dict(self.counters)
        out.update({f"{k}.calls": v for k, v in self.calls.items()})
        out["rep.hom_dim.distinct_pairs"] = len(self.hom_pairs)
        return out


def _resolve(module, path: str):
    owner = module
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def install(tracer: Tracer) -> None:
    """Wrap every boundary of the already importable qtors package."""
    pkg = importlib.import_module("qtors")
    mods = {m: importlib.import_module(f"qtors.{m}") for m in MODULES}
    holders = [pkg, *mods.values()]
    hooks = _hooks(tracer)

    def rebind(orig, replacement) -> None:
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is orig:
                    setattr(holder, key, replacement)

    for module, path in BOUNDARIES:
        owner, attr = _resolve(mods[module], path)
        orig = getattr(owner, attr)
        wrapped = tracer.wrap(span_name(module, path), orig, hooks.get((module, path)))
        if owner is mods[module]:
            rebind(orig, wrapped)
        else:
            setattr(owner, attr, wrapped)
    for module, path in COUNTED:
        orig = getattr(mods[module], path)
        rebind(orig, tracer.count(span_name(module, path), orig))
    _wrap_reconstruction_error(tracer, mods["modkernel"].ReconstructionError)
    _wrap_stt_yield(tracer, mods["taurig"])


def _hooks(tracer: Tracer) -> dict:
    c = tracer.counters

    def rref(args) -> None:
        m = args[0]
        c["linalg.rref.cells"] += m.rows * m.cols

    def echelon(args) -> None:
        c["modkernel.echelon.cells"] += int(args[0].size)

    def hom_dim(args) -> None:
        x, y = args[0], args[1]
        tracer.hom_pairs.setdefault((id(x), id(y)), (x, y))

    return {
        ("linalg", "Matrix.rref"): rref,
        ("modkernel", "echelon_mod_p"): echelon,
        ("rep", "hom_dim"): hom_dim,
    }


def _wrap_reconstruction_error(tracer: Tracer, cls) -> None:
    # every raise builds an instance, so counting constructions counts the
    # failed reconstructions, including those the callers recover from
    orig = cls.__init__

    def init(self, *args, **kwargs):
        if not tracer.paused:
            tracer.counters["modkernel.reconstruction_errors"] += 1
        orig(self, *args, **kwargs)

    cls.__init__ = init


def _wrap_stt_yield(tracer: Tracer, taurig) -> None:
    """Record pairs found and candidate n-subsets of the exhaustive search,
    for taurig.stt_yield = pairs / C(compatible summands, n)."""
    from math import comb

    traced = taurig.enumerate_stt_exhaustive

    @functools.wraps(traced)
    def exhaustive(q):
        pairs = traced(q)
        if not tracer.paused:
            tracer.paused = True
            try:
                cat = taurig.catalog(q)
                k = sum(1 for u in cat.summands() if taurig.is_compatible(cat, u, u))
            finally:
                tracer.paused = False
            tracer.counters["taurig.stt_pairs"] += len(pairs)
            tracer.counters["taurig.stt_candidates"] += comb(k, q.n)
        return pairs

    for holder in (taurig, importlib.import_module("qtors")):
        if getattr(holder, "enumerate_stt_exhaustive", None) is traced:
            holder.enumerate_stt_exhaustive = exhaustive


def layer_metrics(spans_path: str, summary: dict) -> dict[str, float]:
    """Per-boundary calls, self and inclusive seconds from a saved span file,
    plus the derived counter metrics."""
    import numpy as np

    with np.load(spans_path) as f:
        names = [str(s) for s in f["names"]]
        name, start, end = f["name"], f["start"], f["end"]
        parent, outer = f["parent"], f["outer"]
    dur = end - start
    child = np.zeros(len(dur))
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_t = dur - child
    k = len(names)
    calls = np.bincount(name, minlength=k)
    self_s = np.bincount(name, weights=self_t, minlength=k)
    incl_s = np.bincount(name, weights=dur * (outer == 1), minlength=k)
    out: dict[str, float] = {}
    by_name = {n: i for i, n in enumerate(names)}
    for module, path in BOUNDARIES:
        key = span_name(module, path)
        i = by_name[key]
        out[f"{key}.calls"] = int(calls[i])
        out[f"{key}.self_s"] = float(self_s[i])
        out[f"{key}.incl_s"] = float(incl_s[i])
    for module, path in COUNTED:
        key = f"{span_name(module, path)}.calls"
        out[key] = summary[key]
    cand = summary["taurig.stt_candidates"]
    out["taurig.stt_yield"] = summary["taurig.stt_pairs"] / cand if cand else 0.0
    hom_calls = out["rep.hom_dim.calls"]
    out["rep.hom_dim.unique_ratio"] = (
        summary["rep.hom_dim.distinct_pairs"] / hom_calls if hom_calls else 0.0
    )
    for key in ("linalg.rref.cells", "modkernel.echelon.cells", "modkernel.reconstruction_errors"):
        out[key] = summary[key]
    return out
