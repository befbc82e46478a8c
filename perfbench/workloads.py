"""Seeded inputs of the benchmark workloads.

`generate(name, seed)` returns the quiver files and the argv of every
command one pass runs; the same seed gives the same inputs.  Each command
carries the label of the per-command wall sum it adds to and what its
oracle expects, computed here from closed forms, never by qtors.
"""

from __future__ import annotations

import itertools
import random
from math import comb

WORKLOADS = {
    "dynkin": (
        "enumerate, poset and check-lattice on seeded orientations of A4, D4 "
        "and A5: the tau-tilting catalog path with zero modkernel calls, and "
        "repeated Hom queries on long-lived catalog objects"
    ),
    "kronecker": (
        "kronecker windows (2,6), (3,6) and (3,6) again: the large-Hom "
        "modkernel path with zero taurig/poset calls; the repeat makes the "
        "id()-keyed rep caches miss and grow"
    ),
    "wild": (
        "24 witness files, one witness tower and check-lattice on cycles of "
        "15 and 16 vertices: Ext and presentation code, small exact linalg "
        "and the exponential witness subquiver search"
    ),
}


def _catalan(k: int) -> int:
    return comb(2 * k, k) // (k + 1)


def stt_count(kind: str, n: int) -> int:
    """Number of support tau-tilting pairs: the Coxeter-Catalan number."""
    if kind == "A":
        return _catalan(n + 1)
    return (3 * n - 2) * comb(2 * n - 2, n - 1) // n


def positive_roots(kind: str, n: int) -> int:
    return n * (n + 1) // 2 if kind == "A" else n * (n - 1)


def _dsl(n: int, arrows: list[tuple[int, int]]) -> str:
    return f"vertices {n}\n" + "".join(f"arrow {s} {t}\n" for s, t in arrows)


def _orient(rng: random.Random, edges: list[tuple[int, int]]) -> list[tuple[int, int]]:
    return [(s, t) if rng.random() < 0.5 else (t, s) for s, t in edges]


def _dynkin(rng: random.Random) -> dict:
    files, commands = {}, []
    shapes = [
        ("A", 4, [(1, 2), (2, 3), (3, 4)]),
        ("D", 4, [(1, 2), (2, 3), (2, 4)]),
        ("A", 5, [(1, 2), (2, 3), (3, 4), (4, 5)]),
    ]
    for kind, n, edges in shapes:
        path = f"inputs/{kind}{n}.q"
        arrows = _orient(rng, edges)
        files[path] = _dsl(n, arrows)
        expect = {
            "n": n,
            "arrows": arrows,
            "count": stt_count(kind, n),
            "roots": positive_roots(kind, n),
        }
        commands += [
            {"argv": ["enumerate", path], "label": "enumerate_s",
             "oracle": "enumerate", "expect": expect},
            {"argv": ["poset", path, "--out", "json"], "label": "poset_s",
             "oracle": "poset", "expect": expect},
            {"argv": ["check-lattice", path], "label": "check_lattice_s",
             "oracle": "check_lattice_dynkin", "expect": expect},
        ]
    return {"files": files, "commands": commands}


def _kronecker(rng: random.Random) -> dict:
    # fixed argv: the third command repeats the second on fresh objects
    runs = [(2, 6, "kronecker_s"), (3, 6, "kronecker_s"), (3, 6, "kronecker_repeat_s")]
    return {
        "files": {},
        "commands": [
            {"argv": ["kronecker", "--n", str(n), "--depth", str(d)], "label": label,
             "oracle": "kronecker", "expect": {"n": n, "depth": d}}
            for n, d, label in runs
        ],
    }


def _wild(rng: random.Random) -> dict:
    files, commands = {}, []
    # one triple per (a, b) stratum with c drawn, so every pass holds one
    # triple of each cost class
    triples = [(a, b, rng.choice((0, 1))) for a, b in itertools.product((2, 3), (1, 2))]
    for a, b, c in triples:
        # the six orientation cases put (a, b, c) in every order on the
        # arrow positions 1->2, 2->3, 1->3
        for x, y, z in itertools.permutations((a, b, c)):
            path = f"inputs/wild_{a}{b}{c}_{x}{y}{z}.q"
            arrows = [(1, 2)] * x + [(2, 3)] * y + [(1, 3)] * z
            files[path] = _dsl(3, arrows)
            commands.append(
                {"argv": ["witness", path], "label": "witness_s", "oracle": "witness",
                 "expect": {"abc": sorted((a, b, c)), "arrows": arrows}}
            )
    commands.append(
        {"argv": ["witness", "--abc", "2,1,0", "--tower", "6"], "label": "tower_s",
         "oracle": "tower", "expect": {"abc": [2, 1, 0], "levels": 6}}
    )
    for n in (15, 16):
        path = f"inputs/cycle{n}.q"
        labels = list(range(1, n + 1))
        rng.shuffle(labels)
        edges = [(labels[i], labels[(i + 1) % n]) for i in range(n)]
        while True:
            arrows = _orient(rng, edges)
            # all edges one way round would be an oriented cycle
            if not all(a == e for a, e in zip(arrows, edges)) and not all(
                a != e for a, e in zip(arrows, edges)
            ):
                break
        rng.shuffle(arrows)
        files[path] = _dsl(n, arrows)
        commands.append(
            {"argv": ["check-lattice", path], "label": "check_lattice_s",
             "oracle": "check_lattice_cycle", "expect": {"n": n}}
        )
    return {"files": files, "commands": commands}


_GENERATORS = {"dynkin": _dynkin, "kronecker": _kronecker, "wild": _wild}


def generate(name: str, seed: int) -> dict:
    """Input files (relative path -> text) and commands of one pass."""
    return _GENERATORS[name](random.Random(f"{name}:{seed}"))
