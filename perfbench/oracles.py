"""Output oracles: each takes a command's exit code, its stdout and what the
generator expects, and returns None when the answer holds or a one-line
reason when it does not.

The expectations are independent of qtors: Coxeter-Catalan counts, the
N*n/2 edges of the mutation graph (Adachi-Iyama-Reiten), the Coxeter
recursion of Kronecker dimension vectors and the Euler form of the input
quiver, which over a hereditary algebra gives <x, y> = hom - ext.
"""

from __future__ import annotations

import json


class Rejected(Exception):
    pass


def _require(cond: bool, reason: str) -> None:
    if not cond:
        raise Rejected(reason)


def _euler(arrows: list[list[int]], x: list[int], y: list[int]) -> int:
    return sum(a * b for a, b in zip(x, y)) - sum(x[s - 1] * y[t - 1] for s, t in arrows)


def _enumerate(out: dict, e: dict) -> None:
    _require(out["count"] == e["count"], f"count {out['count']} != {e['count']}")
    pairs, n, arrows = out["pairs"], e["n"], e["arrows"]
    _require(len(pairs) == e["count"], "pair list length differs from count")
    keys = set()
    for p in pairs:
        mods, shifted = p["modules"], p["shifted_projectives"]
        _require(len(mods) + len(shifted) == n, "a pair does not have n summands")
        _require(len({tuple(x) for x in mods}) == len(mods), "a module summand repeats")
        _require(len(set(shifted)) == len(shifted) and all(1 <= v <= n for v in shifted),
                 "bad shifted projectives")
        for x in mods:
            _require(len(x) == n and min(x) >= 0 and _euler(arrows, x, x) == 1,
                     f"{x} is not a positive root")
            # Hom(P_v, M) = M_v must vanish for a shifted projective P_v
            _require(all(x[v - 1] == 0 for v in shifted), "a module meets a shifted projective")
            # tau-rigid summands have no Ext between them, so <x, y> = hom >= 0
            _require(all(_euler(arrows, x, y) >= 0 for y in mods), "two summands have Ext")
        keys.add(json.dumps(p, sort_keys=True))
    _require(len(keys) == len(pairs), "duplicate pairs")


def _poset(out: dict, e: dict) -> None:
    elements, hasse = out["elements"], out["hasse"]
    count, n = e["count"], e["n"]
    _require(len(elements) == count, f"{len(elements)} elements, expected {count}")
    _require(len(hasse) == count * n // 2, f"{len(hasse)} Hasse edges, expected {count * n // 2}")
    _require([el["id"] for el in elements] == list(range(count)), "element ids are not 0..N-1")
    degree = [0] * count
    for lo, hi in hasse:
        _require(set(elements[lo]["payload"]) < set(elements[hi]["payload"]),
                 "a Hasse edge is not a strict inclusion")
        degree[lo] += 1
        degree[hi] += 1
    _require(all(d == n for d in degree), "an element does not have n mutations")
    sizes = sorted(len(el["payload"]) for el in elements)
    _require(sizes[0] == 0 and sizes[-1] == e["roots"], "no zero class or no class of everything")


def _check_lattice_dynkin(out: dict, e: dict) -> None:
    _require(out["theorem_decision"] is True, "decision is not true on a Dynkin quiver")
    _require(out["certificate"]["reason"] == "Dynkin", "certificate reason is not Dynkin")
    enum = out["enumerated"]
    _require(enum["elements"] == e["count"], f"{enum['elements']} classes, expected {e['count']}")
    _require(enum["is_lattice"] is True and out["agreement"] is True, "not a lattice or no agreement")
    _require(enum["has_top"] and enum["has_bottom"], "missing top or bottom")


def _check_lattice_cycle(out: dict, e: dict) -> None:
    _require(out["theorem_decision"] is False, "decision is not false on a cycle")
    cert = out["certificate"]
    _require(cert["vertices"] == list(range(1, e["n"] + 1)), "witness is not the whole cycle")
    _require(cert["class"]["tag"] == "ExtendedDynkin", "witness is not extended Dynkin")
    _require(out["enumerated"] is None, "a non-Dynkin quiver was enumerated")


def _kronecker(out: dict, e: dict) -> None:
    n, depth = e["n"], e["depth"]
    _require(out["ok"] is True and not out["failures"], f"report not ok: {out['failures']}")
    _require(out["n"] == n and out["depth"] == depth, "window parameters differ")
    for flag in ("all_bricks", "consecutive_pairs_rigid", "chain_inclusions_hold",
                 "top_class_is_everything", "bottom_generates_only_itself"):
        _require(out[flag] is True, f"{flag} is not true")
    a = [0, 1]
    while len(a) < depth + 1:
        a.append(n * a[-1] - a[-2])
    want = [[a[k], a[k + 1]] for k in range(depth)]
    _require(out["dims_preprojective"] == want, "preprojective dims off the Coxeter recursion")
    _require(out["dims_preinjective"] == [[y, x] for x, y in want],
             "preinjective dims off the Coxeter recursion")


def _witness_pair(out: dict, arrows: list[list[int]]) -> None:
    _require(out["ok"] is True and not out["failures"], f"witness not ok: {out['failures']}")
    c = out["checks"]
    m, n = out["dim_m"], out["dim_n"]
    _require(c["hom_mn"] == 0 and c["hom_nm"] == 0, "Hom between M and N does not vanish")
    _require(c["end_m"] == 1 and c["end_n"] == 1, "M or N is not a brick")
    _require(c["rigid_m"] and c["rigid_n"], "M or N is not rigid")
    _require(c["euler_nm"] == _euler(arrows, n, m), "euler_nm differs from <dim N, dim M>")
    _require(c["ext_mn"] == -_euler(arrows, m, n) >= 1, "ext_mn differs from -<dim M, dim N>")
    _require(c["ext_nm"] == -_euler(arrows, n, m) >= 1, "ext_nm differs from -<dim N, dim M>")
    _require(_euler(arrows, m, m) == 1 and _euler(arrows, n, n) == 1, "M or N is not a real Schur root")
    if out["case"] == "i":
        a, b, cc = out["abc"]
        closed = (a * a * b * b + 2 * a * b * cc + cc * cc - 1, a * b * b + b * cc, a * b + cc)
        _require(tuple(n) == closed, f"case (i) dim N {n} != closed form {closed}")
        _require(c["closed_form"] == c["euler_nm"], "closed form differs from <dim N, dim M>")
    else:
        _require(c["closed_form"] is None, "a closed form outside case (i)")


def _witness(out: dict, e: dict) -> None:
    _require(sorted(out["abc"]) == e["abc"], f"abc {out['abc']} is not a reordering of {e['abc']}")
    _witness_pair(out, e["arrows"])


def _tower(out: dict, e: dict) -> None:
    a, b, c = e["abc"]
    arrows = [[1, 2]] * a + [[2, 3]] * b + [[1, 3]] * c
    _require(out["case"] == "i" and out["abc"] == e["abc"], "--abc did not build case (i)")
    _witness_pair(out, arrows)
    tower = out["tower"]
    _require(len(tower) == e["levels"], f"{len(tower)} tower levels, expected {e['levels']}")
    dims = [0, 0, 0]
    for k, level in enumerate(tower):
        top = "M" if k % 2 == 0 else "N"
        add = out["dim_m"] if top == "M" else out["dim_n"]
        dims = [x + y for x, y in zip(dims, add)]
        _require(level["top"] == top and level["dims"] == dims and level["split"] is False,
                 f"tower level {k + 1} is not the non-split extension by {top}")
    nonff = out["nonff"]
    _require(nonff["ok"] is True and nonff["gen_results"] == [False] * (e["levels"] - 1),
             "a partial tower generates the next level")
    _require(len(nonff["hom_dims"]) == e["levels"] - 1, "wrong number of Hom dimensions")
    partial = [0, 0, 0]
    for k, hom in enumerate(nonff["hom_dims"]):
        partial = [x + y for x, y in zip(partial, tower[k]["dims"])]
        # level k+1 sits inside level k+2, and hom >= <x, y> over a hereditary algebra
        _require(hom >= max(1, _euler(arrows, partial, tower[k + 1]["dims"])),
                 f"Hom from the first {k + 1} levels into the next is too small")


ORACLES = {
    "enumerate": _enumerate,
    "poset": _poset,
    "check_lattice_dynkin": _check_lattice_dynkin,
    "check_lattice_cycle": _check_lattice_cycle,
    "kronecker": _kronecker,
    "witness": _witness,
    "tower": _tower,
}


def check(command: dict, rc, stdout: str) -> str | None:
    """None if the command exited 0 and its output satisfies its oracle."""
    if rc != 0:
        return f"exit code {rc}"
    try:
        ORACLES[command["oracle"]](json.loads(stdout), command["expect"])
    except Rejected as e:
        return str(e)
    except (ValueError, KeyError, TypeError, IndexError) as e:
        return f"malformed output: {type(e).__name__}: {e}"
    return None
