"""Command-line surface: classification, Cartan/Coxeter/Euler data,
support tau-tilting enumeration, torsion-class posets (DOT/JSON), lattice
checks, Kronecker window reports, wild-witness pipelines, and the Euler
grid scan.  Output is deterministic for identical inputs."""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache

from .families import (
    TOWER_LIMIT,
    WINDOW_LIMIT,
    WITNESS_LIMIT,
    build_wild_witness,
    kronecker_chain_check,
    kronecker_window,
    nonff_evidence,
)
from .forms import forms_context, triple_quiver, wild_triple_euler_value
from .quiver import QuiverError, classify, decide_with_class, parse_quiver
from .taurig import CLASS_LIMIT, stt_pairs_to_json, tau_tilting

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


def _load_quiver(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise SystemExit(f"error: cannot read quiver file {path}: {e.strerror}")
    return parse_quiver(text)


def _matrix_rows(m) -> list[list[str]]:
    return [[str(m[i, j]) for j in range(m.cols)] for i in range(m.rows)]


def _emit(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


def _cmd_classify(args) -> int:
    q = _load_quiver(args.file)
    cls = classify(q)
    _emit(
        {
            "vertices": q.n,
            "arrows": sorted([s, t] for s, t in q.arrows),
            "class": {"tag": cls.tag, "type": cls.type_name},
        }
    )
    return EXIT_OK


def _cmd_forms(args) -> int:
    q = _load_quiver(args.file)
    ctx = forms_context(q)
    out = {
        "cartan": _matrix_rows(ctx.cartan),
        "coxeter": _matrix_rows(ctx.coxeter),
    }
    if args.dim:
        if len(args.dim) != 2:
            raise SystemExit("error: --dim must be given exactly twice (x then y)")
        x, y = (_parse_vector(d, q.n) for d in args.dim)
        out["euler"] = {"x": x, "y": y, "value": ctx.euler_form(x, y)}
    _emit(out)
    return EXIT_OK


def _parse_vector(text: str, n: int) -> list[int]:
    try:
        vec = [int(p) for p in text.split(",")]
    except ValueError:
        raise SystemExit(f"error: dimension vector {text!r} is not comma-separated integers")
    if len(vec) != n:
        raise SystemExit(f"error: dimension vector {text!r} needs {n} entries")
    return vec


def _tau_tilting(q):
    try:
        return tau_tilting(q)
    except ValueError as e:
        raise SystemExit(f"error: {e}")


def _cmd_enumerate(args) -> int:
    q = _load_quiver(args.file)
    print(stt_pairs_to_json(q, _tau_tilting(q).pairs))
    return EXIT_OK


def _poset_label(e) -> str:
    return "{" + ",".join(str(i) for i in sorted(e)) + "}"


def _cmd_poset(args) -> int:
    q = _load_quiver(args.file)
    p = _tau_tilting(q).poset
    if args.out == "dot":
        sys.stdout.write(p.export_dot(label=_poset_label))
    else:
        print(p.export_json(label=_poset_label))
    return EXIT_OK


def _cmd_check_lattice(args) -> int:
    q = _load_quiver(args.file)
    cls = classify(q)
    verdict, certificate = decide_with_class(q, cls)
    out = {"theorem_decision": verdict, "certificate": certificate}
    if cls.tag == "Dynkin":
        tt = _tau_tilting(q)
        p = tt.poset
        # the pairwise loop runs only when the certificate fails
        certified, irreducibles = p.intersection_certificate(tt.class_masks)
        is_lat = certified or p.is_lattice()[0]
        out["enumerated"] = {
            "elements": len(p.elements),
            "is_lattice": is_lat,
            "has_top": p.top() is not None,
            "has_bottom": p.bottom() is not None,
        }
        out["lattice_certificate"] = {
            "route": "meet-irreducible closure" if certified else "pairwise bounds",
            "meet_irreducibles": irreducibles,
        }
        out["agreement"] = is_lat == verdict
        _emit(out)
        return EXIT_OK if out["agreement"] else EXIT_CHECK_FAILED
    out["enumerated"] = None
    _emit(out)
    return EXIT_OK


def _cmd_kronecker(args) -> int:
    try:
        w = kronecker_window(args.n, args.depth)
    except ValueError as e:
        raise SystemExit(f"error: {e}")
    report = kronecker_chain_check(w)
    _emit(
        {
            "n": w.n,
            "depth": w.depth,
            "dims_preprojective": [list(d) for d in report.dims_preprojective],
            "dims_preinjective": [list(d) for d in report.dims_preinjective],
            "all_bricks": report.all_bricks,
            "consecutive_pairs_rigid": report.consecutive_pairs_rigid,
            "chain_inclusions_hold": report.chain_inclusions_hold,
            "top_class_is_everything": report.top_class_is_everything,
            "bottom_generates_only_itself": report.bottom_generates_only_itself,
            "failures": report.failures,
            "ok": report.ok(),
        }
    )
    return EXIT_OK if report.ok() else EXIT_CHECK_FAILED


def _cmd_witness(args) -> int:
    if args.tower is not None and args.tower < 0:
        raise SystemExit("error: --tower must be a non-negative length")
    if args.file and args.abc:
        raise SystemExit("error: witness takes a quiver file or --abc a,b,c, not both")
    if args.abc:
        try:
            a, b, c = (int(p) for p in args.abc.split(","))
        except ValueError:
            raise SystemExit("error: --abc must look like a,b,c with integer entries")
        q = triple_quiver(a, b, c)
    elif args.file:
        q = _load_quiver(args.file)
    else:
        raise SystemExit("error: witness needs a quiver file or --abc a,b,c")
    w = build_wild_witness(q)
    report = w.report
    out = {
        "case": w.case,
        "abc": list(w.abc),
        "dim_m": list(w.m.dims),
        "dim_n": list(w.n.dims),
        "checks": {
            "hom_mn": report.hom_mn,
            "hom_nm": report.hom_nm,
            "ext_mn": report.ext_mn,
            "ext_nm": report.ext_nm,
            "end_m": report.end_m,
            "end_n": report.end_n,
            "rigid_m": report.rigid_m,
            "rigid_n": report.rigid_n,
            "euler_nm": report.euler_nm,
            "closed_form": report.closed_form,
        },
        "failures": report.failures,
        "ok": report.ok(),
    }
    ok = report.ok()
    if args.tower:
        try:
            evidence = nonff_evidence(w, args.tower)
        except ValueError as e:
            raise SystemExit(f"error: {e}")
        out["tower"] = [
            {"dims": list(lvl.rep.dims), "top": lvl.top, "split": lvl.split}
            for lvl in evidence.tower
        ]
        out["nonff"] = {
            "gen_results": evidence.gen_results,
            "hom_dims": evidence.hom_dims,
            "ok": evidence.ok(),
        }
        ok = ok and evidence.ok()
    _emit(out)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _cmd_euler_scan(args) -> int:
    if args.amax < 2 or args.bmax < 1 or args.cmax < 0:
        raise SystemExit(
            "error: the grid a = 2..amax, b = 1..bmax, c = 0..cmax is empty; "
            "need amax >= 2, bmax >= 1 and cmax >= 0"
        )
    points = 0
    mismatches = []
    nonnegative = []
    for a in range(2, args.amax + 1):
        for b in range(1, args.bmax + 1):
            for c in range(0, args.cmax + 1):
                points += 1
                q = triple_quiver(a, b, c)
                ctx = forms_context(q)
                m = [1, a, 0]
                tau_m = ctx.tau_dimvec(m)
                matrix_value = ctx.euler_form(tau_m, m)
                closed = wild_triple_euler_value(a, b, c)
                if matrix_value != closed:
                    mismatches.append([a, b, c])
                if closed >= 0:
                    nonnegative.append([a, b, c])
    _emit(
        {
            "grid": {"a": [2, args.amax], "b": [1, args.bmax], "c": [0, args.cmax]},
            "points": points,
            "mismatches": mismatches,
            "nonnegative": nonnegative,
            "ok": not mismatches and not nonnegative,
        }
    )
    return EXIT_OK if not mismatches and not nonnegative else EXIT_CHECK_FAILED


_WITNESS_HELP = f"arrows 1->2, 2->3, 1->3; n = ab + c may be at most {WITNESS_LIMIT}"
_DYNKIN_FILE_HELP = f"quiver file; a Dynkin quiver may have at most {CLASS_LIMIT} torsion classes"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qtors",
        description="Torsion-class and tau-tilting computations for acyclic quivers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify a quiver (Dynkin/ExtendedDynkin/Wild)")
    p.add_argument("file")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("forms", help="Cartan and Coxeter matrices, optional Euler form")
    p.add_argument("file")
    p.add_argument(
        "--dim",
        action="append",
        metavar="VEC",
        help="comma-separated dimension vector; give twice for <x, y>",
    )
    p.set_defaults(func=_cmd_forms)

    p = sub.add_parser("enumerate", help="support tau-tilting pairs of a Dynkin quiver")
    p.add_argument("file", help=_DYNKIN_FILE_HELP)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("poset", help="torsion-class poset as DOT or JSON")
    p.add_argument("file", help=_DYNKIN_FILE_HELP)
    p.add_argument("--out", choices=("dot", "json"), required=True)
    p.set_defaults(func=_cmd_poset)

    p = sub.add_parser(
        "check-lattice",
        help="lattice decision plus (for Dynkin inputs) enumerated confirmation",
    )
    p.add_argument("file", help=_DYNKIN_FILE_HELP)
    p.set_defaults(func=_cmd_check_lattice)

    p = sub.add_parser("kronecker", help="Kronecker window chain report")
    p.add_argument("--n", type=int, required=True)
    p.add_argument(
        "--depth",
        type=int,
        required=True,
        help="window members per side; their total dimension may be at most "
        f"{WINDOW_LIMIT}",
    )
    p.set_defaults(func=_cmd_kronecker)

    p = sub.add_parser("witness", help="build and verify a wild-quiver witness pair")
    p.add_argument("file", nargs="?", help="quiver file; its orientation case gives (a, b, c)")
    p.add_argument("--abc", metavar="a,b,c", help=_WITNESS_HELP)
    p.add_argument(
        "--tower",
        type=int,
        metavar="L",
        help=f"tower length; dim X_1 + ... + dim X_L may be at most {TOWER_LIMIT}",
    )
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("euler-scan", help="Euler-form grid scan on triple quivers")
    p.add_argument("--amax", type=int, required=True)
    p.add_argument("--bmax", type=int, required=True)
    p.add_argument("--cmax", type=int, required=True)
    p.set_defaults(func=_cmd_euler_scan)

    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    # parse_args leaves the parser as it was, so one serves every call
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except SystemExit as e:
        if isinstance(e.code, str):
            print(e.code, file=sys.stderr)
            return EXIT_USAGE
        raise
    except QuiverError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
