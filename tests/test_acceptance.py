"""Acceptance checks: one test per numbered criterion, each printing a
single pass/fail line (with its runtime budget) that survives pytest's
output capture."""

import time

import conftest

from qtors import (
    Quiver,
    ar_translate,
    build_wild_witness,
    case_quiver,
    catalog,
    classify,
    enumerate_stt,
    fac_class,
    forms_context,
    full_subquiver,
    is_isomorphic,
    kronecker_chain_check,
    kronecker_window,
    nonff_evidence,
    opposite,
    pair_module,
    projective_rep,
    surjection_table,
    tau_dimvec,
    tc_join,
    tc_left_perp,
    tc_meet,
    tc_perp,
    theorem_main_decision,
    torsion_axiom_spotcheck,
    torsion_poset,
    triple_quiver,
    uniserial_tower,
    verify_witness,
    wild_triple_euler_value,
)

from conftest import linear_quiver, star_quiver

A2 = linear_quiver(2)
A3 = linear_quiver(3)
A4 = linear_quiver(4)
D4 = star_quiver(3)

A3_ORIENTATIONS = [
    Quiver(3, ((1, 2), (2, 3))),
    Quiver(3, ((1, 2), (3, 2))),
    Quiver(3, ((2, 1), (2, 3))),
    Quiver(3, ((2, 1), (3, 2))),
]

WITNESS_TRIPLES = [(2, 1, 0), (2, 1, 1), (2, 2, 0), (3, 1, 0)]
ALL_CASES = ["i", "ii", "iii", "iv", "v", "vi"]


def _check(num: int, desc: str, budget: float, started: float, ok: bool, detail=""):
    elapsed = time.perf_counter() - started
    verdict = "PASS" if ok and elapsed < budget else "FAIL"
    line = f"criterion {num:2d} ({desc}): {verdict} [{elapsed:.2f}s / budget {budget:.0f}s]"
    if detail and verdict == "FAIL":
        line += f" -- {detail}"
    conftest.acceptance_lines.append(line)
    print(line)
    assert ok, f"criterion {num}: {desc}: {detail}"
    assert elapsed < budget, f"criterion {num} exceeded budget: {elapsed:.2f}s"


def test_criterion_01_stt_counts():
    t0 = time.perf_counter()
    expected = {
        Quiver(1, ()): 2,
        A2: 5,
        A3: 14,
        A4: 42,
        D4: 50,
    }
    got = {q: len(enumerate_stt(q)) for q in expected}  # both strategies agree inside
    _check(1, "support tau-tilting pair counts", 60, t0, got == expected, str(got))


def test_criterion_02_dynkin_lattices():
    t0 = time.perf_counter()
    ok = True
    detail = ""
    for q in [A2, *A3_ORIENTATIONS, A4, D4]:
        p = torsion_poset(q)
        is_lat, witness = p.is_lattice()
        if not (is_lat and p.top() is not None and p.bottom() is not None):
            ok = False
            detail = f"{q}: lattice={is_lat}, witness={witness}"
    _check(2, "torsion posets of Dynkin quivers are complete lattices", 60, t0, ok, detail)


def test_criterion_03_euler_grid():
    t0 = time.perf_counter()
    bad = []
    for a in range(2, 7):
        for b in range(1, 7):
            for c in range(0, 7):
                ctx = forms_context(triple_quiver(a, b, c))
                m = [1, a, 0]
                value = ctx.euler_form(ctx.tau_dimvec(m), m)
                if value != wild_triple_euler_value(a, b, c) or value >= 0:
                    bad.append((a, b, c))
    _check(3, "Euler grid: closed form = matrix form < 0", 5, t0, not bad, str(bad))


def test_criterion_04_wild_witnesses_all_cases():
    t0 = time.perf_counter()
    failures = []
    for a, b, c in WITNESS_TRIPLES:
        for case in ALL_CASES:
            w = build_wild_witness(case_quiver(case, a, b, c))
            report = verify_witness(w)
            if not report.ok():
                failures.append(((a, b, c), case, report.failures))
        wi = build_wild_witness(triple_quiver(a, b, c))
        expected_n = (
            a * a * b * b + 2 * a * b * c + c * c - 1,
            a * b * b + b * c,
            a * b + c,
        )
        if wi.case != "i" or wi.n.dims != expected_n:
            failures.append(((a, b, c), "i", f"dim N {wi.n.dims} != {expected_n}"))
    _check(4, "wild witness pairs verify in all six cases", 30, t0, not failures, str(failures))


def test_criterion_05_tau_formula():
    t0 = time.perf_counter()
    bad = []
    for q in (A3, D4):
        proj_dims = {projective_rep(q, v).dims for v in range(1, q.n + 1)}
        for m in catalog(q).modules:
            t = ar_translate(m)
            if m.dims in proj_dims:
                if not t.is_zero():
                    bad.append((q, m.dims, "translate of projective nonzero"))
            elif list(t.dims) != tau_dimvec(q, list(m.dims)):
                bad.append((q, m.dims, t.dims))
    _check(5, "translate dims follow the Coxeter matrix", 10, t0, not bad, str(bad))


def test_criterion_06_torsion_axiom_spotcheck():
    t0 = time.perf_counter()
    violations = []
    for q in (A3, D4):
        table = surjection_table(q)
        cat = catalog(q)
        for p in enumerate_stt(q):
            t = fac_class(q, p)
            report = torsion_axiom_spotcheck(q, t, pair_module(cat, p), table)
            if not report.ok():
                violations.append((q, sorted(t), report))
    _check(6, "quotient/extension closure of all enumerated classes", 300, t0,
           not violations, str(violations))


def test_criterion_07_opposite_duality():
    t0 = time.perf_counter()
    ok = all(
        torsion_poset(q).is_dual_isomorphic(torsion_poset(opposite(q)))
        for q in (A2, A3, D4)
    )
    _check(7, "torsion poset of the opposite quiver is the dual", 30, t0, ok)


def test_criterion_08_interval_kills_vertex():
    t0 = time.perf_counter()
    cat = catalog(A3)
    p = torsion_poset(A3)
    # classes of modules unsupported at vertex 3 form [bottom, T3]
    t3 = frozenset(i for i in range(cat.size()) if cat.modules[i].dims[2] == 0)
    ok = t3 in p.elements
    detail = "top of the interval is not a torsion class"
    if ok:
        interval = p.interval(frozenset(), t3)
        p2 = torsion_poset(A2)
        ok = len(p2.elements) == 5 and interval.is_isomorphic(p2)
        detail = f"interval size {len(interval.elements)}"
    _check(8, "killing a vertex gives the smaller torsion poset as interval",
           10, t0, ok, detail)


def test_criterion_09_perp_and_meet_join_consistency():
    t0 = time.perf_counter()
    bad = []
    for q in (A3, D4):
        p = torsion_poset(q)
        for t in p.elements:
            if tc_left_perp(q, tc_perp(q, t)) != t:
                bad.append((q, sorted(t), "double perp moved the class"))
        for a in p.elements:
            for b in p.elements:
                if p.meet([a, b]) != tc_meet(q, [a, b]):
                    bad.append((q, sorted(a), sorted(b), "meet"))
                if p.join([a, b]) != tc_join(q, [a, b]):
                    bad.append((q, sorted(a), sorted(b), "join"))
    _check(9, "double perpendicular fixes classes; meets/joins agree", 60, t0,
           not bad, str(bad[:3]))


def test_criterion_10_kronecker_windows():
    t0 = time.perf_counter()
    failures = []
    for n in (2, 3):
        report = kronecker_chain_check(kronecker_window(n, 6))
        if not report.ok():
            failures.append((n, report.failures))
    _check(10, "Kronecker windows at depth 6 pass the chain checks", 30, t0,
           not failures, str(failures))


def test_criterion_11_uniserial_tower():
    t0 = time.perf_counter()
    w = build_wild_witness(triple_quiver(2, 1, 0))
    tower = uniserial_tower(w, 4)
    dims_ok = [lvl.rep.dims for lvl in tower] == [
        (1, 2, 0),
        (4, 4, 2),
        (5, 6, 2),
        (8, 8, 4),
    ]
    nonsplit = not any(lvl.split for lvl in tower)
    evidence = nonff_evidence(w, 4)
    ok = dims_ok and nonsplit and evidence.ok() and len(evidence.gen_results) == 3
    _check(11, "uniserial tower grows without splitting or generating", 30, t0, ok,
           f"dims_ok={dims_ok} nonsplit={nonsplit} gen={evidence.gen_results}")


def test_criterion_12_decision_procedure():
    t0 = time.perf_counter()
    positives = [
        *[linear_quiver(n) for n in range(1, 6)],  # A1..A5 (A1 = one vertex)
        D4,
        Quiver(6, ((1, 2), (2, 3), (3, 4), (4, 5), (6, 3))),  # E6
        *[Quiver(2, ((1, 2),) * n) for n in range(2, 6)],  # n-Kronecker
    ]
    negatives = [
        Quiver(3, ((1, 2), (2, 3), (1, 3))),  # acyclic 3-cycle
        Quiver(4, ((1, 2), (2, 3), (3, 4), (1, 4))),  # acyclic 4-cycle
        star_quiver(4),  # 4-leaf star
        triple_quiver(2, 1, 0),  # wild 3-vertex
        Quiver(4, ((1, 2), (1, 3), (1, 4), (1, 4), (1, 4))),  # star, tripled arrow
    ]
    bad = []
    for q in positives:
        verdict, _ = theorem_main_decision(q)
        if not verdict:
            bad.append((q, "expected lattice"))
    for q in negatives:
        verdict, cert = theorem_main_decision(q)
        if verdict:
            bad.append((q, "expected non-lattice"))
            continue
        sub, _ = full_subquiver(q, set(cert["vertices"]))
        if classify(sub).tag == "Dynkin" or sub.n < 3:
            bad.append((q, "witness subquiver is not a valid obstruction"))
    _check(12, "lattice decision matches the fixture lists with witnesses", 5, t0,
           not bad, str(bad))
