import json
import time
from pathlib import Path

import pytest

from qtors import cli, rep, taurig
from qtors.cli import main
from qtors.families import TOWER_LIMIT, WITNESS_LIMIT


@pytest.fixture
def a3_file(tmp_path):
    f = tmp_path / "a3.quiver"
    f.write_text("vertices 3\narrow 1 2\narrow 2 3\n")
    return str(f)


@pytest.fixture
def wild_file(tmp_path):
    f = tmp_path / "wild.quiver"
    f.write_text("vertices 3\narrow 1 2 *2\narrow 2 3\n")
    return str(f)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_classify(capsys, a3_file):
    code, out, _ = run(capsys, "classify", a3_file)
    assert code == 0
    data = json.loads(out)
    assert data["class"] == {"tag": "Dynkin", "type": "A3"}


def test_forms_with_euler(capsys, a3_file):
    code, out, _ = run(capsys, "forms", a3_file, "--dim", "1,1,1", "--dim", "1,0,0")
    assert code == 0
    data = json.loads(out)
    assert data["cartan"][2] == ["1", "1", "1"]
    assert data["euler"]["value"] == 1


def test_enumerate(capsys, a3_file):
    code, out, _ = run(capsys, "enumerate", a3_file)
    assert code == 0
    assert json.loads(out)["count"] == 14


def test_poset_json_and_dot(capsys, a3_file):
    code, out, _ = run(capsys, "poset", a3_file, "--out", "json")
    assert code == 0
    data = json.loads(out)
    assert len(data["elements"]) == 14
    code, out, _ = run(capsys, "poset", a3_file, "--out", "dot")
    assert code == 0
    assert out.startswith("digraph hasse {")
    assert out.count("->") == len(data["hasse"])


def test_check_lattice_dynkin(capsys, a3_file):
    code, out, _ = run(capsys, "check-lattice", a3_file)
    assert code == 0
    data = json.loads(out)
    assert data["theorem_decision"] is True
    assert data["agreement"] is True
    assert data["enumerated"]["elements"] == 14


@pytest.mark.parametrize(
    "dsl, elements, budget",
    [
        ("vertices 6\narrow 1 2\narrow 2 3\narrow 3 4\narrow 4 5\narrow 5 6\n", 429, 2),
        ("vertices 6\narrow 1 2\narrow 2 3\narrow 3 4\narrow 4 5\narrow 3 6\n", 833, 30),
        (
            "vertices 7\narrow 1 2\narrow 2 3\narrow 3 4\narrow 4 5\narrow 5 6\narrow 3 7\n",
            4160,
            2,
        ),
    ],
    ids=["A6", "E6", "E7"],
)
def test_check_lattice_reaches_a6_and_e6(capsys, tmp_path, dsl, elements, budget):
    f = tmp_path / "q.quiver"
    f.write_text(dsl)
    started = time.perf_counter()
    code, out, _ = run(capsys, "check-lattice", str(f))
    elapsed = time.perf_counter() - started
    assert code == 0
    data = json.loads(out)
    assert data["enumerated"] == {
        "elements": elements,
        "is_lattice": True,
        "has_top": True,
        "has_bottom": True,
    }
    assert data["agreement"] is True
    assert data["lattice_certificate"]["route"] == "meet-irreducible closure"
    assert elapsed < budget, f"check-lattice took {elapsed:.1f}s of {budget}s"


def test_exhaustive_search_runs_once_per_quiver(capsys, monkeypatch, a3_file):
    # the three Dynkin commands read one record cached on the catalog
    calls = []
    exhaustive = taurig.enumerate_stt_exhaustive

    def counted(q):
        calls.append(q)
        return exhaustive(q)

    monkeypatch.setattr(taurig, "enumerate_stt_exhaustive", counted)
    taurig.catalog.cache_clear()
    for argv in (["enumerate"], ["poset", "--out", "json"], ["check-lattice"]):
        code, _, _ = run(capsys, argv[0], a3_file, *argv[1:])
        assert code == 0, argv
    assert len(calls) == 1
    taurig.catalog.cache_clear()


def test_one_parser_serves_every_call(capsys, monkeypatch, a3_file):
    def sequence():
        outs = [run(capsys, "enumerate", a3_file)]
        with pytest.raises(SystemExit) as exc:
            main(["poset", a3_file, "--out", "svg"])
        outs.append((exc.value.code, *capsys.readouterr()))
        outs.append(run(capsys, "check-lattice", a3_file))
        return outs

    assert cli._parser() is cli._parser()
    cached = sequence()
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    assert sequence() == cached
    assert [o[0] for o in cached] == [0, 2, 0]


@pytest.mark.parametrize(
    "dsl",
    [
        "vertices 4\narrow 1 4\narrow 2 4\narrow 3 4\n",
        "vertices 6\narrow 1 2\narrow 2 3\narrow 3 4\narrow 4 5\narrow 3 6\n",
    ],
    ids=["D4", "E6"],
)
def test_dynkin_commands_compute_no_hom(capsys, tmp_path, monkeypatch, dsl):
    # the torsion classes of a Dynkin quiver come from its roots alone
    def refuse(*args):
        raise RuntimeError("Hom computed on the Dynkin path")

    monkeypatch.setattr(rep, "hom_basis", refuse)
    monkeypatch.setattr(rep, "hom_dim", refuse)
    taurig.catalog.cache_clear()
    f = tmp_path / "q.quiver"
    f.write_text(dsl)
    for argv in (["enumerate"], ["poset", "--out", "json"], ["check-lattice"]):
        code, out, _ = run(capsys, argv[0], str(f), *argv[1:])
        assert code == 0, argv
        assert out


def test_check_lattice_wild_never_enumerates(capsys, wild_file):
    code, out, _ = run(capsys, "check-lattice", wild_file)
    assert code == 0
    data = json.loads(out)
    assert data["theorem_decision"] is False
    assert data["enumerated"] is None
    assert data["certificate"]["reason"] == "witness subquiver"


def test_kronecker(capsys):
    code, out, _ = run(capsys, "kronecker", "--n", "2", "--depth", "4")
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True
    assert data["dims_preprojective"][0] == [0, 1]


def test_kronecker_repeat_is_identical(capsys):
    # the repeat builds fresh objects that may reuse the ids of freed ones
    argv = ("kronecker", "--n", "3", "--depth", "4")
    first = run(capsys, *argv)
    assert first[0] == 0
    assert run(capsys, *argv) == first


def test_witness_with_tower(capsys):
    code, out, _ = run(capsys, "witness", "--abc", "2,1,0", "--tower", "3")
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True
    assert data["case"] == "i"
    assert data["dim_n"] == [3, 2, 2]
    assert data["nonff"]["gen_results"] == [False, False]


def test_witness_tower_on_a_large_witness_within_budget(capsys):
    # dim N = (48, 14, 7): Ext comes from the intertwining matrix, with no
    # projective presentation of N
    started = time.perf_counter()
    code, out, _ = run(capsys, "witness", "--abc", "3,2,1", "--tower", "2")
    elapsed = time.perf_counter() - started
    assert code == 0
    data = json.loads(out)
    assert [lvl["dims"] for lvl in data["tower"]] == [[1, 3, 0], [49, 17, 7]]
    assert data["nonff"]["ok"] is True
    assert elapsed < 10, f"witness --tower 2 took {elapsed:.1f}s of 10s"


def test_witness_tower_4_on_a_large_witness_within_budget(capsys):
    # each step lifts a cocycle of Ext^1(U, T); no Ext^1 of the growing
    # level, whose delta at the fourth level would be 3412 x 2729
    started = time.perf_counter()
    code, out, _ = run(capsys, "witness", "--abc", "3,2,1", "--tower", "4")
    elapsed = time.perf_counter() - started
    assert code == 0
    data = json.loads(out)
    assert [lvl["dims"] for lvl in data["tower"]] == [
        [1, 3, 0], [49, 17, 7], [50, 20, 7], [98, 34, 14]
    ]
    assert data["nonff"]["ok"] is True
    assert elapsed < 10, f"witness --tower 4 took {elapsed:.1f}s of 10s"


def test_witness_from_file(capsys, wild_file):
    code, out, _ = run(capsys, "witness", wild_file)
    assert code == 0
    assert json.loads(out)["ok"] is True


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize(
    "argv, golden",
    [
        (("kronecker", "--n", "2", "--depth", "6"), "kronecker_n2_depth6.txt"),
        (("witness", "--abc", "2,1,0", "--tower", "4"), "witness_abc210_tower4.txt"),
        (("witness", "--abc", "2,1,0", "--tower", "6"), "witness_abc210_tower6.txt"),
        (("witness", "--abc", "4,5,0"), "witness_abc450.txt"),
        (("witness", "--abc", "3,2,1", "--tower", "6"), "witness_abc321_tower6.txt"),
        (("witness", "--abc", "4,3,1", "--tower", "3"), "witness_abc431_tower3.txt"),
        (("witness", "--abc", "3,3,2", "--tower", "4"), "witness_abc332_tower4.txt"),
        # seeded relabelings and orientations of a 16-cycle, D~9, the E~8
        # star and a 40-cycle with a pendant at one vertex
        (("check-lattice", str(GOLDEN / "cycle16.quiver")), "check_lattice_cycle16.txt"),
        (("check-lattice", str(GOLDEN / "affine_d9.quiver")), "check_lattice_affine_d9.txt"),
        (("check-lattice", str(GOLDEN / "affine_e8.quiver")), "check_lattice_affine_e8.txt"),
        (
            ("check-lattice", str(GOLDEN / "cycle40_pendant.quiver")),
            "check_lattice_cycle40_pendant.txt",
        ),
        # orientations of D5 and E6 with mixed arrows: the poset masks and
        # Hasse edges, and the Coxeter inverse behind the catalog
        (("poset", str(GOLDEN / "d5.quiver"), "--out", "dot"), "poset_d5_dot.txt"),
        (("check-lattice", str(GOLDEN / "e6.quiver")), "check_lattice_e6.txt"),
    ],
    ids=[
        "kronecker",
        "witness-tower",
        "witness-tower6",
        "witness-450",
        "witness-321-tower6",
        "witness-431-tower3",
        "witness-332-tower4",
        "check-lattice-cycle16",
        "check-lattice-D~9",
        "check-lattice-E~8",
        "check-lattice-cycle40-pendant",
        "poset-dot-D5",
        "check-lattice-E6",
    ],
)
def test_stdout_matches_golden(capsys, argv, golden):
    # stdout recorded from a known-good build: refactors of the
    # representation code and of the witness search must keep it
    # byte-identical
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == (GOLDEN / golden).read_text()


def test_euler_scan(capsys):
    code, out, _ = run(capsys, "euler-scan", "--amax", "3", "--bmax", "2", "--cmax", "2")
    assert code == 0
    data = json.loads(out)
    assert data["points"] == 2 * 2 * 3
    assert data["ok"] is True and not data["mismatches"]


def test_deterministic_output(capsys, a3_file):
    _, first, _ = run(capsys, "enumerate", a3_file)
    _, second, _ = run(capsys, "enumerate", a3_file)
    assert first == second
    _, p1, _ = run(capsys, "poset", a3_file, "--out", "dot")
    _, p2, _ = run(capsys, "poset", a3_file, "--out", "dot")
    assert p1 == p2


class TestExitCodes:
    def test_missing_file_is_usage_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "classify", str(tmp_path / "absent.quiver"))
        assert code == 2
        assert "absent.quiver" in err

    def test_bad_dsl_is_usage_error(self, capsys, tmp_path):
        f = tmp_path / "bad.quiver"
        f.write_text("vertices two\n")
        code, _, err = run(capsys, "classify", str(f))
        assert code == 2
        assert "line 1" in err

    def test_bad_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == 2

    def test_witness_needs_input(self, capsys):
        code, _, err = run(capsys, "witness")
        assert code == 2
        assert "abc" in err

    def test_negative_tower_is_usage_error(self, capsys):
        code, _, err = run(capsys, "witness", "--abc", "2,1,0", "--tower", "-1")
        assert code == 2
        assert err.startswith("error:") and "--tower" in err

    def test_witness_tower_past_the_size_limits(self, capsys, monkeypatch):
        # the limits are read off dim M, dim N and L: no tower level is built
        def no_tower(*args):
            raise AssertionError("a tower level was built")

        monkeypatch.setattr("qtors.families.uniserial_tower", no_tower)
        started = time.perf_counter()
        code, out, err = run(capsys, "witness", "--abc", "3,2,1", "--tower", "1000000000")
        assert time.perf_counter() - started < 5
        assert code == 2 and out == ""
        assert err.startswith("error: tower too large") and str(TOWER_LIMIT) in err

    def test_witness_tower_with_a_large_ext_group(self, capsys):
        # Ext^1(N, M) of the (5,4,1) witness has 11000 cocycle coordinates
        code, out, err = run(capsys, "witness", "--abc", "5,4,1", "--tower", "2")
        assert code == 0 and err == ""
        assert json.loads(out)["ok"] is True

    def test_witness_past_the_size_limit(self, capsys, monkeypatch, tmp_path):
        # n = ab + c is read off the arrow multiplicities: no witness module
        # is built, for --abc or for a file in a dual case
        class Admitted(Exception):
            pass

        def admitted(*args):
            raise Admitted(args)

        monkeypatch.setattr("qtors.families._build_case", admitted)
        n = WITNESS_LIMIT + 1
        big = tmp_path / "big.quiver"
        big.write_text(f"vertices 3\narrow 1 2\narrow 2 3 *{n}\n")
        for argv in (
            ["--abc", f"{n},1,0"],
            ["--abc", f"2,1,{n - 2}"],
            ["--abc", "2,24,0"],
            [str(big)],
        ):
            code, out, err = run(capsys, "witness", *argv)
            assert code == 2 and out == ""
            assert err.startswith("error: witness too large") and str(WITNESS_LIMIT) in err
        # case (iv) with (a, b, c) = (n - 1, 1, 0) sits at the limit
        big.write_text(f"vertices 3\narrow 1 2\narrow 2 3 *{n - 1}\n")
        with pytest.raises(Admitted, match=f"'iv', {n - 1}, 1, 0"):
            main(["witness", str(big)])
        # the slowest admitted shape found
        with pytest.raises(Admitted):
            main(["witness", "--abc", "2,23,1"])

    def test_kronecker_depth_past_the_size_limit(self, capsys, monkeypatch):
        # the limit is read off the dimension recursion: no module is built
        def no_module(*args):
            raise AssertionError("a module was built")

        monkeypatch.setattr("qtors.families.simple_rep", no_module)
        started = time.perf_counter()
        code, out, err = run(capsys, "kronecker", "--n", "3", "--depth", "1000000000")
        assert time.perf_counter() - started < 1
        assert code == 2 and out == ""
        assert err.startswith("error: window too large") and "1500" in err

    def test_dynkin_past_the_class_limit(self, capsys, monkeypatch, tmp_path):
        # the class count is the Coxeter-Catalan number of the type: nothing
        # is enumerated
        def refuse(*args):
            raise AssertionError("the enumeration started")

        monkeypatch.setattr(taurig, "catalog", refuse)
        monkeypatch.setattr(taurig, "enumerate_stt_exhaustive", refuse)
        f = tmp_path / "a12.quiver"
        f.write_text("vertices 12\n" + "".join(f"arrow {i} {i + 1}\n" for i in range(1, 12)))
        for argv in (["enumerate"], ["poset", "--out", "json"], ["check-lattice"]):
            code, out, err = run(capsys, argv[0], str(f), *argv[1:])
            assert code == 2 and out == "", argv
            assert err.startswith("error: too many torsion classes: 742900 exceed")
            assert str(taurig.CLASS_LIMIT) in err

    def test_malformed_abc(self, capsys):
        code, _, err = run(capsys, "witness", "--abc", "2;1;0")
        assert code == 2

    def test_negative_multiplicity_is_usage_error(self, capsys, monkeypatch):
        # a negative multiplicity is refused before any witness is built,
        # not read as no arrows
        def refuse(*args):
            raise AssertionError("a witness was built")

        monkeypatch.setattr(cli, "build_wild_witness", refuse)
        for abc in ("2,-3,1", "-1,1,0", "2,1,-1"):
            code, out, err = run(capsys, "witness", f"--abc={abc}")
            assert code == 2 and out == "", abc
            assert err.startswith("error:") and "non-negative" in err

    def test_witness_file_and_abc_is_usage_error(self, capsys, monkeypatch):
        # both inputs are refused before either is read, not answered about
        # the triple with the file ignored
        def refuse(*args):
            raise AssertionError("an input was read")

        monkeypatch.setattr(cli, "triple_quiver", refuse)
        monkeypatch.setattr(cli, "_load_quiver", refuse)
        monkeypatch.setattr(cli, "build_wild_witness", refuse)
        code, out, err = run(capsys, "witness", "cycle15.q", "--abc", "2,1,0")
        assert code == 2 and out == ""
        assert err.startswith("error:") and "not both" in err

    def test_empty_euler_grid_is_usage_error(self, capsys, monkeypatch):
        # a grid with no point is refused before any form is computed, not
        # reported "ok" over 0 points
        def refuse(*args):
            raise AssertionError("a point was computed")

        monkeypatch.setattr(cli, "triple_quiver", refuse)
        for a, b, c in ((-1, 1, 0), (1, 2, 2), (3, 0, 2), (3, 2, -1)):
            code, out, err = run(
                capsys, "euler-scan", f"--amax={a}", f"--bmax={b}", f"--cmax={c}"
            )
            assert code == 2 and out == "", (a, b, c)
            assert err.startswith("error:") and "empty" in err
        # the smallest grid is one point
        monkeypatch.undo()
        code, out, _ = run(capsys, "euler-scan", "--amax", "2", "--bmax", "1", "--cmax", "0")
        assert code == 0 and json.loads(out)["points"] == 1
