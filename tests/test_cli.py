import json
import time
from pathlib import Path

import pytest

from qtors import rep, taurig
from qtors.cli import main


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
    ],
    ids=["A6", "E6"],
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
    assert elapsed < budget, f"check-lattice took {elapsed:.1f}s of {budget}s"


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
    ],
    ids=["kronecker", "witness-tower"],
)
def test_stdout_matches_golden(capsys, argv, golden):
    # stdout recorded from a known-good build: refactors of the
    # representation code must keep it byte-identical
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

    def test_malformed_abc(self, capsys):
        code, _, err = run(capsys, "witness", "--abc", "2;1;0")
        assert code == 2
