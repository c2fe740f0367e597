import json
import subprocess
import sys

import pytest

from symfree import parse_equation, predicted_exponent
from symfree.cli import main


@pytest.fixture
def set_file(tmp_path):
    def write(name, values, as_json=False):
        p = tmp_path / name
        if as_json:
            p.write_text(json.dumps(list(values)), encoding="utf-8")
        else:
            p.write_text("".join(f"{v}\n" for v in values), encoding="utf-8")
        return str(p)

    return write


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_construct_ruzsa(capsys):
    code, out, err = run_cli(capsys, ["construct", "ruzsa", "--d", "2", "--k", "3", "--N", "144"])
    assert code == 0 and err == ""
    lines = out.splitlines()
    header = json.loads(lines[0])
    assert header == {
        "d": 2,
        "k": 3,
        "base": 12,
        "N": 144,
        "size": 4,
        "predicted_exponent": float(f"{predicted_exponent(2, 3):.12g}"),
    }
    assert lines[1:] == ["1", "12", "13", "144"]


def test_count_energy_with_domain_override(capsys, set_file):
    path = set_file("a.txt", [1, 2, 5, 7])
    code, out, _ = run_cli(capsys, ["count", "energy", "--eq", "1,1", "--set", path, "--N", "10"])
    assert code == 0
    assert json.loads(out) == {"eq": "1,1", "N": 10, "size": 4, "E": 28}


def test_count_solutions_full_report(capsys, set_file):
    path = set_file("a.txt", [1, 2, 3, 4])
    code, out, _ = run_cli(capsys, ["count", "solutions", "--eq", "1,1", "--set", path])
    assert code == 0
    assert json.loads(out) == {
        "eq": "1,1",
        "N": 4,
        "size": 4,
        "E": 44,
        "distinct": 8,
        "coincident": {"1,2": 8, "1,3": 16, "1,4": 16, "2,3": 16, "2,4": 16, "3,4": 8},
    }


def test_count_distinct_both_methods(capsys, set_file):
    path = set_file("a.txt", [1, 2, 3, 4, 5, 7])
    for method, expect_label in (("inclusion_exclusion", 72), ("enumerate", 72)):
        code, out, _ = run_cli(
            capsys,
            ["count", "distinct", "--eq", "1,1,1", "--set", path, "--method", method],
        )
        assert code == 0
        data = json.loads(out)
        assert data["distinct"] == expect_label
        assert data["method"] == method


def test_count_accepts_json_set_file(capsys, set_file):
    path = set_file("a.json", [7, 3, 5], as_json=True)
    code, out, _ = run_cli(capsys, ["count", "energy", "--eq", "1,1", "--set", path])
    assert code == 0
    data = json.loads(out)
    assert (data["N"], data["size"]) == (7, 3)


def test_verify_free_and_not_free(capsys, set_file):
    free = set_file("free.txt", [1, 2, 5, 7])
    code, out, _ = run_cli(capsys, ["verify", "solution-free", "--eq", "1,1", "--set", free])
    assert code == 0
    data = json.loads(out)
    assert data["solution_free"] is True and data["solution"] is None

    busy = set_file("busy.txt", [1, 2, 3, 4])
    code, out, _ = run_cli(capsys, ["verify", "solution-free", "--eq", "1,1", "--set", busy])
    assert code == 0
    data = json.loads(out)
    assert data["solution_free"] is False
    sol = data["solution"]
    full = parse_equation("1,1").full_coefficients()
    assert len(sol) == 4 and len(set(sol)) == 4
    assert sum(c * v for c, v in zip(full, sol)) == 0
    assert set(sol) <= {1, 2, 3, 4}


def test_search_exact(capsys):
    code, out, _ = run_cli(capsys, ["search", "exact", "--eq", "1,1", "--N", "12"])
    assert code == 0
    data = json.loads(out)
    assert data["size"] == 5 and data["exact"] is True
    assert data["nodes_explored"] == 1201
    assert "time_ms" not in data

    code, out, _ = run_cli(capsys, ["search", "exact", "--eq", "1,1", "--N", "12", "--timing"])
    assert "time_ms" in json.loads(out)


def test_search_heuristic(capsys):
    argv = ["search", "heuristic", "--eq", "1,1", "--N", "7", "--trials", "10", "--seed", "0"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    data = json.loads(out)
    assert data == {
        "N": 7,
        "eq": "1,1",
        "size": 4,
        "exact": False,
        "witness": [1, 2, 3, 5],
        "nodes_explored": 70,
    }


def test_check_inequalities(capsys):
    code, out, err = run_cli(capsys, ["check", "inequalities", "--trials", "20", "--seed", "0"])
    assert code == 0 and err == ""
    data = json.loads(out)
    assert data["failures"] == []
    assert all(v == 20 for v in data["per_check_counts"].values())


def test_check_bounds(capsys, set_file):
    a = set_file("a.txt", [1, 2, 5, 7])
    b = set_file("b.txt", [1, 2, 3, 4])
    code, out, _ = run_cli(capsys, ["check", "bounds", "--eq", "1,1", "--set", a, "--set", b])
    assert code == 0
    data = json.loads(out)
    assert data["eq"] == "1,1"
    first, second = data["sets"]
    assert first == {
        "N": 7,
        "size": 4,
        "E": 28,
        "lower": float(f"{128 / 7:.12g}"),
        "upper": 96,
        "lower_holds": True,
        "upper_applicable": True,
        "upper_holds": True,
    }
    assert second["upper_applicable"] is False and second["upper_holds"] is None


def test_table_rn_csv(capsys):
    code, out, _ = run_cli(capsys, ["table", "rn", "--eq", "1,1", "--N", "8"])
    assert code == 0
    assert out == (
        "N,size,exact,witness\n"
        "3,3,true,1 2 3\n"
        "4,3,true,1 2 3\n"
        "5,4,true,1 2 3 5\n"
        "6,4,true,1 2 3 5\n"
        "7,4,true,1 2 3 5\n"
        "8,5,true,1 2 3 5 8\n"
    )


def test_table_rn_json_matches_csv(capsys):
    code, out, _ = run_cli(capsys, ["table", "rn", "--eq", "1,1", "--N", "8", "--json"])
    assert code == 0
    rows = json.loads(out)
    assert [(r["N"], r["size"]) for r in rows] == [
        (3, 3), (4, 3), (5, 4), (6, 4), (7, 4), (8, 5),
    ]
    assert rows[-1]["witness"] == [1, 2, 3, 5, 8]
    assert all(r["exact"] for r in rows)


def test_fit_from_csv(capsys, tmp_path):
    p = tmp_path / "points.csv"
    p.write_text("N,size\n4,2\n9,3\n25,5\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, ["fit", "--points", str(p)])
    assert code == 0
    data = json.loads(out)
    assert data["slope"] == pytest.approx(0.5, abs=1e-9)
    assert data["r_squared"] == pytest.approx(1.0, abs=1e-9)
    assert data["n_points"] == 3


def test_fit_headerless_and_bad_rows(capsys, tmp_path):
    p = tmp_path / "points.csv"
    p.write_text("4,2\n9,3\n25,5\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, ["fit", "--points", str(p)])
    assert code == 0
    assert json.loads(out)["n_points"] == 3

    bad = tmp_path / "bad.csv"
    bad.write_text("N,size\n4,two\n9,3\n25,5\n", encoding="utf-8")
    code, _, err = run_cli(capsys, ["fit", "--points", str(bad)])
    assert code == 2 and err.startswith("error:")


def test_exit_code_validation(capsys, set_file):
    path = set_file("a.txt", [1, 2, 3])
    code, out, err = run_cli(capsys, ["count", "energy", "--eq", "1,x", "--set", path])
    assert code == 2 and out == "" and err.startswith("error:")
    code, _, err = run_cli(capsys, ["count", "energy", "--eq", "1,1", "--set", "/no/such/file"])
    assert code == 2 and err.startswith("error:")
    with pytest.raises(SystemExit) as exc:
        main(["table", "rn", "--eq", "1,1", "--N", "6", "--csv"])
    assert exc.value.code == 2


def test_exit_code_budget(capsys, set_file):
    path = set_file("a.txt", range(1, 9))
    for cmd in (
        ["count", "distinct", "--method", "enumerate"],
        ["count", "distinct", "--method", "inclusion_exclusion"],
        ["count", "solutions"],
        ["verify", "solution-free"],
    ):
        argv = cmd + ["--eq", "1,1", "--set", path, "--budget", "1"]
        code, out, err = run_cli(capsys, argv)
        assert code == 3 and out == "" and err.startswith("error:"), cmd


def test_check_inequalities_failure_maps_to_exit_4(capsys, monkeypatch):
    import symfree.cli as cli_mod

    broken = {
        "trials": 1,
        "seed": 0,
        "per_check_counts": {"plunnecke": 1},
        "failures": [{"check": "plunnecke", "trial": 0, "inputs": {}}],
    }
    monkeypatch.setattr(cli_mod, "run_inequality_trials", lambda trials, seed: broken)
    code, out, err = run_cli(capsys, ["check", "inequalities", "--trials", "1"])
    assert code == 4
    assert json.loads(out)["failures"]
    assert "failed" in err


def test_repeated_runs_are_byte_identical():
    cmds = [
        ["construct", "ruzsa", "--d", "3", "--k", "2", "--N", "5832"],
        ["search", "exact", "--eq", "1,1", "--N", "10"],
        ["search", "heuristic", "--eq", "1,2", "--N", "15", "--trials", "5", "--seed", "3"],
        ["table", "rn", "--eq", "1,1", "--N", "8"],
        ["check", "inequalities", "--trials", "10", "--seed", "1"],
    ]
    for argv in cmds:
        runs = [
            subprocess.run(
                [sys.executable, "-m", "symfree", *argv],
                capture_output=True,
                check=True,
            )
            for _ in range(2)
        ]
        assert runs[0].stdout == runs[1].stdout
        assert runs[0].stdout
