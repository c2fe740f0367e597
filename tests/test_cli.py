import argparse
import contextlib
import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import tempfile
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import symfree.cli as cli_mod
from symfree import parse_equation, predicted_exponent
from symfree.cli import build_parser, main


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


@pytest.mark.parametrize("text", ["1\n2\n5\n7\n", "[1, 2, 5, 7]"], ids=["lines", "json"])
def test_count_reads_a_set_file_after_a_byte_order_mark(capsys, tmp_path, text):
    outs = []
    for name, prefix in (("plain.txt", ""), ("bom.txt", "\ufeff")):
        (tmp_path / name).write_text(prefix + text, encoding="utf-8")
        argv = ["count", "energy", "--eq", "1,1", "--set", str(tmp_path / name)]
        outs.append(run_cli(capsys, argv))
    assert outs[1] == outs[0] == (0, '{"eq": "1,1", "N": 7, "size": 4, "E": 28}\n', "")


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
    assert data["nodes_explored"] == 26
    assert "time_ms" not in data

    code, out, _ = run_cli(capsys, ["search", "exact", "--eq", "1,1", "--N", "12", "--timing"])
    assert "time_ms" in json.loads(out)


def test_search_exact_equal_magnitudes_print_the_unit_rows(capsys):
    # 2,2 has 1,1's solution sets, so it searches as 1,1: the same rows,
    # witness and node count, with the equation printed as given.
    code, out, err = run_cli(capsys, ["search", "exact", "--eq", "2,2", "--N", "40"])
    assert code == 0 and err == ""
    assert json.loads(out) == {
        "N": 40,
        "eq": "2,2",
        "size": 9,
        "exact": True,
        "witness": [1, 2, 3, 5, 9, 16, 25, 30, 35],
        "nodes_explored": 7589,
    }
    tables = [run_cli(capsys, ["table", "rn", "--eq", eq, "--N", "40"]) for eq in ("2,2", "1,1")]
    assert tables[0] == tables[1] and tables[0][0] == 0


def test_search_exact_huge_coefficient_without_solutions(capsys):
    # 1,10^30 has no solution in [1, 12], so every row is the previous
    # witness plus v and no sum bitset, 2 * 10^31 bits a key, is built.
    eq = f"1,{10**30}"
    code, out, err = run_cli(capsys, ["search", "exact", "--eq", eq, "--N", "12"])
    assert code == 0 and err == ""
    assert out == (
        f'{{"N": 12, "eq": "{eq}", "size": 12, "exact": true, '
        '"witness": [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12], "nodes_explored": 0}\n'
    )


def test_search_exact_charges_the_sum_bitsets(capsys):
    # Up to N nested nodes hold the sum bitsets, norm1 * N bits a key either
    # side of 0; 1,1,c,c at N = 12 first charges past the 10^7-unit subset
    # budget at c = 15867, at its first searched row, before any is built.
    argv = ["search", "exact", "--N", "12", "--eq"]
    code, out, err = run_cli(capsys, argv + ["1,1,15866,15866"])
    assert code == 0 and err == "" and json.loads(out)["size"] == 8
    code, out, err = run_cli(capsys, argv + ["1,1,15867,15867"])
    assert code == 3 and out == ""
    assert err == "error: work budget of 10000000 steps exhausted\n"


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


def test_search_heuristic_budget_exits_3():
    # An explicit budget of 5M units stops the greedy scan before it lists
    # 10^8 candidates, whose up-front charge is about 5.4 * 10^8 units.
    argv = ["search", "heuristic", "--eq", "1,1", "--N", "100000000", "--trials", "1"]
    run = subprocess.run(
        [sys.executable, "-m", "symfree", *argv, "--budget", "5000000"],
        capture_output=True,
        text=True,
    )
    assert run.returncode == 3 and run.stdout == ""
    assert run.stderr.startswith("error:") and "Traceback" not in run.stderr


def test_search_heuristic_default_budget_is_per_scan(capsys):
    # Without --budget a greedy scan gets its own default of 10^9 work
    # units, not the exact search's 5 * 10^6 nodes: this scan charges about
    # 6.8 * 10^6 units.
    argv = ["search", "heuristic", "--eq", "1,1", "--N", "100000", "--trials", "1"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0 and json.loads(out)["size"] > 0


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


@pytest.mark.parametrize(
    "header", ["size, N", "\ufeffsize,N", "size,n", "SIZE,N"], ids=["spaced", "bom", "lower", "upper"]
)
def test_fit_finds_header_columns_by_name(capsys, tmp_path, header):
    # The columns are named in the other order; points on N^(1/2) must fit
    # slope 0.5, where swapped columns would fit 2.
    p = tmp_path / "points.csv"
    p.write_text(f"{header}\n2,4\n3,9\n5,25\n6,36\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, ["fit", "--points", str(p)])
    assert code == 0
    data = json.loads(out)
    assert data["slope"] == pytest.approx(0.5, abs=1e-9)
    assert data["n_points"] == 4


def test_fit_reads_an_unknown_header_by_position(capsys, tmp_path):
    # A header that names neither column is skipped, and the columns are
    # read as N, then size.
    p = tmp_path / "points.csv"
    p.write_text("bound,largest\n4,2\n9,3\n25,5\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, ["fit", "--points", str(p)])
    assert code == 0
    data = json.loads(out)
    assert data["slope"] == pytest.approx(0.5, abs=1e-9)
    assert data["n_points"] == 3


@pytest.mark.parametrize(
    "argv, kind",
    [
        (["count", "energy", "--eq", "1,1", "--set"], "set"),
        (["verify", "solution-free", "--eq", "1,1", "--set"], "set"),
        (["check", "bounds", "--eq", "1,1", "--set"], "set"),
        (["fit", "--points"], "points"),
    ],
    ids=["count", "verify", "bounds", "fit"],
)
def test_undecodable_input_file_exits_2(capsys, tmp_path, argv, kind):
    # A file that is not UTF-8 is refused like one that cannot be opened.
    p = tmp_path / "bad.txt"
    p.write_bytes(b"\xff\xfe1\n")
    code, out, err = run_cli(capsys, argv + [str(p)])
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot read {kind} file {p}: ") and err.count("\n") == 1


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


@pytest.mark.parametrize("rows", ["10,4.5\n20,6\n", "10,4\n20,6.5\n"], ids=["first", "second"])
def test_fit_bad_row_exits_2_wherever_it_stands(capsys, tmp_path, rows):
    # The first row is a header only when neither of its first two cells
    # is a number, so a bad first data row is refused like a later one.
    p = tmp_path / "points.csv"
    p.write_text(rows + "40,9\n80,12\n", encoding="utf-8")
    code, out, err = run_cli(capsys, ["fit", "--points", str(p)])
    assert code == 2 and out == ""
    assert err.startswith("error: bad points row") and err.count("\n") == 1


def test_closed_stdout_exits_141_quietly():
    # The reader takes one line and closes the pipe, as `| head -1` does;
    # the 65,535 members of this digit set fill far more than a pipe holds.
    argv = ["construct", "ruzsa", "--d", "2", "--k", "2", "--N", str(10**14)]
    proc = subprocess.Popen(
        [sys.executable, "-m", "symfree", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    assert json.loads(proc.stdout.readline())["size"] == 65535
    proc.stdout.close()
    assert proc.wait(timeout=60) == 141
    assert proc.stderr.read() == b""
    proc.stderr.close()


def test_closed_stdout_closes_the_devnull_descriptor(monkeypatch):
    # The descriptor opened on devnull is copied onto stdout's and then
    # closed; no real descriptor of this process is touched.
    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError

        def fileno(self):
            return 99

    calls = []
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    with monkeypatch.context() as m:
        m.setattr(os, "open", lambda path, flags: calls.append(("open", path)) or 1000)
        m.setattr(os, "dup2", lambda fd, fd2: calls.append(("dup2", fd, fd2)))
        m.setattr(os, "close", lambda fd: calls.append(("close", fd)))
        code = main(["construct", "ruzsa", "--d", "2", "--k", "3", "--N", "144"])
    assert code == 141
    assert calls == [("open", os.devnull), ("dup2", 1000, 99), ("close", 1000)]


def test_main_builds_its_parser_once(monkeypatch):
    builds = []

    def counted():
        builds.append(1)
        return build_parser()

    monkeypatch.setattr(cli_mod, "build_parser", counted)
    cli_mod._parser.cache_clear()
    try:
        assert main(["search", "exact", "--eq", "1,1", "--N", "8"]) == 0
        with pytest.raises(SystemExit):
            main(["search", "exact", "--eq", "1,1"])
        assert main(["table", "rn", "--eq", "1,1", "--N", "6"]) == 0
    finally:
        cli_mod._parser.cache_clear()
    assert len(builds) == 1


def _outcome(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    # --timing's wall-clock field is the one figure two runs may differ in.
    return code, re.sub(r'"time_ms": \d+', '"time_ms": 0', captured.out), captured.err


def test_reused_parser_prints_what_a_fresh_one_prints(capsys, monkeypatch, set_file):
    # Each command follows one that set what it leaves to a default: the
    # --set list must not accumulate, and --N, --budget, --timing and
    # --method must not carry over, across a usage error too.
    a = set_file("a.txt", [1, 2, 5, 7])
    b = set_file("b.txt", [1, 2, 3, 4, 6])
    sequence = [
        ["check", "bounds", "--eq", "1,1", "--set", a, "--set", b, "--N", "9"],
        ["check", "bounds", "--eq", "1,1", "--set", b],
        ["search", "exact", "--eq", "1,1", "--N", "12", "--budget", "5", "--timing"],
        ["search", "exact", "--eq", "1,1", "--N", "12"],
        ["search", "exact", "--eq", "1,1"],
        ["count", "distinct", "--eq", "1,1", "--set", a, "--N", "9", "--method", "enumerate"],
        ["count", "distinct", "--eq", "1,1", "--set", a],
    ]
    cli_mod._parser.cache_clear()
    reused = [_outcome(capsys, argv) for argv in sequence]
    monkeypatch.setattr(cli_mod, "_parser", build_parser)
    fresh = [_outcome(capsys, argv) for argv in sequence]
    assert reused == fresh
    assert [code for code, _, _ in fresh] == [0, 0, 0, 0, 2, 0, 0]
    assert [len(json.loads(fresh[i][1])["sets"]) for i in (0, 1)] == [2, 1]
    assert "time_ms" in fresh[2][1] and "time_ms" not in fresh[3][1]


def test_fit_takes_sizes_past_int64(capsys, tmp_path):
    p = tmp_path / "points.csv"
    p.write_text(f"10,3\n100,9\n{10**30},27\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, ["fit", "--points", str(p)])
    assert code == 0
    assert math.isfinite(json.loads(out)["slope"])


def test_exit_code_validation(capsys, set_file):
    path = set_file("a.txt", [1, 2, 3])
    code, out, err = run_cli(capsys, ["count", "energy", "--eq", "1,x", "--set", path])
    assert code == 2 and out == "" and err.startswith("error:")
    code, _, err = run_cli(capsys, ["count", "energy", "--eq", "1,1", "--set", "/no/such/file"])
    assert code == 2 and err.startswith("error:")
    with pytest.raises(SystemExit) as exc:
        main(["table", "rn", "--eq", "1,1", "--N", "6", "--csv"])
    assert exc.value.code == 2


def test_table_rn_rejects_zero_trials_up_front(capsys):
    # Every row of this table is exact, so no restart would ever run.
    code, out, err = run_cli(capsys, ["table", "rn", "--eq", "1,1", "--N", "6", "--trials", "0"])
    assert code == 2 and out == ""
    assert err == "error: trial count must be >= 1\n"


def test_exit_code_budget(capsys, set_file):
    path = set_file("a.txt", range(1, 9))
    for cmd in (
        ["count", "distinct", "--method", "enumerate"],
        ["count", "distinct", "--method", "inclusion_exclusion"],
        ["count", "solutions"],
        ["verify", "solution-free"],
        ["check", "bounds"],
    ):
        argv = cmd + ["--eq", "1,1", "--set", path, "--budget", "1"]
        code, out, err = run_cli(capsys, argv)
        assert code == 3 and out == "" and err.startswith("error:"), cmd


def test_count_solutions_budget_charged_before_convolving(capsys, set_file, monkeypatch):
    import symfree.counting as counting_mod

    calls = []
    real = counting_mod._rep_counts

    def spy(terms):
        calls.append(len(terms))
        return real(terms)

    monkeypatch.setattr(counting_mod, "_rep_counts", spy)
    path = set_file("big.txt", range(1, 1501))
    argv = ["count", "solutions", "--eq", "1,1", "--set", path, "--budget", "1"]
    code, out, err = run_cli(capsys, argv)
    assert code == 3 and out == "" and err.startswith("error:")
    assert calls == []


def test_count_energy_budget_charged_before_convolving(capsys, set_file, monkeypatch):
    import symfree.counting as counting_mod

    calls = []
    real = counting_mod._rep_counts

    def spy(terms):
        calls.append(len(terms))
        return real(terms)

    monkeypatch.setattr(counting_mod, "_rep_counts", spy)
    path = set_file("big.txt", range(1, 1501))
    argv = ["count", "energy", "--eq", "1,1,1", "--set", path, "--budget", "1"]
    code, out, err = run_cli(capsys, argv)
    assert code == 3 and out == "" and err.startswith("error:")
    assert calls == []


def test_count_distinct_partition_sum_charged_before_convolving(
    capsys, set_file, monkeypatch
):
    # The sum's layers are charged 2,575 units, more than the 1,000 given,
    # so it exits before its first merged multiset's convolution over 1,500
    # values; test_counting covers a budget that admits the layers.
    import symfree.counting as counting_mod

    def spy(terms):
        raise AssertionError("convolved past the budget")

    monkeypatch.setattr(counting_mod, "_rep_counts", spy)
    path = set_file("big.txt", range(1, 1501))
    argv = ["count", "distinct", "--method", "inclusion_exclusion", "--eq", "1,1,1"]
    code, out, err = run_cli(capsys, argv + ["--set", path, "--budget", "1000"])
    assert code == 3 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_memory_error_maps_to_exit_3(capsys, set_file, monkeypatch):
    import symfree.counting as counting_mod

    def exhausted(terms):
        raise MemoryError("Unable to allocate 8.00 GiB")

    monkeypatch.setattr(counting_mod, "_rep_counts", exhausted)
    path = set_file("a.txt", range(1, 9))
    for argv in (
        ["count", "energy", "--eq", "1,1", "--set", path],
        ["check", "bounds", "--eq", "1,1", "--set", path],
    ):
        code, out, err = run_cli(capsys, argv)
        assert code == 3 and out == "", argv
        assert err == "error: out of memory: Unable to allocate 8.00 GiB\n"


def test_check_inequalities_failure_maps_to_exit_4(capsys, monkeypatch):
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


def test_construct_ruzsa_budget_exits_3():
    # 10^25 holds 2^28 - 1 members, charged before any is built.
    argv = ["construct", "ruzsa", "--d", "2", "--k", "2", "--N", str(10**25)]
    run = subprocess.run(
        [sys.executable, "-m", "symfree", *argv], capture_output=True, text=True, timeout=60
    )
    assert run.returncode == 3 and run.stdout == ""
    assert run.stderr.startswith("error:") and run.stderr.count("\n") == 1


def test_construct_ruzsa_budget_option(capsys):
    # Seven members at seven units each.
    argv = ["construct", "ruzsa", "--d", "2", "--k", "2", "--N", "100", "--budget"]
    code, out, err = run_cli(capsys, argv + ["49"])
    assert code == 0 and err == ""
    assert out.splitlines()[1:] == ["1", "8", "9", "64", "65", "72", "73"]
    code, out, err = run_cli(capsys, argv + ["48"])
    assert code == 3 and out == "" and err.startswith("error:")


@pytest.mark.parametrize("eq", ["1,1", "1,2,2"])
@pytest.mark.parametrize("N", [2**63 - 1, 2**63, 10**20])
@pytest.mark.parametrize(
    "cmd", [["search", "exact"], ["table", "rn", "--budget", "10"]], ids=["search", "table"]
)
def test_exact_search_past_int64_exits_3(capsys, monkeypatch, cmd, N, eq):
    # [1, N] has no C length from 2^63 on; its half-tuples are charged from
    # N itself, so the join never sees it.
    import symfree.search as search_mod

    if N >= 2**63:
        def join(elements, a, budget):
            raise AssertionError("the join ran on [1, N]")

        monkeypatch.setattr(search_mod, "_half_sum_pairs", join)
    code, out, err = run_cli(capsys, cmd + ["--eq", eq, "--N", str(N)])
    assert code == 3 and out == ""
    assert err == "error: work budget of 10000000 steps exhausted\n"


@pytest.mark.parametrize("eq, first", [("1,1", 472), ("1,2,2", 49), ("1,2,3", 39)])
def test_exact_search_first_n_over_the_subset_budget(capsys, eq, first):
    # The join's charge for [1, first] passes the 10^7-unit subset budget,
    # and the one for [1, first - 1] does not.
    from symfree.counting import _half_tuple_units
    from symfree.search import DEFAULT_SUBSET_BUDGET

    slots = sorted(parse_equation(eq).a)
    assert _half_tuple_units(first - 1, slots, False) <= DEFAULT_SUBSET_BUDGET
    code, out, err = run_cli(capsys, ["search", "exact", "--eq", eq, "--N", str(first)])
    assert code == 3 and out == "" and err.startswith("error:")


HOSTILE_N = ("0", "-1", str(2**63 - 1), str(2**63), str(10**20))
HOSTILE_BUDGETS = ("0", "1", str(10**30))
HOSTILE_EQS = ("1", "1,0", f"1,{10**30}", "1,1,1,1,1,1,1,1", f"1,1,{10**9},{10**9}")

HOSTILE_ARGS = [
    *(["--eq", "1,1", "--N", n] for n in HOSTILE_N),
    *(["--eq", "1,1", "--N", "12", "--budget", b] for b in HOSTILE_BUDGETS),
    *(["--eq", eq, "--N", n] for eq, n in zip(HOSTILE_EQS[1:], ("12", "12", "16", "12"))),
]


def _assert_exits_cleanly(capsys, argv):
    # The input gives a result, or one error line and exit 2 or 3; one that
    # is refused is refused before anything sized by it is allocated.
    tracemalloc.start()
    t0 = time.perf_counter()
    try:
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's own usage errors
            code = exc.code
        elapsed = time.perf_counter() - t0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert code in (0, 2, 3)
    assert "Traceback" not in err and len(err.splitlines()) <= 1
    assert elapsed < 10
    if code:
        assert err.startswith("error:") and peak < 1 << 20


@pytest.mark.parametrize("args", HOSTILE_ARGS, ids="_".join)
@pytest.mark.parametrize("cmd", [["search", "exact"], ["table", "rn"]], ids=["search", "table"])
def test_exact_search_hostile_inputs_exit_cleanly(capsys, cmd, args):
    _assert_exits_cleanly(capsys, cmd + args)


HOSTILE_SET_FILES = {
    "ok.txt": "1\n2\n5\n7\n11\n",
    "empty.txt": "",
    "floats.txt": "1.5\n2\n",
    "floats.json": "[1.5, 2]",
    "zero.txt": "0\n1\n2\n",
    "negative.txt": "-3\n1\n2\n",
    "duplicates.txt": "1\n1\n2\n5\n",
    "huge.txt": f"1\n2\n{2**100}\n",
    "malformed.json": "[1, 2,",
    "object.json": '{"a": 1}',
}
HOSTILE_POINT_FILES = {
    "points.csv": "N,size\n10,4\n20,6\n40,9\n",
    "empty.csv": "",
    "floats.csv": "10,4\n20,6.5\n40,9\n80,12\n",
    "float_first.csv": "10,4.5\n20,6\n40,9\n80,12\n",
    "zero.csv": "0,0\n10,4\n20,6\n40,9\n",
    "negative.csv": "-10,4\n20,-6\n40,9\n80,12\n",
    "huge.csv": f"{10**400},4\n20,6\n40,9\n",
    "same_n.csv": "10,4\n10,4\n10,4\n",
    "text.csv": "a,b\nx,y\n",
    "malformed.json": "[1, 2,",
}
_SET_COMMANDS = (
    ["count", "energy"],
    ["count", "solutions"],
    ["count", "distinct"],
    ["count", "distinct", "--method", "enumerate"],
    ["verify", "solution-free"],
    ["check", "bounds"],
)
_RUZSA = ["construct", "ruzsa", "--d", "2", "--k", "2"]
_HEURISTIC = ["search", "heuristic", "--trials", "2"]

HOSTILE_COMMANDS = [
    *(
        argv
        for cmd in _SET_COMMANDS
        for argv in (
            *(cmd + ["--eq", "1,1", "--set", "ok.txt", "--N", n] for n in HOSTILE_N),
            *(cmd + ["--eq", "1,1", "--set", "ok.txt", "--budget", b] for b in HOSTILE_BUDGETS),
            *(cmd + ["--eq", eq, "--set", "ok.txt"] for eq in HOSTILE_EQS),
            *(cmd + ["--eq", "1,1", "--set", f] for f in HOSTILE_SET_FILES if f != "ok.txt"),
        )
    ),
    # At the default budget the digit set for N = 2^63 has millions of
    # members and is printed in full, so the huge N run under 10^6 units.
    *(_RUZSA + ["--N", n, "--budget", str(10**6)] for n in HOSTILE_N),
    *(_RUZSA + ["--N", "100", "--budget", b] for b in HOSTILE_BUDGETS),
    *(
        ["construct", "ruzsa", "--d", d, "--k", k, "--N", "100"]
        for d, k in (
            ("2", "1"), ("0", "2"), ("2", "0"), (str(10**30), "2"), ("2", str(10**30)), ("2", "8")
        )
    ),
    *(_HEURISTIC + ["--eq", "1,1", "--N", n] for n in HOSTILE_N),
    *(_HEURISTIC + ["--eq", "1,1", "--N", "12", "--budget", b] for b in HOSTILE_BUDGETS),
    *(_HEURISTIC + ["--eq", eq, "--N", "16"] for eq in HOSTILE_EQS),
    ["search", "heuristic", "--eq", "1,1", "--N", "12", "--trials", "0"],
    ["check", "inequalities", "--trials", "0"],
    ["check", "inequalities", "--trials", "-1"],
    ["check", "inequalities", "--trials", "1", "--seed", str(10**30)],
    *(["fit", "--points", f] for f in HOSTILE_POINT_FILES),
]


@pytest.mark.parametrize("argv", HOSTILE_COMMANDS, ids="_".join)
def test_hostile_inputs_exit_cleanly(capsys, monkeypatch, tmp_path, argv):
    for name, text in {**HOSTILE_SET_FILES, **HOSTILE_POINT_FILES}.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    _assert_exits_cleanly(capsys, argv)


# Each subcommand's arguments: kind of action, type, default, required flag
# and choices.  Pinned so that regrouping the shared options in
# `build_parser` cannot drop or change one.
STORE, APPEND, FLAG = "_StoreAction", "_AppendAction", "_StoreTrueAction"
BUDGET = (STORE, int, 10**9, False, None)
SUBCOMMAND_ARGUMENTS = {
    "construct ruzsa": {
        "--d": (STORE, int, None, True, None),
        "--k": (STORE, int, None, True, None),
        "--N": (STORE, int, None, True, None),
        "--budget": BUDGET,
    },
    "count": {
        "what": (STORE, None, None, True, ["energy", "solutions", "distinct"]),
        "--eq": (STORE, None, None, True, None),
        "--set": (STORE, None, None, True, None),
        "--N": (STORE, int, None, False, None),
        "--method": (
            STORE, None, "inclusion_exclusion", False, ["enumerate", "inclusion_exclusion"]
        ),
        "--budget": BUDGET,
    },
    "verify": {
        "property": (STORE, None, None, True, ["solution-free"]),
        "--eq": (STORE, None, None, True, None),
        "--set": (STORE, None, None, True, None),
        "--N": (STORE, int, None, False, None),
        "--budget": BUDGET,
    },
    "search": {
        "mode": (STORE, None, None, True, ["exact", "heuristic"]),
        "--eq": (STORE, None, None, True, None),
        "--N": (STORE, int, None, True, None),
        "--budget": (STORE, int, None, False, None),
        "--trials": (STORE, int, 40, False, None),
        "--seed": (STORE, int, 0, False, None),
        "--timing": (FLAG, None, False, False, None),
    },
    "check inequalities": {
        "--trials": (STORE, int, 1000, False, None),
        "--seed": (STORE, int, 0, False, None),
    },
    "check bounds": {
        "--eq": (STORE, None, None, True, None),
        "--set": (APPEND, None, None, True, None),
        "--N": (STORE, int, None, False, None),
        "--budget": BUDGET,
    },
    "table rn": {
        "--eq": (STORE, None, None, True, None),
        "--N": (STORE, int, None, True, None),
        "--budget": (STORE, int, 5 * 10**6, False, None),
        "--trials": (STORE, int, 40, False, None),
        "--seed": (STORE, int, 0, False, None),
        "--json": (FLAG, None, False, False, None),
    },
    "fit": {"--points": (STORE, None, None, True, None)},
}


def _subcommands(parser, path=()):
    """Each leaf subcommand's name and parser."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return {" ".join(path): parser}
    leaves = {}
    for name, child in subs[0].choices.items():
        leaves.update(_subcommands(child, (*path, name)))
    return leaves


def test_every_subcommand_is_pinned():
    assert sorted(_subcommands(build_parser())) == sorted(SUBCOMMAND_ARGUMENTS)


@pytest.mark.parametrize("command", SUBCOMMAND_ARGUMENTS)
def test_subcommand_help_and_arguments(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([*command.split(), "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: symfree {command} [-h]")
    arguments = {
        (a.option_strings[0] if a.option_strings else a.dest): (
            type(a).__name__, a.type, a.default, a.required, a.choices
        )
        for a in _subcommands(build_parser())[command]._actions
        if not isinstance(a, argparse._HelpAction)
    }
    assert arguments == SUBCOMMAND_ARGUMENTS[command]


# Drawn commands for the no-traceback property: every subcommand's own
# arguments, each value small or hostile, and input files of drawn bytes.
def _mostly(valid, hostile):
    """Draws from `valid` seven times in eight, so that most commands parse."""
    return st.integers(0, 7).flatmap(lambda i: hostile if i == 7 else valid)


_DRAWN_INTS = _mostly(
    st.integers(-2, 24).map(str),
    st.sampled_from(["", "x", "1.5", "0x10", "1e3", " 7", "-0", "٣", str(10**30)]),
)
_DRAWN_VALUES = {
    "--eq": st.sampled_from(
        ["1,1", "1,-1", "2,2", "1,2,2", "3,-3,3", "1,1,1,1", "3,-5", "1,2,3",
         "1", "1,0", "", "a,b", "1,,1", " 1, 2", f"1,{10**30}"]
    ),
    "--set": st.sampled_from(["f0", "f1", "missing"]),
    "--points": st.sampled_from(["f0", "f1", "missing"]),
    "--trials": _mostly(st.integers(-1, 3).map(str), st.sampled_from(["", "x"])),
    "--seed": _mostly(st.integers(-5, 5).map(str), st.sampled_from([str(10**30), "x"])),
    "--budget": _mostly(st.integers(-1, 10**4).map(str), st.sampled_from(["", "x", str(10**30)])),
}
_DRAWN_NUMBERS = _mostly(st.integers(1, 40), st.integers(-3, 0) | st.just(2**70))
_DRAWN_SET_TEXT = st.lists(_DRAWN_NUMBERS, max_size=10).flatmap(
    lambda vs: st.sampled_from(
        ["\n".join(map(str, vs)), ",".join(map(str, vs)), " ".join(map(str, vs)), json.dumps(vs)]
    )
)
_DRAWN_POINTS_TEXT = st.tuples(
    st.sampled_from(["", "N,size\n", "size,n\n", "x,y\n"]),
    st.lists(st.tuples(_DRAWN_NUMBERS, _mostly(_DRAWN_NUMBERS, st.just(1.5))), max_size=6),
).map(lambda t: t[0] + "".join(f"{a},{b}\n" for a, b in t[1]))
_DRAWN_FILE = st.binary(max_size=40) | st.tuples(
    st.sampled_from([b"", b"\xef\xbb\xbf"]), _DRAWN_SET_TEXT | _DRAWN_POINTS_TEXT
).map(lambda t: t[0] + t[1].encode())


@st.composite
def _drawn_argv(draw):
    command = draw(st.sampled_from(sorted(SUBCOMMAND_ARGUMENTS)))
    argv = command.split()
    for name, (kind, _, _, required, choices) in SUBCOMMAND_ARGUMENTS[command].items():
        if not draw(st.integers(0, 9).map(lambda i: i < 9) if required else st.booleans()):
            continue
        if kind == FLAG:
            argv.append(name)
            continue
        if choices:
            value = draw(_mostly(st.sampled_from(choices), st.just("bogus")))
        else:
            value = draw(_DRAWN_VALUES.get(name, _DRAWN_INTS))
        argv.extend([value] if not name.startswith("--") else [name, value])
    if draw(st.integers(0, 7)) == 7:
        argv.append(draw(st.sampled_from(["--bogus", "--N", "--", "-1", "extra"])))
    return argv


@given(argv=_drawn_argv(), files=st.lists(_DRAWN_FILE, min_size=2, max_size=2))
def test_drawn_commands_never_end_in_a_traceback(argv, files):
    # Nothing escapes main but argparse's usage exit, every exit is 0, 2 or
    # 3, and a nonzero exit from main writes exactly one error line.
    with tempfile.TemporaryDirectory() as tmp:
        for i, data in enumerate(files):
            pathlib.Path(tmp, f"f{i}").write_bytes(data)
        argv = [str(pathlib.Path(tmp, a)) if a in ("f0", "f1", "missing") else a for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's own usage errors
                assert exc.code == 2
                assert "error:" in err.getvalue().splitlines()[-1]
                return
    assert code in (0, 2, 3)
    if code:
        assert err.getvalue().count("\n") == 1 and err.getvalue().startswith("error:")
    else:
        assert err.getvalue() == ""


# The budgeted commands on small sets, for the budget-monotone property.
_BUDGETED_EQS = ["1,1", "1,-1", "2,2", "1,2", "3,-5", "1,1,1", "1,2,2", "1,2,3", "2,-1,3"]


def _run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


# Each example bisects with about 30 calls of main, so fewer examples than
# the profile's keep the test near 3 s.
@settings(max_examples=60)
@given(
    command=st.sampled_from(_SET_COMMANDS),
    eq=st.sampled_from(_BUDGETED_EQS),
    values=st.sets(st.integers(1, 30), min_size=1, max_size=8),
    data=st.data(),
)
def test_budgets_split_at_one_threshold(command, eq, values, data):
    # Each command has one threshold budget: every budget below it exits 3
    # with one error line, and every budget from it up exits 0 with the
    # same output.
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp, "set.txt")
        path.write_text("".join(f"{v}\n" for v in sorted(values)), encoding="utf-8")
        argv = [*command, "--eq", eq, "--set", str(path), "--budget"]

        def exit_code(budget):
            return _run_main(argv + [str(budget)])[0]

        hi = 1
        while exit_code(hi) != 0:
            assert hi < 10**9
            hi *= 2
        lo = hi // 2  # exits nonzero, or is 0
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if exit_code(mid) == 0 else (mid, hi)
        code, want, err = _run_main(argv + [str(hi)])
        assert code == 0 and err == ""
        if hi > 1:
            for budget in data.draw(st.lists(st.integers(1, hi - 1), min_size=1, max_size=3)):
                code, out, err = _run_main(argv + [str(budget)])
                assert code == 3 and out == "", budget
                assert err.startswith("error:") and err.count("\n") == 1
        for budget in data.draw(st.lists(st.integers(hi, 4 * hi), min_size=1, max_size=3)):
            assert _run_main(argv + [str(budget)]) == (0, want, ""), budget
