"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench -q

Runs every workload untraced and traced, checks the metric names against
BENCHMARK.json, and shows the output checks rejecting wrong answers.
"""

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_untraced_run_reports_end_to_end_metrics(workload):
    lines, result = run.run(workload, seed=3, seconds=0, trace=False, tiny=True)
    assert result["correct"], lines
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_traced_run_reports_layers_and_repeats_counts(workload):
    # Long enough for several traced rounds, whose counters must agree.
    lines, result = run.run(workload, seed=3, seconds=0.5, trace=True, tiny=True)
    assert result["correct"], lines
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    _, again = run.run(workload, seed=3, seconds=0, trace=True, tiny=True)
    counts = [name for name, unit, _ in tracing.PER_LAYER if unit == "count"]
    assert {n: result["metrics"][n] for n in counts} == {n: again["metrics"][n] for n in counts}


def test_tracer_sees_calls_through_every_namespace():
    lines, result = run.run("rn_sidon", seed=0, seconds=0, trace=True, tiny=True)
    m = {name: v["value"] for name, v in result["metrics"].items()}
    # run_rn_table reaches these through names bound in experiments and
    # construct, not through the defining modules.
    assert m["search.bnb.calls"] > 0
    assert m["search.hypergraph.subsets"] == 495  # C(12, 4)
    assert m["counting.pinned.calls"] > 0
    assert m["exact_frontier_n"] >= 8


def test_metric_units_match_benchmark_json():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == tracing.PER_LAYER
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(run.WORKLOADS)


GOOD_TABLE = (
    "N,size,exact,witness\n3,3,true,1 2 3\n4,3,true,1 2 3\n"
    "5,4,true,1 2 3 5\n6,4,false,1 2 3 5\n"
)


def test_table_check_accepts_valid_rows():
    assert check.check_table(GOOD_TABLE, (1, 1), 6) == {"exact_frontier_n": 5, "rn_size_sum": 14}


@pytest.mark.parametrize(
    "row, bad",
    [
        ("5,4,true,1 2 3 5", "5,4,true,1 2 3 4"),  # 1+4 = 2+3
        ("5,4,true,1 2 3 5", "5,3,true,1 2 3 5"),  # size disagrees with witness
        ("5,4,true,1 2 3 5", "5,3,true,1 2 3"),  # exact but below R(5) = 4
        ("6,4,false,1 2 3 5", "6,5,false,1 2 3 5 6"),  # 1+6 = 2+5
        ("5,4,true,1 2 3 5", "5,4,true,1 2 x 5"),  # not an integer
    ],
)
def test_table_check_rejects_corrupted_row(row, bad):
    with pytest.raises(check.CheckFailed):
        check.check_table(GOOD_TABLE.replace(row, bad), (1, 1), 6)


def test_counts_match_enumeration():
    values, a = [1, 2, 4, 7, 8], (1, 2)
    coeffs = check.full_coefficients(a)
    tuples = [t for t in itertools.product(values, repeat=4)
              if sum(c * x for c, x in zip(coeffs, t)) == 0]
    got = check.solution_counts(values, a)
    assert got["E"] == len(tuples)
    assert got["distinct"] == sum(len(set(t)) == 4 for t in tuples)
    assert got["coincident"]["1,3"] == sum(t[0] == t[2] for t in tuples)


def test_refuses_a_tree_without_symfree(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("work", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rn_k3", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
