"""Tests of the benchmark itself (about a minute):

    python3 -m pytest -q perfbench

Run from the repository root.  The repository's own test suite does not
collect this file (pytest's testpaths is ``tests``).
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCHMARK = json.load(fh)


@pytest.fixture(scope="module", params=["verify-n4", "apply-n8"])
def traced_runs(request):
    """Two traced runs of one seed, each one untraced and one traced execution."""
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        runs = [run.execute(request.param, 3, 0, 1, time.monotonic() + run.RUN_LIMIT_S)
                for _ in range(2)]
    finally:
        os.chdir(cwd)
    return request.param, runs


def executions_of(runs, traced):
    return [res for executions in runs for res in executions if res["traced"] == traced]


def test_layer_counts_repeat_across_traced_runs(traced_runs):
    _, runs = traced_runs
    counts = [run.count_metrics(res["layers"]) for res in executions_of(runs, True)]
    assert len(counts) == 2
    assert counts[0] == counts[1]
    assert any(counts[0].values())


def test_traced_and_untraced_report_numerics_identical(traced_runs):
    _, runs = traced_runs
    digests = {res["digest"] for executions in runs for res in executions}
    assert executions_of(runs, True) and executions_of(runs, False)
    assert len(digests) == 1


def test_self_times_account_for_wall(traced_runs):
    _, runs = traced_runs
    for res in executions_of(runs, True):
        remainder = res["wall_s"] - res["layers"]["trace.self_s"]
        assert 0 <= remainder < 0.05 * res["wall_s"]


def test_result_carries_exactly_the_declared_metrics(traced_runs):
    workload, runs = traced_runs
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result = run.summarize(workload, 3, trace, runs[0])
        assert result["correct"]
        declared = {m["name"]: m["unit"] for m in BENCHMARK[key]}
        assert {name: m["unit"] for name, m in result["metrics"].items()} == declared


def test_operation_counts_do_not_depend_on_executions(traced_runs):
    workload, runs = traced_runs
    one = run.summarize(workload, 3, 1, runs[0])
    both = run.summarize(workload, 3, 1, runs[0] + runs[1])
    assert one["attempted"] == both["attempted"] == len(runs[0][0]["ops"])
    assert one["failed"] == both["failed"]


def test_imported_bindings_are_traced(traced_runs):
    workload, runs = traced_runs
    if workload != "verify-n4":
        pytest.skip("det0 runs only on verify-n4")
    layers = executions_of(runs, True)[0]["layers"]
    # every action check calls det0_spectrum's own imported dressed_pair
    assert layers["sov_bases.pair.calls"] > layers["det0_spectrum.actions.calls"] > 0
    assert layers["gl3_model.cache.hits"] > 0 and layers["gl3_model.transfer.m3.calls"] > 0


def test_fails_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "apply-n8", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
