"""``tools/bench_pairs.py``'s summary on synthetic pairs."""

import importlib.util
from pathlib import Path

import pytest

BENCH_PAIRS_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", BENCH_PAIRS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # defines the functions, runs no benchmark
    return module


def pairs(parent, change):
    return [{"seed": seed, "parent": {"metrics": {"wall_s": p}},
             "change": {"metrics": {"wall_s": c}}}
            for seed, (p, c) in enumerate(zip(parent, change), start=1)]


PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]


def test_nine_of_ten_wins_beyond_the_spread_is_a_gain(bench_pairs):
    change = [0.8] * 9 + [1.5]
    s = bench_pairs.summarize(pairs(PARENT, change))["wall_s"]
    assert s["pairs"] == 10 and s["change_lower_pairs"] == 9
    assert s["parent_median"] == 1.0 and s["change_median"] == 0.8
    # statistics.quantiles' default (exclusive) method, as in the earlier BENCH files
    assert s["parent_quartiles"] == pytest.approx([0.98, 1.02])
    assert s["change_quartiles"] == pytest.approx([0.8, 0.8])
    assert s["gain"] is True


def test_eight_of_ten_wins_is_no_gain(bench_pairs):
    s = bench_pairs.summarize(pairs(PARENT, [0.8] * 8 + [1.5] * 2))["wall_s"]
    assert s["change_lower_pairs"] == 8 and s["gain"] is False


def test_ties_count_for_neither_side(bench_pairs):
    s = bench_pairs.summarize(pairs(PARENT, [0.8] * 9 + [PARENT[-1]]))["wall_s"]
    assert s["change_lower_pairs"] == 9 and s["gain"] is True
    s = bench_pairs.summarize(pairs(PARENT, [0.8] * 8 + PARENT[-2:]))["wall_s"]
    assert s["change_lower_pairs"] == 8 and s["gain"] is False


def test_every_win_inside_the_parent_spread_is_no_gain(bench_pairs):
    change = [p - 0.01 for p in PARENT]  # wins 10/10, medians 0.01 apart, IQR 0.04
    s = bench_pairs.summarize(pairs(PARENT, change))["wall_s"]
    assert s["change_lower_pairs"] == 10 and s["gain"] is False


def test_seed_range(bench_pairs):
    assert bench_pairs.seed_range("21-30") == list(range(21, 31))
    assert bench_pairs.seed_range("7") == [7]
