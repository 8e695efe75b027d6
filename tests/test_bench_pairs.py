"""``tools/bench_pairs.summarise_end_to_end`` on synthetic pairs: the
``gain_shown`` and ``within_bound`` verdicts of each end-to-end metric, and
the outputs whose digests differ."""
from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

METRICS = [
    {"name": "wall_ref", "unit": "ref", "better": "lower", "bound": 0.25},
    {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1},
]


def _run(wall: float, rate: float = 1.0) -> dict:
    return {"metrics": {"wall_ref": {"value": wall}, "rate": {"value": rate}},
            "attempted": 4, "failed": 0, "correct": True, "digests": ["digest a"]}


def _pairs(parent: list, change: list, rate_parent=None, rate_change=None) -> list:
    n = len(parent)
    rate_parent = rate_parent or [1.0] * n
    rate_change = rate_change or [1.0] * n
    return [{"seed": k, "first": ("parent", "change")[k % 2],
             "parent": _run(parent[k], rate_parent[k]), "change": _run(change[k], rate_change[k])}
            for k in range(n)]


PARENT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 101.0, 99.0, 100.5, 99.5]  # quartile gap 1.25


def _summary(pairs):
    return bench_pairs.summarise_end_to_end(pairs, METRICS, list(range(len(pairs))))


def test_a_clear_gain_in_every_pair_is_shown():
    out = _summary(_pairs(PARENT, [p - 8.0 for p in PARENT]))["wall_ref"]
    assert out["change_better_in_pairs"] == "10/10"
    assert out["gain_shown"] and out["within_bound"]


@pytest.mark.parametrize("change, shown", [
    # better in 9/10 pairs by far more than the gap: shown
    ([p - 8.0 for p in PARENT[:9]] + [PARENT[9] + 1.0], True),
    # better in 8/10 pairs: not shown
    ([p - 8.0 for p in PARENT[:8]] + [p + 1.0 for p in PARENT[8:]], False),
    # better in every pair, but the medians differ by less than the gap
    ([p - 1.0 for p in PARENT], False),
])
def test_a_gain_needs_nine_pairs_in_ten_and_more_than_the_quartile_gap(change, shown):
    assert _summary(_pairs(PARENT, change))["wall_ref"]["gain_shown"] is shown


@pytest.mark.parametrize("factor, within", [(1.2, True), (1.3, False), (0.5, True)])
def test_within_bound_reads_the_bound_of_a_lower_is_better_metric(factor, within):
    out = _summary(_pairs(PARENT, [p * factor for p in PARENT]))["wall_ref"]
    assert out["within_bound"] is within
    assert out["gain_shown"] is (factor < 1.0)


def test_a_higher_is_better_metric_gains_upwards():
    up = _summary(_pairs(PARENT, PARENT, [1.0] * 10, [2.0] * 10))["rate"]
    assert up["change_better_in_pairs"] == "10/10"
    assert up["gain_shown"] and up["within_bound"]
    down = _summary(_pairs(PARENT, PARENT, [1.0] * 10, [0.85] * 10))["rate"]
    assert down["change_better_in_pairs"] == "0/10"
    assert not down["gain_shown"] and not down["within_bound"]


def test_pairs_with_an_error_are_left_out():
    pairs = _pairs(PARENT, [p - 8.0 for p in PARENT])
    pairs.append({"seed": 10, "first": "parent", "parent": {"error": "exit 1: boom"},
                  "change": _run(50.0)})
    out = _summary(pairs)
    assert out["wall_ref"]["change_better_in_pairs"] == "10/10"
    assert out["wall_ref"]["gain_shown"]
    assert out["errors"] == ["seed 10 parent: exit 1: boom"]
    assert not out["correct_all_runs"]


def test_digests_differ_names_each_output_whose_digest_differs_in_some_pair():
    pairs = _pairs(PARENT, PARENT)
    for p in pairs:
        p["parent"]["digests"] = ["digest a.build metric.csv 01", "digest a.build report.json 02"]
        p["change"]["digests"] = ["digest a.build metric.csv 03", "digest a.build report.json 02"]
    pairs[4]["change"]["digests"] = ["digest a.build metric.csv 01", "digest a.build report.json 09"]
    pairs[7]["change"]["digests"].append("digest a.verify output.txt 04")
    out = _summary(pairs)
    assert out["digests_agree_in_pairs"] == "0/10"
    assert out["digests_differ"] == [
        "a.build metric.csv", "a.build report.json", "a.verify output.txt"]
    assert _summary(_pairs(PARENT, PARENT))["digests_differ"] == []
