"""The claim rule and bound verdicts of ``tools/bench_pairs.py``'s
``summarize``, on synthetic runs."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

TIGHT = [1.00, 1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08, 1.09]


def row(parent, change, metric="wall_s", failed=(0, 0)):
    """The summary row of ``metric`` for pairs of parent and change values;
    every other metric reads 1.0 on both sides. Each run attempts 100
    operations, of which ``failed`` (parent, change) fail."""
    runs = []
    for pair, values in enumerate(zip(parent, change), 1):
        for side, value, fails in zip(("parent", "change"), values, failed):
            metrics = {m["name"]: {"value": 1.0}
                       for m in bench_pairs.SPEC["end_to_end"]}
            metrics[metric] = {"value": value}
            runs.append({"pair": pair, "side": side, "workload": "cli",
                         "result": {"attempted": 100, "failed": fails,
                                    "metrics": metrics}})
    return bench_pairs.summarize(runs)["cli"][metric]


def test_ten_wins_beyond_the_parent_spread_meet_the_claim():
    r = row(TIGHT, [v - 0.2 for v in TIGHT])
    assert r["change_wins"] == r["pairs"] == 10
    assert r["claim_rule_met"] and r["bound_verdict"] == "within"
    assert r["parent_failed_share"] == r["change_failed_share"] == 0.0


def test_eight_wins_in_ten_miss_the_claim():
    change = [v - 0.2 for v in TIGHT[:8]] + [v + 0.01 for v in TIGHT[8:]]
    r = row(TIGHT, change)
    assert r["change_wins"] == 8 and not r["claim_rule_met"]


def test_a_larger_failed_share_misses_the_claim():
    r = row(TIGHT, [v - 0.2 for v in TIGHT], failed=(0, 1))
    assert r["change_wins"] == 10 and not r["claim_rule_met"]
    assert (r["parent_failed"], r["change_failed"]) == (0, 10)
    assert (r["parent_failed_share"], r["change_failed_share"]) == (0.0, 0.01)


def test_a_parent_spread_wider_than_the_bound_is_unresolved():
    wide = [float(v) for v in range(1, 11)]  # q3 - q1 over 0.25 of median
    assert row(wide, wide[::-1])["bound_verdict"] == "unresolved"
    # unless every change run beats every parent run
    assert row(wide, [0.5] * 10)["bound_verdict"] == "within"


def test_worse_by_more_than_the_bound():
    r = row(TIGHT, [1.5 * v for v in TIGHT])
    assert r["bound_verdict"] == "worse" and not r["claim_rule_met"]


def test_a_higher_is_better_metric_wins_upward():
    items = [100.0 + v for v in range(10)]
    up = row(items, [v + 30.0 for v in items], metric="items_per_s")
    assert up["claim_rule_met"] and up["bound_verdict"] == "within"
    down = row(items, [v - 30.0 for v in items], metric="items_per_s")
    assert down["change_wins"] == 0 and down["bound_verdict"] == "worse"
