"""The paired A/B runner's bookkeeping: seeds, digest comparison, pair statistics."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def test_seeds_are_ranges_or_lists():
    assert bench_pairs.parse_seeds("701-704") == [701, 702, 703, 704]
    assert bench_pairs.parse_seeds("5,9-10") == [5, 9, 10]
    for bad in ("3,3", "-1", ""):
        with pytest.raises(ValueError):
            bench_pairs.parse_seeds(bad)


def test_whole_run_digests_count_only_at_equal_steps():
    parent = {"steps": 60, "loss_log_sha256_first_20_steps": "a", "loss_log_sha256": "x",
              "final_loss": "1.5"}
    assert bench_pairs.differing_outputs(parent, {**parent, "steps": 80, "loss_log_sha256": "y",
                                                  "final_loss": "1.4"}) == []
    assert bench_pairs.differing_outputs(parent, {**parent, "loss_log_sha256": "y"}) == [
        "loss_log_sha256"]
    assert bench_pairs.differing_outputs(
        {"evaluations": 3, "report_sha256": "r"}, {"evaluations": 4, "report_sha256": "s"}
    ) == ["report_sha256"]


def test_pairs_are_won_in_the_metric_s_direction():
    faster = bench_pairs.compare([10.0, 12.0, 11.0, 9.0], [12.0, 11.0, 13.0, 14.0], "higher", 0.2)
    assert faster["change_wins"] == "3/4"
    assert faster["parent"]["median"] == 10.5 and faster["change"]["median"] == 12.5
    assert faster["parent"]["q1"] == 9.75 and faster["parent"]["q3"] == 11.25
    assert faster["parent_quartile_distance"] == 1.5 and faster["median_difference"] == 2.0
    assert faster["within_bound"]
    heavier = bench_pairs.compare([100.0, 100.0], [112.0, 99.0], "lower", 0.05)
    assert heavier["change_wins"] == "1/2" and not heavier["within_bound"]


def test_each_metric_gets_one_verdict():
    parent = [10.0, 10.2, 9.8, 10.1, 9.9, 10.3, 9.7, 10.0, 10.2, 9.8]
    # 9 of 10 pairs won by more than the parent's quartile distance (0.3)
    gain = bench_pairs.compare(parent, [p + 1.0 for p in parent[:9]] + [9.0], "higher", 0.2)
    assert gain["change_wins"] == "9/10" and gain["verdict"] == "gain"
    # 8 of 10 is no gain, and inside a narrow spread no regression either
    eight = bench_pairs.compare(parent, [p + 1.0 for p in parent[:8]] + [9.0, 9.0], "higher", 0.2)
    assert eight["change_wins"] == "8/10" and eight["verdict"] == "no regression"
    # a gap below the parent's quartile distance is no gain, though every pair is won
    small = bench_pairs.compare(parent, [p + 0.1 for p in parent], "higher", 0.2)
    assert small["change_wins"] == "10/10" and small["verdict"] == "no regression"
    # 20% more memory against a bound of 10%
    heavier = bench_pairs.compare([60.0, 61.0, 59.0], [72.0, 73.0, 71.0], "lower", 0.1)
    assert heavier["verdict"] == "regression" and not heavier["within_bound"]
    # the change's quartile distance, 8.5, is 68% of the parent's median
    # against a bound of 20%, and the runs interleave
    wide = bench_pairs.compare([5.0, 10.0, 15.0, 20.0], [6.0, 9.0, 16.0, 19.0], "lower", 0.2)
    assert wide["spread"] == 0.68 and wide["within_bound"] and wide["verdict"] == "unresolved"
    # as wide, but every change run beats every parent run
    apart = bench_pairs.compare([0.0, 9.0, 10.0, 10.0], [10.1] * 4, "higher", 0.2)
    assert apart["spread"] > 0.2 and apart["verdict"] == "no regression"


def test_trees_compare_file_by_file(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for root in (a, b):
        (root / "run").mkdir(parents=True)
        (root / "run" / "loss_log.csv").write_bytes(b"step,total\n1,0.5\n")
        (root / "report.json").write_bytes(b"{}")
    assert bench_pairs.compare_trees(a, b) == (2, [])
    (b / "run" / "loss_log.csv").write_bytes(b"step,total\n1,0.6\n")  # one byte differs
    assert bench_pairs.compare_trees(a, b) == (2, ["run/loss_log.csv"])
    (a / "run" / "samples.csv").write_bytes(b"")  # missing from b
    assert bench_pairs.compare_trees(a, b) == (3, ["run/loss_log.csv", "run/samples.csv"])
    assert bench_pairs.compare_trees(b, a) == (3, ["run/loss_log.csv", "run/samples.csv"])
