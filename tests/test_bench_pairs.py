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
