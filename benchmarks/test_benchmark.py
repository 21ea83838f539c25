"""Tests of the benchmark itself: run with `python3 -m pytest benchmarks`.

The traced runs use the real workloads for about a second each, so the
counts below are those of the desk shapes.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
from focuscvae import evaluation

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())

# tape nodes per step at the seed commit, for a batch whose longest post has
# 14 tokens and whose longest response has 4
NODES_PER_STEP = {"train_focconstrain": 2154, "train_s2s": 1661, "eval_focconstrain": 0}

COUNTS = [name for name, (_, unit) in tracing.Tracer().metrics(steps=True).items()
          if unit in ("count", "bytes") and name not in ("training.step_ms.samples",
                                                         "tracing.absent_layers")]


def _run(tmp_path: Path, workload: str, trace: bool, tag: str = "") -> run.Result:
    work = tmp_path / f"{workload}-{int(trace)}{tag}"
    work.mkdir()
    return run.run_workload(workload, 0, 1.0, trace, work)


@pytest.fixture(scope="module")
def traced_pairs(tmp_path_factory):
    """Two traced runs with the same seed for each workload."""
    tmp = tmp_path_factory.mktemp("traced")
    return {workload: (_run(tmp, workload, True), _run(tmp, workload, True, "-again"))
            for workload in run.WORKLOADS}


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_counts_repeat_exactly_and_match_seed_totals(traced_pairs, workload):
    first, second = traced_pairs[workload]
    assert first.correct and second.correct
    for name in COUNTS:
        assert first.metrics[name] == second.metrics[name], name
    nodes = first.metrics["autodiff.nodes_per_step"][0]
    assert nodes == NODES_PER_STEP[workload]
    assert sum(first.metrics[name][0] for name in tracing.NODE_METRICS) == nodes


def test_layers_run_where_the_workloads_say(traced_pairs):
    s2s = traced_pairs["train_s2s"][0].metrics
    full = traced_pairs["train_focconstrain"][0].metrics
    ev = traced_pairs["eval_focconstrain"][0].metrics
    assert s2s["encoders.latent_ms"][0] == 0 and full["encoders.latent_ms"][0] > 0
    assert full["encoders.encode_nodes"][0] > s2s["encoders.encode_nodes"][0]  # two encodes
    assert full["training.checkpoint_bytes"][0] > s2s["training.checkpoint_bytes"][0] > 0
    # untrained: every one of the 8 chunks decodes all 8 steps, and no tape
    assert ev["decoder.steps"][0] == ev["focus.attend_calls"][0] == 8 * run.EVAL_MAX_LEN
    assert ev["autodiff.backward_ms"][0] == 0 and ev["evaluation.generate_ms"][0] > 0


def test_metric_names_match_benchmark_json(tmp_path, traced_pairs):
    traced = traced_pairs["train_s2s"][0]
    untraced = _run(tmp_path, "train_s2s", False)
    assert untraced.correct
    per_layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    end_to_end = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: u for k, (_, u) in traced.metrics.items()} == per_layer
    assert {k: u for k, (_, u) in untraced.metrics.items()} == end_to_end
    assert all(v > 0 and math.isfinite(v) for v, _ in untraced.metrics.values())
    # tracing passes every call through unchanged, so the arithmetic is the same
    key = f"loss_log_sha256_first_{run.SEGMENT_STEPS}_steps"
    assert traced.notes["outputs"][key] == untraced.notes["outputs"][key]


def test_missing_entry_point_is_reported_absent(tmp_path, monkeypatch):
    monkeypatch.setitem(tracing.LAYERS, "focus.attend",
                        [("focuscvae.decoder", "attend_step_fused")])
    result = _run(tmp_path, "eval_focconstrain", True)
    assert result.correct
    assert result.metrics["tracing.absent_layers"][0] == 1
    assert result.metrics["focus.attend_ms"][0] == 0
    assert result.notes["absent_layers"] == ["focus.attend"]
    assert result.metrics["decoder.steps"][0] == 8 * run.EVAL_MAX_LEN


def test_loss_log_check_catches_bad_rows():
    header = "step,l_seq,l_foc,l_kl,l_bow,gamma,lr,total"
    good = "0,1.0,0.0,0.0,0.0,0.0,0.001,1.0"
    assert run.check_loss_log(f"{header}\n{good}\n", 1) == []
    assert run.check_loss_log(f"{header}\n{good}\n1,nan,0,0,0,0,0.001,nan\n", 2)
    assert run.check_loss_log(f"{header}\n{good}\n", 3)
    assert run.check_loss_log(f"{good}\n", 0)


def test_report_check_catches_missing_and_overlong_samples():
    n_posts = 2
    samples = [evaluation.SampleRow(i, j, (5,) * 3, None)
               for i in range(n_posts) for j in range(run.EVAL_SAMPLES)]
    metrics = {"n_posts": n_posts, "n_samples": run.EVAL_SAMPLES, "max_len": run.EVAL_MAX_LEN,
               "bleu_1": 0.5, "mean_length": 3.0}
    assert run.check_report(evaluation.EvalReport(metrics, samples), 64, n_posts) == []
    assert run.check_report(evaluation.EvalReport(metrics, samples[1:]), 64, n_posts)
    long = samples[:-1] + [evaluation.SampleRow(1, 2, (5,) * (run.EVAL_MAX_LEN + 1), None)]
    assert run.check_report(evaluation.EvalReport(metrics, long), 64, n_posts)
    nan = dict(metrics, bleu_1=float("nan"))
    assert run.check_report(evaluation.EvalReport(nan, samples), 64, n_posts)


def test_fails_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(run.ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, *BENCHMARK["command"][1:], "--workload",
                           "train_s2s", "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
