"""Throughput benchmark for focuscvae: training steps and greedy evaluation.

Run from the repository root:

    python3 benchmarks/run.py --workload train_focconstrain --seed 0 --seconds 30 --trace 0

Every workload uses the desk shapes of the acceptance suite: grammar
post_len 14 with 20 keywords, 20,000 pairs with 500 posts held out, d_h 64,
d_z 32, batch 32.  The seed feeds the corpus synthesis, the split, the model
init and the evaluation noise.

  train_focconstrain  `training.train` on the full objective, writing the loss
                      log and a checkpoint every 10 steps.  Every layer that
                      records a tape runs.
  train_s2s           the same loop for `s2s`: no response encoder, latent,
                      focus, coverage, focus loss or bag-of-words loss.  A
                      change to those layers should not move it.
  eval_focconstrain   load and restore an untrained checkpoint written during
                      set-up, then `evaluation.evaluate` on the held-out posts,
                      3 samples each, max_len 8, 192-row chunks.  Forward only:
                      no tape.  Untrained, nearly every row decodes all 8 steps,
                      so the work does not depend on what the model learned.

Load is a closed loop in one process and one thread; BLAS runs one thread.
An operation is a segment of 20 training steps (one `training.train` call
resumed from the previous segment's state) or one evaluation.  Set-up
(corpus synthesis, pairs, the checkpoint write) runs five times.

--trace 0 prints the end-to-end metrics:
  ops_per_s     median over operations of steps/s (train) or samples/s (eval)
  setup_s       median set-up time
  peak_rss_mb   peak resident memory of the process
  success_rate  share of attempted steps or evaluations that raised nothing
                and passed the output checks
--trace 1 alternates traced and untraced operations and prints the per-layer
metrics of tracing.py, plus the tracing overhead.  The last line of stdout
is the JSON result; the lines before it record the machine and digests of
the outputs.  Every check runs in both modes.
"""

from __future__ import annotations

import os

# must precede the first numpy import; the matrices here are too small for a
# second BLAS thread to pay for its scheduling noise
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import contextlib
import dataclasses
import hashlib
import json
import math
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def _import_package():
    """Import focuscvae from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        import focuscvae
    except ImportError as e:
        raise SystemExit(f"benchmark: cannot import focuscvae from {SRC}: {e}")
    if Path(focuscvae.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"benchmark: focuscvae resolved to {focuscvae.__file__}, not {SRC}")


_import_package()

from focuscvae import corpus, evaluation, training  # noqa: E402
from focuscvae.config import TrainConfig  # noqa: E402
from focuscvae.model import FocusCVAE  # noqa: E402

import tracing  # noqa: E402

WORKLOADS = {
    "train_focconstrain": ("train", "focconstrain"),
    "train_s2s": ("train", "s2s"),
    "eval_focconstrain": ("eval", "focconstrain"),
}

GRAMMAR = corpus.GrammarConfig(post_len=14, n_keywords=20)
N_PAIRS = 20_000
N_TEST_POSTS = 500
DESK = dict(d_h=64, d_z=32, batch_size=32, peak_lr=0.004, kl_anneal_steps=2500,
            w_bow=3.0, w_foc=2.0, init_scale=0.12)
SEGMENT_STEPS = 20
CHECKPOINT_INTERVAL = 10
EVAL_SAMPLES = 3
EVAL_MAX_LEN = 8
EVAL_CHUNK_ROWS = 192
SETUP_REPEATS = 5


def desk_config(variant: str, vocab_size: int, seed: int, total_steps: int) -> TrainConfig:
    return TrainConfig(variant=variant, vocab_size=vocab_size, seed=seed,
                       total_steps=total_steps, checkpoint_interval=CHECKPOINT_INTERVAL,
                       **DESK)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# set-up


@dataclasses.dataclass
class Inputs:
    vocab: corpus.Vocabulary
    pairs: list
    test_records: list
    checkpoint: Path
    generate_s: float


def set_up(seed: int, variant: str, work: Path) -> Inputs:
    """Synthesize the corpus, build the pairs, write the untrained checkpoint."""
    t0 = time.perf_counter()
    records, vocab = corpus.generate_synthetic(seed, N_PAIRS, GRAMMAR)
    generate_s = time.perf_counter() - t0
    train_records, test_records = corpus.split_records(records, N_TEST_POSTS, seed)
    pairs = corpus.to_pairs(train_records, vocab)
    cfg = desk_config(variant, len(vocab), seed, SEGMENT_STEPS)
    model = FocusCVAE(cfg, np.random.default_rng([seed, 0]))
    adam = training.Adam(model.named_parameters())
    checkpoint = work / "untrained.bin"
    training.save_checkpoint(checkpoint, training.checkpoint_from(model, adam, 0, {}))
    return Inputs(vocab, pairs, test_records, checkpoint, generate_s)


# ---------------------------------------------------------------------------
# output checks


def check_loss_log(text: str, steps: int) -> list[str]:
    """Problems with a loss log that should hold one finite row per step."""
    lines = text.splitlines()
    problems = []
    if not lines or lines[0] != training.LOG_HEADER:
        problems.append("loss log header is missing or wrong")
    rows = lines[1:]
    if len(rows) != steps:
        problems.append(f"loss log has {len(rows)} rows for {steps} steps")
    for k, row in enumerate(rows):
        try:
            fields = [float(v) for v in row.split(",")]
        except ValueError:
            fields = []
        if len(fields) != 8 or fields[0] != k or not all(math.isfinite(v) for v in fields):
            problems.append(f"loss log row {k} is malformed or not finite: {row!r}")
            break
    return problems


def check_report(report: evaluation.EvalReport, vocab_size: int, n_posts: int) -> list[str]:
    """Problems with one evaluation of the held-out posts."""
    problems = []
    expected = {(i, j) for i in range(n_posts) for j in range(EVAL_SAMPLES)}
    got = [(s.post_id, s.sample_id) for s in report.samples]
    if len(got) != len(expected) or set(got) != expected:
        problems.append(f"{len(got)} samples, expected one per (post, sample) of "
                        f"{n_posts} x {EVAL_SAMPLES}")
    # an untrained model may emit EOS early, so lengths are bounded, not fixed
    for s in report.samples:
        if len(s.token_ids) > EVAL_MAX_LEN or any(
                t in (corpus.PAD_ID, corpus.EOS_ID) or not 0 <= t < vocab_size
                for t in s.token_ids):
            problems.append(f"sample ({s.post_id}, {s.sample_id}) is not a valid sequence")
            break
    m = report.metrics
    if (m["n_posts"], m["n_samples"], m["max_len"]) != (n_posts, EVAL_SAMPLES, EVAL_MAX_LEN):
        problems.append("report describes a different evaluation")
    for k, v in m.items():
        if isinstance(v, float) and not math.isfinite(v):
            problems.append(f"report metric {k} is {v}")
    lengths = [len(s.token_ids) for s in report.samples]
    if lengths and m["mean_length"] != float(np.mean(lengths)):
        problems.append("report mean_length disagrees with the samples")
    return problems


# ---------------------------------------------------------------------------
# measurement


@dataclasses.dataclass
class Measured:
    # operation rates (steps/s or samples/s), keyed by whether it was traced
    rates: dict = dataclasses.field(default_factory=lambda: {False: [], True: []})
    attempted: int = 0
    failed: int = 0
    problems: list = dataclasses.field(default_factory=list)
    outputs: dict = dataclasses.field(default_factory=dict)

    def more(self, deadline: float, tracer) -> bool:
        enough = bool(self.rates[False]) and (tracer is None or bool(self.rates[True]))
        return not self.problems and (time.perf_counter() < deadline or not enough)

    def traced_next(self, tracer) -> bool:
        return tracer is not None and len(self.rates[False]) >= len(self.rates[True])

    def fail(self, what: str, count: int) -> None:
        traceback.print_exc(file=sys.stderr)
        self.problems.append(what)
        self.failed += count


def measure_training(inputs: Inputs, variant: str, seed: int, seconds: float,
                     tracer, work: Path) -> Measured:
    out_dir = work / "train"
    m = Measured()
    state, done = None, 0
    deadline = time.perf_counter() + seconds
    while m.more(deadline, tracer):
        traced = m.traced_next(tracer)
        cfg = desk_config(variant, len(inputs.vocab), seed, done + SEGMENT_STEPS)
        m.attempted += SEGMENT_STEPS
        try:
            with tracer.installed() if traced else contextlib.nullcontext():
                t0 = time.perf_counter()
                result = training.train(cfg, inputs.pairs, out_dir=out_dir, resume=state)
                elapsed = time.perf_counter() - t0
                if traced:
                    tracer.end_op()
        except Exception:
            m.fail(f"training.train raised at steps {done}..{done + SEGMENT_STEPS}",
                   SEGMENT_STEPS)
            break
        state, done = result.final_state, done + SEGMENT_STEPS
        m.rates[traced].append(SEGMENT_STEPS / elapsed)

    log = out_dir / "loss_log.csv"
    text = log.read_text() if log.exists() else ""
    m.problems += check_loss_log(text, done)
    try:
        last = training.load_checkpoint(out_dir / "checkpoint.bin")  # verifies SHA-256
        if last.step != done:
            m.problems.append(f"last checkpoint is at step {last.step}, expected {done}")
    except Exception:
        m.fail("the last checkpoint does not load", 0)
    if m.problems:
        m.failed = m.attempted
    lines = text.splitlines()
    first = "".join(line + "\n" for line in lines[:1 + SEGMENT_STEPS])
    m.outputs = {
        "steps": done,
        f"loss_log_sha256_first_{SEGMENT_STEPS}_steps": hashlib.sha256(first.encode()).hexdigest(),
        f"loss_after_{SEGMENT_STEPS}_steps": lines[SEGMENT_STEPS].rsplit(",", 1)[1]
        if len(lines) > SEGMENT_STEPS else None,
        "loss_log_sha256": hashlib.sha256(text.encode()).hexdigest(),
        "final_loss": lines[-1].rsplit(",", 1)[1] if len(lines) > 1 else None,
    }
    return m


def measure_evaluation(inputs: Inputs, seed: int, seconds: float, tracer,
                       work: Path) -> Measured:
    out_dir = work / "eval"
    n_posts = len(inputs.test_records)
    m = Measured()
    digests = set()
    deadline = time.perf_counter() + seconds
    while m.more(deadline, tracer):
        traced = m.traced_next(tracer)
        m.attempted += 1
        try:
            with tracer.installed() if traced else contextlib.nullcontext():
                if traced:
                    tracer.start_op()
                t0 = time.perf_counter()
                state = training.load_checkpoint(inputs.checkpoint)
                model, _ = training.restore_model(state)
                report = evaluation.evaluate(
                    model, inputs.vocab, inputs.test_records, EVAL_SAMPLES, seed,
                    EVAL_MAX_LEN, out_dir=out_dir, chunk_rows=EVAL_CHUNK_ROWS)
                elapsed = time.perf_counter() - t0
                if traced:
                    tracer.end_op()
        except Exception:
            m.fail("evaluation raised", 1)
            break
        problems = check_report(report, len(inputs.vocab), n_posts)
        if problems:
            m.problems += problems
            m.failed += 1
            break
        digests.add((sha256(out_dir / "report.json"), sha256(out_dir / "samples.csv")))
        m.rates[traced].append(n_posts * EVAL_SAMPLES / elapsed)
    if len(digests) > 1:
        m.problems.append("evaluations of one checkpoint wrote different outputs")
        m.failed = m.attempted
    if digests:
        report_sha, samples_sha = sorted(digests)[0]
        m.outputs = {"evaluations": m.attempted, "report_sha256": report_sha,
                     "samples_sha256": samples_sha}
    return m


# ---------------------------------------------------------------------------
# driver


@dataclasses.dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict    # name -> (value, unit)
    notes: dict      # printed before the result line

    def json_line(self) -> str:
        return json.dumps({
            "correct": self.correct, "attempted": self.attempted, "failed": self.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in self.metrics.items()},
        })


def machine(seed: int) -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    blas = "unknown"
    with contextlib.suppress(Exception):
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info['name']} {info['version']}"
    return {
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(), "cpu": cpu,
        "python": platform.python_version(), "numpy": np.__version__, "blas": blas,
        "blas_threads": BLAS_THREADS, "seed": seed,
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> Result:
    kind, variant = WORKLOADS[workload]
    setup_s, generate_s, checkpoints = [], [], set()
    for _ in range(SETUP_REPEATS):
        inputs = None  # let the previous corpus go before building the next
        t0 = time.perf_counter()
        inputs = set_up(seed, variant, work)
        setup_s.append(time.perf_counter() - t0)
        generate_s.append(inputs.generate_s)
        checkpoints.add(sha256(inputs.checkpoint))

    tracer = tracing.Tracer() if trace else None
    if kind == "train":
        m = measure_training(inputs, variant, seed, seconds, tracer, work)
    else:
        m = measure_evaluation(inputs, seed, seconds, tracer, work)
    if len(checkpoints) != 1:
        m.problems.append("set-up is not deterministic: the untrained checkpoints differ")
        m.failed = m.attempted

    if trace:
        metrics = tracer.metrics(steps=kind == "train")
        untraced, traced = (statistics.median(m.rates[k]) if m.rates[k] else 0.0
                            for k in (False, True))
        metrics["tracing.overhead_share"] = (1.0 - traced / untraced if untraced else 0.0, "share")
        metrics["corpus.generate_s"] = (statistics.median(generate_s), "s")
    else:
        rates = m.rates[False]
        metrics = {
            "ops_per_s": (statistics.median(rates) if rates else 0.0, "1/s"),
            "setup_s": (statistics.median(setup_s), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "success_rate": (1.0 - m.failed / m.attempted if m.attempted else 0.0, "share"),
        }
    notes = {"machine": machine(seed), "outputs": m.outputs}
    if m.problems:
        notes["problems"] = m.problems
    if tracer is not None and tracer.missing:
        notes["missing_entry_points"] = tracer.missing
        notes["absent_layers"] = tracer.absent
    correct = not m.problems and m.failed == 0 and m.attempted > 0
    return Result(correct, m.attempted, m.failed, metrics, notes)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds positive")

    scratch = ROOT / ".benchmark_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.rmdir()
    for key, value in result.notes.items():
        print(f"{key}: {json.dumps(value)}")
    print(result.json_line())
    return 0


if __name__ == "__main__":
    sys.exit(main())
