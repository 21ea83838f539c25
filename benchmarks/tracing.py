"""Per-layer tracing for the benchmark's traced run.

The tracer wraps package functions where their callers look them up (a
module global such as `focuscvae.model.encode`, or a class attribute such as
`Tape.backward`), so nothing under `src/` knows it is being traced.  Each
wrapped call is a span.  A span's self time is its duration minus the
durations of the spans nested in it, and its self nodes are the tape nodes
recorded while it was open minus those of its children.  Self times and
nodes are summed per operation: a training step, opened by each `collate`
call of the training loop, or one evaluation, opened by the benchmark.
The reported value is the median over operations; a layer that did not run
reads 0.  Checkpoint saves and loads and generated chunks are reported per
call, and `training.self_ms` / `evaluation.self_ms` are what is left of an
operation outside every traced layer.

The backward pass is split by the forward layer that recorded each node: the
traced `Tape.backward` marks every node's backward rule, and the time from
one visited node to the next is charged to the layer whose span held that
node's index when it was recorded.

An entry point that no longer exists is skipped; a layer with none left is
reported as absent, and its metrics read 0.
"""

from __future__ import annotations

import importlib
import math
import statistics
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

# layer -> entry points, each (module, attribute path) as the caller finds it
LAYERS = {
    "encoders.encode": [("focuscvae.model", "encode")],
    "encoders.latent": [("focuscvae.model", "recognition"), ("focuscvae.model", "prior"),
                        ("focuscvae.model", "sample")],
    "focus.setup": [("focuscvae.model", "focus_generate"),
                    ("focuscvae.model", "augment_with_focus"),
                    ("focuscvae.model", "build_attention")],
    "focus.attend": [("focuscvae.decoder", "attend_step")],
    "decoder.decode": [("focuscvae.model", "decode_train"), ("focuscvae.model", "greedy_decode")],
    # glue: forward_train and generate_rows minus the layers above; bow_logits
    # is the one model method the objective calls directly
    "model": [("focuscvae.model", "FocusCVAE.forward_train"),
              ("focuscvae.model", "FocusCVAE.generate_rows"),
              ("focuscvae.model", "FocusCVAE.bow_logits")],
    # total_loss assembles the weighted sum around the four terms
    "training.loss": [("focuscvae.training", name) for name in
                      ("total_loss", "seq_loss", "focus_loss", "bow_loss", "kl_divergence")],
    "autodiff.backward": [("focuscvae.autodiff", "Tape.backward")],
    "training.clip": [("focuscvae.training", "clip_gradients")],
    "training.adam": [("focuscvae.training", "Adam.step")],
    "training.checkpoint_save": [("focuscvae.training", "save_checkpoint")],
    "training.checkpoint_load": [("focuscvae.training", "load_checkpoint")],
    "corpus.collate": [("focuscvae.training", "collate")],
    "evaluation.score": [("focuscvae.evaluation", name) for name in
                         ("multi_bleu", "intra_dist", "inter_dist")],
}

# layers that record tape nodes, in the order the backward split reports them
FORWARD_LAYERS = ("encoders.encode", "encoders.latent", "focus.setup", "focus.attend",
                  "decoder.decode", "training.loss", "model")

# per-operation self time, ms
TIME_METRICS = {
    "encoders.encode_ms": "encoders.encode",
    "encoders.latent_ms": "encoders.latent",
    "focus.setup_ms": "focus.setup",
    "focus.attend_ms": "focus.attend",
    "decoder.decode_ms": "decoder.decode",
    "training.loss_ms": "training.loss",
    "model.self_ms": "model",
    "autodiff.backward_ms": "autodiff.backward",
    "training.clip_ms": "training.clip",
    "training.adam_ms": "training.adam",
    "corpus.collate_ms": "corpus.collate",
    "evaluation.score_ms": "evaluation.score",
}

# per-operation self nodes, count
NODE_METRICS = {f"{layer}_nodes" if layer != "model" else "model.nodes": layer
                for layer in FORWARD_LAYERS}

# median inclusive ms of one call
CALL_METRICS = {
    "training.checkpoint_save_ms": "save_checkpoint",
    "training.checkpoint_load_ms": "load_checkpoint",
    "evaluation.generate_ms": "FocusCVAE.generate_rows",
}


@dataclass
class Operation:
    """What the traced layers did during one training step or evaluation."""

    start: float
    end: float = 0.0
    self_ms: Counter = field(default_factory=Counter)
    nodes: Counter = field(default_factory=Counter)
    backward_ms: Counter = field(default_factory=Counter)
    counts: Counter = field(default_factory=Counter)
    hook_ms: float = 0.0  # tracer work outside any span

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3

    @property
    def untraced_ms(self) -> float:
        return self.ms - sum(self.self_ms.values()) - self.hook_ms


def _resolve(module_name: str, path: str):
    """(owner, attribute) for an entry point, or None if it no longer exists."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        # only a class's own attribute can be put back exactly
        return (owner, attr) if attr in vars(owner) else None
    return (owner, attr) if hasattr(owner, attr) else None


class Tracer:
    """Wraps the LAYERS entry points while installed and keeps spans in memory."""

    def __init__(self):
        self.ops: list[Operation] = []
        self.calls: dict[str, list[float]] = {}
        self.checkpoint_bytes: list[int] = []
        self.missing: list[str] = []
        self.absent: list[str] = []
        self._stack: list[list[float]] = []  # [t0, n0, child_s, child_nodes]
        self._ranges: list[tuple[int, int, int, str]] = []  # (depth, n0, n1, layer)
        self._tape_class = importlib.import_module("focuscvae.autodiff").Tape
        self._hooks = {
            "collate": (self._next_step, None),
            "Tape.backward": (self._mark_nodes, self._split_backward),
            "attend_step": (None, lambda args, out: self._count("focus.attend_calls", 1)),
            "decode_train": (None, lambda args, out: self._count("decoder.steps", args[0].shape[1])),
            "greedy_decode": (None, lambda args, out: self._count(
                "decoder.steps", max(r.length for r in out))),
            "save_checkpoint": (None, lambda args, out: self.checkpoint_bytes.append(
                Path(args[0]).stat().st_size)),
        }

    # -- operations ---------------------------------------------------------

    def start_op(self) -> None:
        now = time.perf_counter()
        if self.ops and not self.ops[-1].end:
            self.ops[-1].end = now
        self.ops.append(Operation(now))

    def end_op(self) -> None:
        if self.ops and not self.ops[-1].end:
            self.ops[-1].end = time.perf_counter()

    def _next_step(self, args) -> None:
        self.start_op()

    # -- installing the wrappers --------------------------------------------

    @contextmanager
    def installed(self):
        """Wrap every entry point that exists; put the originals back on exit."""
        saved = []
        self.missing, self.absent = [], []
        for layer, entries in LAYERS.items():
            found = False
            for module_name, path in entries:
                where = _resolve(module_name, path)
                if where is None:
                    self.missing.append(f"{module_name}.{path}")
                    continue
                owner, attr = where
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(layer, path, original))
                found = True
            if not found:
                self.absent.append(layer)
        try:
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def _wrap(self, layer: str, entry: str, fn):
        before, after = self._hooks.get(entry, (None, None))

        def traced(*args, **kwargs):
            if before is not None:
                self._hook(before, args)
            self._stack.append([time.perf_counter(), self._tape_len(), 0.0, 0])
            try:
                out = fn(*args, **kwargs)
            finally:
                self._leave(layer, entry)
            if after is not None:
                self._hook(after, args, out)
            return out

        return traced

    def _hook(self, hook, *args) -> None:
        t = time.perf_counter()
        hook(*args)
        op = self._current()
        if op is not None:
            op.hook_ms += (time.perf_counter() - t) * 1e3

    # -- spans --------------------------------------------------------------

    def _current(self) -> Operation | None:
        """The open operation; spans outside one (the set-up a training call
        does before its first step) count only in the per-call timings."""
        return self.ops[-1] if self.ops and not self.ops[-1].end else None

    def _tape_len(self) -> int:
        tape = self._tape_class.current
        return len(tape.nodes) if tape is not None else 0

    def _leave(self, layer: str, entry: str) -> None:
        t1 = time.perf_counter()
        n1 = self._tape_len()
        t0, n0, child_s, child_nodes = self._stack.pop()
        dur, nodes = t1 - t0, n1 - n0
        self._last_span = (t0, t1)
        self.calls.setdefault(entry, []).append(dur * 1e3)
        op = self._current()
        if op is not None:
            op.self_ms[layer] += (dur - child_s) * 1e3
            op.nodes[layer] += nodes - child_nodes
        if nodes:
            self._ranges.append((len(self._stack), n0, n1, layer))
        if self._stack:
            self._stack[-1][2] += dur
            self._stack[-1][3] += nodes

    def _count(self, name: str, k: int) -> None:
        op = self._current()
        if op is not None:
            op.counts[name] += k

    # -- backward split -----------------------------------------------------

    def _mark_nodes(self, args) -> None:
        tape = args[0]
        owner = ["autodiff.other"] * len(tape.nodes)
        # outer spans first, so each node ends up with its innermost layer
        for _, n0, n1, layer in sorted(self._ranges, key=lambda r: r[0]):
            owner[n0:n1] = [layer] * (n1 - n0)
        self._ranges = []
        self._owner = owner
        self._marks = marks = []
        clock = time.perf_counter
        for i, node in enumerate(tape.nodes):
            node.backward = _marked(node.backward, i, marks, clock)
        self._count("autodiff.nodes_per_step", len(tape.nodes))

    def _split_backward(self, args, out) -> None:
        op = self._current()
        if op is None:
            return
        t_start, t_end = self._last_span
        marks = self._marks
        for k, (t, i) in enumerate(marks):
            t_next = marks[k + 1][0] if k + 1 < len(marks) else t_end
            op.backward_ms[self._owner[i]] += (t_next - t) * 1e3
        t_first = marks[0][0] if marks else t_end
        op.backward_ms["autodiff.other"] += (t_first - t_start) * 1e3

    # -- report -------------------------------------------------------------

    def metrics(self, steps: bool) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit).

        steps: the operations are training steps (else evaluations); the
        step-time and checkpoint-stall metrics are 0 for evaluations.
        """
        ops = [op for op in self.ops if op.end]
        out: dict[str, tuple[float, str]] = {}

        def med(values) -> float:
            values = list(values)
            return float(statistics.median(values)) if values else 0.0

        for name, layer in TIME_METRICS.items():
            out[name] = (med(op.self_ms[layer] for op in ops), "ms")
        for name, layer in NODE_METRICS.items():
            out[name] = (med(op.nodes[layer] for op in ops), "count")
        for layer in FORWARD_LAYERS + ("autodiff.other",):
            key = layer.split(".", 1)[1] if layer.startswith("autodiff.") else layer
            out[f"autodiff.backward_ms.{key}"] = (med(op.backward_ms[layer] for op in ops), "ms")
        for name in ("focus.attend_calls", "decoder.steps"):
            out[name] = (med(op.counts[name] for op in ops), "count")
        per_step = [op.counts["autodiff.nodes_per_step"] for op in ops]
        out["autodiff.nodes_per_step"] = (med(per_step), "count")
        out["autodiff.nodes_per_step.min"] = (float(min(per_step, default=0)), "count")
        out["autodiff.nodes_per_step.max"] = (float(max(per_step, default=0)), "count")
        for name, entry in CALL_METRICS.items():
            out[name] = (med(self.calls.get(entry, [])), "ms")
        out["training.checkpoint_bytes"] = (med(self.checkpoint_bytes), "bytes")

        step_ms = sorted(op.ms for op in ops) if steps else []
        save_ms = sum(self.calls.get("save_checkpoint", []))
        out["training.checkpoint_stall_share"] = (
            save_ms / sum(step_ms) if step_ms else 0.0, "share")
        out["training.step_ms.p50"] = (med(step_ms), "ms")
        out["training.step_ms.p90"] = (_percentile(step_ms, 0.9), "ms")
        out["training.step_ms.samples"] = (float(len(step_ms)), "count")
        residual = med(op.untraced_ms for op in ops)
        out["training.self_ms"] = (residual if steps else 0.0, "ms")
        out["evaluation.self_ms"] = (0.0 if steps else residual, "ms")
        out["tracing.absent_layers"] = (float(len(self.absent)), "count")
        return out


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for no samples."""
    if not sorted_values:
        return 0.0
    return float(sorted_values[max(1, math.ceil(len(sorted_values) * q)) - 1])


def _marked(backward, index: int, marks: list, clock):
    def rule(g):
        marks.append((clock(), index))
        return backward(g)
    return rule
