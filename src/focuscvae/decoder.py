"""Two-layer GRU decoder: teacher-forced training pass and greedy generation.

Each step first reads the post through the attention (querying with the top
GRU layer's previous state), then advances the stacked cells on the previous
token's embedding, and finally projects [state; context] to vocabulary
logits.  Step 1 consumes a learned start embedding, so the vocabulary never
needs a BOS id.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import (Array, GRUCellWeights, Tensor, _cell_inputs, _cell_parts, _gate_stacks,
                       _gru_step, _gru_step_grads, _gru_weight_grads)
from .corpus import EOS_ID, PAD_ID
from .encoders import AffineWeights, affine, init_gru_cell
from .errors import ValidationError
from .focus import AttentionSetup, alignment_gap, attend_grads, attend_step, attention_inputs


@dataclass
class DecoderWeights:
    cells: list[GRUCellWeights]   # layer 0 reads embeddings, layer 1 reads layer 0
    start: Tensor                 # [1, d_emb] learned start-of-sequence input
    init: AffineWeights           # conditioning -> tanh -> stacked initial states
    out: AffineWeights            # [state; context] -> vocab logits

    def named(self, prefix: str) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for i, cell in enumerate(self.cells):
            out.update(cell.named(f"{prefix}.l{i}"))
        out[f"{prefix}.start"] = self.start
        out.update(self.init.named(f"{prefix}.init"))
        out.update(self.out.named(f"{prefix}.out"))
        return out


def init_decoder_weights(rng: np.random.Generator, d_emb: int, d_h: int, d_cond: int,
                         d_ctx: int, vocab_size: int, scale: float) -> DecoderWeights:
    u = lambda *shape: Tensor(rng.uniform(-scale, scale, size=shape), requires_grad=True)
    return DecoderWeights(
        cells=[init_gru_cell(rng, d_emb, d_h, scale), init_gru_cell(rng, d_h, d_h, scale)],
        start=u(1, d_emb),
        init=AffineWeights(u(d_cond, 2 * d_h), u(2 * d_h)),
        out=AffineWeights(u(d_h + d_ctx, vocab_size), u(vocab_size)),
    )


def initial_states(conditioning: Tensor, w: DecoderWeights) -> list[Tensor]:
    """tanh(affine(conditioning)) split into the two layers' starting states."""
    s = ad.tanh(affine(conditioning, w.init))
    d_h = s.shape[1] // 2
    return [ad.narrow(s, 1, 0, d_h), ad.narrow(s, 1, d_h, d_h)]


def _decode_step(setup: AttentionSetup, stacks: list[tuple[Array, Array, Array]],
                 W_out: Array, x: Array, states: list[Array], coverage: Array,
                 update_mask: Array, record: bool
                 ) -> tuple[Array, Array, list[Array], Array, tuple | None]:
    """One decode step on arrays, the one definition of its forward
    arithmetic: attend with the top cell's state, advance both cells on the
    input rows x, and project [state; context].

    stacks holds each cell's `_gate_stacks` and states its [1, B, u] state.
    Returns (logits before the bias, alpha, new states, updated coverage,
    saved), saved being what the backward of `decode_train` reads if
    record, else None.
    """
    alpha, context, coverage, attended = attend_step(setup, states[1][0], coverage, update_mask,
                                                     record)
    new_states, cells = [], []
    for (W, U, b), h in zip(stacks, states):
        h_new, ur, c, _ = _gru_step(x @ W, h, U, b, None, None)
        cells.append((x, h, ur, c))
        new_states.append(h_new)
        x = h_new[0]
    rows = np.concatenate([x, context], axis=1)
    saved = (attended, cells, rows) if record else None
    return rows @ W_out, alpha, new_states, coverage, saved


def _fold(parts: list[Array]) -> Array:
    """Left-to-right sum of gradient parts, as the tape adds them."""
    if len(parts) == 1:
        return parts[0]
    total = parts[0] + parts[1]
    for part in parts[2:]:
        total += part
    return total


def decode_train(resp_ids: np.ndarray, resp_mask: np.ndarray, setup: AttentionSetup,
                 emb_table: Tensor, w: DecoderWeights, init: list[Tensor]
                 ) -> tuple[Tensor, Tensor, list[Tensor]]:
    """Teacher-forced pass over a padded response batch, one tape node.

    Returns logits as one [B*T, V] block in (batch, position) row-major
    order, the final coverage (updated only where resp_mask is on, so a
    row's coverage total equals its true length), and the per-step
    attention rows as tensors without gradient.  Logits at step t see gold
    tokens strictly before t.

    The node's output holds every step's logits and then the final
    coverage, [B, T*V + Tx], split by two narrows.  Its forward loops
    `_decode_step` and keeps only what the backward reads.  The backward
    walks the steps in reverse and hands the tape each input's gradient
    parts in the order the tape visited them when every step was composed
    of tape primitives (attention, embedding lookup, two one-step GRU
    layers, concat and affine), so gradients match that composition bit
    for bit.  An all-zero coverage gradient counts as none, as when
    nothing downstream reads the coverage.
    """
    b, t_max = resp_ids.shape
    if t_max == 0:
        raise ValidationError("decode_train needs at least one response position")
    vocab, length = w.out.b.shape[0], setup.length
    d_h = init[1].shape[1]
    inputs = []
    for t in range(t_max - 1, -1, -1):
        inputs += [w.out.b, w.out.W]
        for cell, h0 in zip(w.cells[::-1], init[::-1]):
            inputs += [h0] * 4 * (t == 0) + list(_cell_inputs(cell))
        inputs += [emb_table if t else w.start, *attention_inputs(setup)]
    inputs.append(init[1])
    recording = ad._recording(tuple(inputs))

    stacks = [_gate_stacks([cell]) for cell in w.cells]
    keeps = resp_mask.T.astype(np.float64)[:, :, None]
    out = np.empty((b, t_max * vocab + length))
    states = [s.data[None] for s in init]
    coverage = np.zeros((b, length))
    x = np.repeat(w.start.data, b, axis=0)
    saved, alphas = [], []
    for t in range(t_max):
        if t:
            x = emb_table.data[resp_ids[:, t - 1]]
        logits, alpha, states, coverage, step = _decode_step(
            setup, stacks, w.out.W.data, x, states, coverage, keeps[t], recording)
        np.add(logits, w.out.b.data, out=out[:, t * vocab:(t + 1) * vocab])
        saved.append(step)
        alphas.append(Tensor(alpha))
    out[:, t_max * vocab:] = coverage

    def backward(g: Array):
        stacks = [_gate_stacks([cell]) for cell in w.cells]  # the forward's are not kept
        g_cov = g[:, t_max * vocab:]
        g_cov = g_cov if g_cov.any() else None
        later = [[], []]  # each cell's state gradient parts from the later step
        for t in range(t_max - 1, -1, -1):
            attended, cells, rows = saved[t]
            g_logits = g[:, t * vocab:(t + 1) * vocab]
            yield g_logits.sum(axis=0) if w.out.b.requires_grad else None
            yield rows.T @ g_logits if w.out.W.requires_grad else None
            g_rows = g_logits @ w.out.W.data.T
            later[1].append(g_rows[:, :d_h])
            for i in (1, 0):  # the top cell first, as the tape visited them
                x, h, ur, c = cells[i]
                W, U, _ = stacks[i]
                dg = np.empty((3, 1, b, h.shape[2]))  # [gate u/r/h, cell, B, u]
                h_parts = _gru_step_grads(_fold(later[i])[None], h, ur, c, 1.0 - ur[0], None,
                                          None, U, dg, t > 0 or init[i].requires_grad)
                later[i] = [p[0] for p in h_parts]
                if t == 0:  # the initial state's parts
                    yield from later[i] or [None] * 4
                yield from _cell_parts(_gru_weight_grads(x[None], h, ur, dg), 0)
                g_x = np.empty((3, b, x.shape[1]))  # x's W_h, W_r and W_u parts
                np.matmul(dg[:, 0], W.transpose(0, 1, 3, 2)[:, 0], out=g_x[::-1])
                if i:
                    later[0] += list(g_x)
            table = emb_table if t else w.start
            if not table.requires_grad:
                yield None
            elif t:
                part = np.zeros_like(emb_table.data)
                np.add.at(part, resp_ids[:, t - 1], _fold(list(g_x)))
                yield part
            else:
                yield _fold(list(g_x)).reshape(1, b, -1).sum(axis=1)
            g_query, g_cov = yield from attend_grads(setup, attended, g_rows[:, d_h:], g_cov, t > 0)
            later[1].append(g_query)
        yield g_query if init[1].requires_grad else None

    node = ad._record(tuple(inputs), Tensor(out), backward)
    logits = ad.reshape(ad.narrow(node, 1, 0, t_max * vocab), (b * t_max, vocab))
    return logits, ad.narrow(node, 1, t_max * vocab, length), alphas


@dataclass
class GenerationResult:
    """One greedy sample: EOS-terminated (or max_len-truncated) token ids."""

    token_ids: list[int]
    focus: np.ndarray | None        # [T] over unmasked post positions, None for s2s
    coverage: np.ndarray            # [T] accumulated attention over unmasked positions
    alignment_gap: float | None     # None for s2s

    @property
    def length(self) -> int:
        return len(self.token_ids)


def greedy_decode(setup: AttentionSetup, emb_table: Tensor, w: DecoderWeights,
                  init: list[Tensor], max_len: int, focus_rows: np.ndarray | None
                  ) -> list[GenerationResult]:
    """Greedy argmax decoding for a batch of rows; halts rows at their first EOS.

    The argmax never picks PAD, which only fills the steps of finished rows.
    Coverage stops accumulating once a row finishes, so each result's
    coverage sums to its own emitted length (EOS step included).
    """
    if max_len < 1:
        raise ValidationError(f"max_len must be positive, got {max_len}")
    b = setup.post_mask.shape[0]
    stacks = [_gate_stacks([cell]) for cell in w.cells]
    states = [s.data[None] for s in init]
    coverage = np.zeros((b, setup.length))
    active = np.ones(b, dtype=bool)
    emitted = np.full((b, max_len), PAD_ID, dtype=np.int64)
    lengths = np.zeros(b, dtype=np.int64)
    x = np.repeat(w.start.data, b, axis=0)
    for t in range(max_len):
        logits, _, states, coverage, _ = _decode_step(
            setup, stacks, w.out.W.data, x, states, coverage, active.astype(np.float64), False)
        scores = logits + w.out.b.data
        scores[:, PAD_ID] = -np.inf
        picked = np.argmax(scores, axis=1).astype(np.int64)
        picked = np.where(active, picked, PAD_ID)
        emitted[:, t] = picked
        lengths += active
        active &= picked != EOS_ID
        if not active.any():
            break
        x = emb_table.data[picked]

    gaps = [None] * b if focus_rows is None else alignment_gap(
        coverage, lengths, focus_rows, setup.post_mask).tolist()
    results = []
    for i, (row, n, gap) in enumerate(zip(emitted.tolist(), lengths.tolist(), gaps)):
        real = setup.post_mask[i]
        focus_row = None if focus_rows is None else focus_rows[i][real]
        results.append(GenerationResult(row[:n], focus_row, coverage[i][real], gap))
    return results
