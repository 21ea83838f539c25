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
from .autodiff import (Array, GRUCellWeights, Tensor, _fold, _gate_stacks, _gru_step,
                       _gru_step_backward, _scatter)
from .corpus import EOS_ID, PAD_ID
from .encoders import AffineWeights, affine, init_gru_cell, uniform_init
from .errors import ValidationError
from .focus import AttentionSetup, alignment_gap, attend_grads, attend_step


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
    u = uniform_init(rng, scale)
    return DecoderWeights(
        cells=[init_gru_cell(rng, d_emb, d_h, scale), init_gru_cell(rng, d_h, d_h, scale)],
        start=u(1, d_emb),
        init=AffineWeights(u(d_cond, 2 * d_h), u(2 * d_h)),
        out=AffineWeights(u(d_h + d_ctx, vocab_size), u(vocab_size)),
    )


def initial_states(conditioning: Tensor, w: DecoderWeights) -> list[Tensor]:
    """tanh(affine(conditioning)) split into the two layers' starting states."""
    s = ad.tanh(affine(conditioning, w.init))
    return list(ad.split(s, [s.shape[1] // 2] * 2))


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
        h_new, ur, c = _gru_step(x @ W, h, U, b, None, None)
        cells.append((x, h, ur, c))
        new_states.append(h_new)
        x = h_new[0]
    rows = np.concatenate([x, context], axis=1)
    saved = (attended, cells, rows) if record else None
    return rows @ W_out, alpha, new_states, coverage, saved


def decode_train(resp_ids: np.ndarray, resp_mask: np.ndarray, setup: AttentionSetup,
                 emb_table: Tensor, w: DecoderWeights, init: list[Tensor]
                 ) -> tuple[Tensor, Tensor, list[Tensor]]:
    """Teacher-forced pass over a padded response batch, one tape node.

    Returns logits as one [B*T, V] block in (batch, position) row-major
    order, the final coverage (updated only where resp_mask is on, so a
    row's coverage total equals its true length), and the per-step
    attention rows as tensors without gradient.  Logits at step t see gold
    tokens strictly before t.

    The logits and the coverage are the node's two outputs.  Its forward
    loops `_decode_step` and keeps only what the backward reads.  The
    backward walks the steps in reverse, each cell's step through the
    `_gru_step_backward` that `gru_layer` runs too, and yields (input,
    part) pairs, each input's parts in the order the tape visited them when
    every step was composed of tape primitives (attention, embedding
    lookup, two one-step GRU layers, concat and affine), so gradients match
    that composition bit for bit.  Every input gets its pairs, and the tape
    drops those of inputs that do not require grad.  A step of the logits
    or of a cell that no gradient reaches is skipped, as that tape did.
    """
    b, t_max = resp_ids.shape
    if t_max == 0:
        raise ValidationError("decode_train needs at least one response position")
    vocab = w.out.b.shape[0]
    d_h = init[1].shape[1]
    att = setup.weights
    inputs = [w.out.b, w.out.W, *init, emb_table, w.start, setup.context_flat, setup.base,
              att.v_a, att.U_a, *(p for cell in w.cells for p in vars(cell).values())]
    if setup.log_focus is not None:
        inputs.append(setup.log_focus)
    if att.V_a is not None:
        inputs += [att.V_a, setup.states_flat]
    inputs = tuple(inputs)
    recording = ad._recording(inputs)

    stacks = [_gate_stacks([cell]) for cell in w.cells]
    keeps = resp_mask.T.astype(np.float64)[:, :, None]
    out = np.empty((b, t_max, vocab))
    states = [s.data[None] for s in init]
    coverage = np.zeros((b, setup.length))
    x = np.repeat(w.start.data, b, axis=0)
    saved, alphas = [], []
    for t in range(t_max):
        if t:
            x = emb_table.data[resp_ids[:, t - 1]]
        logits, alpha, states, coverage, step = _decode_step(
            setup, stacks, w.out.W.data, x, states, coverage, keeps[t], recording)
        np.add(logits, w.out.b.data, out=out[:, t])
        saved.append(step)
        alphas.append(Tensor(alpha))

    def backward(g: tuple[Array | None, Array | None]):
        g_out, g_cov = g
        stacks = [_gate_stacks([cell]) for cell in w.cells]  # the forward's are not kept
        later = [[], []]  # each cell's state gradient parts from the later step
        for t in range(t_max - 1, -1, -1):
            attended, cells, rows = saved[t]
            g_context = g_x = None
            if g_out is not None:
                g_logits = g_out.reshape(b, t_max, vocab)[:, t]
                yield w.out.b, g_logits.sum(axis=0)
                yield w.out.W, rows.T @ g_logits
                g_rows = g_logits @ w.out.W.data.T
                later[1].append(g_rows[:, :d_h])
                g_context = g_rows[:, d_h:]
            for i in (1, 0):  # the top cell first, as the tape visited them
                if not later[i]:
                    continue  # its state reaches nothing that the root reads
                x, h, ur, c = cells[i]
                W, U, _ = stacks[i]
                dg, h_parts, pairs = _gru_step_backward(w.cells[i:i + 1], _fold(later[i])[None],
                                                        x[None], h, ur, c, None, None, U, True)
                later[i] = [p[0] for p in h_parts]
                if t == 0:  # the initial state's parts
                    yield from ((init[i], p) for p in later[i])
                yield from pairs[0]
                g_x = np.empty((3, b, x.shape[1]))  # x's W_h, W_r and W_u parts
                np.matmul(dg[:, 0], W.transpose(0, 1, 3, 2)[:, 0], out=g_x[::-1])
                if i:
                    later[0] += list(g_x)
            if g_x is not None:  # the bottom cell ran: its input's parts
                g_in = _fold(list(g_x))
                yield ((emb_table, _scatter(emb_table.data, resp_ids[:, t - 1], g_in)) if t
                       else (w.start, g_in.reshape(1, b, -1).sum(axis=1)))
            g_query, g_cov = yield from attend_grads(setup, attended, g_context, g_cov, t > 0)
            later[1].append(g_query)
        yield init[1], g_query

    return (*ad._record_pairs(inputs, (Tensor(out.reshape(b * t_max, vocab)), Tensor(coverage)),
                              backward), alphas)


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
