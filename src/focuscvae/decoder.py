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
from .autodiff import GRUCellWeights, Tensor
from .corpus import EOS_ID, PAD_ID
from .encoders import AffineWeights, affine, init_gru_cell
from .errors import ValidationError
from .focus import AttentionSetup, alignment_gap, attend_step


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


def _decode_step(setup: AttentionSetup, states: list[Tensor], coverage: Tensor,
                 t: int, prev: np.ndarray | None, emb_table: Tensor, w: DecoderWeights,
                 update_mask: np.ndarray) -> tuple[Tensor, Tensor, list[Tensor], Tensor]:
    """Decode step t (1-based): attend, embed the previous token ids prev (the
    start input at t = 1), advance both cells, project [state; context].

    Returns (logits [B, V], alpha [B, T], new states, updated coverage).
    """
    alpha, context, coverage = attend_step(setup, states[-1], coverage, update_mask=update_mask)
    b = setup.post_mask.shape[0]
    x = ad.repeat_rows(w.start, b) if t == 1 else ad.embedding(emb_table, prev)
    s0 = ad.gru_layer(x, None, w.cells[:1], states[0])
    s1 = ad.gru_layer(s0, None, w.cells[1:], states[1])
    logits = affine(ad.concat([s1, context], axis=1), w.out)
    return logits, alpha, [s0, s1], coverage


def decode_train(resp_ids: np.ndarray, resp_mask: np.ndarray, setup: AttentionSetup,
                 emb_table: Tensor, w: DecoderWeights, init: list[Tensor]
                 ) -> tuple[Tensor, Tensor, list[Tensor]]:
    """Teacher-forced pass over a padded response batch.

    Returns logits as one [B*T, V] block in (batch, position) row-major
    order, the final coverage (updated only where resp_mask is on, so a
    row's coverage total equals its true length), and the per-step attention
    rows.  Logits at step t see gold tokens strictly before t.
    """
    b, t_max = resp_ids.shape
    if t_max == 0:
        raise ValidationError("decode_train needs at least one response position")
    states = init
    coverage = Tensor(np.zeros((b, setup.length)))
    step_logits: list[Tensor] = []
    alphas: list[Tensor] = []
    for t in range(1, t_max + 1):
        prev = resp_ids[:, t - 2] if t > 1 else None
        logits, alpha, states, coverage = _decode_step(
            setup, states, coverage, t, prev, emb_table, w, resp_mask[:, t - 1])
        step_logits.append(logits)
        alphas.append(alpha)
    vocab = step_logits[0].shape[1]
    logits_flat = ad.reshape(ad.concat(step_logits, axis=1), (b * t_max, vocab))
    return logits_flat, coverage, alphas


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
    states = init
    coverage = Tensor(np.zeros((b, setup.length)))
    active = np.ones(b, dtype=bool)
    emitted = np.full((b, max_len), PAD_ID, dtype=np.int64)
    lengths = np.zeros(b, dtype=np.int64)
    prev = None
    for t in range(1, max_len + 1):
        logits, _, states, coverage = _decode_step(
            setup, states, coverage, t, prev, emb_table, w, active.astype(np.float64))
        scores = logits.data.copy()
        scores[:, PAD_ID] = -np.inf
        picked = np.argmax(scores, axis=1).astype(np.int64)
        picked = np.where(active, picked, PAD_ID)
        emitted[:, t - 1] = picked
        lengths += active
        active &= picked != EOS_ID
        prev = picked
        if not active.any():
            break

    results = []
    for i in range(b):
        n = int(lengths[i])
        tokens = [int(tok) for tok in emitted[i, :n]]
        mask_row = setup.post_mask[i]
        cov_row = coverage.data[i][mask_row]
        if focus_rows is not None:
            focus_row = focus_rows[i][mask_row]
            gap = alignment_gap(cov_row, n, focus_row)
        else:
            focus_row, gap = None, None
        results.append(GenerationResult(tokens, focus_row, cov_row, gap))
    return results
