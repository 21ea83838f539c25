"""Latent-conditioned focus distribution and focus-guided coverage attention.

The focus head matches a query built from the sampled z against a key for
each post position (from the position's encoder state and word embedding),
then normalizes over real (non-PAD) positions.  The log of the resulting
distribution is added to every attention step's scores, so the decoder
attends where the focus points unless a step's own scores move it.  A
coverage vector keeps the running sum of attention weights per position;
with coverage weights V_a, the coverage-weighted state summary feeds back
into the attention energies.  A generated sample's alignment gap measures
how far its coverage, divided by its length, ended from its focus.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Array, Tensor
from .errors import DimensionError, ValidationError

LOG_FOCUS_FLOOR = 1e-30


@dataclass
class FocusWeights:
    W_f: Tensor  # [d_in, d_att] position features -> keys
    U_f: Tensor  # [d_z, d_att] z -> query
    v_f: Tensor  # [d_att, 1] query bias, shared by every z

    def named(self, prefix: str) -> dict[str, Tensor]:
        return {f"{prefix}.W_f": self.W_f, f"{prefix}.U_f": self.U_f, f"{prefix}.v_f": self.v_f}


@dataclass
class AttentionWeights:
    W_a: Tensor          # [d_h, d_att]
    U_a: Tensor          # [d_h, d_att]
    v_a: Tensor          # [d_att, 1]
    V_a: Tensor | None   # [d_h, d_att]; present exactly when the coverage term is on

    def named(self, prefix: str) -> dict[str, Tensor]:
        out = {f"{prefix}.W_a": self.W_a, f"{prefix}.U_a": self.U_a, f"{prefix}.v_a": self.v_a}
        if self.V_a is not None:
            out[f"{prefix}.V_a"] = self.V_a
        return out


def focus_generate(features_flat: Tensor, post_mask: np.ndarray, z: Tensor,
                   w: FocusWeights) -> Tensor:
    """Per-position focus probabilities [B, T]; PAD positions exactly 0.

    Position i scores tanh(features_i W_f) . (z U_f + v_f).  z enters the
    query, not a tanh shared with the keys, so a change of z reorders the
    positions to first order instead of shifting every score alike.
    """
    mask = np.asarray(post_mask, dtype=bool)
    b, t = mask.shape
    if features_flat.shape[0] != b * t:
        raise DimensionError(
            f"feature rows {features_flat.shape[0]} do not match mask {mask.shape}")
    keys = ad.tanh(ad.matmul(features_flat, w.W_f))
    query = ad.bias_add(ad.matmul(z, w.U_f), ad.reshape(w.v_f, (w.v_f.shape[0],)))
    scores = ad.sum_cols(ad.mul(keys, ad.repeat_rows(query, t)))
    return ad.softmax(ad.reshape(scores, (b, t)), mask)


@dataclass
class AttentionSetup:
    """Per-decode precomputation: state projections that are constant in t."""

    base: Tensor            # [B*T, d_att] = W_a applied to the encoder states
    states_flat: Tensor     # encoder states the coverage summary is built from
    context_flat: Tensor    # rows summed into the decoder context
    post_mask: np.ndarray   # [B, T]
    weights: AttentionWeights
    log_focus: Tensor | None = None  # [B, T] prior added to every step's scores

    @property
    def length(self) -> int:
        return self.post_mask.shape[1]


def build_attention(states_flat: Tensor, context_flat: Tensor, post_mask: np.ndarray,
                    w: AttentionWeights, focus: Tensor | None = None) -> AttentionSetup:
    """Precompute the step-independent attention terms.

    The energies and the coverage summary read the encoder states; the
    context sums the rows of context_flat.  With a focus, every step's
    weights are softmax(scores + log focus), i.e. proportional to
    focus * exp(scores): the focus is the attention's prior.
    """
    return AttentionSetup(
        base=ad.matmul(states_flat, w.W_a),
        states_flat=states_flat,
        context_flat=context_flat,
        post_mask=np.asarray(post_mask, dtype=bool),
        weights=w,
        # the floor only keeps log finite where the focus underflowed to 0;
        # PAD positions are masked out of the softmax anyway
        log_focus=None if focus is None else ad.log(ad.clamp(focus, LOG_FOCUS_FLOOR, 1.0)),
    )


def attend_step(setup: AttentionSetup, s_prev: Array, coverage: Array,
                update_mask: Array | None = None, record: bool = False
                ) -> tuple[Array, Array, Array, tuple | None]:
    """One attention read on arrays, with the query state s_prev [B, d_h];
    coverage [B, T] is the running sum of the earlier steps' attention
    weights (zeros before the first step).

    Returns (alpha [B, T], context, updated coverage, saved), saved being
    what `attend_grads` reads if record, else None.  Rows where
    update_mask is 0 keep their coverage unchanged, which is how padded or
    already-finished sequences sit out a batched step.  The arithmetic is
    that of the composition of tape primitives this replaced, op for op, so
    the values match it bit for bit.
    """
    b, length = setup.post_mask.shape
    w = setup.weights
    energy = setup.base.data + np.repeat(s_prev @ w.U_a.data, length, axis=0)
    summary = None
    if w.V_a is not None:
        summary = _sum_groups(setup.states_flat.data * coverage.reshape(-1, 1), length)
        energy = energy + np.repeat(summary @ w.V_a.data, length, axis=0)
    energy = np.tanh(energy)
    scores = (energy @ w.v_a.data).reshape(b, length)
    if not record:
        energy = None  # freed before the context is summed
    if setup.log_focus is not None:
        scores = scores + setup.log_focus.data
    alpha = ad._masked_softmax(scores, setup.post_mask)
    context = _sum_groups(setup.context_flat.data * alpha.reshape(-1, 1), length)
    keep = None if update_mask is None else np.asarray(update_mask, dtype=np.float64).reshape(b, 1)
    increment = alpha if keep is None else alpha * keep
    saved = (s_prev, coverage, keep, alpha, energy, summary) if record else None
    return alpha, context, coverage + increment, saved


def _sum_groups(rows: Array, k: int) -> Array:
    """[n*k, d] -> [n, d], summing each consecutive group of k rows; also
    the gradient of rows repeated k times each."""
    return rows.reshape(-1, k, rows.shape[1]).sum(axis=1)


def attention_inputs(setup: AttentionSetup) -> tuple[Tensor, ...]:
    """The tensors `attend_grads` yields gradient parts for, in its order."""
    w = setup.weights
    focus = () if setup.log_focus is None else (setup.log_focus,)
    coverage = () if w.V_a is None else (w.V_a, setup.states_flat)
    return (setup.context_flat, *focus, w.v_a, *coverage, setup.base, w.U_a)


def attend_grads(setup: AttentionSetup, saved: tuple, g_context: Array,
                 g_coverage: Array | None, coverage_grad: bool):
    """Backward of one `attend_step` for the gradients of its context and of
    its updated coverage (None when none reaches it).

    A generator: it yields one gradient part (None where no gradient is
    wanted) per tensor of `attention_inputs`, and returns the gradients of
    s_prev and, if coverage_grad, of the coverage it read (else None).
    Every part is the array the composition's tape handed on, and the
    parts come in that tape's order.
    """
    b, length = setup.post_mask.shape
    w = setup.weights
    s_prev, coverage, keep, alpha, energy, summary = saved
    g_prev = None  # coverage's gradient: the add node passes it on first
    if g_coverage is not None:
        g_prev = g_coverage if coverage_grad else None
        g_alpha = g_coverage if keep is None else g_coverage * keep
    g_rows = np.repeat(g_context, length, axis=0)
    context_flat = setup.context_flat
    yield g_rows * alpha.reshape(-1, 1) if context_flat.requires_grad else None
    g_read = (g_rows * context_flat.data).sum(axis=1).reshape(b, length)
    g_alpha = g_read if g_coverage is None else g_alpha + g_read
    dot = (g_alpha * alpha).sum(axis=1, keepdims=True)
    g_scores = alpha * (g_alpha - dot)  # softmax
    if setup.log_focus is not None:
        yield g_scores if setup.log_focus.requires_grad else None
    g_scores = g_scores.reshape(b * length, 1)
    yield energy.T @ g_scores if w.v_a.requires_grad else None
    g_energy = (g_scores @ w.v_a.data.T) * (1.0 - energy * energy)  # through tanh
    if w.V_a is not None:
        g_summary = _sum_groups(g_energy, length)
        yield summary.T @ g_summary if w.V_a.requires_grad else None
        g_rows = np.repeat(g_summary @ w.V_a.data.T, length, axis=0)
        states = setup.states_flat
        yield g_rows * coverage.reshape(-1, 1) if states.requires_grad else None
        if coverage_grad:
            g_read = (g_rows * states.data).sum(axis=1).reshape(b, length)
            g_prev = g_read if g_prev is None else g_prev + g_read
    yield g_energy if setup.base.requires_grad else None
    g_query = _sum_groups(g_energy, length)
    yield s_prev.T @ g_query if w.U_a.requires_grad else None
    return g_query @ w.U_a.data.T, g_prev


# ---------------------------------------------------------------------------
# alignment diagnostic (plain numpy; nothing here needs gradients)


def alignment_gap(coverage: np.ndarray, resp_len, focus: np.ndarray,
                  mask: np.ndarray | None = None):
    """L2 norm over the last axis of coverage/resp_len - focus: accumulated
    attention, normalized by decode length, against the focus.

    coverage and focus are [T] or rows [B, T], resp_len an int or one per
    row; positions where mask is False add an exact +0.0.  The squared
    differences are summed left to right in position order (np.sum would
    add in pairwise blocks of eight), so each gap equals a token-by-token
    recount bitwise.  Returns a float for one row, else an array of B.
    """
    coverage = np.asarray(coverage, dtype=np.float64)
    focus = np.asarray(focus, dtype=np.float64)
    resp_len = np.asarray(resp_len, dtype=np.float64)
    if coverage.shape != focus.shape or (mask is not None and np.shape(mask) != focus.shape):
        raise DimensionError(f"coverage {coverage.shape} vs focus {focus.shape}"
                             f" vs mask {None if mask is None else np.shape(mask)}")
    if resp_len.shape not in ((), coverage.shape[:-1]):
        raise DimensionError(f"resp_len {resp_len.shape} for coverage rows {coverage.shape[:-1]}")
    if np.any(resp_len < 1):
        raise ValidationError(f"resp_len must be positive, got {resp_len}")
    diff = coverage / resp_len[..., None] - focus
    squares = diff * diff
    if mask is not None:
        squares = np.where(mask, squares, 0.0)
    total = np.zeros(coverage.shape[:-1])
    for column in np.moveaxis(squares, -1, 0):
        total += column
    return np.sqrt(total)
