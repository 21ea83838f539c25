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
from .autodiff import Array, Tensor, Weights
from .errors import DimensionError, ValidationError

LOG_FOCUS_FLOOR = 1e-30


@dataclass
class FocusWeights(Weights):
    W_f: Tensor  # [d_in, d_att] position features -> keys
    U_f: Tensor  # [d_z, d_att] z -> query
    v_f: Tensor  # [d_att, 1] query bias, shared by every z


@dataclass
class AttentionWeights(Weights):
    W_a: Tensor          # [d_h, d_att]
    U_a: Tensor          # [d_h, d_att]
    v_a: Tensor          # [d_att, 1]
    V_a: Tensor | None   # [d_h, d_att]; present exactly when the coverage term is on


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
                update_mask: Array, record: bool = False
                ) -> tuple[Array, Array, Array, tuple | None]:
    """One attention read on arrays, with the query state s_prev [B, d_h];
    coverage [B, T] is the running sum of the earlier steps' attention
    weights (zeros before the first step), and update_mask holds one 0/1
    per row.

    Returns (alpha [B, T], context, updated coverage, saved), saved being
    what `attend_grads` reads if record, else None.  Rows where
    update_mask is 0 keep their coverage unchanged, which is how padded or
    already-finished sequences sit out a batched step.  The arithmetic is
    that of the composition of tape primitives this replaced, op for op, so
    the values match it bit for bit.

    Nothing is copied per position: the query and coverage projections are
    broadcast onto a [B, T, d_att] view of the base.  The coverage summary
    and the context are each one np.einsum("btd,bt->bd") over a [B, T, d]
    view, in place of scaled [B*T, d] rows summed by `_sum_groups`.  That
    einsum adds the T products in position order from +0.0, as the sum
    over the group axis does, so the bits agree, signed zeros included,
    for every width d >= 2; at d = 1 it takes another path and does not
    (every state and context width here is at least d_h >= 2).
    """
    b, length = setup.post_mask.shape
    w = setup.weights
    energy = setup.base.data.reshape(b, length, -1) + (s_prev @ w.U_a.data)[:, None]
    summary = None
    if w.V_a is not None:
        states = setup.states_flat.data.reshape(b, length, -1)
        summary = np.einsum("btd,bt->bd", states, coverage)
        energy += (summary @ w.V_a.data)[:, None]
    energy = np.tanh(energy, out=energy).reshape(b * length, -1)
    scores = (energy @ w.v_a.data).reshape(b, length)
    if not record:
        energy = None  # freed before the context is summed
    if setup.log_focus is not None:
        scores = scores + setup.log_focus.data
    alpha = ad._masked_softmax(scores, setup.post_mask)
    context = np.einsum("btd,bt->bd", setup.context_flat.data.reshape(b, length, -1), alpha)
    keep = np.asarray(update_mask, dtype=np.float64).reshape(b, 1)
    saved = (s_prev, coverage, keep, alpha, energy, summary) if record else None
    return alpha, context, coverage + alpha * keep, saved


def _sum_groups(rows: Array, k: int) -> Array:
    """[n*k, d] -> [n, d], summing each consecutive group of k rows; also
    the gradient of rows repeated k times each.  The sum runs over the
    middle axis of a [n, k, d] view, so the k rows are added in order."""
    return rows.reshape(-1, k, rows.shape[1]).sum(axis=1)


def attend_grads(setup: AttentionSetup, saved: tuple, g_context: Array | None,
                 g_coverage: Array | None, coverage_grad: bool):
    """Backward of one `attend_step` for the gradients of its context and of
    its updated coverage, each None when none reaches it, not both.

    A generator: it yields a (tensor, part) pair for each tensor of the
    setup that reads the step: the context rows (if the context has a
    gradient), the log focus, v_a, V_a and the states of the coverage
    summary, the base and U_a.  It returns the gradients of s_prev and, if
    coverage_grad, of the coverage it read (else None).  Every part is the
    array the composition's tape handed on, and the pairs come in that
    tape's order.

    The gradients of the repeated rows are broadcasts, not copies, and the
    energy rows are summed by group once, for both the query and the
    coverage summary.  The sums over the last axis (g_read, the gradient
    of a position's weight) stay multiply-then-sum: numpy sums a
    contiguous last axis in its own blocked order, which einsum does not
    reproduce, so an einsum there changes the bits at almost every width.
    """
    b, length = setup.post_mask.shape
    w = setup.weights
    s_prev, coverage, keep, alpha, energy, summary = saved
    g_prev = g_alpha = None  # g_prev, coverage's gradient: the add node passes it on first
    if g_coverage is not None:
        g_prev = g_coverage if coverage_grad else None
        g_alpha = g_coverage * keep
    if g_context is not None:
        g_rows = g_context[:, None]  # the context's gradient, broadcast over positions
        context_flat = setup.context_flat
        yield context_flat, (g_rows * alpha[:, :, None]).reshape(b * length, -1)
        g_read = (g_rows * context_flat.data.reshape(b, length, -1)).sum(axis=-1)
        g_alpha = g_read if g_alpha is None else g_alpha + g_read
    dot = (g_alpha * alpha).sum(axis=1, keepdims=True)
    g_scores = alpha * (g_alpha - dot)  # softmax
    if setup.log_focus is not None:
        yield setup.log_focus, g_scores
    g_scores = g_scores.reshape(b * length, 1)
    yield w.v_a, energy.T @ g_scores
    g_energy = (g_scores @ w.v_a.data.T) * (1.0 - energy * energy)  # through tanh
    g_query = _sum_groups(g_energy, length)  # also the coverage summary's gradient
    if w.V_a is not None:
        yield w.V_a, summary.T @ g_query
        g_rows = (g_query @ w.V_a.data.T)[:, None]
        states = setup.states_flat
        yield states, (g_rows * coverage[:, :, None]).reshape(b * length, -1)
        if coverage_grad:
            g_read = (g_rows * states.data.reshape(b, length, -1)).sum(axis=-1)
            g_prev = g_read if g_prev is None else g_prev + g_read
    yield setup.base, g_energy
    yield w.U_a, s_prev.T @ g_query
    return g_query @ w.U_a.data.T, g_prev


# ---------------------------------------------------------------------------
# alignment diagnostic (plain numpy; nothing here needs gradients)


def alignment_gap(coverage: np.ndarray, resp_len: np.ndarray, focus: np.ndarray,
                  mask: np.ndarray) -> np.ndarray:
    """Per row of [B, T] arrays, the L2 norm of coverage/resp_len - focus
    where mask is True: accumulated attention, normalized by decode length,
    against the focus.  The squared differences are summed left to right in
    position order, masked positions adding an exact +0.0 (np.sum would add
    in pairwise blocks of eight), so each gap equals a token-by-token
    recount bitwise."""
    coverage = np.asarray(coverage, dtype=np.float64)
    focus = np.asarray(focus, dtype=np.float64)
    resp_len = np.asarray(resp_len, dtype=np.float64)
    if coverage.ndim != 2 or coverage.shape != focus.shape or np.shape(mask) != focus.shape:
        raise DimensionError(f"coverage {coverage.shape} vs focus {focus.shape}"
                             f" vs mask {np.shape(mask)}: need one [B, T] shape")
    if resp_len.shape != coverage.shape[:1]:
        raise DimensionError(f"resp_len {resp_len.shape} for coverage rows {coverage.shape[:1]}")
    if np.any(resp_len < 1):
        raise ValidationError(f"resp_len must be positive, got {resp_len}")
    diff = coverage / resp_len[:, None] - focus
    squares = np.where(mask, diff * diff, 0.0)
    total = np.zeros(len(coverage))
    for column in squares.T:
        total += column
    return np.sqrt(total)
