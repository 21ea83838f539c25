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

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
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


def attend_step(setup: AttentionSetup, s_prev: Tensor, coverage: Tensor,
                update_mask: np.ndarray | None = None) -> tuple[Tensor, Tensor, Tensor]:
    """One attention read; coverage [B, T] is the running sum of the earlier
    steps' attention weights (zeros before the first step).

    Returns (alpha [B, T], context [B, d_h], updated coverage).  Rows where
    update_mask is 0 keep their coverage unchanged, which is how padded or
    already-finished sequences sit out a batched step.
    """
    b, length = setup.post_mask.shape
    energy = ad.add(setup.base, ad.repeat_rows(ad.matmul(s_prev, setup.weights.U_a), length))
    if setup.weights.V_a is not None:
        summary = ad.sum_groups(
            ad.scale_rows(setup.states_flat, ad.reshape(coverage, (b * length, 1))), length)
        energy = ad.add(energy, ad.repeat_rows(ad.matmul(summary, setup.weights.V_a), length))
    scores = ad.reshape(ad.matmul(ad.tanh(energy), setup.weights.v_a), (b, length))
    if setup.log_focus is not None:
        scores = ad.add(scores, setup.log_focus)
    alpha = ad.softmax(scores, setup.post_mask)
    context = ad.sum_groups(
        ad.scale_rows(setup.context_flat, ad.reshape(alpha, (b * length, 1))), length)
    increment = alpha if update_mask is None else ad.scale_rows(
        alpha, Tensor(np.asarray(update_mask, dtype=np.float64).reshape(b, 1)))
    return alpha, context, ad.add(coverage, increment)


# ---------------------------------------------------------------------------
# alignment diagnostic (plain numpy; nothing here needs gradients)


def alignment_gap(coverage: np.ndarray, resp_len: int, focus: np.ndarray) -> float:
    """L2 norm of coverage/resp_len - focus: accumulated attention, normalized
    by decode length, against the focus.

    The squared differences are summed left to right in position order, so
    the gap equals a token-by-token recount bitwise.
    """
    coverage = np.asarray(coverage, dtype=np.float64)
    focus = np.asarray(focus, dtype=np.float64)
    if coverage.shape != focus.shape:
        raise DimensionError(f"coverage {coverage.shape} vs focus {focus.shape}")
    if resp_len < 1:
        raise ValidationError(f"resp_len must be positive, got {resp_len}")
    total = 0.0
    for d in coverage / float(resp_len) - focus:  # np.sum would add in pairwise blocks of eight
        total += d * d
    return math.sqrt(total)
