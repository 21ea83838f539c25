"""Model assembly: parameters for each variant and the end-to-end passes.

Variants build only the parameters they use:

  s2s           plain attentive encoder-decoder; no latent, no focus
  foc           latent z; its focus is a log prior on every attention step
  foccoverage   foc plus the coverage feedback term in the attention
  focconstrain  foccoverage (the focus alignment penalty lives in training)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, Weights
from .config import TrainConfig, uses_coverage_term, uses_latent
from .corpus import Batch
from .decoder import (GenerationResult, decode_train, greedy_decode, init_decoder_weights,
                      initial_states)
from .encoders import (AffineWeights, EncoderOutputs, GaussianParams, encode,
                       init_encoder_weights, prior, recognition, sample, uniform_init)
from .errors import DimensionError, ValidationError
from .focus import AttentionSetup, AttentionWeights, FocusWeights, build_attention, focus_generate

# Init gain of the focus query's bias v_f.  It does not make the untrained
# focus peaked: on the desk shapes (ten training batches, posterior z) the
# focus peaks at 0.099 with it and 0.093 without, against 0.080 for a uniform
# spread.  The untrained attention, whose steps add the log focus to nearly
# flat scores, peaks at 0.099 too.
FOCUS_SCORE_GAIN = 6.0


@dataclass
class BowWeights(Weights):
    """One-hidden-layer tanh net from [z; pooled post] to vocab logits."""

    W1: Tensor
    b1: Tensor
    W2: Tensor
    b2: Tensor


@dataclass
class ForwardPass:
    """Everything the loss terms need from one teacher-forced pass."""

    logits_flat: Tensor            # [B*T, V]
    coverage: Tensor               # [B, Tx] attention summed over the response steps
    alphas: list[Tensor]           # per-step attention rows, [B, Tx] each
    focus: Tensor | None           # [B, Tx]
    q: GaussianParams | None
    p: GaussianParams | None
    z: Tensor | None               # [B, d_z] draw from q
    post_enc: EncoderOutputs


class FocusCVAE:
    """Owns the parameter set and wires encoders, focus, attention, decoder."""

    def __init__(self, cfg: TrainConfig, rng: np.random.Generator):
        cfg.validate()
        self.cfg = cfg
        scale = cfg.init_scale
        d_h, d_z, vocab = cfg.d_h, cfg.d_z, cfg.vocab_size
        d_emb = d_z  # embedding width tied to the latent size
        latent = uses_latent(cfg.variant)

        u = uniform_init(rng, scale)
        self.embedding = u(vocab, d_emb)
        self.encoder = init_encoder_weights(rng, d_emb, d_h, n_layers=2, scale=scale)

        if latent:
            self.recognition = AffineWeights(u(2 * d_h, 2 * d_z), u(2 * d_z))
            self.prior = AffineWeights(u(d_h, 2 * d_z), u(2 * d_z))
            self.focus = FocusWeights(W_f=u(d_h + d_emb, d_h), U_f=u(d_z, d_h), v_f=u(d_h, 1))
            self.focus.v_f.data *= FOCUS_SCORE_GAIN
            self.bow = BowWeights(W1=u(d_z + d_h, d_h), b1=u(d_h), W2=u(d_h, vocab), b2=u(vocab))
        else:
            self.recognition = self.prior = self.focus = self.bow = None

        self.attention = AttentionWeights(
            W_a=u(d_h, d_h), U_a=u(d_h, d_h), v_a=u(d_h, 1),
            V_a=u(d_h, d_h) if uses_coverage_term(cfg.variant) else None)

        d_cond = d_h + (d_z if latent else 0)
        d_ctx = d_h + (d_emb if latent else 0)
        self.decoder = init_decoder_weights(rng, d_emb, d_h, d_cond, d_ctx, vocab, scale)

    # -- parameters ---------------------------------------------------------

    def named_parameters(self) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {"embedding.weight": self.embedding}
        out.update(self.encoder.named("encoder"))
        if self.recognition is not None:
            out.update(self.recognition.named("recognition"))
            out.update(self.prior.named("prior"))
            out.update(self.focus.named("focus"))
            out.update(self.bow.named("bow"))
        out.update(self.attention.named("attention"))
        out.update(self.decoder.named("decoder"))
        return out

    def zero_grad(self) -> None:
        for p in self.named_parameters().values():
            p.zero_grad()

    @classmethod
    def from_arrays(cls, cfg: TrainConfig, arrays: dict[str, np.ndarray]) -> "FocusCVAE":
        """Rebuild a model whose parameters are the given named arrays.

        The model adopts each array itself, copying only one that is not an
        aligned, writable, C-ordered float64 array, so the caller's arrays
        and the model's parameters are one set of buffers.  Training
        replaces a parameter's array at every step and never writes into it
        (`training.Adam.step`, `training.clip_gradients`), so the caller's
        arrays keep their values.  An optimizer that updated in place would
        have to copy here.
        """
        model = cls(cfg, np.random.default_rng(0))
        params = model.named_parameters()
        missing = sorted(set(params) - set(arrays))
        extra = sorted(set(arrays) - set(params))
        if missing or extra:
            raise ValidationError(f"parameter names do not match (missing {missing}, extra {extra})")
        for name, p in params.items():
            if p.data.shape != arrays[name].shape:
                raise DimensionError(
                    f"{name}: stored shape {arrays[name].shape} vs model shape {p.data.shape}")
            p.data = np.require(arrays[name], np.float64, "CAW")
        return model

    # -- forward pieces -----------------------------------------------------

    def encode_sequences(self, ids: np.ndarray, mask: np.ndarray) -> EncoderOutputs:
        return encode(ids, mask, self.embedding, self.encoder)

    def _conditioning(self, post_enc: EncoderOutputs, z: Tensor | None) -> Tensor:
        if z is not None:
            return ad.concat([post_enc.pooled, z])
        return post_enc.pooled

    def _focus_and_setup(self, post_enc: EncoderOutputs, post_ids: np.ndarray,
                         post_mask: np.ndarray, z: Tensor | None
                         ) -> tuple[Tensor | None, AttentionSetup]:
        states = post_enc.states_flat
        if z is None:
            return None, build_attention(states, states, post_mask, self.attention)
        # each position is annotated with its word embedding as well as its
        # encoder state; the focus keys and the attention context read both,
        # so focusing a keyword hands the decoder that word itself
        words = ad.embedding(self.embedding, np.asarray(post_ids).reshape(-1, 1))
        annotated = ad.concat([states, words])
        f = focus_generate(annotated, post_mask, z, self.focus)
        return f, build_attention(states, annotated, post_mask, self.attention, focus=f)

    def forward_train(self, batch: Batch, eps: np.ndarray | None) -> ForwardPass:
        """Teacher-forced pass with the recognition network providing z."""
        post_enc = self.encode_sequences(batch.post_ids, batch.post_mask)
        if uses_latent(self.cfg.variant):
            resp_enc = self.encode_sequences(batch.resp_ids, batch.resp_mask)
            q = recognition(post_enc.pooled, resp_enc.pooled, self.recognition, self.cfg.d_z)
            p = prior(post_enc.pooled, self.prior, self.cfg.d_z)
            z = sample(q, eps)
        else:
            q = p = z = None
        f, setup = self._focus_and_setup(post_enc, batch.post_ids, batch.post_mask, z)
        init = initial_states(self._conditioning(post_enc, z), self.decoder)
        logits_flat, coverage, alphas = decode_train(
            batch.resp_ids, batch.resp_mask, setup, self.embedding, self.decoder, init)
        return ForwardPass(logits_flat, coverage, alphas, f, q, p, z, post_enc)

    def bow_logits(self, z: Tensor, post_enc: EncoderOutputs) -> Tensor:
        h = ad.tanh(ad.bias_add(ad.matmul(ad.concat([z, post_enc.pooled]),
                                          self.bow.W1), self.bow.b1))
        return ad.bias_add(ad.matmul(h, self.bow.W2), self.bow.b2)

    # -- generation ---------------------------------------------------------

    def generate_rows(self, post_ids: np.ndarray, post_mask: np.ndarray, row_post: np.ndarray,
                      eps_rows: np.ndarray | None, max_len: int) -> list[GenerationResult]:
        """Greedy-decode one batch of rows; row r reads post row_post[r] of the
        distinct posts post_ids and draws z from the prior with eps_rows[r].

        Each distinct post is encoded once; its states and pooled vector are
        copied out to its rows, and everything after the encoder runs per row.
        For s2s eps_rows must be None.
        """
        row_post = np.asarray(row_post, dtype=np.int64)
        latent = uses_latent(self.cfg.variant)
        if latent and eps_rows is None:
            raise ValidationError("latent variants need one eps row per generation")
        if not latent and eps_rows is not None:
            raise ValidationError("s2s takes no latent draws")
        if eps_rows is not None and len(eps_rows) != len(row_post):
            raise ValidationError(f"{len(eps_rows)} eps rows for {len(row_post)} generations")
        post_enc = _rows_of(self.encode_sequences(post_ids, post_mask), row_post)
        ids, mask = np.asarray(post_ids)[row_post], np.asarray(post_mask)[row_post]
        z = sample(prior(post_enc.pooled, self.prior, self.cfg.d_z), eps_rows) if latent else None
        f, setup = self._focus_and_setup(post_enc, ids, mask, z)
        init = initial_states(self._conditioning(post_enc, z), self.decoder)
        focus_rows = f.data if f is not None else None
        return greedy_decode(setup, self.embedding, self.decoder, init, max_len, focus_rows)


def _rows_of(enc: EncoderOutputs, rows: np.ndarray) -> EncoderOutputs:
    """The encodings of sequences `rows`, one output row each, gathered with
    row lookups: each sequence's states are one [T*d_h] row for the lookup."""
    b, t, d_h = enc.batch, enc.length, enc.states_flat.shape[1]
    states = ad.embedding(ad.reshape(enc.states_flat, (b, t * d_h)), rows[:, None])
    return EncoderOutputs(ad.reshape(states, (len(rows) * t, d_h)),
                          ad.embedding(enc.pooled, rows[:, None]), len(rows), t)
