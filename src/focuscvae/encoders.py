"""Shared bidirectional GRU encoders and the Gaussian latent machinery.

Post and response run through the *same* stacked bidirectional GRU (one
parameter set).  Each layer is one `gru_layer` node over a (forward,
backward) cell pair whose mask carries both directions' states unchanged
through PAD positions, so padding never leaks into them, and the masked
mean over positions is one `masked_mean` node.  The pooled encodings feed
two affine heads: recognition (post + response, training only) and prior
(post only), each emitting mean and log-variance of a diagonal Gaussian
over the latent z.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import GRUCellWeights, Tensor, gru_layer
from .errors import DimensionError, ValidationError

# clamp on every emitted log-variance, so exp(log_var) stays finite
LOG_VAR_MIN = -10.0
LOG_VAR_MAX = 10.0


@dataclass
class AffineWeights:
    W: Tensor
    b: Tensor

    def named(self, prefix: str) -> dict[str, Tensor]:
        return {f"{prefix}.W": self.W, f"{prefix}.b": self.b}


def affine(x: Tensor, w: AffineWeights) -> Tensor:
    return ad.bias_add(ad.matmul(x, w.W), w.b)


@dataclass
class EncoderWeights:
    """Stacked bidirectional layers as (forward, backward) cell pairs."""

    layers: list[tuple[GRUCellWeights, GRUCellWeights]]

    def named(self, prefix: str) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for i, (fwd, bwd) in enumerate(self.layers):
            out.update(fwd.named(f"{prefix}.l{i}.fwd"))
            out.update(bwd.named(f"{prefix}.l{i}.bwd"))
        return out


def init_gru_cell(rng: np.random.Generator, d_in: int, d_h: int, scale: float) -> GRUCellWeights:
    u = lambda *shape: Tensor(rng.uniform(-scale, scale, size=shape), requires_grad=True)
    return GRUCellWeights(
        W_u=u(d_in, d_h), U_u=u(d_h, d_h), b_u=u(d_h),
        W_r=u(d_in, d_h), U_r=u(d_h, d_h), b_r=u(d_h),
        W_h=u(d_in, d_h), U_h=u(d_h, d_h), b_h=u(d_h),
    )


def init_encoder_weights(rng: np.random.Generator, d_in: int, d_h: int,
                         n_layers: int = 2, scale: float = 0.08) -> EncoderWeights:
    if d_h % 2:
        raise DimensionError(f"bidirectional d_h must be even, got {d_h}")
    units = d_h // 2
    layers = []
    width = d_in
    for _ in range(n_layers):
        layers.append((init_gru_cell(rng, width, units, scale),
                       init_gru_cell(rng, width, units, scale)))
        width = d_h  # next layer consumes the concatenated directions
    return EncoderWeights(layers)


@dataclass
class EncoderOutputs:
    states_flat: Tensor   # [B*T, d_h] row-major over (batch, position)
    pooled: Tensor        # [B, d_h] masked mean over positions
    batch: int
    length: int


def encode(token_ids, mask, emb_table: Tensor, weights: EncoderWeights) -> EncoderOutputs:
    """Run the stacked bidirectional encoder over a padded batch.

    Takes [B, T] token ids and a boolean mask of the same shape.  Each layer
    is one `gru_layer` node.  Position i of the output concatenates the
    forward state after reading tokens 1..i with the backward state after
    reading T..i; the pooled vector is the mean over unmasked positions.
    """
    ids = np.asarray(token_ids, dtype=np.int64)
    m = np.asarray(mask, dtype=bool)
    if ids.ndim != 2 or ids.shape != m.shape:
        raise DimensionError(f"ids shape {ids.shape} and mask shape {m.shape} must be one [B, T]")
    b, t = ids.shape
    if t == 0 or not m.any(axis=1).all():
        raise ValidationError("every sequence needs at least one unmasked token")

    # [B, T*width] rows, position i in the i-th block of columns
    h = ad.concat([ad.embedding(emb_table, ids[:, i]) for i in range(t)], axis=1)
    for cells in weights.layers:
        h = gru_layer(h, m, cells)
    flat = ad.reshape(h, (b * t, h.shape[1] // t))
    return EncoderOutputs(flat, ad.masked_mean(h, m), b, t)


# ---------------------------------------------------------------------------
# latent heads


@dataclass
class GaussianParams:
    mu: Tensor       # [B, d_z]
    log_var: Tensor  # [B, d_z], clamped


def _gaussian_head(x: Tensor, w: AffineWeights, d_z: int) -> GaussianParams:
    out = affine(x, w)
    if out.shape[1] != 2 * d_z:
        raise DimensionError(f"gaussian head emits {out.shape[1]} columns, expected {2 * d_z}")
    mu = ad.narrow(out, 1, 0, d_z)
    log_var = ad.clamp(ad.narrow(out, 1, d_z, d_z), LOG_VAR_MIN, LOG_VAR_MAX)
    return GaussianParams(mu, log_var)


def recognition(pooled_post: Tensor, pooled_resp: Tensor, w: AffineWeights,
                d_z: int) -> GaussianParams:
    """q(z | x, y) from the concatenated pooled encodings. Training only."""
    return _gaussian_head(ad.concat([pooled_post, pooled_resp], axis=1), w, d_z)


def prior(pooled_post: Tensor, w: AffineWeights, d_z: int) -> GaussianParams:
    """p(z | x) from the pooled post encoding alone."""
    return _gaussian_head(pooled_post, w, d_z)


def sample(params: GaussianParams, eps: np.ndarray) -> Tensor:
    """Reparameterized draw z = mu + exp(log_var / 2) * eps; the caller owns
    the noise stream."""
    eps = np.asarray(eps, dtype=np.float64)
    if eps.shape != params.mu.shape:
        raise DimensionError(f"eps shape {eps.shape} does not match mu shape {params.mu.shape}")
    std = ad.exp(ad.mul(params.log_var, 0.5))
    return ad.add(params.mu, ad.mul(std, Tensor(eps)))


def kl_divergence(q: GaussianParams, p: GaussianParams) -> Tensor:
    """KL(q || p) per row for diagonal Gaussians, closed form. Returns [B, 1]."""
    if q.mu.shape != p.mu.shape or q.log_var.shape != p.log_var.shape:
        raise DimensionError(
            f"KL needs matching shapes, got mu {q.mu.shape} vs {p.mu.shape}")
    dlv = ad.add(p.log_var, ad.neg(q.log_var))
    ratio = ad.exp(ad.add(q.log_var, ad.neg(p.log_var)))
    dmu = ad.add(q.mu, ad.neg(p.mu))
    quad = ad.mul(ad.mul(dmu, dmu), ad.exp(ad.neg(p.log_var)))
    per_dim = ad.add(ad.add(ad.mul(dlv, 0.5), ad.mul(ad.add(ratio, quad), 0.5)), -0.5)
    return ad.sum_cols(per_dim)
