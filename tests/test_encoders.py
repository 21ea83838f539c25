"""Shared encoder stack, recognition/prior heads, reparameterized sampling, KL."""

import numpy as np
import pytest

from focuscvae import autodiff as ad
from focuscvae.autodiff import Tape, Tensor, grad_check
from focuscvae.encoders import (
    AffineWeights, GaussianParams, encode, init_encoder_weights, init_gru_cell,
    kl_divergence, prior, recognition, sample,
)
from focuscvae.errors import DimensionError, ValidationError


def state_rows(out):
    """An encoding's states as a [B, T, d_h] array view."""
    return out.states_flat.data.reshape(out.batch, out.length, -1)


def make_embedding(rng, vocab, d, scale=0.5):
    return Tensor(rng.uniform(-scale, scale, size=(vocab, d)), requires_grad=True)


def test_encode_shapes_and_pooling_excludes_pad():
    rng = np.random.default_rng(0)
    emb = make_embedding(rng, 10, 4)
    weights = init_encoder_weights(rng, d_in=4, d_h=6, n_layers=2, scale=0.3)
    ids = np.array([[3, 4, 5, 0], [6, 7, 0, 0]])
    mask = ids != 0
    out = encode(ids, mask, emb, weights)
    assert out.states_flat.shape == (8, 6)
    assert out.pooled.shape == (2, 6)
    states = state_rows(out)
    np.testing.assert_allclose(out.pooled.data[0], states[0, :3].mean(axis=0), atol=1e-12)
    np.testing.assert_allclose(out.pooled.data[1], states[1, :2].mean(axis=0), atol=1e-12)


def test_encode_padding_is_inert():
    # growing the pad tail must not change states at real positions
    rng = np.random.default_rng(1)
    emb = make_embedding(rng, 10, 4)
    weights = init_encoder_weights(rng, 4, 6, scale=0.3)
    short = encode(np.array([[3, 4, 5]]), np.array([[True] * 3]), emb, weights)
    long = encode(np.array([[3, 4, 5, 0, 0]]), np.array([[True, True, True, False, False]]),
                  emb, weights)
    np.testing.assert_allclose(state_rows(long)[0, :3], state_rows(short)[0], atol=1e-12)
    np.testing.assert_allclose(long.pooled.data, short.pooled.data, atol=1e-12)


def test_encode_direction_dependencies():
    # forward half reacts only to earlier-or-equal positions, backward half to later-or-equal
    rng = np.random.default_rng(2)
    emb = make_embedding(rng, 10, 4)
    weights = init_encoder_weights(rng, 4, 6, n_layers=1, scale=0.3)
    ids = np.array([[3, 4, 5, 6]])
    mask = np.ones_like(ids, dtype=bool)
    base = state_rows(encode(ids, mask, emb, weights))[0]
    bumped_ids = ids.copy()
    bumped_ids[0, 2] = 7
    bumped = state_rows(encode(bumped_ids, mask, emb, weights))[0]
    half = 3
    assert np.allclose(bumped[:2, :half], base[:2, :half], atol=1e-12)   # fwd before the edit
    assert not np.allclose(bumped[2:, :half], base[2:, :half])           # fwd at/after
    assert np.allclose(bumped[3:, half:], base[3:, half:], atol=1e-12)   # bwd after the edit
    assert not np.allclose(bumped[:3, half:], base[:3, half:])           # bwd at/before


def test_palindrome_ties_directions():
    # tied fwd/bwd cells on a palindrome: backward states are the forward states reversed
    rng = np.random.default_rng(3)
    emb = make_embedding(rng, 10, 4)
    cell = init_gru_cell(rng, 4, 3, scale=0.4)
    weights = init_encoder_weights(rng, 4, 6, n_layers=1)
    weights.layers[0] = (cell, cell)
    ids = np.array([[3, 4, 3]])
    out = state_rows(encode(ids, np.ones_like(ids, dtype=bool), emb, weights))[0]
    fwd, bwd = out[:, :3], out[:, 3:]
    np.testing.assert_allclose(bwd, fwd[::-1], atol=1e-12)


def test_encode_empty_sequence_rejected():
    rng = np.random.default_rng(4)
    emb = make_embedding(rng, 10, 4)
    weights = init_encoder_weights(rng, 4, 6)
    with pytest.raises(ValidationError):
        encode(np.array([[3, 4]]), np.array([[False, False]]), emb, weights)


def test_encode_takes_a_batch_of_rows():
    rng = np.random.default_rng(4)
    emb = make_embedding(rng, 10, 4)
    weights = init_encoder_weights(rng, 4, 6)
    for ids, mask in ((np.array([3, 4]), np.array([True, True])),  # one [T] sequence
                      (np.array([[3, 4]]), np.array([[True, True, True]]))):
        with pytest.raises(DimensionError):
            encode(ids, mask, emb, weights)


def test_shared_weights_tie_post_and_response():
    rng = np.random.default_rng(5)
    emb = make_embedding(rng, 10, 4)
    weights = init_encoder_weights(rng, 4, 6, scale=0.3)
    post = (np.array([[3, 4, 5]]), np.ones((1, 3), dtype=bool))
    resp = (np.array([[6, 7]]), np.ones((1, 2), dtype=bool))
    p0 = encode(*post, emb, weights).pooled.data.copy()
    r0 = encode(*resp, emb, weights).pooled.data.copy()
    weights.layers[0][0].W_u.data += 0.05  # one shared parameter set
    assert not np.allclose(encode(*post, emb, weights).pooled.data, p0)
    assert not np.allclose(encode(*resp, emb, weights).pooled.data, r0)


def test_encoder_gradients_match_finite_differences():
    rng = np.random.default_rng(6)
    emb = make_embedding(rng, 8, 3)
    weights = init_encoder_weights(rng, 3, 4, n_layers=1, scale=0.4)
    ids = np.array([[3, 4, 5], [6, 7, 0]])
    mask = ids != 0

    def f():
        out = encode(ids, mask, emb, weights)
        return ad.sum_all(ad.mul(out.pooled, out.pooled))

    params = {"emb": emb, **weights.named("enc")}
    report = grad_check(f, params, h=1e-5, tol=1e-6)
    assert report.passed, report.format()


def test_heads_split_mu_and_clamped_log_var():
    pooled = Tensor(np.full((1, 2), 100.0))
    w = AffineWeights(Tensor(np.ones((2, 4))), Tensor(np.zeros(4)))
    params = prior(pooled, w, d_z=2)
    assert params.mu.shape == (1, 2) and params.log_var.shape == (1, 2)
    np.testing.assert_allclose(params.mu.data, 200.0)
    np.testing.assert_allclose(params.log_var.data, 10.0)  # clamp ceiling
    low = prior(Tensor(np.full((1, 2), -100.0)), w, d_z=2)
    np.testing.assert_allclose(low.log_var.data, -10.0)


def test_recognition_and_prior_share_nothing():
    rng = np.random.default_rng(8)
    px = Tensor(rng.normal(size=(2, 3)))
    py = Tensor(rng.normal(size=(2, 3)))
    wq = AffineWeights(Tensor(rng.normal(size=(6, 4))), Tensor(rng.normal(size=4)))
    wp = AffineWeights(Tensor(rng.normal(size=(3, 4))), Tensor(rng.normal(size=4)))
    q = recognition(px, py, wq, d_z=2)
    p = prior(px, wp, d_z=2)
    wp.W.data += 1.0
    q2 = recognition(px, py, wq, d_z=2)
    np.testing.assert_array_equal(q.mu.data, q2.mu.data)
    assert not np.allclose(prior(px, wp, d_z=2).mu.data, p.mu.data)


def test_sample_mean_at_zero_eps():
    params = GaussianParams(Tensor([[0.3, -0.7]]), Tensor([[0.0, 0.0]]))
    drawn = sample(params, eps=np.zeros((1, 2)))
    np.testing.assert_allclose(drawn.data, [[0.3, -0.7]], atol=1e-15)


def test_sample_scales_eps_by_std():
    params = GaussianParams(Tensor([[0.0]]), Tensor([[np.log(4.0)]]))
    drawn = sample(params, eps=np.array([[1.0]]))
    assert drawn.data[0, 0] == pytest.approx(2.0, abs=1e-12)


def test_reparameterization_gradient_with_frozen_eps():
    # d z / d mu is 1 under a frozen eps, checked by finite differences
    rng = np.random.default_rng(9)
    mu = Tensor(rng.normal(size=(1, 3)), requires_grad=True)
    log_var = Tensor(rng.normal(size=(1, 3)) * 0.1, requires_grad=True)
    eps = rng.standard_normal((1, 3))

    def f():
        return ad.sum_all(sample(GaussianParams(mu, log_var), eps=eps))

    report = grad_check(f, {"mu": mu, "log_var": log_var}, h=1e-5, tol=1e-6)
    assert report.passed, report.format()
    with Tape() as tape:
        loss = f()
    mu.zero_grad()
    tape.backward(loss)
    np.testing.assert_allclose(mu.grad, np.ones((1, 3)), atol=1e-12)


def test_kl_of_identical_gaussians_is_zero():
    rng = np.random.default_rng(10)
    mu = Tensor(rng.normal(size=(3, 4)))
    lv = Tensor(rng.normal(size=(3, 4)))
    out = kl_divergence(GaussianParams(mu, lv), GaussianParams(Tensor(mu.data.copy()), Tensor(lv.data.copy())))
    assert np.abs(out.data).max() < 1e-12


def test_kl_frozen_values():
    # unit-variance mean shift of 1
    q = GaussianParams(Tensor([[1.0]]), Tensor([[0.0]]))
    p = GaussianParams(Tensor([[0.0]]), Tensor([[0.0]]))
    assert kl_divergence(q, p).item() == pytest.approx(0.5, abs=1e-12)
    # variance 4 against variance 1
    q = GaussianParams(Tensor([[0.0]]), Tensor([[np.log(4.0)]]))
    assert kl_divergence(q, p).item() == pytest.approx(0.8068528194400547, abs=1e-12)


def test_kl_nonnegative_over_random_draws():
    rng = np.random.default_rng(11)
    for _ in range(200):
        q = GaussianParams(Tensor(rng.normal(size=(1, 5))), Tensor(rng.normal(size=(1, 5))))
        p = GaussianParams(Tensor(rng.normal(size=(1, 5))), Tensor(rng.normal(size=(1, 5))))
        assert kl_divergence(q, p).item() >= -1e-12


def test_kl_gradients():
    rng = np.random.default_rng(12)
    mk = lambda: Tensor(rng.normal(size=(2, 3)) * 0.5, requires_grad=True)
    mu_q, lv_q, mu_p, lv_p = mk(), mk(), mk(), mk()

    def f():
        return ad.sum_all(kl_divergence(GaussianParams(mu_q, lv_q), GaussianParams(mu_p, lv_p)))

    report = grad_check(f, {"mu_q": mu_q, "lv_q": lv_q, "mu_p": mu_p, "lv_p": lv_p},
                        h=1e-5, tol=1e-6)
    assert report.passed, report.format()


def test_kl_shape_mismatch():
    q = GaussianParams(Tensor(np.zeros((1, 3))), Tensor(np.zeros((1, 3))))
    p = GaussianParams(Tensor(np.zeros((1, 2))), Tensor(np.zeros((1, 2))))
    with pytest.raises(DimensionError):
        kl_divergence(q, p)
