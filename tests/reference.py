"""Compositions of tape primitives that fused code in src/ replaced, kept as
the references the fused code must match bit for bit.

The attention read and the decode step below are the per-step compositions
that `decoder.decode_train` records as one node and that `greedy_decode`
runs on arrays; `reference_decode_train` and `reference_greedy_decode`
loop them as the decoder did.
"""

import numpy as np

from focuscvae import autodiff as ad
from focuscvae.autodiff import Tensor
from focuscvae.corpus import EOS_ID, PAD_ID
from focuscvae.encoders import affine
from focuscvae.errors import DimensionError


def sum_groups(x: Tensor, k: int) -> Tensor:
    """[n*k, d] -> [n, d], summing each consecutive group of k rows."""
    if x.data.ndim != 2 or x.shape[0] % k != 0:
        raise DimensionError(f"sum_groups: rows of {x.shape} not divisible by {k}")
    n = x.shape[0] // k
    out = Tensor(x.data.reshape(n, k, x.shape[1]).sum(axis=1))
    return ad._record((x,), out, lambda g: (np.repeat(g, k, axis=0),))


def reference_attend_step(setup, s_prev: Tensor, coverage: Tensor, update_mask=None):
    """One attention read as tape primitives: (alpha, context, coverage)."""
    b, length = setup.post_mask.shape
    energy = ad.add(setup.base, ad.repeat_rows(ad.matmul(s_prev, setup.weights.U_a), length))
    if setup.weights.V_a is not None:
        summary = sum_groups(
            ad.scale_rows(setup.states_flat, ad.reshape(coverage, (b * length, 1))), length)
        energy = ad.add(energy, ad.repeat_rows(ad.matmul(summary, setup.weights.V_a), length))
    scores = ad.reshape(ad.matmul(ad.tanh(energy), setup.weights.v_a), (b, length))
    if setup.log_focus is not None:
        scores = ad.add(scores, setup.log_focus)
    alpha = ad.softmax(scores, setup.post_mask)
    context = sum_groups(
        ad.scale_rows(setup.context_flat, ad.reshape(alpha, (b * length, 1))), length)
    increment = alpha if update_mask is None else ad.scale_rows(
        alpha, Tensor(np.asarray(update_mask, dtype=np.float64).reshape(b, 1)))
    return alpha, context, ad.add(coverage, increment)


def reference_decode_step(setup, states, coverage, t, prev, emb_table, w, update_mask):
    """Decode step t (1-based) as tape primitives: attend, embed the previous
    ids (the start input at t = 1), advance both one-step GRU layers,
    project [state; context].  Returns (logits, alpha, states, coverage)."""
    alpha, context, coverage = reference_attend_step(setup, states[-1], coverage, update_mask)
    b = setup.post_mask.shape[0]
    x = ad.repeat_rows(w.start, b) if t == 1 else ad.embedding(emb_table, prev)
    s0 = ad.gru_layer(x, None, w.cells[:1], states[0])
    s1 = ad.gru_layer(s0, None, w.cells[1:], states[1])
    logits = affine(ad.concat([s1, context], axis=1), w.out)
    return logits, alpha, [s0, s1], coverage


def reference_decode_train(resp_ids, resp_mask, setup, emb_table, w, init):
    """The teacher-forced pass, one composition per step."""
    b, t_max = resp_ids.shape
    states = init
    coverage = Tensor(np.zeros((b, setup.length)))
    step_logits, alphas = [], []
    for t in range(1, t_max + 1):
        prev = resp_ids[:, t - 2] if t > 1 else None
        logits, alpha, states, coverage = reference_decode_step(
            setup, states, coverage, t, prev, emb_table, w, resp_mask[:, t - 1])
        step_logits.append(logits)
        alphas.append(alpha)
    vocab = step_logits[0].shape[1]
    logits_flat = ad.reshape(ad.concat(step_logits, axis=1), (b * t_max, vocab))
    return logits_flat, coverage, alphas


def reference_greedy_decode(setup, emb_table, w, init, max_len):
    """Greedy decoding through the composition: (emitted ids [B, max_len]
    with PAD after a row's EOS, lengths, final coverage [B, Tx])."""
    b = setup.post_mask.shape[0]
    states = init
    coverage = Tensor(np.zeros((b, setup.length)))
    active = np.ones(b, dtype=bool)
    emitted = np.full((b, max_len), PAD_ID, dtype=np.int64)
    lengths = np.zeros(b, dtype=np.int64)
    prev = None
    for t in range(1, max_len + 1):
        logits, _, states, coverage = reference_decode_step(
            setup, states, coverage, t, prev, emb_table, w, active.astype(np.float64))
        scores = logits.data.copy()
        scores[:, PAD_ID] = -np.inf
        picked = np.where(active, np.argmax(scores, axis=1), PAD_ID).astype(np.int64)
        emitted[:, t - 1] = picked
        lengths += active
        active &= picked != EOS_ID
        prev = picked
        if not active.any():
            break
    return emitted, lengths, coverage.data
