"""Compositions of tape primitives that fused code in src/ replaced, kept as
the references the fused code must match bit for bit.  They call no fused
node of src/: the GRU cell is built op by op here.

The GRU cell is the step that `autodiff.gru_layer` and the decoder run on
arrays.  The attention read and the decode step below are the per-step
compositions that `decoder.decode_train` records as one node and that
`greedy_decode` runs on arrays; `reference_decode_train` and
`reference_greedy_decode` loop them as the decoder did.

The Counter-based n-gram scores at the end are the straight-line oracle for
the array scorers of `focuscvae.evaluation`.
"""

import math
from collections import Counter

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


def reference_sigmoid_data(d):
    pos = d >= 0
    z = np.empty_like(d)
    z[pos] = 1.0 / (1.0 + np.exp(-d[pos]))
    ez = np.exp(d[~pos])
    z[~pos] = ez / (1.0 + ez)
    return z


def reference_sigmoid(x):
    z = reference_sigmoid_data(x.data)
    return ad._record((x,), Tensor(z), lambda g: (g * z * (1.0 - z),))


def reference_gru_cell(x, h_prev, w, keep=None):
    """One GRU step on x [B, d_in] from h_prev [B, u]; keep is a [B, 1] 0/1
    column whose 0 rows carry h_prev through, or None."""
    u = reference_sigmoid(ad.bias_add(ad.add(ad.matmul(x, w.W_u), ad.matmul(h_prev, w.U_u)), w.b_u))
    r = reference_sigmoid(ad.bias_add(ad.add(ad.matmul(x, w.W_r), ad.matmul(h_prev, w.U_r)), w.b_r))
    c = ad.tanh(ad.bias_add(ad.add(ad.matmul(x, w.W_h), ad.matmul(ad.mul(r, h_prev), w.U_h)),
                            w.b_h))
    h_new = ad.add(ad.mul(ad.add(ad.neg(u), 1.0), h_prev), ad.mul(u, c))
    if keep is None:
        return h_new
    # masked carry: PAD rows keep the previous state
    return ad.add(ad.scale_rows(h_new, Tensor(keep)), ad.scale_rows(h_prev, Tensor(1.0 - keep)))


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
    ids (the start input at t = 1), advance both GRU cells, project
    [state; context].  Returns (logits, alpha, states, coverage)."""
    alpha, context, coverage = reference_attend_step(setup, states[-1], coverage, update_mask)
    b = setup.post_mask.shape[0]
    x = ad.repeat_rows(w.start, b) if t == 1 else ad.embedding(emb_table, prev)
    s0 = reference_gru_cell(x, states[0], w.cells[0])
    s1 = reference_gru_cell(s0, states[1], w.cells[1])
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


# ---------------------------------------------------------------------------
# n-gram scores: one Counter per sequence and order


def ngram_counts(seq, n: int) -> Counter:
    return Counter(tuple(seq[i:i + n]) for i in range(len(seq) - n + 1))


def count_groups(groups, max_n: int):
    """Every sequence as (length, [its n-gram Counter for n = 1..max_n])."""
    return [[(len(s), [ngram_counts(s, n) for n in range(1, max_n + 1)]) for s in g]
            for g in groups]


def multi_bleu(hyps_per_post, refs_per_post, max_n: int) -> float:
    """Corpus BLEU-max_n: counts clipped against the per-post reference
    maximum, closest-reference brevity penalty, no smoothing."""
    clipped = [0] * max_n
    total = [0] * max_n
    hyp_len = 0
    ref_len = 0
    for hyps, refs in zip(hyps_per_post, refs_per_post):
        ref_caps = [Counter() for _ in range(max_n)]
        for _, by_n in refs:
            for n in range(max_n):
                for g, c in by_n[n].items():
                    if c > ref_caps[n][g]:
                        ref_caps[n][g] = c
        for length, by_n in hyps:
            hyp_len += length
            # closest reference length; ties resolved toward the shorter
            ref_len += min((abs(r - length), r) for r, _ in refs)[1]
            for n in range(max_n):
                counts = by_n[n]
                total[n] += sum(counts.values())
                clipped[n] += sum(min(c, ref_caps[n][g]) for g, c in counts.items())

    if hyp_len == 0:
        return 0.0
    log_sum = 0.0
    for n in range(max_n):
        if total[n] == 0 or clipped[n] == 0:
            return 0.0
        log_sum += math.log(clipped[n] / total[n])
    brevity = math.exp(min(0.0, 1.0 - ref_len / hyp_len))
    return brevity * math.exp(log_sum / max_n)


def _distinct_ratio(counted, n: int):
    """Distinct / total n-grams over the pooled sequences; None if no n-grams."""
    pooled = Counter()
    for _, by_n in counted:
        pooled.update(by_n[n - 1])
    total = sum(pooled.values())
    return len(pooled) / total if total else None


def intra_dist(groups, n: int):
    """Mean per-group distinct ratio over the groups that have n-grams."""
    ratios = [r for g in groups if (r := _distinct_ratio(g, n)) is not None]
    return float(np.mean(ratios)) if ratios else None


def inter_dist(groups, n: int):
    """Distinct ratio over all groups pooled together."""
    return _distinct_ratio((c for g in groups for c in g), n)
