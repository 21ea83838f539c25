"""Acceptance gate: one test per shipping criterion, each printing a
PASS/FAIL line (visible under `pytest -s`; the -v test names mirror them).

The desk-scale experiment (criteria 5, 6, 8 and the trained-model checks)
trains three variants for 3,000 steps on the synthetic corpus and is shared
through a session fixture; expect a few minutes of wall time on first use.
"""

import dataclasses
import math
import time
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from focuscvae import evaluation as ev
from focuscvae import training as tr
from focuscvae.autodiff import Tensor
from focuscvae.config import TrainConfig, uses_latent
from focuscvae.corpus import (EOS_ID, GrammarConfig, PostResponsePair,
                              collate, content_for_keyword, generate_synthetic,
                              split_records, to_pairs)
from focuscvae.encoders import GaussianParams, kl_divergence
from focuscvae.model import FocusCVAE

# `pytest -m "not desk"` runs everything else in seconds
pytestmark = pytest.mark.desk

VARIANT_CYCLE = ("s2s", "foc", "foccoverage", "focconstrain")

# Shared recipe for the trained-model criteria. The corpus pins (seed 7,
# 20,000 pairs, vocab 64, 2 keyword slots, 3 responses per post) and the
# model pins (d_h 64, d_z 32, batch 32, 3,000 steps, same seeds across
# variants) are fixed; grammar shape and optimizer knobs are calibrated so
# 3,000 steps suffice for an informative latent (see the loss logs: KL must
# not collapse to 0, or every prior sample decodes identically).
DESK_GRAMMAR = GrammarConfig(post_len=14, n_keywords=20)
DESK = dict(d_h=64, d_z=32, batch_size=32, total_steps=3000, peak_lr=0.004,
            kl_anneal_steps=2500, w_bow=3.0, w_foc=2.0, init_scale=0.12)


def desk_config(variant: str, vocab_len: int) -> TrainConfig:
    return TrainConfig(variant=variant, vocab_size=vocab_len, seed=0, **DESK)


@pytest.fixture(scope="session")
def desk(tmp_path_factory):
    """Train the three compared variants once and share the artifacts."""
    t0 = time.time()
    base = tmp_path_factory.mktemp("desk")
    records, vocab = generate_synthetic(7, 20_000, DESK_GRAMMAR)
    train_recs, test_recs = split_records(records, 500, 7)
    pairs = to_pairs(train_recs, vocab)
    max_len = 2 * max(len(p.response) for p in pairs)

    cfg_c = desk_config("focconstrain", len(vocab))
    virgin = FocusCVAE(cfg_c, np.random.default_rng([cfg_c.seed, 0]))
    gap0 = ev.evaluate(virgin, vocab, test_recs, 3, 0, max_len).metrics[
        "mean_alignment_gap"]

    runs, reports = {}, {}
    for variant in ("focconstrain", "foccoverage", "s2s"):
        runs[variant] = tr.train(desk_config(variant, len(vocab)), pairs,
                                 out_dir=base / variant)
        reports[variant] = ev.evaluate(runs[variant].model, vocab, test_recs,
                                       3, 0, max_len, out_dir=base / variant)

    # same recipe twice over for the determinism criterion
    rerun = tr.train(cfg_c, pairs, out_dir=base / "rerun")

    # interrupted at step 500, then resumed for one step
    short = tr.train(dataclasses.replace(cfg_c, total_steps=500), pairs,
                     out_dir=base / "interrupted")
    state = tr.load_checkpoint(short.checkpoint_path)
    resumed = tr.train(dataclasses.replace(cfg_c, total_steps=501), pairs,
                       out_dir=base / "interrupted", resume=state)

    return SimpleNamespace(
        vocab=vocab, test_recs=test_recs, max_len=max_len, base=base,
        posts=[vocab.encode(r.post) for r in test_recs],
        gap0=gap0, runs=runs, reports=reports, rerun=rerun, resumed=resumed,
        elapsed=time.time() - t0)


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def random_micro_model(rng, variant):
    cfg = TrainConfig(variant=variant, vocab_size=7, d_h=int(rng.choice([4, 8])),
                      d_z=4, batch_size=2, init_scale=0.3, seed=int(rng.integers(1 << 16)))
    return FocusCVAE(cfg, np.random.default_rng(int(rng.integers(1 << 16))))


def random_batch(rng, vocab=7, max_post=6, max_resp=5):
    pairs = []
    for _ in range(int(rng.integers(2, 5))):
        post = rng.integers(3, vocab, size=int(rng.integers(2, max_post + 1)))
        resp = np.concatenate([rng.integers(3, vocab, size=int(rng.integers(1, max_resp))),
                               [EOS_ID]])
        pairs.append(PostResponsePair(post.astype(np.int64), resp.astype(np.int64)))
    return collate(pairs)


def test_criterion_1_full_model_gradient_check():
    t0 = time.time()
    rep = tr.micro_gradcheck("focconstrain", seed=1, h=1e-5, tol=1e-4)
    elapsed = time.time() - t0
    report("criterion 1",
           rep.passed and elapsed < 60.0,
           f"all {len(rep.entries)} parameters within rel tol 1e-4 "
           f"(max {rep.max_rel_err:.2e}) in {elapsed:.1f}s")


def test_criterion_2_distribution_invariants():
    rng = np.random.default_rng(202)
    checked = 0
    for i in range(1000):
        model = random_micro_model(rng, VARIANT_CYCLE[i % 4])
        batch = random_batch(rng)
        latent = uses_latent(model.cfg.variant)
        eps = rng.standard_normal((batch.size, model.cfg.d_z)) if latent else None
        fp = model.forward_train(batch, eps)

        pad = ~batch.post_mask
        if fp.focus is not None:
            f = fp.focus.data
            assert np.all(np.abs(f.sum(axis=1) - 1.0) <= 1e-9), "focus must sum to 1"
            assert np.all(f[pad] == 0.0), "focus must be exactly 0 at PAD"

        # replay coverage from the recorded per-step attention rows
        running = np.zeros_like(fp.coverage.data)
        steps_taken = np.zeros(batch.size)
        for t, alpha in enumerate(fp.alphas):
            a = alpha.data
            assert np.all(np.abs(a.sum(axis=1) - 1.0) <= 1e-9), "attention must sum to 1"
            assert np.all(a[pad] == 0.0), "attention must be exactly 0 at PAD"
            update = batch.resp_mask[:, t].astype(np.float64)
            nxt = running + a * update[:, None]
            assert np.all(nxt >= running - 1e-15), "coverage must be nondecreasing"
            running = nxt
            steps_taken += update
            assert np.all(np.abs(running.sum(axis=1) - steps_taken) <= 1e-6), \
                "coverage total must equal steps taken"
        np.testing.assert_allclose(running, fp.coverage.data, atol=1e-9)
        checked += 1
    report("criterion 2", checked == 1000,
           f"{checked} forward passes; focus/attention rows sum to 1 +/- 1e-9 with "
           f"exact PAD zeros; coverage totals within 1e-6 and entrywise monotone")


def test_criterion_3_loss_identities():
    rng = np.random.default_rng(303)
    for i in range(1000):
        variant = VARIANT_CYCLE[i % 4]
        model = random_micro_model(rng, variant)
        batch = random_batch(rng)
        eps = (rng.standard_normal((batch.size, model.cfg.d_z))
               if uses_latent(variant) else None)
        gamma = float(rng.uniform(0.0, 1.0))
        _, b = tr.total_loss(model, batch, eps, gamma)
        assert abs(b.total - (b.l_seq + b.l_foc + b.gamma * b.l_kl + b.l_bow)) < 1e-9
        assert b.l_kl >= -1e-9 and b.l_foc >= 0.0 and b.l_seq >= 0.0 and b.l_bow >= 0.0

    for _ in range(200):
        mu = rng.normal(size=(3, 5))
        lv = rng.uniform(-3, 3, size=(3, 5))
        q = GaussianParams(Tensor(mu), Tensor(lv))
        same = GaussianParams(Tensor(mu.copy()), Tensor(lv.copy()))
        assert np.all(np.abs(kl_divergence(q, same).data) <= 1e-12)

    for _ in range(50):
        f = rng.dirichlet(np.ones(4), size=3)
        # power-of-two lengths keep cov / len == f bitwise
        lengths = 2 ** rng.integers(0, 3, size=3)
        cov = Tensor(f * lengths[:, None].astype(np.float64))
        assert tr.focus_loss(cov, lengths, Tensor(f.copy())).item() == 0.0

    report("criterion 3", True,
           "1000 batches: breakdown sums within 1e-9, l_kl >= -1e-9; "
           "kl(q,q) <= 1e-12 per dim; matched coverage/focus costs exactly 0")


def test_criterion_4_schedule_conformance():
    ok = tr.lr_schedule(8000, 8000, 0.0008) == 0.0008
    probes = np.random.default_rng(404).integers(1, 40_000, size=50)
    for step in probes:
        step = int(step)
        expected = (0.0008 * step / 8000 if step <= 8000
                    else 0.0008 * math.sqrt(8000 / step))
        ok &= abs(tr.lr_schedule(step, 8000, 0.0008) - expected) <= 1e-12
    anneal = [tr.kl_anneal(s, 500) for s in range(0, 1200)]
    ok &= anneal[0] == 0.0 and anneal[500] == 1.0 and anneal[-1] == 1.0
    ok &= all(b >= a for a, b in zip(anneal, anneal[1:]))
    report("criterion 4", ok,
           "lr(8000; warmup 8000, peak 8e-4) = 8e-4; 50 probes match closed "
           "forms to 1e-12; anneal 0 -> 1, monotone, saturating")


def test_criterion_5_alignment_gap_ordering(desk):
    gap_c = desk.reports["focconstrain"].metrics["mean_alignment_gap"]
    gap_v = desk.reports["foccoverage"].metrics["mean_alignment_gap"]
    ok = gap_c < gap_v and gap_c <= 0.5 * desk.gap0 and desk.elapsed < 1800
    report("criterion 5", ok,
           f"focus-constrained gap {gap_c:.3e} < coverage-only {gap_v:.3e}; "
           f"{gap_c / desk.gap0:.1%} of its untrained value {desk.gap0:.3e} "
           f"(<=50% required); experiment took {desk.elapsed / 60:.1f} min")


def test_criterion_6_diversity_ordering(desk):
    d_c = desk.reports["focconstrain"].metrics["inter_dist_2"]
    d_s = desk.reports["s2s"].metrics["inter_dist_2"]
    by_post = {}
    for row in desk.reports["s2s"].samples:
        by_post.setdefault(row.post_id, set()).add(row.token_ids)
    all_same = all(len(v) == 1 for v in by_post.values())
    report("criterion 6", d_c > d_s and all_same,
           f"inter-dist-2 {d_c:.4f} (focconstrain) > {d_s:.4f} (s2s); "
           f"s2s emitted identical triples for all {len(by_post)} posts")


def scored(metric, *groups_then_n):
    """metric over groups of raw sequences, the group lists counted together
    up to n, so that hypotheses and references share their n-gram ids."""
    *groups, n = groups_then_n
    return metric(*ev.count_groups(groups, n), n)


def test_criterion_7_metric_oracles():
    rng = np.random.default_rng(707)
    for _ in range(100):
        groups = [[tuple(rng.integers(0, 5, size=rng.integers(1, 6)).tolist())
                   for _ in range(int(rng.integers(1, 4)))]
                  for _ in range(int(rng.integers(1, 5)))]
        for n in (1, 2):
            pooled = Counter()
            per_group = []
            for g in groups:
                local = Counter()
                for s in g:
                    local.update(tuple(s[i:i + n]) for i in range(len(s) - n + 1))
                pooled.update(local)
                if sum(local.values()):
                    per_group.append(len(local) / sum(local.values()))
            if sum(pooled.values()) == 0:
                continue
            assert scored(ev.inter_dist, groups, n) == len(pooled) / sum(pooled.values())
            assert scored(ev.intra_dist, groups, n) == pytest.approx(
                float(np.mean(per_group)), abs=1e-15)

    hyps, refs = [[("a", "b", "c")]], [[("a", "b", "d")]]
    b1 = scored(ev.multi_bleu, hyps, refs, 1)
    b2 = scored(ev.multi_bleu, hyps, refs, 2)
    perfect = scored(ev.multi_bleu, [[("x", "y")]], [[("x", "y")]], 2)
    ok = (abs(b1 - 2 / 3) <= 1e-9 and abs(b2 - math.sqrt(1 / 3)) <= 1e-9
          and perfect == 1.0)
    report("criterion 7", ok,
           f"dist == naive recount on 100 cases; BLEU-1 {b1:.6f} == 2/3, "
           f"BLEU-2 {b2:.6f} == sqrt(1/3), identical pair == 1.0")


def test_criterion_8_determinism_and_exact_resume(desk):
    main_log = (desk.base / "focconstrain" / "loss_log.csv").read_bytes()
    rerun_log = (desk.base / "rerun" / "loss_log.csv").read_bytes()
    logs_equal = main_log == rerun_log

    main_row_500 = desk.runs["focconstrain"].rows[500]
    resumed_row = desk.resumed.rows[-1]
    resume_exact = (resumed_row == main_row_500
                    and resumed_row.startswith("500,"))
    report("criterion 8", logs_equal and resume_exact,
           f"two identically seeded runs: {len(main_log)}-byte loss logs "
           f"compare equal; save/load/resume reproduced the uninterrupted "
           f"step-500 row verbatim ({resumed_row.split(',')[-1]} total)")


# -- trained-model behaviors (measured on criterion 5's focconstrain run) ----


def test_trained_focus_argmax_moves_with_the_latent(desk):
    model = desk.runs["focconstrain"].model
    sub = desk.posts[:200]
    gen = ev.generate_samples(model, sub, 3, 0, desk.max_len)
    vary = sum(
        1 for i in range(len(sub))
        if len({int(np.argmax(gen[(i, j)].focus)) for j in range(3)}) >= 2)
    report("focus variation", vary / len(sub) >= 0.30,
           f"focus argmax differs between samples on {vary}/{len(sub)} posts "
           f"(>=30% required)")


def test_trained_content_matches_the_focused_slot(desk):
    model = desk.runs["focconstrain"].model
    vocab = desk.vocab
    sub = desk.posts[:200]
    gen = ev.generate_samples(model, sub, 3, 0, desk.max_len)
    hits = 0
    for i, post in enumerate(sub):
        tokens = vocab.decode(post.tolist())
        g = gen[(i, 0)]
        tok = tokens[int(np.argmax(g.focus))]
        if tok.startswith("kw"):
            want = vocab.encode([content_for_keyword(tok)])[0]
            hits += want in g.token_ids
    report("slot match", hits / len(sub) >= 0.60,
           f"generated content token named the argmax-focus keyword on "
           f"{hits}/{len(sub)} posts (>=60% required)")


def test_focus_penalty_halves_during_training(desk):
    rows = desk.runs["focconstrain"].rows
    foc0 = float(rows[0].split(",")[2])
    foc2000 = float(rows[2000].split(",")[2])
    report("focus penalty decay", foc2000 <= 0.5 * foc0,
           f"l_foc {foc0:.3e} at step 0 -> {foc2000:.3e} at step 2000 "
           f"({foc2000 / foc0:.1%}, <=50% required)")


def test_alignment_gap_equals_brute_force_recount(desk):
    model = desk.runs["focconstrain"].model
    gen = ev.generate_samples(model, desk.posts, 3, 0, desk.max_len)
    recounted = []
    for (_, _), res in sorted(gen.items()):
        total = 0.0
        for pos in range(len(res.focus)):
            diff = res.coverage[pos] / res.length - res.focus[pos]
            total += diff * diff
        d = math.sqrt(total)
        assert d == res.alignment_gap
        recounted.append(d)
    reported = desk.reports["focconstrain"].metrics["mean_alignment_gap"]
    ok = float(np.mean(recounted)) == reported
    report("alignment recount", ok,
           f"mean over {len(recounted)} generations recomputed token by "
           f"token: {reported:.6e}, equal bitwise")
