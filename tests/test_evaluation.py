"""Metric oracles and the evaluation driver."""

import json
import math
from collections import Counter

import numpy as np
import pytest

from focuscvae import evaluation as ev
from focuscvae import model as model_module
from focuscvae.config import TrainConfig
from focuscvae.corpus import PAD_ID, generate_synthetic, split_records, to_pairs
from focuscvae.errors import CompatibilityError, ValidationError
from focuscvae.model import FocusCVAE

SQRT_THIRD = 0.5773502691896258


def scored(metric, *groups_then_n):
    """metric over groups of raw sequences, each group list counted up to n."""
    *groups, n = groups_then_n
    return metric(*(ev.count_groups(g, n) for g in groups), n)


def naive_bleu(hyps_per_post, refs_per_post, max_n):
    """Straight-line recount used as an oracle against the real routine."""
    precisions = []
    for n in range(1, max_n + 1):
        num = den = 0
        for hyps, refs in zip(hyps_per_post, refs_per_post):
            for h in hyps:
                grams = [tuple(h[i:i + n]) for i in range(len(h) - n + 1)]
                den += len(grams)
                for g in set(grams):
                    cap = max(sum(1 for k in range(len(r) - n + 1)
                                  if tuple(r[k:k + n]) == g) for r in refs)
                    num += min(grams.count(g), cap)
        if den == 0 or num == 0:
            return 0.0
        precisions.append(num / den)
    c = sum(len(h) for hyps in hyps_per_post for h in hyps)
    if c == 0:
        return 0.0
    r = 0
    for hyps, refs in zip(hyps_per_post, refs_per_post):
        for h in hyps:
            r += min((abs(len(x) - len(h)), len(x)) for x in refs)[1]
    bp = math.exp(min(0.0, 1.0 - r / c))
    return bp * math.exp(sum(math.log(p) for p in precisions) / max_n)


class TestBleu:
    def test_frozen_single_pair(self):
        hyps = [[("a", "b", "c")]]
        refs = [[("a", "b", "d")]]
        assert scored(ev.multi_bleu, hyps, refs, 1) == pytest.approx(2 / 3, abs=1e-9)
        assert scored(ev.multi_bleu, hyps, refs, 2) == pytest.approx(SQRT_THIRD, abs=1e-9)

    def test_exact_match_scores_one(self):
        hyps = [[(1, 2, 3)], [(4, 5)]]
        refs = [[(1, 2, 3)], [(4, 5), (9, 9, 9)]]
        assert scored(ev.multi_bleu, hyps, refs, 2) == pytest.approx(1.0, abs=1e-12)

    def test_zero_precision_means_zero(self):
        assert scored(ev.multi_bleu, [[(7, 8)]], [[(1, 2)]], 1) == 0.0
        # unigrams overlap but no bigram does: still zero, no smoothing
        assert scored(ev.multi_bleu, [[(1, 9, 2)]], [[(1, 2)]], 2) == 0.0

    def test_brevity_penalty_uses_closest_reference(self):
        hyps = [[(1,)]]
        refs = [[(1, 1, 1, 1), (1, 1)]]
        # closest ref has length 2: BP = exp(1 - 2/1)
        expected = math.exp(-1.0)
        assert scored(ev.multi_bleu, hyps, refs, 1) == pytest.approx(expected, abs=1e-12)

    def test_clipping_caps_repeats(self):
        hyps = [[(1, 1, 1, 1)]]
        refs = [[(1, 1)]]
        # long hypothesis: no brevity penalty, clipped precision 2/4
        assert scored(ev.multi_bleu, hyps, refs, 1) == pytest.approx(0.5, abs=1e-12)

    def test_matches_naive_recount_on_random_cases(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            n_posts = int(rng.integers(1, 5))
            refs, hyps = [], []
            for _ in range(n_posts):
                refs.append([tuple(rng.integers(0, 6, size=rng.integers(1, 7)).tolist())
                             for _ in range(int(rng.integers(1, 4)))])
                hyps.append([tuple(rng.integers(0, 6, size=rng.integers(0, 7)).tolist())
                             for _ in range(int(rng.integers(1, 4)))])
            for n in (1, 2):
                assert scored(ev.multi_bleu, hyps, refs, n) == pytest.approx(
                    naive_bleu(hyps, refs, n), abs=1e-12)

    def test_empty_hypotheses_score_zero(self):
        assert scored(ev.multi_bleu, [[()]], [[(1, 2)]], 2) == 0.0

    def test_validation(self):
        with pytest.raises(ValidationError):
            scored(ev.multi_bleu, [], [], 1)
        with pytest.raises(ValidationError):
            scored(ev.multi_bleu, [[(1,)]], [[]], 1)
        with pytest.raises(ValidationError):
            scored(ev.multi_bleu, [[(1,)]], [[(1,)], [(2,)]], 1)


class TestDistinct:
    def test_frozen_pooled_values(self):
        group = [("a", "b"), ("a", "c"), ("a", "b")]
        assert scored(ev.inter_dist, [group], 1) == pytest.approx(0.5, abs=1e-12)
        assert scored(ev.inter_dist, [group], 2) == pytest.approx(2 / 3, abs=1e-12)
        # one group only, so intra equals inter here
        assert scored(ev.intra_dist, [group], 1) == pytest.approx(0.5, abs=1e-12)

    def test_intra_is_the_mean_over_posts(self):
        groups = [[(1, 1)], [(1, 2)]]  # ratios 0.5 and 1.0
        assert scored(ev.intra_dist, groups, 1) == pytest.approx(0.75, abs=1e-12)

    def test_inter_pools_before_dividing(self):
        groups = [[(1, 2)], [(1, 2)]]
        assert scored(ev.inter_dist, groups, 1) == pytest.approx(0.5, abs=1e-12)

    def test_short_sequences_are_skipped_for_higher_n(self):
        groups = [[(1,)], [(1, 2)]]
        assert scored(ev.intra_dist, groups, 2) == pytest.approx(1.0, abs=1e-12)

    def test_matches_naive_recount_on_random_cases(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            groups = [[tuple(rng.integers(0, 5, size=rng.integers(1, 6)).tolist())
                       for _ in range(int(rng.integers(1, 4)))]
                      for _ in range(int(rng.integers(1, 4)))]
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
                assert scored(ev.inter_dist, groups, n) == pytest.approx(
                    len(pooled) / sum(pooled.values()), abs=1e-12)
                assert scored(ev.intra_dist, groups, n) == pytest.approx(
                    float(np.mean(per_group)), abs=1e-12)


class TestStripTerminals:
    def test_drops_eos_and_pad_only(self):
        assert ev.strip_terminals([5, 6, 2, 0, 0]) == (5, 6)
        assert ev.strip_terminals([2]) == ()
        assert ev.strip_terminals([3, 4]) == (3, 4)


@pytest.fixture(scope="module")
def tiny_world():
    records, vocab = generate_synthetic(seed=11, n_pairs=30)
    train, test = split_records(records, n_test=3, seed=11)
    cfg = TrainConfig(variant="focconstrain", vocab_size=len(vocab), d_h=8, d_z=4,
                      batch_size=4, seed=2)
    model = FocusCVAE(cfg, np.random.default_rng([2, 0]))
    return model, vocab, test


class TestEvaluate:
    def test_report_shape_and_determinism(self, tiny_world, tmp_path):
        model, vocab, test = tiny_world
        rep1 = ev.evaluate(model, vocab, test, n_samples=2, seed=5, max_len=8,
                           out_dir=tmp_path)
        rep2 = ev.evaluate(model, vocab, test, n_samples=2, seed=5, max_len=8)
        assert rep1.canonical_json() == rep2.canonical_json()
        assert len(rep1.samples) == len(test) * 2
        loaded = json.loads((tmp_path / "report.json").read_text())
        assert loaded["n_posts"] == len(test)
        assert 0.0 <= loaded["bleu_2"] <= 1.0
        assert loaded["mean_alignment_gap"] is not None
        lines = (tmp_path / "samples.csv").read_text().splitlines()
        assert lines[0] == "post_id,sample_id,tokens,alignment_gap"
        assert len(lines) == len(test) * 2 + 1

    def test_scores_equal_the_metric_functions(self, tiny_world):
        model, vocab, test = tiny_world
        rep = ev.evaluate(model, vocab, test, n_samples=2, seed=5, max_len=8)
        hyps = [[s.token_ids for s in rep.samples if s.post_id == i] for i in range(len(test))]
        refs = [[tuple(vocab.encode(resp)) for resp in r.responses] for r in test]
        for n in (1, 2):
            assert rep.metrics[f"bleu_{n}"] == scored(ev.multi_bleu, hyps, refs, n)
            assert rep.metrics[f"intra_dist_{n}"] == scored(ev.intra_dist, hyps, n)
            assert rep.metrics[f"inter_dist_{n}"] == scored(ev.inter_dist, hyps, n)

    def test_chunking_does_not_change_results(self, tiny_world):
        model, vocab, test = tiny_world
        a = ev.evaluate(model, vocab, test, n_samples=2, seed=5, max_len=8,
                        chunk_rows=2)
        b = ev.evaluate(model, vocab, test, n_samples=2, seed=5, max_len=8,
                        chunk_rows=500)
        assert a.canonical_json() == b.canonical_json()
        for x, y in zip(a.samples, b.samples):
            assert x.token_ids == y.token_ids

    def test_s2s_report_has_no_alignment(self, tiny_world):
        _, vocab, test = tiny_world
        cfg = TrainConfig(variant="s2s", vocab_size=len(vocab), d_h=8, d_z=4,
                          batch_size=4, seed=2)
        model = FocusCVAE(cfg, np.random.default_rng([2, 0]))
        rep = ev.evaluate(model, vocab, test, n_samples=2, seed=5, max_len=8)
        assert rep.metrics["mean_alignment_gap"] is None
        assert all(s.alignment_gap is None for s in rep.samples)

    def test_vocab_size_mismatch_is_rejected(self, tiny_world):
        model, vocab, test = tiny_world
        cfg = TrainConfig(variant="focconstrain", vocab_size=len(vocab) + 8,
                          d_h=8, d_z=4, batch_size=4, seed=2)
        bigger = FocusCVAE(cfg, np.random.default_rng([2, 0]))
        with pytest.raises(CompatibilityError):
            ev.evaluate(bigger, vocab, test, n_samples=1, seed=0, max_len=4)

    def test_empty_inputs_are_rejected(self, tiny_world):
        model, vocab, _ = tiny_world
        with pytest.raises(ValidationError):
            ev.evaluate(model, vocab, [], n_samples=1, seed=0, max_len=4)

    @pytest.mark.parametrize("n_samples,max_len,chunk_rows", [(0, 4, 8), (1, 0, 8), (1, 4, 0)])
    def test_sampler_rejects_non_positive_sizes(self, tiny_world, n_samples, max_len,
                                                chunk_rows):
        model, vocab, test = tiny_world
        posts = [vocab.encode(r.post) for r in test]
        with pytest.raises(ValidationError):
            ev.generate_samples(model, posts, n_samples, 0, max_len, chunk_rows=chunk_rows)


def expanded_samples(model, posts, n_samples, seed, max_len, chunk_rows):
    """The sampler with one encoded row per job, as a reference."""
    jobs = [(i, j) for i in range(len(posts)) for j in range(n_samples)]
    out = {}
    for lo in range(0, len(jobs), chunk_rows):
        part = jobs[lo:lo + chunk_rows]
        ids, mask = padded([posts[i] for i, _ in part])
        eps = None
        if model.prior is not None:
            eps = np.stack([np.random.default_rng([seed, 3, i, j]).standard_normal(model.cfg.d_z)
                            for i, j in part])
        rows = model.generate_rows(ids, mask, np.arange(len(part)), eps, max_len)
        out.update(zip(part, rows))
    return out


def padded(seqs):
    ids = np.full((len(seqs), max(len(s) for s in seqs)), PAD_ID, dtype=np.int64)
    for r, s in enumerate(seqs):
        ids[r, :len(s)] = s
    return ids, ids != PAD_ID


class TestEncodeOncePerPost:
    POST_LENGTHS = (5, 3, 7, 4)

    def world(self, variant):
        cfg = TrainConfig(variant=variant, vocab_size=12, d_h=8, d_z=4, batch_size=4, seed=2)
        model = FocusCVAE(cfg, np.random.default_rng([2, 0]))
        rng = np.random.default_rng(17)
        posts = [rng.integers(3, 12, size=n) for n in self.POST_LENGTHS]
        return model, posts

    # chunk_rows 4 splits the samples of posts 0, 1 and 2 across two chunks
    @pytest.mark.parametrize("chunk_rows", [4, 192])
    @pytest.mark.parametrize("variant", ["focconstrain", "s2s"])
    def test_matches_an_encode_per_row_bit_for_bit(self, variant, chunk_rows):
        model, posts = self.world(variant)
        got = ev.generate_samples(model, posts, 3, 5, 6, chunk_rows=chunk_rows)
        want = expanded_samples(model, posts, 3, 5, 6, chunk_rows)
        assert list(got) == list(want)
        for job, ref in want.items():
            res = got[job]
            assert res.token_ids == ref.token_ids
            np.testing.assert_array_equal(res.coverage, ref.coverage)
            if ref.focus is None:
                assert res.focus is None and res.alignment_gap is None
            else:
                np.testing.assert_array_equal(res.focus, ref.focus)
                assert res.alignment_gap == ref.alignment_gap

    def test_each_chunk_encodes_its_distinct_posts_once(self, monkeypatch):
        model, posts = self.world("focconstrain")
        encoded = []
        real = model_module.encode

        def spy(ids, mask, *rest):
            encoded.append(np.array(ids))
            return real(ids, mask, *rest)

        monkeypatch.setattr(model_module, "encode", spy)
        ev.generate_samples(model, posts[:3], 3, 0, 4, chunk_rows=4)
        # jobs (0,0) (0,1) (0,2) (1,0) | (1,1) (1,2) (2,0) (2,1) | (2,2)
        chunks = ([0, 1], [1, 2], [2])
        assert len(encoded) == len(chunks)
        for ids, chunk in zip(encoded, chunks):
            np.testing.assert_array_equal(ids, padded([posts[i] for i in chunk])[0])
