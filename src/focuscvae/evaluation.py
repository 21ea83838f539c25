"""The sampler, corpus-level generation metrics and the held-out evaluation driver.

BLEU here is the corpus variant: n-gram counts are clipped against the
per-post reference maximum, pooled over every generated sample, with the
closest-reference-length brevity penalty and no smoothing (a zero n-gram
precision zeroes the score).  Diversity is measured as distinct n-gram
ratios, both per post (intra) and pooled over the whole set (inter).
"""

from __future__ import annotations

import csv
import json
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, NamedTuple

import numpy as np

from .config import uses_latent
from .corpus import EOS_ID, PAD_ID, PostRecord, Vocabulary
from .decoder import GenerationResult
from .errors import CompatibilityError, EvaluationError, ValidationError
from .model import FocusCVAE

Seq = tuple[int, ...]


def ngram_counts(seq, n: int) -> Counter:
    return Counter(tuple(seq[i:i + n]) for i in range(len(seq) - n + 1))


class NGrams(NamedTuple):
    """A sequence's length and n-gram counts; by_n[n - 1] counts its n-grams."""

    length: int
    by_n: tuple[Counter, ...]


def count_groups(groups: list[list[Seq]], max_n: int) -> list[list[NGrams]]:
    """Counts every sequence's n-grams for n = 1..max_n."""
    return [[NGrams(len(s), tuple(ngram_counts(s, n) for n in range(1, max_n + 1)))
             for s in g] for g in groups]


def multi_bleu(hyps_per_post: list[list[NGrams]], refs_per_post: list[list[NGrams]],
               max_n: int) -> float:
    """Corpus BLEU-max_n of every hypothesis against its post's references,
    both counted by count_groups up to at least max_n."""
    if max_n < 1:
        raise ValidationError("max_n must be at least 1")
    if len(hyps_per_post) != len(refs_per_post):
        raise ValidationError(
            f"{len(hyps_per_post)} hypothesis groups vs {len(refs_per_post)} reference groups")
    if not hyps_per_post:
        raise ValidationError("nothing to score")

    clipped = [0] * max_n
    total = [0] * max_n
    hyp_len = 0
    ref_len = 0
    for hyps, refs in zip(hyps_per_post, refs_per_post):
        if not refs:
            raise ValidationError("every post needs at least one reference")
        ref_caps = [Counter() for _ in range(max_n)]
        for r in refs:
            for n in range(max_n):
                for g, c in r.by_n[n].items():
                    if c > ref_caps[n][g]:
                        ref_caps[n][g] = c
        for h in hyps:
            hyp_len += h.length
            # closest reference length; ties resolved toward the shorter
            ref_len += min((abs(r.length - h.length), r.length) for r in refs)[1]
            for n in range(max_n):
                counts = h.by_n[n]
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


def _distinct_ratio(counted: Iterable[NGrams], n: int) -> float | None:
    """Distinct / total n-grams over the pooled sequences; None if no n-grams."""
    pooled = Counter()
    for c in counted:
        pooled.update(c.by_n[n - 1])
    total = sum(pooled.values())
    return len(pooled) / total if total else None


def intra_dist(groups: list[list[NGrams]], n: int) -> float:
    """Mean per-group distinct ratio; groups without n-grams are skipped."""
    ratios = [r for g in groups if (r := _distinct_ratio(g, n)) is not None]
    if not ratios:
        raise EvaluationError(f"no {n}-grams anywhere, intra-dist undefined")
    return float(np.mean(ratios))


def inter_dist(groups: list[list[NGrams]], n: int) -> float:
    """Distinct ratio over all groups pooled together."""
    ratio = _distinct_ratio((c for g in groups for c in g), n)
    if ratio is None:
        raise EvaluationError(f"no {n}-grams anywhere, inter-dist undefined")
    return ratio


def strip_terminals(token_ids: list[int]) -> Seq:
    return tuple(t for t in token_ids if t not in (EOS_ID, PAD_ID))


@dataclass
class SampleRow:
    post_id: int
    sample_id: int
    token_ids: Seq
    alignment_gap: float | None


@dataclass
class EvalReport:
    metrics: dict
    samples: list[SampleRow]

    def canonical_json(self) -> str:
        rounded = {k: (round(v, 6) if isinstance(v, float) else v)
                   for k, v in self.metrics.items()}
        return json.dumps(rounded, sort_keys=True, separators=(",", ":"))


def generate_samples(model: FocusCVAE, posts: list[np.ndarray], n_samples: int,
                     seed: int, max_len: int, chunk_rows: int = 192
                     ) -> dict[tuple[int, int], GenerationResult]:
    """Greedy samples for every (post i, sample j) job, batched in row chunks.

    Jobs run in (i, j) order, chunk_rows at a time.  A chunk encodes each of
    its distinct posts once, padded to the chunk's longest post, and decodes
    one row per job.  Latent noise for job (i, j) comes from the stream
    [seed, 3, i, j], whatever the chunking and the other posts.  The
    arithmetic is not as free: BLAS may round differently with the chunk's
    width and row count, so results are byte-reproducible for a fixed
    chunk_rows, while across chunk sizes the floats can differ in their last
    bits (and a token with them, at a near tie).
    """
    if n_samples < 1 or max_len < 1 or chunk_rows < 1:
        raise ValidationError("n_samples, max_len and chunk_rows must be positive")
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    jobs = [(i, j) for i in range(len(posts)) for j in range(n_samples)]
    latent = uses_latent(model.cfg.variant)
    results = {}
    for lo in range(0, len(jobs), chunk_rows):
        part = jobs[lo:lo + chunk_rows]
        # jobs come in post order, so the sorted distinct posts are in order
        # of first appearance
        distinct, row_post = np.unique([i for i, _ in part], return_inverse=True)
        width = max(len(posts[i]) for i in distinct)
        ids = np.full((len(distinct), width), PAD_ID, dtype=np.int64)
        mask = np.zeros((len(distinct), width), dtype=bool)
        for u, i in enumerate(distinct):
            ids[u, :len(posts[i])] = posts[i]
            mask[u, :len(posts[i])] = True
        eps = None
        if latent:
            eps = np.stack([
                np.random.default_rng([seed, 3, i, j]).standard_normal(model.cfg.d_z)
                for i, j in part])
        for (i, j), res in zip(part, model.generate_rows(ids, mask, row_post, eps, max_len)):
            results[(i, j)] = res
    return results


def evaluate(model: FocusCVAE, vocab: Vocabulary, records: list[PostRecord],
             n_samples: int, seed: int, max_len: int, out_dir=None,
             chunk_rows: int = 192) -> EvalReport:
    """Generate n_samples responses per post and score the whole set.

    Latent noise is a pure function of (seed, post index, sample index), so
    a rerun reproduces the report byte for byte.
    """
    if len(vocab) != model.cfg.vocab_size:
        raise CompatibilityError(
            f"vocabulary of {len(vocab)} vs model trained for {model.cfg.vocab_size}")
    if not records:
        raise ValidationError("evaluation needs at least one post")

    posts = [vocab.encode(r.post) for r in records]
    refs_per_post = [[tuple(vocab.encode(resp)) for resp in r.responses] for r in records]
    samples: list[SampleRow] = []
    hyps_per_post: list[list[Seq]] = [[] for _ in posts]
    # no name holds the generation results, so they are freed after this loop,
    # before the n-gram counts below are built; that bounds peak memory
    for (i, j), res in sorted(generate_samples(
            model, posts, n_samples, seed, max_len, chunk_rows).items()):
        hyp = strip_terminals(res.token_ids)
        hyps_per_post[i].append(hyp)
        samples.append(SampleRow(i, j, hyp, res.alignment_gap))

    gaps = [s.alignment_gap for s in samples if s.alignment_gap is not None]
    lengths = [len(h) for g in hyps_per_post for h in g]
    # each sequence is counted once for all six scores
    hyp_counts = count_groups(hyps_per_post, 2)
    ref_counts = count_groups(refs_per_post, 2)
    metrics = {
        "variant": model.cfg.variant,
        "n_posts": len(posts),
        "n_samples": n_samples,
        "max_len": max_len,
        "bleu_1": multi_bleu(hyp_counts, ref_counts, 1),
        "bleu_2": multi_bleu(hyp_counts, ref_counts, 2),
        "intra_dist_1": intra_dist(hyp_counts, 1),
        "intra_dist_2": intra_dist(hyp_counts, 2),
        "inter_dist_1": inter_dist(hyp_counts, 1),
        "inter_dist_2": inter_dist(hyp_counts, 2),
        "mean_alignment_gap": float(np.mean(gaps)) if gaps else None,
        "mean_length": float(np.mean(lengths)),
    }
    report = EvalReport(metrics, samples)

    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.json").write_text(report.canonical_json() + "\n")
        with open(out / "samples.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["post_id", "sample_id", "tokens", "alignment_gap"])
            for row in samples:
                gap = "" if row.alignment_gap is None else repr(row.alignment_gap)
                writer.writerow([row.post_id, row.sample_id,
                                 " ".join(vocab.decode(list(row.token_ids))), gap])
    return report
