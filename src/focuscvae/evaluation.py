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
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .config import uses_latent
from .corpus import EOS_ID, PAD_ID, PostRecord, Vocabulary
from .decoder import GenerationResult
from .errors import CompatibilityError, ValidationError
from .model import FocusCVAE

Seq = tuple[int, ...]


class NGrams(NamedTuple):
    """Sequences in groups with every n-gram, n = 1..max_n, coded as an integer id.

    Sequence s belongs to group group[s] (nondecreasing) and has length[s]
    tokens.  grams[n - 1] holds (sequence, gram id) arrays with one entry
    per n-gram occurrence, and every id of order n is below n_ids[n - 1].
    An id names the same n-gram in every NGrams of one count_groups call;
    those share their `tokens`, the distinct tokens in code order.
    """

    tokens: np.ndarray
    n_groups: int
    group: np.ndarray
    length: np.ndarray
    grams: tuple[tuple[np.ndarray, np.ndarray], ...]
    n_ids: tuple[int, ...]


def count_groups(group_lists: list[list[list[Seq]]], max_n: int) -> list[NGrams]:
    """Codes the n-grams, n = 1..max_n, of every sequence of every list of
    groups, with ids shared across the lists; one NGrams per list.

    Tokens are all ints or all strs.  Each order costs one np.unique over
    the (n-1)-gram id and the next token of every position that starts an
    n-gram.
    """
    if max_n < 1:
        raise ValidationError("max_n must be at least 1")
    seqs = [s for groups in group_lists for g in groups for s in g]
    length = np.fromiter(map(len, seqs), dtype=np.int64, count=len(seqs))
    tokens, code = np.unique(np.array(list(chain.from_iterable(seqs))), return_inverse=True)
    seq = np.repeat(np.arange(len(seqs)), length)
    # tokens from each position to the end of its sequence, itself included
    left = np.repeat(np.cumsum(length), length) - np.arange(len(code))
    pos, ids = np.arange(len(code)), code
    grams, n_ids = [(seq, code)], [len(tokens)]
    for n in range(2, max_n + 1):
        starts = left[pos] >= n
        pos = pos[starts]
        distinct, ids = np.unique(ids[starts] * len(tokens) + code[pos + n - 1],
                                  return_inverse=True)
        grams.append((seq[pos], ids))
        n_ids.append(len(distinct))

    out, first = [], 0
    for groups in group_lists:
        sizes = [len(g) for g in groups]
        last = first + sum(sizes)
        own = []
        for seq_of, gram_id in grams:
            lo, hi = np.searchsorted(seq_of, [first, last])
            own.append((seq_of[lo:hi] - first, gram_id[lo:hi]))
        out.append(NGrams(tokens, len(groups), np.repeat(np.arange(len(groups)), sizes),
                          length[first:last], tuple(own), tuple(n_ids)))
        first = last
    return out


def _check_order(counted: NGrams, n: int) -> None:
    if not 1 <= n <= len(counted.grams):
        raise ValidationError(f"order {n} outside the counted 1..{len(counted.grams)}")


def _clipped(hyps: NGrams, refs: NGrams, n: int) -> int:
    """Sum over hypotheses and their n-grams of min(count, the largest count
    in one reference of the hypothesis's post)."""
    k = hyps.n_ids[n - 1]
    r_seq, r_gram = refs.grams[n - 1]
    per_ref, r_counts = np.unique(r_seq * k + r_gram, return_counts=True)
    cap_keys, at = np.unique(refs.group[per_ref // k] * k + per_ref % k, return_inverse=True)
    if not len(cap_keys):
        return 0
    caps = np.zeros(len(cap_keys), dtype=np.int64)
    np.maximum.at(caps, at, r_counts)
    h_seq, h_gram = hyps.grams[n - 1]
    per_hyp, h_counts = np.unique(h_seq * k + h_gram, return_counts=True)
    keys = hyps.group[per_hyp // k] * k + per_hyp % k
    at = np.minimum(np.searchsorted(cap_keys, keys), len(cap_keys) - 1)
    cap = np.where(cap_keys[at] == keys, caps[at], 0)
    return int(np.minimum(h_counts, cap).sum())


def _closest_ref_len(hyps: NGrams, refs: NGrams) -> int:
    """Sum over hypotheses of the closest reference length in their post;
    ties go to the shorter reference."""
    ref_count = np.bincount(refs.group, minlength=refs.n_groups)
    per_hyp = ref_count[hyps.group]
    block = np.cumsum(per_hyp) - per_hyp  # each hypothesis's first (hyp, ref) pair
    first_ref = (np.cumsum(ref_count) - ref_count)[hyps.group]
    pair_ref = np.repeat(first_ref - block, per_hyp) + np.arange(block[-1] + per_hyp[-1])
    ref_len = refs.length[pair_ref]
    wide = int(ref_len.max()) + 1
    key = np.abs(ref_len - np.repeat(hyps.length, per_hyp)) * wide + ref_len
    return int((np.minimum.reduceat(key, block) % wide).sum())


def multi_bleu(hyps: NGrams, refs: NGrams, max_n: int) -> float:
    """Corpus BLEU-max_n of every hypothesis against its post's references,
    both counted by one count_groups call up to at least max_n."""
    if max_n < 1:
        raise ValidationError("max_n must be at least 1")
    if hyps.n_groups != refs.n_groups:
        raise ValidationError(
            f"{hyps.n_groups} hypothesis groups vs {refs.n_groups} reference groups")
    if not hyps.n_groups:
        raise ValidationError("nothing to score")
    if hyps.tokens is not refs.tokens:
        raise ValidationError("hypotheses and references were counted by different calls")
    _check_order(hyps, max_n)
    if not np.bincount(refs.group, minlength=refs.n_groups).all():
        raise ValidationError("every post needs at least one reference")

    hyp_len = int(hyps.length.sum())
    if hyp_len == 0:
        return 0.0
    log_sum = 0.0
    for n in range(1, max_n + 1):
        total = len(hyps.grams[n - 1][0])
        clipped = _clipped(hyps, refs, n) if total else 0
        if clipped == 0:
            return 0.0
        log_sum += math.log(clipped / total)
    brevity = math.exp(min(0.0, 1.0 - _closest_ref_len(hyps, refs) / hyp_len))
    return brevity * math.exp(log_sum / max_n)


def intra_dist(groups: NGrams, n: int) -> float | None:
    """Mean over groups of distinct / total n-grams; groups without n-grams
    are skipped, and None if no group has one."""
    _check_order(groups, n)
    seq, gram = groups.grams[n - 1]
    if not len(seq):
        return None
    k = groups.n_ids[n - 1]
    group = groups.group[seq]
    total = np.bincount(group, minlength=groups.n_groups)
    distinct = np.bincount(np.unique(group * k + gram) // k, minlength=groups.n_groups)
    has = total > 0
    return float(np.mean(distinct[has] / total[has]))


def inter_dist(groups: NGrams, n: int) -> float | None:
    """Distinct / total n-grams over all groups pooled together; None if
    there are no n-grams."""
    _check_order(groups, n)
    gram = groups.grams[n - 1][1]
    return len(np.unique(gram)) / len(gram) if len(gram) else None


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


def _words(n: int) -> list[int]:
    """n as SeedSequence reads an int: its 32-bit words, least significant first."""
    words = [n & 0xFFFFFFFF]
    while n >> 32:
        n >>= 32
        words.append(n & 0xFFFFFFFF)
    return words


def generate_samples(model: FocusCVAE, posts: list[np.ndarray], n_samples: int,
                     seed: int, max_len: int, chunk_rows: int = 192
                     ) -> dict[tuple[int, int], GenerationResult]:
    """Greedy samples for every (post i, sample j) job, batched in row chunks.

    Jobs run in (i, j) order, chunk_rows at a time.  A chunk encodes each of
    its distinct posts once, padded to the chunk's longest post, and decodes
    one row per job.  Latent noise for job (i, j) comes from the stream
    [seed, 3, i, j], whatever the chunking and the other posts; each job
    hands SeedSequence the uint32 words it would build from that list.  The
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
    prefix = _words(seed) + [3]
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
            eps = np.stack([np.random.default_rng(
                np.array(prefix + _words(i) + _words(j), dtype=np.uint32)
            ).standard_normal(model.cfg.d_z) for i, j in part])
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
    refs_per_post = [[vocab.encode(resp).tolist() for resp in r.responses] for r in records]
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
    # each sequence is counted once for all six scores; a distinct-n is None
    # when no sample has an n-gram
    hyp_counts, ref_counts = count_groups([hyps_per_post, refs_per_post], 2)
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
                # argmax ids are always in range, so no decode check is needed
                writer.writerow([row.post_id, row.sample_id,
                                 " ".join(vocab.id_to_token[t] for t in row.token_ids), gap])
    return report
