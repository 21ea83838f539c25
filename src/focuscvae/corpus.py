"""Synthetic keyword-slot corpus, vocabulary, JSONL persistence, batching.

Each post is a filler sequence with several keyword tokens planted at random
positions.  Only the keywords sitting right after a marker token count as
slots; the rest are distractors whose paired content never appears in any
response.  Every response realizes a small template around the content token
paired with exactly one slot keyword, so a post has several equally valid
responses that differ in which slot they pick up.  `gold_focus_slot` records
that pick per response, which gives evaluation a ground truth for where a
generator should have focused.

The distractors make a wrong focus visible: a response never names an
unmarked keyword's content, so a generator that does has looked at the wrong
position.  They do not hide the slots from a pooled summary: the
bidirectional encoder states record which keywords follow a marker, and a
decoder fed their masked mean plus z can name a marked slot's content with
near-flat attention.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, ParseError, ValidationError

PAD_ID = 0
UNK_ID = 1
EOS_ID = 2

PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"
EOS_TOKEN = "<eos>"

_SPECIALS = (PAD_TOKEN, UNK_TOKEN, EOS_TOKEN)

MARKER_TOKEN = "mk"  # flags the keyword right after it as a slot

# fixed shape of the grammar
N_SLOTS = 2             # marked keywords per post
N_DISTRACTORS = 2       # unmarked keywords per post
RESPONSES_PER_POST = 3
N_OPENERS = 4
N_CLOSERS = 4


class Vocabulary:
    """Dense token <-> id map with pinned special ids 0/1/2."""

    def __init__(self, tokens: list[str]):
        if len(tokens) < 4:
            raise ValidationError(f"vocabulary needs at least 4 tokens, got {len(tokens)}")
        if tuple(tokens[:3]) != _SPECIALS:
            raise ValidationError("vocabulary must start with <pad>, <unk>, <eos>")
        if len(set(tokens)) != len(tokens):
            raise ValidationError("vocabulary has duplicate tokens")
        self.id_to_token = list(tokens)
        self.token_to_id = {t: i for i, t in enumerate(tokens)}

    def __len__(self) -> int:
        return len(self.id_to_token)

    def encode(self, tokens: list[str]) -> np.ndarray:
        return np.array([self.token_to_id.get(t, UNK_ID) for t in tokens], dtype=np.int64)

    def decode(self, ids) -> list[str]:
        out = []
        for i in ids:
            i = int(i)
            if i < 0 or i >= len(self.id_to_token):
                raise ValidationError(f"id {i} outside vocabulary of size {len(self)}")
            out.append(self.id_to_token[i])
        return out

    def save(self, path) -> None:
        Path(path).write_text(json.dumps({"tokens": self.id_to_token}) + "\n")

    @classmethod
    def load(cls, path) -> "Vocabulary":
        payload = read_json(path)
        tokens = payload.get("tokens") if isinstance(payload, dict) else None
        if not isinstance(tokens, list) or not all(isinstance(t, str) for t in tokens):
            raise ParseError(f"{path}: 'tokens' must be a list of strings")
        return cls(tokens)


@dataclass
class PostRecord:
    """One post with its grouped responses (token strings, no EOS stored)."""

    post: list[str]
    responses: list[list[str]]
    gold_focus_slot: list[int] | None = None


@dataclass
class PostResponsePair:
    """Flattened training unit: one post, one EOS-terminated response."""

    post: np.ndarray
    response: np.ndarray
    gold_slot: int | None = None


@dataclass
class Batch:
    post_ids: np.ndarray      # [B, Tx] int64, PAD-padded
    post_mask: np.ndarray     # [B, Tx] bool
    resp_ids: np.ndarray      # [B, Ty] int64, PAD-padded, each row ends with EOS
    resp_mask: np.ndarray     # [B, Ty] bool
    resp_lengths: np.ndarray  # [B] int64, EOS included

    @property
    def size(self) -> int:
        return self.post_ids.shape[0]


@dataclass
class GrammarConfig:
    """Sizes of the synthetic grammar; validated against the vocab budget."""

    vocab_size: int = 64
    post_len: int = 14         # maximum; actual lengths vary
    n_keywords: int = 20

    def validate(self) -> None:
        if N_SLOTS + N_DISTRACTORS > self.n_keywords:
            raise ConfigError(
                f"{N_SLOTS} slots plus {N_DISTRACTORS} distractors need "
                f"at least as many keywords, have {self.n_keywords}")
        # every slot costs two tokens (marker + keyword), plus one filler minimum
        if self.post_len < 2 * N_SLOTS + N_DISTRACTORS + 1:
            raise ConfigError(
                f"post_len {self.post_len} leaves no room for {N_SLOTS} marked slots "
                f"and {N_DISTRACTORS} distractors plus filler")
        reserved = 3 + 1 + 2 * self.n_keywords + N_OPENERS + N_CLOSERS
        if reserved + 1 > self.vocab_size:
            raise ConfigError(
                f"vocab_size {self.vocab_size} too small for grammar needing {reserved} tokens plus filler")


def _grammar_tokens(cfg: GrammarConfig) -> dict[str, list[str]]:
    pools = {
        "keywords": [f"kw{i:02d}" for i in range(cfg.n_keywords)],
        "contents": [f"rc{i:02d}" for i in range(cfg.n_keywords)],
        "openers": [f"op{i}" for i in range(N_OPENERS)],
        "closers": [f"cl{i}" for i in range(N_CLOSERS)],
    }
    used = 3 + 1 + sum(len(v) for v in pools.values())
    pools["fillers"] = [f"fl{i:02d}" for i in range(cfg.vocab_size - used)]
    return pools


def grammar_vocabulary(cfg: GrammarConfig) -> Vocabulary:
    cfg.validate()
    pools = _grammar_tokens(cfg)
    ordered = [MARKER_TOKEN] + pools["keywords"] + pools["contents"] \
        + pools["openers"] + pools["closers"] + pools["fillers"]
    return Vocabulary(list(_SPECIALS) + ordered)


def content_for_keyword(keyword: str) -> str:
    """The response content token paired with a post keyword."""
    if not keyword.startswith("kw"):
        raise ValidationError(f"{keyword!r} is not a keyword token")
    return "rc" + keyword[2:]


def marked_positions(post: list[str]) -> list[int]:
    """Slot keyword positions: keywords directly after a marker, post order."""
    return [i for i, t in enumerate(post)
            if t.startswith("kw") and i > 0 and post[i - 1] == MARKER_TOKEN]


def generate_synthetic(seed: int, n_pairs: int, cfg: GrammarConfig | None = None
                       ) -> tuple[list[PostRecord], Vocabulary]:
    """Deterministically draw `n_pairs` post/response pairs grouped by post.

    Posts are built from shuffled units: marker+keyword for each slot, a bare
    keyword per distractor, single fillers for the rest.  Each post gets
    RESPONSES_PER_POST responses whose gold slots cover at least
    min(N_SLOTS, RESPONSES_PER_POST) distinct slots; remaining responses pick
    a slot uniformly, keeping the marginal uniform.
    """
    cfg = cfg or GrammarConfig()
    cfg.validate()
    if n_pairs < 1:
        raise ConfigError("n_pairs must be positive")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    pools = _grammar_tokens(cfg)
    rng = np.random.default_rng(seed)
    records: list[PostRecord] = []
    n_posts = math.ceil(n_pairs / RESPONSES_PER_POST)

    base = 2 * N_SLOTS + N_DISTRACTORS
    len_lo = max(base + 1, cfg.post_len - 3)
    for _ in range(n_posts):
        length = int(rng.integers(len_lo, cfg.post_len + 1))
        keywords = rng.choice(pools["keywords"], size=N_SLOTS + N_DISTRACTORS, replace=False)
        units = [[MARKER_TOKEN, str(k)] for k in keywords[:N_SLOTS]]
        units += [[str(k)] for k in keywords[N_SLOTS:]]
        units += [[pools["fillers"][rng.integers(len(pools["fillers"]))]]
                  for _ in range(length - base)]
        post = [tok for i in rng.permutation(len(units)) for tok in units[int(i)]]
        slot_kws = [post[i] for i in marked_positions(post)]

        picks = list(rng.permutation(min(N_SLOTS, RESPONSES_PER_POST)))
        while len(picks) < RESPONSES_PER_POST:
            picks.append(int(rng.integers(N_SLOTS)))
        responses, gold = [], []
        for slot in picks:
            content = content_for_keyword(slot_kws[slot])
            shape = int(rng.integers(3))
            opener = pools["openers"][rng.integers(N_OPENERS)]
            closer = pools["closers"][rng.integers(N_CLOSERS)]
            if shape == 0:
                resp = [opener, content, closer]
            elif shape == 1:
                resp = [opener, content]
            else:
                resp = [content, closer]
            responses.append(resp)
            gold.append(int(slot))
        records.append(PostRecord(post, responses, gold))

    # trim the final post's responses so exactly n_pairs survive
    excess = n_posts * RESPONSES_PER_POST - n_pairs
    if excess:
        records[-1].responses = records[-1].responses[:-excess]
        records[-1].gold_focus_slot = records[-1].gold_focus_slot[:-excess]
    return records, grammar_vocabulary(cfg)


# ---------------------------------------------------------------------------
# JSONL persistence


def save_jsonl(records: list[PostRecord], path) -> None:
    with open(path, "w") as fh:
        for r in records:
            payload = {"post": r.post, "responses": r.responses}
            if r.gold_focus_slot is not None:
                payload["gold_focus_slot"] = r.gold_focus_slot
            fh.write(json.dumps(payload, separators=(",", ":")) + "\n")


def _check_tokens(value, what: str, lineno: int) -> list[str]:
    if not isinstance(value, list) or not all(isinstance(t, str) for t in value):
        raise ParseError(f"line {lineno}: {what} must be a list of token strings")
    if not value:
        raise ValidationError(f"line {lineno}: empty {what}")
    return value


def read_text(path) -> str:
    """A file's text, which must be UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise ParseError(f"{path}: not UTF-8 ({e.reason} at byte {e.start})") from None


def read_json(path):
    try:
        return json.loads(read_text(path))
    except json.JSONDecodeError as e:
        raise ParseError(f"{path}: invalid JSON ({e.msg})") from None


def load_jsonl(path) -> list[PostRecord]:
    records = []
    for lineno, line in enumerate(read_text(path).split("\n"), start=1):
        if not line.strip():
            continue
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as e:
            raise ParseError(f"line {lineno}: invalid JSON ({e.msg})") from None
        if not isinstance(payload, dict) or "post" not in payload:
            raise ParseError(f"line {lineno}: missing 'post' key")
        if "responses" not in payload:
            raise ParseError(f"line {lineno}: missing 'responses' key")
        post = _check_tokens(payload["post"], "post", lineno)
        raw_responses = payload["responses"]
        if not isinstance(raw_responses, list) or not raw_responses:
            raise ParseError(f"line {lineno}: 'responses' must be a non-empty list")
        responses = [_check_tokens(r, "response", lineno) for r in raw_responses]
        gold = payload.get("gold_focus_slot")
        # a bool is an int subclass but names no slot
        if gold is not None and (not isinstance(gold, list) or len(gold) != len(responses)
                                 or not all(type(s) is int for s in gold)):
            raise ParseError(f"line {lineno}: 'gold_focus_slot' must list one int per response")
        records.append(PostRecord(post, responses, gold))
    return records


def split_records(records: list[PostRecord], n_test: int, seed: int
                  ) -> tuple[list[PostRecord], list[PostRecord]]:
    """Deterministic post-level holdout split, original order preserved."""
    if not 0 < n_test < len(records):
        raise ValidationError(f"cannot hold out {n_test} of {len(records)} posts")
    perm = np.random.default_rng(seed).permutation(len(records))
    test_idx = set(int(i) for i in perm[:n_test])
    train = [r for i, r in enumerate(records) if i not in test_idx]
    test = [r for i, r in enumerate(records) if i in test_idx]
    return train, test


# ---------------------------------------------------------------------------
# pairs and batches


def to_pairs(records: list[PostRecord], vocab: Vocabulary) -> list[PostResponsePair]:
    """Flatten grouped records into training pairs, appending EOS to responses."""
    pairs = []
    for r in records:
        post_ids = vocab.encode(r.post)
        for j, resp in enumerate(r.responses):
            resp_ids = np.concatenate([vocab.encode(resp), [EOS_ID]]).astype(np.int64)
            slot = r.gold_focus_slot[j] if r.gold_focus_slot is not None else None
            pairs.append(PostResponsePair(post_ids, resp_ids, slot))
    return pairs


def pad_block(seqs: list[list[int]]) -> tuple[np.ndarray, np.ndarray]:
    """Sequences as a PAD-filled [n, longest] int64 id block and its bool mask."""
    ids = np.full((len(seqs), max(map(len, seqs))), PAD_ID, dtype=np.int64)
    mask = np.zeros(ids.shape, dtype=bool)
    for i, seq in enumerate(seqs):
        ids[i, :len(seq)] = seq
        mask[i, :len(seq)] = True
    return ids, mask


def collate(pairs: list[PostResponsePair]) -> Batch:
    """Pad a list of pairs to per-batch max lengths."""
    if not pairs:
        raise ValidationError("cannot collate an empty batch")
    post_ids, post_mask = pad_block([p.post for p in pairs])
    resp_ids, resp_mask = pad_block([p.response for p in pairs])
    lengths = np.array([len(p.response) for p in pairs], dtype=np.int64)
    return Batch(post_ids, post_mask, resp_ids, resp_mask, lengths)


def epoch_order(n: int, seed: int, epoch: int) -> np.ndarray:
    """Shuffle order for one epoch; a pure function of (seed, epoch).
    The middle seed word keeps this stream clear of other consumers."""
    return np.random.default_rng([seed, 1, epoch]).permutation(n)
