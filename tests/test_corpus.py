"""Synthetic corpus, vocabulary, JSONL round trips, batching."""

import json

import numpy as np
import pytest

from focuscvae import corpus
from focuscvae.corpus import (
    EOS_ID, PAD_ID, UNK_ID, Batch, GrammarConfig, PostRecord, Vocabulary,
    collate, content_for_keyword, generate_synthetic, grammar_vocabulary,
    load_jsonl, marked_positions, save_jsonl,
    split_records, to_pairs,
)
from focuscvae.errors import ConfigError, ParseError, ValidationError


def keyword_positions(post: list[str]) -> list[int]:
    """All keyword positions, marked or not."""
    return [i for i, t in enumerate(post) if t.startswith("kw")]


def test_vocab_special_ids_pinned():
    vocab = Vocabulary(["<pad>", "<unk>", "<eos>", "hello", "world"])
    assert vocab.token_to_id["<pad>"] == PAD_ID == 0
    assert vocab.token_to_id["<unk>"] == UNK_ID == 1
    assert vocab.token_to_id["<eos>"] == EOS_ID == 2
    assert len(vocab) == 5


def test_vocab_too_small_rejected():
    with pytest.raises(ValidationError):
        Vocabulary(["<pad>", "<unk>", "<eos>"])


def test_unknown_token_encodes_to_unk():
    vocab = Vocabulary(["<pad>", "<unk>", "<eos>", "a", "b"])
    ids = vocab.encode(["a", "never-seen", "b"])
    assert list(ids) == [3, UNK_ID, 4]


def test_decode_out_of_range_rejected():
    vocab = Vocabulary(["<pad>", "<unk>", "<eos>", "a"])
    with pytest.raises(ValidationError):
        vocab.decode([99])


def test_vocab_round_trip(tmp_path):
    vocab = grammar_vocabulary(GrammarConfig())
    path = tmp_path / "vocab.json"
    vocab.save(path)
    again = Vocabulary.load(path)
    assert again.id_to_token == vocab.id_to_token


def test_generate_synthetic_deterministic():
    a, vocab_a = generate_synthetic(seed=7, n_pairs=4)
    b, vocab_b = generate_synthetic(seed=7, n_pairs=4)
    assert vocab_a.id_to_token == vocab_b.id_to_token
    assert [(r.post, r.responses, r.gold_focus_slot) for r in a] == \
           [(r.post, r.responses, r.gold_focus_slot) for r in b]
    assert sum(len(r.responses) for r in a) == 4


def test_generate_synthetic_pair_count_and_structure():
    records, vocab = generate_synthetic(seed=3, n_pairs=30)
    assert sum(len(r.responses) for r in records) == 30
    cfg = GrammarConfig()
    for r in records:
        assert len(marked_positions(r.post)) == corpus.N_SLOTS
        assert len(keyword_positions(r.post)) == corpus.N_SLOTS + corpus.N_DISTRACTORS
        assert len(r.post) <= cfg.post_len
        assert len(r.responses) == len(r.gold_focus_slot)
        kw = [r.post[i] for i in marked_positions(r.post)]
        decoys = [r.post[i] for i in keyword_positions(r.post) if r.post[i] not in kw]
        for resp, slot in zip(r.responses, r.gold_focus_slot):
            assert 0 <= slot < corpus.N_SLOTS
            # the paired content token shows up in the response
            assert content_for_keyword(kw[slot]) in resp
            # distractor contents never do
            assert all(content_for_keyword(d) not in resp for d in decoys)
        # full posts cover at least two distinct slots
        if len(r.responses) >= corpus.N_SLOTS:
            assert len(set(r.gold_focus_slot)) >= 2


def test_slot_distribution_uniform():
    records, _ = generate_synthetic(seed=11, n_pairs=10_000)
    slots = [s for r in records for s in r.gold_focus_slot]
    frac = np.bincount(slots, minlength=2) / len(slots)
    assert abs(frac[0] - 0.5) < 0.02 and abs(frac[1] - 0.5) < 0.02


def test_grammar_vocab_budget_checked():
    with pytest.raises(ConfigError):
        generate_synthetic(seed=0, n_pairs=2, cfg=GrammarConfig(vocab_size=20))


def test_jsonl_round_trip_byte_identical(tmp_path):
    records, _ = generate_synthetic(seed=7, n_pairs=9)
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    save_jsonl(records, p1)
    save_jsonl(load_jsonl(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_jsonl_missing_post_names_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"responses":[["a"]]}\n')
    with pytest.raises(ParseError, match="line 1"):
        load_jsonl(path)


def test_jsonl_bad_json_names_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"post":["a"],"responses":[["b"]]}\nnot json\n')
    with pytest.raises(ParseError, match="line 2"):
        load_jsonl(path)


def test_jsonl_gold_slot_must_be_an_int_not_a_bool(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps({"post": ["a"], "responses": [["b"]], "gold_focus_slot": [True]}))
    with pytest.raises(ParseError, match="gold_focus_slot"):
        load_jsonl(path)


@pytest.mark.parametrize("tokens", [5, ["<pad>", "<unk>", "<eos>", ["a"]],
                                    ["<pad>", "<unk>", "<eos>", 7]],
                         ids=["not_a_list", "list_token", "int_token"])
def test_vocab_file_tokens_must_be_strings(tmp_path, tokens):
    path = tmp_path / "vocab.json"
    path.write_text(json.dumps({"tokens": tokens}))
    with pytest.raises(ParseError, match="'tokens' must be a list of strings"):
        Vocabulary.load(path)


def test_jsonl_empty_response_rejected(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps({"post": ["a"], "responses": [[]]}) + "\n")
    with pytest.raises(ValidationError, match="line 1"):
        load_jsonl(path)


def test_to_pairs_appends_eos():
    records = [PostRecord(["kw00", "fl00"], [["rc00"], ["op0", "rc00"]], [0, 0])]
    vocab = grammar_vocabulary(GrammarConfig())
    pairs = to_pairs(records, vocab)
    assert len(pairs) == 2
    for p in pairs:
        assert p.response[-1] == EOS_ID
        assert EOS_ID not in p.response[:-1]
        assert p.gold_slot == 0


def test_collate_masks_and_lengths():
    records, vocab = generate_synthetic(seed=5, n_pairs=6)
    pairs = to_pairs(records, vocab)
    batch = collate(pairs)
    assert batch.post_ids.shape == batch.post_mask.shape
    assert batch.resp_ids.shape == batch.resp_mask.shape
    np.testing.assert_array_equal(batch.resp_mask.sum(axis=1), batch.resp_lengths)
    # padding is PAD exactly where the mask is off
    assert (batch.post_ids[~batch.post_mask] == PAD_ID).all()
    assert (batch.resp_ids[~batch.resp_mask] == PAD_ID).all()
    assert (batch.post_ids[batch.post_mask] != PAD_ID).all()
    # per-batch max padding: at least one row fills the width
    assert (batch.post_mask.sum(axis=1) == batch.post_ids.shape[1]).any()
    assert (batch.resp_mask.sum(axis=1) == batch.resp_ids.shape[1]).any()


def test_split_records_deterministic_and_disjoint():
    records, _ = generate_synthetic(seed=13, n_pairs=60)
    train, test = split_records(records, n_test=5, seed=2)
    train2, test2 = split_records(records, n_test=5, seed=2)
    assert len(test) == 5 and len(train) == len(records) - 5
    assert [r.post for r in test] == [r.post for r in test2]
    assert [r.post for r in train] == [r.post for r in train2]
    posts = {tuple(r.post) for r in records}
    assert {tuple(r.post) for r in train} | {tuple(r.post) for r in test} == posts


def test_collate_empty_rejected():
    with pytest.raises(ValidationError):
        collate([])
