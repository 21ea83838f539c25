"""Decoder passes and whole-model wiring."""

import numpy as np
import pytest

from focuscvae import autodiff as ad
from focuscvae import model as model_module
from focuscvae.autodiff import Tape, Tensor, grad_check
from focuscvae.config import TrainConfig
from focuscvae.corpus import EOS_ID, PAD_ID, Batch, PostResponsePair, collate
from focuscvae.decoder import decode_train, greedy_decode, init_decoder_weights
from focuscvae.errors import ValidationError
from focuscvae.evaluation import generate_samples
from focuscvae.focus import AttentionWeights, alignment_gap, build_attention
from focuscvae.model import FocusCVAE
from focuscvae.training import micro_batch, total_loss
from reference import reference_decode_train, reference_greedy_decode


def micro_cfg(variant="focconstrain", **over):
    base = dict(variant=variant, vocab_size=7, d_h=4, d_z=4, batch_size=2,
                init_scale=0.3, seed=5)
    base.update(over)
    return TrainConfig(**base)


def micro_model(variant="focconstrain", seed=5, **over):
    cfg = micro_cfg(variant, seed=seed, **over)
    return FocusCVAE(cfg, np.random.default_rng([seed, 0]))


def make_batch(rng, b=2, post_len=3, resp_len=5, vocab=7):
    pairs = []
    for _ in range(b):
        post = rng.integers(3, vocab, size=post_len).astype(np.int64)
        resp = np.concatenate([rng.integers(3, vocab, size=resp_len - 1), [EOS_ID]])
        pairs.append(PostResponsePair(post, resp.astype(np.int64)))
    return collate(pairs)


def forward_logits(model, batch, eps):
    fp = model.forward_train(batch, eps)
    b, t = batch.resp_ids.shape
    return fp.logits_flat.data.reshape(b, t, model.cfg.vocab_size)


class TestTeacherForcing:
    def test_logits_see_only_strictly_earlier_gold(self):
        # s2s has no latent path, so the decoder's causality shows directly
        model = micro_model("s2s")
        rng = np.random.default_rng(11)
        batch = make_batch(rng, resp_len=5)

        base = forward_logits(model, batch, None)
        edited = Batch(batch.post_ids, batch.post_mask, batch.resp_ids.copy(),
                       batch.resp_mask, batch.resp_lengths)
        j = 2
        edited.resp_ids[1, j] = 3 if edited.resp_ids[1, j] != 3 else 4
        changed = forward_logits(model, edited, None)

        # position t's logits consume gold up to t-1, so rows 0..j match
        np.testing.assert_array_equal(base[1, :j + 1], changed[1, :j + 1])
        assert not np.allclose(base[1, j + 1:], changed[1, j + 1:])
        # the untouched batch row is identical throughout
        np.testing.assert_array_equal(base[0], changed[0])

    def test_recognition_reads_the_whole_response(self):
        # with a latent the early logits may shift too: z is inferred from
        # the full gold response and conditions every step
        model = micro_model()
        rng = np.random.default_rng(11)
        batch = make_batch(rng, resp_len=5)
        eps = np.zeros((batch.size, model.cfg.d_z))
        base = forward_logits(model, batch, eps)
        edited = Batch(batch.post_ids, batch.post_mask, batch.resp_ids.copy(),
                       batch.resp_mask, batch.resp_lengths)
        edited.resp_ids[1, 3] = 3 if edited.resp_ids[1, 3] != 3 else 4
        changed = forward_logits(model, edited, eps)
        assert not np.allclose(base[1, 0], changed[1, 0])

    def test_logit_block_shape(self):
        model = micro_model()
        rng = np.random.default_rng(3)
        batch = make_batch(rng, b=3, resp_len=4)
        eps = np.zeros((batch.size, model.cfg.d_z))
        fp = model.forward_train(batch, eps)
        assert fp.logits_flat.shape == (3 * 4, model.cfg.vocab_size)
        assert fp.focus.shape == batch.post_ids.shape
        assert fp.coverage.shape == batch.post_ids.shape

    def test_coverage_total_matches_true_lengths(self):
        model = micro_model()
        rng = np.random.default_rng(4)
        short = PostResponsePair(np.array([3, 4, 5]), np.array([6, EOS_ID]))
        long = PostResponsePair(np.array([4, 5, 6]), np.array([3, 4, 5, EOS_ID]))
        batch = collate([short, long])
        eps = np.zeros((batch.size, model.cfg.d_z))
        fp = model.forward_train(batch, eps)
        totals = fp.coverage.data.sum(axis=1)
        np.testing.assert_allclose(totals, [2.0, 4.0], atol=1e-9)


class TestGreedyDecode:
    def gen(self, model, n=3, seed=9, max_len=6, post=(3, 4, 5)):
        out = generate_samples(model, [np.array(post)], n, seed, max_len)
        return [out[(0, j)] for j in range(n)]

    def test_rows_stop_at_eos_or_max_len(self):
        model = micro_model()
        for r in self.gen(model, n=4, max_len=6):
            assert 1 <= r.length <= 6
            assert EOS_ID not in r.token_ids[:-1]
            assert PAD_ID not in r.token_ids
            if r.length < 6:
                assert r.token_ids[-1] == EOS_ID

    def test_greedy_never_emits_pad(self):
        # PAD only fills finished rows; untrained models often rank it first
        for seed in range(8):
            for r in self.gen(micro_model(seed=seed), n=4, max_len=6):
                assert PAD_ID not in r.token_ids

    def test_coverage_sums_to_emitted_length(self):
        model = micro_model()
        for r in self.gen(model, n=4, max_len=6):
            assert r.coverage.shape == (3,)
            assert abs(r.coverage.sum() - r.length) < 1e-9

    def test_alignment_present_for_latent_variants(self):
        model = micro_model()
        r = self.gen(model, n=1)[0]
        assert r.focus is not None and abs(r.focus.sum() - 1.0) < 1e-9
        assert r.alignment_gap is not None and r.alignment_gap >= 0.0

    def test_s2s_samples_are_bitwise_identical(self):
        model = micro_model("s2s")
        results = self.gen(model, n=3)
        assert all(r.token_ids == results[0].token_ids for r in results)
        assert all(r.focus is None and r.alignment_gap is None for r in results)

    def test_latent_draws_change_the_focus(self):
        model = micro_model("focconstrain")
        a, b = self.gen(model, n=2, seed=1)
        assert not np.array_equal(a.focus, b.focus)

    def test_generation_is_deterministic_given_the_seed(self):
        model = micro_model()
        first = self.gen(model, n=3, seed=21)
        second = self.gen(model, n=3, seed=21)
        for x, y in zip(first, second):
            assert x.token_ids == y.token_ids
            np.testing.assert_array_equal(x.coverage, y.coverage)

    def test_eps_rows_must_match_variant(self):
        latent = micro_model()
        plain = micro_model("s2s")
        ids = np.array([[3, 4, 5]])
        mask = np.ones_like(ids, dtype=bool)
        with pytest.raises(ValidationError):
            latent.generate_rows(ids, mask, np.arange(1), None, max_len=4)
        with pytest.raises(ValidationError):
            plain.generate_rows(ids, mask, np.arange(1), np.zeros((1, 4)), max_len=4)

    def test_eps_rows_must_match_the_rows(self):
        model = micro_model()
        ids = np.array([[3, 4, 5]])
        mask = np.ones_like(ids, dtype=bool)
        with pytest.raises(ValidationError):
            model.generate_rows(ids, mask, np.zeros(3, dtype=np.int64), np.zeros((2, 4)),
                                max_len=4)

    def test_max_len_must_be_positive(self):
        model = micro_model()
        with pytest.raises(ValidationError):
            self.gen(model, n=1, max_len=0)


class TestVariantParameterSets:
    def test_s2s_owns_no_latent_parameters(self):
        names = set(micro_model("s2s").named_parameters())
        assert not any(n.startswith(("recognition.", "prior.", "focus.", "bow."))
                       for n in names)
        assert "attention.V_a" not in names

    def test_foc_adds_latent_but_not_coverage(self):
        names = set(micro_model("foc").named_parameters())
        assert {"recognition.W", "prior.W", "focus.v_f", "bow.W1"} <= names
        assert "attention.V_a" not in names

    def test_coverage_variants_share_one_parameter_set(self):
        a = set(micro_model("foccoverage").named_parameters())
        b = set(micro_model("focconstrain").named_parameters())
        assert a == b and "attention.V_a" in a

    def test_attention_reads_only_the_encoder_states(self):
        # no variant appends a focus column: W_a and V_a are [d_h, d_h]
        for variant in ("s2s", "foc", "foccoverage", "focconstrain"):
            model = micro_model(variant)
            d_h = model.cfg.d_h
            assert model.attention.W_a.shape == (d_h, d_h), variant
            if model.attention.V_a is not None:
                assert model.attention.V_a.shape == (d_h, d_h), variant

    def test_from_arrays_reproduces_forward_bitwise(self):
        model = micro_model()
        arrays = {k: p.data.copy() for k, p in model.named_parameters().items()}
        clone = FocusCVAE.from_arrays(model.cfg, arrays)
        rng = np.random.default_rng(8)
        batch = make_batch(rng)
        eps = np.random.default_rng(2).standard_normal((batch.size, model.cfg.d_z))
        np.testing.assert_array_equal(forward_logits(model, batch, eps),
                                      forward_logits(clone, batch, eps))

    def test_from_arrays_rejects_missing_and_misshapen(self):
        model = micro_model()
        arrays = {k: p.data.copy() for k, p in model.named_parameters().items()}
        broken = dict(arrays)
        del broken["decoder.start"]
        with pytest.raises(ValidationError):
            FocusCVAE.from_arrays(model.cfg, broken)
        arrays["decoder.start"] = np.zeros((2, 2))
        with pytest.raises(Exception):
            FocusCVAE.from_arrays(model.cfg, arrays)


# the decode node against the per-step composition it replaced

def ragged_batch(rng, resp_lengths, post_lengths=(3, 2, 4), vocab=7):
    pairs = []
    for n, p in zip(resp_lengths, post_lengths):
        resp = np.concatenate([rng.integers(3, vocab, size=n - 1), [EOS_ID]])
        pairs.append(PostResponsePair(rng.integers(3, vocab, size=p), resp.astype(np.int64)))
    return collate(pairs)


def train_step(model, batch, eps):
    """Loss, logits, coverage and attention rows of one taped step, every
    parameter gradient after its backward, and the tape's node count."""
    model.zero_grad()
    with Tape() as tape:
        fp = model.forward_train(batch, eps)
        total, _ = total_loss(model, batch, eps, 0.7)
    n_nodes = len(tape.nodes)
    tape.backward(total)
    values = [total.data, fp.logits_flat.data, fp.coverage.data] + [a.data for a in fp.alphas]
    return values, {k: p.grad for k, p in model.named_parameters().items()}, n_nodes


RESPONSES = {"ragged": (1, 3, 4), "one_step": (1, 1, 1)}


@pytest.mark.parametrize("responses", list(RESPONSES))
@pytest.mark.parametrize("variant", ["s2s", "foc", "foccoverage", "focconstrain"])
def test_decode_node_is_bit_identical_to_the_composition(monkeypatch, variant, responses):
    model = micro_model(variant, init_scale=0.6)
    batch = ragged_batch(np.random.default_rng(31), RESPONSES[responses])
    eps = np.random.default_rng(32).standard_normal((batch.size, model.cfg.d_z))
    eps = eps if variant != "s2s" else None
    values, grads, nodes = train_step(model, batch, eps)
    monkeypatch.setattr(model_module, "decode_train", reference_decode_train)
    ref_values, ref_grads, ref_nodes = train_step(model, batch, eps)
    assert nodes < ref_nodes
    assert len(values) == len(ref_values)
    for a, b in zip(values, ref_values):
        assert a.tobytes() == b.tobytes()
    assert grads.keys() == ref_grads.keys()
    for name, g in grads.items():
        # with one-token responses the bag-of-words loss has no terms
        if g is None:
            assert ref_grads[name] is None and name.startswith("bow."), name
            continue
        assert g.tobytes() == ref_grads[name].tobytes(), name


def decode_case(rng, coverage, focus, t_max, init_grad, b=3, length=4, d_h=4, d_emb=3,
                vocab=6):
    """Leaf inputs of one decode: a setup built from leaf states and focus,
    an embedding table, decoder weights and two initial states."""
    leaf = lambda *shape, grad=True: Tensor(rng.uniform(-0.8, 0.8, size=shape),
                                            requires_grad=grad)
    mask = np.ones((b, length), dtype=bool)
    mask[1, 2:] = False
    mask[2, 1] = False
    states = leaf(b * length, d_h)
    context = leaf(b * length, d_h + 2)
    focus_leaf = leaf(b, length) if focus else None
    aw = AttentionWeights(W_a=leaf(d_h, d_h), U_a=leaf(d_h, d_h), v_a=leaf(d_h, 1),
                          V_a=leaf(d_h, d_h) if coverage else None)
    emb = leaf(vocab, d_emb)
    dec = init_decoder_weights(rng, d_emb, d_h, 2, d_h + 2, vocab, 0.8)
    init = [leaf(b, d_h, grad=init_grad), leaf(b, d_h, grad=init_grad)]
    resp_ids = rng.integers(0, vocab, size=(b, t_max))
    resp_mask = np.arange(t_max)[None, :] < np.array([t_max, 1, max(1, t_max - 1)])[:, None]
    probe = Tensor(rng.normal(size=(b, d_h)))
    leaves = {"states": states, "context": context, "emb": emb, "init0": init[0],
              "init1": init[1], **aw.named("att"),
              **{k: v for k, v in dec.named("dec").items() if not k.startswith("dec.init.")}}
    if focus:
        leaves["focus"] = focus_leaf

    def loss(decode):
        focus_t = None if focus_leaf is None else ad.softmax(focus_leaf, mask)
        setup = build_attention(states, context, mask, aw, focus=focus_t)
        logits, cov, alphas = decode(resp_ids, resp_mask, setup, emb, dec, init)
        total = ad.add(ad.sum_all(ad.mul(logits, ad.tanh(logits))),
                       ad.sum_all(ad.mul(cov, cov)))
        # consumers recorded after the decode, so parts arrive on both sides
        total = ad.add(total, ad.sum_all(ad.mul(ad.tanh(states), states)))
        total = ad.add(total, ad.sum_all(ad.mul(init[1], probe)))
        total = ad.add(total, ad.sum_all(ad.tanh(emb)))
        return total, [logits.data, cov.data] + [a.data for a in alphas]

    return loss, leaves


def run_decode(loss, leaves, decode):
    for p in leaves.values():
        p.zero_grad()
    with Tape() as tape:
        total, values = loss(decode)
    tape.backward(total)
    return [total.data] + values, {k: p.grad for k, p in leaves.items()}


@pytest.mark.parametrize("t_max", [1, 3])
@pytest.mark.parametrize("init_grad", [True, False], ids=["init_grad", "init_frozen"])
@pytest.mark.parametrize("coverage,focus", [(False, False), (False, True), (True, True)],
                         ids=["s2s", "foc", "coverage"])
def test_decode_node_matches_the_composition_with_leaf_inputs(coverage, focus, init_grad, t_max):
    loss, leaves = decode_case(np.random.default_rng(41), coverage, focus, t_max, init_grad)
    values, grads = run_decode(loss, leaves, decode_train)
    ref_values, ref_grads = run_decode(loss, leaves, reference_decode_train)
    for a, b in zip(values, ref_values, strict=True):
        assert a.tobytes() == b.tobytes()
    for name, g in grads.items():
        if name.startswith("init") and not init_grad:
            assert g is None and ref_grads[name] is None
            continue
        assert g is not None and g.tobytes() == ref_grads[name].tobytes(), name


def test_decode_node_gradients_match_finite_differences():
    loss, leaves = decode_case(np.random.default_rng(43), True, True, 3, True, length=3,
                               d_h=2, d_emb=2, vocab=4)
    # the loss is about 29, so rounding, not truncation, sets the
    # error: 1.6e-6 at h = 1e-5 and 2.1e-7 at h = 1e-4
    report = grad_check(lambda: loss(decode_train)[0], leaves, h=1e-4, tol=1e-6)
    assert report.passed, report.format()


@pytest.mark.parametrize("variant", ["s2s", "foc", "foccoverage", "focconstrain"])
def test_greedy_decode_matches_the_composition(monkeypatch, variant):
    model = micro_model(variant, init_scale=0.9)
    rng = np.random.default_rng(51)
    ids = rng.integers(3, 7, size=(3, 5))
    mask = np.ones_like(ids, dtype=bool)
    mask[1, 3:] = False
    rows = np.array([0, 0, 1, 2, 2, 2])
    eps = rng.standard_normal((len(rows), 4)) if variant != "s2s" else None
    refs = []

    def both(setup, emb, w, init, max_len, focus_rows):
        refs.append(reference_greedy_decode(setup, emb, w, init, max_len) + (focus_rows,))
        return greedy_decode(setup, emb, w, init, max_len, focus_rows)

    monkeypatch.setattr(model_module, "greedy_decode", both)
    results = model.generate_rows(ids, mask, rows, eps, 7)
    emitted, lengths, coverage, focus_rows = refs[0]
    for i, r in enumerate(results):
        n = int(lengths[i])
        assert r.token_ids == emitted[i, :n].tolist()
        real = mask[rows[i]]
        assert r.coverage.tobytes() == coverage[i][real].tobytes()
        if focus_rows is None:
            assert r.alignment_gap is None
        else:
            assert r.alignment_gap == alignment_gap(coverage[i][real], n, focus_rows[i][real])


@pytest.mark.parametrize("variant", ["s2s", "focconstrain"])
def test_the_references_run_no_fused_node(monkeypatch, variant):
    model = micro_model(variant, init_scale=0.6)
    batch = ragged_batch(np.random.default_rng(31), RESPONSES["ragged"])
    eps = np.random.default_rng(32).standard_normal((batch.size, model.cfg.d_z))
    eps = eps if variant != "s2s" else None
    owners = {}  # call name -> the functions that made the rules its nodes recorded

    def taped(name, run):
        def wrapped(*args):
            with Tape() as tape:  # a tape of its own, so the nodes are its call's alone
                out = run(*args)
            owners[name] = {node.backward.__qualname__.split(".")[0] for node in tape.nodes}
            return out
        return wrapped

    def generate(setup, emb, w, init, max_len, focus_rows):
        taped("reference_greedy_decode", reference_greedy_decode)(setup, emb, w, init, max_len)
        return greedy_decode(setup, emb, w, init, max_len, focus_rows)

    monkeypatch.setattr(model_module, "encode", taped("encode", model_module.encode))
    for decode in (decode_train, reference_decode_train):
        monkeypatch.setattr(model_module, "decode_train", taped(decode.__name__, decode))
        model.forward_train(batch, eps)
    monkeypatch.setattr(model_module, "greedy_decode", generate)
    model.generate_rows(batch.post_ids, batch.post_mask, np.arange(batch.size), eps, 5)
    # the fused nodes are seen where they run
    assert "gru_layer" in owners["encode"] and "decode_train" in owners["decode_train"]
    for name in ("reference_decode_train", "reference_greedy_decode"):
        assert owners[name] and not owners[name] & {"gru_layer", "decode_train"}, name


def test_a_desk_step_records_at_most_120_nodes():
    cfg = TrainConfig(variant="focconstrain", vocab_size=64, d_h=64, d_z=32, batch_size=32)
    model = FocusCVAE(cfg, np.random.default_rng(0))
    batch = micro_batch(64, post_len=14, resp_len=4, batch_size=32, seed=0)
    eps = np.random.default_rng(1).standard_normal((32, 32))
    with Tape() as tape:
        total_loss(model, batch, eps, 0.5)
    assert len(tape.nodes) <= 120
