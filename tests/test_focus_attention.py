"""Focus distribution, coverage attention, alignment gap."""

import math

import numpy as np
import pytest

from focuscvae import autodiff as ad
from focuscvae.autodiff import Tape, Tensor, grad_check
from focuscvae.decoder import decode_train, init_decoder_weights
from focuscvae.errors import DimensionError, MaskError, ValidationError
from focuscvae.focus import (
    LOG_FOCUS_FLOOR, AttentionSetup, AttentionWeights, FocusWeights, alignment_gap, attend_grads,
    attend_step, build_attention, focus_generate,
)
from reference import reference_attend_step


def make_focus_weights(rng, d_h, d_z, d_att, scale=0.5, grad=False):
    t = lambda *s: Tensor(rng.uniform(-scale, scale, size=s), requires_grad=grad)
    return FocusWeights(W_f=t(d_h, d_att), U_f=t(d_z, d_att), v_f=t(d_att, 1))


def make_attention_weights(rng, d_h, d_att, coverage=True, scale=0.5, grad=False):
    t = lambda *s: Tensor(rng.uniform(-scale, scale, size=s), requires_grad=grad)
    return AttentionWeights(W_a=t(d_h, d_att), U_a=t(d_h, d_att), v_a=t(d_att, 1),
                            V_a=t(d_h, d_att) if coverage else None)


def random_states(rng, b, t, d_h):
    return Tensor(rng.normal(size=(b * t, d_h)))


def test_focus_is_a_masked_distribution():
    rng = np.random.default_rng(0)
    b, t, d_h, d_z = 3, 5, 6, 4
    mask = np.ones((b, t), dtype=bool)
    mask[1, 3:] = False
    mask[2, 1] = False
    w = make_focus_weights(rng, d_h, d_z, d_h)
    f = focus_generate(random_states(rng, b, t, d_h), mask, Tensor(rng.normal(size=(b, d_z))), w)
    assert f.shape == (b, t)
    np.testing.assert_allclose(f.data.sum(axis=1), 1.0, atol=1e-12)
    assert (f.data[~mask] == 0.0).all()
    assert (f.data[mask] > 0.0).all()


def test_focus_depends_on_z():
    rng = np.random.default_rng(1)
    b, t, d_h, d_z = 1, 4, 6, 4
    mask = np.ones((b, t), dtype=bool)
    states = random_states(rng, b, t, d_h)
    w = make_focus_weights(rng, d_h, d_z, d_h)
    f1 = focus_generate(states, mask, Tensor(rng.normal(size=(b, d_z))), w)
    f2 = focus_generate(states, mask, Tensor(rng.normal(size=(b, d_z))), w)
    assert not np.allclose(f1.data, f2.data)


def test_focus_all_pad_row_rejected():
    rng = np.random.default_rng(2)
    w = make_focus_weights(rng, 4, 2, 4)
    mask = np.array([[True, True], [False, False]])
    with pytest.raises(MaskError):
        focus_generate(random_states(rng, 2, 2, 4), mask, Tensor(rng.normal(size=(2, 2))), w)


def run_attention_steps(rng, n_steps, b=2, t=4, d_h=6, seed_states=None, update_masks=None):
    states = seed_states if seed_states is not None else random_states(rng, b, t, d_h)
    focus = Tensor(np.random.default_rng(99).dirichlet(np.ones(t), size=b))
    w = make_attention_weights(rng, d_h, d_h)
    setup = build_attention(states, states, np.ones((b, t), dtype=bool), w, focus=focus)
    cov = np.zeros((b, t))
    alphas, contexts = [], []
    for step in range(n_steps):
        s_prev = rng.normal(size=(b, d_h))
        um = np.ones(b) if update_masks is None else update_masks[step]
        alpha, context, cov, _ = attend_step(setup, s_prev, cov, um)
        alphas.append(alpha)
        contexts.append(context)
    return alphas, contexts, cov, setup


def test_attention_rows_are_distributions():
    rng = np.random.default_rng(4)
    alphas, _, _, _ = run_attention_steps(rng, 3)
    for a in alphas:
        np.testing.assert_allclose(a.sum(axis=1), 1.0, atol=1e-12)


def test_coverage_accumulates_and_is_monotone():
    rng = np.random.default_rng(5)
    n_steps = 5
    alphas, _, cov, _ = run_attention_steps(rng, n_steps)
    # brute-force re-accumulation of the per-step weights
    expected = np.zeros_like(cov)
    prev = np.zeros_like(cov)
    for a in alphas:
        expected += a
        assert (expected - prev >= -1e-15).all()  # entrywise monotone
        prev = expected.copy()
    np.testing.assert_allclose(cov, expected, atol=1e-12)
    np.testing.assert_allclose(cov.sum(axis=1), float(n_steps), atol=1e-6)


def test_coverage_term_gates_by_variant():
    # without V_a (the foc variant) the same query must ignore accumulated coverage
    rng = np.random.default_rng(7)
    b, t, d_h = 2, 4, 6
    states = random_states(rng, b, t, d_h)
    focus = Tensor(np.random.default_rng(1).dirichlet(np.ones(t), size=b))
    mask = np.ones((b, t), dtype=bool)
    s_prev = rng.normal(size=(b, d_h))

    for sensitive in (False, True):
        w = make_attention_weights(np.random.default_rng(8), d_h, d_h, coverage=sensitive)
        setup = build_attention(states, states, mask, w, focus=focus)
        fresh = np.zeros((b, t))
        loaded = np.full((b, t), 0.25)
        a1 = attend_step(setup, s_prev, fresh, np.ones(b))[0]
        a2 = attend_step(setup, s_prev, loaded, np.ones(b))[0]
        if sensitive:
            assert not np.allclose(a1, a2)
        else:
            np.testing.assert_array_equal(a1, a2)


def test_uniform_focus_leaves_attention_as_without_focus():
    # log of a uniform focus shifts every real position's score alike
    rng = np.random.default_rng(9)
    b, t, d_h = 2, 4, 6
    mask = np.ones((b, t), dtype=bool)
    mask[1, 3] = False
    states = random_states(rng, b, t, d_h)
    uniform = Tensor(mask / mask.sum(axis=1, keepdims=True))
    s_prevs = [rng.normal(size=(b, d_h)) for _ in range(3)]
    for coverage in (False, True):
        w = make_attention_weights(np.random.default_rng(15), d_h, d_h, coverage=coverage)
        runs = []
        for focus in (uniform, None):
            setup = build_attention(states, states, mask, w, focus=focus)
            cov, alphas = np.zeros((b, t)), []
            for s_prev in s_prevs:
                alpha, _, cov, _ = attend_step(setup, s_prev, cov, np.ones(b))
                alphas.append(alpha)
            runs.append(alphas)
        for with_focus, without in zip(*runs):
            np.testing.assert_allclose(with_focus, without, rtol=0, atol=1e-12)


def test_context_is_attention_weighted_sum_of_original_states():
    rng = np.random.default_rng(10)
    b, t, d_h = 2, 4, 6
    states = random_states(rng, b, t, d_h)
    alphas, contexts, _, _ = run_attention_steps(rng, 1, b=b, t=t, d_h=d_h,
                                                 seed_states=states)
    manual = np.einsum("bt,btd->bd", alphas[0], states.data.reshape(b, t, d_h))
    np.testing.assert_allclose(contexts[0], manual, atol=1e-12)
    assert contexts[0].shape == (b, d_h)


def test_update_mask_freezes_rows():
    rng = np.random.default_rng(12)
    masks = [np.array([1.0, 1.0]), np.array([1.0, 0.0]), np.array([1.0, 0.0])]
    _, _, cov, _ = run_attention_steps(rng, 3, update_masks=masks)
    np.testing.assert_allclose(cov[0].sum(), 3.0, atol=1e-9)
    np.testing.assert_allclose(cov[1].sum(), 1.0, atol=1e-9)


def test_focus_prior_sets_attention_when_step_scores_are_flat():
    # with v_a = 0 every step's own scores are 0, so softmax(log focus) = focus
    rng = np.random.default_rng(14)
    b, t, d_h = 2, 4, 6
    mask = np.ones((b, t), dtype=bool)
    mask[1, 3] = False
    states = random_states(rng, b, t, d_h)
    focus = Tensor(np.vstack([rng.dirichlet(np.ones(t)),
                              np.append(rng.dirichlet(np.ones(t - 1)), 0.0)]))
    w = make_attention_weights(rng, d_h, d_h, coverage=True)
    w.v_a = Tensor(np.zeros((d_h, 1)))
    setup = build_attention(states, states, mask, w, focus=focus)
    alpha = attend_step(setup, rng.normal(size=(b, d_h)), np.zeros((b, t)), np.ones(b))[0]
    np.testing.assert_allclose(alpha, focus.data, atol=1e-12)
    assert (alpha[~mask] == 0.0).all()


def _check_focus_attention_gradients(focus_prior: bool):
    rng = np.random.default_rng(13)
    b, t, d_h, d_z = 2, 3, 4, 3
    mask = np.ones((b, t), dtype=bool)
    mask[1, 2] = False
    states = Tensor(rng.normal(size=(b * t, d_h)), requires_grad=True)
    z = Tensor(rng.normal(size=(b, d_z)), requires_grad=True)
    fw = make_focus_weights(rng, d_h, d_z, d_h, grad=True)
    aw = make_attention_weights(rng, d_h, d_h, coverage=True, grad=True)
    s_prev = Tensor(rng.normal(size=(b, d_h)), requires_grad=True)
    # two decode steps read the attention: s_prev is the top cell's start
    # state, and the logits read each step's context
    vocab, d_emb = 5, 2
    emb = Tensor(rng.uniform(-0.5, 0.5, size=(vocab, d_emb)))
    dec = init_decoder_weights(rng, d_emb, d_h, d_h, d_h, vocab, 0.5)
    h0 = Tensor(rng.normal(size=(b, d_h)))
    resp_ids = rng.integers(0, vocab, size=(b, 2))

    def f():
        # the focus reaches the attention only as its prior
        focus = focus_generate(states, mask, z, fw) if focus_prior else None
        setup = build_attention(states, states, mask, aw, focus=focus)
        logits, cov, _ = decode_train(resp_ids, np.ones((b, 2), dtype=bool), setup, emb, dec,
                                      [h0, s_prev])
        return ad.add(ad.sum_all(ad.mul(logits, logits)), ad.sum_all(ad.mul(cov, cov)))

    params = {"states": states, "s_prev": s_prev, **aw.named("att")}
    if focus_prior:
        params.update({"z": z, **fw.named("focus")})
    report = grad_check(f, params, h=1e-5, tol=1e-6)
    assert report.passed, report.format()


def test_focus_and_attention_gradients():
    _check_focus_attention_gradients(focus_prior=False)


def test_focus_prior_attention_gradients():
    _check_focus_attention_gradients(focus_prior=True)


def _attention_read_case(rng, b, t, d_h, coverage_term, focus_prior):
    """An AttentionSetup of leaf tensors over ragged posts, with a query
    state, a coverage and an update mask that sits some rows out."""
    lengths = rng.integers(1, t + 1, size=b)
    lengths[0] = t
    mask = np.arange(t) < lengths[:, None]
    leaf = lambda *shape: Tensor(rng.normal(size=shape), requires_grad=True)
    log_focus = None
    if focus_prior:
        focus = np.where(mask, rng.dirichlet(np.ones(t), size=b), 0.0)
        focus /= focus.sum(axis=1, keepdims=True)
        log_focus = Tensor(np.log(np.maximum(focus, LOG_FOCUS_FLOOR)), requires_grad=True)
    # the context is wider than the states, as it is for the latent variants
    setup = AttentionSetup(
        base=leaf(b * t, d_h), states_flat=leaf(b * t, d_h), context_flat=leaf(b * t, d_h + 3),
        post_mask=mask, weights=make_attention_weights(rng, d_h, d_h, coverage_term, grad=True),
        log_focus=log_focus)
    # PAD positions hold an exact 0, whose products with negative states are -0.0
    coverage = np.where(mask, rng.uniform(0.0, 2.0, size=(b, t)), 0.0)
    keep = (rng.random(b) < 0.7).astype(np.float64)
    keep[0] = 1.0
    return setup, rng.normal(size=(b, d_h)), coverage, keep


def _composition_order(setup):
    """The setup's tensors in the order the composition's tape visited them."""
    w = setup.weights
    focus = () if setup.log_focus is None else (setup.log_focus,)
    coverage = () if w.V_a is None else (w.V_a, setup.states_flat)
    return [setup.context_flat, *focus, w.v_a, *coverage, setup.base, w.U_a]


def _drain(parts_then_result):
    """Every value a generator yields, and what it returns."""
    parts = []
    while True:
        try:
            parts.append(next(parts_then_result))
        except StopIteration as stop:
            return parts, stop.value


def _same_bits(got, want) -> bool:
    return got is None and want is None or (
        got is not None and want is not None and np.array_equal(got, want)
        and np.array_equal(np.signbit(got), np.signbit(want)))


@pytest.mark.parametrize("record", [True, False], ids=["record", "no_record"])
@pytest.mark.parametrize("focus_prior", [True, False], ids=["focus", "no_focus"])
@pytest.mark.parametrize("coverage_term", [True, False], ids=["coverage", "no_coverage"])
@pytest.mark.parametrize("d_h", [2, 64])
@pytest.mark.parametrize("t", [1, 2, 14])
@pytest.mark.parametrize("b", [1, 3, 192])
def test_attention_read_is_bit_identical_to_the_composition(monkeypatch, b, t, d_h,
                                                            coverage_term, focus_prior, record):
    rng = np.random.default_rng([b, t, d_h, coverage_term, focus_prior])
    setup, s_prev, coverage, keep = _attention_read_case(rng, b, t, d_h, coverage_term,
                                                         focus_prior)
    g_context = rng.normal(size=(b, d_h + 3))
    alpha, context, new_coverage, saved = attend_step(setup, s_prev, coverage, keep, record)

    # the composition's energies are the output of its one tanh
    energies, tanh = [], ad.tanh
    monkeypatch.setattr(ad, "tanh", lambda x: energies.append(tanh(x)) or energies[-1])
    # with and without a gradient reaching the updated coverage
    for g_coverage in (rng.normal(size=(b, t)), None):
        leaves = [*_composition_order(setup), Tensor(s_prev, requires_grad=True),
                  Tensor(coverage, requires_grad=True)]
        for leaf in leaves:
            leaf.zero_grad()
        with Tape() as tape:
            ref_alpha, ref_context, ref_coverage = reference_attend_step(
                setup, leaves[-2], leaves[-1], keep)
            loss = ad.sum_all(ad.mul(ref_context, Tensor(g_context)))
            if g_coverage is not None:
                loss = ad.add(loss, ad.sum_all(ad.mul(ref_coverage, Tensor(g_coverage))))
        for got, want in ((alpha, ref_alpha), (context, ref_context),
                          (new_coverage, ref_coverage)):
            assert _same_bits(got, want.data)
        if not record:
            assert saved is None
            return
        assert _same_bits(saved[4], energies[-1].data)

        tape.backward(loss)
        pairs, (g_query, g_prev) = _drain(attend_grads(setup, saved, g_context, g_coverage, True))
        assert [id(t) for t, _ in pairs] == [id(leaf) for leaf in leaves[:-2]]
        parts = [part for _, part in pairs]
        assert len(parts) == len(leaves) - 2
        for part, leaf in zip([*parts, g_query, g_prev], leaves, strict=True):
            assert _same_bits(part, leaf.grad)


def one_row_gap(coverage, resp_len, focus):
    """The gap of one row with every position on."""
    on = np.ones((1, len(coverage)), dtype=bool)
    return alignment_gap(np.array([coverage]), np.array([resp_len]), np.array([focus]), on)[0]


def test_alignment_gap_frozen_distances():
    # fully misaligned one-hot pair
    gap = one_row_gap([0.0, 2.0], 2, [1.0, 0.0])
    assert gap == pytest.approx(np.sqrt(2.0), abs=1e-12)
    # milder disagreement
    gap = one_row_gap([3.0, 1.0], 4, [0.5, 0.5])
    assert gap == pytest.approx(0.35355339059327373, abs=1e-12)
    # eight positions: numpy's pairwise np.sum gives 0.13540064007726602 here,
    # the left-to-right sum gives 0.135400640077266
    cov = np.array([0.4, 0.7, 0.1, 0.6, 0.2, 0.3, 0.5, 0.2])
    focus = np.array([0.1, 0.15, 0.0, 0.2, 0.15, 0.1, 0.2, 0.1])
    gap = one_row_gap(cov, 3, focus)
    total = 0.0
    for c, f in zip(cov, focus):
        diff = c / 3.0 - f
        total += diff * diff
    assert gap == math.sqrt(total) == 0.135400640077266


def test_alignment_gap_rows_equal_the_one_row_recount():
    # ragged masks, with gaps in the middle of a row, and junk where they are
    # off; row 0 holds the eight-position case above
    cov8 = [0.4, 0.7, 0.1, 0.6, 0.2, 0.3, 0.5, 0.2]
    focus8 = [0.1, 0.15, 0.0, 0.2, 0.15, 0.1, 0.2, 0.1]
    rng = np.random.default_rng(5)
    cov = rng.uniform(0.0, 3.0, size=(5, 11))
    focus = rng.uniform(0.0, 1.0, size=(5, 11))
    mask = rng.random((5, 11)) < 0.6
    cov[0, :8], focus[0, :8], mask[0] = cov8, focus8, np.arange(11) < 8
    mask[1], mask[2, :] = True, False
    mask[2, 4] = True
    lengths = np.array([3, 1, 2, 7, 4])
    gaps = alignment_gap(cov, lengths, focus, mask)
    for i in range(5):
        total = 0.0
        for c, f in zip(cov[i][mask[i]], focus[i][mask[i]]):
            diff = c / lengths[i] - f
            total += diff * diff
        assert gaps[i] == math.sqrt(total) == one_row_gap(cov[i][mask[i]], lengths[i],
                                                           focus[i][mask[i]])
    assert gaps[0] == 0.135400640077266


def test_alignment_gap_validates():
    with pytest.raises(ValidationError):
        one_row_gap([1.0], 0, [1.0])
    on = np.ones((1, 2), dtype=bool)
    with pytest.raises(DimensionError):
        alignment_gap(np.array([[1.0, 0.0]]), np.array([1]), np.array([[1.0]]), on)
    rows, on = np.ones((2, 3)), np.ones((2, 3), dtype=bool)
    with pytest.raises(DimensionError):
        alignment_gap(rows, np.array([1, 2, 3]), rows, on)
    with pytest.raises(DimensionError):
        alignment_gap(rows, np.array([1, 2]), rows, np.ones((2, 2), dtype=bool))
    with pytest.raises(DimensionError):  # one row without its batch axis
        alignment_gap(rows[0], np.array([1]), rows[0], on[0])
    with pytest.raises(ValidationError):
        alignment_gap(rows, np.array([1, 0]), rows, on)
