"""Autodiff engine: op semantics, backward rules, gradient checking."""

import weakref

import numpy as np
import pytest

from focuscvae import autodiff as ad
from focuscvae.autodiff import Tensor, Tape, GRUCellWeights, grad_check, gru_layer
from focuscvae.encoders import encode, init_encoder_weights
from focuscvae.errors import DimensionError, DomainError, MaskError
from reference import reference_gru_cell, reference_sigmoid_data, sum_groups


def scalar_loss(t):
    # sum so any op output becomes a grad_check target
    return ad.sum_all(t)


def test_tanh_known_value():
    assert ad.tanh(Tensor([1.0])).data[0] == pytest.approx(0.7615941559557649, abs=1e-15)


def test_softmax_known_values():
    y = ad.softmax(Tensor([[1.0, 2.0, 3.0]]), np.ones((1, 3), dtype=bool))
    np.testing.assert_allclose(y.data, [[0.09003057, 0.24472847, 0.66524096]], atol=1e-8)
    assert y.data.sum() == pytest.approx(1.0, abs=1e-12)


def test_softmax_mask_zeroes_positions_exactly():
    mask = np.array([[True, False, True, False]])
    y = ad.softmax(Tensor([[0.3, 5.0, -0.2, 9.0]]), mask)
    assert y.data[0, 1] == 0.0 and y.data[0, 3] == 0.0
    assert y.data.sum() == pytest.approx(1.0, abs=1e-12)


def test_softmax_all_masked_is_an_error():
    with pytest.raises(MaskError):
        ad.softmax(Tensor([[1.0, 2.0], [3.0, 4.0]]), np.array([[True, True], [False, False]]))


def test_softmax_masked_gradient_exactly_zero():
    x = Tensor([[0.5, 1.5, -0.5]], requires_grad=True)
    mask = np.array([[True, False, True]])
    with Tape() as tape:
        y = ad.softmax(x, mask)
        loss = scalar_loss(ad.mul(y, y))
    tape.backward(loss)
    assert x.grad[0, 1] == 0.0


def test_softmax_and_log_softmax_take_2d_rows():
    row = Tensor([[0.5, 1.5, -0.5]])
    for x, mask in ((Tensor([0.5, 1.5, -0.5]), np.ones(3, dtype=bool)),  # 1-d
                    (row, np.ones((3, 1), dtype=bool)),  # mask of another shape
                    (row, None)):  # no mask
        with pytest.raises(DimensionError):
            ad.softmax(x, mask)
    with pytest.raises(DimensionError):
        ad.log_softmax(Tensor([0.5, 1.5, -0.5]))


def test_log_rejects_non_positive():
    with pytest.raises(DomainError):
        ad.log(Tensor([1.0, 0.0]))
    with pytest.raises(DomainError):
        ad.log(Tensor([-2.0]))


def test_shape_mismatch_names_both_shapes():
    with pytest.raises(DimensionError) as err:
        ad.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))))
    assert "(2, 3)" in str(err.value) and "(3, 2)" in str(err.value)
    with pytest.raises(DimensionError):
        ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))


def test_split_widths_must_tile_the_columns():
    x = Tensor(np.zeros((2, 5)))
    for widths in ([2, 2], [3, 3], [6, -1], []):
        with pytest.raises(DimensionError):
            ad.split(x, widths)
    with pytest.raises(DimensionError):
        ad.split(Tensor(np.zeros(5)), [5])
    assert [t.shape for t in ad.split(x, [2, 0, 3])] == [(2, 2), (2, 0), (2, 3)]


def test_only_a_constant_scalar_broadcasts():
    a = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    for op in (ad.add, ad.mul):
        for scalar in (Tensor(2.5, requires_grad=True), Tensor([2.5], requires_grad=True)):
            for args in ((a, scalar), (scalar, a), (Tensor(a.data), scalar)):
                with pytest.raises(DimensionError):
                    op(*args)
    with Tape() as tape:
        loss = ad.sum_all(ad.add(ad.mul(2.5, a), ad.mul(a, Tensor([[-1.0]]))))
    tape.backward(loss)
    assert a.grad.tolist() == [[1.5] * 3] * 2


def test_matmul_gradient_is_outer_structure():
    rng = np.random.default_rng(0)
    a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
    with Tape() as tape:
        loss = scalar_loss(ad.matmul(a, b))
    tape.backward(loss)
    ones = np.ones((3, 2))
    np.testing.assert_allclose(a.grad, ones @ b.data.T, atol=1e-12)
    np.testing.assert_allclose(b.grad, a.data.T @ ones, atol=1e-12)


def test_sum_of_squares_grad_check():
    x = Tensor([1.0, 2.0, 3.0], requires_grad=True)

    def f():
        return scalar_loss(ad.mul(x, x))

    report = grad_check(f, {"x": x})
    assert report.passed
    assert report.max_rel_err < 1e-8
    with Tape() as tape:
        loss = f()
    x.zero_grad()
    tape.backward(loss)
    np.testing.assert_allclose(x.grad, [2.0, 4.0, 6.0], atol=1e-12)


def test_no_grad_into_frozen_tensors():
    x = Tensor([1.0, 2.0], requires_grad=True)
    c = Tensor([3.0, 4.0], requires_grad=False)
    with Tape() as tape:
        loss = scalar_loss(ad.mul(x, c))
    tape.backward(loss)
    assert c.grad is None
    np.testing.assert_allclose(x.grad, [3.0, 4.0])


def test_backward_deterministic_bitwise():
    def run():
        rng = np.random.default_rng(123)
        x = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
        with Tape() as tape:
            h = ad.tanh(ad.matmul(x, w))
            loss = scalar_loss(ad.mul(h, h))
        tape.backward(loss)
        return x.grad.copy(), w.grad.copy()

    gx1, gw1 = run()
    gx2, gw2 = run()
    assert np.array_equal(gx1, gx2) and np.array_equal(gw1, gw2)


def test_tapes_do_not_nest():
    with Tape():
        with pytest.raises(RuntimeError):
            with Tape():
                pass


def test_reused_tensor_accumulates_grad():
    x = Tensor([2.0], requires_grad=True)
    with Tape() as tape:
        loss = scalar_loss(ad.add(ad.mul(x, x), x))  # x^2 + x
    tape.backward(loss)
    assert x.grad[0] == pytest.approx(5.0, abs=1e-12)


def test_backward_consumes_the_tape_and_frees_what_only_it_held():
    x = Tensor(np.arange(1.0, 5.0), requires_grad=True)
    seen = []

    def scale_by_three():
        factor = np.full(4, 3.0)  # held by the rule alone

        def rule(g):
            seen.append(mid_ref())  # the values of a tensor whose producer has run
            return (g * factor,)

        return Tensor(x.data * factor), rule, weakref.ref(factor)

    with Tape() as tape:
        out, rule, factor_ref = scale_by_three()
        first = ad._record((x,), out, rule)
        mid = ad.tanh(first)
        mid_ref = weakref.ref(mid.data)
        loss = ad.sum_all(ad.mul(mid, mid))
    del out, rule, first, mid
    assert len(tape.nodes) == 4 and factor_ref() is not None and mid_ref() is not None
    tape.backward(loss)
    assert tape.nodes == [] and seen == [None] and factor_ref() is None
    y = np.tanh(3.0 * x.data)
    np.testing.assert_allclose(x.grad, 6.0 * y * (1.0 - y * y), rtol=1e-12)


def test_sqrt_gradient_is_zero_where_its_output_is_zero():
    x = Tensor(np.array([0.0, 4.0, 0.25]), requires_grad=True)
    with Tape() as tape:
        loss = ad.sum_all(ad.sqrt(x))
    tape.backward(loss)
    assert x.grad.tolist() == [0.0, 0.25, 1.0]


def test_backward_folds_parts_in_listed_order_and_never_writes_into_them():
    rng = np.random.default_rng(4)
    a, b, c = (Tensor(rng.normal(size=5), requires_grad=True) for _ in range(3))
    w = [rng.normal(size=5) for _ in range(4)]
    with Tape() as tape:
        p = ad.mul(b, c)  # visited last: b's second part
        s = ad.add(a, b)  # hands one array to both leaves
        # one node that lists a three times
        out = Tensor(w[0] * a.data + w[1] * a.data + w[2] * s.data + w[3] * a.data)
        t = ad._record((a, a, s, a), out, lambda g: tuple(g * wk for wk in w))
        loss = ad.sum_all(ad.add(t, p))
    returned = []

    def spy(rule):
        def wrapped(g):
            pairs = list(rule(g))
            returned.extend((part, part.copy()) for _, part in pairs)
            return pairs
        return wrapped

    for node in tape.nodes:
        node.backward = spy(node.backward)
    tape.backward(loss)

    one = np.ones(5)
    # the reference left fold of each leaf's parts, in visiting order
    np.testing.assert_array_equal(a.grad, ((one * w[0] + one * w[1]) + one * w[3]) + one * w[2])
    np.testing.assert_array_equal(b.grad, one * w[2] + one * c.data)
    np.testing.assert_array_equal(c.grad, one * b.data)
    assert len(returned) == 11
    for part, before in returned:
        np.testing.assert_array_equal(part, before)


# every registered primitive, finite-difference checked over random draws


def _rand(rng, shape):
    return Tensor(rng.normal(size=shape), requires_grad=True)


ALL_ON = np.ones((3, 5), dtype=bool)  # the unmasked softmax cases' mask


def _split_loss(a, read):
    # reads the blocks of a's three-way split named in read; the others'
    # gradient slots stay None
    blocks = ad.split(a, [2, 3, 1])
    return scalar_loss(ad.concat([ad.mul(blocks[i], ad.tanh(blocks[i])) for i in read]))


PRIMITIVE_CASES = [
    ("add", lambda rng: ((a := _rand(rng, (3, 4))), (b := _rand(rng, (3, 4))),
                         lambda: scalar_loss(ad.mul(ad.add(a, b), ad.add(a, b))), {"a": a, "b": b})),
    ("mul", lambda rng: ((a := _rand(rng, (3, 4))), (b := _rand(rng, (3, 4))),
                         lambda: scalar_loss(ad.tanh(ad.mul(a, b))), {"a": a, "b": b})),
    ("tanh", lambda rng: ((a := _rand(rng, (6,))), None,
                          lambda: scalar_loss(ad.mul(ad.tanh(a), a)), {"a": a})),
    ("exp", lambda rng: ((a := _rand(rng, (6,))), None,
                         lambda: scalar_loss(ad.mul(ad.exp(a), a)), {"a": a})),
    ("log", lambda rng: ((a := Tensor(rng.uniform(0.5, 2.0, size=6), requires_grad=True)), None,
                         lambda: scalar_loss(ad.mul(ad.log(a), a)), {"a": a})),
    ("sqrt", lambda rng: ((a := Tensor(rng.uniform(0.5, 2.0, size=6), requires_grad=True)), None,
                          lambda: scalar_loss(ad.mul(ad.sqrt(a), a)), {"a": a})),
    ("clamp", lambda rng: ((a := Tensor(rng.normal(size=8) * 3.0, requires_grad=True)), None,
                           lambda: scalar_loss(ad.mul(ad.clamp(a, -1.0, 1.0), a)), {"a": a})),
    ("matmul", lambda rng: ((a := _rand(rng, (3, 4))), (b := _rand(rng, (4, 2))),
                            lambda: scalar_loss(ad.tanh(ad.matmul(a, b))), {"a": a, "b": b})),
    ("bias_add", lambda rng: ((a := _rand(rng, (3, 4))), (b := _rand(rng, (4,))),
                              lambda: scalar_loss(ad.tanh(ad.bias_add(a, b))), {"a": a, "b": b})),
    ("concat", lambda rng: ((a := _rand(rng, (3, 2))), (b := _rand(rng, (3, 4))),
                            lambda: scalar_loss(ad.tanh(ad.concat([a, b]))), {"a": a, "b": b})),
    ("split", lambda rng: ((a := _rand(rng, (4, 6))), None,
                           lambda: _split_loss(a, (0, 1, 2)), {"a": a})),
    ("split_one_block", lambda rng: ((a := _rand(rng, (4, 6))), None,
                                     lambda: _split_loss(a, (1,)), {"a": a})),
    ("reshape", lambda rng: ((a := _rand(rng, (3, 4))), None,
                             lambda: scalar_loss(ad.tanh(ad.reshape(a, (6, 2)))), {"a": a})),
    ("repeat_rows", lambda rng: ((a := _rand(rng, (3, 2))), None,
                                 lambda: scalar_loss(ad.tanh(ad.repeat_rows(a, 4))), {"a": a})),
    ("sum_groups", lambda rng: ((a := _rand(rng, (8, 3))), None,
                                lambda: scalar_loss(ad.tanh(sum_groups(a, 4))), {"a": a})),
    ("scale_rows", lambda rng: ((a := _rand(rng, (4, 3))), (s := _rand(rng, (4, 1))),
                                lambda: scalar_loss(ad.tanh(ad.scale_rows(a, s))), {"a": a, "s": s})),
    ("sum_cols", lambda rng: ((a := _rand(rng, (4, 3))), None,
                              lambda: scalar_loss(ad.tanh(ad.sum_cols(a))), {"a": a})),
    ("softmax", lambda rng: ((a := _rand(rng, (3, 5))), None,
                             lambda: scalar_loss(ad.mul(ad.softmax(a, ALL_ON), a)), {"a": a})),
    ("softmax_masked", lambda rng: ((a := _rand(rng, (3, 5))), None,
                                    lambda: scalar_loss(ad.mul(ad.softmax(
                                        a, np.array([[1, 1, 0, 1, 0]] * 3, dtype=bool)), a)), {"a": a})),
    ("log_softmax", lambda rng: ((a := _rand(rng, (3, 5))), None,
                                 lambda: scalar_loss(ad.mul(ad.log_softmax(a),
                                                            ad.softmax(a, ALL_ON))), {"a": a})),
    ("embedding", lambda rng: ((t := _rand(rng, (6, 3))), None,
                               lambda: scalar_loss(ad.tanh(ad.embedding(
                                   t, np.array([[0, 2, 5], [2, 2, 1]])))), {"t": t})),
    ("pick", lambda rng: ((a := _rand(rng, (4, 5))), None,
                          lambda: scalar_loss(ad.mul(ad.pick(a, np.array([0, 4, 2, 2])),
                                                     ad.pick(a, np.array([1, 4, 0, 2])))), {"a": a})),
    ("masked_mean", lambda rng: ((a := _rand(rng, (3, 8))), None,
                                 lambda: scalar_loss(ad.tanh(ad.masked_mean(a, np.array(
                                     [[1, 1, 0, 1], [0, 1, 0, 0], [1, 1, 1, 1]])))), {"a": a})),
    ("sum_all", lambda rng: ((a := _rand(rng, (3, 3))), None,
                             lambda: ad.mul(ad.sum_all(ad.tanh(a)), ad.sum_all(a)), {"a": a})),
]


@pytest.mark.parametrize("name,case", PRIMITIVE_CASES, ids=[c[0] for c in PRIMITIVE_CASES])
def test_primitive_gradients_match_finite_differences(name, case):
    for draw in range(10):
        rng = np.random.default_rng(1000 + draw)
        _, _, f, params = case(rng)
        report = grad_check(f, params, h=1e-5, tol=1e-6)
        assert report.passed, f"{name} draw {draw}:\n{report.format()}"


def rand_cell(rng, d_in, d_h, scale=0.5, requires_grad=True):
    p = lambda *shape: Tensor(rng.uniform(-scale, scale, size=shape), requires_grad=requires_grad)
    return GRUCellWeights(
        W_u=p(d_in, d_h), U_u=p(d_h, d_h), b_u=p(d_h),
        W_r=p(d_in, d_h), U_r=p(d_h, d_h), b_r=p(d_h),
        W_h=p(d_in, d_h), U_h=p(d_h, d_h), b_h=p(d_h),
    )


def test_gru_cell_zero_weights_halve_state():
    # on the step that both the encoder layer and the decode node run
    d_in, d_h = 3, 4
    zeros = lambda shape: Tensor(np.zeros(shape))
    w = GRUCellWeights(
        W_u=zeros((d_in, d_h)), U_u=zeros((d_h, d_h)), b_u=zeros(d_h),
        W_r=zeros((d_in, d_h)), U_r=zeros((d_h, d_h)), b_r=zeros(d_h),
        W_h=zeros((d_in, d_h)), U_h=zeros((d_h, d_h)), b_h=zeros(d_h),
    )
    W, U, b = ad._gate_stacks([w])
    v = np.array([[[0.2, -0.4, 1.0, 3.0]]])  # [cell, B, u]
    h, _, _ = ad._gru_step(np.ones((1, d_in)) @ W, v, U, b, None, None)
    np.testing.assert_allclose(h, 0.5 * v, atol=1e-15)


@pytest.mark.parametrize("masked", [False, True], ids=["decoder", "encoder"])
def test_fused_gru_cell_is_bit_identical_to_the_composition(masked):
    # one step of `_gru_step` and its backward, which both src GRU paths run,
    # against the op-by-op cell under a tape
    rng = np.random.default_rng(21)
    b, d_in, d_h = 4, 3, 5
    w = rand_cell(rng, d_in, d_h)
    x = Tensor(rng.normal(size=(b, d_in)), requires_grad=True)
    h = Tensor(rng.normal(size=(b, d_h)), requires_grad=True)
    keep = np.array([[1.0], [0.0], [1.0], [0.0]]) if masked else None
    probe = rng.normal(size=(b, d_h))
    with Tape() as tape:
        ref = reference_gru_cell(x, h, w, keep)
        loss = ad.sum_all(ad.mul(ref, Tensor(probe)))
    tape.backward(loss)

    W, U, bias = ad._gate_stacks([w])
    keep, drop = (None, None) if keep is None else (keep[None], 1.0 - keep[None])
    h_new, ur, c = ad._gru_step(x.data @ W, h.data[None], U, bias, keep, drop)
    dg, h_parts, pairs = ad._gru_step_backward([w], probe[None], x.data[None], h.data[None], ur,
                                               c, keep, drop, U, True)
    assert h_new[0].tobytes() == ref.data.tobytes()
    assert ad._fold(h_parts)[0].tobytes() == h.grad.tobytes()
    assert ad._fold([dg[k, 0] @ W[k, 0].T for k in (2, 1, 0)]).tobytes() == x.grad.tobytes()
    (w_parts,) = pairs
    assert sorted(id(param) for param, _ in w_parts) == sorted(map(id, vars(w).values()))
    for param, part in w_parts:
        assert part.tobytes() == param.grad.tobytes()


def test_sigmoid_matches_the_two_branch_form_bitwise():
    rng = np.random.default_rng(11)
    special = np.array([0.0, -0.0, np.inf, -np.inf, 745.0, -745.0, 1e-320, -1e-320])
    arrays = [special] + [rng.normal(scale=rng.uniform(0.1, 40.0), size=(rng.integers(1, 9), 4))
                          for _ in range(3000)]
    for d in arrays:
        assert ad._sigmoid(d).tobytes() == reference_sigmoid_data(d).tobytes()


# the encoder as it was before its fused nodes, kept as its reference: a
# one-column lookup per position, one cell node per step and direction, a
# concat per position, and pooling by a chain of scale_rows and add


def reference_encode(ids, mask, emb, weights):
    b, t = ids.shape
    units = weights.layers[0][0].U_u.shape[0]
    keeps = [mask[:, i:i + 1].astype(np.float64) for i in range(t)]
    outputs = [ad.embedding(emb, ids[:, i:i + 1]) for i in range(t)]
    for fwd_w, bwd_w in weights.layers:
        states = [[None] * t, [None] * t]
        for d, (w, order) in enumerate(((fwd_w, range(t)), (bwd_w, range(t - 1, -1, -1)))):
            h = Tensor(np.zeros((b, units)))
            for i in order:
                h = reference_gru_cell(outputs[i], h, w, keeps[i])
                states[d][i] = h
        outputs = [ad.concat([f, k]) for f, k in zip(*states)]
    flat = ad.reshape(ad.concat(outputs), (b * t, 2 * units))
    acc = None
    for i, state in enumerate(outputs):
        masked = ad.scale_rows(state, Tensor(keeps[i]))
        acc = masked if acc is None else ad.add(acc, masked)
    counts = mask.sum(axis=1, keepdims=True).astype(np.float64)
    return flat, ad.scale_rows(acc, Tensor(1.0 / counts))


def _lengths_mask(lengths, t):
    return np.arange(t)[None, :] < np.array(lengths)[:, None]


ENCODE_CASES = {
    # rows of every length, one of them a single token
    "ragged": dict(batches=[(5, [5, 3, 1, 4])], n_layers=2),
    # palindromes through one cell shared by both directions
    "tied": dict(batches=[(5, [5, 3])], n_layers=1, tied=True),
    # a post and a response through the same weights under one tape
    "post_and_response": dict(batches=[(6, [6, 4, 5]), (3, [2, 3, 1])], n_layers=2),
    "single_row": dict(batches=[(4, [4])], n_layers=2),
    # a frozen table, so layer 0 reads a frozen x, and one frozen cell in it
    "frozen": dict(batches=[(5, [5, 3, 1, 4])], n_layers=2, frozen=("emb", "enc.l0.fwd.")),
}


def _encode_case(case, encoder):
    """States, pooled vectors, every leaf gradient and the number of nodes the
    encodes record, under one tape.  The embedding table is read again after
    the encodes, as the focus keys read it, and every output feeds the loss."""
    rng = np.random.default_rng(31)
    vocab, d_in, d_h = 11, 5, 8
    emb = Tensor(rng.uniform(-0.6, 0.6, size=(vocab, d_in)), requires_grad=True)
    weights = init_encoder_weights(rng, d_in, d_h, n_layers=case["n_layers"], scale=0.6)
    if case.get("tied"):
        weights.layers[0] = (weights.layers[0][0], weights.layers[0][0])
    named = {"emb": emb, **weights.named("enc")}
    for k, p in named.items():
        p.requires_grad = not k.startswith(case.get("frozen", ()))
    batches = []
    for t, lengths in case["batches"]:
        ids = rng.integers(1, vocab, size=(len(lengths), t))
        if case.get("tied"):
            ids = np.concatenate([ids[:, :(t + 1) // 2], ids[:, :t // 2][:, ::-1]], axis=1)
        batches.append((ids, _lengths_mask(lengths, t)))
    probes = [Tensor(rng.normal(size=(ids.size, d_h))) for ids, _ in batches]
    with Tape() as tape:
        outs = [encoder(ids, mask, emb, weights) for ids, mask in batches]
        n_nodes = len(tape.nodes)
        loss = ad.sum_all(ad.tanh(ad.embedding(emb, batches[0][0].reshape(-1, 1))))
        for (flat, pooled), probe in zip(outs, probes):
            loss = ad.add(loss, ad.sum_all(ad.mul(ad.tanh(flat), probe)))
            loss = ad.add(loss, ad.sum_all(ad.mul(pooled, pooled)))
    tape.backward(loss)
    return ([a.data for out in outs for a in out],
            {k: p.grad for k, p in named.items()}, n_nodes)


def _encode_layer(ids, mask, emb, weights):
    out = encode(ids, mask, emb, weights)
    return out.states_flat, out.pooled


@pytest.mark.parametrize("name", list(ENCODE_CASES))
def test_bigru_layer_encode_is_bit_identical_to_the_per_step_nodes(name):
    case = ENCODE_CASES[name]
    outs, grads, nodes = _encode_case(case, _encode_layer)
    ref_outs, ref_grads, _ = _encode_case(case, reference_encode)
    frozen = case.get("frozen", ())
    # the lookup (none from a frozen table), one node per layer, the reshape and the mean
    lookups = "emb" not in frozen
    assert nodes == sum(2 + lookups + case["n_layers"] for _ in case["batches"])
    for a, b in zip(outs, ref_outs):
        assert np.array_equal(a, b)
    assert grads.keys() == ref_grads.keys()
    for k in grads:
        if k.startswith(frozen):
            assert grads[k] is None and ref_grads[k] is None, k
        else:
            assert grads[k].tobytes() == ref_grads[k].tobytes(), k


def test_embedding_block_is_bit_identical_to_one_column_lookups_and_their_concat():
    # four id columns; id 3 repeats within column 0 and across columns 0, 2
    # and 3.  A second lookup, recorded after the block, is visited first, so
    # the block's parts are added onto a gradient the table already holds.
    rng = np.random.default_rng(41)
    ids = np.array([[3, 0, 5, 3], [3, 1, 3, 2], [4, 0, 3, 6], [1, 3, 2, 3]])
    k, d = ids.shape[1], 5
    table_data = rng.normal(size=(7, d))
    # parts of unlike magnitudes, so that another order of adding them rounds otherwise
    probe = rng.normal(size=(len(ids), k * d)) * np.repeat(10.0 ** rng.uniform(-3, 3, size=k), d)

    def run(lookup):
        table = Tensor(table_data.copy(), requires_grad=True)
        with Tape() as tape:
            rows = lookup(table)
            n_nodes = len(tape.nodes)
            later = ad.embedding(table, np.array([[3], [6], [3]]))
            loss = ad.add(ad.sum_all(ad.mul(ad.tanh(rows), Tensor(probe))),
                          ad.sum_all(ad.mul(later, later)))
        tape.backward(loss)
        return rows.data, table.grad, n_nodes

    rows, grad, nodes = run(lambda table: ad.embedding(table, ids))
    ref_rows, ref_grad, ref_nodes = run(
        lambda table: ad.concat([ad.embedding(table, ids[:, j:j + 1]) for j in range(k)]))
    assert (nodes, ref_nodes) == (1, k + 1)
    assert rows.tobytes() == ref_rows.tobytes()
    assert grad.tobytes() == ref_grad.tobytes()
    with pytest.raises(DimensionError):  # one id column is an [n, 1] block
        ad.embedding(Tensor(table_data), ids[:, 0])
    with pytest.raises(DomainError):
        ad.embedding(Tensor(table_data), ids + 1)


def _layer_inputs(rng, b=3, t=4, d_in=3, units=2, requires_grad=True):
    x = Tensor(rng.normal(size=(b, t * d_in)), requires_grad=requires_grad)
    mask = _lengths_mask(rng.integers(1, t + 1, size=b), t)
    cells = [rand_cell(rng, d_in, units, requires_grad=requires_grad) for _ in range(2)]
    return x, mask, cells


def test_bigru_layer_gradients_with_mask():
    rng = np.random.default_rng(17)
    x, mask, (fwd_w, bwd_w) = _layer_inputs(rng)
    mask[0] = [True, True, False, False]
    mask[1] = [True, False, False, False]
    probe = Tensor(rng.normal(size=(3, 4 * 4)))

    def f():
        out = gru_layer(x, mask, (fwd_w, bwd_w))
        return scalar_loss(ad.mul(ad.mul(out, out), probe))

    params = {"x": x, **fwd_w.named("fwd"), **bwd_w.named("bwd")}
    report = grad_check(f, params, h=1e-5, tol=1e-6)
    assert report.passed, report.format()


def test_gru_cell_shape_mismatch():
    rng = np.random.default_rng(3)
    x, mask, (fwd_w, bwd_w) = _layer_inputs(rng, requires_grad=False)
    for cells in ([], [fwd_w], [fwd_w] * 3):  # not a (forward, backward) pair
        with pytest.raises(DimensionError):
            gru_layer(x, mask, cells)
    with pytest.raises(DimensionError):  # backward cell has other units
        gru_layer(x, mask, (fwd_w, rand_cell(rng, 3, 3, requires_grad=False)))
    with pytest.raises(DimensionError):  # backward cell reads another width
        gru_layer(x, mask, (fwd_w, rand_cell(rng, 4, 2, requires_grad=False)))
    bad = rand_cell(rng, 3, 2, requires_grad=False)
    bad.U_h = Tensor(np.zeros((2, 3)))
    with pytest.raises(DimensionError):
        gru_layer(x, mask, (bad, bwd_w))


def test_bigru_layer_shape_mismatch():
    rng = np.random.default_rng(19)
    x, mask, (fwd_w, bwd_w) = _layer_inputs(rng, requires_grad=False)
    gru_layer(x, mask, (fwd_w, bwd_w))
    with pytest.raises(DimensionError):  # input width is not T * d_in
        gru_layer(Tensor(np.zeros((3, 13))), mask, (fwd_w, bwd_w))
    with pytest.raises(DimensionError):  # mask rows differ from the batch
        gru_layer(x, mask[:2], (fwd_w, bwd_w))
    for m in (mask.reshape(-1), mask[:, :0], None):  # mask is not [B, T] with T > 0
        with pytest.raises(DimensionError):
            gru_layer(x, m, (fwd_w, bwd_w))


def test_bigru_layer_without_a_tape_records_nothing():
    rng = np.random.default_rng(23)
    x, mask, (fwd_w, bwd_w) = _layer_inputs(rng)
    free = gru_layer(x, mask, (fwd_w, bwd_w))
    assert not free.requires_grad
    with Tape() as tape:
        taped = gru_layer(x, mask, (fwd_w, bwd_w))
    assert taped.requires_grad and len(tape.nodes) == 1
    assert np.array_equal(free.data, taped.data)
    frozen = [Tensor(p.data) for p in (x, *fwd_w.named("").values(), *bwd_w.named("").values())]
    with Tape() as tape:
        out = gru_layer(frozen[0], mask, (GRUCellWeights(*frozen[1:10]),
                                          GRUCellWeights(*frozen[10:])))
    assert not tape.nodes and not out.requires_grad
    assert np.array_equal(out.data, taped.data)


def test_backward_adds_repeated_input_parts_in_listed_order():
    # (1 + 1e-16) - 1 is 0, while (-1 + 1e-16) + 1 is 1.1e-16
    parts = [np.array([1.0]), np.array([1e-16]), np.array([-1.0])]

    def grad_with(order):
        a = Tensor([0.0], requires_grad=True)
        with Tape() as tape:
            out = ad._record((a, a, a), Tensor([0.0]), lambda g: tuple(parts[i] for i in order))
        tape.backward(out)
        return a.grad[0]

    assert grad_with([0, 1, 2]) == (1.0 + 1e-16) + -1.0 == 0.0
    assert grad_with([2, 1, 0]) == (-1.0 + 1e-16) + 1.0 != 0.0


def test_a_node_s_pairs_add_as_one_node_per_part_would():
    rng = np.random.default_rng(8)
    # parts of unlike magnitudes, whose sum rounds differently in another order
    a_parts = [rng.normal(size=8) * scale for scale in (1e8, 1.0, 1e-8)]
    c_part = rng.normal(size=8)
    pairs_of = lambda a, c: [(a, a_parts[0]), (c, c_part), (a, a_parts[1]), (a, a_parts[2])]

    a, c = (Tensor(np.zeros(8), requires_grad=True) for _ in range(2))
    with Tape() as tape:
        out = ad._record_pairs((a, c), Tensor([0.0]), lambda g: iter(pairs_of(a, c)))
    tape.backward(out)

    a1, c1 = (Tensor(np.zeros(8), requires_grad=True) for _ in range(2))
    with Tape() as tape:
        # the tape visits nodes last first, so record the parts last first
        outs = [ad._record((t,), Tensor([0.0]), lambda g, p=p: (p,))
                for t, p in pairs_of(a1, c1)[::-1]]
        total = outs[0]
        for o in outs[1:]:
            total = ad.add(total, o)
    tape.backward(total)

    p0, p1, p2 = a_parts
    assert a.grad.tobytes() == a1.grad.tobytes() == ((p0 + p1) + p2).tobytes()
    assert c.grad.tobytes() == c1.grad.tobytes() == c_part.tobytes()
    assert a.grad.tobytes() != ((p2 + p1) + p0).tobytes()


def test_the_tape_drops_the_parts_of_a_tensor_that_needs_no_gradient():
    rng = np.random.default_rng(9)
    x_parts = [rng.normal(size=4) * scale for scale in (1e8, 1.0, 1e-8)]
    x = Tensor(np.zeros(4), requires_grad=True)
    c = Tensor(np.zeros(4))  # frozen: its parts, of shapes that could not be added, are dropped
    pairs = [(x, x_parts[0]), (c, np.ones(3)), (x, x_parts[1]), (c, np.ones(5)), (x, x_parts[2])]
    with Tape() as tape:
        out = ad._record_pairs((x, c), Tensor([0.0]), lambda g: iter(pairs))
    tape.backward(out)
    assert c.grad is None
    assert x.grad.tobytes() == ((x_parts[0] + x_parts[1]) + x_parts[2]).tobytes()


def _two_outputs(x):
    """A node with outputs 2x and x*x; calls collects the g its backward is handed."""
    calls = []

    def backward(g):
        calls.append(g)
        g_double, g_square = g
        if g_double is not None:
            yield x, g_double * 2.0
        if g_square is not None:
            yield x, g_square * 2.0 * x.data

    outs = ad._record_pairs((x,), (Tensor(2.0 * x.data), Tensor(x.data * x.data)), backward)
    return outs, calls


@pytest.mark.parametrize("read", [0, 1])
def test_a_node_of_two_outputs_gets_none_for_the_one_not_read(read):
    x = Tensor(np.random.default_rng(10).normal(size=4), requires_grad=True)
    with Tape() as tape:
        outs, calls = _two_outputs(x)
        loss = ad.sum_all(ad.tanh(outs[read]))
    tape.backward(loss)
    (g,) = calls
    g_read = 1.0 - np.tanh(outs[read].data) ** 2
    assert len(g) == 2 and g[1 - read] is None and g[read].tobytes() == g_read.tobytes()
    scale = 2.0 if read == 0 else 2.0 * x.data
    assert x.grad.tobytes() == (g_read * scale).tobytes()


def test_a_node_whose_outputs_are_not_read_is_never_called():
    x = Tensor(np.random.default_rng(11).normal(size=4), requires_grad=True)
    with Tape() as tape:
        _, calls = _two_outputs(x)
        loss = ad.sum_all(ad.tanh(x))
    tape.backward(loss)
    assert calls == [] and x.grad.tobytes() == (1.0 - np.tanh(x.data) ** 2).tobytes()


def test_a_one_argument_wrapper_passes_a_gradient_tuple_through():
    def marked(backward, marks):  # the form of a tracer's per-node wrapper
        def rule(g):
            marks.append(g)
            return backward(g)
        return rule

    def grads(wrap):
        rng = np.random.default_rng(12)
        x, y = (Tensor(rng.normal(size=(2, 3)), requires_grad=True) for _ in range(2))
        with Tape() as tape:
            (double, square), _ = _two_outputs(x)
            left, right = ad.split(ad.mul(square, y), [1, 2])
            loss = ad.sum_all(ad.mul(ad.concat([right, left]), ad.tanh(double)))
        marks = []
        if wrap:
            for node in tape.nodes:
                node.backward = marked(node.backward, marks)
        n = len(tape.nodes)
        tape.backward(loss)
        assert len(marks) == (n if wrap else 0)
        return x.grad.tobytes(), y.grad.tobytes()

    assert grads(wrap=True) == grads(wrap=False)


def test_grad_check_reports_per_tensor():
    x = Tensor([0.5, -0.5], requires_grad=True)
    y = Tensor([[1.0, 2.0]], requires_grad=True)

    def f():
        return ad.sum_all(ad.mul(ad.tanh(x), ad.reshape(y, (2,))))

    report = grad_check(f, {"x": x, "y": y})
    assert {e.name for e in report.entries} == {"x", "y"}
    assert all(e.n_checked == 2 for e in report.entries)
    assert report.passed
    assert "PASS" in report.format()
