"""Autodiff engine: op semantics, backward rules, gradient checking."""

import weakref

import numpy as np
import pytest

from focuscvae import autodiff as ad
from focuscvae.autodiff import Tensor, Tape, GRUCellWeights, grad_check, gru_layer
from focuscvae.encoders import encode, init_encoder_weights
from focuscvae.errors import DimensionError, DomainError, MaskError
from reference import sum_groups


def scalar_loss(t):
    # sum so any op output becomes a grad_check target
    return ad.sum_all(t)


def test_tanh_known_value():
    assert ad.tanh(Tensor([1.0])).data[0] == pytest.approx(0.7615941559557649, abs=1e-15)


def test_softmax_known_values():
    y = ad.softmax(Tensor([1.0, 2.0, 3.0]))
    np.testing.assert_allclose(y.data, [0.09003057, 0.24472847, 0.66524096], atol=1e-8)
    assert y.data.sum() == pytest.approx(1.0, abs=1e-12)


def test_softmax_mask_zeroes_positions_exactly():
    mask = np.array([True, False, True, False])
    y = ad.softmax(Tensor([0.3, 5.0, -0.2, 9.0]), mask)
    assert y.data[1] == 0.0 and y.data[3] == 0.0
    assert y.data.sum() == pytest.approx(1.0, abs=1e-12)


def test_softmax_all_masked_is_an_error():
    with pytest.raises(MaskError):
        ad.softmax(Tensor([[1.0, 2.0], [3.0, 4.0]]), np.array([[True, True], [False, False]]))


def test_softmax_masked_gradient_exactly_zero():
    x = Tensor([0.5, 1.5, -0.5], requires_grad=True)
    mask = np.array([True, False, True])
    with Tape() as tape:
        y = ad.softmax(x, mask)
        loss = scalar_loss(ad.mul(y, y))
    tape.backward(loss)
    assert x.grad[1] == 0.0


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
            parts = rule(g)
            returned.extend((part, part.copy()) for part in parts if part is not None)
            return parts
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


PRIMITIVE_CASES = [
    ("add", lambda rng: ((a := _rand(rng, (3, 4))), (b := _rand(rng, (3, 4))),
                         lambda: scalar_loss(ad.mul(ad.add(a, b), ad.add(a, b))), {"a": a, "b": b})),
    ("add_scalar", lambda rng: ((a := _rand(rng, (3, 4))), (b := _rand(rng, ())),
                                lambda: scalar_loss(ad.mul(ad.add(a, b), a)), {"a": a, "b": b})),
    ("mul", lambda rng: ((a := _rand(rng, (3, 4))), (b := _rand(rng, (3, 4))),
                         lambda: scalar_loss(ad.tanh(ad.mul(a, b))), {"a": a, "b": b})),
    ("neg", lambda rng: ((a := _rand(rng, (5,))), None,
                         lambda: scalar_loss(ad.mul(ad.neg(a), a)), {"a": a})),
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
    ("concat0", lambda rng: ((a := _rand(rng, (2, 3))), (b := _rand(rng, (4, 3))),
                             lambda: scalar_loss(ad.tanh(ad.concat([a, b], axis=0))), {"a": a, "b": b})),
    ("concat1", lambda rng: ((a := _rand(rng, (3, 2))), (b := _rand(rng, (3, 4))),
                             lambda: scalar_loss(ad.tanh(ad.concat([a, b], axis=1))), {"a": a, "b": b})),
    ("narrow", lambda rng: ((a := _rand(rng, (4, 5))), None,
                            lambda: scalar_loss(ad.mul(ad.narrow(a, 1, 1, 3), ad.narrow(a, 1, 2, 3))), {"a": a})),
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
                             lambda: scalar_loss(ad.mul(ad.softmax(a), a)), {"a": a})),
    ("softmax_masked", lambda rng: ((a := _rand(rng, (3, 5))), None,
                                    lambda: scalar_loss(ad.mul(ad.softmax(
                                        a, np.array([[1, 1, 0, 1, 0]] * 3, dtype=bool)), a)), {"a": a})),
    ("log_softmax", lambda rng: ((a := _rand(rng, (3, 5))), None,
                                 lambda: scalar_loss(ad.mul(ad.log_softmax(a), ad.softmax(a))), {"a": a})),
    ("embedding", lambda rng: ((t := _rand(rng, (6, 3))), None,
                               lambda: scalar_loss(ad.tanh(ad.embedding(t, np.array([0, 2, 2, 5, 1])))), {"t": t})),
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


def one_step(x, h_prev, w, keep=None):
    """A decoder step: the one-cell layer at T = 1, with keep as its mask."""
    return gru_layer(x, keep, [w], h_prev)


def test_gru_cell_zero_weights_halve_state():
    d_in, d_h = 3, 4
    zeros = lambda shape: Tensor(np.zeros(shape), requires_grad=True)
    w = GRUCellWeights(
        W_u=zeros((d_in, d_h)), U_u=zeros((d_h, d_h)), b_u=zeros(d_h),
        W_r=zeros((d_in, d_h)), U_r=zeros((d_h, d_h)), b_r=zeros(d_h),
        W_h=zeros((d_in, d_h)), U_h=zeros((d_h, d_h)), b_h=zeros(d_h),
    )
    v = np.array([[0.2, -0.4, 1.0, 3.0]])
    h = one_step(Tensor(np.ones((1, d_in))), Tensor(v), w)
    np.testing.assert_allclose(h.data, 0.5 * v, atol=1e-15)


def _check_gru_cell_gradients(keep):
    rng = np.random.default_rng(7)
    d_in, d_h = 3, 4
    w = rand_cell(rng, d_in, d_h)
    b = 2 if keep is None else keep.shape[0]
    x = Tensor(rng.normal(size=(b, d_in)), requires_grad=True)
    h0 = Tensor(rng.normal(size=(b, d_h)), requires_grad=True)

    def f():
        h1 = one_step(x, h0, w, keep)
        h2 = one_step(x, h1, w, None if keep is None else 1.0 - keep)
        return scalar_loss(ad.mul(h2, h2))

    params = {"x": x, "h0": h0, **w.named("w")}
    report = grad_check(f, params, h=1e-5, tol=1e-6)
    assert report.passed, report.format()


def test_gru_cell_gradients():
    _check_gru_cell_gradients(None)


def test_gru_cell_gradients_with_mask():
    _check_gru_cell_gradients(np.array([[1.0], [0.0], [1.0]]))


def test_gru_cell_shape_mismatch():
    rng = np.random.default_rng(3)
    w = rand_cell(rng, 3, 4, requires_grad=False)
    with pytest.raises(DimensionError):
        one_step(Tensor(np.zeros((2, 5))), Tensor(np.zeros((2, 4))), w)
    with pytest.raises(DimensionError):
        one_step(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 5))), w)
    with pytest.raises(DimensionError):
        one_step(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 4))), w)
    with pytest.raises(DimensionError):
        one_step(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4))), w, np.ones(2))


# the op-by-op composition the fused cell replaced, kept as its reference


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
    u = reference_sigmoid(ad.bias_add(ad.add(ad.matmul(x, w.W_u), ad.matmul(h_prev, w.U_u)), w.b_u))
    r = reference_sigmoid(ad.bias_add(ad.add(ad.matmul(x, w.W_r), ad.matmul(h_prev, w.U_r)), w.b_r))
    c = ad.tanh(ad.bias_add(ad.add(ad.matmul(x, w.W_h), ad.matmul(ad.mul(r, h_prev), w.U_h)),
                            w.b_h))
    h_new = ad.add(ad.mul(ad.add(ad.neg(u), 1.0), h_prev), ad.mul(u, c))
    if keep is None:
        return h_new
    # masked carry: PAD rows keep the previous state
    return ad.add(ad.scale_rows(h_new, Tensor(keep)), ad.scale_rows(h_prev, Tensor(1.0 - keep)))


def _two_directions(cell, keeps):
    """Three chained steps each way over shared inputs, as the encoder runs
    them; every x and h also feeds a consumer recorded after the cells."""
    rng = np.random.default_rng(21)
    b, d_in, d_h = 4, 3, 5
    fwd_w, bwd_w = rand_cell(rng, d_in, d_h), rand_cell(rng, d_in, d_h)
    leaves = [Tensor(rng.normal(size=(b, d_in)), requires_grad=True) for _ in range(3)]
    h0 = Tensor(rng.normal(size=(b, d_h)), requires_grad=True)
    probe = Tensor(rng.normal(size=(b, d_h)))
    with Tape() as tape:
        xs = [ad.tanh(leaf) for leaf in leaves]
        states = []
        for w, order in ((fwd_w, range(3)), (bwd_w, range(2, -1, -1))):
            h = h0
            for t in order:
                h = cell(xs[t], h, w, keeps[t])
                states.append(h)
        loss = ad.sum_all(ad.mul(xs[0], xs[0]))
        for x in xs[1:]:
            loss = ad.add(loss, ad.sum_all(ad.mul(x, x)))
        for h in states:
            loss = ad.add(loss, ad.sum_all(ad.mul(h, probe)))
    n_nodes = len(tape.nodes)
    tape.backward(loss)
    named = {"h0": h0, **{f"x{i}": leaf for i, leaf in enumerate(leaves)},
             **fwd_w.named("fwd"), **bwd_w.named("bwd")}
    return [s.data for s in states], {k: t.grad for k, t in named.items()}, n_nodes


@pytest.mark.parametrize("masked", [False, True], ids=["decoder", "encoder"])
def test_fused_gru_cell_is_bit_identical_to_the_composition(masked):
    cols = [[1.0, 0.0, 1.0, 1.0], [0.0, 1.0, 1.0, 0.0], [1.0, 1.0, 0.0, 0.0]]
    keeps = [np.array(c).reshape(-1, 1) if masked else None for c in cols]
    fused_states, fused_grads, fused_nodes = _two_directions(one_step, keeps)
    ref_states, ref_grads, ref_nodes = _two_directions(reference_gru_cell, keeps)
    assert fused_nodes == ref_nodes - 6 * (23 if masked else 20)
    for a, b in zip(fused_states, ref_states):
        assert np.array_equal(a, b)
    assert fused_grads.keys() == ref_grads.keys()
    for name in ref_grads:
        assert np.array_equal(fused_grads[name], ref_grads[name]), name


def test_sigmoid_matches_the_two_branch_form_bitwise():
    rng = np.random.default_rng(11)
    special = np.array([0.0, -0.0, np.inf, -np.inf, 745.0, -745.0, 1e-320, -1e-320])
    arrays = [special] + [rng.normal(scale=rng.uniform(0.1, 40.0), size=(rng.integers(1, 9), 4))
                          for _ in range(3000)]
    for d in arrays:
        assert ad._sigmoid(d).tobytes() == reference_sigmoid_data(d).tobytes()


# the encoder as it was before its fused layer, kept as its reference: one cell
# node per step and direction, a concat per position, and pooling by a
# chain of scale_rows and add


def reference_encode(ids, mask, emb, weights, cell):
    b, t = ids.shape
    units = weights.layers[0][0].U_u.shape[0]
    keeps = [mask[:, i:i + 1].astype(np.float64) for i in range(t)]
    outputs = [ad.embedding(emb, ids[:, i]) for i in range(t)]
    for fwd_w, bwd_w in weights.layers:
        states = [[None] * t, [None] * t]
        for d, (w, order) in enumerate(((fwd_w, range(t)), (bwd_w, range(t - 1, -1, -1)))):
            h = Tensor(np.zeros((b, units)))
            for i in order:
                h = cell(outputs[i], h, w, keeps[i])
                states[d][i] = h
        outputs = [ad.concat([f, k], axis=1) for f, k in zip(*states)]
    flat = ad.reshape(ad.concat(outputs, axis=1), (b * t, 2 * units))
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
        loss = ad.sum_all(ad.tanh(ad.embedding(emb, batches[0][0].reshape(-1))))
        for (flat, pooled), probe in zip(outs, probes):
            loss = ad.add(loss, ad.sum_all(ad.mul(ad.tanh(flat), probe)))
            loss = ad.add(loss, ad.sum_all(ad.mul(pooled, pooled)))
    tape.backward(loss)
    named = {"emb": emb, **weights.named("enc")}
    return ([a.data for out in outs for a in out],
            {k: p.grad for k, p in named.items()}, n_nodes)


def _encode_layer(ids, mask, emb, weights):
    out = encode(ids, mask, emb, weights)
    return out.states_flat, out.pooled


@pytest.mark.parametrize("cell", [reference_gru_cell, one_step],
                         ids=["composition", "one_step_layer"])
@pytest.mark.parametrize("name", list(ENCODE_CASES))
def test_bigru_layer_encode_is_bit_identical_to_the_per_step_nodes(name, cell):
    case = ENCODE_CASES[name]
    outs, grads, nodes = _encode_case(case, _encode_layer)
    ref_outs, ref_grads, _ = _encode_case(
        case, lambda *a: reference_encode(*a, cell=cell))
    # T embeddings, their concat, one node per layer, the reshape and the mean
    assert nodes == sum(t + 3 + case["n_layers"] for t, _ in case["batches"])
    for a, b in zip(outs, ref_outs):
        assert np.array_equal(a, b)
    assert grads.keys() == ref_grads.keys()
    for k in grads:
        assert np.array_equal(grads[k], ref_grads[k]), k


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


@pytest.mark.parametrize("masked", [False, True], ids=["unmasked", "masked"])
def test_one_cell_layer_is_bit_identical_to_its_chained_steps(masked):
    rng = np.random.default_rng(29)
    x, mask, (w, _) = _layer_inputs(rng)
    h0 = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    probe = Tensor(rng.normal(size=(3, 4 * 2)))
    m = mask.astype(np.float64) if masked else None
    params = [x, h0, *w.named("").values()]

    def chained():
        h, states = h0, []
        for i in range(4):
            h = one_step(ad.narrow(x, 1, 3 * i, 3), h, w, None if m is None else m[:, i:i + 1])
            states.append(h)
        return ad.concat(states, axis=1)

    def run(layer):
        for p in params:
            p.zero_grad()
        with Tape() as tape:
            out = layer()
            loss = ad.sum_all(ad.mul(ad.mul(out, out), probe))
        tape.backward(loss)
        return [out.data] + [p.grad for p in params]

    fused = run(lambda: gru_layer(x, m, [w], h0))
    for a, b in zip(fused, run(chained)):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("n_cells", [1, 2])
def test_gru_layer_gradients_with_an_initial_state(n_cells):
    rng = np.random.default_rng(37)
    x, mask, cells = _layer_inputs(rng)
    cells = cells[:n_cells]
    h0 = Tensor(rng.normal(size=(3, 2 * n_cells)), requires_grad=True)
    probe = Tensor(rng.normal(size=(3, 4 * 2 * n_cells)))

    def f():
        out = gru_layer(x, mask, cells, h0)
        return scalar_loss(ad.mul(ad.mul(out, out), probe))

    params = {"x": x, "h0": h0, **{k: v for i, c in enumerate(cells)
                                   for k, v in c.named(f"c{i}").items()}}
    report = grad_check(f, params, h=1e-5, tol=1e-6)
    assert report.passed, report.format()


def test_bigru_layer_shape_mismatch():
    rng = np.random.default_rng(19)
    x, mask, (fwd_w, bwd_w) = _layer_inputs(rng, requires_grad=False)
    gru_layer(x, mask, (fwd_w, bwd_w))
    with pytest.raises(DimensionError):  # input width is not T * d_in
        gru_layer(Tensor(np.zeros((3, 13))), mask, (fwd_w, bwd_w))
    with pytest.raises(DimensionError):  # mask rows differ from the batch
        gru_layer(x, mask[:2], (fwd_w, bwd_w))
    with pytest.raises(DimensionError):  # mask is not [B, T]
        gru_layer(x, mask.reshape(-1), (fwd_w, bwd_w))
    with pytest.raises(DimensionError):  # backward cell has other units
        gru_layer(x, mask, (fwd_w, rand_cell(rng, 3, 3, requires_grad=False)))
    with pytest.raises(DimensionError):  # backward cell reads another width
        gru_layer(x, mask, (fwd_w, rand_cell(rng, 4, 2, requires_grad=False)))
    bad = rand_cell(rng, 3, 2, requires_grad=False)
    bad.U_h = Tensor(np.zeros((2, 3)))
    with pytest.raises(DimensionError):
        gru_layer(x, mask, (bad, bwd_w))
    gru_layer(x, mask, (fwd_w, bwd_w), Tensor(np.zeros((3, 4))))
    for h0 in (np.zeros((3, 2)), np.zeros((2, 4)), np.zeros(12)):  # h0 is not [B, 2u]
        with pytest.raises(DimensionError):
            gru_layer(x, mask, (fwd_w, bwd_w), Tensor(h0))
    for cells in ([], [fwd_w] * 3):  # neither one cell nor a pair
        with pytest.raises(DimensionError):
            gru_layer(x, mask, cells)


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
