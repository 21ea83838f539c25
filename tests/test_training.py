"""Loss terms, schedules, the optimizer, checkpoints, and the loop."""

import hashlib
import json
import math
import struct
from pathlib import Path

import numpy as np
import pytest

from focuscvae import autodiff as ad
from focuscvae import training as tr
from focuscvae.autodiff import Tape, Tensor
from focuscvae.config import TrainConfig
from focuscvae.corpus import EOS_ID, PostResponsePair, collate, generate_synthetic, to_pairs
from focuscvae.errors import (CompatibilityError, ConfigError, IntegrityError,
                              NumericalError, ValidationError, VersionError)
from focuscvae.model import FocusCVAE

# independently derived anchors
LN_4 = 1.3862943611198906
LN_50 = 3.912023005428146
HALF_SQRT_HALF = 0.7071067811865476


def micro_cfg(variant="focconstrain", **over):
    base = dict(variant=variant, vocab_size=7, d_h=4, d_z=4, batch_size=2,
                init_scale=0.3, seed=5, total_steps=8, warmup_steps=3,
                kl_anneal_steps=4, checkpoint_interval=4)
    base.update(over)
    return TrainConfig(**base)


def micro_model(variant="focconstrain", seed=5, **over):
    cfg = micro_cfg(variant, seed=seed, **over)
    return FocusCVAE(cfg, np.random.default_rng([seed, 0]))


class TestSchedules:
    def test_anneal_ramps_linearly_then_saturates(self):
        assert tr.kl_anneal(0, 500) == 0.0
        assert tr.kl_anneal(250, 500) == 0.5
        assert tr.kl_anneal(500, 500) == 1.0
        assert tr.kl_anneal(10_000, 500) == 1.0

    def test_anneal_is_nondecreasing(self):
        vals = [tr.kl_anneal(s, 37) for s in range(120)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_anneal_validates(self):
        with pytest.raises(ConfigError):
            tr.kl_anneal(5, 0)
        with pytest.raises(ConfigError):
            tr.kl_anneal(-1, 10)

    def test_lr_known_points(self):
        assert tr.lr_schedule(4000, 8000, 0.0008) == 0.0004
        assert tr.lr_schedule(8000, 8000, 0.0008) == 0.0008
        assert tr.lr_schedule(32000, 8000, 0.0008) == pytest.approx(0.0004, abs=1e-18)

    def test_lr_continuous_at_warmup_boundary(self):
        for warmup, peak in ((200, 0.002), (7, 0.5), (1000, 1e-3)):
            ramp = tr.lr_schedule(warmup, warmup, peak)
            decay = peak * math.sqrt(warmup / (warmup + 1))
            assert ramp == peak
            assert tr.lr_schedule(warmup + 1, warmup, peak) == decay

    def test_lr_is_one_based(self):
        with pytest.raises(ConfigError):
            tr.lr_schedule(0, 10, 0.1)


class TestSeqLoss:
    def test_uniform_logits_cost_log_vocab(self):
        logits = Tensor(np.zeros((6, 4)))
        gold = np.array([0, 1, 2, 3, 0, 1])
        mask = np.ones(6, dtype=bool)
        assert tr.seq_loss(logits, gold, mask).item() == pytest.approx(LN_4, abs=1e-12)

    def test_masked_positions_cost_nothing(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(4, 5))
        poisoned = logits.copy()
        poisoned[2] = 1e6  # masked row, must not matter
        mask = np.array([True, True, False, True])
        gold = np.array([1, 2, 3, 4])
        a = tr.seq_loss(Tensor(logits), gold, mask).item()
        b = tr.seq_loss(Tensor(poisoned), gold, mask).item()
        assert a == b

    def test_perfect_prediction_drives_loss_down(self):
        logits = np.full((3, 4), -30.0)
        gold = np.array([1, 2, 0])
        logits[np.arange(3), gold] = 30.0
        val = tr.seq_loss(Tensor(logits), gold, np.ones(3, dtype=bool)).item()
        assert val < 1e-9

    def test_rejects_empty_mask_and_bad_ids(self):
        logits = Tensor(np.zeros((2, 4)))
        with pytest.raises(ValidationError):
            tr.seq_loss(logits, np.array([0, 1]), np.zeros(2, dtype=bool))
        with pytest.raises(ValidationError):
            tr.seq_loss(logits, np.array([0, 9]), np.ones(2, dtype=bool))


class TestFocusLoss:
    def test_frozen_single_row(self):
        cov = Tensor(np.array([[1.2, 0.8]]))
        focus = Tensor(np.array([[0.1, 0.9]]))
        val = tr.focus_loss(cov, np.array([2]), focus).item()
        assert val == pytest.approx(HALF_SQRT_HALF, abs=1e-12)

    def test_batch_mean_of_row_norms(self):
        cov = Tensor(np.array([[1.2, 0.8], [3.0, 0.0]]))
        focus = Tensor(np.array([[0.1, 0.9], [1.0, 0.0]]))
        val = tr.focus_loss(cov, np.array([2, 3]), focus).item()
        assert val == pytest.approx(HALF_SQRT_HALF / 2, abs=1e-12)

    def test_zero_when_coverage_matches_focus(self):
        focus = np.array([[0.25, 0.75], [0.5, 0.5]])
        cov = Tensor(focus * np.array([[4.0], [2.0]]))
        val = tr.focus_loss(cov, np.array([4, 2]), Tensor(focus.copy())).item()
        assert val == 0.0

    def test_gradient_flows_into_both_sides(self):
        cov = Tensor(np.array([[1.2, 0.8]]), requires_grad=True)
        focus = Tensor(np.array([[0.1, 0.9]]), requires_grad=True)
        with Tape() as tape:
            loss = tr.focus_loss(cov, np.array([2]), focus)
        tape.backward(loss)
        assert cov.grad is not None and np.abs(cov.grad).max() > 0
        assert focus.grad is not None and np.abs(focus.grad).max() > 0
        np.testing.assert_allclose(cov.grad * 2.0, -focus.grad, atol=1e-12)

    def test_validates_lengths_and_shapes(self):
        cov = Tensor(np.ones((1, 2)))
        with pytest.raises(ValidationError):
            tr.focus_loss(cov, np.array([0]), Tensor(np.ones((1, 2))))
        with pytest.raises(ValidationError):
            tr.focus_loss(cov, np.array([2]), Tensor(np.ones((1, 3))))


class TestBowLoss:
    def test_uniform_logits_cost_log_vocab(self):
        logits = Tensor(np.zeros((2, 50)))
        resp = np.array([[5, 6, EOS_ID], [7, EOS_ID, 0]])
        mask = np.array([[True, True, True], [True, True, False]])
        assert tr.bow_loss(logits, resp, mask).item() == pytest.approx(LN_50, abs=1e-12)

    def test_eos_and_pad_tokens_are_not_scored(self):
        rng = np.random.default_rng(1)
        logits = rng.normal(size=(1, 6))
        lsm = logits - np.log(np.exp(logits).sum())
        resp = np.array([[4, EOS_ID, 0]])
        mask = np.array([[True, True, False]])
        val = tr.bow_loss(Tensor(logits.copy()), resp, mask).item()
        assert val == pytest.approx(-lsm[0, 4], abs=1e-12)

    def test_all_structural_tokens_mean_zero_loss(self):
        resp = np.array([[EOS_ID, 0]])
        mask = np.array([[True, False]])
        assert tr.bow_loss(Tensor(np.zeros((1, 6))), resp, mask).item() == 0.0

    def test_row_count_must_match(self):
        with pytest.raises(ValidationError):
            tr.bow_loss(Tensor(np.zeros((3, 6))), np.array([[4, EOS_ID]]),
                        np.ones((1, 2), dtype=bool))


def random_micro_batch(rng, vocab=7):
    pairs = []
    for _ in range(2):
        post = rng.integers(3, vocab, size=int(rng.integers(2, 5))).astype(np.int64)
        resp = np.concatenate([rng.integers(3, vocab, size=int(rng.integers(1, 5))),
                               [EOS_ID]]).astype(np.int64)
        pairs.append(PostResponsePair(post, resp))
    return collate(pairs)


class TestTotalLoss:
    def test_breakdown_sums_to_total(self):
        rng = np.random.default_rng(17)
        for variant in ("s2s", "foc", "foccoverage", "focconstrain"):
            model = micro_model(variant)
            for _ in range(10):
                batch = random_micro_batch(rng)
                eps = (rng.standard_normal((batch.size, 4))
                       if variant != "s2s" else None)
                gamma = float(rng.uniform(0, 1))
                total, b = tr.total_loss(model, batch, eps, gamma)
                recon = b.l_seq + b.l_foc + b.gamma * b.l_kl + b.l_bow
                assert abs(b.total - recon) < 1e-9
                assert total.item() == b.total

    def test_gated_terms_are_exact_zeros(self):
        rng = np.random.default_rng(23)
        batch = random_micro_batch(rng)
        _, b = tr.total_loss(micro_model("s2s"), batch, None, 0.7)
        assert b.l_kl == 0.0 and b.l_bow == 0.0 and b.l_foc == 0.0
        eps = rng.standard_normal((batch.size, 4))
        _, b = tr.total_loss(micro_model("foc"), batch, eps, 0.7)
        assert b.l_foc == 0.0 and b.l_kl > 0.0
        _, b = tr.total_loss(micro_model("foccoverage"), batch, eps, 0.7)
        assert b.l_foc == 0.0
        _, b = tr.total_loss(micro_model("focconstrain"), batch, eps, 0.7)
        assert b.l_foc > 0.0

    def test_kl_term_never_negative(self):
        rng = np.random.default_rng(29)
        model = micro_model()
        for _ in range(20):
            batch = random_micro_batch(rng)
            eps = rng.standard_normal((batch.size, 4))
            _, b = tr.total_loss(model, batch, eps, 1.0)
            assert b.l_kl >= -1e-9

    def test_latent_variants_require_eps(self):
        batch = random_micro_batch(np.random.default_rng(0))
        with pytest.raises(ValidationError):
            tr.total_loss(micro_model("foc"), batch, None, 1.0)


class TestAdam:
    def test_two_steps_match_hand_computation(self):
        p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        opt = tr.Adam({"p": p})
        m = v = np.zeros(2)
        theta = np.array([1.0, -2.0])
        for t, g in ((1, np.array([0.5, -1.0])), (2, np.array([-0.25, 2.0]))):
            p.grad = g.copy()
            opt.step(lr=0.1)
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            mh, vh = m / (1 - 0.9 ** t), v / (1 - 0.999 ** t)
            theta = theta - 0.1 * mh / (np.sqrt(vh) + 1e-8)
            np.testing.assert_allclose(p.data, theta, atol=1e-15)

    def test_missing_grad_still_decays_moments(self):
        p = Tensor(np.ones(2), requires_grad=True)
        opt = tr.Adam({"p": p})
        p.grad = np.ones(2)
        opt.step(0.1)
        p.grad = None
        opt.step(0.1)
        assert opt.t == 2
        np.testing.assert_allclose(opt.m["p"], 0.9 * 0.1 * np.ones(2), atol=1e-15)


class TestClipping:
    def test_scales_down_to_the_cap(self):
        a = Tensor(np.zeros(3), requires_grad=True)
        b = Tensor(np.zeros(4), requires_grad=True)
        a.grad = np.full(3, 3.0)
        b.grad = np.full(4, 4.0)
        params = {"a": a, "b": b}
        before = math.sqrt(27 + 64)
        norm = tr.clip_gradients(params, 5.0)
        assert norm == pytest.approx(before)
        after = math.sqrt(float(np.sum(a.grad ** 2) + np.sum(b.grad ** 2)))
        assert after == pytest.approx(5.0, abs=1e-12)

    def test_small_gradients_untouched(self):
        a = Tensor(np.zeros(2), requires_grad=True)
        a.grad = np.array([0.3, 0.4])
        tr.clip_gradients({"a": a}, 5.0)
        np.testing.assert_array_equal(a.grad, [0.3, 0.4])

    def test_nan_gradient_behind_a_finite_loss_raises_before_scaling(self):
        a = Tensor(np.array([3.0, 4.0]), requires_grad=True)
        x = Tensor(np.array([1e-320]), requires_grad=True)
        with Tape() as tape:
            # log'(x) = 1/x overflows to infinity at this x, and the two logs'
            # parts, +inf and -inf, add to NaN; the loss is 25
            logs = ad.add(ad.sum_all(ad.log(x)), ad.mul(ad.sum_all(ad.log(x)), -1.0))
            loss = ad.add(ad.sum_all(ad.mul(a, a)), logs)
        with np.errstate(over="ignore", invalid="ignore"):
            tape.backward(loss)
        assert math.isfinite(loss.item()) and np.isnan(x.grad).all()
        with pytest.raises(NumericalError, match="for x"):
            tr.clip_gradients({"a": a, "x": x}, 1.0)
        np.testing.assert_array_equal(a.grad, [6.0, 8.0])


def _joined_array_block(arrays):
    chunks = [struct.pack("<I", len(arrays))]
    for name, arr in arrays.items():
        encoded = name.encode("utf-8")
        chunks.append(struct.pack("<H", len(encoded)))
        chunks.append(encoded)
        chunks.append(struct.pack("<B", arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}I", *arr.shape) if arr.ndim else b"")
        chunks.append(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    return b"".join(chunks)


def joined_checkpoint(state):
    """A checkpoint file's bytes built as one joined body plus its digest,
    the reference for the streamed save."""
    config_blob = state.config.canonical_json().encode("utf-8")
    meta_blob = json.dumps(state.meta, sort_keys=True, separators=(",", ":")).encode("utf-8")
    body = b"".join([
        tr.CHECKPOINT_MAGIC,
        struct.pack("<I", tr.CHECKPOINT_VERSION),
        struct.pack("<Q", state.step),
        struct.pack("<Q", state.adam_t),
        struct.pack("<I", len(config_blob)), config_blob,
        struct.pack("<I", len(meta_blob)), meta_blob,
        _joined_array_block(state.params),
        _joined_array_block(state.adam_m),
        _joined_array_block(state.adam_v),
    ])
    return body + hashlib.sha256(body).digest()


class TestCheckpoint:
    def state(self, tmp_path, cfg=None):
        cfg = cfg or micro_cfg()
        model = FocusCVAE(cfg, np.random.default_rng(1))
        adam = tr.Adam(model.named_parameters())
        return tr.checkpoint_from(model, adam, step=4, meta={"max_train_resp_len": 6})

    def test_roundtrip_preserves_everything(self, tmp_path):
        st = self.state(tmp_path)
        path = tmp_path / "c.bin"
        tr.save_checkpoint(path, st)
        back = tr.load_checkpoint(path)
        assert back.config == st.config and back.step == 4 and back.adam_t == 0
        assert back.meta == st.meta
        assert set(back.params) == set(st.params)
        for k in st.params:
            np.testing.assert_array_equal(back.params[k], st.params[k])
            np.testing.assert_array_equal(back.adam_m[k], st.adam_m[k])

    def test_resave_is_byte_identical(self, tmp_path):
        st = self.state(tmp_path)
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        tr.save_checkpoint(a, st)
        tr.save_checkpoint(b, tr.load_checkpoint(a))
        assert a.read_bytes() == b.read_bytes()

    def test_streamed_save_writes_the_joined_layout(self, tmp_path):
        st = self.state(tmp_path)
        model = FocusCVAE(st.config, np.random.default_rng(2))
        st.adam_m = {k: p.data * -0.5 for k, p in model.named_parameters().items()}
        # arrays that need converting: a transposed view, float32, 0-d
        st.params["extra.view"] = np.arange(6.0).reshape(2, 3).T
        st.adam_v["extra.f32"] = np.linspace(-1, 1, 5, dtype=np.float32)
        st.adam_v["extra.scalar"] = np.array(2.5)
        path = tmp_path / "c.bin"
        tr.save_checkpoint(path, st)
        assert path.read_bytes() == joined_checkpoint(st)

    def test_corruption_is_detected(self, tmp_path):
        st = self.state(tmp_path)
        path = tmp_path / "c.bin"
        tr.save_checkpoint(path, st)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(IntegrityError):
            tr.load_checkpoint(path)

    def test_wrong_magic_and_version(self, tmp_path):
        st = self.state(tmp_path)
        path = tmp_path / "c.bin"
        tr.save_checkpoint(path, st)
        blob = bytearray(path.read_bytes())

        other = tmp_path / "junk.bin"
        other.write_bytes(b"JUNK" + bytes(blob[4:]))
        with pytest.raises(IntegrityError):
            tr.load_checkpoint(other)

        blob[4:8] = (99).to_bytes(4, "little")
        body = bytes(blob[:-32])
        (tmp_path / "v99.bin").write_bytes(body + hashlib.sha256(body).digest())
        with pytest.raises(VersionError):
            tr.load_checkpoint(tmp_path / "v99.bin")

    def test_failed_write_keeps_the_previous_checkpoint(self, tmp_path, monkeypatch):
        path = tmp_path / "c.bin"
        tr.save_checkpoint(path, self.state(tmp_path))
        before = path.read_bytes()

        class DiskFull:
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.fh.write(data[:len(data) // 2])
                raise OSError(28, "No space left on device")

        monkeypatch.setattr(tr, "open", lambda *a: DiskFull(open(*a)), raising=False)
        later = self.state(tmp_path)
        later.step = 8
        with pytest.raises(OSError):
            tr.save_checkpoint(path, later)
        assert path.read_bytes() == before and tr.load_checkpoint(path).step == 4
        assert [f.name for f in tmp_path.iterdir()] == ["c.bin"]

    @pytest.mark.parametrize("moments", ["adam_m", "adam_v"])
    def test_restore_rejects_a_moment_of_the_wrong_shape(self, tmp_path, moments):
        st = self.state(tmp_path)
        getattr(st, moments)["decoder.out.W"] = np.zeros(1)
        path = tmp_path / "c.bin"
        tr.save_checkpoint(path, st)  # the checksum covers the misshapen moment
        with pytest.raises(IntegrityError, match="decoder.out.W"):
            tr.restore_model(tr.load_checkpoint(path))

    def test_restore_rebuilds_a_working_model(self, tmp_path):
        st = self.state(tmp_path)
        model, adam = tr.restore_model(st)
        for k, p in model.named_parameters().items():
            np.testing.assert_array_equal(p.data, st.params[k])
        assert adam.t == st.adam_t


def tiny_corpus():
    records, vocab = generate_synthetic(seed=7, n_pairs=40)
    return to_pairs(records, vocab), vocab


class TestTrainLoop:
    def test_reruns_are_byte_identical(self, tmp_path):
        pairs, vocab = tiny_corpus()
        cfg = micro_cfg(vocab_size=len(vocab), d_h=8, d_z=4, batch_size=4)
        tr.train(cfg, pairs, out_dir=tmp_path / "a")
        tr.train(cfg, pairs, out_dir=tmp_path / "b")
        assert ((tmp_path / "a" / "loss_log.csv").read_bytes()
                == (tmp_path / "b" / "loss_log.csv").read_bytes())

    def test_each_epoch_collates_every_pair_once_in_a_seeded_order(self, monkeypatch):
        rng = np.random.default_rng(41)
        pairs = [PostResponsePair(rng.integers(3, 7, size=3).astype(np.int64),
                                  np.array([int(rng.integers(3, 7)), EOS_ID], dtype=np.int64))
                 for _ in range(10)]
        index = {id(p): i for i, p in enumerate(pairs)}
        real, seen = tr.collate, []

        def recording(chosen):
            seen.append([index[id(p)] for p in chosen])
            return real(chosen)

        monkeypatch.setattr(tr, "collate", recording)
        cfg = micro_cfg(batch_size=4, total_steps=6)  # two epochs of 10 pairs
        tr.train(cfg, pairs)
        first = list(seen)
        seen.clear()
        tr.train(cfg, pairs)
        assert seen == first
        epochs = [first[:3], first[3:]]
        for batches in epochs:
            assert [len(b) for b in batches] == [4, 4, 2]
            assert sorted(i for b in batches for i in b) == list(range(10))
        assert epochs[0] != epochs[1]

    def test_log_layout(self, tmp_path):
        pairs, vocab = tiny_corpus()
        cfg = micro_cfg(vocab_size=len(vocab), d_h=8, d_z=4, batch_size=4)
        res = tr.train(cfg, pairs, out_dir=tmp_path)
        lines = (tmp_path / "loss_log.csv").read_text().splitlines()
        assert lines[0] == "step,l_seq,l_foc,l_kl,l_bow,gamma,lr,total"
        assert len(lines) == cfg.total_steps + 1
        first = lines[1].split(",")
        assert first[0] == "0" and float(first[5]) == 0.0  # gamma starts at zero
        assert res.rows == lines[1:]

    def test_resume_matches_uninterrupted(self, tmp_path):
        pairs, vocab = tiny_corpus()
        full_cfg = micro_cfg(vocab_size=len(vocab), d_h=8, d_z=4, batch_size=4,
                             total_steps=8, checkpoint_interval=4)
        full = tr.train(full_cfg, pairs, out_dir=None)

        head_cfg = micro_cfg(vocab_size=len(vocab), d_h=8, d_z=4, batch_size=4,
                             total_steps=4, checkpoint_interval=4)
        tr.train(head_cfg, pairs, out_dir=tmp_path)
        st = tr.load_checkpoint(tmp_path / "checkpoint.bin")
        assert st.step == 4
        resumed = tr.train(full_cfg, pairs, out_dir=None, resume=st)
        assert resumed.rows == full.rows[4:]
        for k, p in resumed.model.named_parameters().items():
            np.testing.assert_array_equal(p.data, full.model.named_parameters()[k].data)

    def test_resume_after_a_crash_rewinds_the_log(self, tmp_path):
        pairs, vocab = tiny_corpus()
        cfg = lambda steps: micro_cfg(vocab_size=len(vocab), d_h=8, d_z=4, batch_size=4,
                                      total_steps=steps, checkpoint_interval=5)
        tr.train(cfg(8), pairs, out_dir=tmp_path / "whole")
        run = tmp_path / "crashed"
        tr.train(cfg(5), pairs, out_dir=run)
        at_5 = tr.load_checkpoint(run / "checkpoint.bin")
        tr.train(cfg(7), pairs, out_dir=run, resume=at_5)  # logs steps 5, 6, then "crashes"
        tr.train(cfg(8), pairs, out_dir=run, resume=at_5)
        assert ((run / "loss_log.csv").read_bytes()
                == (tmp_path / "whole" / "loss_log.csv").read_bytes())

    def test_resume_needs_the_runs_loss_log(self, tmp_path):
        pairs, vocab = tiny_corpus()
        cfg = micro_cfg(vocab_size=len(vocab), d_h=8, d_z=4, batch_size=4,
                        total_steps=4, checkpoint_interval=4)
        tr.train(cfg, pairs, out_dir=tmp_path)
        st = tr.load_checkpoint(tmp_path / "checkpoint.bin")
        longer = micro_cfg(vocab_size=len(vocab), d_h=8, d_z=4, batch_size=4,
                           total_steps=6, checkpoint_interval=4)
        log = tmp_path / "loss_log.csv"
        lines = log.read_text().splitlines(keepends=True)
        for text, why in (("".join(lines[:4]), "3 rows"),
                          ("".join(["step,loss\n"] + lines[1:]), "header"),
                          (None, "no loss log")):
            if text is None:
                log.unlink()
            else:
                log.write_text(text)
            with pytest.raises(IntegrityError, match=why):
                tr.train(longer, pairs, out_dir=tmp_path, resume=st)

    def test_nan_gradient_aborts_before_the_update(self, tmp_path, monkeypatch):
        pairs, vocab = tiny_corpus()
        cfg = micro_cfg(vocab_size=len(vocab), d_h=8, d_z=4, batch_size=4,
                        total_steps=4, checkpoint_interval=4)
        tr.train(cfg, pairs, out_dir=tmp_path)
        saved = (tmp_path / "checkpoint.bin").read_bytes()
        st = tr.load_checkpoint(tmp_path / "checkpoint.bin")
        real = tr.total_loss

        def nan_gradient(model, batch, eps, gamma):
            total, breakdown = real(model, batch, eps, gamma)
            p = model.named_parameters()["decoder.out.b"]
            # adds a finite log(1e-320) to the loss, and NaN to the gradient
            # of p: log' overflows to infinity there, and inf * 0 is NaN
            tiny = ad.add(ad.mul(p, 0.0), 1e-320)
            return ad.add(total, ad.sum_all(ad.log(tiny))), breakdown

        monkeypatch.setattr(tr, "total_loss", nan_gradient)
        steps = []
        monkeypatch.setattr(tr.Adam, "step", lambda self, lr: steps.append(lr))
        longer = micro_cfg(vocab_size=len(vocab), d_h=8, d_z=4, batch_size=4,
                           total_steps=8, checkpoint_interval=4)
        with pytest.raises(NumericalError, match="decoder.out.b"), \
                np.errstate(over="ignore", invalid="ignore"):
            tr.train(longer, pairs, out_dir=tmp_path, resume=st)
        assert steps == [] and (tmp_path / "checkpoint.bin").read_bytes() == saved

    def test_resume_rejects_different_model_config(self, tmp_path):
        pairs, vocab = tiny_corpus()
        cfg = micro_cfg(vocab_size=len(vocab), d_h=8, d_z=4, batch_size=4,
                        total_steps=4, checkpoint_interval=4)
        tr.train(cfg, pairs, out_dir=tmp_path)
        st = tr.load_checkpoint(tmp_path / "checkpoint.bin")
        other = micro_cfg(vocab_size=len(vocab), d_h=8, d_z=4, batch_size=4,
                          total_steps=8, checkpoint_interval=4, seed=99)
        with pytest.raises(CompatibilityError):
            tr.train(other, pairs, out_dir=None, resume=st)

    def test_resume_rejects_exhausted_budget(self, tmp_path):
        pairs, vocab = tiny_corpus()
        cfg = micro_cfg(vocab_size=len(vocab), d_h=8, d_z=4, batch_size=4,
                        total_steps=4, checkpoint_interval=4)
        tr.train(cfg, pairs, out_dir=tmp_path)
        st = tr.load_checkpoint(tmp_path / "checkpoint.bin")
        with pytest.raises(ValidationError):
            tr.train(cfg, pairs, out_dir=None, resume=st)

    def test_vocab_overflow_is_rejected(self):
        pairs, vocab = tiny_corpus()
        cfg = micro_cfg(vocab_size=8)
        with pytest.raises(CompatibilityError):
            tr.train(cfg, pairs, out_dir=None)

    def test_vocab_check_reads_responses_behind_empty_posts(self):
        pairs = [PostResponsePair(np.array([], dtype=np.int64), np.array([4, EOS_ID])),
                 PostResponsePair(np.array([5, 6]), np.array([9, EOS_ID]))]
        with pytest.raises(CompatibilityError, match="token id 9"):
            tr.train(micro_cfg(vocab_size=9), pairs, out_dir=None)

    def test_non_finite_loss_aborts_with_the_term_named(self, tmp_path):
        pairs, vocab = tiny_corpus()
        cfg = micro_cfg(vocab_size=len(vocab), d_h=8, d_z=4, batch_size=4,
                        total_steps=4, checkpoint_interval=4)
        tr.train(cfg, pairs, out_dir=tmp_path)
        st = tr.load_checkpoint(tmp_path / "checkpoint.bin")
        st.params["embedding.weight"][0, 0] = np.nan
        longer = micro_cfg(vocab_size=len(vocab), d_h=8, d_z=4, batch_size=4,
                           total_steps=8, checkpoint_interval=4)
        with pytest.raises(NumericalError, match="l_"):
            tr.train(longer, pairs, out_dir=None, resume=st)

    def test_checkpoint_written_at_interval_and_end(self, tmp_path):
        pairs, vocab = tiny_corpus()
        cfg = micro_cfg(vocab_size=len(vocab), d_h=8, d_z=4, batch_size=4,
                        total_steps=6, checkpoint_interval=4)
        res = tr.train(cfg, pairs, out_dir=tmp_path)
        st = tr.load_checkpoint(tmp_path / "checkpoint.bin")
        assert st.step == 6  # final save wins, interval saves happened on the way
        assert res.final_state.step == 6
        assert st.meta["max_train_resp_len"] == max(len(p.response) for p in pairs)


class TestMicroGradcheck:
    def test_smallest_variant_passes(self):
        rep = tr.micro_gradcheck("s2s", seed=1)
        assert rep.passed and rep.max_rel_err < 1e-4
        assert "pass" in rep.format().lower()


class TestOneTokenPost:
    def test_focconstrain_trains_on_a_one_token_post(self):
        # a one-token post has focus 1.0 and every attention row 1.0, so its
        # row of the focus loss is the norm of an all-zero vector
        pairs = [PostResponsePair(np.array([5]), np.array([4, 6, EOS_ID])),
                 PostResponsePair(np.array([3, 4, 5]), np.array([6, EOS_ID]))]
        cfg = micro_cfg(vocab_size=7, total_steps=1)
        res = tr.train(cfg, pairs, out_dir=None)
        assert all(math.isfinite(float(v)) for v in res.rows[0].split(","))
        for p in res.model.named_parameters().values():
            assert np.isfinite(p.data).all()


class TestSharedState:
    """train, restore_model and from_arrays share arrays instead of copying
    them; training replaces arrays and never writes into them."""

    @staticmethod
    def snapshot(state):
        return {(kind, k): v.tobytes() for kind in ("params", "adam_m", "adam_v")
                for k, v in getattr(state, kind).items()}

    def test_resume_leaves_the_state_it_reads_unchanged(self, tmp_path):
        pairs, vocab = tiny_corpus()
        cfg = micro_cfg(vocab_size=len(vocab), d_h=8, d_z=4, batch_size=4, total_steps=3)
        first = tr.train(cfg, pairs, out_dir=tmp_path)
        for state in (first.final_state, tr.load_checkpoint(tmp_path / "checkpoint.bin")):
            before = self.snapshot(state)
            longer = micro_cfg(vocab_size=len(vocab), d_h=8, d_z=4, batch_size=4, total_steps=6)
            tr.train(longer, pairs, out_dir=None, resume=state)
            assert self.snapshot(state) == before

    def test_final_state_survives_another_optimizer_step(self):
        pairs, vocab = tiny_corpus()
        cfg = micro_cfg(vocab_size=len(vocab), d_h=8, d_z=4, batch_size=4, total_steps=3)
        res = tr.train(cfg, pairs, out_dir=None)
        before = self.snapshot(res.final_state)
        for p in res.model.named_parameters().values():
            p.grad = np.ones_like(p.data)
        res.adam.step(0.1)
        assert self.snapshot(res.final_state) == before
        assert res.final_state.adam_t == 3

    def test_loaded_arrays_are_aligned_writable_float64_copies(self, tmp_path):
        model = FocusCVAE(micro_cfg(), np.random.default_rng(1))
        path = tmp_path / "c.bin"
        tr.save_checkpoint(path, tr.checkpoint_from(model, tr.Adam(model.named_parameters()),
                                                    step=0, meta={}))
        st = tr.load_checkpoint(path)
        for arrays in (st.params, st.adam_m, st.adam_v):
            for name, a in arrays.items():
                owner = a if a.base is None else a.base
                assert a.dtype == np.float64, name
                assert a.flags.aligned and a.flags.c_contiguous and a.flags.writeable, name
                assert isinstance(owner, np.ndarray) and owner.flags.owndata, name


class TestMemoryBudget:
    def test_a_desk_step_stays_within_its_memory_budget(self):
        """tracemalloc bytes of one desk-shaped focconstrain step: what the
        tape holds after the forward pass, and the peak through backward."""
        import tracemalloc
        cfg = TrainConfig(variant="focconstrain", vocab_size=64, d_h=64, d_z=32, batch_size=32)
        model = FocusCVAE(cfg, np.random.default_rng(0))
        batch = tr.micro_batch(64, post_len=14, resp_len=4, batch_size=32, seed=0)
        eps = np.random.default_rng(1).standard_normal((32, 32))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            with Tape() as tape:
                total, _ = tr.total_loss(model, batch, eps, 0.5)
            held = tracemalloc.get_traced_memory()[0] - base
            tracemalloc.reset_peak()
            tape.backward(total)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert held <= 7.5e6, f"the tape holds {held / 1e6:.2f} MB after the forward pass"
        assert peak <= 11e6, f"backward peaks at {peak / 1e6:.2f} MB"
