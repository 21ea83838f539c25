"""Objective assembly, optimization, the training loop, and checkpointing.

The total objective is
    total = l_seq + w_foc * l_foc + gamma * l_kl + w_bow * l_bow
with gamma following a linear anneal from 0 to 1.  Variants drop terms by
pinning them to exact zeros, so the breakdown identity holds for every
variant.  All stochasticity is a pure function of (config seed, step):
shuffling reseeds per epoch, latent draws reseed per step, which is what
makes checkpoint resume bit-exact.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor, grad_check
from .config import TrainConfig, uses_focus_loss, uses_latent
from .corpus import EOS_ID, Batch, PostResponsePair, collate, epoch_order
from .encoders import kl_divergence
from .errors import (CompatibilityError, ConfigError, IntegrityError, NumericalError,
                     ValidationError, VersionError)
from .model import FocusCVAE


# ---------------------------------------------------------------------------
# schedules


def kl_anneal(step: int, anneal_steps: int) -> float:
    """Linear warm-up of the KL weight: 0 at step 0, 1 from anneal_steps on."""
    if anneal_steps < 1:
        raise ConfigError(f"anneal_steps must be >= 1, got {anneal_steps}")
    if step < 0:
        raise ConfigError(f"step must be >= 0, got {step}")
    return min(1.0, step / anneal_steps)


def lr_schedule(step: int, warmup_steps: int, peak_lr: float) -> float:
    """Linear ramp to peak_lr over warmup_steps, then inverse-sqrt decay."""
    if step < 1:
        raise ConfigError(f"lr schedule steps are 1-based, got {step}")
    if warmup_steps < 1 or peak_lr <= 0:
        raise ConfigError("warmup_steps must be >= 1 and peak_lr positive")
    if step <= warmup_steps:
        return peak_lr * step / warmup_steps
    return peak_lr * math.sqrt(warmup_steps / step)


# ---------------------------------------------------------------------------
# loss terms


def seq_loss(logits_flat: Tensor, gold_flat: np.ndarray, mask_flat: np.ndarray) -> Tensor:
    """Mean negative log-likelihood of gold tokens over unmasked positions."""
    gold = np.asarray(gold_flat).reshape(-1)
    mask = np.asarray(mask_flat, dtype=bool).reshape(-1)
    if gold.shape[0] != logits_flat.shape[0]:
        raise ValidationError(
            f"{gold.shape[0]} gold tokens for {logits_flat.shape[0]} logit rows")
    if gold.min() < 0 or gold.max() >= logits_flat.shape[1]:
        raise ValidationError(f"gold token id outside vocabulary of {logits_flat.shape[1]}")
    if not mask.any():
        raise ValidationError("sequence loss needs at least one unmasked position")
    return _masked_mean_nll(ad.log_softmax(logits_flat), gold, mask)


def _masked_mean_nll(log_probs: Tensor, gold: np.ndarray, mask: np.ndarray) -> Tensor:
    """Minus the mean of log_probs[i, gold[i]] over the rows i where mask is on."""
    picked = ad.pick(log_probs, gold)
    kept = ad.scale_rows(picked, Tensor(mask.astype(np.float64)))
    return ad.mul(ad.sum_all(kept), -1.0 / int(mask.sum()))


def focus_loss(coverage: Tensor, resp_lengths: np.ndarray, focus: Tensor) -> Tensor:
    """Batch mean of || coverage/|y| - focus ||_2 per row (both sides live
    on the tape, so the constraint shapes attention and focus alike)."""
    lengths = np.asarray(resp_lengths, dtype=np.float64).reshape(-1, 1)
    if (lengths < 1).any():
        raise ValidationError("every response needs a positive length")
    if coverage.shape != focus.shape:
        raise ValidationError(f"coverage {coverage.shape} vs focus {focus.shape}")
    over_len = ad.scale_rows(coverage, Tensor(1.0 / lengths))
    diff = ad.add(over_len, ad.mul(focus, -1.0))
    row_norms = ad.sqrt(ad.sum_cols(ad.mul(diff, diff)))
    return ad.mul(ad.sum_all(row_norms), 1.0 / coverage.shape[0])


def bow_loss(bow_logits: Tensor, resp_ids: np.ndarray, resp_mask: np.ndarray) -> Tensor:
    """Order-invariant reconstruction: mean -log p(token) over non-PAD,
    non-EOS gold tokens under a single bag-of-words softmax per row."""
    b, t = resp_ids.shape
    if bow_logits.shape[0] != b:
        raise ValidationError(f"{bow_logits.shape[0]} logit rows for batch of {b}")
    mask = np.asarray(resp_mask, dtype=bool) & (resp_ids != EOS_ID)
    if not mask.any():
        return Tensor(0.0)
    lsm = ad.log_softmax(bow_logits)
    return _masked_mean_nll(ad.repeat_rows(lsm, t), resp_ids.reshape(-1), mask.reshape(-1))


@dataclass
class LossBreakdown:
    l_seq: float
    l_foc: float
    l_kl: float
    l_bow: float
    gamma: float
    total: float


def total_loss(model: FocusCVAE, batch: Batch, eps: np.ndarray | None,
               gamma: float) -> tuple[Tensor, LossBreakdown]:
    """Assemble the variant-gated objective for one batch.

    eps is the [B, d_z] noise of the batch's one latent draw (None for s2s).
    """
    cfg = model.cfg
    latent = uses_latent(cfg.variant)
    zero = Tensor(0.0)
    if latent and eps is None:
        raise ValidationError("latent variants need an eps draw for training")
    fp = model.forward_train(batch, eps)

    l_seq = seq_loss(fp.logits_flat, batch.resp_ids.reshape(-1), batch.resp_mask.reshape(-1))
    if uses_focus_loss(cfg.variant):
        l_foc = focus_loss(fp.coverage, batch.resp_lengths, fp.focus)
    else:
        l_foc = zero
    if latent:
        l_kl = ad.mul(ad.sum_all(kl_divergence(fp.q, fp.p)), 1.0 / batch.size)
        l_bow = bow_loss(model.bow_logits(fp.z, fp.post_enc), batch.resp_ids, batch.resp_mask)
    else:
        l_kl = zero
        l_bow = zero

    total = ad.add(ad.add(ad.add(l_seq, ad.mul(l_foc, cfg.w_foc)),
                          ad.mul(l_kl, gamma)), ad.mul(l_bow, cfg.w_bow))
    breakdown = LossBreakdown(l_seq.item(), l_foc.item(), l_kl.item(), l_bow.item(),
                              gamma, total.item())
    return total, breakdown


# ---------------------------------------------------------------------------
# optimizer


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class Adam:
    """Adam with bias correction; update order follows parameter order."""

    def __init__(self, params: dict[str, Tensor]):
        self.params = params
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def step(self, lr: float) -> None:
        self.t += 1
        b1c = 1.0 - ADAM_BETA1 ** self.t
        b2c = 1.0 - ADAM_BETA2 ** self.t
        for name, p in self.params.items():
            g = p.grad if p.grad is not None else 0.0
            self.m[name] = ADAM_BETA1 * self.m[name] + (1.0 - ADAM_BETA1) * g
            self.v[name] = ADAM_BETA2 * self.v[name] + (1.0 - ADAM_BETA2) * (g * g)
            p.data = p.data - lr * (self.m[name] / b1c) / (np.sqrt(self.v[name] / b2c) + ADAM_EPS)


def clip_gradients(params: dict[str, Tensor], max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most max_norm;
    returns the pre-clip norm.

    A non-finite norm raises NumericalError before any gradient is scaled,
    naming the first parameter whose gradient holds a NaN or an infinity.
    """
    total = 0.0
    for p in params.values():
        if p.grad is not None:
            total += float(np.sum(p.grad * p.grad))
    norm = math.sqrt(total)
    if not math.isfinite(norm):
        bad = next((name for name, p in params.items()
                    if p.grad is not None and not np.isfinite(p.grad).all()), None)
        raise NumericalError(f"non-finite gradient for {bad}" if bad is not None
                             else f"gradient norm overflows: squared norm {total}")
    if norm > max_norm:
        factor = max_norm / norm
        for p in params.values():
            if p.grad is not None:
                p.grad = p.grad * factor
    return norm


# ---------------------------------------------------------------------------
# checkpointing

CHECKPOINT_MAGIC = b"FCVK"
CHECKPOINT_VERSION = 5


@dataclass
class CheckpointState:
    config: TrainConfig
    step: int
    params: dict[str, np.ndarray]
    adam_m: dict[str, np.ndarray]
    adam_v: dict[str, np.ndarray]
    adam_t: int
    meta: dict


def _array_block(arrays: dict[str, np.ndarray]):
    """The byte chunks of one array block: the count, then per array its
    name, rank, shape and little-endian float64 values (a view where the
    array already is one)."""
    yield struct.pack("<I", len(arrays))
    for name, arr in arrays.items():
        encoded = name.encode("utf-8")
        yield struct.pack(f"<H{len(encoded)}sB{arr.ndim}I", len(encoded), encoded, arr.ndim,
                          *arr.shape)
        yield memoryview(np.ascontiguousarray(arr, dtype="<f8")).cast("B")


class _Reader:
    """Reads a checkpoint body in place, through a memoryview of the file
    bytes."""

    def __init__(self, view: memoryview):
        self.view = view
        self.pos = 0

    def skip(self, n: int) -> int:
        """Step over n bytes; returns the offset they start at."""
        if self.pos + n > len(self.view):
            raise IntegrityError("checkpoint truncated")
        self.pos += n
        return self.pos - n

    def text(self, n: int) -> str:
        start = self.skip(n)
        return str(self.view[start:self.pos], "utf-8")

    def unpack(self, fmt: str):
        return struct.unpack_from(fmt, self.view, self.skip(struct.calcsize(fmt)))


def _unpack_array_block(r: _Reader) -> dict[str, np.ndarray]:
    """Each array as one aligned, writable float64 copy of its bytes, never
    a view into them: an unaligned operand takes numpy's matmul off BLAS,
    which rounds differently."""
    (count,) = r.unpack("<I")
    out: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = r.unpack("<H")
        name = r.text(name_len)
        (rank,) = r.unpack("<B")
        shape = r.unpack(f"<{rank}I") if rank else ()
        n = int(np.prod(shape)) if shape else 1
        values = np.frombuffer(r.view, dtype="<f8", count=n, offset=r.skip(8 * n))
        out[name] = values.astype(np.float64).reshape(shape)
    return out


def save_checkpoint(path, state: CheckpointState) -> None:
    """Versioned binary layout with a trailing SHA-256 over the payload.

    The payload is written and hashed chunk by chunk, with no copy of the
    whole.  The bytes go to a temporary file beside `path`, which then
    replaces `path` in one rename, so a process that dies mid-save leaves
    the previous checkpoint whole.  Nothing is fsynced: an operating-system
    crash or power loss can still lose the newest save.
    """
    config_blob = state.config.canonical_json().encode("utf-8")
    meta_blob = json.dumps(state.meta, sort_keys=True, separators=(",", ":")).encode("utf-8")
    header = b"".join([
        CHECKPOINT_MAGIC,
        struct.pack("<I", CHECKPOINT_VERSION),
        struct.pack("<Q", state.step),
        struct.pack("<Q", state.adam_t),
        struct.pack("<I", len(config_blob)), config_blob,
        struct.pack("<I", len(meta_blob)), meta_blob,
    ])
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    blocks = (_array_block(arrays) for arrays in (state.params, state.adam_m, state.adam_v))
    digest = hashlib.sha256()
    try:
        with open(tmp, "wb") as fh:
            for chunk in itertools.chain([header], *blocks):
                digest.update(chunk)
                fh.write(chunk)
            fh.write(digest.digest())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_checkpoint(path) -> CheckpointState:
    """Read and verify a checkpoint.  The file's bytes are read once and
    parsed in place; the arrays are the only copies made of them."""
    blob = Path(path).read_bytes()
    if len(blob) < 4 + 4 + 32 or blob[:4] != CHECKPOINT_MAGIC:
        raise IntegrityError(f"{path}: not a checkpoint file")
    body = memoryview(blob)[:-32]
    if hashlib.sha256(body).digest() != blob[-32:]:
        raise IntegrityError(f"{path}: checksum mismatch, file is corrupt")
    r = _Reader(body)
    r.skip(4)  # magic
    (version,) = r.unpack("<I")
    if version != CHECKPOINT_VERSION:
        raise VersionError(f"{path}: format version {version}, expected {CHECKPOINT_VERSION}")
    (step,) = r.unpack("<Q")
    (adam_t,) = r.unpack("<Q")
    (config_len,) = r.unpack("<I")
    config = TrainConfig.from_json(r.text(config_len))
    (meta_len,) = r.unpack("<I")
    meta = json.loads(r.text(meta_len))
    params = _unpack_array_block(r)
    adam_m = _unpack_array_block(r)
    adam_v = _unpack_array_block(r)
    if r.pos != len(body):
        raise IntegrityError(f"{path}: {len(body) - r.pos} trailing bytes")
    return CheckpointState(config, step, params, adam_m, adam_v, adam_t, meta)


def _live_state(model: FocusCVAE, adam: Adam, step: int, meta: dict) -> CheckpointState:
    """The state at `step` over the model's and optimizer's own arrays, in
    dicts of its own.  Training replaces those arrays and never writes
    into them, so the state keeps its values while the model trains on."""
    params = {k: p.data for k, p in model.named_parameters().items()}
    return CheckpointState(model.cfg, step, params, dict(adam.m), dict(adam.v), adam.t,
                           dict(meta))


def checkpoint_from(model: FocusCVAE, adam: Adam, step: int, meta: dict) -> CheckpointState:
    """A copy of the state at `step` that later training leaves alone."""
    live = _live_state(model, adam, step, meta)
    copy = lambda arrays: {k: v.copy() for k, v in arrays.items()}
    return CheckpointState(model.cfg, step, copy(live.params), copy(live.adam_m),
                           copy(live.adam_v), adam.t, live.meta)


def restore_model(state: CheckpointState) -> tuple[FocusCVAE, Adam]:
    """The model and optimizer a state describes, adopting its arrays as
    `FocusCVAE.from_arrays` does, moments included: the state and the
    restored pair share buffers, which training replaces and never writes
    into.  An optimizer that updated in place would have to copy here."""
    model = FocusCVAE.from_arrays(state.config, state.params)
    adam = Adam(model.named_parameters())
    names = set(adam.m)
    if set(state.adam_m) != names or set(state.adam_v) != names:
        raise IntegrityError("optimizer moments do not match the parameter set")
    for name, p in adam.params.items():
        for moments in (state.adam_m, state.adam_v):
            if moments[name].shape != p.shape:
                raise IntegrityError(f"{name}: optimizer moment of shape {moments[name].shape}"
                                     f" for a parameter of shape {p.shape}")
    adam.m = {k: state.adam_m[k] for k in adam.m}
    adam.v = {k: state.adam_v[k] for k in adam.v}
    adam.t = state.adam_t
    return model, adam


# ---------------------------------------------------------------------------
# training loop

LOG_HEADER = "step,l_seq,l_foc,l_kl,l_bow,gamma,lr,total"
GRAD_CLIP_NORM = 5.0


def _rewind_log(log_path: Path, step: int) -> None:
    """Cut the loss log back to its header and rows 0..step-1, the steps a
    checkpoint at `step` holds.  Rows past them come from a run that went on
    after that checkpoint and are replayed by the resume."""
    if not log_path.exists():
        raise IntegrityError(f"{log_path}: no loss log to resume at step {step}")
    lines = log_path.read_text().splitlines(keepends=True)
    if not lines or lines[0] != LOG_HEADER + "\n":
        raise IntegrityError(f"{log_path}: header is not {LOG_HEADER!r}")
    if len(lines) - 1 < step:
        raise IntegrityError(
            f"{log_path}: {len(lines) - 1} rows, but the checkpoint is at step {step}")
    if len(lines) - 1 > step:
        log_path.write_text("".join(lines[:1 + step]))


def format_log_row(step: int, b: LossBreakdown, lr: float) -> str:
    return ",".join([str(step), repr(b.l_seq), repr(b.l_foc), repr(b.l_kl),
                     repr(b.l_bow), repr(b.gamma), repr(lr), repr(b.total)])


def _latent_eps(cfg: TrainConfig, step: int, batch_size: int) -> np.ndarray | None:
    if not uses_latent(cfg.variant):
        return None
    rng = np.random.default_rng([cfg.seed, 2, step])
    return rng.standard_normal((batch_size, cfg.d_z))


@dataclass
class TrainResult:
    """What a `train` call ends with.  final_state shares its arrays with
    model and adam rather than copying them: further steps replace those
    arrays and never write into them, so the state stays as it was.  An
    optimizer that updated in place would have to copy here."""

    model: FocusCVAE
    adam: Adam
    rows: list[str]              # CSV rows for the steps this call ran
    final_state: CheckpointState
    log_path: Path | None
    checkpoint_path: Path | None


def check_resume(cfg: TrainConfig, resume: CheckpointState) -> None:
    """Refuse to continue `resume` under cfg: total_steps is the budget resumed
    toward, and every other field changes the replayed trajectory."""
    ours, theirs = cfg.to_dict(), resume.config.to_dict()
    ours.pop("total_steps"), theirs.pop("total_steps")
    if ours != theirs:
        diff = sorted(k for k in ours if ours[k] != theirs[k])
        raise CompatibilityError(f"resume checkpoint config differs on {diff}")
    if resume.step >= cfg.total_steps:
        raise ValidationError(f"checkpoint is already at step {resume.step} of {cfg.total_steps}")


def check_pairs(cfg: TrainConfig, pairs: list[PostResponsePair]) -> None:
    """Refuse pairs that `train` cannot run on: none at all, or a token id
    outside cfg's vocabulary."""
    if not pairs:
        raise ValidationError("training needs at least one pair")
    over = int(np.concatenate([p.post for p in pairs] + [p.response for p in pairs]).max())
    if over >= cfg.vocab_size:
        raise CompatibilityError(
            f"corpus uses token id {over} but config says vocab_size {cfg.vocab_size}")


def train(cfg: TrainConfig, pairs: list[PostResponsePair], out_dir=None,
          resume: CheckpointState | None = None) -> TrainResult:
    """Run cfg.total_steps optimization steps (continuing from `resume` if
    given), logging one CSV row per step and checkpointing periodically.

    Batch order is a pure function of (seed, epoch), and latent noise of
    (seed, step), so an interrupted run resumed from its checkpoint replays
    the remaining steps exactly.
    """
    check_pairs(cfg.validate(), pairs)

    if resume is not None:
        check_resume(cfg, resume)
        model, adam = restore_model(resume)
        start_step = resume.step
        meta = dict(resume.meta)
    else:
        model = FocusCVAE(cfg, np.random.default_rng([cfg.seed, 0]))
        adam = Adam(model.named_parameters())
        start_step = 0
        meta = {
            "max_train_resp_len": max(len(p.response) for p in pairs),
            "n_pairs": len(pairs),
            "rng": {"shuffle_stream": [cfg.seed, 1], "latent_stream": [cfg.seed, 2]},
        }

    out_path = Path(out_dir) if out_dir is not None else None
    log_path = ckpt_path = None
    log_fh = None
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)
        log_path = out_path / "loss_log.csv"
        ckpt_path = out_path / "checkpoint.bin"
        if resume is None:
            log_fh = open(log_path, "w")
            log_fh.write(LOG_HEADER + "\n")
        else:
            _rewind_log(log_path, resume.step)
            log_fh = open(log_path, "a")

    params = model.named_parameters()
    n_batches = math.ceil(len(pairs) / cfg.batch_size)
    cached_epoch, order = -1, None
    rows: list[str] = []
    try:
        for step in range(start_step, cfg.total_steps):
            epoch, slot = divmod(step, n_batches)
            if epoch != cached_epoch:
                order = epoch_order(len(pairs), cfg.seed, epoch)
                cached_epoch = epoch
            chosen = order[slot * cfg.batch_size:(slot + 1) * cfg.batch_size]
            batch = collate([pairs[int(i)] for i in chosen])

            gamma = kl_anneal(step, cfg.kl_anneal_steps)
            lr = lr_schedule(step + 1, cfg.warmup_steps, cfg.peak_lr)
            eps = _latent_eps(cfg, step, batch.size)

            model.zero_grad()
            with Tape() as tape:
                total, breakdown = total_loss(model, batch, eps, gamma)
            for term in ("l_seq", "l_foc", "l_kl", "l_bow", "total"):
                if not math.isfinite(getattr(breakdown, term)):
                    raise NumericalError(
                        f"non-finite {term} at step {step}; last checkpoint kept")
            tape.backward(total)
            del tape  # the step's activations go before clip, Adam and the save
            clip_gradients(params, GRAD_CLIP_NORM)
            adam.step(lr)

            row = format_log_row(step, breakdown, lr)
            rows.append(row)
            if log_fh is not None:
                log_fh.write(row + "\n")

            done = step + 1
            if ckpt_path is not None and (done % cfg.checkpoint_interval == 0
                                          or done == cfg.total_steps):
                log_fh.flush()  # the log holds every step the checkpoint does
                save_checkpoint(ckpt_path, _live_state(model, adam, done, meta))
    finally:
        if log_fh is not None:
            log_fh.close()
    final_state = _live_state(model, adam, cfg.total_steps, meta)
    return TrainResult(model, adam, rows, final_state, log_path, ckpt_path)


# ---------------------------------------------------------------------------
# whole-model gradient check harness


def micro_batch(vocab_size: int, post_len: int, resp_len: int, batch_size: int,
                seed: int) -> Batch:
    """Small random batch over the non-reserved ids, responses EOS-terminated."""
    rng = np.random.default_rng([seed, 9])
    pairs = []
    for _ in range(batch_size):
        post = rng.integers(3, vocab_size, size=post_len).astype(np.int64)
        resp = np.concatenate([rng.integers(3, vocab_size, size=resp_len - 1),
                               [EOS_ID]]).astype(np.int64)
        pairs.append(PostResponsePair(post, resp))
    return collate(pairs)


def micro_gradcheck(variant: str = "focconstrain", seed: int = 1,
                    h: float = 1e-5, tol: float = 1e-4):
    """Gradient-check the full objective of a tiny model against central
    differences, every parameter tensor included."""
    cfg = TrainConfig(variant=variant, vocab_size=7, d_h=4, d_z=4, batch_size=2,
                      init_scale=0.3, seed=seed).validate()
    model = FocusCVAE(cfg, np.random.default_rng([seed, 0]))
    batch = micro_batch(cfg.vocab_size, post_len=3, resp_len=4,
                        batch_size=cfg.batch_size, seed=seed)
    eps = _latent_eps(cfg, 0, batch.size)
    gamma = 1.0

    def objective():
        total, _ = total_loss(model, batch, eps, gamma)
        return total

    return grad_check(objective, model.named_parameters(), h=h, tol=tol)
