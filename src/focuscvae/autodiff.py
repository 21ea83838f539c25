"""Tape-based reverse-mode automatic differentiation over dense float64 arrays.

Every quantity in the model (embeddings, hidden states, attention weights,
losses) is a Tensor.  Running math inside a `with Tape() as tape:` block
records one node per primitive op, in execution order, which is a topological
order by construction.  `tape.backward(loss)` walks the nodes once in reverse
and deposits gradients into the leaf tensors that asked for them.

Only two broadcasting forms exist on the elementwise ops: equal shapes, and
scalar against tensor.  Row/column broadcasts needed by the model go through
dedicated primitives (bias_add, scale_rows, repeat_rows, sum_groups) so each
backward rule stays a couple of lines.

The one fused primitive is `gru_cell`: a whole GRU step, with the encoder's
masked carry folded in, is a single node whose hand-written backward
reproduces the gradients of the op-by-op composition bit for bit.  A
training step's cost is mostly Python overhead per node, not arithmetic, so
this cuts a `focconstrain` step from 2,164 nodes to 356.
"""

from __future__ import annotations

import numpy as np
from dataclasses import dataclass, fields
from typing import Callable, Sequence

from .errors import DimensionError, DomainError, EvaluationError, MaskError

Array = np.ndarray


class Tensor:
    """Dense float64 array plus gradient bookkeeping.

    `requires_grad` on a leaf marks it as a trainable input; on an op output
    it is set automatically while a tape is active.  `grad` stays None until
    a backward pass deposits into it.
    """

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad: Array | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else _one_item_error(self)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # operator sugar; everything funnels into the module-level primitives
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return add(self, neg(_as_tensor(other)))

    def __rsub__(self, other):
        return add(neg(self), other)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)


def _one_item_error(t: Tensor):
    raise DimensionError(f"item() needs a single-element tensor, got shape {t.shape}")


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


@dataclass
class _Node:
    """One recorded op.  backward(g) returns one gradient part (or None) per
    entry of inputs.  An input may be listed more than once, once per part,
    and the tape adds its parts in listed order."""

    inputs: tuple[Tensor, ...]
    out: Tensor
    backward: Callable[[Array], tuple[Array | None, ...]]


class Tape:
    """Records ops while active; replays them in reverse for gradients."""

    current: "Tape | None" = None

    def __init__(self):
        self.nodes: list[_Node] = []

    def __enter__(self) -> "Tape":
        if Tape.current is not None:
            raise RuntimeError("tapes do not nest")
        Tape.current = self
        return self

    def __exit__(self, exc_type, exc, tb):
        Tape.current = None
        return False

    def backward(self, root: Tensor) -> None:
        """Accumulate d(root)/d(leaf) into every requires_grad leaf.

        root must hold a single element.  Each node is visited exactly once,
        in reverse recording order, so two backward passes over identical
        tapes produce bit-identical gradients.  A tensor's gradient is the
        left-to-right sum of its parts in visiting order; within one node,
        the parts of an input listed several times are added in listed order.
        """
        if root.size != 1:
            raise DimensionError(f"backward root must be scalar, got shape {root.shape}")
        grads: dict[int, Array] = {id(root): np.ones_like(root.data)}
        holders: dict[int, Tensor] = {id(root): root}
        produced = {id(node.out) for node in self.nodes}
        for node in reversed(self.nodes):
            g = grads.pop(id(node.out), None)
            if g is None:
                continue  # dead branch: output never influenced the root
            for inp, gi in zip(node.inputs, node.backward(g)):
                if gi is None:
                    continue
                key = id(inp)
                if key in grads:
                    grads[key] = grads[key] + gi
                else:
                    grads[key] = gi
                    holders[key] = inp
        for key, g in grads.items():
            t = holders[key]
            if t.requires_grad and key not in produced:
                t.grad = g if t.grad is None else t.grad + g


def _record(inputs: tuple[Tensor, ...], out: Tensor, backward) -> Tensor:
    tape = Tape.current
    if tape is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        tape.nodes.append(_Node(inputs, out, backward))
    return out


# ---------------------------------------------------------------------------
# elementwise primitives


def _binary_shapes(a: Tensor, b: Tensor, name: str) -> None:
    # scalar-with-tensor and equal-shape broadcasting only
    if a.size != 1 and b.size != 1 and a.shape != b.shape:
        raise DimensionError(f"{name}: shapes {a.shape} and {b.shape} do not conform")


def _unbroadcast(g: Array, shape: tuple[int, ...]) -> Array:
    # reduce a gradient back onto a scalar operand
    if g.shape == shape:
        return g
    return np.sum(g).reshape(shape)


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _binary_shapes(a, b, "add")
    out = Tensor(a.data + b.data)

    def backward(g: Array):
        return (
            _unbroadcast(g, a.shape) if a.requires_grad else None,
            _unbroadcast(g, b.shape) if b.requires_grad else None,
        )

    return _record((a, b), out, backward)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _binary_shapes(a, b, "mul")
    out = Tensor(a.data * b.data)

    def backward(g: Array):
        return (
            _unbroadcast(g * b.data, a.shape) if a.requires_grad else None,
            _unbroadcast(g * a.data, b.shape) if b.requires_grad else None,
        )

    return _record((a, b), out, backward)


def neg(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    out = Tensor(-x.data)
    return _record((x,), out, lambda g: (-g,))


def tanh(x: Tensor) -> Tensor:
    out = Tensor(np.tanh(x.data))
    y = out.data
    return _record((x,), out, lambda g: (g * (1.0 - y * y),))


def exp(x: Tensor) -> Tensor:
    out = Tensor(np.exp(x.data))
    y = out.data
    return _record((x,), out, lambda g: (g * y,))


def log(x: Tensor) -> Tensor:
    if np.any(x.data <= 0.0):
        raise DomainError("log: input has non-positive entries")
    out = Tensor(np.log(x.data))
    return _record((x,), out, lambda g: (g / x.data,))


def sqrt(x: Tensor) -> Tensor:
    if np.any(x.data < 0.0):
        raise DomainError("sqrt: input has negative entries")
    out = Tensor(np.sqrt(x.data))
    y = out.data
    return _record((x,), out, lambda g: (g * 0.5 / y,))


def clamp(x: Tensor, lo: float, hi: float) -> Tensor:
    if lo > hi:
        raise DomainError(f"clamp: lo {lo} > hi {hi}")
    out = Tensor(np.clip(x.data, lo, hi))
    inside = (x.data >= lo) & (x.data <= hi)
    return _record((x,), out, lambda g: (g * inside,))


# ---------------------------------------------------------------------------
# linear algebra / structural primitives


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise DimensionError(f"matmul expects 2-d operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul: inner dimensions {a.shape} x {b.shape} do not match")
    out = Tensor(a.data @ b.data)

    def backward(g: Array):
        return (
            g @ b.data.T if a.requires_grad else None,
            a.data.T @ g if b.requires_grad else None,
        )

    return _record((a, b), out, backward)


def bias_add(x: Tensor, b: Tensor) -> Tensor:
    """x[n, d] + b[d] broadcast over rows."""
    if x.data.ndim != 2 or b.data.ndim != 1 or x.shape[1] != b.shape[0]:
        raise DimensionError(f"bias_add: shapes {x.shape} and {b.shape} do not conform")
    out = Tensor(x.data + b.data)

    def backward(g: Array):
        return (
            g if x.requires_grad else None,
            g.sum(axis=0) if b.requires_grad else None,
        )

    return _record((x, b), out, backward)


def concat(parts: Sequence[Tensor], axis: int) -> Tensor:
    if axis not in (0, 1):
        raise DimensionError(f"concat: axis must be 0 or 1, got {axis}")
    parts = [_as_tensor(p) for p in parts]
    try:
        out = Tensor(np.concatenate([p.data for p in parts], axis=axis))
    except ValueError as e:
        raise DimensionError(f"concat: {e}") from None
    sizes = [p.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def backward(g: Array):
        return tuple(
            (g[offsets[i]:offsets[i + 1]] if axis == 0 else g[:, offsets[i]:offsets[i + 1]])
            if p.requires_grad else None
            for i, p in enumerate(parts)
        )

    return _record(tuple(parts), out, backward)


def narrow(x: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice along axis 0 or 1."""
    if axis not in (0, 1) or x.data.ndim != 2:
        raise DimensionError(f"narrow: needs a 2-d tensor and axis 0/1, got {x.shape}, axis {axis}")
    if start < 0 or start + length > x.shape[axis]:
        raise DimensionError(f"narrow: [{start}:{start + length}] out of bounds for {x.shape}")
    sl = (slice(start, start + length), slice(None)) if axis == 0 else (slice(None), slice(start, start + length))
    out = Tensor(x.data[sl].copy())

    def backward(g: Array):
        buf = np.zeros_like(x.data)
        buf[sl] = g
        return (buf,)

    return _record((x,), out, backward)


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    try:
        out = Tensor(x.data.reshape(shape))
    except ValueError:
        raise DimensionError(f"reshape: cannot view {x.shape} as {shape}") from None
    return _record((x,), out, lambda g: (g.reshape(x.shape),))


def repeat_rows(x: Tensor, k: int) -> Tensor:
    """[n, d] -> [n*k, d] with each row repeated k times consecutively."""
    if x.data.ndim != 2:
        raise DimensionError(f"repeat_rows: needs a 2-d tensor, got {x.shape}")
    n, d = x.shape
    out = Tensor(np.repeat(x.data, k, axis=0))
    return _record((x,), out, lambda g: (g.reshape(n, k, d).sum(axis=1),))


def sum_groups(x: Tensor, k: int) -> Tensor:
    """[n*k, d] -> [n, d], summing each consecutive group of k rows."""
    if x.data.ndim != 2 or x.shape[0] % k != 0:
        raise DimensionError(f"sum_groups: rows of {x.shape} not divisible by {k}")
    n = x.shape[0] // k
    out = Tensor(x.data.reshape(n, k, x.shape[1]).sum(axis=1))
    return _record((x,), out, lambda g: (np.repeat(g, k, axis=0),))


def scale_rows(x: Tensor, s: Tensor) -> Tensor:
    """Multiply row i of x[n, d] by scalar s[i]; s is [n] or [n, 1]."""
    s = _as_tensor(s)
    if x.data.ndim != 2 or s.size != x.shape[0]:
        raise DimensionError(f"scale_rows: shapes {x.shape} and {s.shape} do not conform")
    col = s.data.reshape(-1, 1)
    out = Tensor(x.data * col)

    def backward(g: Array):
        return (
            g * col if x.requires_grad else None,
            (g * x.data).sum(axis=1).reshape(s.shape) if s.requires_grad else None,
        )

    return _record((x, s), out, backward)


def sum_cols(x: Tensor) -> Tensor:
    """[n, d] -> [n, 1] row sums."""
    if x.data.ndim != 2:
        raise DimensionError(f"sum_cols: needs a 2-d tensor, got {x.shape}")
    out = Tensor(x.data.sum(axis=1, keepdims=True))
    return _record((x,), out, lambda g: (np.broadcast_to(g, x.shape).copy(),))


def sum_all(x: Tensor) -> Tensor:
    out = Tensor(x.data.sum())
    return _record((x,), out, lambda g: (np.full_like(x.data, float(g)),))


def embedding(table: Tensor, ids: Array) -> Tensor:
    """Row lookup table[ids]; backward scatter-adds into the table."""
    ids = np.asarray(ids)
    if ids.ndim != 1:
        raise DimensionError(f"embedding: ids must be 1-d, got shape {ids.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise DomainError(f"embedding: id out of range for table with {table.shape[0]} rows")
    out = Tensor(table.data[ids])

    def backward(g: Array):
        buf = np.zeros_like(table.data)
        np.add.at(buf, ids, g)
        return (buf,)

    return _record((table,), out, backward)


def pick(x: Tensor, idx: Array) -> Tensor:
    """Select one column per row: out[i, 0] = x[i, idx[i]]."""
    idx = np.asarray(idx)
    if x.data.ndim != 2 or idx.shape != (x.shape[0],):
        raise DimensionError(f"pick: shapes {x.shape} and {idx.shape} do not conform")
    if idx.size and (idx.min() < 0 or idx.max() >= x.shape[1]):
        raise DomainError(f"pick: index out of range for {x.shape[1]} columns")
    rows = np.arange(x.shape[0])
    out = Tensor(x.data[rows, idx].reshape(-1, 1))

    def backward(g: Array):
        buf = np.zeros_like(x.data)
        buf[rows, idx] = g[:, 0]
        return (buf,)

    return _record((x,), out, backward)


# ---------------------------------------------------------------------------
# normalization primitives


def _rows_and_mask(x: Tensor, mask):
    rows = x.data if x.data.ndim == 2 else x.data.reshape(1, -1)
    if mask is None:
        m = np.ones(rows.shape, dtype=bool)
    else:
        m = np.asarray(mask, dtype=bool)
        if m.shape != x.shape:
            raise DimensionError(f"mask shape {m.shape} does not match {x.shape}")
        m = m.reshape(rows.shape)
    return rows, m


def softmax(x: Tensor, mask=None) -> Tensor:
    """Row-wise masked softmax; masked positions come out exactly 0.

    Masked logits are treated as -inf before the max-subtracted normalization,
    so each unmasked row sums to 1 up to float rounding.
    """
    rows, m = _rows_and_mask(x, mask)
    if not m.any(axis=1).all():
        raise MaskError("softmax: a row has every position masked")
    shifted = np.where(m, rows, -np.inf)
    shifted = shifted - shifted.max(axis=1, keepdims=True)
    e = np.where(m, np.exp(shifted), 0.0)
    y = e / e.sum(axis=1, keepdims=True)
    out = Tensor(y.reshape(x.shape))

    def backward(g: Array):
        g2 = g.reshape(y.shape)
        dot = (g2 * y).sum(axis=1, keepdims=True)
        return ((y * (g2 - dot)).reshape(x.shape),)

    return _record((x,), out, backward)


def log_softmax(x: Tensor) -> Tensor:
    rows = x.data if x.data.ndim == 2 else x.data.reshape(1, -1)
    shifted = rows - rows.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    y = shifted - lse
    out = Tensor(y.reshape(x.shape))

    def backward(g: Array):
        g2 = g.reshape(y.shape)
        return ((g2 - np.exp(y) * g2.sum(axis=1, keepdims=True)).reshape(x.shape),)

    return _record((x,), out, backward)


# ---------------------------------------------------------------------------
# GRU cell


@dataclass
class GRUCellWeights:
    """Parameters of one gated recurrent unit cell."""

    W_u: Tensor
    U_u: Tensor
    b_u: Tensor
    W_r: Tensor
    U_r: Tensor
    b_r: Tensor
    W_h: Tensor
    U_h: Tensor
    b_h: Tensor

    def named(self, prefix: str) -> dict[str, Tensor]:
        return {f"{prefix}.{f}": getattr(self, f) for f in
                ("W_u", "U_u", "b_u", "W_r", "U_r", "b_r", "W_h", "U_h", "b_h")}


def _sigmoid(d: Array) -> Array:
    """Logistic function, evaluated on the side that keeps exp() bounded."""
    e = np.exp(-np.abs(d))
    return np.where(d >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _check_gru_shapes(x: Tensor, h_prev: Tensor, w: GRUCellWeights, keep: Array | None) -> None:
    if x.data.ndim != 2 or h_prev.data.ndim != 2 or x.shape[0] != h_prev.shape[0]:
        raise DimensionError(
            f"gru_cell: input {x.shape} and state {h_prev.shape} need 2-d operands with equal rows")
    d_in, d_h = x.shape[1], h_prev.shape[1]
    expected = {"W": (d_in, d_h), "U": (d_h, d_h), "b": (d_h,)}
    for f in fields(w):
        shape, want = getattr(w, f.name).shape, expected[f.name[0]]
        if shape != want:
            raise DimensionError(f"gru_cell: {f.name} has shape {shape}, expected {want} "
                                 f"for input {x.shape} and state {h_prev.shape}")
    if keep is not None and keep.shape != (x.shape[0], 1):
        raise DimensionError(f"gru_cell: keep has shape {keep.shape}, expected ({x.shape[0]}, 1)")


def gru_cell(x: Tensor, h_prev: Tensor, w: GRUCellWeights,
             keep: Array | None = None) -> Tensor:
    """One GRU step on a batch of rows, recorded as a single tape node.

    update gate   u = sigmoid(x W_u + h U_u + b_u)
    reset gate    r = sigmoid(x W_r + h U_r + b_r)
    candidate     c = tanh(x W_h + (r*h) U_h + b_h)
    new state     h' = (1-u)*h + u*c

    keep, a [B, 1] column of 0/1, masks the step: the output is
    h'*keep + h*(1-keep), so a row whose keep is 0 (a PAD position) carries
    its state through unchanged.

    The forward evaluates the same numpy expressions, in the same order, as
    the composition of primitives (matmul, add, bias_add, sigmoid, tanh, mul,
    neg, scale_rows) it replaces, and the backward applies each of their
    rules in reverse recording order.  Each input is listed in the node once
    per gradient part, in the order that composition's tape added the parts
    (x: W_h, W_r, W_u; h_prev: carry, (1-u)*h, r*h, U_r, U_u), so outputs and
    gradients are bit-identical to it.

    With all-zero weights this halves h_prev (u = 0.5, c = 0), which the
    tests pin down as the convention check.
    """
    _check_gru_shapes(x, h_prev, w, keep)
    xd, h = x.data, h_prev.data
    W_u, U_u, W_r, U_r, W_h, U_h = (t.data for t in (w.W_u, w.U_u, w.W_r, w.U_r, w.W_h, w.U_h))
    u = _sigmoid((xd @ W_u + h @ U_u) + w.b_u.data)
    r = _sigmoid((xd @ W_r + h @ U_r) + w.b_r.data)
    rh = r * h
    c = np.tanh((xd @ W_h + rh @ U_h) + w.b_h.data)
    omu = (-u) + 1.0
    h_new = omu * h + u * c
    if keep is not None:
        drop = 1.0 - keep
        h_new = h_new * keep + h * drop
    x_rg, h_rg = x.requires_grad, h_prev.requires_grad

    def backward(g: Array):
        h_parts = []
        if keep is not None:
            h_parts.append(g * drop if h_rg else None)
            g = g * keep
        h_parts.append(g * omu if h_rg else None)
        du = g * c - g * h                 # through u*c, then through (1-u)*h
        dc = (g * u) * (1.0 - c * c)       # pre-tanh
        drh = dc @ U_h.T
        h_parts.append(drh * r if h_rg else None)
        dr = drh * h * r * (1.0 - r)       # pre-sigmoid
        h_parts.append(dr @ U_r.T if h_rg else None)
        du = du * u * (1.0 - u)            # pre-sigmoid
        h_parts.append(du @ U_u.T if h_rg else None)
        return (
            dc @ W_h.T if x_rg else None,
            dr @ W_r.T if x_rg else None,
            du @ W_u.T if x_rg else None,
            *h_parts,
            xd.T @ dc, rh.T @ dc, dc.sum(axis=0),
            xd.T @ dr, h.T @ dr, dr.sum(axis=0),
            xd.T @ du, h.T @ du, du.sum(axis=0),
        )

    inputs = ((x,) * 3 + (h_prev,) * (4 if keep is None else 5)
              + (w.W_h, w.U_h, w.b_h, w.W_r, w.U_r, w.b_r, w.W_u, w.U_u, w.b_u))
    return _record(inputs, Tensor(h_new), backward)


# ---------------------------------------------------------------------------
# gradient checking


@dataclass
class GradCheckEntry:
    name: str
    max_rel_err: float
    n_checked: int

    def ok(self, tol: float) -> bool:
        return self.max_rel_err < tol


@dataclass
class GradCheckReport:
    entries: list[GradCheckEntry]
    h: float
    tol: float

    @property
    def passed(self) -> bool:
        return all(e.ok(self.tol) for e in self.entries)

    @property
    def max_rel_err(self) -> float:
        return max((e.max_rel_err for e in self.entries), default=0.0)

    def format(self) -> str:
        lines = []
        for e in self.entries:
            status = "ok" if e.ok(self.tol) else "FAIL"
            lines.append(f"{status:4s} {e.name:40s} max_rel_err={e.max_rel_err:.3e} ({e.n_checked} entries)")
        verdict = "PASS" if self.passed else "FAIL"
        lines.append(f"{verdict}: {len(self.entries)} tensors, tol={self.tol:g}, h={self.h:g}")
        return "\n".join(lines)


def grad_check(f: Callable[[], Tensor], params: dict[str, Tensor],
               h: float = 1e-5, tol: float = 1e-4) -> GradCheckReport:
    """Compare reverse-mode gradients of scalar f() against central differences.

    f must be deterministic and build its graph from `params` on every call
    (each probe runs its own forward).  Relative error uses the denominator
    max(|analytic|, |numeric|, 1e-4) so near-zero gradients are compared at
    an absolute floor instead of blowing up the ratio.
    """
    for p in params.values():
        p.zero_grad()
    with Tape() as tape:
        out = f()
    if out.size != 1:
        raise DimensionError(f"grad_check target must be scalar, got shape {out.shape}")
    if not np.isfinite(out.data).all():
        raise EvaluationError("grad_check: objective is non-finite at the base point")
    tape.backward(out)
    analytic = {name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
                for name, p in params.items()}

    entries = []
    for name, p in params.items():
        flat = p.data.reshape(-1)
        worst = 0.0
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            f_plus = f().item()
            flat[i] = orig - h
            f_minus = f().item()
            flat[i] = orig
            if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
                raise EvaluationError(f"grad_check: non-finite objective probing {name}[{i}]")
            numeric = (f_plus - f_minus) / (2.0 * h)
            a = analytic[name].reshape(-1)[i]
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-4)
            if rel > worst:
                worst = rel
        entries.append(GradCheckEntry(name, worst, flat.size))
    return GradCheckReport(entries, h, tol)
