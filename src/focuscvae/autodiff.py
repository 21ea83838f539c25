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

Two primitives fuse a recurrence, and both share one definition of a GRU
step's arithmetic.  `gru_cell` is one step (the decoder's); `bigru_layer`
is a whole bidirectional encoder layer, both directions stepping in
lockstep.  `masked_mean` pools the encoder states.  Their hand-written
backward passes reproduce the gradients of the op-by-op composition bit
for bit.  A `focconstrain` training step records 215 nodes with them,
against 2,164 op by op.
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

        A first part is kept as its rule returned it, which may be an array
        the rule also handed elsewhere or a view; the second is added into a
        fresh array that the tape owns, and later parts go into that one in
        place.
        """
        if root.size != 1:
            raise DimensionError(f"backward root must be scalar, got shape {root.shape}")
        grads: dict[int, Array] = {id(root): np.ones_like(root.data)}
        holders: dict[int, Tensor] = {id(root): root}
        owned: set[int] = set()  # keys whose gradient is an array of the tape's own
        produced = {id(node.out) for node in self.nodes}
        for node in reversed(self.nodes):
            g = grads.pop(id(node.out), None)
            if g is None:
                continue  # dead branch: output never influenced the root
            owned.discard(id(node.out))
            for inp, gi in zip(node.inputs, node.backward(g)):
                if gi is None:
                    continue
                key = id(inp)
                if key in owned:
                    grads[key] += gi
                elif key in grads:
                    grads[key] = grads[key] + gi
                    owned.add(key)
                else:
                    grads[key] = gi
                    holders[key] = inp
        for key, g in grads.items():
            t = holders[key]
            if t.requires_grad and key not in produced:
                t.grad = g if t.grad is None else t.grad + g


def _recording(inputs: tuple[Tensor, ...]) -> bool:
    """Whether an op over these inputs would be recorded on the tape now."""
    return Tape.current is not None and any(t.requires_grad for t in inputs)


def _record(inputs: tuple[Tensor, ...], out: Tensor, backward) -> Tensor:
    if _recording(inputs):
        out.requires_grad = True
        Tape.current.nodes.append(_Node(inputs, out, backward))
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


def masked_mean(x: Tensor, mask) -> Tensor:
    """Mean over the unmasked positions of each row.

    x is [B, T*d] with position t in columns t*d:(t+1)*d, and mask is [B, T]
    of 0/1 with a 1 in every row; the result is [B, d].  Positions are added
    left to right after masking, then the sum is scaled by 1/count, the same
    arithmetic as a chain of scale_rows and add nodes.
    """
    m = np.asarray(mask, dtype=np.float64)
    if (x.data.ndim != 2 or m.ndim != 2 or m.shape[0] != x.shape[0] or m.shape[1] == 0
            or x.shape[1] % m.shape[1]):
        raise DimensionError(f"masked_mean: shapes {x.shape} and {m.shape} do not conform")
    if not m.any(axis=1).all():
        raise MaskError("masked_mean: a row has every position masked")
    b, t = m.shape
    d = x.shape[1] // t
    cols = x.data.reshape(b, t, d)
    inv = 1.0 / m.sum(axis=1, keepdims=True)
    acc = cols[:, 0] * m[:, :1]
    for i in range(1, t):
        acc = acc + cols[:, i] * m[:, i:i + 1]
    out = Tensor(acc * inv)
    return _record((x,), out, lambda g: (((g * inv)[:, None, :] * m[:, :, None]).reshape(x.shape),))


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
# GRU: one step's arithmetic, a one-step cell and a bidirectional layer


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


# the order in which a step's backward lists its weights' gradient parts
_STEP_WEIGHT_ORDER = ("W_h", "U_h", "b_h", "W_r", "U_r", "b_r", "W_u", "U_u", "b_u")


def _sigmoid(d: Array, out: Array | None = None) -> Array:
    """Logistic function, evaluated on the side that keeps exp() bounded:
    1/(1+e) where d >= 0 and e/(1+e) elsewhere, with e = exp(-|d|).  out
    may be d itself."""
    pos = d >= 0.0
    e = np.abs(d, out=out)
    np.negative(e, out=e)
    np.exp(e, out=e)
    num = np.maximum(e, pos)  # 1 where d >= 0, else e, since 0 <= e <= 1
    e += 1.0
    return np.divide(num, e, out=e)


def _gru_step(xw: Array, h: Array, U: Array, b: Array,
              keep: Array | None, drop: Array | None) -> tuple[Array, Array, Array, Array]:
    """One GRU step on arrays: the one definition of its forward arithmetic,
    for `gru_cell` and `bigru_layer` alike.

    h is [..., B, u], and U stacks (U_u, U_r, U_h) on a new first axis.
    xw stacks the input projections (x W_u, x W_r, x W_h) the same way, and
    b the biases (b_u, b_r, b_h), each [..., 1, u].  keep and drop = 1 - keep
    are [..., B, 1] mask columns, or None.  Leading axes stack independent
    cells, as `bigru_layer` stacks its two directions: every product is
    still one 2-d matmul per cell and the rest is elementwise, so stacking
    changes no bit.  Returns (h', ur, c, 1 - u), where ur stacks u and r.
    """
    ur = h @ U[:2]
    ur += xw[:2]
    ur += b[:2]
    _sigmoid(ur, out=ur)
    u, r = ur
    c = (r * h) @ U[2]
    c += xw[2]
    c += b[2]
    np.tanh(c, out=c)
    omu = 1.0 - u
    h_new = omu * h
    h_new += u * c
    if keep is not None:
        # masked carry: a row whose keep is 0 passes its state through
        h_new *= keep
        h_new += h * drop
    return h_new, ur, c, omu


def _gru_step_grads(g: Array, h: Array, ur: Array, c: Array, omu: Array,
                    keep: Array | None, drop: Array | None, U: Array, dg: Array,
                    h_parts: bool) -> list[Array]:
    """Backward of `_gru_step` for the gradient g of h'.

    Writes the gradients of the three pre-activations (u, r, candidate) into
    dg[0], dg[1], dg[2] and returns, if h_parts, the parts of h's gradient in
    the order the op-by-op composition's tape added them: carry (masked
    steps only), (1-u)*h, r*h, U_r, U_u.
    """
    u, r = ur
    du, dr, dc = dg
    U_T = np.swapaxes(U, -1, -2)
    parts = []
    if keep is not None:
        if h_parts:
            parts.append(g * drop)
        g = g * keep
    if h_parts:
        parts.append(g * omu)
    np.multiply(g, c, out=du)          # through u*c, then through (1-u)*h
    du -= g * h
    np.multiply(g, u, out=dc)
    dc *= 1.0 - c * c                  # pre-tanh
    drh = dc @ U_T[2]
    if h_parts:
        parts.append(drh * r)
    np.multiply(drh, h, out=dr)
    dr *= r
    dr *= 1.0 - r                      # pre-sigmoid
    if h_parts:
        parts.append(dr @ U_T[1])
    du *= u
    du *= omu                          # pre-sigmoid
    if h_parts:
        parts.append(du @ U_T[0])
    return parts


def _check_cell(op: str, w: GRUCellWeights, d_in: int, d_h: int, context: str) -> None:
    expected = {"W": (d_in, d_h), "U": (d_h, d_h), "b": (d_h,)}
    for f in fields(w):
        shape, want = getattr(w, f.name).shape, expected[f.name[0]]
        if shape != want:
            raise DimensionError(f"{op}: {f.name} has shape {shape}, expected {want} for {context}")


def _gate_stacks(cells: Sequence[GRUCellWeights]) -> tuple[Array, Array, Array]:
    """W, U and b of the cells as [gate u/r/h, cell, ...] arrays."""
    return tuple(np.stack([getattr(w, f"{kind}_{gate}").data for gate in "urh" for w in cells])
                 .reshape((3, len(cells)) + getattr(cells[0], f"{kind}_u").shape)
                 for kind in "WUb")


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

    The step (`_gru_step`) computes every value of the composition of
    primitives (matmul, add, bias_add, sigmoid, tanh, mul, neg, scale_rows)
    it replaces with the same rounding, and its backward (`_gru_step_grads`)
    applies each of their rules in reverse recording order.  Each input is
    listed in the node once per gradient part, in the order that
    composition's tape added the parts (x: W_h, W_r, W_u; h_prev: carry,
    (1-u)*h, r*h, U_r, U_u), so outputs and gradients are bit-identical to
    it.

    With all-zero weights this halves h_prev (u = 0.5, c = 0), which the
    tests pin down as the convention check.
    """
    if x.data.ndim != 2 or h_prev.data.ndim != 2 or x.shape[0] != h_prev.shape[0]:
        raise DimensionError(
            f"gru_cell: input {x.shape} and state {h_prev.shape} need 2-d operands with equal rows")
    _check_cell("gru_cell", w, x.shape[1], h_prev.shape[1],
                f"input {x.shape} and state {h_prev.shape}")
    if keep is not None and keep.shape != (x.shape[0], 1):
        raise DimensionError(f"gru_cell: keep has shape {keep.shape}, expected ({x.shape[0]}, 1)")
    xd, h = x.data, h_prev.data
    W, U, b = (s[:, 0] for s in _gate_stacks([w]))
    drop = None if keep is None else 1.0 - keep
    h_new, ur, c, omu = _gru_step(xd @ W, h, U, b[:, None], keep, drop)
    x_rg, h_rg = x.requires_grad, h_prev.requires_grad

    def backward(g: Array):
        dg = np.empty((3,) + h.shape)
        h_parts = _gru_step_grads(g, h, ur, c, omu, keep, drop, U, dg, h_rg)
        du, dr, dc = dg
        rh = ur[1] * h
        return (
            *(dg[::-1] @ W[::-1].transpose(0, 2, 1) if x_rg else [None] * 3),
            *(h_parts if h_rg else [None] * n_h),
            xd.T @ dc, rh.T @ dc, dc.sum(axis=0),
            xd.T @ dr, h.T @ dr, dr.sum(axis=0),
            xd.T @ du, h.T @ du, du.sum(axis=0),
        )

    n_h = 4 if keep is None else 5
    inputs = (x,) * 3 + (h_prev,) * n_h + tuple(getattr(w, n) for n in _STEP_WEIGHT_ORDER)
    return _record(inputs, Tensor(h_new), backward)


def bigru_layer(x: Tensor, mask, fwd: GRUCellWeights, bwd: GRUCellWeights) -> Tensor:
    """A bidirectional GRU layer over a padded batch, recorded as one tape node.

    x is [B, T*d_in], position t in columns t*d_in:(t+1)*d_in, and mask is
    [B, T] of 0/1.  The output is [B, T*2u]: position t holds the forward
    state after reading positions 0..t, then the backward state after
    reading T-1..t.  Each step is `gru_cell`'s arithmetic with the mask
    column as keep, so a PAD position carries both states through.

    The two directions run in lockstep: step i advances the forward cell at
    position i and the backward cell at position T-1-i in the same numpy
    calls, on [2, B, u] stacks, and the input projections of every step are
    computed before the loop.  The backward loop takes each step's weight
    and input gradients for both directions and all three gates in one
    matmul per kind.  It builds no stacks of them over all steps: those
    temporaries (up to 1.4 MB each) made glibc give heap pages back and
    fault them in again on every training step.

    Outputs and gradients are bit-identical to the per-step `gru_cell` nodes
    and per-position `concat` nodes this replaces.  Every stacked product is
    the same 2-d matmul that composition made, and the node lists its inputs
    once per gradient part in the order that composition's tape added them:
    x six times (the backward cell's W_h, W_r, W_u parts, then the forward
    cell's), then each weight once per step, the backward cell's before the
    forward cell's, steps from the last to the first.
    """
    m = np.asarray(mask)
    if m.ndim != 2 or m.shape[1] == 0:
        raise DimensionError(f"bigru_layer: mask must be [B, T] with T > 0, got shape {m.shape}")
    b, t = m.shape
    d_in, units = fwd.W_u.shape
    if x.data.ndim != 2 or x.shape != (b, t * d_in):
        raise DimensionError(f"bigru_layer: input {x.shape} does not hold {t} positions of "
                             f"width {d_in} for mask {m.shape}")
    for cell in (fwd, bwd):
        _check_cell("bigru_layer", cell, d_in, units, f"input width {d_in} and {units} units")

    # [gate u/r/h, direction, ...], the forward cell first
    W, U, bias = _gate_stacks([fwd, bwd])
    bias = bias[:, :, None]
    # [step, direction, ...]: step i reads position i forward and T-1-i backward
    xs = x.data.reshape(b, t, d_in).transpose(1, 0, 2)
    xd = np.stack([xs, xs[::-1]], axis=1)
    xw = xd[:, None] @ W  # [step, gate, direction, B, u]
    col = m.T.astype(np.float64)[:, :, None]
    keep = np.stack([col, col[::-1]], axis=1)
    drop = 1.0 - keep

    bwd_weights, fwd_weights = (tuple(getattr(cell, n) for n in _STEP_WEIGHT_ORDER)
                                for cell in (bwd, fwd))
    inputs = (x,) * 6 + bwd_weights * t + fwd_weights * t
    recording = _recording(inputs)
    out = np.empty((b, t, 2, units))
    h = np.zeros((2, b, units))
    saved = []  # (h, ur, c, 1 - u) of each step, kept only for a backward pass
    for i in range(t):
        h_new, ur, c, omu = _gru_step(xw[i], h, U, bias, keep[i], drop[i])
        if recording:
            saved.append((h, ur, c, omu))
        out[:, i, 0] = h_new[0]
        out[:, t - 1 - i, 1] = h_new[1]
        h = h_new
    x_rg = x.requires_grad

    def backward(g: Array):
        g4 = g.reshape(b, t, 2, units)
        W_T = W.transpose(0, 1, 3, 2)
        # each direction's input gradient as [gate u/r/h, B, position, d_in]
        px = np.empty((2, 3, b, t, d_in)) if x_rg else None
        w_grads = [None] * t
        h_parts = []
        for i in range(t - 1, -1, -1):
            # step i's output gradient: its positions' columns, then step
            # i+1's parts for its state, in the order the tape added them
            gh = np.stack([g4[:, i, 0], g4[:, t - 1 - i, 1]])
            for part in h_parts:
                gh += part
            h, ur, c, omu = saved[i]
            dg = np.empty((3, 2, b, units))  # [gate u/r/h, direction, B, u]
            h_parts = _gru_step_grads(gh, h, ur, c, omu, keep[i], drop[i], U, dg, i > 0)
            w_grads[i] = (xd[i].transpose(0, 2, 1) @ dg, h.transpose(0, 2, 1) @ dg[:2],
                          (ur[1] * h).transpose(0, 2, 1) @ dg[2], dg.sum(axis=2))
            if x_rg:
                dx = dg @ W_T
                px[0, :, :, i] = dx[:, 0]
                px[1, :, :, t - 1 - i] = dx[:, 1]
        x_parts = [None] * 6
        if x_rg:
            x_parts = [px[d, k].reshape(b, t * d_in) for d in (1, 0) for k in (2, 1, 0)]
        return (*x_parts, *(p for d in (1, 0) for gW, gU, gU_h, gb in w_grads[::-1] for p in (
            gW[2, d], gU_h[d], gb[2, d],
            gW[1, d], gU[1, d], gb[1, d],
            gW[0, d], gU[0, d], gb[0, d])))

    return _record(inputs, Tensor(out.reshape(b, t * 2 * units)), backward)


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
