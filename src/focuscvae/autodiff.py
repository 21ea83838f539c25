"""Tape-based reverse-mode automatic differentiation over dense float64 arrays.

Every quantity in the model (embeddings, hidden states, attention weights,
losses) is a Tensor.  Running math inside a `with Tape() as tape:` block
records one node per primitive op, in execution order, which is a topological
order by construction.  `tape.backward(loss)` walks the nodes once in reverse
and deposits gradients into the leaf tensors that asked for them.

Only two broadcasting forms exist on the elementwise ops: equal shapes, and
scalar against tensor.  Row/column broadcasts needed by the model go through
dedicated primitives (bias_add, scale_rows, repeat_rows) so each backward
rule stays a couple of lines.

One primitive, `gru_layer`, fuses a GRU recurrence: a bidirectional
encoder layer with both directions stepping in lockstep.  `masked_mean`
pools the encoder states, and `decoder.decode_train` records a whole
teacher-forced decode as one node over the same step arithmetic.  Their
hand-written backward passes reproduce the gradients of the op-by-op
composition bit for bit.  A `focconstrain` training step records 118 nodes
with them, against 2,164 op by op.
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
    """One recorded op.  backward(g) returns, or yields, one gradient part
    (or None) per entry of inputs.  An input may be listed more than once,
    once per part, and the tape adds its parts in listed order."""

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

        The pass consumes the tape: each node leaves `nodes` as it is
        visited, and with it its output and whatever its rule kept, once no
        other node or caller holds them.  The gradient of an intermediate
        tensor goes when its producer has run, so at the end only leaves'
        gradients are held; `nodes` is empty when this returns.
        """
        if root.size != 1:
            raise DimensionError(f"backward root must be scalar, got shape {root.shape}")
        grads: dict[int, Array] = {id(root): np.ones_like(root.data)}
        holders: dict[int, Tensor] = {id(root): root}
        owned: set[int] = set()  # keys whose gradient is an array of the tape's own
        # a produced tensor receives every gradient part before its producer
        # is visited, so what is left in grads at the end belongs to leaves
        while self.nodes:
            node = self.nodes.pop()
            out_key = id(node.out)
            g = grads.pop(out_key, None)
            holders.pop(out_key, None)
            if g is None:
                continue  # dead branch: output never influenced the root
            owned.discard(out_key)
            for inp, gi in zip(node.inputs, node.backward(g), strict=True):
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
            if t.requires_grad:
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
    # 0 where the output is exactly 0, the subgradient that keeps a norm's
    # gradient finite when its vector is all zeros
    return _record((x,), out,
                   lambda g: (np.divide(g * 0.5, y, out=np.zeros_like(y), where=y != 0.0),))


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


def _masked_softmax(rows: Array, m: Array) -> Array:
    """Softmax of each row of a 2-d array over the positions where m is
    True; the other positions come out exactly 0."""
    shifted = np.where(m, rows, -np.inf)
    shifted = shifted - shifted.max(axis=1, keepdims=True)
    e = np.where(m, np.exp(shifted), 0.0)
    return e / e.sum(axis=1, keepdims=True)


def softmax(x: Tensor, mask) -> Tensor:
    """Masked softmax over each row of a 2-d x; masked positions come out
    exactly 0.

    mask has x's shape.  Masked logits are treated as -inf before the
    max-subtracted normalization, so each row sums to 1 up to float rounding.
    """
    m = np.asarray(mask, dtype=bool)
    if x.data.ndim != 2 or m.shape != x.shape:
        raise DimensionError(f"softmax: needs a 2-d tensor and a mask of its shape, "
                             f"got {x.shape} and {m.shape}")
    if not m.any(axis=1).all():
        raise MaskError("softmax: a row has every position masked")
    y = _masked_softmax(x.data, m)

    def backward(g: Array):
        dot = (g * y).sum(axis=1, keepdims=True)
        return (y * (g - dot),)

    return _record((x,), Tensor(y), backward)


def log_softmax(x: Tensor) -> Tensor:
    """Log-softmax over each row of a 2-d tensor."""
    if x.data.ndim != 2:
        raise DimensionError(f"log_softmax: needs a 2-d tensor, got {x.shape}")
    shifted = x.data - x.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    y = shifted - lse
    return _record((x,), Tensor(y), lambda g: (g - np.exp(y) * g.sum(axis=1, keepdims=True),))


# ---------------------------------------------------------------------------
# GRU: one step's arithmetic and a layer of steps


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
        return {f"{prefix}.{f.name}": getattr(self, f.name) for f in fields(self)}


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
    """One GRU step on arrays, the one definition of its forward arithmetic.

    h is [..., B, u], and U stacks (U_u, U_r, U_h) on a new first axis.
    xw stacks the input projections (x W_u, x W_r, x W_h) the same way, and
    b the biases (b_u, b_r, b_h), each [..., 1, u].  keep and drop = 1 - keep
    are [..., B, 1] mask columns, or None.  Leading axes stack independent
    cells, as `gru_layer` stacks its two directions: every product is
    still one 2-d matmul per cell and the rest is elementwise, so stacking
    changes no bit.  Returns (h', ur, c, 1 - u), where ur stacks u and r.
    With all-zero weights a step halves the state (u = 0.5, c = 0).
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


def _gate_stacks(cells: Sequence[GRUCellWeights]) -> tuple[Array, Array, Array]:
    """W, U and b of the cells as [gate u/r/h, cell, rows, u] arrays, b with one row."""
    arrays = [[getattr(w, f"{kind}_{gate}").data for gate in "urh" for w in cells]
              for kind in "WUb"]
    return tuple(np.concatenate(a).reshape(3, len(cells), -1, a[0].shape[-1]) for a in arrays)


def _gru_weight_grads(x: Array, h: Array, ur: Array, dg: Array) -> tuple[Array, ...]:
    """One step's weight gradients from its pre-activation gradients dg
    ([gate u/r/h, cell, B, u]), its [cell, B, d_in] input x and its
    `_gru_step` values: (W, (U_u, U_r), U_h, b) stacked as dg is."""
    return (x.transpose(0, 2, 1) @ dg, h.transpose(0, 2, 1) @ dg[:2],
            (ur[1] * h).transpose(0, 2, 1) @ dg[2], dg.sum(axis=2))


def _cell_inputs(cell: GRUCellWeights) -> tuple[Tensor, ...]:
    """A cell's weights in the order one step of the composition's tape
    visited them."""
    return (cell.W_h, cell.U_h, cell.b_h, cell.W_r, cell.U_r, cell.b_r,
            cell.W_u, cell.U_u, cell.b_u)


def _cell_parts(w_grads: tuple[Array, ...], d: int) -> tuple[Array, ...]:
    """Cell d's part of `_gru_weight_grads`, listed as `_cell_inputs`."""
    gW, gU, gU_h, gb = w_grads
    return (gW[2, d], gU_h[d], gb[2, d], gW[1, d], gU[1, d], gb[1, d],
            gW[0, d], gU[0, d], gb[0, d])


def _by_step(a: Array) -> Array:
    """[position, ...] to [step, direction, ...]: the forward direction reads
    the positions in order, the backward one from the last to the first."""
    return np.stack([a, a[::-1]], axis=1)


def _x_by_step(x: Tensor, b: int, t: int, d_in: int) -> Array:
    """x's [B, T*d_in] rows as [step, direction, B, d_in]."""
    return _by_step(x.data.reshape(b, t, d_in).transpose(1, 0, 2))


def gru_layer(x: Tensor, mask, cells: Sequence[GRUCellWeights]) -> Tensor:
    """A bidirectional GRU layer over a padded batch, recorded as one tape node.

    update gate   u = sigmoid(x W_u + h U_u + b_u)
    reset gate    r = sigmoid(x W_r + h U_r + b_r)
    candidate     c = tanh(x W_h + (r*h) U_h + b_h)
    new state     h' = (1-u)*h + u*c

    x is [B, T*d_in], position t in columns t*d_in:(t+1)*d_in, and mask is
    [B, T] of 0/1.  cells is a (forward, backward) pair: the forward cell
    reads positions 0..T-1 and the backward cell T-1..0, each from a zero
    state.  A step gives h'*keep + h*(1-keep), keep being its position's
    mask column, so PAD positions carry the state through.  Position t of
    the [B, T*2u] output holds the forward and then the backward state
    after reading it.  The decoder's cells run the same step functions
    inside `decoder.decode_train`'s node.

    The two cells step in lockstep on [2, B, u] stacks, with the input
    projections computed before the loop.  Each backward step takes its
    weight gradients in one matmul per kind and writes its input gradients
    in place, one matmul per cell.

    Per step the node keeps only the gates u, r and the candidate c.  Its
    backward rebuilds, once per call, what else it reads: 1 - u, the state
    before each step from the node's own output, x by step from x, and the
    gate stacks from the cells' weights.  Each rebuilt array has the layout
    the forward's had, so every matmul rounds as it did there.

    Outputs and gradients are bit-identical to the op-by-op composition
    (matmul, add, bias_add, sigmoid, tanh, mul, neg, scale_rows, concat):
    each stacked product is the same 2-d matmul, and the node lists each
    input once per gradient part in that composition's order: x three times
    per cell (W_h, W_r, W_u parts) and each weight once per step; the
    backward cell first, steps from the last to the first.
    """
    if len(cells) != 2:
        raise DimensionError(f"gru_layer: takes a (forward, backward) cell pair, "
                             f"got {len(cells)} cells")
    d_in, units = cells[0].W_u.shape
    m = np.asarray(mask)
    if m.ndim != 2 or m.shape[1] == 0:
        raise DimensionError(f"gru_layer: mask must be [B, T] with T > 0, got shape {m.shape}")
    b, t = m.shape
    if x.shape != (b, t * d_in):
        raise DimensionError(f"gru_layer: input {x.shape} does not hold {t} positions of "
                             f"width {d_in} for {b} rows")
    want = {"W": (d_in, units), "U": (units, units), "b": (units,)}
    for cell in cells:
        for f in fields(cell):
            shape = getattr(cell, f.name).shape
            if shape != want[f.name[0]]:
                raise DimensionError(f"gru_layer: {f.name} has shape {shape}, expected "
                                     f"{want[f.name[0]]} for {d_in} inputs and {units} units")

    # [gate u/r/h, direction, ...]
    W, U, bias = _gate_stacks(cells)
    xw = _x_by_step(x, b, t, d_in)[:, None] @ W  # [step, gate, direction, B, u]
    keep = _by_step(m.T.astype(np.float64)[:, :, None])  # [step, direction, B, 1]
    drop = 1.0 - keep
    h_first = np.zeros((2, b, units))

    inputs = (x,) * 6
    for cell in cells[::-1]:  # in the order of each step's weight parts below
        inputs += _cell_inputs(cell) * t
    recording = _recording(inputs)
    out = np.empty((b, t, 2, units))
    saved = []  # (ur, c) of each step, kept only for a backward pass
    h = h_first
    for i in range(t):
        h, ur, c, _ = _gru_step(xw[i], h, U, bias, keep[i], drop[i])
        if recording:
            saved.append((ur, c))
        out[:, i, 0] = h[0]
        out[:, t - 1 - i, 1] = h[1]
    out = out.reshape(b, t * 2 * units)
    x_rg = x.requires_grad

    def backward(g: Array):
        g4 = g.reshape(b, t, 2, units)
        xd = _x_by_step(x, b, t, d_in)
        # the state before step i > 0 is step i - 1's output, laid out as
        # `_gru_step` returned it: [step - 1, direction, B, u]
        out4 = out.reshape(b, t, 2, units)
        before = np.empty((t - 1, 2, b, units))
        before[:, 0] = out4[:, :t - 1, 0].transpose(1, 0, 2)
        before[:, 1] = out4[:, t - 1:0:-1, 1].transpose(1, 0, 2)
        W, U, _ = _gate_stacks(cells)  # the forward's are not kept
        W_T = W.transpose(0, 1, 3, 2)
        px = np.empty((3, 2, b, t, d_in)) if x_rg else None  # [gate h/r/u, direction, B, T, d_in]
        w_grads, h_parts = [], []  # w_grads from the last step to the first
        for i in range(t - 1, -1, -1):
            # step i's output gradient, then step i+1's parts for its state,
            # in the order the tape added them
            gh = np.stack([g4[:, i, 0], g4[:, t - 1 - i, 1]])
            gh = gh if i == t - 1 else gh + h_parts[0]
            for part in h_parts[1:]:
                gh += part
            ur, c = saved[i]
            h = before[i - 1] if i else h_first
            dg = np.empty((3, 2, b, units))  # [gate u/r/h, direction, B, u]
            h_parts = _gru_step_grads(gh, h, ur, c, 1.0 - ur[0], keep[i], drop[i], U, dg, i > 0)
            w_grads.append(_gru_weight_grads(xd[i], h, ur, dg))
            if x_rg:
                np.matmul(dg[:, 0], W_T[:, 0], out=px[::-1, 0, :, i])
                np.matmul(dg[:, 1], W_T[:, 1], out=px[::-1, 1, :, t - 1 - i])
        parts = ([p for d in (1, 0) for p in px[:, d].reshape(3, b, t * d_in)]
                 if x_rg else [None] * 6)
        for d in (1, 0):
            for step_grads in w_grads:
                parts += _cell_parts(step_grads, d)
        return parts

    return _record(inputs, Tensor(out), backward)


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
