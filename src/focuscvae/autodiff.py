"""Tape-based reverse-mode automatic differentiation over dense float64 arrays.

Every quantity in the model (embeddings, hidden states, attention weights,
losses) is a Tensor.  Running math inside a `with Tape() as tape:` block
records one node per primitive op, in execution order, which is a topological
order by construction.  A node may return several outputs (`split`'s
column blocks, the decode node's logits and coverage).  `tape.backward(loss)`
walks the nodes once in reverse and deposits gradients into the leaf tensors
that asked for them.

Which gradients are kept is decided in one place, `Tape.backward`: every
backward rule and fused node hands the tape a part for each input it reads,
and the tape drops the parts of tensors that do not require grad.  A
constant operand's part (a mask, eps, a scalar) is computed and dropped.

Only two broadcasting forms exist on the elementwise ops: equal shapes, and
a constant scalar against a tensor; a size-1 operand that requires grad is
refused, so no gradient is ever summed back onto one.  Row/column
broadcasts needed by the model go through dedicated primitives (bias_add,
scale_rows, repeat_rows) so each backward rule stays a couple of lines.
A negation is `mul(x, -1.0)`, which gives -x forward and -g backward.

`gru_layer` fuses a bidirectional encoder layer, both directions stepping
in lockstep; `embedding` looks up an encode's every position in one node,
`masked_mean` pools the states, and `decoder.decode_train` records a whole
teacher-forced decode as one node over the same step arithmetic: both run
one GRU step forward, `_gru_step`, and one backward, `_gru_step_backward`.
Their backward passes reproduce the op-by-op composition's gradients bit
for bit.  A desk step records 94 nodes for `focconstrain` (2,161 op by
op), 85 for `foc` and `foccoverage`, 19 for `s2s`.
"""

from __future__ import annotations

import numpy as np
from dataclasses import dataclass, fields
from typing import Callable, Iterable, Sequence

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
    """One recorded op.  backward(g) returns, or yields, an (input, part)
    pair for every input it reads.  An input may come in several pairs, and
    the tape adds its parts in that order.  For a tuple of outputs, g is a
    tuple of their gradients, None where none arrived."""

    out: Tensor | tuple[Tensor, ...]
    backward: Callable[..., Iterable[tuple[Tensor, Array]]]


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
        tapes produce bit-identical gradients.  Its backward gets its
        output's gradient, or a tuple of one per output (None where none
        arrived), and is not called if none arrived.  A tensor's gradient is
        the left-to-right sum of its parts in visiting order; within one
        node, the parts of an input that comes in several pairs are added in
        the order the node yields them.

        This is the one place that decides which gradients are kept: a pair
        whose tensor does not require grad is skipped, so no rule or fused
        node tests `requires_grad`.  A first part is kept as its rule
        returned it, which may be an array the rule also handed elsewhere or
        a view; the second is added into a fresh array that the tape owns,
        and later parts go into that one in place.

        The pass consumes the tape: each node leaves `nodes` as it is
        visited, and with it its outputs and whatever its rule kept, once no
        other node or caller holds them.  The gradient of an intermediate
        tensor goes when its producer has run, so at the end only leaves'
        gradients are held; `nodes` is empty when this returns.
        """
        if root.size != 1:
            raise DimensionError(f"backward root must be scalar, got shape {root.shape}")
        grads: dict[Tensor, Array] = {root: np.ones_like(root.data)}
        owned: set[Tensor] = set()  # tensors whose gradient is an array of the tape's own
        # a produced tensor receives every gradient part before its producer
        # is visited, so what is left in grads at the end belongs to leaves
        while self.nodes:
            node = self.nodes.pop()
            outs = node.out if isinstance(node.out, tuple) else (node.out,)
            g = tuple(grads.pop(t, None) for t in outs)
            owned.difference_update(outs)
            if all(gi is None for gi in g):
                continue  # dead branch: no output influenced the root
            for inp, gi in node.backward(g if outs is node.out else g[0]):
                if not inp.requires_grad:
                    continue
                if inp in owned:
                    grads[inp] += gi
                elif inp in grads:
                    grads[inp] = grads[inp] + gi
                    owned.add(inp)
                else:
                    grads[inp] = gi
        for t, g in grads.items():
            if t.requires_grad:
                t.grad = g if t.grad is None else t.grad + g


def _recording(inputs: tuple[Tensor, ...]) -> bool:
    """Whether an op over these inputs would be recorded on the tape now."""
    return Tape.current is not None and any(t.requires_grad for t in inputs)


def _record_pairs(inputs: tuple[Tensor, ...], out, backward):
    """Record a node that reads the distinct tensors inputs, if one of them
    requires grad, and return out, a Tensor or a tuple of them.  backward(g)
    returns or yields the node's (input, part) pairs, each input's parts in
    the order the tape is to add them; for a tuple out, g is a tuple of one
    gradient per output, None where none arrived."""
    if _recording(inputs):
        for t in out if isinstance(out, tuple) else (out,):
            t.requires_grad = True
        Tape.current.nodes.append(_Node(out, backward))
    return out


def _record(inputs: tuple[Tensor, ...], out, rule):
    """Record a primitive whose rule(g) returns one part per entry of inputs."""
    return _record_pairs(inputs, out, lambda g: zip(inputs, rule(g), strict=True))


# ---------------------------------------------------------------------------
# elementwise primitives


def _binary_shapes(a: Tensor, b: Tensor, name: str) -> None:
    # equal shapes, or a constant scalar against a tensor: an operand that
    # requires grad has the output's shape, so its gradient is never reduced
    if a.shape == b.shape:
        return
    if a.size != 1 and b.size != 1:
        raise DimensionError(f"{name}: shapes {a.shape} and {b.shape} do not conform")
    if (a.size == 1 and a.requires_grad) or (b.size == 1 and b.requires_grad):
        raise DimensionError(f"{name}: a size-1 operand that requires grad does not broadcast "
                             f"({a.shape} and {b.shape})")


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _binary_shapes(a, b, "add")
    out = Tensor(a.data + b.data)
    return _record((a, b), out, lambda g: (g, g))


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _binary_shapes(a, b, "mul")
    out = Tensor(a.data * b.data)
    return _record((a, b), out, lambda g: (g * b.data, g * a.data))


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
    return _record((a, b), out, lambda g: (g @ b.data.T, a.data.T @ g))


def bias_add(x: Tensor, b: Tensor) -> Tensor:
    """x[n, d] + b[d] broadcast over rows."""
    if x.data.ndim != 2 or b.data.ndim != 1 or x.shape[1] != b.shape[0]:
        raise DimensionError(f"bias_add: shapes {x.shape} and {b.shape} do not conform")
    out = Tensor(x.data + b.data)
    return _record((x, b), out, lambda g: (g, g.sum(axis=0)))


def concat(parts: Sequence[Tensor]) -> Tensor:
    """2-d tensors side by side: [n, d_1], ..., [n, d_k] -> [n, d_1 + ... + d_k]."""
    try:
        out = Tensor(np.concatenate([p.data for p in parts], axis=1))
    except ValueError as e:
        raise DimensionError(f"concat: {e}") from None
    offsets = np.cumsum([0] + [p.shape[1] for p in parts])
    return _record(tuple(parts), out,
                   lambda g: tuple(g[:, offsets[i]:offsets[i + 1]] for i in range(len(parts))))


def split(x: Tensor, widths: Sequence[int]) -> tuple[Tensor, ...]:
    """A 2-d tensor's columns as blocks of the given widths, left to right:
    the inverse of concat, one node with an output per block."""
    if x.data.ndim != 2 or min(widths, default=0) < 0 or sum(widths) != x.shape[1]:
        raise DimensionError(f"split: widths {list(widths)} do not tile the columns of {x.shape}")
    cols = [slice(a, a + w) for a, w in zip(np.cumsum([0, *widths]), widths)]

    def backward(gs: tuple[Array | None, ...]):
        buf = np.zeros_like(x.data)
        for sl, g in zip(cols, gs):
            buf[:, sl] = 0.0 if g is None else g
        return (buf,)

    return _record((x,), tuple(Tensor(x.data[:, sl].copy()) for sl in cols), backward)


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
    return _record((x, s), out,
                   lambda g: (g * col, (g * x.data).sum(axis=1).reshape(s.shape)))


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


def _scatter(table: Array, ids: Array, g: Array) -> Array:
    """The gradient g of rows table[ids] added into a zero table, in row order."""
    buf = np.zeros_like(table)
    np.add.at(buf, ids, g)
    return buf


def embedding(table: Tensor, ids: Array) -> Tensor:
    """Row lookups of an [n, k] id block as [n, k*d] rows, column j of ids
    in columns j*d:(j+1)*d.  The backward yields one (table, scatter) pair
    per id column, last column first: the parts, in the order, that k
    one-column lookups and their concat handed the tape."""
    ids = np.asarray(ids)
    if ids.ndim != 2 or table.data.ndim != 2:
        raise DimensionError(f"embedding: needs [n, k] ids and a 2-d table, "
                             f"got {ids.shape} and {table.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise DomainError(f"embedding: id out of range for table with {table.shape[0]} rows")
    n, k = ids.shape
    d = table.shape[1]
    out = Tensor(table.data[ids].reshape(n, k * d))

    def backward(g: Array):
        for j in range(k - 1, -1, -1):
            yield table, _scatter(table.data, ids[:, j], g[:, j * d:(j + 1) * d])

    return _record_pairs((table,), out, backward)


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


class Weights:
    """A group of parameters, each a dataclass field."""

    def named(self, prefix: str) -> dict[str, Tensor]:
        """The fields as prefix.field, in declaration order; a None field is left out."""
        return {f"{prefix}.{f.name}": t for f in fields(self)
                if (t := getattr(self, f.name)) is not None}


@dataclass
class GRUCellWeights(Weights):
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
              keep: Array | None, drop: Array | None) -> tuple[Array, Array, Array]:
    """One GRU step on arrays, the one definition of its forward arithmetic.

    h is [..., B, u], and U stacks (U_u, U_r, U_h) on a new first axis.
    xw stacks the input projections (x W_u, x W_r, x W_h) the same way, and
    b the biases (b_u, b_r, b_h), each [..., 1, u].  keep and drop = 1 - keep
    are [..., B, 1] mask columns, or None.  Leading axes stack independent
    cells, as `gru_layer` stacks its two directions: every product is
    still one 2-d matmul per cell and the rest is elementwise, so stacking
    changes no bit.  Returns (h', ur, c), where ur stacks u and r.
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
    h_new = (1.0 - u) * h
    h_new += u * c
    if keep is not None:
        # masked carry: a row whose keep is 0 passes its state through
        h_new *= keep
        h_new += h * drop
    return h_new, ur, c


def _gate_stacks(cells: Sequence[GRUCellWeights]) -> tuple[Array, Array, Array]:
    """W, U and b of the cells as [gate u/r/h, cell, rows, u] arrays, b with one row."""
    arrays = [[getattr(w, f"{kind}_{gate}").data for gate in "urh" for w in cells]
              for kind in "WUb"]
    return tuple(np.concatenate(a).reshape(3, len(cells), -1, a[0].shape[-1]) for a in arrays)


def _gru_step_backward(cells: Sequence[GRUCellWeights], g: Array, x: Array, h: Array,
                       ur: Array, c: Array, keep: Array | None, drop: Array | None, U: Array,
                       h_parts: bool) -> tuple[Array, list[Array], list[tuple]]:
    """Backward of `_gru_step` for the gradient g of h', the one definition
    of its gradient arithmetic.

    x is the step's [cell, B, d_in] input, and the rest are as `_gru_step`
    took and returned them.  Returns (dg, parts, pairs): dg stacks the three
    pre-activations' gradients (u, r, candidate) as [gate u/r/h, *h.shape];
    parts are, if h_parts, the parts of h's gradient in the order the
    op-by-op composition's tape added them: carry (masked steps only),
    (1-u)*h, r*h, U_r, U_u; and pairs[d] holds cell d's nine (weight, part)
    pairs in the order one step of the composition's tape visited them.
    """
    u, r = ur
    omu = 1.0 - u
    dg = np.empty((3, *h.shape))
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
    # the weights' gradients, stacked as dg is
    gW, gU, gU_h, gb = (x.transpose(0, 2, 1) @ dg, h.transpose(0, 2, 1) @ dg[:2],
                        (r * h).transpose(0, 2, 1) @ dg[2], dg.sum(axis=2))
    pairs = [((cell.W_h, gW[2, d]), (cell.U_h, gU_h[d]), (cell.b_h, gb[2, d]),
              (cell.W_r, gW[1, d]), (cell.U_r, gU[1, d]), (cell.b_r, gb[1, d]),
              (cell.W_u, gW[0, d]), (cell.U_u, gU[0, d]), (cell.b_u, gb[0, d]))
             for d, cell in enumerate(cells)]
    return dg, parts, pairs


def _fold(parts: list[Array]) -> Array:
    """Left-to-right sum of gradient parts, as the tape adds them."""
    if len(parts) == 1:
        return parts[0]
    total = parts[0] + parts[1]
    for part in parts[2:]:
        total += part
    return total


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
    projections computed before the loop.  Each backward step runs
    `_gru_step_backward`, as the decode node's do, which takes the weight
    gradients in one matmul per kind; the layer writes its input gradients
    in place, one matmul per cell.

    Per step the node keeps only the gates u, r and the candidate c.  Its
    backward rebuilds, once per call, what else it reads: the state before
    each step from the node's own output, x by step from x, and the gate
    stacks from the cells' weights.  Each rebuilt array has the layout the
    forward's had, so every matmul rounds as it did there.

    Outputs and gradients are bit-identical to the op-by-op composition
    (matmul, add, bias_add, sigmoid, tanh, mul, scale_rows, concat):
    each stacked product is the same 2-d matmul, and the backward hands the
    tape each input's gradient parts in that composition's order: three
    parts of x per cell (W_h, W_r, W_u) and one of each weight per step;
    the backward cell first, steps from the last to the first.
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

    inputs = (x, *(p for cell in cells for p in vars(cell).values()))
    recording = _recording(inputs)
    out = np.empty((b, t, 2, units))
    saved = []  # (ur, c) of each step, kept only for a backward pass
    h = h_first
    for i in range(t):
        h, ur, c = _gru_step(xw[i], h, U, bias, keep[i], drop[i])
        if recording:
            saved.append((ur, c))
        out[:, i, 0] = h[0]
        out[:, t - 1 - i, 1] = h[1]
    out = out.reshape(b, t * 2 * units)

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
        px = np.empty((3, 2, b, t, d_in))  # [gate h/r/u, direction, B, T, d_in]
        steps, h_parts = [], []  # each step's weight pairs, from the last step to the first
        for i in range(t - 1, -1, -1):
            # step i's output gradient, then step i+1's parts for its state,
            # in the order the tape added them
            gh = _fold([np.stack([g4[:, i, 0], g4[:, t - 1 - i, 1]]), *h_parts])
            ur, c = saved[i]
            h = before[i - 1] if i else h_first
            dg, h_parts, pairs = _gru_step_backward(cells, gh, xd[i], h, ur, c, keep[i], drop[i],
                                                    U, i > 0)
            steps.append(pairs)
            np.matmul(dg[:, 0], W_T[:, 0], out=px[::-1, 0, :, i])
            np.matmul(dg[:, 1], W_T[:, 1], out=px[::-1, 1, :, t - 1 - i])
        del g4, xd, out4, before  # not held while the tape adds the pairs
        yield from ((x, p) for d in (1, 0) for p in px[:, d].reshape(3, b, t * d_in))
        for d in (1, 0):
            for pairs in steps:
                yield from pairs[d]

    return _record_pairs(inputs, Tensor(out), backward)


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
