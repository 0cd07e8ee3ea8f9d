"""Dense float64 tensors with taped reverse-mode automatic differentiation.

The engine is deliberately small: 2-D matmul, elementwise arithmetic with
numpy-style broadcasting, the activations and reductions the model needs,
softmax / log-softmax with exact Jacobian-vector products, concatenation,
row gathering and layer norm. Fused ops carry the model's hot paths:

- `attention(q, k, v, heads, mask, layout=...)`: every head of a
  multi-head scaled dot-product attention in one op, within each segment
  (scene) of a `Segments` row layout, with a hand-written softmax
  backward. One scene is a layout of one segment; a layout whose segments
  are equally long is padded and unpadded by reshapes, without copies;
  zero rows (the edges of a one-instance scene) give zero rows;
- `segment_max(x, rows)` and `segment_mean(x, rows)`: one `reduceat` over
  the segments of a `Segments` layout (points per instance, out-edges per
  node, rows per scene), so a segment's result and gradient do not depend
  on where it sits in the layout.

Ops record a backward closure on the active tape; replaying the tape in
reverse accumulates exact adjoints.

Values are float64 throughout so that finite-difference gradient checks
are meaningful. Every op output is checked for NaN/Inf and raises
NumericError at the op boundary.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .errors import ContractError, DimensionError, NumericError

_TAPE: "Tape | None" = None


class Tape:
    """Ordered (output, backward closure) records of one forward computation.

    Single-threaded by construction: at most one tape is active at a time.
    """

    def __init__(self):
        self.records: list = []

    def __enter__(self) -> "Tape":
        global _TAPE
        if _TAPE is not None:
            raise ContractError("a tape is already active")
        _TAPE = self
        return self

    def __exit__(self, exc_type, exc, tb):
        global _TAPE
        _TAPE = None
        return False

    def backward(self, loss: "Tensor") -> None:
        """Seed the adjoint of a scalar loss and replay the tape in reverse."""
        if loss.data.size != 1:
            raise ContractError(f"backward expects a scalar loss, got shape {loss.data.shape}")
        loss.grad = np.ones_like(loss.data)
        for out, backward in reversed(self.records):
            if out.grad is not None:
                backward(out.grad)
        self.records.clear()


def active_tape() -> "Tape | None":
    return _TAPE


class Tensor:
    """A dense float64 array, optionally participating in the active tape."""

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise NumericError("non-finite value in tensor construction")
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        # stored as is: no code writes a gradient in place, so two tensors
        # may share one array (`add` hands its output gradient to both inputs)
        t.grad = np.asarray(g, dtype=np.float64)
    else:
        t.grad = t.grad + g


def _check_finite(data: np.ndarray) -> None:
    # the sum is finite iff all entries are (overflow of huge finite sums
    # would also raise, which is the desired loud behavior)
    with np.errstate(over="ignore", invalid="ignore"):
        if not math.isfinite(float(data.sum())):
            raise NumericError("non-finite value produced by op")


def _from_op(data: np.ndarray, inputs: tuple, backward) -> Tensor:
    """Wrap an op result; record (out, backward) on the active tape if needed;
    replay calls `backward(out.grad)` once the output has a gradient."""
    _check_finite(data)
    out = object.__new__(Tensor)
    out.data = data if isinstance(data, np.ndarray) else np.asarray(data, dtype=np.float64)
    out.grad = None
    out.requires_grad = False
    tape = _TAPE
    if tape is not None and any(i.requires_grad for i in inputs):
        out.requires_grad = True
        tape.records.append((out, backward))
    return out


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum gradient over axes introduced or expanded by broadcasting."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# packed batch layout

# added to the logits of padded keys: exp underflows to exactly 0 against
# any real logit, and the value stays finite, so every op output is checked
PAD_BIAS = -1e300


class Segments:
    """Row layout of a packed batch: segment b owns the next `lengths[b]` rows.

    Every run of rows is one: each scene's nodes or edges, each instance's
    points, each node's outgoing edges. The index arrays scatter the rows
    into zero-padded (count, longest) blocks and gather them back. A layout
    is `full` when every segment is as long as the longest, as one segment
    always is: then the blocks are the rows reshaped, and no index array is
    built.
    """

    def __init__(self, lengths):
        sizes = [int(n) for n in lengths]
        self.lengths = np.array(sizes, dtype=np.intp)
        self.count = len(sizes)
        self.total = sum(sizes)
        self.longest = max(sizes, default=0)
        self.full = self.count * self.longest == self.total

    # the index arrays are built on first use: a one-scene layout, as
    # prediction makes for every scene, needs none of them

    @cached_property
    def starts(self) -> np.ndarray:
        """First row of each segment."""
        return np.cumsum(self.lengths) - self.lengths

    @cached_property
    def seg(self) -> np.ndarray:
        """Segment of each row."""
        return np.repeat(np.arange(self.count), self.lengths)

    @cached_property
    def pos(self) -> np.ndarray:
        """Place of each row within its segment."""
        return np.arange(self.total) - self.starts[self.seg]

    @cached_property
    def pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(segment, i, j) of every ordered row pair inside a segment, diagonal
        included: segment by segment, then row-major in (i, j)."""
        squares = self.lengths * self.lengths
        seg = np.repeat(np.arange(self.count), squares)
        local = np.arange(int(squares.sum())) - (np.cumsum(squares) - squares)[seg]
        i, j = np.divmod(local, self.lengths[seg])
        return seg, i, j

    @cached_property
    def key_bias(self) -> np.ndarray | None:
        """(count, 1, 1, longest) bias of 0 on real rows and PAD_BIAS on padding;
        None for a full layout."""
        if self.full:
            return None
        real = np.arange(self.longest) < self.lengths[:, None]
        return np.where(real, 0.0, PAD_BIAS)[:, None, None, :]

    def pad(self, x: np.ndarray) -> np.ndarray:
        """(total, D) rows -> (count, longest, D), zeros after each segment's rows."""
        if self.full:
            return x.reshape(self.count, self.longest, x.shape[-1])
        out = np.zeros((self.count, self.longest, x.shape[-1]))
        out[self.seg, self.pos] = x
        return out

    def unpad(self, x: np.ndarray) -> np.ndarray:
        """(count, longest, D) -> the (total, D) rows `pad` placed."""
        if self.full:
            return x.reshape(self.total, x.shape[-1])
        return x[self.seg, self.pos]

    def pad_pairs(self, values: np.ndarray) -> np.ndarray:
        """One value per in-segment row pair, in `pairs` order ->
        (count, longest, longest) blocks, zeros on padding pairs."""
        if self.full:
            return values.reshape(self.count, self.longest, self.longest)
        out = np.zeros((self.count, self.longest, self.longest))
        out[self.pairs] = values.reshape(-1)
        return out

    def unpad_pairs(self, x: np.ndarray) -> np.ndarray:
        """(count, longest, longest) -> the values `pad_pairs` placed, in `pairs` order."""
        if self.full:
            return x.reshape(-1)
        return x[self.pairs]


# ---------------------------------------------------------------------------
# elementwise arithmetic


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    def backward(g):
        _accumulate(a, _unbroadcast(g, a.data.shape))
        _accumulate(b, _unbroadcast(g, b.data.shape))

    return _from_op(a.data + b.data, (a, b), backward)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    def backward(g):
        _accumulate(a, _unbroadcast(g, a.data.shape))
        _accumulate(b, _unbroadcast(-g, b.data.shape))

    return _from_op(a.data - b.data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    def backward(g):
        _accumulate(a, _unbroadcast(g * b.data, a.data.shape))
        _accumulate(b, _unbroadcast(g * a.data, b.data.shape))

    return _from_op(a.data * b.data, (a, b), backward)


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    def backward(g):
        _accumulate(a, _unbroadcast(g / b.data, a.data.shape))
        _accumulate(b, _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))

    with np.errstate(invalid="ignore", divide="ignore"):
        out = a.data / b.data
    return _from_op(out, (a, b), backward)


def neg(a) -> Tensor:
    a = as_tensor(a)

    def backward(g):
        _accumulate(a, -g)

    return _from_op(-a.data, (a,), backward)


# ---------------------------------------------------------------------------
# matmul


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise DimensionError(f"matmul expects 2-D operands, got {a.data.shape} @ {b.data.shape}")
    if a.data.shape[1] != b.data.shape[0]:
        raise DimensionError(f"matmul inner dimensions disagree: {a.data.shape} @ {b.data.shape}")

    def backward(g):
        # a constant operand (points, descriptors) needs no product
        if a.requires_grad:
            _accumulate(a, g @ b.data.T)
        if b.requires_grad:
            _accumulate(b, a.data.T @ g)

    return _from_op(a.data @ b.data, (a, b), backward)


# ---------------------------------------------------------------------------
# activations and pointwise functions


def relu(a) -> Tensor:
    a = as_tensor(a)
    mask = a.data > 0

    def backward(g):
        _accumulate(a, g * mask)

    return _from_op(np.where(mask, a.data, 0.0), (a,), backward)


def _stable_sigmoid(x: np.ndarray, e: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)) given e = exp(-|x|), without overflow for large |x|."""
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    x = a.data
    s = _stable_sigmoid(x, np.exp(-np.abs(x)))

    def backward(g):
        _accumulate(a, g * s * (1.0 - s))

    return _from_op(s, (a,), backward)


def exp(a) -> Tensor:
    a = as_tensor(a)
    e = np.exp(a.data)

    def backward(g):
        _accumulate(a, g * e)

    return _from_op(e, (a,), backward)


def log(a) -> Tensor:
    a = as_tensor(a)

    def backward(g):
        _accumulate(a, g / a.data)

    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.log(a.data)
    return _from_op(out, (a,), backward)


def sqrt(a) -> Tensor:
    a = as_tensor(a)
    with np.errstate(invalid="ignore"):
        r = np.sqrt(a.data)

    def backward(g):
        _accumulate(a, g * 0.5 / r)

    return _from_op(r, (a,), backward)


def absolute(a) -> Tensor:
    a = as_tensor(a)

    def backward(g):
        _accumulate(a, g * np.sign(a.data))

    return _from_op(np.abs(a.data), (a,), backward)


def softplus(a) -> Tensor:
    """log(1 + exp(x)), computed stably."""
    a = as_tensor(a)
    x = a.data
    e = np.exp(-np.abs(x))
    out = np.maximum(x, 0.0) + np.log1p(e)
    s = _stable_sigmoid(x, e)

    def backward(g):
        _accumulate(a, g * s)

    return _from_op(out, (a,), backward)


# ---------------------------------------------------------------------------
# reductions


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)

    def backward(g):
        if axis is None:
            _accumulate(a, np.broadcast_to(g, a.data.shape).copy())
        else:
            gg = g if keepdims else np.expand_dims(g, axis)
            _accumulate(a, np.broadcast_to(gg, a.data.shape).copy())

    return _from_op(a.data.sum(axis=axis, keepdims=keepdims), (a,), backward)


def tmean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    n = a.data.size if axis is None else a.data.shape[axis]

    def backward(g):
        if axis is None:
            _accumulate(a, np.broadcast_to(g / n, a.data.shape).copy())
        else:
            gg = g if keepdims else np.expand_dims(g, axis)
            _accumulate(a, np.broadcast_to(gg / n, a.data.shape).copy())

    return _from_op(a.data.mean(axis=axis, keepdims=keepdims), (a,), backward)


def amax(a, axis: int, keepdims: bool = False) -> Tensor:
    """Max over one axis; gradient routes to the first argmax per slice."""
    a = as_tensor(a)
    idx = np.argmax(a.data, axis=axis)
    out = np.take_along_axis(a.data, np.expand_dims(idx, axis), axis=axis)
    if not keepdims:
        out = np.squeeze(out, axis=axis)

    def backward(g):
        gg = g if keepdims else np.expand_dims(g, axis)
        ga = np.zeros_like(a.data)
        np.put_along_axis(ga, np.expand_dims(idx, axis), gg, axis=axis)
        _accumulate(a, ga)

    return _from_op(out, (a,), backward)


def segment_max(x, rows: Segments) -> Tensor:
    """Max over each segment's rows of a 2-D tensor, as (count, columns).

    Every segment needs a row. The gradient routes to the first argmax per
    segment and column, like `amax`.
    """
    x = as_tensor(x)
    if x.data.ndim != 2:
        raise DimensionError("segment_max expects a 2-D tensor")
    if x.data.shape[0] != rows.total or not rows.lengths.all():
        raise DimensionError(f"segment_max of {x.data.shape[0]} rows needs a layout of as many "
                             f"rows and no empty segment, got lengths {rows.lengths}")
    out = np.maximum.reduceat(x.data, rows.starts, axis=0)

    def backward(g):
        n = rows.total
        hit = x.data == np.repeat(out, rows.lengths, axis=0)
        first = np.minimum.reduceat(np.where(hit, np.arange(n)[:, None], n), rows.starts, axis=0)
        gx = np.zeros_like(x.data)
        gx[first, np.arange(x.data.shape[1])] = g
        _accumulate(x, gx)

    return _from_op(out, (x,), backward)


def segment_mean(x, rows: Segments | None = None) -> Tensor:
    """Mean of each segment's rows, as (count, *x.shape[1:]); 0 for an empty
    segment. Without `rows`, all rows form one segment.

    One `np.add.reduceat` over the non-empty segments sums each segment's
    rows on their own, so its mean and gradient are bitwise those of the
    segment alone, wherever it sits in the layout.
    """
    x = as_tensor(x)
    if x.data.ndim == 0:
        raise DimensionError("segment_mean needs rows, got a scalar")
    n = x.data.shape[0]
    rows = Segments([n]) if rows is None else rows
    if n != rows.total:
        raise DimensionError(f"segment_mean of {n} rows over a {rows.total}-row layout")
    sizes = np.maximum(rows.lengths, 1).reshape((rows.count,) + (1,) * (x.data.ndim - 1))
    filled = rows.lengths > 0
    sums = np.zeros((rows.count,) + x.data.shape[1:])
    sums[filled] = np.add.reduceat(x.data, rows.starts[filled], axis=0)

    def backward(g):
        _accumulate(x, np.repeat(g / sizes, rows.lengths, axis=0))

    return _from_op(sums / sizes, (x,), backward)


# ---------------------------------------------------------------------------
# softmax family


def softmax(a, axis: int = -1) -> Tensor:
    """Numerically stabilized softmax with the exact Jacobian-vector product."""
    a = as_tensor(a)
    x = a.data
    # the initial value lets a zero-length axis through; a real row's max is unchanged
    z = x - x.max(axis=axis, keepdims=True, initial=-np.inf)
    e = np.exp(z)
    y = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        dot = (g * y).sum(axis=axis, keepdims=True)
        _accumulate(a, y * (g - dot))

    return _from_op(y, (a,), backward)


def log_softmax(a, axis: int = -1) -> Tensor:
    a = as_tensor(a)
    x = a.data
    z = x - x.max(axis=axis, keepdims=True, initial=-np.inf)
    lse = np.log(np.exp(z).sum(axis=axis, keepdims=True))
    out = z - lse
    y = np.exp(out)

    def backward(g):
        _accumulate(a, g - y * g.sum(axis=axis, keepdims=True))

    return _from_op(out, (a,), backward)


def attention(q, k, v, heads: int, mask=None, collect_weights: list | None = None,
              layout: Segments | None = None) -> Tensor:
    """Multi-head scaled dot-product attention as one op, within each segment
    of a row layout.

    q, k and v are (N, D) rows of one shape that share `layout`; without
    one, all N rows form a single segment. Each row attends only to the
    rows of its own segment. The D columns split into `heads` contiguous
    blocks of width dh, with logits q k^T / sqrt(dh) per block. Every call
    pads the segments to the longest one, runs one (count, H, longest, dh)
    computation with PAD_BIAS added to the logits of padded keys, and
    unpads; a full layout (one segment, or equally long ones) is reshaped,
    not copied. Zero rows give a (0, D) output.

    The mask, when given, holds one value per ordered row pair of each
    segment, in `layout.pairs` order (any shape with that many entries, so
    one segment takes an (N, N) mask as is), and is added to every head's
    logits before the softmax. Returns the heads' outputs side by side,
    (N, D). `collect_weights` gets one constant (n, n) Tensor per segment
    and head, segment-major.

    The backward is the softmax JVP of `softmax`, applied to every head at
    once (the FlashAttention backward without the tiling).
    """
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    if q.data.ndim != 2 or not q.data.shape == k.data.shape == v.data.shape:
        raise DimensionError(f"attention needs 2-D q, k and v of one shape, got q {q.data.shape}, "
                             f"k {k.data.shape}, v {v.data.shape}")
    n, d = q.data.shape
    if heads < 1 or d % heads != 0:
        raise DimensionError(f"heads ({heads}) must divide feature width ({d})")
    layout = Segments([n]) if layout is None else layout
    if n != layout.total:
        raise DimensionError(f"a layout of {layout.total} rows cannot hold {n} rows")
    count, longest, dh = layout.count, layout.longest, d // heads
    scale = 1.0 / np.sqrt(dh)
    mask = None if mask is None else as_tensor(mask)
    bias = layout.key_bias
    if mask is not None:
        blocks = layout.pad_pairs(mask.data)[:, None]
        bias = blocks if bias is None else blocks + bias

    def split(x):
        # (total, D) rows -> (count, H, longest, dh)
        return np.swapaxes(layout.pad(x).reshape(count, longest, heads, dh), 1, 2)

    def rows(x):
        # (count, H, longest, dh) -> (total, D) rows in C order: the key gradient
        # is a column-major view, which a later matmul would sum in another order
        return np.ascontiguousarray(layout.unpad(np.swapaxes(x, 1, 2).reshape(count, longest, d)))

    # contiguous head blocks: numpy's gemv path (a single query or key row)
    # sums in a stride-dependent order, and copies keep it that of a 2-D head
    qh, vh = np.ascontiguousarray(split(q.data)), np.ascontiguousarray(split(v.data))
    kt = np.ascontiguousarray(np.swapaxes(split(k.data), 2, 3))  # (count, H, dh, longest)
    logits = (qh @ kt) * scale
    if bias is not None:
        logits = logits + bias
    # the initial value lets a segment without rows through
    z = logits - logits.max(axis=-1, keepdims=True, initial=-np.inf)
    e = np.exp(z)
    w = e / e.sum(axis=-1, keepdims=True)
    if collect_weights is not None:
        collect_weights.extend(Tensor(w[b, h, :size, :size]) for b, size in enumerate(layout.lengths)
                               for h in range(heads))

    def backward(g):
        gh = split(g)
        gw = gh @ np.swapaxes(vh, 2, 3)
        gv = np.swapaxes(w, 2, 3) @ gh
        gl = w * (gw - (gw * w).sum(axis=-1, keepdims=True))
        if mask is not None:
            _accumulate(mask, layout.unpad_pairs(gl.sum(axis=1)).reshape(mask.data.shape))
        gs = gl * scale
        _accumulate(q, rows(gs @ np.swapaxes(kt, 2, 3)))
        _accumulate(k, rows(np.swapaxes(np.swapaxes(qh, 2, 3) @ gs, 2, 3)))
        _accumulate(v, rows(gv))

    inputs = (q, k, v) if mask is None else (q, k, v, mask)
    return _from_op(rows(w @ vh), inputs, backward)


# ---------------------------------------------------------------------------
# shape ops


def concat(parts, axis: int = 0) -> Tensor:
    parts = [as_tensor(p) for p in parts]
    sizes = [p.data.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(lo, hi)
            _accumulate(p, g[tuple(sl)])

    return _from_op(np.concatenate([p.data for p in parts], axis=axis), tuple(parts), backward)


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    old = a.data.shape

    def backward(g):
        _accumulate(a, g.reshape(old))

    return _from_op(a.data.reshape(shape), (a,), backward)


def transpose(a) -> Tensor:
    a = as_tensor(a)
    if a.data.ndim != 2:
        raise DimensionError("transpose expects a 2-D tensor")

    def backward(g):
        _accumulate(a, g.T)

    return _from_op(a.data.T.copy(), (a,), backward)


def narrow(a, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice along one axis."""
    a = as_tensor(a)
    sl = [slice(None)] * a.data.ndim
    sl[axis] = slice(start, start + length)
    sl = tuple(sl)

    def backward(g):
        ga = np.zeros_like(a.data)
        ga[sl] = g
        _accumulate(a, ga)

    return _from_op(a.data[sl].copy(), (a,), backward)


def gather_rows(a, indices) -> Tensor:
    """out[r] = a[indices[r]]; duplicate indices accumulate on backward."""
    a = as_tensor(a)
    idx = np.asarray(indices, dtype=np.intp)

    def backward(g):
        ga = np.zeros_like(a.data)
        np.add.at(ga, idx, g)
        _accumulate(a, ga)

    return _from_op(a.data[idx], (a,), backward)


def take_per_row(a, cols) -> Tensor:
    """out[r] = a[r, cols[r]] for a 2-D tensor."""
    a = as_tensor(a)
    if a.data.ndim != 2:
        raise DimensionError("take_per_row expects a 2-D tensor")
    cols = np.asarray(cols, dtype=np.intp)
    rows = np.arange(a.data.shape[0])

    def backward(g):
        ga = np.zeros_like(a.data)
        np.add.at(ga, (rows, cols), g)
        _accumulate(a, ga)

    return _from_op(a.data[rows, cols], (a,), backward)


# ---------------------------------------------------------------------------
# composites


def linear(x, w, b) -> Tensor:
    """x @ w + b with b broadcast over rows."""
    return add(matmul(x, w), b)


def layer_norm(x, gamma, beta, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis, then scale and shift."""
    mu = tmean(x, axis=-1, keepdims=True)
    centered = sub(x, mu)
    var = tmean(mul(centered, centered), axis=-1, keepdims=True)
    normed = div(centered, sqrt(add(var, eps)))
    return add(mul(normed, gamma), beta)
