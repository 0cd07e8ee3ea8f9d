"""Dense float64 tensors with taped reverse-mode automatic differentiation.

The engine holds only the ops the model, its losses and prediction run:
2-D matmul, elementwise arithmetic with numpy-style broadcasting, the
activations and reductions the model needs, softmax / log-softmax with
exact Jacobian-vector products, concatenation and row gathering. Fused ops
carry the model's hot paths:

- `linear(x, w, b)`: x @ w + b in one op;
- `attention(q, k, v, heads, layout, mask)`: every head of a multi-head
  scaled dot-product attention in one op, within each segment (scene) of
  a `Segments` row layout, with a hand-written softmax backward. The
  segments run as one padded block, or, when `Segments.groups` finds it
  cheaper, as one block per group of similar lengths, so a small scene
  is not padded to the largest of its batch. A layout whose segments are
  equally long (one scene, or a group of scenes of one size) is padded
  and unpadded by reshapes, without copies; zero rows (the edges of a
  one-instance scene) give zero rows;
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
    """Sum gradient over the leading axes broadcasting put in front of an
    operand: a (D,) bias over (N, D) rows, a (1,) bias over a (P, 1) column,
    a scalar. The model broadcasts no size-1 axis, so none is summed."""
    if g.shape == shape:
        return g
    g = g.sum(axis=tuple(range(g.ndim - len(shape))))
    if g.shape != shape:
        raise DimensionError(f"a {shape} operand was broadcast along a size-1 axis to {g.shape}")
    return g


# ---------------------------------------------------------------------------
# packed batch layout

# added to the logits of padded keys: exp underflows to exactly 0 against
# any real logit, and the value stays finite, so every op output is checked
PAD_BIAS = -1e300

# fwd+bwd cost of one more attention block, in padded logit entries
# (count * longest**2, all heads at once), for `Segments.groups`. On a
# 2-core x86-64 VM an entry took about 50 ns and a block about 85 us; on
# random batches of 8 scenes' edges, K 4-9 and K 4-20 ran fastest from 300
# to 1500, and K 2-4 ran slower below 1000. At 1000 no batch of 8 scenes
# of K 2-4 splits, nodes or edges
_BLOCK_ENTRIES = 1000


class Segments:
    """Row layout of a packed batch: segment b owns the next `lengths[b]` rows.

    Every run of rows is one: each scene's nodes or edges, each instance's
    points, each node's outgoing edges. The index arrays scatter the rows
    into zero-padded (count, longest) blocks and gather them back. A layout
    is `full` when every segment is as long as the longest, as one segment
    always is: then the blocks are the rows reshaped, and no index array is
    built. Where the lengths differ widely, `groups` splits the segments
    into runs of similar lengths that `attention` pads each on its own.
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

    @cached_property
    def groups(self) -> list[tuple[np.ndarray, np.ndarray, "Segments"]] | None:
        """Groups of segments for `attention` to run as blocks of their own,
        or None when one padded block over the whole layout is cheapest, as
        it always is for a full layout.

        The non-empty segments, sorted by length, split into contiguous runs
        that minimise the padded entries, count * longest**2 per run, plus
        `_BLOCK_ENTRIES` per run: a dynamic program over the sorted lengths.
        An empty segment joins no group. Each group is (rows, pairs,
        sub_layout): the rows of its segments, the indices of their entries
        in `pairs` order, and the layout of their lengths, which is full for
        a run of equal lengths.
        """
        if self.full:
            return None
        order = np.argsort(self.lengths, kind="stable")
        order = order[self.lengths[order] > 0]
        sizes = self.lengths[order].tolist()
        # best[j]: cheapest split of the shortest j segments; its last run starts at first[j]
        best, first = [0] + [math.inf] * len(sizes), [0] * (len(sizes) + 1)
        for j, longest in enumerate(sizes, 1):
            for i in range(j):
                cost = best[i] + (j - i) * longest * longest + _BLOCK_ENTRIES
                if cost < best[j]:
                    best[j], first[j] = cost, i
        runs, j = [], len(sizes)
        while j:
            runs.append(order[first[j]:j])
            j = first[j]
        if len(runs) == 1:
            return None
        squares = self.lengths * self.lengths
        pair_starts = np.cumsum(squares) - squares
        groups = []
        for segs in reversed(runs):
            segs = np.sort(segs)
            sub = Segments(self.lengths[segs])
            seg, i, j = sub.pairs
            rows = np.repeat(self.starts[segs], sub.lengths) + sub.pos
            pairs = np.repeat(pair_starts[segs], squares[segs]) + i * sub.lengths[seg] + j
            groups.append((rows, pairs, sub))
        return groups

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


def linear(x, w, b) -> Tensor:
    """x @ w + b with b broadcast over rows, as one op."""
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    if x.data.ndim != 2 or w.data.ndim != 2:
        raise DimensionError(f"linear expects 2-D operands, got {x.data.shape} @ {w.data.shape}")
    if x.data.shape[1] != w.data.shape[0]:
        raise DimensionError(f"linear inner dimensions disagree: {x.data.shape} @ {w.data.shape}")
    out = x.data @ w.data
    out += b.data

    def backward(g):
        # the bias sum, then the two products: the order of
        # add(matmul(x, w), b), whose gradients these are bitwise. Constant
        # rows (points, descriptors) need no product
        _accumulate(b, _unbroadcast(g, b.data.shape))
        if x.requires_grad:
            _accumulate(x, g @ w.data.T)
        _accumulate(w, x.data.T @ g)

    return _from_op(out, (x, w, b), backward)


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


def tsum(a, axis=None) -> Tensor:
    a = as_tensor(a)

    def backward(g):
        gg = g if axis is None else np.expand_dims(g, axis)
        _accumulate(a, np.broadcast_to(gg, a.data.shape).copy())

    return _from_op(a.data.sum(axis=axis), (a,), backward)


def tmean(a, axis: int) -> Tensor:
    a = as_tensor(a)
    n = a.data.shape[axis]

    def backward(g):
        _accumulate(a, np.broadcast_to(np.expand_dims(g, axis) / n, a.data.shape).copy())

    return _from_op(a.data.mean(axis=axis), (a,), backward)


def segment_max(x, rows: Segments) -> Tensor:
    """Max over each segment's rows of a 2-D tensor, as (count, columns).

    Every segment needs a row. The gradient routes to the first argmax per
    segment and column.
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


def segment_mean(x, rows: Segments) -> Tensor:
    """Mean of each segment's rows, as (count, *x.shape[1:]); 0 for an empty
    segment.

    One `np.add.reduceat` over the non-empty segments sums each segment's
    rows on their own, so its mean and gradient are bitwise those of the
    segment alone, wherever it sits in the layout.
    """
    x = as_tensor(x)
    if x.data.ndim == 0:
        raise DimensionError("segment_mean needs rows, got a scalar")
    n = x.data.shape[0]
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


def softmax(a, axis: int) -> Tensor:
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


def log_softmax(a, axis: int) -> Tensor:
    a = as_tensor(a)
    x = a.data
    z = x - x.max(axis=axis, keepdims=True, initial=-np.inf)
    lse = np.log(np.exp(z).sum(axis=axis, keepdims=True))
    out = z - lse
    y = np.exp(out)

    def backward(g):
        _accumulate(a, g - y * g.sum(axis=axis, keepdims=True))

    return _from_op(out, (a,), backward)


def _attend(q: np.ndarray, k: np.ndarray, v: np.ndarray, heads: int, layout: Segments,
            mask: np.ndarray | None):
    """`attention` on arrays, as one padded (count, H, longest, dh) block over
    `layout`. The mask is flat, in `layout.pairs` order. Returns the output
    rows and a backward that maps their gradient to (gq, gk, gv, gmask), with
    gmask flat like the mask, or None without one."""
    count, longest, d = layout.count, layout.longest, q.shape[1]
    dh = d // heads
    scale = 1.0 / np.sqrt(dh)
    bias = layout.key_bias
    if mask is not None:
        blocks = layout.pad_pairs(mask)[:, None]
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
    qh, vh = np.ascontiguousarray(split(q)), np.ascontiguousarray(split(v))
    kt = np.ascontiguousarray(np.swapaxes(split(k), 2, 3))  # (count, H, dh, longest)
    logits = (qh @ kt) * scale
    if bias is not None:
        logits = logits + bias
    # the initial value lets a segment without rows through
    z = logits - logits.max(axis=-1, keepdims=True, initial=-np.inf)
    e = np.exp(z)
    w = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        gh = split(g)
        gw = gh @ np.swapaxes(vh, 2, 3)
        gv = np.swapaxes(w, 2, 3) @ gh
        gl = w * (gw - (gw * w).sum(axis=-1, keepdims=True))
        gmask = None if mask is None else layout.unpad_pairs(gl.sum(axis=1))
        gs = gl * scale
        return (rows(gs @ np.swapaxes(kt, 2, 3)), rows(np.swapaxes(np.swapaxes(qh, 2, 3) @ gs, 2, 3)),
                rows(gv), gmask)

    return rows(w @ vh), backward


def attention(q, k, v, heads: int, layout: Segments, mask=None) -> Tensor:
    """Multi-head scaled dot-product attention as one op, within each segment
    of a row layout.

    q, k and v are (N, D) rows of one shape that share `layout`. Each row
    attends only to the rows of its own segment. The D columns split into
    `heads` contiguous blocks of width dh, with logits q k^T / sqrt(dh) per
    block. The segments run as padded (count, H, longest, dh) blocks with
    PAD_BIAS added to the logits of padded keys: one block over the whole
    layout, or, when `layout.groups` finds it cheaper, one block per group of
    similar lengths, its rows gathered in and scattered back out in C order.
    A full layout (one segment, or equally long ones) is one block, reshaped,
    not copied. Zero rows give a (0, D) output. Either way the call records
    one op.

    The mask, when given, holds one value per ordered row pair of each
    segment, in `layout.pairs` order (any shape with that many entries, so
    one segment takes an (N, N) mask as is), and is added to every head's
    logits before the softmax. Returns the heads' outputs side by side,
    (N, D).

    The backward is the softmax JVP of `softmax`, applied to every head of a
    block at once (the FlashAttention backward without the tiling).
    """
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    if q.data.ndim != 2 or not q.data.shape == k.data.shape == v.data.shape:
        raise DimensionError(f"attention needs 2-D q, k and v of one shape, got q {q.data.shape}, "
                             f"k {k.data.shape}, v {v.data.shape}")
    n, d = q.data.shape
    if heads < 1 or d % heads != 0:
        raise DimensionError(f"heads ({heads}) must divide feature width ({d})")
    if n != layout.total:
        raise DimensionError(f"a layout of {layout.total} rows cannot hold {n} rows")
    mask = None if mask is None else as_tensor(mask)
    values = None if mask is None else mask.data.reshape(-1)
    groups = layout.groups
    if groups is None:
        out, backward_rows = _attend(q.data, k.data, v.data, heads, layout, values)
    else:
        out, blocks = np.empty((n, d)), []
        for rows, pairs, sub in groups:
            out[rows], block = _attend(q.data[rows], k.data[rows], v.data[rows], heads, sub,
                                       None if values is None else values[pairs])
            blocks.append((rows, pairs, block))

        def backward_rows(g):
            gq, gk, gv = np.empty((n, d)), np.empty((n, d)), np.empty((n, d))
            gmask = None if values is None else np.empty(values.size)
            for rows, pairs, block in blocks:
                gq[rows], gk[rows], gv[rows], gm = block(g[rows])
                if gmask is not None:
                    gmask[pairs] = gm
            return gq, gk, gv, gmask

    def backward(g):
        gq, gk, gv, gmask = backward_rows(g)
        if mask is not None:
            _accumulate(mask, gmask.reshape(mask.data.shape))
        _accumulate(q, gq)
        _accumulate(k, gk)
        _accumulate(v, gv)

    inputs = (q, k, v) if mask is None else (q, k, v, mask)
    return _from_op(out, inputs, backward)


# ---------------------------------------------------------------------------
# shape ops


def concat(parts, axis: int) -> Tensor:
    parts = [as_tensor(p) for p in parts]
    sizes = [p.data.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(lo, hi)
            _accumulate(p, g[tuple(sl)])

    return _from_op(np.concatenate([p.data for p in parts], axis=axis), tuple(parts), backward)


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
