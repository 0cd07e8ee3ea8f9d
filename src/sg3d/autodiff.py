"""Dense float64 tensors with taped reverse-mode automatic differentiation.

The engine is deliberately small: 2-D matmul, elementwise arithmetic with
numpy-style broadcasting, the activations and reductions the model needs,
softmax / log-softmax with exact Jacobian-vector products, concatenation,
row gathering and layer norm. Ops record a backward closure on the active
tape; replaying the tape in reverse accumulates exact adjoints.

Values are float64 throughout so that finite-difference gradient checks
are meaningful. Every op output is checked for NaN/Inf and raises
NumericError at the op boundary.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ContractError, DimensionError, NumericError

_TAPE: "Tape | None" = None


class Tape:
    """Ordered record of backward closures for one forward computation.

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
        for record in reversed(self.records):
            record()
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

    # operator sugar
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = g.copy() if isinstance(g, np.ndarray) else np.asarray(g, dtype=np.float64)
    else:
        t.grad = t.grad + g


def _check_finite(data: np.ndarray) -> None:
    # the sum is finite iff all entries are (overflow of huge finite sums
    # would also raise, which is the desired loud behavior)
    with np.errstate(over="ignore", invalid="ignore"):
        if not math.isfinite(float(data.sum())):
            raise NumericError("non-finite value produced by op")


def _from_op(data: np.ndarray, inputs: tuple, backward) -> Tensor:
    """Wrap an op result; record `backward(g)` on the active tape if needed."""
    _check_finite(data)
    out = object.__new__(Tensor)
    out.data = data if isinstance(data, np.ndarray) else np.asarray(data, dtype=np.float64)
    out.grad = None
    out.requires_grad = False
    tape = _TAPE
    if tape is not None and any(i.requires_grad for i in inputs):
        out.requires_grad = True

        def record():
            g = out.grad
            if g is not None:
                backward(g)

        tape.records.append(record)
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
        _accumulate(a, g @ b.data.T)
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


# ---------------------------------------------------------------------------
# softmax family


def softmax(a, axis: int = -1) -> Tensor:
    """Numerically stabilized softmax with the exact Jacobian-vector product."""
    a = as_tensor(a)
    x = a.data
    z = x - x.max(axis=axis, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        dot = (g * y).sum(axis=axis, keepdims=True)
        _accumulate(a, y * (g - dot))

    return _from_op(y, (a,), backward)


def log_softmax(a, axis: int = -1) -> Tensor:
    a = as_tensor(a)
    x = a.data
    z = x - x.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=axis, keepdims=True))
    out = z - lse
    y = np.exp(out)

    def backward(g):
        _accumulate(a, g - y * g.sum(axis=axis, keepdims=True))

    return _from_op(out, (a,), backward)


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
