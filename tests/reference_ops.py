"""Taped ops that only the tests use, to spell out per-head and per-instance
references for the fused ops of `sg3d.autodiff`.

`per_head_core` (test_reasoning) slices heads with `narrow` and
`transpose`; the per-segment attention and `segment_max` references
(test_autodiff) slice rows with `narrow` and `reshape` and pool with
`amax`; `per_instance_encoder` (test_encoders) pools with `amax`. Each op
records on the active tape like a package op, and test_autodiff and
acceptance criterion 1 gradcheck all four.
"""

from __future__ import annotations

import numpy as np

from sg3d.autodiff import Tensor, _accumulate, _from_op, as_tensor
from sg3d.errors import DimensionError


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
