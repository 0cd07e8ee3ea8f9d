"""Attention weights read off the outputs of the package's attention.

`autodiff.attention` returns only the heads' outputs, w @ v per head. When
the value rows are one-hot within each head's block of dh columns, an
output entry is one attention weight exactly: w @ e_j is w[:, j] bitwise,
since every other term adds a zero. A head block has dh columns, so a run
reads the weights of dh keys of every segment, and a segment longer than
dh takes several runs with the same queries and keys.
"""

from __future__ import annotations

import numpy as np

from sg3d import autodiff as ad
from sg3d.autodiff import Segments, Tensor


def key_blocks(layout: Segments, heads: int, d: int):
    """(first key, value rows) of every run: in each head's block of columns,
    the key at place first + t of its segment has value e_t, for t < dh, and
    every other key the value 0."""
    dh = d // heads
    for first in range(0, layout.longest, dh):
        values = np.zeros((layout.total, d))
        rows = np.flatnonzero((layout.pos >= first) & (layout.pos < first + dh))
        for h in range(heads):
            values[rows, h * dh + layout.pos[rows] - first] = 1.0
        yield first, values


def read_weights(runs, layout: Segments, heads: int, d: int) -> list[np.ndarray]:
    """The (n, n) weights of every segment and head, segment-major, from the
    (first key, output rows) of the runs of `key_blocks`."""
    dh = d // heads
    w = np.zeros((layout.count, heads, layout.longest, layout.longest))
    for first, out in runs:
        width = min(dh, layout.longest - first)
        for h in range(heads):
            w[layout.seg, h, layout.pos, first:first + width] = out[:, h * dh:h * dh + width]
    return [w[b, h, :n, :n] for b, n in enumerate(layout.lengths) for h in range(heads)]


def attention_weights(q, k, heads: int, layout: Segments, mask=None,
                      op=ad.attention) -> list[np.ndarray]:
    """Weights of `op(q, k, v, heads, layout, mask)`, bitwise, per segment and head."""
    d = q.data.shape[1]
    runs = [(first, op(q, k, Tensor(values), heads, layout, mask).data)
            for first, values in key_blocks(layout, heads, d)]
    return read_weights(runs, layout, heads, d)


def multi_head_weights(run, query: Tensor, params: dict, heads: int) -> list[np.ndarray]:
    """Per-head weights of `run(kv, params)`, a `multi_head_attention` of the
    `query` rows (one scene) over key/value rows `kv`.

    Key row r is e_r, so the keys are the rows of `wk` (plus `bk`); `wv`
    gives key r the value rows of `key_blocks`, and with wo = I and
    bv = bo = 0 the output minus the query rows holds the weights, to the
    rounding of the residual add. Needs as many columns as rows.
    """
    n, d = query.data.shape
    assert n <= d, "one-hot key rows need a column per row"
    layout = Segments([n])
    kv = Tensor(np.eye(n, d))
    probe = dict(params, bv=Tensor(np.zeros(d)), wo=Tensor(np.eye(d)), bo=Tensor(np.zeros(d)))
    runs = []
    for first, values in key_blocks(layout, heads, d):
        probe["wv"] = Tensor(np.vstack([values, np.zeros((d - n, d))]))
        runs.append((first, run(kv, probe).data - query.data))
    return read_weights(runs, layout, heads, d)
