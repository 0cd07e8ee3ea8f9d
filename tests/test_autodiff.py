import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sg3d import autodiff as ad
from sg3d.autodiff import Tape, Tensor
from sg3d.errors import ContractError, DimensionError, NumericError

from gradcheck import check_params

RTOL = 1e-4


def param(rng, *shape, scale=1.0, offset=0.0):
    return Tensor(rng.standard_normal(shape) * scale + offset, requires_grad=True)


def test_matmul_identity():
    a = Tensor([[1.0, 0.0], [0.0, 1.0]])
    b = Tensor([[3.0, 4.0], [5.0, 6.0]])
    assert np.array_equal(ad.matmul(a, b).data, b.data)


def test_matmul_hand_case():
    # [[1,2]] @ [[3],[4]] = [[11]]
    out = ad.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
    assert out.data.shape == (1, 1)
    assert out.data[0, 0] == 11.0


def test_matmul_shape_mismatch():
    a = Tensor(np.zeros((2, 3)))
    b = Tensor(np.zeros((4, 5)))
    with pytest.raises(DimensionError):
        ad.matmul(a, b)


def test_matmul_backward_rule():
    rng = np.random.default_rng(0)
    a = param(rng, 3, 4)
    b = param(rng, 4, 2)
    with Tape() as tape:
        out = ad.matmul(a, b)
        loss = ad.tsum(out)
        tape.backward(loss)
    g = np.ones((3, 2))
    assert np.allclose(a.grad, g @ b.data.T)
    assert np.allclose(b.grad, a.data.T @ g)


def test_softmax_uniform():
    out = ad.softmax(Tensor([0.0, 0.0, 0.0]))
    assert np.allclose(out.data, [1 / 3, 1 / 3, 1 / 3])


def test_softmax_closed_form():
    out = ad.softmax(Tensor([np.log(1.0), np.log(3.0)]))
    assert np.allclose(out.data, [0.25, 0.75], atol=1e-12)


def test_softmax_no_overflow():
    out = ad.softmax(Tensor([1000.0, 0.0]))
    assert out.data[0] > 1.0 - 1e-12
    assert out.data[1] < 1e-12


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(1)
    for _ in range(50):
        x = Tensor(rng.standard_normal((4, 7)) * 10)
        y = ad.softmax(x, axis=-1).data
        assert np.all(y > 0) and np.all(y < 1)
        assert np.all(np.abs(y.sum(axis=-1) - 1.0) <= 1e-12)


def test_backward_sum_ones():
    rng = np.random.default_rng(2)
    x = param(rng, 3, 5)
    with Tape() as tape:
        tape.backward(ad.tsum(x))
    assert np.array_equal(x.grad, np.ones((3, 5)))


def test_backward_sum_of_squares():
    x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
    with Tape() as tape:
        loss = ad.tsum(ad.mul(x, x))
        tape.backward(loss)
    assert np.allclose(x.grad, [2.0, 4.0, 6.0])


def test_backward_rejects_nonscalar():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with Tape() as tape:
        y = ad.mul(x, x)
        with pytest.raises(ContractError):
            tape.backward(y)


def test_composite_softmax_matmul_fd():
    rng = np.random.default_rng(3)
    w = param(rng, 4, 3)
    x = Tensor(rng.standard_normal((2, 4)))

    def loss():
        return ad.tsum(ad.softmax(ad.matmul(x, w), axis=-1))

    check_params(loss, {"w": w}, rng, rtol=1e-5)


def test_nonfinite_input_rejected():
    with pytest.raises(NumericError):
        Tensor([1.0, np.nan])
    x = Tensor([1.0, -1.0], requires_grad=True)
    with pytest.raises(NumericError):
        ad.log(x)  # log of a negative → nan


def test_forward_deterministic():
    rng = np.random.default_rng(4)
    x = Tensor(rng.standard_normal((5, 5)))
    a = ad.softmax(ad.matmul(x, x), axis=1).data
    b = ad.softmax(ad.matmul(x, x), axis=1).data
    assert np.array_equal(a, b)


def _unary_cases(rng):
    return {
        "relu": (ad.relu, param(rng, 3, 4, offset=0.0)),  # kinks avoided below
        "sigmoid": (ad.sigmoid, param(rng, 3, 4)),
        "exp": (ad.exp, param(rng, 3, 4, scale=0.5)),
        "log": (ad.log, param(rng, 3, 4, scale=0.2, offset=2.0)),
        "sqrt": (ad.sqrt, param(rng, 3, 4, scale=0.2, offset=2.0)),
        "abs": (ad.absolute, param(rng, 3, 4, offset=0.0)),
        "softplus": (ad.softplus, param(rng, 3, 4)),
    }


@pytest.mark.parametrize("trial", range(20))
def test_unary_op_gradients(trial):
    rng = np.random.default_rng(100 + trial)
    for name, (op, p) in _unary_cases(rng).items():
        if name in ("relu", "abs"):
            # keep inputs off the kink so central differences are valid
            p.data = np.where(np.abs(p.data) < 0.05, p.data + 0.2, p.data)

        def loss(op=op, p=p):
            return ad.tsum(ad.mul(op(p), op(p)))

        check_params(loss, {name: p}, rng, rtol=RTOL)


@pytest.mark.parametrize("trial", range(20))
def test_binary_and_matmul_gradients(trial):
    rng = np.random.default_rng(200 + trial)
    a = param(rng, 3, 4)
    b = param(rng, 3, 4, offset=3.0)  # keep divisor away from zero
    w = param(rng, 4, 2)

    def loss():
        s = ad.add(a, b)
        d = ad.div(a, b)
        m = ad.mul(s, d)
        out = ad.matmul(ad.sub(m, b), w)
        return ad.tsum(out)

    check_params(loss, {"a": a, "b": b, "w": w}, rng, rtol=RTOL)


@pytest.mark.parametrize("trial", range(20))
def test_reduction_and_shape_gradients(trial):
    rng = np.random.default_rng(300 + trial)
    x = param(rng, 4, 6)
    idx = rng.integers(0, 4, size=7)
    cols = rng.integers(0, 6, size=4)

    def loss():
        parts = [
            ad.tsum(ad.tmean(x, axis=1)),
            ad.tsum(ad.amax(x, axis=0)),
            ad.tsum(ad.gather_rows(x, idx)),
            ad.tsum(ad.take_per_row(x, cols)),
            ad.tsum(ad.narrow(x, 1, 2, 3)),
            ad.tsum(ad.concat([x, x], axis=1)),
            ad.tsum(ad.transpose(x)),
            ad.tsum(ad.reshape(x, (2, 12))),
        ]
        total = parts[0]
        for p in parts[1:]:
            total = ad.add(total, p)
        return total

    check_params(loss, {"x": x}, rng, rtol=RTOL)


@pytest.mark.parametrize("trial", range(20))
def test_softmax_family_gradients(trial):
    rng = np.random.default_rng(400 + trial)
    x = param(rng, 3, 5)
    w = param(rng, 5, 5)

    def loss():
        h = ad.matmul(x, w)
        a = ad.mul(ad.softmax(h, axis=-1), Tensor(rng_weights))
        b = ad.mul(ad.log_softmax(h, axis=-1), Tensor(rng_weights))
        return ad.add(ad.tsum(a), ad.tsum(b))

    rng_weights = rng.standard_normal((3, 5))
    check_params(loss, {"x": x, "w": w}, rng, rtol=RTOL)


@pytest.mark.parametrize("trial", range(20))
def test_layer_norm_gradients(trial):
    rng = np.random.default_rng(500 + trial)
    x = param(rng, 3, 6)
    gamma = param(rng, 6, scale=0.3, offset=1.0)
    beta = param(rng, 6)

    def loss():
        return ad.tsum(ad.mul(ad.layer_norm(x, gamma, beta), Tensor(weights)))

    weights = rng.standard_normal((3, 6))
    check_params(loss, {"x": x, "gamma": gamma, "beta": beta}, rng, rtol=RTOL)


def test_broadcast_bias_gradient():
    rng = np.random.default_rng(6)
    x = param(rng, 5, 3)
    b = param(rng, 3)

    def loss():
        return ad.tsum(ad.mul(ad.add(x, b), ad.add(x, b)))

    check_params(loss, {"x": x, "b": b}, rng, rtol=RTOL)


def test_gather_rows_duplicate_indices():
    x = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
    with Tape() as tape:
        out = ad.gather_rows(x, [0, 0, 2])
        tape.backward(ad.tsum(out))
    assert np.array_equal(x.grad, [[2.0, 2.0], [0.0, 0.0], [1.0, 1.0]])


def test_shared_first_gradient_survives_a_later_contribution():
    # add's backward hands one array to both inputs as their first gradient;
    # a second contribution to one of them must not change the other's
    rng = np.random.default_rng(7)
    x, y = param(rng, 3, 4), param(rng, 3, 4)
    c, w = rng.standard_normal((3, 4)), rng.standard_normal((3, 4))
    with Tape() as tape:
        u = ad.mul(x, Tensor(c))  # recorded first, so its backward runs last
        s = ad.add(x, y)
        tape.backward(ad.tsum(ad.mul(ad.add(s, u), Tensor(w))))
    assert np.array_equal(y.grad, w)
    assert np.array_equal(x.grad, w + w * c)


def test_tape_reuse_rejected():
    with Tape():
        with pytest.raises(ContractError):
            Tape().__enter__()
    assert ad.active_tape() is None


# ---------------------------------------------------------------------------
# fused ops

# (query rows N, key rows M, heads, masked); D = 8 throughout, and attention
# takes M = N. q, k and v are distinct tensors in every case, as in the
# cross-attention the model runs.
ATTENTION_CASES = [
    (3, 3, 1, False), (3, 3, 2, True), (4, 4, 4, False), (4, 4, 4, True),
    (5, 5, 2, False), (2, 2, 4, True), (7, 7, 1, True), (4, 4, 2, True),
    (1, 1, 2, False), (1, 1, 1, False), (1, 1, 2, True), (1, 1, 4, False),   # N = 1, K = 1
]


@pytest.mark.parametrize("n,m,heads,masked", ATTENTION_CASES)
def test_attention_gradients(n, m, heads, masked):
    rng = np.random.default_rng(700 + 10 * n + m + heads)
    q, k, v = param(rng, n, 8), param(rng, m, 8), param(rng, m, 8)
    params = {"q": q, "k": k, "v": v}
    if masked:
        params["mask"] = param(rng, n, m)
    weights = rng.standard_normal((n, 8))

    def loss():
        out = ad.attention(q, k, v, heads, mask=params.get("mask"))
        return ad.tsum(ad.mul(out, Tensor(weights)))

    check_params(loss, params, rng, rtol=RTOL)


def test_attention_batch_axis_equals_per_entry():
    # a full layout (equally long segments) runs its segments on the batch
    # axis of one computation, bitwise as each segment runs alone
    rng = np.random.default_rng(760)
    layout = ad.Segments([4, 4, 4])
    assert layout.full and not ad.Segments([4, 3]).full
    q, k, v = (rng.standard_normal((12, 8)) for _ in range(3))
    mask = rng.standard_normal(48)
    batched_w, one_w = [], []
    batched = ad.attention(Tensor(q), Tensor(k), Tensor(v), 4, mask=Tensor(mask),
                           collect_weights=batched_w, layout=layout).data
    for b in range(3):
        rows = slice(4 * b, 4 * b + 4)
        one = ad.attention(Tensor(q[rows]), Tensor(k[rows]), Tensor(v[rows]), 4,
                           mask=Tensor(mask[16 * b:16 * b + 16]), collect_weights=one_w)
        assert np.array_equal(batched[rows], one.data)
    assert len(batched_w) == len(one_w) == 12
    for a, b in zip(batched_w, one_w):
        assert np.array_equal(a.data, b.data)
    # a full layout pads and unpads by reshaping, without a copy
    assert np.shares_memory(layout.pad(q), q)
    padded = layout.pad(q).copy()
    assert np.shares_memory(layout.unpad(padded), padded)
    assert np.array_equal(layout.unpad(padded), q)


@pytest.mark.parametrize("lengths", [(3,), (2, 2), (3, 1)])
def test_attention_gradients_are_row_major(lengths):
    # gradients are stored as handed over, and BLAS sums a column-major
    # operand in another order: the op must hand over C-ordered rows
    rng = np.random.default_rng(762)
    layout = ad.Segments(lengths)
    q, k, v = (param(rng, layout.total, 8) for _ in range(3))
    with Tape() as tape:
        tape.backward(ad.tsum(ad.attention(q, k, v, 2, layout=layout)))
    assert all(x.grad.flags.c_contiguous for x in (q, k, v))


def test_attention_hand_case_per_head():
    rng = np.random.default_rng(761)
    q, k, v = rng.standard_normal((5, 6)), rng.standard_normal((5, 6)), rng.standard_normal((5, 6))
    weights = []
    out = ad.attention(Tensor(q), Tensor(k), Tensor(v), 3, collect_weights=weights).data
    assert len(weights) == 3
    for h, cols in enumerate((slice(0, 2), slice(2, 4), slice(4, 6))):
        logits = q[:, cols] @ k[:, cols].T / np.sqrt(2.0)
        attn = np.exp(logits - logits.max(axis=1, keepdims=True))
        attn /= attn.sum(axis=1, keepdims=True)
        assert np.allclose(weights[h].data, attn, atol=1e-14)
        assert np.allclose(out[:, cols], attn @ v[:, cols], atol=1e-14)


def test_attention_shape_errors():
    x = Tensor(np.zeros((3, 8)))
    with pytest.raises(DimensionError):
        ad.attention(x, x, x, 3)
    with pytest.raises(DimensionError):
        ad.attention(x, Tensor(np.zeros((3, 6))), Tensor(np.zeros((3, 6))), 2)
    with pytest.raises(DimensionError):  # queries and keys are the same rows of one layout
        ad.attention(x, Tensor(np.zeros((4, 8))), Tensor(np.zeros((4, 8))), 2)


@pytest.mark.parametrize("lengths", [(1,), (3,), (1, 1, 1), (2, 1, 4), (5, 1), (1, 6, 2, 1)])
def test_segment_max_gradients(lengths):
    rng = np.random.default_rng(800 + sum(lengths) + len(lengths))
    x = param(rng, sum(lengths), 4)
    rows = ad.Segments(lengths)
    weights = rng.standard_normal((len(lengths), 4))

    def loss():
        return ad.tsum(ad.mul(ad.segment_max(x, rows), Tensor(weights)))

    check_params(loss, {"x": x}, rng, rtol=RTOL)


@pytest.mark.parametrize("trial", range(10))
def test_segment_max_matches_amax_with_ties(trial):
    # small integers make ties common; the gradient must go to the first
    # argmax of each segment and column, exactly as amax routes it
    rng = np.random.default_rng(820 + trial)
    lengths = rng.integers(1, 6, size=int(rng.integers(1, 6)))
    x = Tensor(rng.integers(0, 3, size=(int(lengths.sum()), 5)).astype(np.float64),
               requires_grad=True)
    rows = ad.Segments(lengths)
    weights = Tensor(rng.standard_normal((len(lengths), 5)))

    def grad_of(fn):
        x.zero_grad()
        with Tape() as tape:
            out = fn()
            tape.backward(ad.tsum(ad.mul(out, weights)))
        return out.data, x.grad.copy()

    def per_segment():
        return ad.concat([ad.amax(ad.narrow(x, 0, int(s), int(n)), axis=0, keepdims=True)
                          for s, n in zip(rows.starts, lengths)], axis=0)

    fused, g_fused = grad_of(lambda: ad.segment_max(x, rows))
    ref, g_ref = grad_of(per_segment)
    assert np.array_equal(fused, ref)
    assert np.array_equal(g_fused, g_ref)


def test_segment_max_rejects_bad_starts():
    # bad segment starts: an empty segment has no max, and the layout must
    # hold exactly the rows
    x = Tensor(np.zeros((4, 2)))
    for lengths in ([2, 0, 2], [0, 4], [4, 0], [], [1, 2], [3, 2]):
        with pytest.raises(DimensionError):
            ad.segment_max(x, ad.Segments(lengths))


# ---------------------------------------------------------------------------
# packed batch layouts: attention within each segment, one mean per segment

PACKED_LENGTHS = [(3,), (2, 4), (1, 3, 2), (4, 4), (0, 2, 3), (1, 1)]


def test_segments_index_arrays():
    rows = ad.Segments([2, 0, 3])
    assert (rows.count, rows.total, rows.longest) == (3, 5, 3)
    assert rows.seg.tolist() == [0, 0, 2, 2, 2] and rows.pos.tolist() == [0, 1, 0, 1, 2]
    seg, i, j = rows.pairs
    assert list(zip(seg.tolist(), i.tolist(), j.tolist())) == \
        [(0, a, b) for a in range(2) for b in range(2)] + [(2, a, b) for a in range(3) for b in range(3)]
    x = np.arange(10.0).reshape(5, 2)
    assert np.array_equal(rows.unpad(rows.pad(x)), x)
    assert np.array_equal(rows.key_bias[:, 0, 0], [[0, 0, ad.PAD_BIAS], [ad.PAD_BIAS] * 3, [0, 0, 0]])
    assert ad.Segments([2, 2]).key_bias is None


@pytest.mark.parametrize("lengths", PACKED_LENGTHS)
@pytest.mark.parametrize("masked", [False, True])
def test_packed_attention_gradients(lengths, masked):
    rng = np.random.default_rng(900 + 10 * len(lengths) + sum(lengths) + masked)
    layout = ad.Segments(lengths)
    q, k, v = (param(rng, layout.total, 8) for _ in range(3))
    params = {"q": q, "k": k, "v": v}
    if masked:
        params["mask"] = param(rng, int(sum(n * n for n in lengths)))
    weights = rng.standard_normal((layout.total, 8))

    def loss():
        out = ad.attention(q, k, v, 2, mask=params.get("mask"), layout=layout)
        return ad.tsum(ad.mul(out, Tensor(weights)))

    check_params(loss, params, rng, rtol=RTOL)


@pytest.mark.parametrize("lengths", PACKED_LENGTHS)
def test_packed_attention_matches_each_segment_alone(lengths):
    # padding changes the softmax summation order, so the two agree to
    # rounding, not bitwise
    rng = np.random.default_rng(950 + sum(lengths) + len(lengths))
    layout = ad.Segments(lengths)
    q, k, v = (param(rng, layout.total, 8) for _ in range(3))
    mask = param(rng, int(sum(n * n for n in lengths)))
    weights = Tensor(rng.standard_normal((layout.total, 8)))
    leaves = {"q": q, "k": k, "v": v, "mask": mask}

    def grads(fn):
        for t in leaves.values():
            t.zero_grad()
        collected = []
        with Tape() as tape:
            out = fn(collected)
            tape.backward(ad.tsum(ad.mul(out, weights)))
        return out.data, collected, {n: np.zeros_like(t.data) if t.grad is None else t.grad
                                     for n, t in leaves.items()}

    def packed(collected):
        return ad.attention(q, k, v, 4, mask=mask, collect_weights=collected, layout=layout)

    def alone(collected):
        outs, pair_start = [], 0
        for start, n in zip(layout.starts, lengths):
            if n == 0:  # the packed op lists an empty weight matrix per head
                collected.extend(Tensor(np.zeros((0, 0))) for _ in range(4))
                continue
            rows = [ad.narrow(x, 0, int(start), int(n)) for x in (q, k, v)]
            block = ad.reshape(ad.narrow(mask, 0, pair_start, n * n), (n, n))
            outs.append(ad.attention(*rows, 4, mask=block, collect_weights=collected))
            pair_start += n * n
        return ad.concat(outs, axis=0)

    out, w_packed, g_packed = grads(packed)
    ref, w_alone, g_alone = grads(alone)
    assert np.allclose(out, ref, rtol=0, atol=1e-13)
    assert len(w_packed) == len(w_alone)
    for a, b in zip(w_packed, w_alone):
        assert a.data.shape == b.data.shape and np.allclose(a.data, b.data, rtol=0, atol=1e-14)
    scale = max(float(np.abs(g).max()) for g in g_alone.values())
    for name in leaves:
        assert np.abs(g_packed[name] - g_alone[name]).max() <= 1e-12 * scale, name


def test_packed_attention_rejects_mismatched_rows():
    layout = ad.Segments([2, 3])
    with pytest.raises(DimensionError):
        ad.attention(Tensor(np.zeros((4, 8))), Tensor(np.zeros((4, 8))), Tensor(np.zeros((4, 8))),
                     2, layout=layout)


@pytest.mark.parametrize("shape", [(7,), (7, 3)])
def test_segment_mean_gradients_and_values(shape):
    rng = np.random.default_rng(980 + len(shape))
    rows = ad.Segments([2, 0, 4, 1])
    x = param(rng, *shape)
    out = ad.segment_mean(x, rows).data
    assert out.shape == (rows.count,) + shape[1:]
    for b, (start, n) in enumerate(zip(rows.starts, rows.lengths)):
        want = x.data[start:start + n].mean(axis=0) if n else np.zeros(shape[1:])
        assert np.all(np.abs(out[b] - want) <= 1e-15 * np.maximum(1.0, np.abs(want)))
    assert ad.segment_mean(x).data.shape == (1,) + shape[1:]
    weights = rng.standard_normal((rows.count,) + shape[1:])
    check_params(lambda: ad.tsum(ad.mul(ad.segment_mean(x, rows), Tensor(weights))),
                 {"x": x}, rng, rtol=RTOL)


def test_segment_mean_rejects_mismatched_rows():
    with pytest.raises(DimensionError):
        ad.segment_mean(Tensor(np.zeros(3)), ad.Segments([2, 2]))


def segment_run(op, x, rows, g):
    """(output, input gradient) of `op(x, rows)` under output gradient g."""
    x = Tensor(x, requires_grad=True)
    with Tape() as tape:
        out = op(x, rows)
        tape.backward(ad.tsum(ad.mul(out, Tensor(g))))
    return out.data, x.grad


@settings(max_examples=300, deadline=None)
@given(lengths=st.lists(st.integers(0, 9), min_size=1, max_size=10),
       trailing=st.sampled_from([(), (1,), (5,), (32,)]), seed=st.integers(0, 2 ** 16))
def test_segment_ops_are_batch_invariant(lengths, trailing, seed):
    # a segment's output and input gradient are bitwise those of the segment
    # run alone, wherever it sits in a packed layout; segment_max takes the
    # same rows without the empty segments, which it refuses
    rng = np.random.default_rng(seed)
    ops = [(ad.segment_mean, lengths)]
    if len(trailing) == 1 and any(lengths):
        ops.append((ad.segment_max, [n for n in lengths if n]))
    total = sum(lengths)
    x = rng.standard_normal((total,) + trailing) * 10.0 ** rng.uniform(-3, 3, (total,) + trailing)
    for op, sizes in ops:
        rows = ad.Segments(sizes)
        g = rng.standard_normal((rows.count,) + trailing)
        out, gx = segment_run(op, x, rows, g)
        for b, (start, n) in enumerate(zip(rows.starts, sizes)):
            alone, g_alone = segment_run(op, x[start:start + n], ad.Segments([n]), g[b:b + 1])
            assert np.array_equal(out[b:b + 1], alone)
            assert np.array_equal(gx[start:start + n], g_alone)
