import numpy as np
import pytest

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


def test_tape_reuse_rejected():
    with Tape():
        with pytest.raises(ContractError):
            Tape().__enter__()
    assert ad.active_tape() is None


# ---------------------------------------------------------------------------
# fused ops

# (query rows N, key rows M, heads, masked); D = 8 throughout
ATTENTION_CASES = [
    (3, 3, 1, False), (3, 3, 2, True), (4, 4, 4, False), (4, 4, 4, True),   # self
    (2, 5, 2, False), (5, 2, 4, True), (3, 7, 1, True), (4, 1, 2, False),   # cross
    (1, 4, 2, True), (1, 1, 1, False), (1, 1, 2, True), (1, 1, 4, False),   # N = 1, K = 1
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


@pytest.mark.parametrize("masked", [False, True])
def test_attention_batch_axis_gradients(masked):
    rng = np.random.default_rng(750 + masked)
    q, k, v = param(rng, 2, 3, 8), param(rng, 2, 4, 8), param(rng, 2, 4, 8)
    params = {"q": q, "k": k, "v": v}
    if masked:
        params["mask"] = param(rng, 2, 1, 3, 4)  # per batch entry, shared by the heads
    weights = rng.standard_normal((2, 3, 8))

    def loss():
        out = ad.attention(q, k, v, 2, mask=params.get("mask"))
        return ad.tsum(ad.mul(out, Tensor(weights)))

    check_params(loss, params, rng, rtol=RTOL)


def test_attention_batch_axis_equals_per_entry():
    rng = np.random.default_rng(760)
    q, k, v = (rng.standard_normal((3, n, 8)) for n in (4, 5, 5))
    mask = rng.standard_normal((3, 1, 4, 5))
    batched = ad.attention(Tensor(q), Tensor(k), Tensor(v), 4, mask=Tensor(mask)).data
    for b in range(3):
        one = ad.attention(Tensor(q[b]), Tensor(k[b]), Tensor(v[b]), 4, mask=Tensor(mask[b, 0]))
        assert np.array_equal(batched[b], one.data)


def test_attention_hand_case_per_head():
    rng = np.random.default_rng(761)
    q, k, v = rng.standard_normal((3, 6)), rng.standard_normal((5, 6)), rng.standard_normal((5, 6))
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


@pytest.mark.parametrize("lengths", [(1,), (3,), (1, 1, 1), (2, 1, 4), (5, 1), (1, 6, 2, 1)])
def test_segment_max_gradients(lengths):
    rng = np.random.default_rng(800 + sum(lengths) + len(lengths))
    x = param(rng, sum(lengths), 4)
    starts = np.cumsum((0,) + lengths[:-1])
    weights = rng.standard_normal((len(lengths), 4))

    def loss():
        return ad.tsum(ad.mul(ad.segment_max(x, starts), Tensor(weights)))

    check_params(loss, {"x": x}, rng, rtol=RTOL)


@pytest.mark.parametrize("trial", range(10))
def test_segment_max_matches_amax_with_ties(trial):
    # small integers make ties common; the gradient must go to the first
    # argmax of each segment and column, exactly as amax routes it
    rng = np.random.default_rng(820 + trial)
    lengths = rng.integers(1, 6, size=int(rng.integers(1, 6)))
    x = Tensor(rng.integers(0, 3, size=(int(lengths.sum()), 5)).astype(np.float64),
               requires_grad=True)
    starts = np.cumsum(np.concatenate([[0], lengths[:-1]]))
    weights = Tensor(rng.standard_normal((len(lengths), 5)))

    def grad_of(fn):
        x.zero_grad()
        with Tape() as tape:
            out = fn()
            tape.backward(ad.tsum(ad.mul(out, weights)))
        return out.data, x.grad.copy()

    def per_segment():
        return ad.concat([ad.amax(ad.narrow(x, 0, int(s), int(n)), axis=0, keepdims=True)
                          for s, n in zip(starts, lengths)], axis=0)

    fused, g_fused = grad_of(lambda: ad.segment_max(x, starts))
    ref, g_ref = grad_of(per_segment)
    assert np.array_equal(fused, ref)
    assert np.array_equal(g_fused, g_ref)


def test_segment_max_rejects_bad_starts():
    x = Tensor(np.zeros((4, 2)))
    for starts in ([1, 2], [0, 2, 2], [0, 3, 1], [0, 4], []):
        with pytest.raises(DimensionError):
            ad.segment_max(x, starts)
