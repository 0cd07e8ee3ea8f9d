import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sg3d import autodiff as ad
from sg3d.autodiff import Tensor
from sg3d.errors import DataError, DimensionError
from sg3d.encoders import (descriptor_matrix, encode_edges, encode_nodes_3d,
                           encode_nodes_oracle, init_edge_mlp, init_point_mlp,
                           init_visual_proj)
from sg3d.reasoning import prepare_scene
from sg3d.scene import instance_attributes, pair_index_arrays

from gradcheck import analytic_grads, check_params
from reference_ops import amax
from reference_scene import ordered_pairs
from test_reasoning import make_sample
from test_scene import attributes


def rand_attrs(rng):
    pts = rng.standard_normal((12, 3)) * rng.uniform(0.2, 1.5) + rng.uniform(-3, 3, size=3)
    return attributes(pts)


def one_descriptor(a, b):
    """The descriptor of the one pair of attribute rows (a, b)."""
    return descriptor_matrix(np.stack([a, b]), [0], [1])[0]


def dyadic_attrs(rng, n=8):
    pts = rng.integers(-512, 512, size=(n, 3)).astype(np.float64) / 256.0
    return pts, attributes(pts)


def encode_point_sets(point_sets, params, encoder=encode_nodes_3d):
    """`encoder` (`encode_nodes_3d` by default) of a list of (n, 3) point
    sets, one instance each: the points stacked, with their layout."""
    return encoder(np.concatenate(point_sets), ad.Segments([len(p) for p in point_sets]), params)


class TestNodeEncoder:
    def test_permutation_invariance_exact(self):
        rng = np.random.default_rng(0)
        params = init_point_mlp(rng, 8, 4)
        pts = rng.standard_normal((10, 3))
        a = encode_point_sets([pts], params).data
        b = encode_point_sets([pts[rng.permutation(10)]], params).data
        assert np.array_equal(a, b)

    def test_maxpool_idempotent_on_repeats(self):
        rng = np.random.default_rng(1)
        params = init_point_mlp(rng, 8, 4)
        p = rng.standard_normal((1, 3))
        once = encode_point_sets([p], params).data
        five = encode_point_sets([np.repeat(p, 5, axis=0)], params).data
        assert np.array_equal(once, five)

    def test_gradient_vs_fd(self):
        rng = np.random.default_rng(2)
        params = init_point_mlp(rng, 6, 4)
        pts = rng.standard_normal((6, 3))
        weights = rng.standard_normal((1, 4))

        def loss():
            return ad.tsum(ad.mul(encode_point_sets([pts], params), Tensor(weights)))

        check_params(loss, params, rng, rtol=1e-4)


def per_instance_encoder(points, instances, params):
    """Reference composite of `encode_nodes_3d`: the point MLP and an `amax`
    pool per instance.

    The row-wise output projection runs once on the stacked pooled rows:
    numpy sends a one-row product to gemv, whose summation order differs
    from gemm's, so projecting row by row would not be a bitwise reference.
    A one-point instance's first layer is such a product too, which is why
    the bitwise test gives every instance at least two points.
    """
    pooled = []
    for start, n in zip(instances.starts, instances.lengths):
        h = ad.relu(ad.linear(Tensor(points[start:start + n]), params["w1"], params["b1"]))
        h = ad.relu(ad.linear(h, params["w2"], params["b2"]))
        pooled.append(amax(h, axis=0, keepdims=True))
    return ad.linear(ad.concat(pooled, axis=0), params["w3"], params["b3"])


class TestPackedNodeEncoder:
    def random_scene(self, rng, min_points=1):
        k = int(rng.integers(1, 10))
        return [rng.standard_normal((int(rng.integers(min_points, 40)), 3)) for _ in range(k)]

    def test_forward_matches_per_instance_bitwise(self):
        rng = np.random.default_rng(20)
        for trial in range(30):
            params = init_point_mlp(rng, 64, 32)
            point_sets = self.random_scene(rng, min_points=2)
            assert np.array_equal(encode_point_sets(point_sets, params).data,
                                  encode_point_sets(point_sets, params, per_instance_encoder).data)

    def test_gradients_match_per_instance(self):
        rng = np.random.default_rng(21)
        for trial in range(30):
            params = init_point_mlp(rng, 64, 32)
            for p in params.values():
                p.data = rng.standard_normal(p.data.shape) * 0.3
            point_sets = self.random_scene(rng)
            weights = Tensor(rng.standard_normal((len(point_sets), 32)))
            packed = analytic_grads(
                lambda: ad.tsum(ad.mul(encode_point_sets(point_sets, params), weights)), params)
            ref = analytic_grads(
                lambda: ad.tsum(ad.mul(encode_point_sets(point_sets, params, per_instance_encoder),
                                       weights)), params)
            scale = max(float(np.abs(g).max()) for g in ref.values())
            for name in params:
                assert np.abs(packed[name] - ref[name]).max() <= 1e-12 * scale, name

    def test_gradient_vs_fd_several_instances(self):
        rng = np.random.default_rng(22)
        params = init_point_mlp(rng, 6, 4)
        point_sets = [rng.standard_normal((n, 3)) for n in (1, 5, 3)]
        weights = rng.standard_normal((3, 4))

        def loss():
            return ad.tsum(ad.mul(encode_point_sets(point_sets, params), Tensor(weights)))

        check_params(loss, params, rng, rtol=1e-4)

    def test_empty_point_set_rejected(self):
        # a scene is refused while it is prepared, and the pool has no
        # empty-segment case of its own either
        rng = np.random.default_rng(23)
        sample = make_sample(rng, k=3)
        sample.points = np.delete(sample.points, np.s_[8:16], axis=0)  # instance 1's rows
        sample.point_counts[1] = 0
        with pytest.raises(DataError):
            prepare_scene(sample)
        params = init_point_mlp(rng, 4, 4)
        with pytest.raises(DimensionError):
            encode_nodes_3d(np.zeros((2, 3)), ad.Segments([2, 0]), params)


class TestEdgeDescriptor:
    def test_identical_instances_zero(self):
        rng = np.random.default_rng(3)
        a = rand_attrs(rng)
        x = one_descriptor(a, a)
        assert np.array_equal(x, np.zeros(11))

    def test_antisymmetry_exact(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            a, b = rand_attrs(rng), rand_attrs(rng)
            assert np.array_equal(one_descriptor(a, b), -one_descriptor(b, a))

    def test_log_ratio_hand_case(self):
        # (mean, std, extent, log max side, log volume)
        base = np.concatenate([np.zeros(3), np.zeros(3), np.ones(3), np.log([1.0, 1.0])])
        double = np.concatenate([np.zeros(3), np.zeros(3), np.ones(3), np.log([2.0, 2.0])])
        x = one_descriptor(double, base)
        expected = np.zeros(11)
        expected[9] = np.log(2.0)
        expected[10] = np.log(2.0)
        assert np.allclose(x, expected, atol=1e-15)

    def test_translation_invariance_exact(self):
        # dyadic points, power-of-two counts and integer shifts keep all float
        # ops exact, so the descriptors must agree bitwise
        rng = np.random.default_rng(5)
        for _ in range(200):
            pts_a, a = dyadic_attrs(rng)
            pts_b, b = dyadic_attrs(rng, n=16)
            t = rng.integers(-8, 9, size=3).astype(np.float64)
            a2 = attributes(pts_a + t)
            b2 = attributes(pts_b + t)
            assert np.array_equal(one_descriptor(a, b), one_descriptor(a2, b2))


class TestEdgeEncoder:
    def test_zero_descriptor_gives_mlp_of_zero(self):
        rng = np.random.default_rng(6)
        params = init_edge_mlp(rng, 8, 4)
        a = rand_attrs(rng)
        out = encode_edges(descriptor_matrix(np.stack([a, a]), [0], [1]), params).data
        zero_out = encode_edges(np.zeros((1, 11)), params).data
        assert np.array_equal(out, zero_out)

    def test_gradient_vs_fd(self):
        rng = np.random.default_rng(7)
        params = init_edge_mlp(rng, 6, 4)
        x = rng.standard_normal((5, 11))
        weights = rng.standard_normal((5, 4))

        def loss():
            return ad.tsum(ad.mul(encode_edges(x, params), Tensor(weights)))

        check_params(loss, params, rng, rtol=1e-4)

    def test_descriptor_matrix_order(self):
        rng = np.random.default_rng(8)
        attrs = np.stack([rand_attrs(rng) for _ in range(3)])
        pairs = ordered_pairs(3)
        mat = descriptor_matrix(attrs, *pair_index_arrays(3))
        for row, (i, j) in zip(mat, pairs):
            assert np.array_equal(row, one_descriptor(attrs[i], attrs[j]))


class TestOracleEncoder:
    def test_zero_row_zero_bias(self):
        rng = np.random.default_rng(9)
        params = init_visual_proj(rng, 6, 4)
        out = encode_nodes_oracle(np.zeros(6)[None], params).data
        assert np.array_equal(out, np.zeros((1, 4)))

    def test_identity_projection(self):
        params = {"w": Tensor(np.eye(4), requires_grad=True),
                  "b": Tensor(np.zeros(4), requires_grad=True)}
        row = np.array([1.0, -2.0, 3.0, 0.5])
        assert np.array_equal(encode_nodes_oracle(row[None], params).data[0], row)

    def test_width_mismatch(self):
        rng = np.random.default_rng(10)
        params = init_visual_proj(rng, 6, 4)
        with pytest.raises(DimensionError):
            encode_nodes_oracle(np.zeros((2, 5)), params)

    def test_gradient_vs_fd(self):
        rng = np.random.default_rng(11)
        params = init_visual_proj(rng, 5, 3)
        rows = rng.standard_normal((4, 5))
        weights = rng.standard_normal((4, 3))

        def loss():
            return ad.tsum(ad.mul(encode_nodes_oracle(rows, params), Tensor(weights)))

        check_params(loss, params, rng, rtol=1e-4)


COORD = st.floats(-1e3, 1e3, allow_nan=False)


@st.composite
def attribute_tables(draw):
    k = draw(st.integers(2, 7))
    point_sets = []
    for _ in range(k):
        n = draw(st.integers(1, 6))
        point_sets.append(np.array(draw(st.lists(COORD, min_size=3 * n, max_size=3 * n))).reshape(n, 3))
    return instance_attributes(np.concatenate(point_sets), np.array([len(p) for p in point_sets]))


@settings(max_examples=60, deadline=None)
@given(attribute_tables())
def test_descriptor_matrix_antisymmetric_and_rowwise(attrs):
    pairs = ordered_pairs(len(attrs))
    mat = descriptor_matrix(attrs, *pair_index_arrays(len(attrs)))
    for e, (i, j) in enumerate(pairs):
        assert np.array_equal(mat[e], one_descriptor(attrs[i], attrs[j]))
        assert np.array_equal(mat[e], -mat[pairs.index((j, i))])
