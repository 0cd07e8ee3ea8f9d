import numpy as np
import pytest

from sg3d import autodiff as ad
from sg3d.autodiff import Tensor
from sg3d.errors import DimensionError
from sg3d.encoders import (edge_descriptor, descriptor_matrix, encode_edges, encode_node_3d,
                           encode_nodes_oracle, init_edge_mlp, init_point_mlp,
                           init_visual_proj)
from sg3d.scene import InstanceAttributes, SceneInstance, compute_attributes, ordered_pairs

from gradcheck import check_params


def rand_attrs(rng):
    pts = rng.standard_normal((12, 3)) * rng.uniform(0.2, 1.5) + rng.uniform(-3, 3, size=3)
    return compute_attributes(SceneInstance(0, pts, 0))


def dyadic_attrs(rng, n=8):
    pts = rng.integers(-512, 512, size=(n, 3)).astype(np.float64) / 256.0
    return pts, compute_attributes(SceneInstance(0, pts, 0))


class TestNodeEncoder:
    def test_permutation_invariance_exact(self):
        rng = np.random.default_rng(0)
        params = init_point_mlp(rng, 8, 4)
        pts = rng.standard_normal((10, 3))
        a = encode_node_3d(pts, params).data
        b = encode_node_3d(pts[rng.permutation(10)], params).data
        assert np.array_equal(a, b)

    def test_maxpool_idempotent_on_repeats(self):
        rng = np.random.default_rng(1)
        params = init_point_mlp(rng, 8, 4)
        p = rng.standard_normal((1, 3))
        once = encode_node_3d(p, params).data
        five = encode_node_3d(np.repeat(p, 5, axis=0), params).data
        assert np.array_equal(once, five)

    def test_gradient_vs_fd(self):
        rng = np.random.default_rng(2)
        params = init_point_mlp(rng, 6, 4)
        pts = rng.standard_normal((6, 3))
        weights = rng.standard_normal((1, 4))

        def loss():
            return ad.tsum(ad.mul(encode_node_3d(pts, params), Tensor(weights)))

        check_params(loss, params, rng, rtol=1e-4)


class TestEdgeDescriptor:
    def test_identical_instances_zero(self):
        rng = np.random.default_rng(3)
        a = rand_attrs(rng)
        x = edge_descriptor(a, a)
        assert np.array_equal(x, np.zeros(11))

    def test_antisymmetry_exact(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            a, b = rand_attrs(rng), rand_attrs(rng)
            assert np.array_equal(edge_descriptor(a, b), -edge_descriptor(b, a))

    def test_log_ratio_hand_case(self):
        base = InstanceAttributes(mean=np.zeros(3), std=np.zeros(3),
                                  bbox_size=np.ones(3), volume=1.0, max_side=1.0)
        double = InstanceAttributes(mean=np.zeros(3), std=np.zeros(3),
                                    bbox_size=np.ones(3), volume=2.0, max_side=2.0)
        x = edge_descriptor(double, base)
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
            a2 = compute_attributes(SceneInstance(0, pts_a + t, 0))
            b2 = compute_attributes(SceneInstance(0, pts_b + t, 0))
            assert np.array_equal(edge_descriptor(a, b), edge_descriptor(a2, b2))


class TestEdgeEncoder:
    def test_zero_descriptor_gives_mlp_of_zero(self):
        rng = np.random.default_rng(6)
        params = init_edge_mlp(rng, 8, 4)
        a = rand_attrs(rng)
        out = encode_edges(descriptor_matrix([a, a], [(0, 1)]), params).data
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
        attrs = [rand_attrs(rng) for _ in range(3)]
        pairs = ordered_pairs(3)
        mat = descriptor_matrix(attrs, pairs)
        for row, (i, j) in zip(mat, pairs):
            assert np.array_equal(row, edge_descriptor(attrs[i], attrs[j]))


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
