import numpy as np
import pytest

from sg3d import autodiff as ad
from sg3d.autodiff import Segments, Tape, Tensor
from sg3d.errors import ConfigError, DataError
from sg3d.reasoning import (GraphState, ModelConfig, ModelState, distance_mask,
                            fat_gnn_layer, forward_scene, mask_input_matrix,
                            mhca_edge, mhca_node, mhsa, multi_head_attention,
                            prepare_scene, _attention_params, _gnn_params)
from sg3d.scene import SceneGraphSample, SceneInstance, compute_attributes, pair_index_arrays

from attention_probe import attention_weights, multi_head_weights
from gradcheck import analytic_grads, check_directional, check_params
from reference_ops import narrow, reshape, transpose
from reference_scene import ordered_pairs


def small_model(joint=True, k_seed=0, **kw):
    fields = dict(d=8, hidden=8, heads=2, layers=2, d_vis=6, d_emb=8,
                  n_obj=4, n_rel=3, joint=joint, seed=k_seed)
    fields.update(kw)
    return ModelState(ModelConfig(**fields))


def randomize_params(model, rng, scale=0.4):
    # move every parameter (biases included) off zero so no ReLU sits exactly
    # at its kink; finite differences are only valid at generic points
    for p in model.params.values():
        p.data = rng.standard_normal(p.data.shape) * scale


def make_sample(rng, k=3, n_rel=3, with_visual=True, d_vis=6):
    instances = []
    for i in range(k):
        pts = rng.standard_normal((8, 3)) * 0.4 + rng.uniform(-2, 2, size=3)
        instances.append(SceneInstance(instance_id=i, points=pts, gt_class=int(rng.integers(0, 4))))
    gt = np.zeros((k * (k - 1), n_rel), dtype=np.uint8)
    if k > 1:
        gt[0, rng.integers(0, n_rel)] = 1  # row 0 is the pair (0, 1)
    visual = rng.standard_normal((k, d_vis)) if with_visual else None
    return SceneGraphSample(scene_id="t", split="train", instances=instances,
                            gt_predicate_rows=gt, visual_features=visual)


def per_head_core(q, k, v, heads, layout, mask=None):
    """Reference composite of `autodiff.attention` on one scene: one narrow,
    transpose, matmul and softmax chain per head, then a concat. The layout
    must have a single segment; the mask holds the scene's N*N pair values
    in any shape. Zero rows give zero rows."""
    assert layout.count == 1
    n, d = q.data.shape
    dh = d // heads
    if mask is not None:
        mask = reshape(mask, (n, n))
    outs = []
    for h in range(heads):
        qh, kh, vh = (narrow(x, 1, h * dh, dh) for x in (q, k, v))
        logits = ad.mul(ad.matmul(qh, transpose(kh)), 1.0 / np.sqrt(dh))
        if mask is not None:
            logits = ad.add(logits, mask)
        outs.append(ad.matmul(ad.softmax(logits, axis=1), vh))
    return ad.concat(outs, axis=1)


def per_head_attention(query_stream, kv_stream, params, n_heads, layout, mask=None):
    """Reference composite of `multi_head_attention` on one scene, with
    `per_head_core` in place of the fused op."""
    q = ad.linear(query_stream, params["wq"], params["bq"])
    k = ad.linear(kv_stream, params["wk"], params["bk"])
    v = ad.linear(kv_stream, params["wv"], params["bv"])
    merged = per_head_core(q, k, v, n_heads, layout, mask)
    return ad.add(query_stream, ad.linear(merged, params["wo"], params["bo"]))


class TestFusedAttention:
    @pytest.mark.parametrize("heads", [1, 2, 4])
    def test_matches_per_head_reference(self, heads):
        rng = np.random.default_rng(30 + heads)
        for trial in range(20):
            params = _attention_params(rng, 8)
            # a query and a key/value stream of the same rows; odd trials reach
            # the edge counts of the largest scenes
            n = int(rng.integers(1, 10)) if trial % 2 else int(rng.integers(1, 73))
            layout = Segments([n])
            q = Tensor(rng.standard_normal((n, 8)), requires_grad=True)
            kv = Tensor(rng.standard_normal((n, 8)), requires_grad=True)
            mask = Tensor(rng.standard_normal((n, n)), requires_grad=True) if trial % 3 == 0 else None
            leaves = dict(params, q=q, kv=kv, **({"mask": mask} if mask is not None else {}))
            weights = Tensor(rng.standard_normal((n, 8)))
            fused = analytic_grads(lambda: ad.tsum(ad.mul(multi_head_attention(
                q, kv, params, heads, layout, mask), weights)), leaves)
            ref = analytic_grads(lambda: ad.tsum(ad.mul(per_head_attention(
                q, kv, params, heads, layout, mask), weights)), leaves)
            assert np.array_equal(multi_head_attention(q, kv, params, heads, layout, mask).data,
                                  per_head_attention(q, kv, params, heads, layout, mask).data)
            # the weights of the projected queries and keys, read off each op's output
            qp = ad.linear(q, params["wq"], params["bq"])
            kp = ad.linear(kv, params["wk"], params["bk"])
            fused_w = attention_weights(qp, kp, heads, layout, mask)
            ref_w = attention_weights(qp, kp, heads, layout, mask, op=per_head_core)
            assert len(fused_w) == len(ref_w) == heads
            for a, b in zip(fused_w, ref_w):
                assert np.array_equal(a, b)
            scale = max(float(np.abs(g).max()) for g in ref.values())
            for name in leaves:
                assert np.abs(fused[name] - ref[name]).max() <= 1e-12 * scale, name


class TestMHSA:
    def test_k1_single_weight(self):
        rng = np.random.default_rng(0)
        params = _attention_params(rng, 8)
        x = Tensor(rng.standard_normal((1, 8)))
        out = multi_head_attention(x, x, params, 2, Segments([1]))
        weights = multi_head_weights(
            lambda kv, p: multi_head_attention(x, kv, p, 2, Segments([1])), x, params, 2)
        assert len(weights) == 2
        for w in weights:
            assert np.allclose(w, [[1.0]])
        assert out.data.shape == (1, 8)

    def test_identical_features_uniform_attention(self):
        rng = np.random.default_rng(1)
        params = _attention_params(rng, 8)
        row = rng.standard_normal(8)
        x = Tensor(np.tile(row, (4, 1)))
        # the probe's key rows are the rows of wk: equal rows make the keys identical
        params["wk"] = Tensor(np.tile(params["wk"].data[0], (8, 1)))
        weights = multi_head_weights(
            lambda kv, p: multi_head_attention(x, kv, p, 2, Segments([4])), x, params, 2)
        assert len(weights) == 2
        for w in weights:
            assert np.allclose(w, 0.25, atol=1e-12)

    def test_hand_computation_single_head(self):
        # D=2, one head, identity projections, zero biases
        params = {
            "wq": Tensor(np.eye(2), requires_grad=True), "bq": Tensor(np.zeros(2), requires_grad=True),
            "wk": Tensor(np.eye(2), requires_grad=True), "bk": Tensor(np.zeros(2), requires_grad=True),
            "wv": Tensor(np.eye(2), requires_grad=True), "bv": Tensor(np.zeros(2), requires_grad=True),
            "wo": Tensor(np.eye(2), requires_grad=True), "bo": Tensor(np.zeros(2), requires_grad=True),
        }
        x = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        out = multi_head_attention(Tensor(x), Tensor(x), params, 1, Segments([3])).data
        scores = x @ x.T / np.sqrt(2.0)
        attn = np.exp(scores - scores.max(axis=1, keepdims=True))
        attn /= attn.sum(axis=1, keepdims=True)
        assert np.allclose(out, x + attn @ x, atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(2)
        params = _attention_params(rng, 8)
        x = Tensor(rng.standard_normal((5, 8)))
        weights = multi_head_weights(
            lambda kv, p: multi_head_attention(x, kv, p, 4, Segments([5])), x, params, 4)
        assert len(weights) == 4
        for w in weights:
            assert np.all(np.abs(w.sum(axis=1) - 1.0) <= 1e-12)


class TestDistanceMask:
    def mask_params(self, rng, hidden=6):
        return {
            "w1": Tensor(rng.standard_normal((4, hidden)) * 0.3, requires_grad=True),
            "b1": Tensor(np.zeros(hidden), requires_grad=True),
            "w2": Tensor(rng.standard_normal((hidden, 1)) * 0.3, requires_grad=True),
            "b2": Tensor(np.zeros(1), requires_grad=True),
        }

    def means_from(self, rng, k, dyadic=False):
        """The (k, 3) centroids of k random instances."""
        out = []
        for _ in range(k):
            if dyadic:
                pts = rng.integers(-512, 512, size=(8, 3)).astype(np.float64) / 256.0
            else:
                pts = rng.standard_normal((8, 3)) + rng.uniform(-2, 2, 3)
            out.append(compute_attributes(SceneInstance(0, pts, 0)))
        return np.stack([a.mean for a in out])

    def test_diagonal_is_mlp_of_zero(self):
        rng = np.random.default_rng(3)
        params = self.mask_params(rng)
        means = self.means_from(rng, 3)
        mask = distance_mask(means, params, Segments([3])).data.reshape(3, 3)
        rows = mask_input_matrix(means, Segments([3]))
        assert np.array_equal(rows.reshape(3, 3, 4)[np.arange(3), np.arange(3)], np.zeros((3, 4)))
        zero_out = ad.linear(ad.relu(ad.linear(Tensor(np.zeros((1, 4))), params["w1"], params["b1"])),
                             params["w2"], params["b2"]).data[0, 0]
        assert np.all(np.diag(mask) == zero_out)

    def test_translation_invariance_exact(self):
        rng = np.random.default_rng(4)
        params = self.mask_params(rng)
        pts_sets = [rng.integers(-512, 512, size=(8, 3)).astype(np.float64) / 256.0 for _ in range(3)]
        t = rng.integers(-8, 9, size=3).astype(np.float64)
        means_a = np.stack([compute_attributes(SceneInstance(0, p, 0)).mean for p in pts_sets])
        means_b = np.stack([compute_attributes(SceneInstance(0, p + t, 0)).mean for p in pts_sets])
        assert np.array_equal(distance_mask(means_a, params, Segments([3])).data,
                              distance_mask(means_b, params, Segments([3])).data)

    def test_zero_weights_bias_beta(self):
        rng = np.random.default_rng(5)
        params = self.mask_params(rng)
        params["w2"].data[:] = 0.0
        params["b2"].data[:] = 3.25
        means = self.means_from(rng, 4)
        assert np.all(distance_mask(means, params, Segments([4])).data == 3.25)


class TestMHCA:
    def test_strong_negative_mask_suppresses(self):
        rng = np.random.default_rng(6)
        params = _attention_params(rng, 8)
        q = Tensor(rng.standard_normal((4, 8)) * 0.5)
        mask = np.zeros((4, 4))
        mask[1, 2] = -1e9
        weights = multi_head_weights(
            lambda kv, p: mhca_node(q, kv, Tensor(mask), p, 2, Segments([4])), q, params, 2)
        assert len(weights) == 2
        for w in weights:
            assert w[1, 2] <= 1e-12

    def test_minus_30_mask(self):
        rng = np.random.default_rng(7)
        for trial in range(20):
            params = _attention_params(rng, 8)
            q = Tensor(rng.standard_normal((5, 8)) * 0.5)
            mask = np.zeros((5, 5))
            mask[2, 3] = -30.0
            weights = multi_head_weights(
                lambda kv, p: mhca_node(q, kv, Tensor(mask), p, 2, Segments([5])), q, params, 2)
            assert len(weights) == 2
            for w in weights:
                assert w[2, 3] < 1e-12

    def test_zero_mask_equals_plain_cross_attention(self):
        rng = np.random.default_rng(8)
        params = _attention_params(rng, 8)
        q = Tensor(rng.standard_normal((3, 8)))
        kv = Tensor(rng.standard_normal((3, 8)))
        masked = mhca_node(q, kv, Tensor(np.zeros((3, 3))), params, 2, Segments([3])).data
        plain = multi_head_attention(q, kv, params, 2, Segments([3])).data
        assert np.array_equal(masked, plain)

    def test_gradients_flow_into_kv_not_forward(self):
        rng = np.random.default_rng(9)
        params = _attention_params(rng, 8)
        kv = Tensor(rng.standard_normal((3, 8)), requires_grad=True)
        q = Tensor(rng.standard_normal((3, 8)), requires_grad=True)
        with Tape() as tape:
            out = mhca_node(q, kv, Tensor(np.zeros((3, 3))), params, 2, Segments([3]))
            tape.backward(ad.tsum(out))
        assert kv.grad is not None and np.any(kv.grad != 0)
        # the kv stream's value is untouched by the op (unidirectional)
        assert q.grad is not None

    def test_edge_collaboration_single_edge(self):
        rng = np.random.default_rng(10)
        params = _attention_params(rng, 8)
        e_or = Tensor(rng.standard_normal((1, 8)))
        weights = multi_head_weights(
            lambda e_3d, p: mhca_edge(e_or, e_3d, p, 2, Segments([1])), e_or, params, 2)
        assert len(weights) == 2
        for w in weights:
            assert np.allclose(w, [[1.0]])


class TestFatGnn:
    def test_k1_passthrough(self):
        # one instance has no edges: the layer runs on (0, D) edge rows, pools
        # 0 over the node's empty out-edge segment and leaves the node bitwise
        # as it was
        rng = np.random.default_rng(11)
        params = _gnn_params(rng, 8)
        nodes = rng.standard_normal((1, 8))
        state = GraphState(nodes=Tensor(nodes), edges=Tensor(np.zeros((0, 8))))
        assert np.array_equal(ad.segment_mean(Tensor(np.zeros((0, 8))), Segments([0])).data,
                              np.zeros((1, 8)))
        out = fat_gnn_layer(state, params, np.zeros(0, dtype=np.intp),
                            np.zeros(0, dtype=np.intp), Segments([0]))
        assert np.array_equal(out.nodes.data, nodes)
        assert out.edges.data.shape == (0, 8)

    def test_zero_weights_identity(self):
        rng = np.random.default_rng(12)
        params = {k: Tensor(np.zeros_like(v.data), requires_grad=True)
                  for k, v in _gnn_params(rng, 8).items()}
        k = 3
        subj, obj = pair_index_arrays(k)
        nodes = rng.standard_normal((3, 8))
        edges = rng.standard_normal((6, 8))
        out = fat_gnn_layer(GraphState(Tensor(nodes), Tensor(edges)), params, subj, obj,
                            Segments([k - 1] * k))
        assert np.array_equal(out.nodes.data, nodes)
        assert np.array_equal(out.edges.data, edges)

    def test_gradient_vs_fd(self):
        rng = np.random.default_rng(13)
        params = _gnn_params(rng, 4)
        k = 2
        subj, obj = pair_index_arrays(k)
        out_edges = Segments([k - 1] * k)
        nodes = rng.standard_normal((2, 4))
        edges = rng.standard_normal((2, 4))
        wn = rng.standard_normal((2, 4))
        we = rng.standard_normal((2, 4))

        def loss():
            out = fat_gnn_layer(GraphState(Tensor(nodes), Tensor(edges)), params, subj, obj,
                                out_edges)
            return ad.add(ad.tsum(ad.mul(out.nodes, Tensor(wn))), ad.tsum(ad.mul(out.edges, Tensor(we))))

        check_params(loss, params, rng, rtol=1e-4)


class TestForwardScene:
    def test_unidirectional_bitwise_equality(self):
        rng = np.random.default_rng(14)
        model = small_model(joint=True)
        for trial in range(5):
            scene = prepare_scene(make_sample(rng, k=int(rng.integers(2, 5))))
            joint = forward_scene(model, scene, "joint")
            only3d = forward_scene(model, scene, "3d")
            assert np.array_equal(joint.obj_logits_3d.data, only3d.obj_logits_3d.data)
            assert np.array_equal(joint.pred_logits_3d.data, only3d.pred_logits_3d.data)

    def test_zero_layers(self):
        rng = np.random.default_rng(15)
        model = small_model(joint=True, layers=0)
        scene = prepare_scene(make_sample(rng))
        out = forward_scene(model, scene, "joint")
        assert out.obj_logits_3d.data.shape == (3, 4)
        assert out.fused_triplets.data.shape == (6, 8)

    def test_joint_without_visual_raises(self):
        rng = np.random.default_rng(16)
        model = small_model(joint=True)
        scene = prepare_scene(make_sample(rng, with_visual=False))
        with pytest.raises(DataError):
            forward_scene(model, scene, "joint")

    def test_baseline_model_rejects_joint(self):
        rng = np.random.default_rng(17)
        model = small_model(joint=False)
        scene = prepare_scene(make_sample(rng))
        with pytest.raises(ConfigError):
            forward_scene(model, scene, "joint")

    def test_k1_scene(self):
        rng = np.random.default_rng(18)
        model = small_model(joint=True)
        scene = prepare_scene(make_sample(rng, k=1))
        out = forward_scene(model, scene, "joint")
        assert out.obj_logits_3d.data.shape == (1, 4)
        assert out.pred_logits_3d.data.shape == (0, 3)
        assert out.pred_logits_oracle.data.shape == (0, 3)
        assert out.fused_triplets.data.shape == (0, 8)

    def test_deterministic(self):
        rng = np.random.default_rng(19)
        model = small_model(joint=True)
        scene = prepare_scene(make_sample(rng))
        a = forward_scene(model, scene, "joint")
        b = forward_scene(model, scene, "joint")
        assert np.array_equal(a.obj_logits_oracle.data, b.obj_logits_oracle.data)
        assert np.array_equal(a.fused_triplets.data, b.fused_triplets.data)

    def test_predicate_logits_order_sensitive(self):
        rng = np.random.default_rng(20)
        model = small_model(joint=False)
        hits = 0
        for trial in range(5):
            scene = prepare_scene(make_sample(rng, k=3))
            out = forward_scene(model, scene, "3d")
            pairs = ordered_pairs(3)
            e_ij = pairs.index((0, 1))
            e_ji = pairs.index((1, 0))
            if not np.allclose(out.pred_logits_3d.data[e_ij], out.pred_logits_3d.data[e_ji]):
                hits += 1
        assert hits == 5

    def test_full_joint_gradient_vs_fd(self):
        rng = np.random.default_rng(21)
        model = small_model(joint=True)
        randomize_params(model, rng)
        scene = prepare_scene(make_sample(rng, k=3))
        w_obj = rng.standard_normal((3, 4))
        w_pred = rng.standard_normal((6, 3))
        w_or = rng.standard_normal((3, 4))
        w_fuse = rng.standard_normal((6, 8))

        def loss():
            out = forward_scene(model, scene, "joint")
            parts = [
                ad.tsum(ad.mul(out.obj_logits_3d, Tensor(w_obj))),
                ad.tsum(ad.mul(out.pred_logits_3d, Tensor(w_pred))),
                ad.tsum(ad.mul(out.obj_logits_oracle, Tensor(w_or))),
                ad.tsum(ad.mul(out.fused_triplets, Tensor(w_fuse))),
            ]
            total = parts[0]
            for p in parts[1:]:
                total = ad.add(total, p)
            return total

        check_directional(loss, model.params, rng, rtol=1e-4)
        check_params(loss, model.params, rng, n_coords=40, rtol=1e-4)
