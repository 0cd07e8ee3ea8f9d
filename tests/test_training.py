import inspect
import json
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sg3d import autodiff as ad
from sg3d import encoders, reasoning, training
from sg3d.autodiff import Segments, Tape, Tensor
from sg3d.cli import predict_dump
from sg3d.errors import ConfigError, DataError, NumericError
from sg3d.reasoning import ModelConfig, ModelState, forward_scene, pack_scenes
from sg3d.synthetic import EmbeddingProvider, WorldConfig, generate_dataset, provider_from_manifest
from sg3d.training import (TERM_KEYS, AdamW, Checkpoint, LossWeights, TrainConfig,
                           _epoch_rng, apply_embedding_init, build_train_scene, cosine_lr,
                           init_classifier_from_embeddings, loss_node_init,
                           loss_obj, loss_pred, loss_tri_emb, scene_loss, total_loss, train)

from gradcheck import check_params
from test_encoders import per_instance_encoder
from test_reasoning import make_sample, per_head_attention, randomize_params, small_model


class TestLossObj:
    def test_confident_correct_is_near_zero(self):
        logits = Tensor(np.array([[1e6, 0.0, 0.0], [0.0, 1e6, 0.0]]))
        assert loss_obj(logits, [0, 1], Segments([2])).item() < 1e-9

    def test_uniform_logits_log_n(self):
        n = 16
        logits = Tensor(np.zeros((5, n)))
        assert abs(loss_obj(logits, [0, 3, 7, 11, 15], Segments([5])).item() - np.log(n)) <= 1e-12

    def test_out_of_range_label(self):
        with pytest.raises(DataError):
            loss_obj(Tensor(np.zeros((2, 3))), [0, 3], Segments([2]))

    def test_gradient_vs_fd(self):
        rng = np.random.default_rng(0)
        w = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
        x = rng.standard_normal((6, 4))
        gt = rng.integers(0, 5, size=6)

        def loss():
            return loss_obj(ad.matmul(Tensor(x), w), gt, Segments([6]))

        check_params(loss, {"w": w}, rng, rtol=1e-4)


class TestLossPred:
    def test_confident_correct_near_zero(self):
        gt = np.array([[1.0, 0.0], [0.0, 1.0]])
        logits = Tensor(np.where(gt > 0, 40.0, -40.0))
        assert loss_pred(logits, gt, Segments([2])).item() < 1e-9

    def test_zero_logits_ln2(self):
        logits = Tensor(np.zeros((7, 13)))
        gt = np.zeros((7, 13))
        gt[0, 0] = 1
        assert abs(loss_pred(logits, gt, Segments([7])).item() - np.log(2.0)) <= 1e-12

    def test_gradient_vs_fd(self):
        rng = np.random.default_rng(1)
        w = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        x = rng.standard_normal((5, 4))
        gt = (rng.random((5, 3)) < 0.4).astype(float)

        def loss():
            return loss_pred(ad.matmul(Tensor(x), w), gt, Segments([5]))

        check_params(loss, {"w": w}, rng, rtol=1e-4)


class TestLossTriEmb:
    def test_exact_match_zero(self):
        rows = np.random.default_rng(2).standard_normal((4, 6))
        assert loss_tri_emb(Tensor(rows), rows.copy(), Segments([4])).item() == 0.0

    def test_empty_mask_zero_without_gradient(self):
        # a scene without ground-truth relations has zero fused rows
        w = Tensor(np.ones((2, 2)), requires_grad=True)
        with Tape() as tape:
            out = loss_tri_emb(ad.matmul(Tensor(np.zeros((0, 2))), w), np.zeros((0, 2)),
                               Segments([0]))
            tape.backward(ad.tsum(out))
        assert out.item() == 0.0
        assert np.array_equal(w.grad, np.zeros((2, 2)))

    def test_hand_case(self):
        fused = Tensor(np.array([[1.0, 0.0]]))
        text = np.array([[0.0, 1.0]])
        assert loss_tri_emb(fused, text, Segments([1])).item() == 1.0

    def test_gradient_vs_fd(self):
        rng = np.random.default_rng(3)
        w = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        x = rng.standard_normal((5, 3))
        text = rng.standard_normal((5, 4))

        def loss():
            return loss_tri_emb(ad.matmul(Tensor(x), w), text, Segments([5]))

        check_params(loss, {"w": w}, rng, rtol=1e-4)


class TestLossNodeInit:
    def test_equal_nonzero_is_minus_one(self):
        rows = np.ones((3, 8))
        out = loss_node_init(Tensor(rows), Tensor(rows.copy()), Segments([3])).item()
        assert abs(out + 1.0) <= 1e-12

    def test_orthogonal_zero(self):
        a = np.array([[1.0, 0.0], [0.0, 2.0]])
        b = np.array([[0.0, 3.0], [4.0, 0.0]])
        assert abs(loss_node_init(Tensor(a), Tensor(b), Segments([2])).item()) <= 1e-12

    def test_zero_norm_guarded(self):
        a = np.zeros((2, 3))
        b = np.ones((2, 3))
        out = loss_node_init(Tensor(a), Tensor(b), Segments([2])).item()
        assert np.isfinite(out)

    def test_gradient_vs_fd(self):
        rng = np.random.default_rng(4)
        wa = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        wb = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        x = rng.standard_normal((3, 3))

        def loss():
            return loss_node_init(ad.matmul(Tensor(x), wa), ad.matmul(Tensor(x), wb), Segments([3]))

        check_params(loss, {"wa": wa, "wb": wb}, rng, rtol=1e-4)


class TestTotalLoss:
    def test_all_zero(self):
        terms = {key: Tensor(0.0) for key in TERM_KEYS if key != "loss_total"}
        assert total_loss(terms, LossWeights()).item() == 0.0

    def test_reference_weighting(self):
        terms = {key: Tensor(1.0) for key in TERM_KEYS if key != "loss_total"}
        w = LossWeights(obj=0.1, pred=1.0, aux=0.1)
        assert abs(total_loss(terms, w).item() - 2.4) <= 1e-12

    def test_joint_loss_without_provider_refused(self, monkeypatch):
        # a batch built without an embedding provider has no text rows: the
        # joint loss refuses it before the forward and names its scenes
        rng = np.random.default_rng(6)
        model = small_model(joint=True)
        samples = [make_sample(rng, k=3), make_sample(rng, k=2)]
        for sample, name in zip(samples, ("s1", "s2")):
            sample.scene_id = name
        ts = pack_scenes([build_train_scene(s, None) for s in samples])
        with monkeypatch.context() as patch:
            patch.setattr(training, "forward_scene", None)
            with pytest.raises(DataError, match="scenes s1, s2: text embeddings missing"):
                scene_loss(model, ts, LossWeights(), vlsat=True)
        total, _ = scene_loss(model, ts, LossWeights(), vlsat=False)
        assert np.isfinite(total.item())

    def test_doubling_lambda_pred_doubles_pred_grads_exactly(self):
        rng = np.random.default_rng(5)
        model = small_model(joint=True)
        randomize_params(model, rng)
        ts = build_train_scene(make_sample(rng, k=3),
                               EmbeddingProvider(0, 4, 3, 8))

        def grads_for(weights):
            model.zero_grad()
            with Tape() as tape:
                total, _ = scene_loss(model, ts, weights, vlsat=True)
                tape.backward(total)
            names = ("head3d.pred_w", "head3d.pred_b", "head_oracle.pred_w", "head_oracle.pred_b")
            return {n: model.params[n].grad.copy() for n in names}

        g1 = grads_for(LossWeights(obj=0.1, pred=0.3, aux=0.1))
        g2 = grads_for(LossWeights(obj=0.1, pred=2 * 0.3, aux=0.1))
        for n in g1:
            assert np.array_equal(2.0 * g1[n], g2[n])


class TestClassifierInit:
    def test_embedding_argmax_property(self):
        provider = EmbeddingProvider(3, n_obj=8, n_rel=4, d_emb=16)
        w, b = init_classifier_from_embeddings(provider, 16)
        assert np.array_equal(b, np.zeros(8))
        for c in range(8):
            logits = provider.object_embeddings[c] @ w + b
            assert np.argmax(logits) == c
            ranked = np.sort(logits)
            assert ranked[-1] > ranked[-2]  # strict argmax

    def test_logits_are_embedding_product(self):
        provider = EmbeddingProvider(4, n_obj=5, n_rel=3, d_emb=8)
        w, _ = init_classifier_from_embeddings(provider, 8)
        # the weight matrix IS the embedding table (bitwise)
        assert np.array_equal(w.T, provider.object_embeddings)
        rng = np.random.default_rng(6)
        x = rng.standard_normal(8)
        assert np.allclose(x @ w, provider.object_embeddings @ x, atol=1e-14)

    def test_reinit_deterministic(self):
        provider = EmbeddingProvider(5, n_obj=6, n_rel=3, d_emb=8)
        w1, b1 = init_classifier_from_embeddings(provider, 8)
        w2, b2 = init_classifier_from_embeddings(provider, 8)
        assert np.array_equal(w1, w2) and np.array_equal(b1, b2)

    def test_width_mismatch_without_projection(self):
        provider = EmbeddingProvider(6, n_obj=4, n_rel=3, d_emb=8)
        with pytest.raises(ConfigError):
            init_classifier_from_embeddings(provider, 12)

    def test_applies_to_both_streams(self):
        provider = EmbeddingProvider(8, n_obj=4, n_rel=3, d_emb=8)
        model = small_model(joint=True)
        apply_embedding_init(model, provider)
        assert np.array_equal(model.params["head3d.obj_w"].data,
                              model.params["head_oracle.obj_w"].data)
        assert np.array_equal(model.params["head3d.obj_w"].data, provider.object_embeddings.T)


class TestOptimizer:
    def test_cosine_endpoints(self):
        assert cosine_lr(0.001, 0, 100) == 0.001
        assert abs(cosine_lr(0.001, 100, 100)) <= 1e-18
        assert abs(cosine_lr(0.001, 50, 100) - 0.0005) <= 1e-12

    def test_zero_grad_step_is_pure_decay(self):
        rng = np.random.default_rng(8)
        p = Tensor(rng.standard_normal((3, 3)), requires_grad=True)
        opt = AdamW({"p": p}, weight_decay=0.01)
        before = p.data.copy()
        opt.step(lr=0.5)
        assert np.array_equal(p.data, before * (1.0 - 0.5 * 0.01))

    def test_descends_quadratic(self):
        p = Tensor(np.array([5.0]), requires_grad=True)
        opt = AdamW({"p": p}, weight_decay=0.0)
        for _ in range(300):
            p.zero_grad()
            with Tape() as tape:
                loss = ad.tsum(ad.mul(p, p))
                tape.backward(loss)
            opt.step(lr=0.05)
        assert abs(p.data[0]) < 0.2

    def test_flat_buffers_match_per_tensor_loop_bitwise(self):
        rng = np.random.default_rng(9)
        shapes = {"a": (3, 4), "b": (5,), "c": (2, 1, 3), "d": (1,), "e": (4, 2)}
        start = {n: rng.standard_normal(s) for n, s in shapes.items()}
        flat = {n: Tensor(x.copy(), requires_grad=True) for n, x in start.items()}
        loop = {n: Tensor(x.copy(), requires_grad=True) for n, x in start.items()}
        opt = AdamW(flat, betas=(0.8, 0.99), eps=1e-7, weight_decay=0.05)
        ref = PerTensorAdamW(loop, betas=(0.8, 0.99), eps=1e-7, weight_decay=0.05)
        for step in range(6):
            for name, shape in shapes.items():
                # some parameters get no gradient on some steps
                g = None if (step + len(name)) % 3 == 0 or name == "d" else rng.standard_normal(shape)
                flat[name].grad = loop[name].grad = g
            lr = 1e-2 / (step + 1)
            opt.step(lr)
            ref.step(lr)
            m, v = opt.named(opt.m), opt.named(opt.v)
            for name in shapes:
                assert np.array_equal(flat[name].data, loop[name].data), (step, name)
                assert np.array_equal(m[name], ref.m[name]) and np.array_equal(v[name], ref.v[name])
        assert opt.step_count == ref.step_count == 6

    def test_rebound_parameter_is_read_at_the_next_step(self):
        p = Tensor(np.ones(3), requires_grad=True)
        opt = AdamW({"p": p}, weight_decay=0.5)
        p.data = np.full(3, 2.0)
        opt.step(lr=0.1)
        assert np.array_equal(p.data, np.full(3, 2.0 * (1.0 - 0.1 * 0.5)))


class PerTensorAdamW:
    """Reference AdamW: the per-tensor loop that the flat-buffer `AdamW` replaces."""

    def __init__(self, params, betas, eps, weight_decay):
        self.params = params
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.step_count = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def step(self, lr):
        self.step_count += 1
        b1, b2 = self.beta1, self.beta2
        bc1 = 1.0 - b1 ** self.step_count
        bc2 = 1.0 - b2 ** self.step_count
        for name, p in self.params.items():
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            m = self.m[name] = b1 * self.m[name] + (1.0 - b1) * g
            v = self.v[name] = b2 * self.v[name] + (1.0 - b2) * (g * g)
            update = (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            p.data = p.data * (1.0 - lr * self.weight_decay) - lr * update


def tiny_world(seed=3):
    # higher tag probability so the latent rule fires even at this tiny scale
    cfg = WorldConfig(seed=seed, n_train_scenes=12, n_val_scenes=4, k_min=3, k_max=5,
                      tag_probability=0.5, rule_rate_scale=6.0, d_emb=16)
    return generate_dataset(cfg)


def tiny_configs(vlsat=True, epochs=3):
    mc = ModelConfig(d=16, hidden=16, heads=2, layers=1, d_vis=18,
                     d_emb=16, n_obj=16, n_rel=13, seed=5)
    tc = TrainConfig(epochs=epochs, batch_size=4, seed=9, vlsat=vlsat)
    return mc, tc


class TestTrainLoop:
    def test_smoke_and_log_fields(self):
        samples, vocab, manifest = tiny_world()
        provider = provider_from_manifest(manifest)
        mc, tc = tiny_configs(vlsat=True)
        model, opt, logs = train(samples, vocab, provider, mc, tc)
        assert len(logs) == 3
        assert logs[0]["lr"] == tc.base_lr
        for rec in logs:
            assert rec["loss_tri"] is not None and rec["loss_node"] is not None

    def test_baseline_logs_null_aux(self):
        samples, vocab, manifest = tiny_world()
        provider = provider_from_manifest(manifest)
        mc, tc = tiny_configs(vlsat=False)
        model, opt, logs = train(samples, vocab, provider, mc, tc)
        for rec in logs:
            assert rec["loss_tri"] is None and rec["loss_node"] is None
            assert rec["loss_obj_or"] is None

    @pytest.mark.parametrize("vlsat", [True, False])
    def test_leaves_its_arguments_unchanged(self, vlsat):
        samples, vocab, manifest = tiny_world()
        mc, tc = tiny_configs(vlsat=vlsat, epochs=1)
        mc.joint = not vlsat
        before = asdict(mc), asdict(tc)
        model, _, _ = train(samples, vocab, provider_from_manifest(manifest), mc, tc)
        assert (asdict(mc), asdict(tc)) == before
        assert model.cfg.joint == vlsat

    def test_seed_reproducible_bitwise(self):
        samples, vocab, manifest = tiny_world()
        provider = provider_from_manifest(manifest)
        mc, tc = tiny_configs(vlsat=True)
        _, _, logs1 = train(samples, vocab, provider, mc, tc)
        mc2, tc2 = tiny_configs(vlsat=True)
        _, _, logs2 = train(samples, vocab, provider, mc2, tc2)
        assert logs1 == logs2

    def test_joint_gradients_differ_from_3d_only(self):
        rng = np.random.default_rng(10)
        model = small_model(joint=True)
        randomize_params(model, rng)
        provider = EmbeddingProvider(0, 4, 3, 8)
        ts = build_train_scene(make_sample(rng, k=3), provider)
        weights = LossWeights()

        def grads(vlsat):
            model.zero_grad()
            with Tape() as tape:
                total, _ = scene_loss(model, ts, weights, vlsat=vlsat)
                tape.backward(total)
            return {n: model.params[n].grad.copy() for n in model.three_d_param_names()
                    if model.params[n].grad is not None}

        g_joint = grads(True)
        g_3d = grads(False)
        differs = any(not np.array_equal(g_joint[n], g_3d[n]) for n in g_3d)
        assert differs


class TestCheckpoint:
    def test_round_trip_bytes(self, tmp_path):
        samples, vocab, manifest = tiny_world()
        provider = provider_from_manifest(manifest)
        mc, tc = tiny_configs(vlsat=True, epochs=2)
        model, opt, _ = train(samples, vocab, provider, mc, tc)
        ck = Checkpoint.capture(model, opt, tc, next_epoch=2, vocab_hash=vocab.content_hash())
        p1 = tmp_path / "a.json"
        ck.save(p1)
        again = Checkpoint.load(p1)
        p2 = tmp_path / "b.json"
        again.save(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_corrupted_hash_rejected(self, tmp_path):
        samples, vocab, manifest = tiny_world()
        provider = provider_from_manifest(manifest)
        mc, tc = tiny_configs(vlsat=True, epochs=1)
        model, opt, _ = train(samples, vocab, provider, mc, tc)
        ck = Checkpoint.capture(model, opt, tc, 1, vocab.content_hash())
        path = tmp_path / "c.json"
        payload = json.loads(ck.to_json())
        payload["next_epoch"] = 99
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError):
            Checkpoint.load(path)

    def test_failed_save_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        samples, vocab, manifest = tiny_world()
        mc, tc = tiny_configs(vlsat=False, epochs=1)
        model, opt, _ = train(samples, vocab, provider_from_manifest(manifest), mc, tc)
        path = tmp_path / "checkpoint.json"
        Checkpoint.capture(model, opt, tc, next_epoch=1, vocab_hash=vocab.content_hash()).save(path)
        before = path.read_bytes()

        class HalfWrite:
            """A file that takes half of what it is given, then fails."""

            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, text):
                self.fh.write(text[:len(text) // 2])
                raise OSError("disk full")

        monkeypatch.setattr("sg3d.training.open", lambda *a, **kw: HalfWrite(open(*a, **kw)),
                            raising=False)
        later = Checkpoint.capture(model, opt, tc, next_epoch=2, vocab_hash=vocab.content_hash())
        with pytest.raises(OSError, match="disk full"):
            later.save(path)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert Checkpoint.load(path).payload["next_epoch"] == 1
        assert [p.name for p in tmp_path.iterdir()] == ["checkpoint.json"]

    def test_resume_reproduces_trajectory_bitwise(self):
        samples, vocab, manifest = tiny_world()
        provider = provider_from_manifest(manifest)

        mc, tc = tiny_configs(vlsat=True, epochs=4)
        _, _, full_logs = train(samples, vocab, provider, mc, tc)

        # the same 4-epoch schedule interrupted after 2 epochs, then resumed
        mc2, tc2 = tiny_configs(vlsat=True, epochs=4)
        model2, opt2, logs_a = train(samples, vocab, provider, mc2, tc2, stop_epoch=2)
        ck = Checkpoint.capture(model2, opt2, tc2, next_epoch=2, vocab_hash=vocab.content_hash())
        ck = Checkpoint(json.loads(ck.to_json()))  # round-trip through JSON
        _, _, logs_b = train(samples, vocab, provider, mc2, tc2, resume=ck)
        assert full_logs == logs_a + logs_b

    def test_resume_past_the_last_epoch_refused(self):
        samples, vocab, manifest = tiny_world()
        provider = provider_from_manifest(manifest)
        mc, tc = tiny_configs(vlsat=False, epochs=3)
        model, opt, _ = train(samples, vocab, provider, mc, tc)
        ck = Checkpoint.capture(model, opt, tc, next_epoch=3, vocab_hash=vocab.content_hash())
        with pytest.raises(ConfigError, match="3 epochs"):
            train(samples, vocab, provider, mc, TrainConfig(**{**asdict(tc), "epochs": 2}), resume=ck)
        _, _, logs = train(samples, vocab, provider, mc, tc, resume=ck)
        assert logs == []

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_numeric_error_names_epoch_batch_and_scenes(self):
        samples, vocab, manifest = tiny_world()
        provider = provider_from_manifest(manifest)
        mc, tc = tiny_configs(vlsat=False, epochs=3)
        model, opt, _ = train(samples, vocab, provider, mc, tc, stop_epoch=1)
        model.params["enc3d.point.w1"].data[...] = 1e308
        ck = Checkpoint.capture(model, opt, tc, next_epoch=1, vocab_hash=vocab.content_hash())
        ids = [s.scene_id for s in samples if s.split == "train"]
        first = _epoch_rng(tc.seed, 1).permutation(len(ids))[:tc.batch_size]
        with pytest.raises(NumericError) as caught:
            train(samples, vocab, provider, mc, tc, resume=ck)
        assert f"epoch 1, batch 0, scenes {', '.join(ids[i] for i in first)}:" in str(caught.value)

    def test_resume_continues_epoch_numbering(self):
        samples, vocab, manifest = tiny_world()
        provider = provider_from_manifest(manifest)
        mc, tc = tiny_configs(vlsat=False, epochs=2)
        model, opt, _ = train(samples, vocab, provider, mc, tc)
        ck = Checkpoint.capture(model, opt, tc, next_epoch=2, vocab_hash=vocab.content_hash())
        tc_more = TrainConfig(**{**tc.__dict__, "epochs": 5})
        _, _, logs = train(samples, vocab, provider, mc, tc_more, resume=ck)
        assert [r["epoch"] for r in logs] == [2, 3, 4]

    @pytest.mark.parametrize("saved_vlsat", [True, False])
    def test_resume_across_modes_refused(self, saved_vlsat):
        samples, vocab, manifest = tiny_world()
        provider = provider_from_manifest(manifest)
        mc, tc = tiny_configs(vlsat=saved_vlsat, epochs=1)
        model, opt, _ = train(samples, vocab, provider, mc, tc)
        ck = Checkpoint.capture(model, opt, tc, next_epoch=1, vocab_hash=vocab.content_hash())
        mc2, tc2 = tiny_configs(vlsat=not saved_vlsat, epochs=2)
        with pytest.raises(ConfigError, match="vlsat"):
            train(samples, vocab, provider, mc2, tc2, resume=ck)


    def test_resume_with_another_vocabulary_refused(self):
        samples, vocab, manifest = tiny_world()
        provider = provider_from_manifest(manifest)
        mc, tc = tiny_configs(vlsat=False, epochs=1)
        model, opt, _ = train(samples, vocab, provider, mc, tc)
        ck = Checkpoint.capture(model, opt, tc, next_epoch=1, vocab_hash="0" * 16)
        with pytest.raises(DataError, match="vocabulary"):
            train(samples, vocab, provider, mc, TrainConfig(**{**asdict(tc), "epochs": 2}), resume=ck)


# ---------------------------------------------------------------------------
# fused attention and packed point encoder, against the per-head and
# per-instance composites they replace


def default_scene(rng, k):
    """A scene and train set-up for the default ModelConfig sizes."""
    sample = make_sample(rng, k=k, n_rel=13, d_vis=34)
    return build_train_scene(sample, EmbeddingProvider(0, 16, 13, 32))


def scene_grads(model, ts, vlsat):
    model.zero_grad()
    with Tape() as tape:
        total, _ = scene_loss(model, ts, LossWeights(), vlsat)
        tape.backward(total)
    return total.item(), {n: np.zeros_like(p.data) if p.grad is None else p.grad.copy()
                          for n, p in model.params.items()}


@pytest.mark.parametrize("vlsat", [True, False])
def test_whole_model_matches_per_head_per_instance(vlsat, monkeypatch):
    # gradients are compared against the largest entry of the whole model:
    # the key bias gradient is zero in exact arithmetic (softmax ignores a
    # per-row constant), so both paths return rounding noise there
    rng = np.random.default_rng(40)
    model = ModelState(ModelConfig(joint=vlsat))
    randomize_params(model, rng, scale=0.2)
    for k in (1, 2, 5, 9):
        ts = default_scene(rng, k)
        loss, fused = scene_grads(model, ts, vlsat)
        with monkeypatch.context() as patch:
            patch.setattr(reasoning, "multi_head_attention", per_head_attention)
            patch.setattr(encoders, "encode_nodes_3d", per_instance_encoder)
            ref_loss, ref = scene_grads(model, ts, vlsat)
        assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss)
        scale = max(float(np.abs(g).max()) for g in ref.values())
        worst = max(float(np.abs(fused[n] - ref[n]).max()) for n in ref)
        assert worst <= 1e-12 * scale


def test_tape_ops_per_scene_guard():
    # the fused attention and the packed encoder make the op count independent
    # of K; per-head or per-instance ops would grow it with heads and K
    rng = np.random.default_rng(41)
    for vlsat, limit in ((True, 165), (False, 63)):
        model = ModelState(ModelConfig(joint=vlsat))
        counts = set()
        # a one-instance scene runs the edge path on zero rows, and a scene
        # without relations the triplet loss: both record the ops of any other
        for ts in (batch_scene(rng, 1, relations=False), batch_scene(rng, 2, relations=False),
                   default_scene(rng, 2), default_scene(rng, 9)):
            with Tape() as tape:
                scene_loss(model, ts, LossWeights(), vlsat)
                counts.add(len(tape.records))
        assert len(counts) == 1 and counts.pop() <= limit
        # a packed batch of 8 scenes records one scene's ops plus at most a
        # small constant; an op per scene would add 7 or more
        one = len(tape.records)
        batch = pack_scenes([default_scene(rng, k) for k in (2, 9, 3, 5, 4, 8, 6, 7)])
        with Tape() as tape:
            scene_loss(model, batch, LossWeights(), vlsat)
            assert len(tape.records) <= one + BATCH_EXTRA_OPS


BATCH_EXTRA_OPS = 2

# public names of sg3d.autodiff that are not taped ops
AUTODIFF_NON_OPS = {"Tensor", "Tape", "Segments", "as_tensor", "PAD_BIAS"}


def test_every_autodiff_op_runs_in_the_model(monkeypatch):
    # the engine ships only what training and prediction call: a joint and a
    # 3D-only loss with its backward on a packed batch, then one prediction.
    # Every op runs, and every parameter with a default gets its default in
    # some call and another value in another: a default the model never
    # takes, or never overrides, is an option nothing needs
    public = {name for name, value in vars(ad).items()
              if not name.startswith("_") and not inspect.ismodule(value)
              and getattr(value, "__module__", ad.__name__) == ad.__name__}
    assert AUTODIFF_NON_OPS <= public
    ops = public - AUTODIFF_NON_OPS
    calls = dict.fromkeys(ops, 0)
    # (op, parameter) -> {"default", "other"}: what the parameter received
    received = {(name, param.name): set() for name in ops
                for param in inspect.signature(getattr(ad, name)).parameters.values()
                if param.default is not inspect.Parameter.empty}

    def counting(name, op):
        signature = inspect.signature(op)

        def run(*args, **kwargs):
            calls[name] += 1
            bound = signature.bind(*args, **kwargs)
            for param in signature.parameters.values():
                if (name, param.name) in received:
                    value = bound.arguments.get(param.name, param.default)
                    received[name, param.name].add("default" if value is param.default
                                                   else "other")
            return op(*args, **kwargs)
        return run

    for name in ops:
        assert inspect.isfunction(getattr(ad, name)), name
        monkeypatch.setattr(ad, name, counting(name, getattr(ad, name)))
    rng = np.random.default_rng(43)
    model = ModelState(ModelConfig(joint=True))
    samples = [make_sample(rng, k=k, n_rel=13, d_vis=34) for k in (1, 3, 3, 5)]
    batch = pack_scenes([build_train_scene(s, EmbeddingProvider(0, 16, 13, 32))
                         for s in samples])
    for vlsat in (True, False):
        with Tape() as tape:
            total, _ = scene_loss(model, batch, LossWeights(), vlsat)
            tape.backward(total)
    predict_dump(model, samples, "", "")
    assert sorted(name for name, n in calls.items() if n == 0) == []
    assert ("attention", "mask") in received and ("tsum", "axis") in received
    assert {key: seen for key, seen in received.items() if seen != {"default", "other"}} == {}


def batch_scene(rng, k, relations):
    """A default-size training scene; without relations, every pair is a negative."""
    sample = make_sample(rng, k=k, n_rel=13, d_vis=34)
    if not relations:
        sample.gt_predicate_rows[:] = 0
    return build_train_scene(sample, EmbeddingProvider(0, 16, 13, 32))


def grads_and_values(model, ts, vlsat):
    model.zero_grad()
    with Tape() as tape:
        total, values = scene_loss(model, ts, LossWeights(), vlsat)
        tape.backward(total)
    grads = {n: np.zeros_like(p.data) if p.grad is None else p.grad.copy()
             for n, p in model.params.items()}
    return total.item(), values, grads


PACKED_MODEL = ModelState(ModelConfig(joint=True))
randomize_params(PACKED_MODEL, np.random.default_rng(42), scale=0.2)


@pytest.mark.parametrize("vlsat", [True, False])
@settings(max_examples=40, deadline=None)
@given(scenes=st.lists(st.tuples(st.integers(1, 9), st.booleans()), min_size=1, max_size=8),
       seed=st.integers(0, 2 ** 16))
@example(scenes=[(1, True), (1, False)], seed=0)
@example(scenes=[(4, False), (1, True), (9, True), (2, False)], seed=1)
def test_packed_batch_matches_per_scene(vlsat, scenes, seed):
    # the packed batch against the same scenes run one by one: K=1 scenes are
    # edgeless, and scenes without relations have no triplet terms
    rng = np.random.default_rng(seed)
    model = PACKED_MODEL
    alone = [batch_scene(rng, k, relations) for k, relations in scenes]
    batch = pack_scenes(alone)
    total, values, grads = grads_and_values(model, batch, vlsat)
    runs = [grads_and_values(model, ts, vlsat) for ts in alone]
    summed = sum(run[0] for run in runs)
    assert abs(total - summed) <= 1e-12 * abs(summed)
    ref = {n: sum(run[2][n] for run in runs) for n in grads}
    scale = max(float(np.abs(g).max()) for g in ref.values())
    assert max(float(np.abs(grads[n] - ref[n]).max()) for n in ref) <= 1e-12 * scale
    for key, per_scene in values.items():
        if per_scene is None:
            assert all(run[1][key] is None for run in runs)
            continue
        want = np.concatenate([run[1][key] for run in runs])
        assert np.all(np.abs(per_scene - want) <= 1e-12 * np.maximum(1.0, np.abs(want))), key
    if vlsat:
        joint = forward_scene(model, batch, "joint")
        only3d = forward_scene(model, batch, "3d")
        assert np.array_equal(joint.obj_logits_3d.data, only3d.obj_logits_3d.data)
        assert np.array_equal(joint.pred_logits_3d.data, only3d.pred_logits_3d.data)
