"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. The training-based
criteria (8 and 9) share one 3-seed experiment fixture and together
dominate the runtime; they are marked `slow`, so `pytest -m "not slow"`
runs everything else.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from sg3d import autodiff as ad
from sg3d.autodiff import Segments, Tape, Tensor
from sg3d.cli import build_parser, run_experiment_seed
from sg3d.encoders import descriptor_matrix
from sg3d.metrics import (accuracy_events, mean_topk_accuracy, recall_at_k,
                          seen_unseen_report, topk_accuracy, triplet_topk)
from sg3d.reasoning import (ModelConfig, ModelState, distance_mask, forward_scene,
                            mhca_node, prepare_scene, _attention_params)
from sg3d.scene import SceneInstance, compute_attributes
from sg3d.synthetic import EmbeddingProvider, WorldConfig, generate_dataset
from sg3d.training import (TERM_KEYS, LossWeights, TrainConfig, build_train_scene,
                           init_classifier_from_embeddings, loss_node_init, loss_obj,
                           loss_pred, loss_tri_emb, scene_loss, total_loss, train)

import metric_oracle as oracle
from attention_probe import multi_head_weights
from gradcheck import check_directional, check_params
from reference_ops import amax, narrow, reshape, transpose
from test_metrics import random_dump
from test_reasoning import make_sample, randomize_params

RESULTS = []


def record(criterion, name):
    RESULTS.append((criterion, name))
    print(f"\nACCEPTANCE {criterion} ({name}): PASS")


# ---------------------------------------------------------------------------
# criterion 1: gradient correctness


def test_criterion_1_gradient_correctness():
    start = time.time()
    rtol = 1e-4

    # every differentiable op, 20 random parameterizations each, all coords
    for trial in range(20):
        rng = np.random.default_rng(1000 + trial)

        def p(*shape, scale=1.0, offset=0.0):
            return Tensor(rng.standard_normal(shape) * scale + offset, requires_grad=True)

        x = p(3, 4)
        y = p(3, 4, offset=3.0)
        w = p(4, 5)
        off_kink = p(3, 4)
        off_kink.data = np.where(np.abs(off_kink.data) < 0.05, off_kink.data + 0.2, off_kink.data)
        pos = p(3, 4, scale=0.2, offset=2.0)
        idx = rng.integers(0, 3, size=5)
        cols = rng.integers(0, 4, size=3)
        mix = Tensor(rng.standard_normal((3, 4)))

        unary = [(ad.relu, off_kink), (ad.absolute, off_kink), (ad.sigmoid, x), (ad.sqrt, pos),
                 (ad.softplus, x), (lambda a: ad.softmax(a, axis=1), x),
                 (lambda a: ad.log_softmax(a, axis=1), x)]
        for op, arg in unary:
            check_params(lambda op=op, arg=arg: ad.tsum(ad.mul(op(arg), mix)),
                         {"arg": arg}, rng, rtol=rtol)

        def composite():
            h = ad.matmul(ad.add(x, y), w)                      # add, matmul
            h2 = ad.mul(ad.div(x, y), ad.sub(x, y))             # div, mul, sub
            r = ad.concat([h2, ad.neg(x)], axis=1)              # concat, neg
            r = ad.add(r, reshape(transpose(r), (3, 8)))        # transpose, reshape
            pieces = [
                ad.tsum(h), ad.tsum(ad.tmean(r, axis=1)), ad.tsum(amax(r, axis=1)),
                ad.tsum(ad.gather_rows(r, idx)), ad.tsum(ad.take_per_row(r, cols)),
                ad.tsum(narrow(r, 1, 2, 3)),
            ]
            total = pieces[0]
            for piece in pieces[1:]:
                total = ad.add(total, piece)
            return total

        check_params(composite, {"x": x, "y": y, "w": w}, rng, rtol=rtol)

    # full joint forward at the pinned sizes: K=3, T=2, heads=2, D=8
    for trial in range(20):
        rng = np.random.default_rng(2000 + trial)
        cfg = ModelConfig(d=8, hidden=8, heads=2, layers=2, d_vis=6, d_emb=8,
                          n_obj=4, n_rel=3, joint=True, seed=trial)
        model = ModelState(cfg)
        randomize_params(model, rng)
        ts = build_train_scene(make_sample(rng, k=3), EmbeddingProvider(trial, 4, 3, 8))

        def loss():
            total, _ = scene_loss(model, ts, LossWeights(), vlsat=True)
            return total

        check_directional(loss, model.params, rng, rtol=rtol)
        check_params(loss, model.params, rng, n_coords=30, rtol=rtol)

    elapsed = time.time() - start
    assert elapsed < 120, f"gradient suite took {elapsed:.1f}s (budget 120s)"
    record(1, f"gradient correctness, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 2: metric oracle equivalence


def test_criterion_2_metric_oracle_equivalence():
    rng = np.random.default_rng(42)
    checked = 0
    for trial in range(200):
        n_obj = int(rng.integers(2, 7))
        n_rel = int(rng.integers(2, 5))
        dump = random_dump(rng, n_scenes=int(rng.integers(1, 4)),
                           n_obj=n_obj, n_rel=n_rel, k_max=5)

        obj_scores = np.concatenate([s.object_probs for s in dump.scenes])
        obj_labels = np.concatenate([s.gt_objects for s in dump.scenes])
        pred_scores = np.concatenate([s.predicate_probs for s in dump.scenes])
        pred_gt = np.concatenate([s.gt_predicate_rows for s in dump.scenes])

        ks = (1, 2, n_rel)
        for k in (1, 2, n_obj):
            assert topk_accuracy(obj_scores, obj_labels, k) == \
                oracle.oracle_topk_accuracy(obj_scores, obj_labels, k)
        for k in ks:
            assert accuracy_events(pred_scores, pred_gt, k) == \
                oracle.oracle_accuracy_events(pred_scores, pred_gt, k)
            assert mean_topk_accuracy(pred_scores, pred_gt, k) == \
                oracle.oracle_mean_topk(pred_scores, pred_gt, k)
        subset = {0, n_rel - 1}
        assert mean_topk_accuracy(pred_scores, pred_gt, 1, class_subset=subset) == \
            oracle.oracle_mean_topk(pred_scores, pred_gt, 1, class_subset=subset)

        for k in (1, 10, 50):
            assert triplet_topk(dump, k) == oracle.oracle_triplet_topk(dump, k)

        triples = sorted({r[2] for s in dump.scenes for r in oracle.oracle_triplet_records(s)})
        train_set = {t for i, t in enumerate(triples) if i % 2 == 0}
        assert seen_unseen_report(dump, train_set, ks=(1, 50)) == \
            oracle.oracle_seen_unseen(dump, train_set, ks=(1, 50))

        for task in ("sgcls", "predcls"):
            for constraint in (True, False):
                for k in (1, 5, 20):
                    for mr_mode in ("pooled", "per_scene"):
                        assert recall_at_k(dump, k, task, constraint, mr_mode=mr_mode) == \
                            oracle.oracle_recall_at_k(dump, k, task, constraint, mr_mode=mr_mode)
        checked += 1
    assert checked >= 200
    record(2, f"metric oracle equivalence on {checked} random dumps")


# ---------------------------------------------------------------------------
# criterion 3: unidirectionality


def test_criterion_3_unidirectionality():
    rng = np.random.default_rng(7)
    cfg = ModelConfig(d=8, hidden=8, heads=2, layers=2, d_vis=6, d_emb=8,
                      n_obj=4, n_rel=3, joint=True, seed=1)
    model = ModelState(cfg)
    randomize_params(model, rng)
    provider = EmbeddingProvider(0, 4, 3, 8)

    for trial in range(10):
        scene = prepare_scene(make_sample(rng, k=int(rng.integers(2, 5))))
        joint = forward_scene(model, scene, "joint")
        alone = forward_scene(model, scene, "3d")
        assert np.array_equal(joint.obj_logits_3d.data, alone.obj_logits_3d.data)
        assert np.array_equal(joint.pred_logits_3d.data, alone.pred_logits_3d.data)

    ts = build_train_scene(make_sample(rng, k=4), provider)
    grads = {}
    for mode in (True, False):
        model.zero_grad()
        with Tape() as tape:
            total, _ = scene_loss(model, ts, LossWeights(), vlsat=mode)
            tape.backward(total)
        grads[mode] = {n: model.params[n].grad.copy() for n in model.three_d_param_names()
                       if model.params[n].grad is not None}
    assert any(not np.array_equal(grads[True][n], grads[False][n]) for n in grads[False])
    record(3, "unidirectional forward, oracle-dependent gradients")


# ---------------------------------------------------------------------------
# criterion 4: edge descriptor algebra


def test_criterion_4_edge_descriptor_algebra():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        pts_a = rng.integers(-512, 512, size=(8, 3)).astype(np.float64) / 256.0
        pts_b = rng.integers(-512, 512, size=(16, 3)).astype(np.float64) / 256.0
        a = compute_attributes(SceneInstance(0, pts_a, 0))
        b = compute_attributes(SceneInstance(1, pts_b, 0))
        x_ab, x_ba = descriptor_matrix([a, b], [0, 1], [1, 0])
        assert np.array_equal(x_ab, -x_ba)
        t = rng.integers(-8, 9, size=3).astype(np.float64)
        a2 = compute_attributes(SceneInstance(0, pts_a + t, 0))
        b2 = compute_attributes(SceneInstance(1, pts_b + t, 0))
        assert np.array_equal(x_ab, descriptor_matrix([a2, b2], [0], [1])[0])
    record(4, "edge descriptor antisymmetry and translation invariance, 1000 pairs")


# ---------------------------------------------------------------------------
# criterion 5: masking semantics


def test_criterion_5_masking_semantics():
    rng = np.random.default_rng(13)
    for trial in range(50):
        params = _attention_params(rng, 8)
        k = int(rng.integers(2, 6))
        q = Tensor(rng.standard_normal((k, 8)) * 0.5)
        mask = np.zeros((k, k))
        i, j = rng.integers(0, k, size=2)
        mask[i, j] = -30.0
        # the weights read off the outputs of mhca_node (attention_probe)
        weights = multi_head_weights(
            lambda kv, p: mhca_node(q, kv, Tensor(mask), p, 2, Segments([k])), q, params, 2)
        assert len(weights) == 2
        for w in weights:
            assert w[i, j] < 1e-12

    mask_params = {
        "w1": Tensor(rng.standard_normal((4, 8)) * 0.4, requires_grad=True),
        "b1": Tensor(rng.standard_normal(8) * 0.1, requires_grad=True),
        "w2": Tensor(rng.standard_normal((8, 1)) * 0.4, requires_grad=True),
        "b2": Tensor(rng.standard_normal(1) * 0.1, requires_grad=True),
    }
    for trial in range(100):
        pts = [rng.integers(-512, 512, size=(8, 3)).astype(np.float64) / 256.0 for _ in range(3)]
        t = rng.integers(-8, 9, size=3).astype(np.float64)
        means_a = np.stack([compute_attributes(SceneInstance(0, p, 0)).mean for p in pts])
        means_b = np.stack([compute_attributes(SceneInstance(0, p + t, 0)).mean for p in pts])
        assert np.array_equal(distance_mask(means_a, mask_params, Segments([3])).data,
                              distance_mask(means_b, mask_params, Segments([3])).data)
    record(5, "additive -30 mask suppression and mask translation invariance")


# ---------------------------------------------------------------------------
# criterion 6: loss identities


def test_criterion_6_loss_identities():
    rng = np.random.default_rng(17)

    n_obj = 16
    # each term on one scene: a layout of one segment
    assert abs(loss_obj(Tensor(np.zeros((6, n_obj))), rng.integers(0, n_obj, 6),
                        Segments([6])).item() - np.log(n_obj)) <= 1e-12
    gt = (rng.random((5, 13)) < 0.3).astype(float)
    assert abs(loss_pred(Tensor(np.zeros((5, 13))), gt, Segments([5])).item()
               - np.log(2.0)) <= 1e-12
    rows = rng.standard_normal((4, 8))
    assert loss_tri_emb(Tensor(rows), rows.copy(), Segments([4])).item() == 0.0
    feats = rng.standard_normal((5, 8)) + 2.0
    assert abs(loss_node_init(Tensor(feats), Tensor(feats.copy()), Segments([5])).item()
               + 1.0) <= 1e-12

    # scaling a lambda scales the corresponding gradient block exactly
    cfg = ModelConfig(d=8, hidden=8, heads=2, layers=1, d_vis=6, d_emb=8,
                      n_obj=4, n_rel=3, joint=True, seed=3)
    model = ModelState(cfg)
    randomize_params(model, rng)
    ts = build_train_scene(make_sample(rng, k=3), EmbeddingProvider(1, 4, 3, 8))

    def grad_blocks(weights):
        model.zero_grad()
        with Tape() as tape:
            total, _ = scene_loss(model, ts, weights, vlsat=True)
            tape.backward(total)
        return {n: (p.grad.copy() if p.grad is not None else None)
                for n, p in model.params.items()}

    g1 = grad_blocks(LossWeights(obj=0.1, pred=0.4, aux=0.1))
    g2 = grad_blocks(LossWeights(obj=0.1, pred=2 * 0.4, aux=0.1))
    for name in ("head3d.pred_w", "head3d.pred_b", "head_oracle.pred_w", "head_oracle.pred_b"):
        assert np.array_equal(2.0 * g1[name], g2[name])

    g3 = grad_blocks(LossWeights(obj=2 * 0.1, pred=0.4, aux=0.1))
    for name in ("head3d.obj_w", "head3d.obj_b", "head_oracle.obj_w", "head_oracle.obj_b"):
        assert np.array_equal(2.0 * g1[name], g3[name])

    g4 = grad_blocks(LossWeights(obj=0.1, pred=0.4, aux=2 * 0.1))
    for name in ("fuse.w", "fuse.b"):
        assert np.array_equal(2.0 * g1[name], g4[name])

    terms = {key: Tensor(1.0) for key in TERM_KEYS if key != "loss_total"}
    assert abs(total_loss(terms, LossWeights(0.1, 1.0, 0.1)).item() - 2.4) <= 1e-12
    record(6, "loss closed forms and exact lambda-scaling")


# ---------------------------------------------------------------------------
# criterion 7: classifier init


def test_criterion_7_classifier_init():
    for seed in range(5):
        provider = EmbeddingProvider(seed, n_obj=16, n_rel=13, d_emb=32)
        w, b = init_classifier_from_embeddings(provider, 32)
        for c in range(16):
            logits = provider.object_embeddings[c] @ w + b
            order = np.argsort(-logits)
            assert order[0] == c
            assert logits[order[0]] > logits[order[1]]
    record(7, "embedding-initialized classifiers give strict argmax per class")


# ---------------------------------------------------------------------------
# criteria 8 and 9: training sanity and the directional comparison
# (one shared 3-seed experiment at the default configuration)

SEEDS = (7, 11, 23)


@pytest.fixture(scope="module")
def experiment(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance_experiment")
    args = build_parser().parse_args(["experiment", "--out", str(out)])
    results = {}
    for seed in SEEDS:
        results[seed] = run_experiment_seed(out, seed, {}, args)
    return out, results


def _read_log(out: Path, seed: int, mode: str):
    path = out / f"seed_{seed}" / mode / "train_log.jsonl"
    return [json.loads(line) for line in path.read_text().splitlines()]


@pytest.mark.slow
def test_criterion_8_training_sanity(experiment):
    out, results = experiment
    seed = SEEDS[0]
    for mode in ("baseline", "vlsat"):
        log = _read_log(out, seed, mode)
        assert len(log) == 60
        first = log[0]["loss_total"]
        best = min(rec["loss_total"] for rec in log)
        assert best < 0.5 * first, f"{mode}: best {best} not below half of {first}"

    # bitwise seed reproducibility of the log prefix, re-run in this process
    samples, vocab, manifest = generate_dataset(WorldConfig(seed=seed))
    from sg3d.cli import model_config
    mc = model_config({}, manifest)
    tc = TrainConfig()
    from sg3d.synthetic import provider_from_manifest
    provider = provider_from_manifest(manifest)
    _, _, rerun = train(samples, vocab, provider, mc, tc, stop_epoch=3)
    reference = _read_log(out, seed, "vlsat")[:3]
    assert [json.loads(json.dumps(r)) for r in rerun] == reference
    record(8, "loss halves within 60 epochs for both modes; log bitwise reproducible")


@pytest.mark.slow
def test_criterion_9_directional_gain(experiment):
    out, results = experiment
    tail, unseen = {"baseline": [], "vlsat": []}, {"baseline": [], "vlsat": []}
    for seed in SEEDS:
        for mode in ("baseline", "vlsat"):
            report = results[seed][mode]
            tail[mode].append(report["splits"]["tail"][1])
            unseen[mode].append(report["seen_unseen"]["unseen"][50])
    mean = lambda xs: sum(xs) / len(xs)
    tail_b, tail_v = mean(tail["baseline"]), mean(tail["vlsat"])
    unseen_b, unseen_v = mean(unseen["baseline"]), mean(unseen["vlsat"])
    print(f"\n  tail mA@1: vlsat {100 * tail_v:.2f} vs baseline {100 * tail_b:.2f}")
    print(f"  unseen A@50: vlsat {100 * unseen_v:.2f} vs baseline {100 * unseen_b:.2f}")
    assert tail_v > tail_b
    assert unseen_v > unseen_b
    record(9, "oracle-assisted model beats baseline on tail mA@1 and unseen A@50")


# ---------------------------------------------------------------------------
# criterion 10: ranking-metric structure


def test_criterion_10_ranking_structure():
    rng = np.random.default_rng(23)
    for trial in range(100):
        dump = random_dump(rng, n_scenes=int(rng.integers(1, 4)),
                           n_obj=int(rng.integers(3, 7)), n_rel=int(rng.integers(2, 5)),
                           k_max=5)
        for task in ("sgcls", "predcls"):
            for constraint in (True, False):
                values = [recall_at_k(dump, k, task, constraint)["R"] for k in (1, 3, 10, 30, 80)]
                assert values == sorted(values)
            for k in (1, 3, 10, 30):
                assert recall_at_k(dump, k, task, False)["R"] >= recall_at_k(dump, k, task, True)["R"]
        for constraint in (True, False):
            for k in (1, 3, 10, 30):
                assert recall_at_k(dump, k, "predcls", constraint)["R"] >= \
                    recall_at_k(dump, k, "sgcls", constraint)["R"]
    record(10, "R@k monotone; no-constraint >= constraint; PredCls >= SGCls on 100 dumps")
