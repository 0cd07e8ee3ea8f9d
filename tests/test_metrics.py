import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sg3d.errors import DataError
from sg3d.metrics import (EvalConfig, PredictionDump, ScenePrediction,
                          accuracy_events, dump_from_jsonl, dump_to_jsonl,
                          evaluate, mean_topk_accuracy, recall_at_k,
                          report_rows, report_to_csv, seen_unseen_report,
                          topk_accuracy, triplet_records, triplet_topk)

import metric_oracle as oracle


def random_scene(rng, n_obj, n_rel, k, scene_id="s"):
    obj = rng.random((k, n_obj)) + 1e-6
    obj = obj / obj.sum(axis=1, keepdims=True)
    e = k * (k - 1)
    preds = rng.random((e, n_rel))
    gt_obj = rng.integers(0, n_obj, size=k)
    gt_rows = (rng.random((e, n_rel)) < 0.25).astype(np.uint8)
    return ScenePrediction(scene_id=scene_id, object_probs=obj, predicate_probs=preds,
                           gt_objects=gt_obj.astype(np.intp), gt_predicate_rows=gt_rows)


def random_dump(rng, n_scenes=3, n_obj=5, n_rel=4, k_max=5):
    scenes = [random_scene(rng, n_obj, n_rel, int(rng.integers(2, k_max + 1)), f"s{i}")
              for i in range(n_scenes)]
    return PredictionDump(scenes=scenes, n_obj=n_obj, n_rel=n_rel)


def tied_dump(rng, n_scenes=3, n_obj=3, n_rel=3, k_max=4):
    """Random dump whose scores are coarse enough to tie often: object rows are
    normalised small integer weights, predicate scores are rounded to 0.25."""
    scenes = []
    for i in range(n_scenes):
        k = int(rng.integers(1, k_max + 1))
        e = k * (k - 1)
        weights = rng.integers(1, 4, size=(k, n_obj)).astype(np.float64)
        scenes.append(ScenePrediction(
            scene_id=f"s{i}", object_probs=weights / weights.sum(axis=1, keepdims=True),
            predicate_probs=rng.integers(0, 5, size=(e, n_rel)) / 4.0,
            gt_objects=rng.integers(0, n_obj, size=k).astype(np.intp),
            gt_predicate_rows=(rng.random((e, n_rel)) < 0.3).astype(np.uint8)))
    return PredictionDump(scenes=scenes, n_obj=n_obj, n_rel=n_rel)


class TestTopkAccuracy:
    def test_perfect_one_hot(self):
        scores = np.eye(4)
        assert topk_accuracy(scores, np.arange(4), 1) == 1.0

    def test_second_highest(self):
        scores = np.array([[0.5, 1.0], [0.3, 0.9]])
        gt = np.array([0, 0])
        assert topk_accuracy(scores, gt, 1) == 0.0
        assert topk_accuracy(scores, gt, 2) == 1.0

    def test_empty_is_absent(self):
        assert topk_accuracy(np.zeros((0, 3)), np.zeros(0, dtype=int), 1) is None

    def test_matches_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            scores = rng.random((50, 8))
            gt = rng.integers(0, 8, size=50)
            for k in (1, 2, 5):
                assert topk_accuracy(scores, gt, k) == oracle.oracle_topk_accuracy(scores, gt, k)

    def test_tie_break_by_index(self):
        scores = np.array([[0.5, 0.5, 0.1]])
        assert topk_accuracy(scores, [0], 1) == 1.0  # index 0 wins the tie
        assert topk_accuracy(scores, [1], 1) == 0.0
        assert topk_accuracy(scores, [1], 2) == 1.0


class TestMeanTopk:
    def test_longtail_debias(self):
        # class 0: 99 rows correct; class 1: one row wrong -> A=0.99, mA=0.5
        scores = np.zeros((100, 2))
        scores[:, 0] = 1.0
        gt = np.zeros(100, dtype=int)
        gt[-1] = 1
        assert topk_accuracy(scores, gt, 1) == 0.99
        assert mean_topk_accuracy(scores, gt, 1) == 0.5

    def test_single_class_equals_plain(self):
        rng = np.random.default_rng(1)
        scores = rng.random((30, 4))
        gt = np.full(30, 2)
        assert mean_topk_accuracy(scores, gt, 1) == topk_accuracy(scores, gt, 1)

    def test_multilabel_matches_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            scores = rng.random((20, 5))
            multihot = (rng.random((20, 5)) < 0.3).astype(np.uint8)
            for k in (1, 2, 3):
                assert mean_topk_accuracy(scores, multihot, k) == \
                    oracle.oracle_mean_topk(scores, multihot, k)
                assert accuracy_events(scores, multihot, k) == \
                    oracle.oracle_accuracy_events(scores, multihot, k)


class TestTripletTopk:
    def test_perfect_probabilities(self):
        rng = np.random.default_rng(3)
        scene = random_scene(rng, 4, 3, 3)
        scene.object_probs = np.zeros_like(scene.object_probs)
        for i, c in enumerate(scene.gt_objects):
            scene.object_probs[i, c] = 1.0
        scene.predicate_probs = scene.gt_predicate_rows.astype(np.float64)
        dump = PredictionDump([scene], 4, 3)
        assert triplet_topk(dump, 1)["A"] == 1.0

    def test_zero_gt_probability_ranks_last_in_rel_block(self):
        scene = random_scene(np.random.default_rng(4), 3, 2, 2)
        scene.gt_predicate_rows[:] = 0
        scene.gt_predicate_rows[0, 0] = 1
        scene.predicate_probs[0, 0] = 0.0
        scene.predicate_probs[0, 1] = 0.8
        dump = PredictionDump([scene], 3, 2)
        # all 9 candidates with predicate 1 outrank every predicate-0 candidate
        rec = triplet_topk(dump, 9)
        assert rec["A"] == 0.0

    def test_exhaustive_small_case(self):
        rng = np.random.default_rng(5)
        scene = random_scene(rng, 3, 2, 2)
        dump = PredictionDump([scene], 3, 2)
        for k in (1, 3, 9, 18):
            assert triplet_topk(dump, k) == oracle.oracle_triplet_topk(dump, k)

    @pytest.mark.parametrize("pool", ["pair", "scene"])
    def test_records_match_oracle(self, pool):
        rng = np.random.default_rng(12)
        for scene in tied_dump(rng, n_scenes=8).scenes:
            ranks, preds, keys = triplet_records(scene, pool)
            assert list(zip(preds.tolist(), ranks.tolist(), map(tuple, keys.tolist()))) == \
                oracle.oracle_triplet_records(scene, pool)

    def test_scene_pool_matches_oracle(self):
        rng = np.random.default_rng(6)
        dump = random_dump(rng, n_scenes=2, n_obj=3, n_rel=2, k_max=3)
        for k in (1, 5, 20):
            assert triplet_topk(dump, k, pool="scene") == \
                oracle.oracle_triplet_topk(dump, k, pool="scene")


class TestRecall:
    def test_no_constraint_geq_with_constraint(self):
        rng = np.random.default_rng(7)
        for trial in range(30):
            dump = random_dump(rng)
            for task in ("sgcls", "predcls"):
                for k in (1, 5, 20):
                    rc = recall_at_k(dump, k, task, True)["R"]
                    rn = recall_at_k(dump, k, task, False)["R"]
                    assert rn >= rc

    def test_single_relation_perfect(self):
        rng = np.random.default_rng(8)
        scene = random_scene(rng, 3, 2, 2)
        scene.object_probs = np.zeros_like(scene.object_probs)
        for i, c in enumerate(scene.gt_objects):
            scene.object_probs[i, c] = 1.0
        scene.gt_predicate_rows[:] = 0
        scene.gt_predicate_rows[0, 1] = 1
        scene.predicate_probs[:] = 0.0
        scene.predicate_probs[0, 1] = 1.0
        dump = PredictionDump([scene], 3, 2)
        for constraint in (True, False):
            assert recall_at_k(dump, 1, "sgcls", constraint)["R"] == 1.0
            assert recall_at_k(dump, 1, "predcls", constraint)["R"] == 1.0

    def test_matches_oracle(self):
        rng = np.random.default_rng(9)
        for trial in range(15):
            dump = random_dump(rng)
            for task in ("sgcls", "predcls"):
                for constraint in (True, False):
                    for k in (1, 3, 20):
                        for mr_mode in ("pooled", "per_scene"):
                            mine = recall_at_k(dump, k, task, constraint, mr_mode=mr_mode)
                            ref = oracle.oracle_recall_at_k(dump, k, task, constraint, mr_mode=mr_mode)
                            assert mine == ref

    def test_predcls_geq_sgcls(self):
        rng = np.random.default_rng(10)
        for trial in range(50):
            dump = random_dump(rng)
            for constraint in (True, False):
                for k in (1, 3, 20, 50):
                    p = recall_at_k(dump, k, "predcls", constraint)["R"]
                    s = recall_at_k(dump, k, "sgcls", constraint)["R"]
                    assert p >= s

    def test_monotone_in_k(self):
        rng = np.random.default_rng(11)
        for trial in range(10):
            dump = random_dump(rng)
            for task in ("sgcls", "predcls"):
                for constraint in (True, False):
                    values = [recall_at_k(dump, k, task, constraint)["R"] for k in (1, 2, 5, 10, 30)]
                    assert values == sorted(values)

    def test_onehot_ranking_mode(self):
        rng = np.random.default_rng(12)
        dump = random_dump(rng)
        mine = recall_at_k(dump, 3, "predcls", True, predcls_ranking="onehot")
        ref = oracle.oracle_recall_at_k(dump, 3, "predcls", True, predcls_ranking="onehot")
        assert mine == ref


class TestSeenUnseen:
    def test_partition_counts(self):
        rng = np.random.default_rng(13)
        dump = random_dump(rng)
        all_records = sum(len(oracle.oracle_triplet_records(s)) for s in dump.scenes)
        report = seen_unseen_report(dump, train_triplets=set())
        assert report["unseen_count"] == all_records
        assert report["seen_count"] == 0
        assert report["seen"][50] is None

    def test_all_seen(self):
        rng = np.random.default_rng(14)
        dump = random_dump(rng)
        triples = {r[2] for s in dump.scenes for r in oracle.oracle_triplet_records(s)}
        report = seen_unseen_report(dump, train_triplets=triples)
        assert report["unseen_count"] == 0
        assert report["unseen"][50] is None

    def test_mixed_matches_oracle(self):
        rng = np.random.default_rng(15)
        dump = random_dump(rng)
        triples = sorted({r[2] for s in dump.scenes for r in oracle.oracle_triplet_records(s)})
        subset = {t for i, t in enumerate(triples) if i % 2 == 0}
        mine = seen_unseen_report(dump, subset, ks=(1, 5, 50))
        ref = oracle.oracle_seen_unseen(dump, subset, ks=(1, 5, 50))
        assert mine == ref


class TestSplitsAndReport:
    def test_split_restriction(self):
        rng = np.random.default_rng(16)
        dump = random_dump(rng, n_rel=4)
        pred_scores = np.concatenate([s.predicate_probs for s in dump.scenes])
        pred_gt = np.concatenate([s.gt_predicate_rows for s in dump.scenes])
        full = mean_topk_accuracy(pred_scores, pred_gt, 1)
        head = mean_topk_accuracy(pred_scores, pred_gt, 1, class_subset={0, 1})
        tail = mean_topk_accuracy(pred_scores, pred_gt, 1, class_subset={2, 3})
        assert full is not None and head is not None and tail is not None
        ref_head = oracle.oracle_mean_topk(pred_scores, pred_gt, 1, class_subset={0, 1})
        assert head == ref_head

    def test_empty_split_absent(self):
        rng = np.random.default_rng(17)
        dump = random_dump(rng, n_rel=4)
        for s in dump.scenes:
            s.gt_predicate_rows[:, 3] = 0
        pred_scores = np.concatenate([s.predicate_probs for s in dump.scenes])
        pred_gt = np.concatenate([s.gt_predicate_rows for s in dump.scenes])
        assert mean_topk_accuracy(pred_scores, pred_gt, 1, class_subset={3}) is None

    def test_full_report_and_csv(self):
        rng = np.random.default_rng(18)
        dump = random_dump(rng, n_obj=6, n_rel=4)
        splits = {"head": {0, 1}, "body": {2}, "tail": {3}}
        report = evaluate(dump, predicate_splits=splits, train_triplets={(0, 0, 1)},
                          cfg=EvalConfig(object_ks=(1, 5), predicate_ks=(1, 3),
                                         triplet_ks=(5, 50), recall_ks=(5, 20)))
        rows = report_rows(report)
        assert all(0.0 <= r["value"] <= 100.0 for r in rows)
        csv = report_to_csv(report)
        assert csv.startswith("metric,k,value,split,constraint")
        assert "sgcls_R" in csv and "predcls_mR" in csv

    def test_dump_round_trip(self):
        rng = np.random.default_rng(19)
        dump = random_dump(rng)
        dump.vocab_hash = "abc"
        text = dump_to_jsonl(dump, tool_version="0.1.0")
        again = dump_from_jsonl(text)
        assert again.vocab_hash == "abc"
        assert len(again.scenes) == len(dump.scenes)
        r1 = evaluate(dump)
        r2 = evaluate(again)
        assert r1 == r2

    def test_invalid_dump_rejected(self):
        rng = np.random.default_rng(20)
        dump = random_dump(rng)
        dump.scenes[0].object_probs[0, 0] += 0.5
        with pytest.raises(DataError):
            evaluate(dump)


MODES = list(itertools.product(("pair", "scene"), ("shared", "onehot"), ("pooled", "per_scene"),
                               ("shared_pool", "restricted_pool")))


@pytest.mark.parametrize("triplet_pool,predcls_ranking,mr_mode,constraint_mode", MODES,
                         ids=["-".join(m) for m in MODES])
def test_evaluate_matches_oracle_report(triplet_pool, predcls_ranking, mr_mode, constraint_mode):
    rng = np.random.default_rng(31)
    cfg = EvalConfig(object_ks=(1, 2, 5), predicate_ks=(1, 2, 3), triplet_ks=(1, 5, 30),
                     recall_ks=(1, 3, 10, 40), triplet_pool=triplet_pool,
                     predcls_ranking=predcls_ranking, mr_mode=mr_mode, constraint_mode=constraint_mode)
    for _ in range(4):
        dump = tied_dump(rng, n_scenes=int(rng.integers(1, 4)), n_obj=int(rng.integers(2, 5)),
                         n_rel=int(rng.integers(2, 4)))
        triples = sorted({r[2] for s in dump.scenes for r in oracle.oracle_triplet_records(s)})
        train_triplets = {t for i, t in enumerate(triples) if i % 2 == 0}
        splits = {"head": {0}, "tail": set(range(1, dump.n_rel))}
        assert evaluate(dump, splits, train_triplets, cfg) == \
            oracle.oracle_evaluate(dump, splits, train_triplets, cfg)


RECALL_KS = (1, 2, 3, 5, 10, 30, 100)


def _recall_report(seed, predcls_ranking, constraint_mode, mr_mode="pooled"):
    dump = tied_dump(np.random.default_rng(seed), n_obj=3, n_rel=3, k_max=5)
    return evaluate(dump, cfg=EvalConfig(recall_ks=RECALL_KS, predcls_ranking=predcls_ranking,
                                         constraint_mode=constraint_mode, mr_mode=mr_mode))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(MODES))
def test_recall_monotone_in_k_for_every_variant(seed, mode):
    _, predcls_ranking, mr_mode, constraint_mode = mode
    report = _recall_report(seed, predcls_ranking, constraint_mode, mr_mode)
    for task in ("sgcls", "predcls"):
        for bucket in ("with_constraint", "no_constraint"):
            values = [report[task][bucket]["R"][k] for k in RECALL_KS]
            if values[0] is not None:
                assert values == sorted(values)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["shared_pool", "restricted_pool"]))
def test_predcls_geq_sgcls_under_shared_ranking(seed, constraint_mode):
    report = _recall_report(seed, "shared", constraint_mode)
    for bucket in ("with_constraint", "no_constraint"):
        for k in RECALL_KS:
            sg, pc = report["sgcls"][bucket]["R"][k], report["predcls"][bucket]["R"][k]
            assert sg is None or pc >= sg


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["shared", "onehot"]))
def test_no_constraint_geq_constraint_under_shared_pool(seed, predcls_ranking):
    report = _recall_report(seed, predcls_ranking, "shared_pool")
    for task in ("sgcls", "predcls"):
        for k in RECALL_KS:
            wc, nc = report[task]["with_constraint"]["R"][k], report[task]["no_constraint"]["R"][k]
            assert wc is None or nc >= wc
