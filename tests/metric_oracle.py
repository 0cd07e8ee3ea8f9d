"""Independent exhaustive-enumeration implementations of every metric.

Deliberately written as plain Python loops over explicitly materialized
candidate lists, sharing only the conventions (tie-breaking by ascending
index, left-to-right score products, per-class means summed in class
order) with the production implementation in sg3d.metrics.
"""

from __future__ import annotations

import numpy as np


def pairs_of(k):
    return [(i, j) for i in range(k) for j in range(k) if j != i]


def rank_by_counting(candidates, gt_key):
    """candidates: list of (score, tiebreak_tuple); 1-based rank of gt_key entry."""
    gt_score, gt_tie = None, None
    for score, tie in candidates:
        if tie == gt_key:
            gt_score, gt_tie = score, tie
            break
    assert gt_tie is not None
    rank = 1
    for score, tie in candidates:
        if score > gt_score or (score == gt_score and tie < gt_tie):
            rank += 1
    return rank


def oracle_topk_accuracy(scores, labels, k):
    scores = np.asarray(scores)
    if len(scores) == 0:
        return None
    correct = 0
    for row, label in zip(scores, labels):
        candidates = [(float(row[c]), (c,)) for c in range(len(row))]
        if rank_by_counting(candidates, (int(label),)) <= k:
            correct += 1
    return correct / len(scores)


def oracle_event_counts(scores, multihot, k):
    n_cls = scores.shape[1]
    correct = [0] * n_cls
    total = [0] * n_cls
    for row, gt_row in zip(scores, multihot):
        candidates = [(float(row[c]), (c,)) for c in range(len(row))]
        for c in range(n_cls):
            if gt_row[c]:
                total[c] += 1
                if rank_by_counting(candidates, (c,)) <= k:
                    correct[c] += 1
    return correct, total


def oracle_accuracy_events(scores, multihot, k):
    correct, total = oracle_event_counts(scores, multihot, k)
    if sum(total) == 0:
        return None
    return sum(correct) / sum(total)


def oracle_mean_topk(scores, multihot, k, class_subset=None):
    correct, total = oracle_event_counts(scores, multihot, k)
    fractions = []
    for c in range(scores.shape[1]):
        if total[c] > 0 and (class_subset is None or c in class_subset):
            fractions.append(correct[c] / total[c])
    if not fractions:
        return None
    return sum(fractions) / len(fractions)


def oracle_triplet_records(scene, pool="pair"):
    """list of (predicate, rank, (s_cls, p, o_cls)) for each gt relation."""
    k = scene.k
    n_obj = scene.object_probs.shape[1]
    n_rel = scene.predicate_probs.shape[1]
    pairs = pairs_of(k)

    def pair_candidates(e, i, j, pair_tag):
        cands = []
        for s in range(n_obj):
            for p in range(n_rel):
                for o in range(n_obj):
                    score = (float(scene.object_probs[i, s]) * float(scene.predicate_probs[e, p])) \
                        * float(scene.object_probs[j, o])
                    cands.append((score, (pair_tag, s, p, o)))
        return cands

    records = []
    for e, (i, j) in enumerate(pairs):
        for p in range(n_rel):
            if not scene.gt_predicate_rows[e][p]:
                continue
            s_cls, o_cls = int(scene.gt_objects[i]), int(scene.gt_objects[j])
            if pool == "pair":
                candidates = pair_candidates(e, i, j, 0)
                rank = rank_by_counting(candidates, (0, s_cls, p, o_cls))
            else:
                candidates = []
                for e2, (i2, j2) in enumerate(pairs):
                    candidates.extend(pair_candidates(e2, i2, j2, e2))
                rank = rank_by_counting(candidates, (e, s_cls, p, o_cls))
            records.append((p, rank, (s_cls, p, o_cls)))
    return records


def oracle_triplet_topk(dump, k, pool="pair"):
    records = [r for s in dump.scenes for r in oracle_triplet_records(s, pool)]
    return _oracle_triplet_metrics(records, dump.n_rel, k)


def _oracle_triplet_metrics(records, n_rel, k):
    if not records:
        return {"A": None, "mA": None}
    a = sum(1 for _, rank, _ in records if rank <= k) / len(records)
    fractions = []
    for c in range(n_rel):
        cls = [rank for p, rank, _ in records if p == c]
        if cls:
            fractions.append(sum(1 for rank in cls if rank <= k) / len(cls))
    ma = sum(fractions) / len(fractions) if fractions else None
    return {"A": a, "mA": ma}


def oracle_seen_unseen(dump, train_triplets, ks, pool="pair"):
    records = [r for s in dump.scenes for r in oracle_triplet_records(s, pool)]
    seen = [r for r in records if r[2] in train_triplets]
    unseen = [r for r in records if r[2] not in train_triplets]
    out = {"seen": {}, "unseen": {}}
    for k in ks:
        out["seen"][k] = _oracle_triplet_metrics(seen, dump.n_rel, k)["A"]
        out["unseen"][k] = _oracle_triplet_metrics(unseen, dump.n_rel, k)["A"]
    out["seen_count"] = len(seen)
    out["unseen_count"] = len(unseen)
    return out


def _oracle_argmax(row):
    best, best_v = 0, row[0]
    for c in range(1, len(row)):
        if row[c] > best_v:
            best, best_v = c, row[c]
    return best


def oracle_scene_recall_counts(scene, k, task, constraint, predcls_ranking, n_rel,
                               constraint_mode="shared_pool"):
    pairs = pairs_of(scene.k)
    onehot = task == "predcls" and predcls_ranking == "onehot"
    if onehot:
        labels = [int(c) for c in scene.gt_objects]
        factors = [1.0] * scene.k
    else:
        labels = [_oracle_argmax(scene.object_probs[i]) for i in range(scene.k)]
        factors = [float(scene.object_probs[i, labels[i]]) for i in range(scene.k)]

    restricted = constraint and constraint_mode == "restricted_pool"
    items = []
    for e, (i, j) in enumerate(pairs):
        preds = scene.predicate_probs[e]
        if restricted:
            best = _oracle_argmax(preds)
            items.append(((factors[i] * float(preds[best])) * factors[j], i, j, best))
        else:
            for p in range(n_rel):
                items.append(((factors[i] * float(preds[p])) * factors[j], i, j, p))
    items.sort(key=lambda t: (-t[0], t[1], t[2], t[3]))
    top = {(i, j, p) for _, i, j, p in items[:k]}

    matched = [0] * n_rel
    total = [0] * n_rel
    for e, (i, j) in enumerate(pairs):
        top1 = _oracle_argmax(scene.predicate_probs[e]) if constraint else -1
        for p in range(n_rel):
            if not scene.gt_predicate_rows[e][p]:
                continue
            total[p] += 1
            if constraint and p != top1:
                continue
            if (i, j, p) not in top:
                continue
            if task == "sgcls" and not (labels[i] == scene.gt_objects[i]
                                        and labels[j] == scene.gt_objects[j]):
                continue
            matched[p] += 1
    return matched, total


def oracle_recall_at_k(dump, k, task, constraint, predcls_ranking="shared", mr_mode="pooled",
                       constraint_mode="shared_pool"):
    n_rel = dump.n_rel
    scene_recalls = []
    pooled_m = [0] * n_rel
    pooled_t = [0] * n_rel
    per_scene = []
    for scene in dump.scenes:
        matched, total = oracle_scene_recall_counts(scene, k, task, constraint, predcls_ranking,
                                                    n_rel, constraint_mode)
        if sum(total) == 0:
            continue
        scene_recalls.append(sum(matched) / sum(total))
        for c in range(n_rel):
            pooled_m[c] += matched[c]
            pooled_t[c] += total[c]
        per_scene.append([matched[c] / total[c] if total[c] else None for c in range(n_rel)])
    if not scene_recalls:
        return {"R": None, "mR": None}
    r = sum(scene_recalls) / len(scene_recalls)
    if mr_mode == "pooled":
        fractions = [pooled_m[c] / pooled_t[c] for c in range(n_rel) if pooled_t[c] > 0]
    else:
        fractions = []
        for c in range(n_rel):
            vals = [row[c] for row in per_scene if row[c] is not None]
            if vals:
                fractions.append(sum(vals) / len(vals))
    mr = sum(fractions) / len(fractions) if fractions else None
    return {"R": r, "mR": mr}


def oracle_evaluate(dump, predicate_splits, train_triplets, cfg):
    """The full report of sg3d.metrics.evaluate, built from the functions above."""
    obj_scores = np.concatenate([s.object_probs for s in dump.scenes])
    obj_labels = np.concatenate([s.gt_objects for s in dump.scenes])
    pred_scores = np.concatenate([s.predicate_probs for s in dump.scenes])
    pred_gt = np.concatenate([s.gt_predicate_rows for s in dump.scenes])
    pred_ks = [k for k in cfg.predicate_ks if k <= dump.n_rel]
    report = {
        "config": {"triplet_pool": cfg.triplet_pool, "predcls_ranking": cfg.predcls_ranking,
                   "mr_mode": cfg.mr_mode, "constraint_mode": cfg.constraint_mode,
                   "vocab_hash": dump.vocab_hash, "dump_config_hash": dump.config_hash},
        "object": {"A": {k: oracle_topk_accuracy(obj_scores, obj_labels, k)
                         for k in cfg.object_ks if k <= dump.n_obj}},
        "predicate": {"A": {k: oracle_accuracy_events(pred_scores, pred_gt, k) for k in pred_ks},
                      "mA": {k: oracle_mean_topk(pred_scores, pred_gt, k) for k in pred_ks}},
        "triplet": {name: {k: oracle_triplet_topk(dump, k, cfg.triplet_pool)[name]
                           for k in cfg.triplet_ks} for name in ("A", "mA")},
        "splits": {name: {k: oracle_mean_topk(pred_scores, pred_gt, k, class_subset=set(classes))
                          for k in pred_ks} for name, classes in predicate_splits.items()},
        "seen_unseen": oracle_seen_unseen(dump, train_triplets, cfg.triplet_ks, cfg.triplet_pool),
    }
    for task in ("sgcls", "predcls"):
        report[task] = {}
        for constraint in (True, False):
            per_k = {k: oracle_recall_at_k(dump, k, task, constraint, cfg.predcls_ranking,
                                           cfg.mr_mode, cfg.constraint_mode) for k in cfg.recall_ks}
            report[task]["with_constraint" if constraint else "no_constraint"] = {
                name: {k: r[name] for k, r in per_k.items()} for name in ("R", "mR")}
    return report
