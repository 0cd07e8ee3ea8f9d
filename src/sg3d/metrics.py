"""Evaluation protocol: top-k / mean top-k accuracy, pair-local triplet
ranking, scene-level recall with and without graph constraint,
head/body/tail breakdowns and seen/unseen triplet accounting.

Determinism and oracle agreement:
  * ranks are computed by counting strictly-better candidates, ties broken
    by ascending class index (lexicographic (s, p, o) for triplets);
  * triplet scores multiply left to right: (P_subj * P_pred) * P_obj;
  * per-class means sum fractions in class-index order and divide once.
An independent exhaustive-enumeration implementation following the same
conventions reproduces every number bitwise.

PredCls substitutes ground-truth object labels. By default it keeps the
scene ranking of SGCls and only waives the label-match requirement, so
supplying ground-truth objects can only help (PredCls >= SGCls holds for
every dump and k). The conventional variant that also re-ranks with
object probability 1 at the ground truth is available as
predcls_ranking="onehot".
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .scene import ordered_pairs

OBJECT_KS = (1, 5, 10)
PREDICATE_KS = (1, 3, 5)
TRIPLET_KS = (50, 100)
RECALL_KS = (20, 50, 100)


@dataclass
class ScenePrediction:
    scene_id: str
    object_probs: np.ndarray       # (K, N_obj), rows sum to 1
    predicate_probs: np.ndarray    # (E, N_rel), elementwise in [0, 1]
    gt_objects: np.ndarray         # (K,)
    gt_predicate_rows: np.ndarray  # (E, N_rel) binary, canonical pair order

    @property
    def k(self) -> int:
        return self.object_probs.shape[0]

    def validate(self) -> None:
        k = self.k
        e = k * (k - 1)
        if self.predicate_probs.shape[0] != e or self.gt_predicate_rows.shape[0] != e:
            raise DataError(f"scene {self.scene_id}: pair rows do not match K={k}")
        if np.any(np.abs(self.object_probs.sum(axis=1) - 1.0) > 1e-9):
            raise DataError(f"scene {self.scene_id}: object probability rows must sum to 1")
        if np.any(self.predicate_probs < 0) or np.any(self.predicate_probs > 1):
            raise DataError(f"scene {self.scene_id}: predicate probabilities must lie in [0, 1]")


@dataclass
class PredictionDump:
    scenes: list[ScenePrediction]
    n_obj: int
    n_rel: int
    vocab_hash: str = ""
    config_hash: str = ""

    def validate(self) -> None:
        for s in self.scenes:
            s.validate()


# ---------------------------------------------------------------------------
# rank primitives


def _rank_in_row(scores: np.ndarray, label: int) -> int:
    """1-based rank of `label`; ties broken by ascending class index."""
    s = scores[label]
    greater = int((scores > s).sum())
    tie_before = int((scores[:label] == s).sum())
    return 1 + greater + tie_before


def topk_accuracy(scores: np.ndarray, labels: np.ndarray, k: int) -> float | None:
    """Fraction of rows whose label ranks within the top k; None when empty."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.intp)
    if scores.shape[0] == 0:
        return None
    if k > scores.shape[1]:
        raise DataError(f"k={k} exceeds {scores.shape[1]} classes")
    correct = sum(1 for row, lab in zip(scores, labels) if _rank_in_row(row, int(lab)) <= k)
    return correct / scores.shape[0]


def _event_counts(scores: np.ndarray, multihot: np.ndarray, k: int) -> tuple[list[int], list[int]]:
    """Per-class (correct, total) over all (row, gt-class) events."""
    n_cls = scores.shape[1]
    correct = [0] * n_cls
    total = [0] * n_cls
    for row, gt_row in zip(scores, multihot):
        for c in np.nonzero(gt_row)[0]:
            c = int(c)
            total[c] += 1
            if _rank_in_row(row, c) <= k:
                correct[c] += 1
    return correct, total


def _labels_to_multihot(labels: np.ndarray, n_cls: int) -> np.ndarray:
    out = np.zeros((len(labels), n_cls), dtype=np.uint8)
    out[np.arange(len(labels)), np.asarray(labels, dtype=np.intp)] = 1
    return out


def accuracy_events(scores: np.ndarray, multihot: np.ndarray, k: int) -> float | None:
    """Plain A@k over (row, gt-class) events (multi-label rows contribute once per class)."""
    correct, total = _event_counts(scores, multihot, k)
    if sum(total) == 0:
        return None
    return sum(correct) / sum(total)


def mean_topk_accuracy(scores: np.ndarray, gt, k: int,
                       class_subset: set[int] | None = None) -> float | None:
    """Unweighted mean over classes (with >= 1 gt occurrence) of per-class A@k."""
    scores = np.asarray(scores, dtype=np.float64)
    gt = np.asarray(gt)
    multihot = gt if gt.ndim == 2 else _labels_to_multihot(gt, scores.shape[1])
    correct, total = _event_counts(scores, multihot, k)
    fractions = [correct[c] / total[c] for c in range(scores.shape[1])
                 if total[c] > 0 and (class_subset is None or c in class_subset)]
    if not fractions:
        return None
    return sum(fractions) / len(fractions)


# ---------------------------------------------------------------------------
# triplet ranking (pair-local candidate pool by default)


@dataclass
class TripletRecord:
    predicate: int
    rank: int
    key: tuple[int, int, int]  # (subject class, predicate, object class)


def _pair_cube(obj_i: np.ndarray, pred_row: np.ndarray, obj_j: np.ndarray) -> np.ndarray:
    # score(s, p, o) = (P_subj(s) * P_pred(p)) * P_obj(o); C-order ravel is
    # lexicographic in (s, p, o), which is the tie-break order
    return ((obj_i[:, None] * pred_row[None, :])[:, :, None] * obj_j[None, None, :]).ravel()


def triplet_records(scene: ScenePrediction, pool: str = "pair") -> list[TripletRecord]:
    """Rank every gt relation among its candidate triplets."""
    if pool not in ("pair", "scene"):
        raise DataError(f"unknown triplet pool {pool!r}")
    k = scene.k
    n_obj = scene.object_probs.shape[1]
    n_rel = scene.predicate_probs.shape[1]
    pairs = ordered_pairs(k)
    cubes = [_pair_cube(scene.object_probs[i], scene.predicate_probs[e], scene.object_probs[j])
             for e, (i, j) in enumerate(pairs)]
    records = []
    for e, (i, j) in enumerate(pairs):
        gt_preds = np.nonzero(scene.gt_predicate_rows[e])[0]
        if len(gt_preds) == 0:
            continue
        s_cls = int(scene.gt_objects[i])
        o_cls = int(scene.gt_objects[j])
        flat = cubes[e]
        for p in gt_preds:
            p = int(p)
            idx = (s_cls * n_rel + p) * n_obj + o_cls
            score = flat[idx]
            rank = 1 + int((flat > score).sum()) + int((flat[:idx] == score).sum())
            if pool == "scene":
                for e2 in range(len(pairs)):
                    if e2 == e:
                        continue
                    other = cubes[e2]
                    rank += int((other > score).sum())
                    if e2 < e:
                        rank += int((other == score).sum())
            records.append(TripletRecord(predicate=p, rank=rank, key=(s_cls, p, o_cls)))
    return records


def _triplet_metrics(records: list[TripletRecord], n_rel: int, k: int) -> tuple[float | None, float | None]:
    if not records:
        return None, None
    a_at_k = sum(1 for r in records if r.rank <= k) / len(records)
    fractions = []
    for c in range(n_rel):
        cls = [r for r in records if r.predicate == c]
        if cls:
            fractions.append(sum(1 for r in cls if r.rank <= k) / len(cls))
    ma_at_k = sum(fractions) / len(fractions) if fractions else None
    return a_at_k, ma_at_k


def triplet_topk(dump: PredictionDump, k: int, pool: str = "pair") -> dict:
    """Triplet A@k and mA@k over all gt relations in the dump."""
    records = [r for s in dump.scenes for r in triplet_records(s, pool)]
    a, ma = _triplet_metrics(records, dump.n_rel, k)
    return {"A": a, "mA": ma}


def seen_unseen_report(dump: PredictionDump, train_triplets: set[tuple[int, int, int]],
                       ks=TRIPLET_KS, pool: str = "pair") -> dict:
    """Triplet A@k restricted to relations whose class triple was / wasn't seen in training."""
    records = [r for s in dump.scenes for r in triplet_records(s, pool)]
    seen = [r for r in records if r.key in train_triplets]
    unseen = [r for r in records if r.key not in train_triplets]
    out = {"seen": {}, "unseen": {}}
    for k in ks:
        out["seen"][k] = _triplet_metrics(seen, dump.n_rel, k)[0]
        out["unseen"][k] = _triplet_metrics(unseen, dump.n_rel, k)[0]
    out["seen_count"] = len(seen)
    out["unseen_count"] = len(unseen)
    return out


# ---------------------------------------------------------------------------
# scene-level recall


def _argmax(row: np.ndarray) -> int:
    return int(np.argmax(row))  # first max = lowest index on ties


def _scene_items(scene: ScenePrediction, task: str, predcls_ranking: str,
                 restricted: bool) -> tuple[list[tuple[float, int, int, int]], np.ndarray, list]:
    """Ranked candidate items (score, i, j, p) plus the object labels used."""
    k = scene.k
    pairs = ordered_pairs(k)
    onehot = task == "predcls" and predcls_ranking == "onehot"
    if onehot:
        labels = scene.gt_objects.astype(np.intp)
        factors = np.ones(k)
    else:
        labels = np.array([_argmax(r) for r in scene.object_probs], dtype=np.intp)
        factors = np.array([scene.object_probs[i, labels[i]] for i in range(k)])
    items = []
    for e, (i, j) in enumerate(pairs):
        preds = scene.predicate_probs[e]
        if restricted:
            p_best = _argmax(preds)
            items.append(((factors[i] * preds[p_best]) * factors[j], i, j, p_best))
        else:
            for p in range(len(preds)):
                items.append(((factors[i] * preds[p]) * factors[j], i, j, p))
    items.sort(key=lambda t: (-t[0], t[1], t[2], t[3]))
    return items, labels, pairs


def _scene_recall_counts(scene: ScenePrediction, k: int, task: str, constraint: bool,
                         predcls_ranking: str, n_rel: int,
                         constraint_mode: str = "shared_pool") -> tuple[list[int], list[int]]:
    """Per-predicate-class (matched, total) gt counts for one scene.

    constraint_mode "shared_pool" (default) ranks the same full candidate
    list in both modes; the graph constraint only disqualifies matches
    whose predicate is not the pair's top-1 (so no-constraint recall is
    >= with-constraint recall on every dump). "restricted_pool" is the
    conventional variant that ranks one top-1 item per pair instead.
    """
    restricted = constraint and constraint_mode == "restricted_pool"
    items, labels, pairs = _scene_items(scene, task, predcls_ranking, restricted)
    top = set()
    for score, i, j, p in items[:k]:
        top.add((i, j, p))
    require_labels = task == "sgcls"
    matched = [0] * n_rel
    total = [0] * n_rel
    for e, (i, j) in enumerate(pairs):
        top1 = _argmax(scene.predicate_probs[e]) if constraint else -1
        for p in np.nonzero(scene.gt_predicate_rows[e])[0]:
            p = int(p)
            total[p] += 1
            if constraint and p != top1:
                continue
            if (i, j, p) not in top:
                continue
            if require_labels and not (labels[i] == scene.gt_objects[i] and labels[j] == scene.gt_objects[j]):
                continue
            matched[p] += 1
    return matched, total


def recall_at_k(dump: PredictionDump, k: int, task: str, constraint: bool,
                predcls_ranking: str = "shared", mr_mode: str = "pooled",
                constraint_mode: str = "shared_pool") -> dict:
    """Scene-level R@k (macro over scenes) and per-class mR@k.

    task: "sgcls" | "predcls". mr_mode "pooled" pools class counts across
    scenes; "per_scene" averages per-scene class recalls first.
    """
    task = task.lower()
    if task not in ("sgcls", "predcls"):
        raise DataError(f"unknown task {task!r}")
    if k < 1:
        raise DataError("k must be >= 1")
    n_rel = dump.n_rel
    scene_recalls = []
    pooled_matched = [0] * n_rel
    pooled_total = [0] * n_rel
    per_scene_class: list[list[float | None]] = []
    for scene in dump.scenes:
        matched, total = _scene_recall_counts(scene, k, task, constraint, predcls_ranking,
                                              n_rel, constraint_mode)
        if sum(total) == 0:
            continue
        scene_recalls.append(sum(matched) / sum(total))
        for c in range(n_rel):
            pooled_matched[c] += matched[c]
            pooled_total[c] += total[c]
        per_scene_class.append([matched[c] / total[c] if total[c] else None for c in range(n_rel)])

    if not scene_recalls:
        return {"R": None, "mR": None}
    r_at_k = sum(scene_recalls) / len(scene_recalls)

    if mr_mode == "pooled":
        fractions = [pooled_matched[c] / pooled_total[c] for c in range(n_rel) if pooled_total[c] > 0]
    elif mr_mode == "per_scene":
        fractions = []
        for c in range(n_rel):
            vals = [row[c] for row in per_scene_class if row[c] is not None]
            if vals:
                fractions.append(sum(vals) / len(vals))
    else:
        raise DataError(f"unknown mr_mode {mr_mode!r}")
    mr = sum(fractions) / len(fractions) if fractions else None
    return {"R": r_at_k, "mR": mr}


# ---------------------------------------------------------------------------
# full report


@dataclass
class EvalConfig:
    object_ks: tuple = OBJECT_KS
    predicate_ks: tuple = PREDICATE_KS
    triplet_ks: tuple = TRIPLET_KS
    recall_ks: tuple = RECALL_KS
    triplet_pool: str = "pair"
    predcls_ranking: str = "shared"
    mr_mode: str = "pooled"
    constraint_mode: str = "shared_pool"


def evaluate(dump: PredictionDump, predicate_splits: dict[str, set[int]] | None = None,
             train_triplets: set[tuple[int, int, int]] | None = None,
             cfg: EvalConfig | None = None) -> dict:
    """Compute the full metric report for a prediction dump."""
    cfg = cfg or EvalConfig()
    dump.validate()

    obj_scores = np.concatenate([s.object_probs for s in dump.scenes]) \
        if dump.scenes else np.zeros((0, dump.n_obj))
    obj_labels = np.concatenate([s.gt_objects for s in dump.scenes]) \
        if dump.scenes else np.zeros(0, dtype=np.intp)
    pred_scores = np.concatenate([s.predicate_probs for s in dump.scenes]) \
        if dump.scenes else np.zeros((0, dump.n_rel))
    pred_gt = np.concatenate([s.gt_predicate_rows for s in dump.scenes]) \
        if dump.scenes else np.zeros((0, dump.n_rel))

    report: dict = {
        "config": {
            "triplet_pool": cfg.triplet_pool,
            "predcls_ranking": cfg.predcls_ranking,
            "mr_mode": cfg.mr_mode,
            "constraint_mode": cfg.constraint_mode,
            "vocab_hash": dump.vocab_hash,
            "dump_config_hash": dump.config_hash,
        },
        "object": {"A": {}},
        "predicate": {"A": {}, "mA": {}},
        "triplet": {"A": {}, "mA": {}},
        "sgcls": {"with_constraint": {"R": {}, "mR": {}}, "no_constraint": {"R": {}, "mR": {}}},
        "predcls": {"with_constraint": {"R": {}, "mR": {}}, "no_constraint": {"R": {}, "mR": {}}},
        "splits": {},
        "seen_unseen": None,
    }

    for k in cfg.object_ks:
        if k <= dump.n_obj:
            report["object"]["A"][k] = topk_accuracy(obj_scores, obj_labels, k)
    for k in cfg.predicate_ks:
        if k <= dump.n_rel:
            report["predicate"]["A"][k] = accuracy_events(pred_scores, pred_gt, k)
            report["predicate"]["mA"][k] = mean_topk_accuracy(pred_scores, pred_gt, k)
    for k in cfg.triplet_ks:
        t = triplet_topk(dump, k, cfg.triplet_pool)
        report["triplet"]["A"][k] = t["A"]
        report["triplet"]["mA"][k] = t["mA"]
    for task in ("sgcls", "predcls"):
        for constraint in (True, False):
            bucket = report[task]["with_constraint" if constraint else "no_constraint"]
            for k in cfg.recall_ks:
                r = recall_at_k(dump, k, task, constraint, cfg.predcls_ranking,
                                cfg.mr_mode, cfg.constraint_mode)
                bucket["R"][k] = r["R"]
                bucket["mR"][k] = r["mR"]

    if predicate_splits:
        for split_name, classes in predicate_splits.items():
            per_split = {}
            for k in cfg.predicate_ks:
                if k <= dump.n_rel:
                    per_split[k] = mean_topk_accuracy(pred_scores, pred_gt, k, class_subset=set(classes))
            report["splits"][split_name] = per_split
    if train_triplets is not None:
        report["seen_unseen"] = seen_unseen_report(dump, train_triplets, cfg.triplet_ks, cfg.triplet_pool)
    return report


def report_rows(report: dict) -> list[dict]:
    """Flatten a report to CSV-friendly rows {metric, k, value, split, constraint}."""
    rows = []

    def emit(metric, k, value, split="", constraint=""):
        if value is not None:
            rows.append({"metric": metric, "k": k, "value": 100.0 * value,
                         "split": split, "constraint": constraint})

    for k, v in report["object"]["A"].items():
        emit("object_A", k, v)
    for name in ("A", "mA"):
        for k, v in report["predicate"][name].items():
            emit(f"predicate_{name}", k, v)
        for k, v in report["triplet"][name].items():
            emit(f"triplet_{name}", k, v)
    for task in ("sgcls", "predcls"):
        for ckey, cname in (("with_constraint", "with"), ("no_constraint", "without")):
            for name in ("R", "mR"):
                for k, v in report[task][ckey][name].items():
                    emit(f"{task}_{name}", k, v, constraint=cname)
    for split_name, per_k in report.get("splits", {}).items():
        for k, v in per_k.items():
            emit("predicate_mA", k, v, split=split_name)
    su = report.get("seen_unseen")
    if su:
        for bucket in ("seen", "unseen"):
            for k, v in su[bucket].items():
                if isinstance(k, int):
                    emit("triplet_A", k, v, split=bucket)
    return rows


def report_to_csv(report: dict) -> str:
    lines = ["metric,k,value,split,constraint"]
    for row in report_rows(report):
        lines.append(f"{row['metric']},{row['k']},{row['value']:.6f},{row['split']},{row['constraint']}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# dump serialization


def dump_to_jsonl(dump: PredictionDump, tool_version: str = "") -> str:
    header = {"kind": "sg3d-dump", "n_obj": dump.n_obj, "n_rel": dump.n_rel,
              "vocab_hash": dump.vocab_hash, "config_hash": dump.config_hash,
              "tool_version": tool_version}
    lines = [json.dumps(header, sort_keys=True, separators=(",", ":"))]
    for s in dump.scenes:
        record = {
            "scene_id": s.scene_id,
            "object_probs": s.object_probs.tolist(),
            "predicate_probs": s.predicate_probs.tolist(),
            "gt_objects": s.gt_objects.tolist(),
            "gt_predicates": s.gt_predicate_rows.astype(int).tolist(),
        }
        lines.append(json.dumps(record, sort_keys=True, separators=(",", ":")))
    return "\n".join(lines) + "\n"


def dump_from_jsonl(text: str) -> PredictionDump:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise DataError("empty prediction dump")
    header = json.loads(lines[0])
    if header.get("kind") != "sg3d-dump":
        raise DataError("not a prediction dump (missing header)")
    scenes = []
    for ln in lines[1:]:
        rec = json.loads(ln)
        scenes.append(ScenePrediction(
            scene_id=rec["scene_id"],
            object_probs=np.asarray(rec["object_probs"], dtype=np.float64),
            predicate_probs=np.asarray(rec["predicate_probs"], dtype=np.float64),
            gt_objects=np.asarray(rec["gt_objects"], dtype=np.intp),
            gt_predicate_rows=np.asarray(rec["gt_predicates"], dtype=np.uint8),
        ))
    dump = PredictionDump(scenes=scenes, n_obj=header["n_obj"], n_rel=header["n_rel"],
                          vocab_hash=header.get("vocab_hash", ""),
                          config_hash=header.get("config_hash", ""))
    dump.validate()
    return dump
