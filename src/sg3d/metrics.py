"""Evaluation protocol: top-k / mean top-k accuracy, pair-local triplet
ranking, scene-level recall with and without graph constraint,
head/body/tail breakdowns and seen/unseen triplet accounting.

One rank rule serves every metric (`_rank`): a candidate's rank is
1 + (candidates scoring strictly higher) + (candidates scoring equal that
come earlier in C order). Each candidate list is laid out so that C order
is its tie-break order:
  * objects and predicates: a row of class scores (ascending class index);
  * triplets: a pair's flat (s, p, o) score cube; the scene-wide pool
    concatenates the scene's cubes in canonical pair order;
  * recall: the scene's flat (E, N_rel) matrix of (f_i * P_pred) * f_j in
    canonical pair order, i.e. (i, j, p) order; the restricted pool is the
    length-E vector of each pair's top-1 item.
`evaluate` ranks each scene once per distinct candidate list and reads
every k from those ranks.

Determinism and oracle agreement:
  * triplet scores multiply left to right: (P_subj * P_pred) * P_obj;
  * per-class means sum fractions in class-index order and divide once;
  * R@k sums per-scene recalls in scene order.
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

from .errors import ConfigError, DataError
from .scene import fits_type, number_array, pair_index_arrays, relation_terms

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

    def validate(self, n_obj: int, n_rel: int) -> None:
        k = self.k
        e = k * (k - 1)
        where = f"scene {self.scene_id}"
        if k < 1:
            raise DataError(f"{where}: no objects")
        for name, arr, shape in (("object_probs", self.object_probs, (k, n_obj)),
                                 ("gt_objects", self.gt_objects, (k,)),
                                 ("predicate_probs", self.predicate_probs, (e, n_rel)),
                                 ("gt_predicates", self.gt_predicate_rows, (e, n_rel))):
            if arr.shape != shape:
                raise DataError(f"{where}: {name} has shape {arr.shape}, expected {shape} for K={k}")
        if not (np.isfinite(self.object_probs).all() and np.isfinite(self.predicate_probs).all()):
            raise DataError(f"{where}: probabilities must be finite")
        if np.any(self.gt_objects < 0) or np.any(self.gt_objects >= n_obj):
            raise DataError(f"{where}: gt_objects must lie in [0, {n_obj})")
        if not np.all((self.gt_predicate_rows == 0) | (self.gt_predicate_rows == 1)):
            raise DataError(f"{where}: gt_predicates must be 0/1")
        if np.any(np.abs(self.object_probs.sum(axis=1) - 1.0) > 1e-9):
            raise DataError(f"{where}: object probability rows must sum to 1")
        if np.any(self.predicate_probs < 0) or np.any(self.predicate_probs > 1):
            raise DataError(f"{where}: predicate probabilities must lie in [0, 1]")


@dataclass
class PredictionDump:
    scenes: list[ScenePrediction]
    n_obj: int
    n_rel: int
    vocab_hash: str = ""
    config_hash: str = ""

    def validate(self) -> None:
        for s in self.scenes:
            s.validate(self.n_obj, self.n_rel)


# ---------------------------------------------------------------------------
# ranking


def _rank(scores: np.ndarray, idx) -> np.ndarray:
    """1-based rank of candidate idx[r] in row r of `scores` ((n, M), or (M,)
    shared by every idx): 1 + (candidates scoring strictly higher) +
    (candidates scoring equal that come earlier in C order)."""
    idx = np.asarray(idx, dtype=np.intp)
    scores = np.broadcast_to(scores, (len(idx), np.shape(scores)[-1]))
    score = scores[np.arange(len(idx)), idx][:, None]
    earlier = np.arange(scores.shape[1]) < idx[:, None]
    return 1 + (scores > score).sum(axis=1) + ((scores == score) & earlier).sum(axis=1)


def _events(scores: np.ndarray, gt) -> tuple[np.ndarray, np.ndarray]:
    """Rank and class of every (row, gt class) event; `gt` holds one label per
    row or multi-hot rows (a multi-label row counts once per class)."""
    scores = np.asarray(scores, dtype=np.float64)
    gt = np.asarray(gt)
    rows, classes = np.nonzero(gt) if gt.ndim == 2 else (np.arange(len(gt)), gt.astype(np.intp))
    return _rank(scores[rows], classes), classes


def _mean(values: list) -> float | None:
    return sum(values) / len(values) if values else None


def _share(ranks: np.ndarray, k: int) -> float | None:
    """Fraction of ranks within the top k; None when there are none."""
    return int((ranks <= k).sum()) / len(ranks) if len(ranks) else None


def _class_mean(ranks: np.ndarray, classes: np.ndarray, n_cls: int, k: int,
                class_subset: set[int] | None = None) -> float | None:
    """Unweighted mean over classes with >= 1 event of the per-class share
    within the top k, summed in class order."""
    hits = np.bincount(classes[ranks <= k], minlength=n_cls).tolist()
    totals = np.bincount(classes, minlength=n_cls).tolist()
    return _mean([h / t for c, (h, t) in enumerate(zip(hits, totals))
                  if t and (class_subset is None or c in class_subset)])


def topk_accuracy(scores: np.ndarray, labels: np.ndarray, k: int) -> float | None:
    """Fraction of rows whose label ranks within the top k; None when empty."""
    scores = np.asarray(scores, dtype=np.float64)
    if len(scores) and k > scores.shape[1]:
        raise DataError(f"k={k} exceeds {scores.shape[1]} classes")
    return _share(_events(scores, labels)[0], k)


def accuracy_events(scores: np.ndarray, multihot: np.ndarray, k: int) -> float | None:
    """Plain A@k over (row, gt-class) events (multi-label rows contribute once per class)."""
    return _share(_events(scores, multihot)[0], k)


def mean_topk_accuracy(scores: np.ndarray, gt, k: int,
                       class_subset: set[int] | None = None) -> float | None:
    """Unweighted mean over classes (with >= 1 gt occurrence) of per-class A@k."""
    ranks, classes = _events(scores, gt)
    return _class_mean(ranks, classes, np.shape(scores)[1], k, class_subset)


def triplet_records(scene: ScenePrediction, pool: str = "pair") -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rank, predicate and (subject class, predicate, object class) key of every
    gt relation, ranked among its pair's cube of (P_subj(s) * P_pred(p)) * P_obj(o),
    or with pool="scene" among every pair's."""
    if pool not in ("pair", "scene"):
        raise DataError(f"unknown triplet pool {pool!r}")
    n_obj = scene.object_probs.shape[1]
    n_rel = scene.predicate_probs.shape[1]
    pair_i, pair_j = pair_index_arrays(scene.k)
    ev_pair, subj, ev_pred, obj = relation_terms(scene.gt_predicate_rows, scene.gt_objects)
    pos = (subj * n_rel + ev_pred) * n_obj + obj
    # the pair pool needs only the cubes of the relations' own pairs
    rows = ev_pair if pool == "pair" else np.arange(len(pair_i))
    cubes = ((scene.object_probs[pair_i[rows]][:, :, None]
              * scene.predicate_probs[rows][:, None, :])[..., None]
             * scene.object_probs[pair_j[rows]][:, None, None, :]).reshape(len(rows), n_obj * n_rel * n_obj)
    if pool == "pair":
        ranks = _rank(cubes, pos)
    else:  # one relation at a time, never an (events x scene cubes) matrix
        ranks = np.array([_rank(cubes.ravel(), [e * cubes.shape[1] + q])[0] for e, q in zip(ev_pair, pos)],
                         dtype=np.intp)
    return ranks, ev_pred, np.stack([subj, ev_pred, obj], axis=1)


_NO_TRIPLETS = (np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp), np.zeros((0, 3), dtype=np.intp))


def _dump_triplets(dump: PredictionDump, pool: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`triplet_records` of every scene, concatenated in scene order."""
    per_scene = [_NO_TRIPLETS] + [triplet_records(s, pool) for s in dump.scenes]
    return tuple(np.concatenate(column) for column in zip(*per_scene))


def _seen_unseen(ranks: np.ndarray, keys: np.ndarray,
                 train_triplets: set[tuple[int, int, int]], ks) -> dict:
    seen = np.array([tuple(key) in train_triplets for key in keys.tolist()], dtype=bool)
    return {"seen": {k: _share(ranks[seen], k) for k in ks},
            "unseen": {k: _share(ranks[~seen], k) for k in ks},
            "seen_count": int(seen.sum()), "unseen_count": int((~seen).sum())}


def triplet_topk(dump: PredictionDump, k: int, pool: str = "pair") -> dict:
    """Triplet A@k and mA@k over all gt relations in the dump."""
    ranks, preds, _ = _dump_triplets(dump, pool)
    return {"A": _share(ranks, k), "mA": _class_mean(ranks, preds, dump.n_rel, k)}


def seen_unseen_report(dump: PredictionDump, train_triplets: set[tuple[int, int, int]],
                       ks=TRIPLET_KS, pool: str = "pair") -> dict:
    """Triplet A@k restricted to relations whose class triple was / wasn't seen in training."""
    ranks, _, keys = _dump_triplets(dump, pool)
    return _seen_unseen(ranks, keys, train_triplets, ks)


RECALL_VARIANTS = tuple((task, constraint) for task in ("sgcls", "predcls") for constraint in (True, False))


def _recall_ranks(scene: ScenePrediction, variants, predcls_ranking: str,
                  constraint_mode: str) -> tuple[np.ndarray, dict]:
    """Predicate of every gt relation, and per (task, constraint) variant its
    rank, or a rank past every k where the variant cannot match it.

    f is each object's argmax probability, or 1 for PredCls under
    predcls_ranking="onehot". The graph constraint only admits a pair's top-1
    predicate; constraint_mode="restricted_pool" also ranks only those items.
    SGCls requires both argmax labels to match the ground truth.
    """
    k, n_rel = scene.k, scene.predicate_probs.shape[1]
    pair_i, pair_j = pair_index_arrays(k)
    ev_pair, _, ev_pred, _ = relation_terms(scene.gt_predicate_rows, scene.gt_objects)
    top1 = scene.predicate_probs.argmax(axis=1)  # first max = lowest index on ties
    labels = scene.object_probs.argmax(axis=1)
    label_ok = labels == scene.gt_objects
    ranked, out = {}, {}
    for task, constraint in variants:
        onehot = task == "predcls" and predcls_ranking == "onehot"
        restricted = constraint and constraint_mode == "restricted_pool"
        if (onehot, restricted) not in ranked:
            f = np.ones(k) if onehot else scene.object_probs[np.arange(k), labels]
            scores = (f[pair_i, None] * scene.predicate_probs) * f[pair_j, None]
            ranked[onehot, restricted] = (_rank(scores[np.arange(len(top1)), top1], ev_pair) if restricted
                                          else _rank(scores.ravel(), ev_pair * n_rel + ev_pred))
        ok = np.ones(len(ev_pred), dtype=bool)
        if constraint:
            ok &= ev_pred == top1[ev_pair]
        if task == "sgcls":
            ok &= label_ok[pair_i[ev_pair]] & label_ok[pair_j[ev_pair]]
        out[task, constraint] = np.where(ok, ranked[onehot, restricted], np.iinfo(np.intp).max)
    return ev_pred, out


def _recall(dump: PredictionDump, variants, ks, predcls_ranking: str, mr_mode: str,
            constraint_mode: str) -> dict:
    """{((task, constraint), k): {"R": R@k, "mR": mR@k}} from one ranking per scene."""
    if mr_mode not in ("pooled", "per_scene"):
        raise DataError(f"unknown mr_mode {mr_mode!r}")
    if any(k < 1 for k in ks):
        raise DataError("k must be >= 1")
    n_rel = dump.n_rel
    counts = {(v, k): [] for v in variants for k in ks}  # (matched, total) per scene with gt
    for scene in dump.scenes:
        preds, ranks = _recall_ranks(scene, variants, predcls_ranking, constraint_mode)
        if len(preds) == 0:
            continue
        total = np.bincount(preds, minlength=n_rel).tolist()
        for (v, k), per_scene in counts.items():
            per_scene.append((np.bincount(preds[ranks[v] <= k], minlength=n_rel).tolist(), total))

    out = {}
    for key, per_scene in counts.items():
        if not per_scene:
            out[key] = {"R": None, "mR": None}
            continue
        if mr_mode == "pooled":
            matched = [sum(col) for col in zip(*(m for m, _ in per_scene))]
            total = [sum(col) for col in zip(*(t for _, t in per_scene))]
            fractions = [m / t for m, t in zip(matched, total) if t]
        else:
            fractions = [_mean([m[c] / t[c] for m, t in per_scene if t[c]]) for c in range(n_rel)]
            fractions = [f for f in fractions if f is not None]
        out[key] = {"R": _mean([sum(m) / sum(t) for m, t in per_scene]), "mR": _mean(fractions)}
    return out


def recall_at_k(dump: PredictionDump, k: int, task: str, constraint: bool,
                predcls_ranking: str = "shared", mr_mode: str = "pooled",
                constraint_mode: str = "shared_pool") -> dict:
    """Scene-level R@k (macro over scenes) and per-class mR@k.

    task: "sgcls" | "predcls". mr_mode "pooled" pools class counts across
    scenes; "per_scene" averages per-scene class recalls first.
    constraint_mode "shared_pool" (default) ranks the same full candidate
    list in both modes; the graph constraint only disqualifies matches
    whose predicate is not the pair's top-1 (so no-constraint recall is
    >= with-constraint recall on every dump). "restricted_pool" is the
    conventional variant that ranks one top-1 item per pair instead.
    """
    task = task.lower()
    if task not in ("sgcls", "predcls"):
        raise DataError(f"unknown task {task!r}")
    variant = (task, constraint)
    return _recall(dump, [variant], [k], predcls_ranking, mr_mode, constraint_mode)[variant, k]


# ---------------------------------------------------------------------------
# full report

EVAL_CHOICES = {"triplet_pool": ("pair", "scene"), "predcls_ranking": ("shared", "onehot"),
                "mr_mode": ("pooled", "per_scene"),
                "constraint_mode": ("shared_pool", "restricted_pool")}


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

    def validate(self) -> None:
        for name, allowed in EVAL_CHOICES.items():
            if getattr(self, name) not in allowed:
                raise ConfigError(f"eval config: {name} must be one of {list(allowed)}, "
                                  f"got {getattr(self, name)!r}")
        for name in ("object_ks", "predicate_ks", "triplet_ks", "recall_ks"):
            ks = getattr(self, name)
            if not all(fits_type(k, int) and k >= 1 for k in ks):
                raise ConfigError(f"eval config: {name} must hold integers >= 1, got {list(ks)}")


def evaluate(dump: PredictionDump, predicate_splits: dict[str, set[int]] | None = None,
             train_triplets: set[tuple[int, int, int]] | None = None,
             cfg: EvalConfig | None = None) -> dict:
    """Compute the full metric report for a prediction dump.

    Every scene is ranked once per distinct candidate list, and every k is
    read from those ranks.
    """
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
    obj_ranks, _ = _events(obj_scores, obj_labels)
    pred_ranks, pred_classes = _events(pred_scores, pred_gt)
    trip_ranks, trip_preds, trip_keys = _dump_triplets(dump, cfg.triplet_pool)
    recall = _recall(dump, RECALL_VARIANTS, cfg.recall_ks, cfg.predcls_ranking, cfg.mr_mode,
                     cfg.constraint_mode)

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
            report["object"]["A"][k] = _share(obj_ranks, k)
    for k in cfg.predicate_ks:
        if k <= dump.n_rel:
            report["predicate"]["A"][k] = _share(pred_ranks, k)
            report["predicate"]["mA"][k] = _class_mean(pred_ranks, pred_classes, dump.n_rel, k)
    for k in cfg.triplet_ks:
        report["triplet"]["A"][k] = _share(trip_ranks, k)
        report["triplet"]["mA"][k] = _class_mean(trip_ranks, trip_preds, dump.n_rel, k)
    for ((task, constraint), k), r in recall.items():
        bucket = report[task]["with_constraint" if constraint else "no_constraint"]
        bucket["R"][k] = r["R"]
        bucket["mR"][k] = r["mR"]

    if predicate_splits:
        for split_name, classes in predicate_splits.items():
            report["splits"][split_name] = {
                k: _class_mean(pred_ranks, pred_classes, dump.n_rel, k, set(classes))
                for k in cfg.predicate_ks if k <= dump.n_rel}
    if train_triplets is not None:
        report["seen_unseen"] = _seen_unseen(trip_ranks, trip_keys, train_triplets, cfg.triplet_ks)
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


def _dump_array(rec: dict, name: str, ndim: int, width: int | None = None,
                integer: bool = False) -> np.ndarray:
    """Field `name` of a dump record as an array; an empty list reads as (0, width)."""
    if name not in rec:
        raise DataError(f"missing field {name!r}")
    try:
        arr = number_array(rec[name], ndim, f"field {name!r}", integer)
    except (ValueError, OverflowError) as e:
        raise DataError(f"field {name!r} is not a numeric array: {e}") from e
    if arr.size == 0:
        return np.zeros((0, width) if width else 0, dtype=arr.dtype)
    return arr


def dump_from_jsonl(text: str) -> PredictionDump:
    """Parse and validate a dump; a malformed line raises DataError naming it."""
    lines = [(n, ln) for n, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if not lines:
        raise DataError("empty prediction dump")
    scenes = []
    header = None
    for n, ln in lines:
        try:
            rec = json.loads(ln)
            if header is None:
                if not isinstance(rec, dict) or rec.get("kind") != "sg3d-dump":
                    raise DataError("not a prediction dump (missing header)")
                if not all(fits_type(rec.get(f), int) and rec[f] >= 1 for f in ("n_obj", "n_rel")):
                    raise DataError("header needs integer n_obj and n_rel >= 1")
                header = rec
                continue
            if not isinstance(rec, dict) or not isinstance(rec.get("scene_id"), str):
                raise DataError("a scene record needs a string field 'scene_id'")
            scene = ScenePrediction(
                scene_id=rec["scene_id"],
                object_probs=_dump_array(rec, "object_probs", 2, header["n_obj"]),
                predicate_probs=_dump_array(rec, "predicate_probs", 2, header["n_rel"]),
                gt_objects=_dump_array(rec, "gt_objects", 1, integer=True),
                gt_predicate_rows=_dump_array(rec, "gt_predicates", 2, header["n_rel"], integer=True),
            )
            scene.validate(header["n_obj"], header["n_rel"])
        except (DataError, json.JSONDecodeError) as e:
            raise DataError(f"prediction dump line {n}: {e}") from e
        scene.gt_predicate_rows = scene.gt_predicate_rows.astype(np.uint8)
        scenes.append(scene)
    return PredictionDump(scenes=scenes, n_obj=header["n_obj"], n_rel=header["n_rel"],
                          vocab_hash=header.get("vocab_hash", ""),
                          config_hash=header.get("config_hash", ""))
