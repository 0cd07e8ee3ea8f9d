"""Scene data model: instances, ground-truth graphs, vocabulary, file I/O.

Scene files are UTF-8 JSON-lines, one scene per line:

    {"scene_id": str, "split": "train"|"validation",
     "instances": [{"id": int, "class": int, "points": [[x,y,z], ...]}, ...],
     "relations": [{"subject_id": int, "object_id": int, "predicates": [int, ...]}, ...],
     "visual_features": [[...], ...]}        # optional, one row per instance

Unknown fields are rejected in strict mode and warned about otherwise.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError

log = logging.getLogger("sg3d")

EPS_BOX = 1e-6

SCENE_FIELDS = {"scene_id", "split", "instances", "relations", "visual_features"}
INSTANCE_FIELDS = {"id", "class", "points"}
RELATION_FIELDS = {"subject_id", "object_id", "predicates"}


@dataclass
class SceneInstance:
    """A point set with a mask identity and its ground-truth object label."""

    instance_id: int
    points: np.ndarray  # (n, 3) float64
    gt_class: int


@dataclass
class InstanceAttributes:
    """Per-instance geometric summary used by the edge encoder and the mask."""

    mean: np.ndarray       # (3,)
    std: np.ndarray        # (3,) population std
    bbox_size: np.ndarray  # (3,) axis-aligned extent, clamped to EPS_BOX
    volume: float
    max_side: float


@dataclass
class SceneGraphSample:
    """One scene: instances, multi-label predicate matrix, optional visuals."""

    scene_id: str
    split: str
    instances: list[SceneInstance]
    predicate_gt: np.ndarray  # (K, K, N_rel) uint8, zero diagonal
    visual_features: np.ndarray | None = None  # (K, D_vis)

    @property
    def k(self) -> int:
        return len(self.instances)


@dataclass
class Vocabulary:
    object_names: list[str]
    predicate_names: list[str]
    predicate_train_frequency: list[int] = field(default_factory=list)

    @property
    def n_obj(self) -> int:
        return len(self.object_names)

    @property
    def n_rel(self) -> int:
        return len(self.predicate_names)

    def content_hash(self) -> str:
        import hashlib

        payload = json.dumps([self.object_names, self.predicate_names], separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


def compute_attributes(instance: SceneInstance) -> InstanceAttributes:
    """Per-axis mean/std and clamped bounding-box extents of an instance."""
    pts = np.asarray(instance.points, dtype=np.float64)
    if pts.size == 0:
        raise DataError(f"instance {instance.instance_id} has no points")
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise DataError(f"instance {instance.instance_id}: points must be (n, 3)")
    # canonical point order makes the reductions exactly permutation-invariant
    pts = pts[np.lexsort((pts[:, 2], pts[:, 1], pts[:, 0]))]
    mean = pts.mean(axis=0)
    centered = pts - mean
    std = np.sqrt((centered * centered).mean(axis=0))
    extent = np.maximum(pts.max(axis=0) - pts.min(axis=0), EPS_BOX)
    volume = float(extent[0] * extent[1] * extent[2])
    return InstanceAttributes(mean=mean, std=std, bbox_size=extent,
                              volume=volume, max_side=float(extent.max()))


def ordered_pairs(k: int) -> list[tuple[int, int]]:
    """Canonical ordering of the K(K-1) directed non-diagonal pairs."""
    return [(i, j) for i in range(k) for j in range(k) if j != i]


def pair_index_arrays(k: int) -> tuple[np.ndarray, np.ndarray]:
    pairs = ordered_pairs(k)
    if not pairs:
        return np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp)
    subj, obj = zip(*pairs)
    return np.asarray(subj, dtype=np.intp), np.asarray(obj, dtype=np.intp)


def predicate_gt_rows(sample: SceneGraphSample) -> np.ndarray:
    """Flatten the (K,K,N_rel) gt matrix to (E, N_rel) in canonical pair order."""
    k = sample.k
    subj, obj = pair_index_arrays(k)
    return sample.predicate_gt[subj, obj, :].astype(np.float64)


def split_predicates(vocab: Vocabulary) -> dict[str, set[int]]:
    """Frequency-ordered head/body/tail partition of the predicate classes.

    Head and tail sizes follow the 8/26 and 12/26 proportions, rounded;
    ties in frequency break by predicate index ascending.
    """
    n = vocab.n_rel
    freq = vocab.predicate_train_frequency
    if len(freq) != n:
        raise DataError("predicate frequencies not populated")
    if n == 26:
        h, t = 8, 12
    else:
        h = int(round(8 / 26 * n))
        t = int(round(12 / 26 * n))
    order = sorted(range(n), key=lambda p: (-freq[p], p))
    return {
        "head": set(order[:h]),
        "body": set(order[h:n - t]),
        "tail": set(order[n - t:]),
    }


# ---------------------------------------------------------------------------
# file I/O


def _check_fields(obj: dict, allowed: set, where: str, strict: bool) -> None:
    unknown = set(obj) - allowed
    if unknown:
        if strict:
            raise DataError(f"{where}: unknown fields {sorted(unknown)}")
        log.warning("%s: ignoring unknown fields %s", where, sorted(unknown))


def _parse_scene(record: dict, vocab: Vocabulary, where: str, strict: bool) -> SceneGraphSample:
    _check_fields(record, SCENE_FIELDS, where, strict)
    for key in ("scene_id", "split", "instances", "relations"):
        if key not in record:
            raise DataError(f"{where}: missing field '{key}'")
    scene_id = str(record["scene_id"])
    where = f"{where} (scene {scene_id})"
    split = record["split"]
    if split not in ("train", "validation"):
        raise DataError(f"{where}: split must be train|validation, got {split!r}")

    instances = []
    ids_seen = set()
    for inst in record["instances"]:
        _check_fields(inst, INSTANCE_FIELDS, where, strict)
        iid = int(inst["id"])
        if iid < 0:
            raise DataError(f"{where}: negative instance id {iid}")
        if iid in ids_seen:
            raise DataError(f"{where}: duplicate instance id {iid}")
        ids_seen.add(iid)
        cls = int(inst["class"])
        if not 0 <= cls < vocab.n_obj:
            raise DataError(f"{where}: object class {cls} out of range [0, {vocab.n_obj})")
        pts = np.asarray(inst["points"], dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] < 1:
            raise DataError(f"{where}: instance {iid} points must be a non-empty (n, 3) list")
        if not np.all(np.isfinite(pts)):
            raise DataError(f"{where}: instance {iid} points must be finite")
        instances.append(SceneInstance(instance_id=iid, points=pts, gt_class=cls))

    k = len(instances)
    if k == 0:
        raise DataError(f"{where}: scene has no instances")
    id_to_index = {inst.instance_id: idx for idx, inst in enumerate(instances)}

    gt = np.zeros((k, k, vocab.n_rel), dtype=np.uint8)
    for rel in record["relations"]:
        _check_fields(rel, RELATION_FIELDS, where, strict)
        sid, oid = int(rel["subject_id"]), int(rel["object_id"])
        if sid not in id_to_index or oid not in id_to_index:
            raise DataError(f"{where}: relation references unknown instance id {sid if sid not in id_to_index else oid}")
        if sid == oid:
            raise DataError(f"{where}: self-relation on instance {sid}")
        for p in rel["predicates"]:
            p = int(p)
            if not 0 <= p < vocab.n_rel:
                raise DataError(f"{where}: predicate index {p} out of range [0, {vocab.n_rel})")
            gt[id_to_index[sid], id_to_index[oid], p] = 1

    visual = None
    if record.get("visual_features") is not None:
        visual = np.asarray(record["visual_features"], dtype=np.float64)
        if visual.ndim != 2 or visual.shape[0] != k:
            raise DataError(f"{where}: visual_features must have one row per instance")
        if not np.all(np.isfinite(visual)):
            raise DataError(f"{where}: visual_features must be finite")

    return SceneGraphSample(scene_id=scene_id, split=split, instances=instances,
                            predicate_gt=gt, visual_features=visual)


def load_scene_file(path, vocab: Vocabulary, strict: bool = True) -> list[SceneGraphSample]:
    """Parse and validate a JSON-lines scene file against a vocabulary."""
    samples = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            where = f"{path}:{lineno}"
            try:
                record = json.loads(line)
            except json.JSONDecodeError as e:
                raise DataError(f"{where}: malformed JSON ({e})") from e
            samples.append(_parse_scene(record, vocab, where, strict))
    return samples


def scene_to_record(sample: SceneGraphSample) -> dict:
    relations = []
    for i, j in ordered_pairs(sample.k):
        preds = np.nonzero(sample.predicate_gt[i, j])[0]
        if preds.size:
            relations.append({
                "subject_id": sample.instances[i].instance_id,
                "object_id": sample.instances[j].instance_id,
                "predicates": [int(p) for p in preds],
            })
    record = {
        "scene_id": sample.scene_id,
        "split": sample.split,
        "instances": [
            {"id": inst.instance_id, "class": inst.gt_class,
             "points": [[float(c) for c in row] for row in inst.points]}
            for inst in sample.instances
        ],
        "relations": relations,
    }
    if sample.visual_features is not None:
        record["visual_features"] = [[float(c) for c in row] for row in sample.visual_features]
    return record


def save_scene_file(path, samples: list[SceneGraphSample]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for sample in samples:
            fh.write(json.dumps(scene_to_record(sample), sort_keys=True, separators=(",", ":")))
            fh.write("\n")
