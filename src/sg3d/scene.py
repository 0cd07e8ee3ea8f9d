"""Scene data model: instances, ground-truth graphs, vocabulary, file I/O,
and the canonical pair layout (`pair_index_arrays`, `relation_terms`) that
every other module reads. Ground truth is stored in that layout from parse
to metrics: one (E, N_rel) uint8 row per ordered instance pair.

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
import types
import typing
from dataclasses import dataclass, field
from itertools import chain

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
    """One scene: instances, multi-label predicate rows (one per ordered pair,
    in `pair_index_arrays` order), optional visuals."""

    scene_id: str
    split: str
    instances: list[SceneInstance]
    gt_predicate_rows: np.ndarray  # (E, N_rel) uint8, E = K(K-1)
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


def pair_index_arrays(k: int) -> tuple[np.ndarray, np.ndarray]:
    """(subject, object) indices of the K(K-1) ordered pairs i != j, by subject,
    then by object: the canonical pair order every module reads."""
    return np.nonzero(np.arange(k)[:, None] != np.arange(k))


def relation_terms(gt_rows: np.ndarray, classes: np.ndarray) -> tuple[np.ndarray, ...]:
    """(pair, subject class, predicate, object class) of every ground-truth term
    of an (E, N_rel) row matrix in canonical pair order, pair then predicate."""
    pair, pred = np.nonzero(gt_rows)
    subj, obj = pair_index_arrays(len(classes))
    return pair, classes[subj[pair]], pred, classes[obj[pair]]


def split_predicates(vocab: Vocabulary) -> dict[str, set[int]]:
    """Frequency-ordered head/body/tail partition of the predicate classes.

    Head and tail sizes follow the 8/26 and 12/26 proportions, rounded;
    ties in frequency break by predicate index ascending.
    """
    n = vocab.n_rel
    freq = vocab.predicate_train_frequency
    if len(freq) != n:
        raise DataError("predicate frequencies not populated")
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


def fits_type(value, hint) -> bool:
    """Whether a JSON value fits the type `hint` (`int`, `float`, `bool`,
    `str`, `list`, `tuple`, `list[int]`, `int | None`, ...): a bool is not an
    integer, an integer stands for a float, and None fits only a hint that
    names it."""
    if isinstance(hint, types.UnionType):
        return any(fits_type(value, h) for h in typing.get_args(hint))
    if typing.get_origin(hint) is list:
        (item,) = typing.get_args(hint)
        return isinstance(value, list) and all(fits_type(v, item) for v in value)
    if hint is float:
        hint = (int, float)
    return isinstance(value, hint) and (hint is bool or not isinstance(value, bool))


def field_problems(cls, values: dict, complete: bool) -> list[str]:
    """One message per key of `values` that names no field of the dataclass
    `cls` or holds a value that does not fit the field's type hint (see
    `fits_type`), and, when `complete`, one per field that `values` leaves out."""
    hints = typing.get_type_hints(cls)
    problems = [f"missing key {k!r}" for k in hints if complete and k not in values]
    for key, value in values.items():
        if key not in hints:
            problems.append(f"unknown key {key!r}")
        elif not fits_type(value, hints[key]):
            hint = hints[key]
            name = hint.__name__ if isinstance(hint, type) else str(hint)
            problems.append(f"{key} must be of type {name}, got {value!r}")
    return problems


def _typed(value, kind: type, what: str, where: str):
    """`value` when it has JSON type `kind` (see `fits_type`)."""
    if not fits_type(value, kind):
        raise DataError(f"{where}: {what} must be of type {kind.__name__}, got {type(value).__name__}")
    return value


def number_array(value, ndim: int, what: str, integer: bool = False) -> np.ndarray:
    """JSON lists nested `ndim` deep as a float64 (or, with `integer`, intp) array.

    numpy would read a JSON boolean as 0/1 and a digit string as its number,
    so one scan per nesting level admits only lists, then only numbers
    (only integers with `integer`); anything else is a DataError naming `what`.
    """
    level = [value]
    for _ in range(ndim):
        if not set(map(type, level)) <= {list}:
            raise DataError(f"{what} must be lists nested {ndim} deep")
        level = list(chain.from_iterable(level))
    wrong = set(map(type, level)) - ({int} if integer else {int, float})
    if wrong:
        raise DataError(f"{what} must hold only {'integers' if integer else 'numbers'}, "
                        f"got {', '.join(sorted(t.__name__ for t in wrong))}")
    return np.asarray(value, dtype=np.intp if integer else np.float64)


def _parse_scene(record: dict, vocab: Vocabulary, where: str, strict: bool) -> SceneGraphSample:
    _check_fields(record, SCENE_FIELDS, where, strict)
    for key in ("scene_id", "split", "instances", "relations"):
        if key not in record:
            raise DataError(f"{where}: missing field '{key}'")
    scene_id = _typed(record["scene_id"], str, "scene_id", where)
    where = f"{where} (scene {scene_id})"
    split = record["split"]
    if split not in ("train", "validation"):
        raise DataError(f"{where}: split must be train|validation, got {split!r}")

    instances = []
    ids_seen = set()
    for inst in _typed(record["instances"], list, "instances", where):
        _check_fields(inst, INSTANCE_FIELDS, where, strict)
        iid = _typed(inst["id"], int, "instance id", where)
        if iid < 0:
            raise DataError(f"{where}: negative instance id {iid}")
        if iid in ids_seen:
            raise DataError(f"{where}: duplicate instance id {iid}")
        ids_seen.add(iid)
        cls = _typed(inst["class"], int, f"instance {iid} class", where)
        if not 0 <= cls < vocab.n_obj:
            raise DataError(f"{where}: object class {cls} out of range [0, {vocab.n_obj})")
        pts = number_array(inst["points"], 2, f"{where}: instance {iid} points")
        if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] < 1:
            raise DataError(f"{where}: instance {iid} points must be a non-empty (n, 3) list")
        if not np.all(np.isfinite(pts)):
            raise DataError(f"{where}: instance {iid} points must be finite")
        instances.append(SceneInstance(instance_id=iid, points=pts, gt_class=cls))

    k = len(instances)
    if k == 0:
        raise DataError(f"{where}: scene has no instances")
    id_to_index = {inst.instance_id: idx for idx, inst in enumerate(instances)}

    pair_row = np.zeros((k, k), dtype=np.intp)
    pair_row[pair_index_arrays(k)] = np.arange(k * (k - 1))
    pair_row = pair_row.tolist()
    gt = np.zeros((k * (k - 1), vocab.n_rel), dtype=np.uint8)
    for rel in _typed(record["relations"], list, "relations", where):
        _check_fields(rel, RELATION_FIELDS, where, strict)
        sid = _typed(rel["subject_id"], int, "relation subject_id", where)
        oid = _typed(rel["object_id"], int, "relation object_id", where)
        if sid not in id_to_index or oid not in id_to_index:
            raise DataError(f"{where}: relation references unknown instance id {sid if sid not in id_to_index else oid}")
        if sid == oid:
            raise DataError(f"{where}: self-relation on instance {sid}")
        row = pair_row[id_to_index[sid]][id_to_index[oid]]
        for p in _typed(rel["predicates"], list, "relation predicates", where):
            p = _typed(p, int, "predicate index", where)
            if not 0 <= p < vocab.n_rel:
                raise DataError(f"{where}: predicate index {p} out of range [0, {vocab.n_rel})")
            gt[row, p] = 1

    visual = None
    if record.get("visual_features") is not None:
        visual = number_array(record["visual_features"], 2, f"{where}: visual_features")
        if visual.ndim != 2 or visual.shape[0] != k:
            raise DataError(f"{where}: visual_features must have one row per instance")
        if not np.all(np.isfinite(visual)):
            raise DataError(f"{where}: visual_features must be finite")

    return SceneGraphSample(scene_id=scene_id, split=split, instances=instances,
                            gt_predicate_rows=gt, visual_features=visual)


def load_scene_file(path, vocab: Vocabulary, strict: bool = True,
                    split: str | None = None) -> list[SceneGraphSample]:
    """Parse and validate a JSON-lines scene file against a vocabulary.

    With `split`, every scene's split field must equal it: commands pick a
    split by its file, and a field that disagrees is a data error rather
    than a scene that silently drops out.
    """
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
            try:
                sample = _parse_scene(record, vocab, where, strict)
            except (KeyError, TypeError, ValueError, OverflowError) as e:
                raise DataError(f"{where}: malformed scene record ({type(e).__name__}: {e})") from e
            if split is not None and sample.split != split:
                raise DataError(f"{where} (scene {sample.scene_id}): split {sample.split!r} "
                                f"in the {split} file")
            samples.append(sample)
    return samples


def scene_to_record(sample: SceneGraphSample) -> dict:
    """The scene-file record: one relation per pair row with any predicate."""
    ids = np.array([inst.instance_id for inst in sample.instances])
    subj, obj = pair_index_arrays(sample.k)
    pair, pred = np.nonzero(sample.gt_predicate_rows)
    pairs, first = np.unique(pair, return_index=True)
    relations = [{"subject_id": s, "object_id": o, "predicates": p.tolist()}
                 for s, o, p in zip(ids[subj[pairs]].tolist(), ids[obj[pairs]].tolist(),
                                    np.split(pred, first[1:]))]
    record = {
        "scene_id": sample.scene_id,
        "split": sample.split,
        "instances": [
            {"id": inst.instance_id, "class": inst.gt_class,
             "points": inst.points.tolist()}
            for inst in sample.instances
        ],
        "relations": relations,
    }
    if sample.visual_features is not None:
        record["visual_features"] = sample.visual_features.tolist()
    return record


def save_scene_file(path, samples: list[SceneGraphSample]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for sample in samples:
            fh.write(json.dumps(scene_to_record(sample), sort_keys=True, separators=(",", ":")))
            fh.write("\n")
