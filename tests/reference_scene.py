"""Loop references for the stored scene layout of `sg3d.scene`.

They keep scenes the way a reader first pictures them. Relations are a
(K, K, N_rel) cube indexed by (subject, object, predicate), filled and
listed by loops over the ordered pairs i != j, by subject, then by object;
test_scene checks the package's (E, N_rel) pair rows, its parse and its
scene-file relations against them. Instances are one point set each,
summarised one at a time (`compute_attributes`) and differenced one pair
at a time (`descriptor_matrix`); test_scene checks the package's (K, 11)
`instance_attributes` table and the descriptors taken from it against
them. `sample_of_instances` builds a package sample from such point sets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from sg3d.scene import EPS_BOX, SceneGraphSample


def ordered_pairs(k: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(k) for j in range(k) if j != i]


def rows_of_cube(cube: np.ndarray) -> np.ndarray:
    """The cube's (E, N_rel) rows, one per ordered pair."""
    rows = [cube[i, j] for i, j in ordered_pairs(cube.shape[0])]
    return np.array(rows, dtype=np.uint8).reshape(len(rows), cube.shape[2])


def cube_of_record(record: dict, n_rel: int) -> np.ndarray:
    """The cube a scene-file record's relations describe."""
    index = {inst["id"]: n for n, inst in enumerate(record["instances"])}
    cube = np.zeros((len(index), len(index), n_rel), dtype=np.uint8)
    for rel in record["relations"]:
        for p in rel["predicates"]:
            cube[index[rel["subject_id"]], index[rel["object_id"]], p] = 1
    return cube


def relations_of_cube(instance_ids: list[int], cube: np.ndarray) -> list[dict]:
    """Scene-file relations: one per pair with any predicate, in pair order."""
    relations = []
    for i, j in ordered_pairs(len(instance_ids)):
        preds = np.nonzero(cube[i, j])[0]
        if preds.size:
            relations.append({
                "subject_id": instance_ids[i],
                "object_id": instance_ids[j],
                "predicates": [int(p) for p in preds],
            })
    return relations


@dataclass
class InstanceAttributes:
    """One instance's geometric summary."""

    mean: np.ndarray       # (3,)
    std: np.ndarray        # (3,) population std
    bbox_size: np.ndarray  # (3,) axis-aligned extent, clamped to EPS_BOX
    volume: float
    max_side: float


def compute_attributes(points: np.ndarray) -> InstanceAttributes:
    """Per-axis mean/std and clamped bounding-box extents of one (n, 3) point set."""
    pts = points[np.lexsort((points[:, 2], points[:, 1], points[:, 0]))]
    mean = pts.mean(axis=0)
    centered = pts - mean
    std = np.sqrt((centered * centered).mean(axis=0))
    extent = np.maximum(pts.max(axis=0) - pts.min(axis=0), EPS_BOX)
    volume = float(extent[0] * extent[1] * extent[2])
    return InstanceAttributes(mean=mean, std=std, bbox_size=extent,
                              volume=volume, max_side=float(extent.max()))


def descriptor_matrix(attrs: list[InstanceAttributes], subj, obj) -> np.ndarray:
    """(E, 11) descriptors of the ordered pairs (subj[e], obj[e]): each
    instance's row (mean, std, extent, log max side, log volume) built once,
    a descriptor the difference of two rows."""
    rows = np.concatenate([
        np.stack([a.mean for a in attrs]),
        np.stack([a.std for a in attrs]),
        np.stack([a.bbox_size for a in attrs]),
        np.log(np.array([[a.max_side, a.volume] for a in attrs])),
    ], axis=1)
    return np.array([rows[i] - rows[j] for i, j in zip(subj, obj)]).reshape(len(subj), 11)


def sample_of_instances(scene_id: str, split: str, ids, classes, point_sets,
                        gt_rows: np.ndarray, visual: np.ndarray | None = None) -> SceneGraphSample:
    """A package sample of instances given one by one: `ids[i]`, `classes[i]`
    and the (n, 3) array `point_sets[i]` describe instance i."""
    return SceneGraphSample(scene_id=scene_id, split=split,
                            instance_ids=np.array(ids, dtype=np.intp),
                            classes=np.array(classes, dtype=np.intp),
                            points=np.concatenate(point_sets),
                            point_counts=np.array([len(p) for p in point_sets], dtype=np.intp),
                            gt_predicate_rows=gt_rows, visual_features=visual)
