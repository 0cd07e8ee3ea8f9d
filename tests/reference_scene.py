"""Per-pair loop references for the stored ground truth of `sg3d.scene`.

They keep relations the way a reader first pictures them: a (K, K, N_rel)
cube indexed by (subject, object, predicate), filled and listed by loops
over the ordered pairs i != j, by subject, then by object. test_scene
checks the package's (E, N_rel) pair rows, its parse and its scene-file
relations against them.
"""

from __future__ import annotations

import numpy as np


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
