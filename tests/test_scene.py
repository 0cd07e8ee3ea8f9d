import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sg3d.errors import DataError
from sg3d.encoders import descriptor_matrix
from sg3d.scene import (EPS_BOX, Vocabulary, instance_attributes, load_scene_file,
                        pair_index_arrays, relation_terms, save_scene_file, scene_to_record,
                        split_predicates)

import reference_scene
from reference_scene import (cube_of_record, ordered_pairs, relations_of_cube, rows_of_cube,
                             sample_of_instances)


def make_vocab(n_obj=4, n_rel=3, freq=None):
    return Vocabulary(
        object_names=[f"obj{i}" for i in range(n_obj)],
        predicate_names=[f"rel{i}" for i in range(n_rel)],
        predicate_train_frequency=freq if freq is not None else [0] * n_rel,
    )


UNIT_CUBE = np.array([[x, y, z] for x in (0.0, 1.0) for y in (0.0, 1.0) for z in (0.0, 1.0)])


def attributes(pts):
    """The `instance_attributes` row of one (n, 3) point set."""
    return instance_attributes(pts, np.array([len(pts)]))[0]


class TestComputeAttributes:
    # row layout: mean 0-2, std 3-5, extent 6-8, log max side 9, log volume 10
    def test_unit_cube(self):
        row = attributes(UNIT_CUBE)
        assert np.allclose(row[:3], [0.5, 0.5, 0.5])
        assert np.allclose(row[6:9], [1.0, 1.0, 1.0])
        assert row[10] == np.log(1.0)
        assert row[9] == np.log(1.0)

    def test_single_point_degenerate(self):
        row = attributes(np.array([[2.0, 3.0, 4.0]]))
        assert np.array_equal(row[3:6], [0.0, 0.0, 0.0])
        assert np.array_equal(row[6:9], [EPS_BOX] * 3)
        assert row[10] == np.log(EPS_BOX ** 3)

    def test_scaled_cube(self):
        pts = np.array([[x, y, z] for x in (0.0, 2.0) for y in (0.0, 1.0) for z in (0.0, 1.0)])
        row = attributes(pts)
        assert row[9] == np.log(2.0)
        assert row[10] == np.log(2.0)

    def test_empty_raises(self):
        with pytest.raises(DataError, match="instance 0 has no points"):
            attributes(np.zeros((0, 3)))
        with pytest.raises(DataError, match="instance 1 has no points"):
            instance_attributes(np.concatenate([UNIT_CUBE, UNIT_CUBE]), np.array([8, 0, 8]))

    def test_permutation_invariant(self):
        rng = np.random.default_rng(0)
        pts = rng.standard_normal((20, 3))
        assert np.array_equal(attributes(pts), attributes(pts[rng.permutation(20)]))

    def test_translation_shifts_mean_only(self):
        # dyadic coordinates + power-of-two point count + integer shift keep
        # every float op exact, so equality can be asserted bitwise
        rng = np.random.default_rng(1)
        pts = rng.integers(-256, 256, size=(8, 3)).astype(np.float64) / 256.0
        t = rng.integers(-8, 9, size=3).astype(np.float64)
        a = attributes(pts)
        b = attributes(pts + t)
        assert np.array_equal(b[:3], a[:3] + t)
        assert np.array_equal(b[3:6], a[3:6])
        assert np.array_equal(b[6:9], a[6:9])
        assert b[10] == a[10]
        assert b[9] == a[9]


class TestSplitPredicates:
    def test_proportional_13(self):
        vocab = make_vocab(n_rel=13, freq=list(range(13, 0, -1)))
        splits = split_predicates(vocab)
        assert len(splits["head"]) == 4
        assert len(splits["body"]) == 3
        assert len(splits["tail"]) == 6

    def test_paper_scale_26(self):
        freq = list(range(26, 0, -1))
        vocab = make_vocab(n_rel=26, freq=freq)
        splits = split_predicates(vocab)
        assert len(splits["head"]) == 8
        assert len(splits["body"]) == 6
        assert len(splits["tail"]) == 12

    def test_tie_break_by_index(self):
        vocab = make_vocab(n_rel=26, freq=[5] * 26)
        splits = split_predicates(vocab)
        assert splits["head"] == set(range(8))

    def test_partition(self):
        rng = np.random.default_rng(2)
        freq = rng.integers(0, 100, size=13).tolist()
        splits = split_predicates(make_vocab(n_rel=13, freq=freq))
        union = splits["head"] | splits["body"] | splits["tail"]
        assert union == set(range(13))
        assert not (splits["head"] & splits["tail"])
        assert not (splits["head"] & splits["body"])
        assert not (splits["body"] & splits["tail"])


def write_lines(path, records):
    with open(path, "w") as fh:
        for r in records:
            fh.write(json.dumps(r) + "\n")


def well_formed_record():
    return {
        "scene_id": "s0",
        "split": "train",
        "instances": [
            {"id": 0, "class": 1, "points": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]},
            {"id": 7, "class": 2, "points": [[2, 2, 2], [3, 2, 2], [2, 3, 2], [2, 2, 3]]},
        ],
        "relations": [{"subject_id": 0, "object_id": 7, "predicates": [1]}],
    }


class TestLoadSceneFile:
    def test_well_formed(self, tmp_path):
        path = tmp_path / "scenes.jsonl"
        write_lines(path, [well_formed_record()])
        samples = load_scene_file(path, make_vocab())
        assert len(samples) == 1
        assert samples[0].k == 2
        assert samples[0].gt_predicate_rows.tolist() == [[0, 1, 0], [0, 0, 0]]

    def test_unknown_instance_reference(self, tmp_path):
        rec = well_formed_record()
        rec["relations"][0]["object_id"] = 99
        path = tmp_path / "scenes.jsonl"
        write_lines(path, [rec])
        with pytest.raises(DataError, match="unknown instance"):
            load_scene_file(path, make_vocab())

    def test_predicate_out_of_range(self, tmp_path):
        rec = well_formed_record()
        rec["relations"][0]["predicates"] = [3]
        path = tmp_path / "scenes.jsonl"
        write_lines(path, [rec])
        with pytest.raises(DataError, match="out of range"):
            load_scene_file(path, make_vocab(n_rel=3))

    def test_duplicate_instance_id(self, tmp_path):
        rec = well_formed_record()
        rec["instances"][1]["id"] = 0
        path = tmp_path / "scenes.jsonl"
        write_lines(path, [rec])
        with pytest.raises(DataError, match="duplicate"):
            load_scene_file(path, make_vocab())

    def test_self_relation(self, tmp_path):
        rec = well_formed_record()
        rec["relations"][0]["object_id"] = 0
        path = tmp_path / "scenes.jsonl"
        write_lines(path, [rec])
        with pytest.raises(DataError, match="self-relation"):
            load_scene_file(path, make_vocab())

    def test_strict_rejects_unknown_fields(self, tmp_path):
        rec = well_formed_record()
        rec["bogus"] = 1
        path = tmp_path / "scenes.jsonl"
        write_lines(path, [rec])
        with pytest.raises(DataError, match="unknown fields"):
            load_scene_file(path, make_vocab(), strict=True)
        assert len(load_scene_file(path, make_vocab(), strict=False)) == 1

    def test_error_reports_scene_and_line(self, tmp_path):
        rec = well_formed_record()
        rec["relations"][0]["predicates"] = [99]
        path = tmp_path / "scenes.jsonl"
        write_lines(path, [well_formed_record() | {"scene_id": "ok"}, rec])
        with pytest.raises(DataError, match=r":2.*scene s0"):
            load_scene_file(path, make_vocab())

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("field", ["points", "visual_features"])
    def test_non_finite_rejected(self, tmp_path, field, value):
        rec = well_formed_record() | {"visual_features": [[0.5, 1.0], [1.5, 2.0]]}
        if field == "points":
            rec["instances"][1]["points"][2][1] = value
        else:
            rec["visual_features"][1][0] = value
        path = tmp_path / "scenes.jsonl"
        write_lines(path, [rec])
        assert ("NaN" if value != value else "Infinity") in path.read_text()
        with pytest.raises(DataError, match=f"{field}.*finite"):
            load_scene_file(path, make_vocab())

    def test_round_trip(self, tmp_path):
        path = tmp_path / "scenes.jsonl"
        write_lines(path, [well_formed_record()])
        samples = load_scene_file(path, make_vocab())
        out = tmp_path / "rt.jsonl"
        save_scene_file(out, samples)
        again = load_scene_file(out, make_vocab())
        assert again[0].scene_id == samples[0].scene_id
        assert np.array_equal(again[0].gt_predicate_rows, samples[0].gt_predicate_rows)
        assert np.array_equal(again[0].points, samples[0].points)
        assert np.array_equal(again[0].point_counts, samples[0].point_counts)
        # a second save is byte-identical
        out2 = tmp_path / "rt2.jsonl"
        save_scene_file(out2, again)
        assert out.read_bytes() == out2.read_bytes()


def test_pair_index_arrays_layout():
    subj, obj = pair_index_arrays(3)
    assert list(zip(subj.tolist(), obj.tolist())) == [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)]
    assert [a.size for a in pair_index_arrays(1)] == [0, 0]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 9), st.integers(1, 4), st.data())
def test_pair_layout_and_relation_terms_match_loops(k, n_rel, data):
    reference = [(i, j) for i in range(k) for j in range(k) if j != i]
    subj, obj = pair_index_arrays(k)
    assert subj.dtype == obj.dtype == np.intp
    assert list(zip(subj.tolist(), obj.tolist())) == reference
    e = len(reference)
    rows = np.array(data.draw(st.lists(st.integers(0, 1), min_size=e * n_rel, max_size=e * n_rel)),
                    dtype=np.uint8).reshape(e, n_rel)
    classes = np.array(data.draw(st.lists(st.integers(0, 20), min_size=k, max_size=k)), dtype=np.intp)
    expected = [(e_, int(classes[i]), int(p), int(classes[j]))
                for e_, (i, j) in enumerate(reference) for p in np.nonzero(rows[e_])[0]]
    assert list(zip(*(a.tolist() for a in relation_terms(rows, classes)))) == expected


def test_parse_places_relations_in_pair_rows(tmp_path):
    rec = well_formed_record()
    rec["instances"].append({"id": 3, "class": 0, "points": [[5, 5, 5]]})
    rec["relations"] = [{"subject_id": 0, "object_id": 3, "predicates": [1]},
                        {"subject_id": 3, "object_id": 7, "predicates": [0]}]
    path = tmp_path / "scenes.jsonl"
    write_lines(path, [rec])
    (sample,) = load_scene_file(path, make_vocab())
    rows = sample.gt_predicate_rows
    pairs = ordered_pairs(3)
    assert rows.dtype == np.uint8 and rows.shape == (6, 3)
    assert rows[pairs.index((0, 2)), 1] == 1
    assert rows[pairs.index((2, 1)), 0] == 1
    assert rows.sum() == 2


# ---------------------------------------------------------------------------
# properties of the scene file format

FINITE = st.floats(allow_nan=False, allow_infinity=False)
PROPERTY = settings(max_examples=40, deadline=None)


@st.composite
def scenes(draw):
    vocab = make_vocab(n_obj=5, n_rel=4)
    k = draw(st.integers(1, 9))
    ids = draw(st.lists(st.integers(0, 10_000), min_size=k, max_size=k, unique=True))
    point_sets, classes = [], []
    for _ in ids:
        n = draw(st.integers(1, 4))
        point_sets.append(np.array(draw(st.lists(FINITE, min_size=3 * n, max_size=3 * n))).reshape(n, 3))
        classes.append(draw(st.integers(0, vocab.n_obj - 1)))
    e = k * (k - 1)
    gt = np.array(draw(st.lists(st.integers(0, 1), min_size=e * vocab.n_rel,
                                max_size=e * vocab.n_rel)), dtype=np.uint8).reshape(e, vocab.n_rel)
    visual = None
    if draw(st.booleans()):
        width = draw(st.integers(1, 3))
        visual = np.array(draw(st.lists(FINITE, min_size=k * width,
                                        max_size=k * width))).reshape(k, width)
    sample = sample_of_instances(draw(st.text(min_size=1, max_size=8)),
                                 draw(st.sampled_from(["train", "validation"])),
                                 ids, classes, point_sets, gt, visual)
    return sample, vocab


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


@PROPERTY
@given(scenes())
def test_scene_file_round_trip_bitwise(tmp_path_factory, scene):
    sample, vocab = scene
    path = tmp_path_factory.mktemp("rt") / "s.jsonl"
    save_scene_file(path, [sample])
    (again,) = load_scene_file(path, vocab)
    assert (again.scene_id, again.split) == (sample.scene_id, sample.split)
    assert again.instance_ids.tolist() == sample.instance_ids.tolist()
    assert again.classes.tolist() == sample.classes.tolist()
    assert again.point_counts.tolist() == sample.point_counts.tolist()
    assert np.array_equal(_bits(again.points), _bits(sample.points))
    assert np.array_equal(again.gt_predicate_rows, sample.gt_predicate_rows)
    if sample.visual_features is None:
        assert again.visual_features is None
    else:
        assert np.array_equal(_bits(again.visual_features), _bits(sample.visual_features))


@PROPERTY
@given(scenes(), st.sampled_from([float("nan"), float("inf"), float("-inf")]), st.data())
def test_any_non_finite_coordinate_rejected(tmp_path_factory, scene, value, data):
    sample, vocab = scene
    targets = [sample.points]
    if sample.visual_features is not None:
        targets.append(sample.visual_features)
    target = data.draw(st.sampled_from(targets))
    target[data.draw(st.integers(0, target.shape[0] - 1)),
           data.draw(st.integers(0, target.shape[1] - 1))] = value
    path = tmp_path_factory.mktemp("nf") / "s.jsonl"
    save_scene_file(path, [sample])
    with pytest.raises(DataError, match="finite"):
        load_scene_file(path, vocab)


@PROPERTY
@given(st.integers(1, 7), st.integers(1, 4), st.data())
def test_ground_truth_rows_match_cube_reference(tmp_path_factory, k, n_rel, data):
    # a random cube with an empty diagonal, and the rows it stands for
    cube = np.array(data.draw(st.lists(st.integers(0, 1), min_size=k * k * n_rel,
                                       max_size=k * k * n_rel)), dtype=np.uint8)
    cube = cube.reshape(k, k, n_rel)
    cube[np.arange(k), np.arange(k)] = 0
    rows = rows_of_cube(cube)
    ids = data.draw(st.lists(st.integers(0, 10_000), min_size=k, max_size=k, unique=True))
    vocab = make_vocab(n_obj=2, n_rel=n_rel)
    sample = sample_of_instances("s", "train", ids, [0] * k, [UNIT_CUBE] * k, rows)

    record = scene_to_record(sample)
    assert record["relations"] == relations_of_cube(ids, cube)
    path = tmp_path_factory.mktemp("gt") / "s.jsonl"
    save_scene_file(path, [sample])
    assert path.read_text() == json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
    (again,) = load_scene_file(path, vocab)
    assert again.gt_predicate_rows.dtype == np.uint8
    assert np.array_equal(again.gt_predicate_rows, rows_of_cube(cube_of_record(record, n_rel)))
    again_path = path.with_name("again.jsonl")
    save_scene_file(again_path, [again])
    assert again_path.read_bytes() == path.read_bytes()


def _point_sets(draw, k):
    """k point sets of 1-12 points, each point drawn fresh or repeated from
    the set so far, so duplicates and one-point instances both occur."""
    sets = []
    for _ in range(k):
        pts = []
        for _ in range(draw(st.integers(1, 12))):
            if pts and draw(st.booleans()):
                pts.append(pts[draw(st.integers(0, len(pts) - 1))])
            else:
                pts.append([draw(st.floats(-1e3, 1e3, allow_nan=False)) for _ in range(3)])
        sets.append(np.array(pts, dtype=np.float64))
    return sets


@PROPERTY
@given(st.integers(1, 7), st.data())
def test_instance_attributes_match_per_instance_reference(tmp_path_factory, k, data):
    point_sets = _point_sets(data.draw, k)
    points = np.concatenate(point_sets)
    counts = np.array([len(p) for p in point_sets])
    table = instance_attributes(points, counts)
    refs = [reference_scene.compute_attributes(p) for p in point_sets]
    assert table.shape == (k, 11)
    for row, ref in zip(table, refs):
        assert np.array_equal(_bits(row[:9]), _bits(np.concatenate([ref.mean, ref.std, ref.bbox_size])))
    assert np.array_equal(_bits(table[:, 9:]),
                          _bits(np.log([[ref.max_side, ref.volume] for ref in refs])))
    subj, obj = pair_index_arrays(k)
    assert np.array_equal(_bits(descriptor_matrix(table, subj, obj)),
                          _bits(reference_scene.descriptor_matrix(refs, subj, obj)))

    # parse -> save -> load -> save keeps the bytes
    ids = data.draw(st.lists(st.integers(0, 10_000), min_size=k, max_size=k, unique=True))
    vocab = make_vocab(n_obj=3, n_rel=2)
    classes = data.draw(st.lists(st.integers(0, 2), min_size=k, max_size=k))
    sample = sample_of_instances("s", "train", ids, classes, point_sets,
                                 np.zeros((k * (k - 1), 2), dtype=np.uint8))
    path = tmp_path_factory.mktemp("attrs") / "s.jsonl"
    save_scene_file(path, [sample])
    (again,) = load_scene_file(path, vocab)
    assert np.array_equal(_bits(instance_attributes(again.points, again.point_counts)), _bits(table))
    again_path = path.with_name("again.jsonl")
    save_scene_file(again_path, [again])
    assert again_path.read_bytes() == path.read_bytes()
