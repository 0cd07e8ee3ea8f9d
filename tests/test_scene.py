import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sg3d.errors import DataError
from sg3d.scene import (EPS_BOX, SceneGraphSample, SceneInstance, Vocabulary,
                        compute_attributes, load_scene_file, ordered_pairs,
                        predicate_gt_rows, save_scene_file, split_predicates)


def make_vocab(n_obj=4, n_rel=3, freq=None):
    return Vocabulary(
        object_names=[f"obj{i}" for i in range(n_obj)],
        predicate_names=[f"rel{i}" for i in range(n_rel)],
        predicate_train_frequency=freq if freq is not None else [0] * n_rel,
    )


def unit_cube_instance(iid=0, cls=0):
    pts = np.array([[x, y, z] for x in (0.0, 1.0) for y in (0.0, 1.0) for z in (0.0, 1.0)])
    return SceneInstance(instance_id=iid, points=pts, gt_class=cls)


class TestComputeAttributes:
    def test_unit_cube(self):
        attrs = compute_attributes(unit_cube_instance())
        assert np.allclose(attrs.mean, [0.5, 0.5, 0.5])
        assert np.allclose(attrs.bbox_size, [1.0, 1.0, 1.0])
        assert attrs.volume == 1.0
        assert attrs.max_side == 1.0

    def test_single_point_degenerate(self):
        inst = SceneInstance(0, np.array([[2.0, 3.0, 4.0]]), 0)
        attrs = compute_attributes(inst)
        assert np.array_equal(attrs.std, [0.0, 0.0, 0.0])
        assert np.array_equal(attrs.bbox_size, [EPS_BOX] * 3)
        assert attrs.volume == EPS_BOX ** 3

    def test_scaled_cube(self):
        pts = np.array([[x, y, z] for x in (0.0, 2.0) for y in (0.0, 1.0) for z in (0.0, 1.0)])
        attrs = compute_attributes(SceneInstance(0, pts, 0))
        assert attrs.max_side == 2.0
        assert attrs.volume == 2.0

    def test_empty_raises(self):
        with pytest.raises(DataError):
            compute_attributes(SceneInstance(0, np.zeros((0, 3)), 0))

    def test_permutation_invariant(self):
        rng = np.random.default_rng(0)
        pts = rng.standard_normal((20, 3))
        a = compute_attributes(SceneInstance(0, pts, 0))
        b = compute_attributes(SceneInstance(0, pts[rng.permutation(20)], 0))
        assert np.array_equal(a.mean, b.mean)
        assert np.array_equal(a.std, b.std)
        assert np.array_equal(a.bbox_size, b.bbox_size)

    def test_translation_shifts_mean_only(self):
        # dyadic coordinates + power-of-two point count + integer shift keep
        # every float op exact, so equality can be asserted bitwise
        rng = np.random.default_rng(1)
        pts = rng.integers(-256, 256, size=(8, 3)).astype(np.float64) / 256.0
        t = rng.integers(-8, 9, size=3).astype(np.float64)
        a = compute_attributes(SceneInstance(0, pts, 0))
        b = compute_attributes(SceneInstance(0, pts + t, 0))
        assert np.array_equal(b.mean, a.mean + t)
        assert np.array_equal(b.std, a.std)
        assert np.array_equal(b.bbox_size, a.bbox_size)
        assert b.volume == a.volume
        assert b.max_side == a.max_side


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
        assert samples[0].predicate_gt[0, 1, 1] == 1

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
        assert np.array_equal(again[0].predicate_gt, samples[0].predicate_gt)
        assert np.array_equal(again[0].instances[1].points, samples[0].instances[1].points)
        # a second save is byte-identical
        out2 = tmp_path / "rt2.jsonl"
        save_scene_file(out2, again)
        assert out.read_bytes() == out2.read_bytes()


def test_ordered_pairs_layout():
    assert ordered_pairs(3) == [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)]
    assert ordered_pairs(1) == []


def test_predicate_gt_rows_alignment():
    vocab = make_vocab()
    gt = np.zeros((3, 3, vocab.n_rel), dtype=np.uint8)
    gt[0, 2, 1] = 1
    gt[2, 1, 0] = 1
    sample = SceneGraphSample("s", "train", [unit_cube_instance(i) for i in range(3)], gt)
    rows = predicate_gt_rows(sample)
    pairs = ordered_pairs(3)
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
    instances = []
    for iid in ids:
        n = draw(st.integers(1, 4))
        pts = np.array(draw(st.lists(FINITE, min_size=3 * n, max_size=3 * n))).reshape(n, 3)
        instances.append(SceneInstance(iid, pts, draw(st.integers(0, vocab.n_obj - 1))))
    gt = np.array(draw(st.lists(st.integers(0, 1), min_size=k * k * vocab.n_rel,
                                max_size=k * k * vocab.n_rel)), dtype=np.uint8)
    gt = gt.reshape(k, k, vocab.n_rel)
    gt[np.arange(k), np.arange(k)] = 0
    visual = None
    if draw(st.booleans()):
        width = draw(st.integers(1, 3))
        visual = np.array(draw(st.lists(FINITE, min_size=k * width,
                                        max_size=k * width))).reshape(k, width)
    sample = SceneGraphSample(draw(st.text(min_size=1, max_size=8)),
                              draw(st.sampled_from(["train", "validation"])), instances, gt, visual)
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
    assert [(i.instance_id, i.gt_class) for i in again.instances] == \
        [(i.instance_id, i.gt_class) for i in sample.instances]
    for a, b in zip(again.instances, sample.instances):
        assert np.array_equal(_bits(a.points), _bits(b.points))
    assert np.array_equal(again.predicate_gt, sample.predicate_gt)
    if sample.visual_features is None:
        assert again.visual_features is None
    else:
        assert np.array_equal(_bits(again.visual_features), _bits(sample.visual_features))


@PROPERTY
@given(scenes(), st.sampled_from([float("nan"), float("inf"), float("-inf")]), st.data())
def test_any_non_finite_coordinate_rejected(tmp_path_factory, scene, value, data):
    sample, vocab = scene
    targets = [inst.points for inst in sample.instances]
    if sample.visual_features is not None:
        targets.append(sample.visual_features)
    target = data.draw(st.sampled_from(targets))
    target[data.draw(st.integers(0, target.shape[0] - 1)),
           data.draw(st.integers(0, target.shape[1] - 1))] = value
    path = tmp_path_factory.mktemp("nf") / "s.jsonl"
    save_scene_file(path, [sample])
    with pytest.raises(DataError, match="finite"):
        load_scene_file(path, vocab)
