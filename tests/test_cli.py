import json
import shutil

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from sg3d import cli
from sg3d.cli import build_parser, config_hash, main, predict_dump
from sg3d.metrics import PredictionDump, dump_from_jsonl, dump_to_jsonl
from sg3d.reasoning import ModelConfig, ModelState
from sg3d.training import Checkpoint

from reference_scene import sample_of_instances


def write_config(tmp_path, **sections):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(sections))
    return str(path)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Small dataset + one trained checkpoint shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    cfg = write_config(root,
                       world={"n_train_scenes": 14, "n_val_scenes": 5, "k_min": 3, "k_max": 5,
                              "tag_probability": 0.5, "rule_rate_scale": 6.0, "d_emb": 16},
                       model={"d": 16, "hidden": 16, "heads": 2, "layers": 1, "d_emb": 16},
                       train={"epochs": 3, "batch_size": 4, "seed": 1})
    assert main(["generate", "--out", str(root / "ds"), "--seed", "7", "--config", cfg]) == 0
    assert main(["train", "--dataset", str(root / "ds"), "--out", str(root / "run"),
                 "--config", cfg, "--vlsat"]) == 0
    assert main(["predict", "--dataset", str(root / "ds"), "--out", str(root / "pred"),
                 "--checkpoint", str(root / "run" / "checkpoint.json")]) == 0
    return root, cfg


class TestGenerate:
    def test_artifacts_exist(self, workspace):
        root, cfg = workspace
        assert (root / "ds" / "train.jsonl").exists()
        assert (root / "ds" / "validation.jsonl").exists()
        manifest = json.loads((root / "ds" / "manifest.json").read_text())
        assert "config_hash" in manifest and "tool_version" in manifest

    def test_manifest_frequencies_match_files(self, workspace):
        root, cfg = workspace
        from sg3d.cli import read_dataset

        samples, vocab, manifest = read_dataset(root / "ds")
        counts = np.zeros(vocab.n_rel, dtype=int)
        for s in samples:
            if s.split == "train":
                counts = counts + s.gt_predicate_rows.sum(axis=0).astype(int)
        assert counts.tolist() == manifest["predicate_train_frequency"]

    def test_rerun_identical(self, workspace, tmp_path):
        root, cfg = workspace
        assert main(["generate", "--out", str(tmp_path / "ds2"), "--seed", "7",
                     "--config", cfg]) == 0
        for name in ("train.jsonl", "validation.jsonl", "manifest.json"):
            assert (root / "ds" / name).read_bytes() == (tmp_path / "ds2" / name).read_bytes()

    def test_different_seed_differs(self, workspace, tmp_path):
        root, cfg = workspace
        assert main(["generate", "--out", str(tmp_path / "ds3"), "--seed", "8",
                     "--config", cfg]) == 0
        assert (root / "ds" / "train.jsonl").read_bytes() != (tmp_path / "ds3" / "train.jsonl").read_bytes()

    def test_bad_config_exit_code(self, tmp_path):
        cfg = write_config(tmp_path, world={"bogus_key": 1})
        assert main(["generate", "--out", str(tmp_path / "x"), "--config", cfg]) == 2

    def test_infeasible_world_exit_code(self, tmp_path):
        cfg = write_config(tmp_path, world={"k_max": 1, "k_min": 1})
        assert main(["generate", "--out", str(tmp_path / "x"), "--config", cfg]) == 2

    def test_one_instance_scenes_refused(self, tmp_path):
        # the generator draws no scene below 2 instances, so k_min 1 is refused
        cfg = write_config(tmp_path, world={"k_min": 1, "k_max": 4})
        assert main(["generate", "--out", str(tmp_path / "x"), "--config", cfg]) == 2
        assert not (tmp_path / "x").exists()


class TestTrain:
    def test_log_has_epoch_records(self, workspace):
        root, cfg = workspace
        records = [json.loads(l) for l in (root / "run" / "train_log.jsonl").read_text().splitlines()]
        assert [r["epoch"] for r in records] == [0, 1, 2]
        assert all(r["loss_tri"] is not None for r in records)

    def test_no_vlsat_logs_null_aux(self, workspace, tmp_path):
        root, cfg = workspace
        assert main(["train", "--dataset", str(root / "ds"), "--out", str(tmp_path / "run2"),
                     "--config", cfg, "--no-vlsat"]) == 0
        records = [json.loads(l) for l in (tmp_path / "run2" / "train_log.jsonl").read_text().splitlines()]
        assert all(r["loss_tri"] is None and r["loss_node"] is None for r in records)

    def test_missing_dataset_exit_code(self, workspace, tmp_path):
        root, cfg = workspace
        assert main(["train", "--dataset", str(tmp_path / "nope"), "--out", str(tmp_path / "r"),
                     "--config", cfg]) == 3

    def test_resume_continues_epochs(self, workspace, tmp_path):
        root, cfg = workspace
        cfg5 = write_config(tmp_path,
                            model={"d": 16, "hidden": 16, "heads": 2, "layers": 1, "d_emb": 16},
                            train={"epochs": 5, "batch_size": 4, "seed": 1})
        assert main(["train", "--dataset", str(root / "ds"), "--out", str(tmp_path / "r5"),
                     "--config", cfg5, "--vlsat", "--epochs", "5",
                     "--resume", str(root / "run" / "checkpoint.json")]) == 0
        records = [json.loads(l) for l in (tmp_path / "r5" / "train_log.jsonl").read_text().splitlines()]
        assert [r["epoch"] for r in records] == [3, 4]

    @pytest.mark.parametrize("joint", [True, False])
    def test_joint_model_key_refused(self, workspace, tmp_path, joint):
        # the training mode alone decides whether the model has the oracle branch
        root, cfg = workspace
        bad = write_config(tmp_path, model={"d": 16, "heads": 2, "layers": 1, "joint": joint})
        assert main(["train", "--dataset", str(root / "ds"), "--out", str(tmp_path / "r"),
                     "--config", bad, "--vlsat", "--epochs", "1"]) == 2
        assert not (tmp_path / "r" / "train_log.jsonl").exists()

    def test_resume_across_modes_exit_code(self, workspace, tmp_path):
        root, cfg = workspace
        assert main(["train", "--dataset", str(root / "ds"), "--out", str(tmp_path / "b"),
                     "--config", cfg, "--no-vlsat", "--epochs", "1"]) == 0
        for ck, mode in ((root / "run" / "checkpoint.json", "--no-vlsat"),
                         (tmp_path / "b" / "checkpoint.json", "--vlsat")):
            assert main(["train", "--dataset", str(root / "ds"), "--out", str(tmp_path / "r"),
                         "--config", cfg, mode, "--epochs", "5", "--resume", str(ck)]) == 2
        assert not (tmp_path / "r" / "checkpoint.json").exists()

    def test_resume_with_fewer_epochs_exit_code(self, workspace, tmp_path):
        root, cfg = workspace
        run = tmp_path / "r4"
        assert main(["train", "--dataset", str(root / "ds"), "--out", str(run),
                     "--config", cfg, "--no-vlsat", "--epochs", "4"]) == 0
        before = (run / "checkpoint.json").read_bytes()
        assert main(["train", "--dataset", str(root / "ds"), "--out", str(tmp_path / "r2"),
                     "--config", cfg, "--no-vlsat", "--epochs", "2",
                     "--resume", str(run / "checkpoint.json")]) == 2
        assert not (tmp_path / "r2" / "checkpoint.json").exists()
        assert (run / "checkpoint.json").read_bytes() == before

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_non_finite_training_exit_code(self, workspace, tmp_path, caplog):
        root, cfg = workspace
        ck = Checkpoint.load(root / "run" / "checkpoint.json")
        model, optimizer, next_epoch = ck.restore()
        model.params["enc3d.point.w1"].data[...] = 1e308
        path = tmp_path / "huge.json"
        Checkpoint.capture(model, optimizer, ck.train_config, next_epoch, ck.vocab_hash).save(path)
        assert main(["train", "--dataset", str(root / "ds"), "--out", str(tmp_path / "r"),
                     "--config", cfg, "--vlsat", "--epochs", "4", "--resume", str(path)]) == 4
        assert f"epoch {next_epoch}, batch 0, scenes train_" in caplog.text

    def test_non_finite_scene_value_exit_code(self, workspace, tmp_path):
        root, cfg = workspace
        ds = tmp_path / "ds"
        shutil.copytree(root / "ds", ds)
        lines = (ds / "train.jsonl").read_text(encoding="utf-8").splitlines()
        record = json.loads(lines[0])
        record["visual_features"][0][0] = float("nan")
        lines[0] = json.dumps(record)
        (ds / "train.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["train", "--dataset", str(ds), "--out", str(tmp_path / "r"),
                     "--config", cfg]) == 3

    def test_resumed_hash_describes_trained_model(self, workspace, tmp_path):
        # the resumed model keeps the checkpoint's single layer whatever the
        # config says, so the provenance hash must be taken from that model
        root, cfg = workspace
        cfg2 = write_config(tmp_path,
                            model={"d": 16, "hidden": 16, "heads": 2, "layers": 2, "d_emb": 16},
                            train={"epochs": 5, "batch_size": 4, "seed": 1})
        assert main(["train", "--dataset", str(root / "ds"), "--out", str(tmp_path / "r"),
                     "--config", cfg2, "--vlsat", "--resume",
                     str(root / "run" / "checkpoint.json")]) == 0
        payload = Checkpoint.load(tmp_path / "r" / "checkpoint.json").payload
        assert payload["model_config"]["layers"] == 1
        assert payload["extra"]["config_hash"] == \
            config_hash(payload["train_config"] | payload["model_config"])


_DELETE = "<delete>"
_DANGLING = "<dangling>"
_FIRST = "<first>"

# (record part, field, replacement): _DELETE removes the field, _DANGLING
# points the relation at an instance id the scene does not have, and
# (_FIRST, v) sets the first number of the field's first row to v
SCENE_CORRUPTIONS = (
    [("scene", f, _DELETE) for f in ("scene_id", "split", "instances", "relations")]
    + [("instance", f, _DELETE) for f in ("id", "class", "points")]
    + [("relation", f, _DELETE) for f in ("subject_id", "object_id", "predicates")]
    + [("scene", "scene_id", v) for v in (5, None, ["s"])]
    + [("scene", "split", v) for v in (5, None, "test")]
    + [("scene", f, v) for f in ("instances", "relations") for v in (5, "x", {"a": 1}, {}, None)]
    + [("scene", "instances", [])]  # K = 0
    + [("scene", "visual_features", v) for v in (5, "x", {"a": 1}, [["a"]], [[1.0]])]
    + [("instance", f, v) for f in ("id", "class") for v in ("abc", "7", 1.5, True, None, [1])]
    + [("instance", "points", v)
       for v in (5, "x", {"a": 1}, None, [], [[0.0, 0.0]], [["a", 0, 0]], [[0, 0, 0], [1, 2]],
                 [[True, False, 1]], [["1", "2", "3.5"]], [[0, 0, 0], [1, True, 2]],
                 [[10 ** 400, 0, 0]])]
    + [(part, f, (_FIRST, v)) for part, f in (("instance", "points"), ("scene", "visual_features"))
       for v in (True, False, "1", "2.5")]
    + [("relation", f, v) for f in ("subject_id", "object_id") for v in ("abc", 1.5, None, [1], _DANGLING)]
    + [("relation", "predicates", v) for v in (5, "x", {"a": 1}, None, ["7"], [1.5], [None], [[1]])]
)


@pytest.fixture
def corrupted_dataset(workspace, tmp_path):
    """A copy of the workspace dataset, and the lines of its train.jsonl."""
    root, _ = workspace
    shutil.copytree(root / "ds", tmp_path / "ds")
    return tmp_path / "ds", (root / "ds" / "train.jsonl").read_text(encoding="utf-8").splitlines()


# every example rewrites train.jsonl and clears the log, so sharing the
# function-scoped fixtures between examples is safe
@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(corruption=st.sampled_from(SCENE_CORRUPTIONS), line=st.integers(0, 50),
       pick=st.integers(0, 50), strict=st.booleans())
@example(corruption=("instance", "id", _DELETE), line=0, pick=0, strict=True)
@example(corruption=("instance", "class", "abc"), line=0, pick=0, strict=True)
@example(corruption=("relation", "predicates", _DELETE), line=0, pick=0, strict=True)
@example(corruption=("scene", "instances", 5), line=0, pick=0, strict=True)
@example(corruption=("instance", "points", "x"), line=0, pick=0, strict=True)
@example(corruption=("scene", "visual_features", [["a"]]), line=0, pick=0, strict=True)
@example(corruption=("instance", "points", (_FIRST, True)), line=0, pick=0, strict=True)
@example(corruption=("instance", "points", (_FIRST, "1")), line=0, pick=0, strict=True)
@example(corruption=("scene", "visual_features", (_FIRST, True)), line=0, pick=0, strict=True)
@example(corruption=("scene", "visual_features", (_FIRST, "1")), line=0, pick=0, strict=True)
@example(corruption=("instance", "points", [[10 ** 400, 0, 0]]), line=0, pick=0, strict=True)
def test_corrupted_scene_record_exit_code(corrupted_dataset, caplog, corruption, line, pick, strict):
    ds, lines = corrupted_dataset
    part, field, value = corruption
    # relation corruptions go to a scene that has relations
    candidates = [n for n, ln in enumerate(lines) if part != "relation" or json.loads(ln)["relations"]]
    n = candidates[line % len(candidates)]
    record = json.loads(lines[n])
    target = {"scene": lambda: record,
              "instance": lambda: record["instances"][pick % len(record["instances"])],
              "relation": lambda: record["relations"][pick % len(record["relations"])]}[part]()
    if value == _DELETE:
        del target[field]
    elif value == _DANGLING:
        target[field] = max(inst["id"] for inst in record["instances"]) + 1 + pick
    elif isinstance(value, tuple):
        target[field][0][0] = value[1]
    else:
        target[field] = value
    (ds / "train.jsonl").write_text("\n".join(lines[:n] + [json.dumps(record)] + lines[n + 1:]) + "\n",
                                    encoding="utf-8")
    caplog.clear()
    argv = ["train", "--dataset", str(ds), "--out", str(ds / "run")]
    assert main(argv + ([] if strict else ["--no-strict"])) == 3
    assert f"train.jsonl:{n + 1}" in caplog.records[-1].getMessage()
    assert not (ds / "run").exists()


@pytest.mark.parametrize("command", ["train", "predict"])
def test_split_field_mismatch_exit_code(workspace, tmp_path, caplog, command):
    # a scene's split field must agree with its file: training keeps only
    # train-labelled scenes, and predict reads one file, so the relabelled
    # scene would otherwise silently fall out of both splits
    root, cfg = workspace
    ds = tmp_path / "ds"
    shutil.copytree(root / "ds", ds)
    lines = (ds / "train.jsonl").read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[0])
    record["split"] = "validation"
    lines[0] = json.dumps(record)
    (ds / "train.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
    if command == "train":
        argv = ["train", "--dataset", str(ds), "--out", str(tmp_path / "r"), "--config", cfg]
    else:
        argv = ["predict", "--dataset", str(ds), "--out", str(tmp_path / "p"), "--split", "train",
                "--checkpoint", str(root / "run" / "checkpoint.json")]
    assert main(argv) == 3
    message = caplog.records[-1].getMessage()
    assert f"train.jsonl:1 (scene {record['scene_id']})" in message and "'validation'" in message
    assert not (tmp_path / "r" / "train_log.jsonl").exists()
    assert not (tmp_path / "p" / "predictions.jsonl").exists()


class TestPredict:
    def test_dump_scene_count_and_invariants(self, workspace):
        root, cfg = workspace
        dump = dump_from_jsonl((root / "pred" / "predictions.jsonl").read_text())
        assert len(dump.scenes) == 5
        for s in dump.scenes:
            assert np.all(np.abs(s.object_probs.sum(axis=1) - 1.0) <= 1e-9)
            assert np.all((s.predicate_probs >= 0) & (s.predicate_probs <= 1))

    def test_deterministic(self, workspace, tmp_path):
        root, cfg = workspace
        assert main(["predict", "--dataset", str(root / "ds"), "--out", str(tmp_path / "p2"),
                     "--checkpoint", str(root / "run" / "checkpoint.json")]) == 0
        assert (root / "pred" / "predictions.jsonl").read_bytes() == \
            (tmp_path / "p2" / "predictions.jsonl").read_bytes()

    def test_reads_only_the_split_file(self, workspace, tmp_path):
        root, cfg = workspace
        ds = tmp_path / "ds"
        shutil.copytree(root / "ds", ds)
        with open(ds / "train.jsonl", "a", encoding="utf-8") as fh:
            fh.write("{not json\n")
        assert main(["predict", "--dataset", str(ds), "--out", str(tmp_path / "p"),
                     "--checkpoint", str(root / "run" / "checkpoint.json")]) == 0
        assert (root / "pred" / "predictions.jsonl").read_bytes() == \
            (tmp_path / "p" / "predictions.jsonl").read_bytes()
        assert main(["train", "--dataset", str(ds), "--out", str(tmp_path / "r"),
                     "--config", cfg]) == 3

    def test_vocab_mismatch_exit_code(self, workspace, tmp_path):
        root, cfg = workspace
        cfg2 = write_config(tmp_path, world={"n_train_scenes": 6, "n_val_scenes": 2,
                                             "n_obj": 8, "n_rel": 7, "tag_probability": 0.5,
                                             "k_min": 3, "k_max": 4, "rule_rate_scale": 6.0})
        assert main(["generate", "--out", str(tmp_path / "other"), "--seed", "3",
                     "--config", cfg2]) == 0
        assert main(["predict", "--dataset", str(tmp_path / "other"), "--out", str(tmp_path / "p"),
                     "--checkpoint", str(root / "run" / "checkpoint.json")]) == 3


def hand_scene(rng, k, scene_id, n_rel=5):
    """A scene of k instances with random points and relations."""
    classes, point_sets = [], []
    for _ in range(k):
        classes.append(int(rng.integers(0, 6)))
        point_sets.append(rng.standard_normal((int(rng.integers(3, 12)), 3)) * 0.4
                          + rng.uniform(-2, 2, size=3))
    gt = (rng.random((k * (k - 1), n_rel)) < 0.2).astype(np.uint8)
    return sample_of_instances(scene_id, "validation", range(k), classes, point_sets, gt,
                               rng.standard_normal((k, 10)))


def random_model(rng, joint):
    model = ModelState(ModelConfig(d_vis=10, n_obj=6, n_rel=5, joint=joint))
    for p in model.params.values():
        p.data = rng.standard_normal(p.data.shape) * 0.3
    return model


@settings(max_examples=100, deadline=None)
@given(ks=st.lists(st.integers(1, 9), min_size=1, max_size=10), joint=st.booleans(),
       seed=st.integers(0, 2 ** 16))
@example(ks=[3, 7, 3, 2, 7, 9, 2, 3], joint=False, seed=1)
@example(ks=[4, 6, 4, 6, 4, 6], joint=True, seed=2)
@example(ks=[1, 1, 1], joint=False, seed=3)
@example(ks=[1, 5, 1, 5, 1], joint=True, seed=4)
def test_prediction_is_batch_invariant(ks, joint, seed):
    # the dump of the scenes predicted together is, byte for byte, the dump
    # of each scene predicted alone, in the input order
    rng = np.random.default_rng(seed)
    model = random_model(rng, joint)
    samples = [hand_scene(rng, k, f"scene{i}") for i, k in enumerate(ks)]
    together = predict_dump(model, samples, "v", "c")
    alone = PredictionDump(scenes=[predict_dump(model, [s], "v", "c").scenes[0] for s in samples],
                           n_obj=6, n_rel=5, vocab_hash="v", config_hash="c")
    assert [s.scene_id for s in together.scenes] == [s.scene_id for s in samples]
    assert dump_to_jsonl(together) == dump_to_jsonl(alone)


def test_prediction_runs_one_forward_per_instance_count(monkeypatch):
    # scenes of one K > 1 share a forward; each K=1 scene runs alone
    calls = []
    forward = cli.forward_scene

    def counting(model, scene, mode="joint"):
        calls.append(list(scene.scene_ids))
        return forward(model, scene, mode)

    monkeypatch.setattr(cli, "forward_scene", counting)
    rng = np.random.default_rng(5)
    ks = [3, 1, 5, 3, 1, 5, 5]
    samples = [hand_scene(rng, k, f"scene{i}") for i, k in enumerate(ks)]
    dump = predict_dump(random_model(rng, False), samples, "", "")
    assert len(calls) == 4
    assert sorted(calls) == [["scene0", "scene3"], ["scene1"], ["scene2", "scene5", "scene6"],
                             ["scene4"]]
    assert [s.scene_id for s in dump.scenes] == [s.scene_id for s in samples]


def _grow_first_param(payload):
    blob = payload["params"][sorted(payload["params"])[0]]
    blob["shape"] = [blob["shape"][0] + 1] + blob["shape"][1:]


def _flatten_a_matrix_moment(payload):
    blob = next(b for _, b in sorted(payload["optimizer"]["v"].items()) if len(b["shape"]) == 2)
    blob["shape"] = [int(np.prod(blob["shape"]))]


# (id, edit of the checkpoint payload; the content hash is recomputed after it)
BAD_CHECKPOINTS = [
    ("train-config-extra-key", lambda p: p["train_config"].update(bogus=1)),
    ("model-config-missing-heads", lambda p: p["model_config"].pop("heads")),
    ("moment-missing-name", lambda p: p["optimizer"]["m"].pop(sorted(p["optimizer"]["m"])[0])),
    ("blob-shape-mismatch", _grow_first_param),
    ("moment-blob-flattened", _flatten_a_matrix_moment),
    ("header-only", lambda p: [p.pop(k) for k in list(p)
                               if k not in ("kind", "format_version", "vocab_hash")]),
    ("params-missing", lambda p: p.pop("params")),
    ("optimizer-missing", lambda p: p.pop("optimizer")),
    ("optimizer-step-missing", lambda p: p["optimizer"].pop("step")),
    ("next-epoch-float", lambda p: p.update(next_epoch=3.0)),
    ("vocab-hash-missing", lambda p: p.pop("vocab_hash")),
    ("model-config-d-string", lambda p: p["model_config"].update(d="32")),
    ("model-config-layers-float", lambda p: p["model_config"].update(layers=1.5)),
    ("model-config-heads-zero", lambda p: p["model_config"].update(heads=0)),
    ("train-config-beta1-string", lambda p: p["train_config"].update(beta1="0.9")),
]


@pytest.mark.parametrize("edit", [b[1] for b in BAD_CHECKPOINTS], ids=[b[0] for b in BAD_CHECKPOINTS])
def test_malformed_checkpoint_exit_code(workspace, tmp_path, edit):
    root, cfg = workspace
    payload = json.loads((root / "run" / "checkpoint.json").read_text())
    edit(payload)
    payload["content_hash"] = Checkpoint._hash(payload)
    bad = tmp_path / "checkpoint.json"
    bad.write_text(json.dumps(payload))
    assert main(["predict", "--dataset", str(root / "ds"), "--out", str(tmp_path / "p"),
                 "--checkpoint", str(bad)]) == 3
    assert main(["train", "--dataset", str(root / "ds"), "--out", str(tmp_path / "r"),
                 "--config", cfg, "--vlsat", "--epochs", "5", "--resume", str(bad)]) == 3
    assert not (tmp_path / "p" / "predictions.jsonl").exists()
    assert not (tmp_path / "r" / "checkpoint.json").exists()


def test_checkpoint_not_json_exit_code(workspace, tmp_path):
    root, cfg = workspace
    bad = tmp_path / "checkpoint.json"
    bad.write_text("{not json")
    assert main(["predict", "--dataset", str(root / "ds"), "--out", str(tmp_path / "p"),
                 "--checkpoint", str(bad)]) == 3


class TestEval:
    def test_report_files(self, workspace, tmp_path):
        root, cfg = workspace
        assert main(["eval", "--dump", str(root / "pred" / "predictions.jsonl"),
                     "--manifest", str(root / "ds" / "manifest.json"),
                     "--out", str(tmp_path / "ev")]) == 0
        report = json.loads((tmp_path / "ev" / "report.json").read_text())
        assert report["config"]["vocab_hash"] == json.loads(
            (root / "ds" / "manifest.json").read_text())["vocab_hash"]
        csv = (tmp_path / "ev" / "report.csv").read_text()
        assert csv.splitlines()[0] == "metric,k,value,split,constraint"

    def test_k_list_flag(self, workspace, tmp_path):
        root, cfg = workspace
        assert main(["eval", "--dump", str(root / "pred" / "predictions.jsonl"),
                     "--manifest", str(root / "ds" / "manifest.json"),
                     "--out", str(tmp_path / "ev2"), "--k-list", "5,10"]) == 0
        report = json.loads((tmp_path / "ev2" / "report.json").read_text())
        assert set(report["sgcls"]["with_constraint"]["R"]) == {"5", "10"}

    def test_vocab_hash_mismatch_refused(self, workspace, tmp_path):
        root, cfg = workspace
        manifest = json.loads((root / "ds" / "manifest.json").read_text())
        manifest["vocab_hash"] = "0" * 16
        bad = tmp_path / "bad_manifest.json"
        bad.write_text(json.dumps(manifest))
        assert main(["eval", "--dump", str(root / "pred" / "predictions.jsonl"),
                     "--manifest", str(bad), "--out", str(tmp_path / "ev3")]) == 3

    def test_perfect_dump_scores_100(self, workspace, tmp_path):
        root, cfg = workspace
        from sg3d.cli import read_dataset
        from sg3d.metrics import PredictionDump, ScenePrediction, dump_to_jsonl
        from sg3d.reasoning import prepare_scene

        samples, vocab, manifest = read_dataset(root / "ds")
        scenes = []
        for s in samples:
            if s.split != "validation":
                continue
            prep = prepare_scene(s)
            obj = np.full((s.k, vocab.n_obj), 1e-12)
            obj[np.arange(s.k), prep.gt_objects] = 1.0
            obj /= obj.sum(axis=1, keepdims=True)
            # keep one gt predicate per pair: under the graph constraint a
            # pair can only ever contribute its top-1 predicate, so perfect
            # scores reach 100% only on single-label pairs
            gt_rows = prep.gt_predicate_rows.astype(np.float64)
            for row in gt_rows:
                hot = np.nonzero(row)[0]
                if len(hot) > 1:
                    row[hot[1:]] = 0.0
            scenes.append(ScenePrediction(
                scene_id=s.scene_id, object_probs=obj,
                predicate_probs=gt_rows.copy(),
                gt_objects=prep.gt_objects,
                gt_predicate_rows=gt_rows.astype(np.uint8)))
        dump = PredictionDump(scenes, vocab.n_obj, vocab.n_rel,
                              vocab_hash=manifest["vocab_hash"])
        path = tmp_path / "perfect.jsonl"
        path.write_text(dump_to_jsonl(dump))
        assert main(["eval", "--dump", str(path), "--manifest",
                     str(root / "ds" / "manifest.json"), "--out", str(tmp_path / "ev4")]) == 0
        report = json.loads((tmp_path / "ev4" / "report.json").read_text())
        for k, v in report["object"]["A"].items():
            assert v == 1.0
        for bucket in ("with_constraint", "no_constraint"):
            for k, v in report["predcls"][bucket]["R"].items():
                assert v == 1.0
        for k, v in report["triplet"]["A"].items():
            assert v == 1.0


def _break_nan_predicate(rec):
    rec["predicate_probs"][0][0] = float("nan")


def _break_nan_object(rec):
    rec["object_probs"][0][0] = float("nan")


def _break_negative_label(rec):
    rec["gt_objects"][0] = -1


def _break_label_range(rec):
    rec["gt_objects"][0] = len(rec["object_probs"][0])


def _break_label_count(rec):
    rec["gt_objects"].append(0)


def _break_object_width(rec):
    rec["object_probs"] = [row + [0.0] for row in rec["object_probs"]]


def _break_predicate_width(rec):
    rec["predicate_probs"] = [row[:-1] for row in rec["predicate_probs"]]


def _break_gt_row(rec):
    rec["gt_predicates"][0][0] = 2


def _break_bool_object_probs(rec):
    # a one-hot row of booleans still sums to 1 if read as numbers
    rec["object_probs"][0] = [True] + [False] * (len(rec["object_probs"][0]) - 1)


def _break_bool_predicate_prob(rec):
    rec["predicate_probs"][0][0] = False


def _break_string_predicate_prob(rec):
    rec["predicate_probs"][0][0] = "0.5"


def _break_bool_label(rec):
    rec["gt_objects"][0] = bool(rec["gt_objects"][0])


def _break_string_label(rec):
    rec["gt_objects"][0] = str(rec["gt_objects"][0])


def _break_bool_gt_row(rec):
    rec["gt_predicates"][0][0] = bool(rec["gt_predicates"][0][0])


def _break_huge_integer_prob(rec):
    # too large for a float64
    rec["predicate_probs"][0][0] = 10 ** 400


def _break_scene_id(rec):
    del rec["scene_id"]


def _break_field(rec):
    del rec["gt_predicates"]


# (name, edit of the first scene record, or a raw text for that line)
BAD_DUMP_LINES = [
    ("nan-predicate", _break_nan_predicate), ("nan-object", _break_nan_object),
    ("negative-label", _break_negative_label), ("label-out-of-range", _break_label_range),
    ("label-count", _break_label_count), ("object-width", _break_object_width),
    ("predicate-width", _break_predicate_width), ("gt-row-not-binary", _break_gt_row),
    ("bool-object-probs", _break_bool_object_probs), ("bool-predicate-prob", _break_bool_predicate_prob),
    ("string-predicate-prob", _break_string_predicate_prob), ("bool-label", _break_bool_label),
    ("string-label", _break_string_label), ("bool-gt-row", _break_bool_gt_row),
    ("huge-integer-prob", _break_huge_integer_prob),
    ("missing-scene-id", _break_scene_id), ("missing-field", _break_field),
    ("not-json", "{not json"), ("not-an-object", "[1, 2]"),
]


# (name, edit of the header record)
BAD_DUMP_HEADERS = [
    ("header-n_obj-bool", lambda rec: rec.update(n_obj=True)),
    ("header-n_rel-bool", lambda rec: rec.update(n_rel=True)),
]

# (name, line number, breakage): the header is line 1, the first scene line 2
BAD_DUMPS = ([(name, 2, breakage) for name, breakage in BAD_DUMP_LINES]
             + [(name, 1, breakage) for name, breakage in BAD_DUMP_HEADERS])


@pytest.mark.parametrize("line,breakage", [b[1:] for b in BAD_DUMPS], ids=[b[0] for b in BAD_DUMPS])
def test_malformed_dump_exit_code(workspace, tmp_path, caplog, line, breakage):
    root, cfg = workspace
    lines = (root / "pred" / "predictions.jsonl").read_text().splitlines()
    if callable(breakage):
        rec = json.loads(lines[line - 1])
        breakage(rec)
        lines[line - 1] = json.dumps(rec)
    else:
        lines[line - 1] = breakage
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    assert main(["eval", "--dump", str(bad), "--manifest", str(root / "ds" / "manifest.json"),
                 "--out", str(tmp_path / "ev")]) == 3
    assert f"line {line}" in caplog.text
    assert not (tmp_path / "ev" / "report.json").exists()


def _edited(change):
    """A manifest edit: `change` alters the parsed manifest in place."""
    def edit(manifest):
        change(manifest)
        return json.dumps(manifest)
    return edit


# (id, manifest edit): train and predict read the dataset's manifest, and
# each must refuse these with a data error
BAD_DATASET_MANIFESTS = [
    ("top-level-list", lambda manifest: "[]"),
    ("object_names-missing", _edited(lambda m: m.pop("object_names"))),
    ("predicate_train_frequency-float",
     _edited(lambda m: m.update(predicate_train_frequency=[float(c) + 0.5
                                                            for c in m["predicate_train_frequency"]]))),
    ("world_config-not-an-object", _edited(lambda m: m.update(world_config=[]))),
    ("world_config-unknown-key", _edited(lambda m: m["world_config"].update(colour=1))),
    ("world_config-missing-key", _edited(lambda m: m["world_config"].pop("seed"))),
    ("world_config-n_obj-string", _edited(lambda m: m["world_config"].update(n_obj="16"))),
    ("world_config-n_obj-not-the-names",
     _edited(lambda m: m["world_config"].update(n_obj=len(m["object_names"]) + 3))),
    ("world_config-n_rel-not-the-names",
     _edited(lambda m: m["world_config"].update(n_rel=len(m["predicate_names"]) - 1))),
    ("predicate_train_frequency-short",
     _edited(lambda m: m.update(predicate_train_frequency=m["predicate_train_frequency"][:-1]))),
    # world_config must be the resolved, valid config generate writes
    ("world_config-d_vis-null", _edited(lambda m: m["world_config"].update(d_vis=None))),
    ("world_config-semantic_predicates-empty",
     _edited(lambda m: m["world_config"].update(semantic_predicates=[]))),
    ("world_config-tag_probability-above-one",
     _edited(lambda m: m["world_config"].update(tag_probability=5.0))),
    ("world_config-points_min-zero", _edited(lambda m: m["world_config"].update(points_min=0))),
]

# (id, command, manifest edit); eval reads the manifest named by --manifest
MALFORMED_MANIFESTS = [
    ("not json", "eval", lambda manifest: "{not json"),
    ("missing-field", "eval", _edited(lambda m: m.pop("train_triplets"))),
    ("predicate_splits-tail-string", "eval",
     _edited(lambda m: m["predicate_splits"].update(tail="0123"))),
    ("predicate_splits-class-out-of-range", "eval",
     _edited(lambda m: m["predicate_splits"]["tail"].append(m["world_config"]["n_rel"]))),
    ("train_triplets-pairs", "eval",
     _edited(lambda m: m.update(train_triplets=[t[:2] for t in m["train_triplets"]]))),
    ("train_triplets-strings", "eval",
     _edited(lambda m: m.update(train_triplets=[" ".join(map(str, t)) for t in m["train_triplets"]]))),
] + [(f"{command}-{name}", command, edit)
     for command in ("train", "predict") for name, edit in BAD_DATASET_MANIFESTS]


@pytest.mark.parametrize("command,edit", [row[1:] for row in MALFORMED_MANIFESTS],
                         ids=[row[0] for row in MALFORMED_MANIFESTS])
def test_malformed_manifest_exit_code(workspace, tmp_path, command, edit):
    root, cfg = workspace
    ds = tmp_path / "ds"
    shutil.copytree(root / "ds", ds)
    manifest = ds / "manifest.json"
    manifest.write_text(edit(json.loads(manifest.read_text())))
    out = tmp_path / "out"
    argv = {
        "train": ["train", "--dataset", str(ds), "--out", str(out), "--config", cfg],
        "predict": ["predict", "--dataset", str(ds), "--out", str(out),
                    "--checkpoint", str(root / "run" / "checkpoint.json")],
        "eval": ["eval", "--dump", str(root / "pred" / "predictions.jsonl"),
                 "--manifest", str(manifest), "--out", str(out)],
    }[command]
    assert main(argv) == 3
    assert not out.exists()


# (id, config file eval section, --k-list)
BAD_EVAL_CONFIGS = [
    ("constraint_mode", {"constraint_mode": "restricted"}, None),
    ("predcls_ranking", {"predcls_ranking": "one-hot"}, None),
    ("mr_mode", {"mr_mode": "per-scene"}, None),
    ("triplet_pool", {"triplet_pool": "global"}, None),
    ("object_ks-zero", {"object_ks": [0, 1]}, None),
    ("recall_ks-not-a-list", {"recall_ks": 20}, None),
    ("k-list-zero", {}, "0"), ("k-list-negative", {}, "5,-1"), ("k-list-word", {}, "five"),
]


@pytest.mark.parametrize("section,k_list", [b[1:] for b in BAD_EVAL_CONFIGS],
                         ids=[b[0] for b in BAD_EVAL_CONFIGS])
def test_bad_eval_config_exit_code(workspace, tmp_path, section, k_list):
    root, cfg = workspace
    argv = ["eval", "--dump", str(root / "pred" / "predictions.jsonl"),
            "--manifest", str(root / "ds" / "manifest.json"), "--out", str(tmp_path / "ev"),
            "--config", write_config(tmp_path, eval=section)]
    if k_list is not None:
        argv += ["--k-list", k_list]
    assert main(argv) == 2
    assert not (tmp_path / "ev" / "report.json").exists()


# (id, command, config file text): each must exit 2 before writing anything
BAD_CONFIG_FILES = [
    ("top-level-list", "generate", "[]"), ("top-level-number", "generate", "5"),
    ("top-level-list", "train", "[]"),
    ("world-not-object", "generate", '{"world": 5}'),
    ("train-not-object", "train", '{"train": 5}'),
    ("eval-not-object", "train", '{"eval": []}'),
    ("k_min-string", "generate", '{"world": {"k_min": "a"}}'),
    ("n_views-bool", "generate", '{"world": {"n_views": true}}'),
    ("zipf-null", "generate", '{"world": {"zipf_exponent": null}}'),
    ("semantic-predicates-floats", "generate", '{"world": {"semantic_predicates": [12.0]}}'),
    ("points_min-zero", "generate", '{"world": {"points_min": 0}}'),
    ("points_min-above-points_max", "generate", '{"world": {"points_min": 5, "points_max": 2}}'),
    ("n_train_scenes-zero", "generate", '{"world": {"n_train_scenes": 0}}'),
    ("n_val_scenes-zero", "generate", '{"world": {"n_val_scenes": 0}}'),
    ("tag_probability-above-one", "generate", '{"world": {"tag_probability": 2.0}}'),
    ("tag_probability-negative", "generate", '{"world": {"tag_probability": -0.5}}'),
    ("sigma_noise-negative", "generate", '{"world": {"sigma_noise": -1.0}}'),
    ("rule_rate_scale-negative", "generate", '{"world": {"rule_rate_scale": -1.0}}'),
    ("rule_rate_floor-negative", "generate", '{"world": {"rule_rate_floor": -1.0}}'),
    ("epochs-string", "train", '{"train": {"epochs": "3"}}'),
    ("base_lr-string", "train", '{"train": {"base_lr": "0.1"}}'),
    ("vlsat-int", "train", '{"train": {"vlsat": 1}}'),
    ("heads-string", "train", '{"model": {"heads": "4"}}'),
    ("heads-zero", "train", '{"model": {"heads": 0}}'),
    ("heads-negative", "train", '{"model": {"heads": -1}}'),
    ("d-zero", "train", '{"model": {"d": 0}}'),
    ("d-negative", "train", '{"model": {"d": -4, "heads": 2}}'),
    ("hidden-zero", "train", '{"model": {"hidden": 0}}'),
    ("d_emb-negative", "train", '{"model": {"d_emb": -1}}'),
    ("d_emb-not-the-dataset", "train", '{"model": {"d": 16, "heads": 2, "d_emb": 32}}'),
    ("d_vis-not-the-dataset", "train", '{"model": {"d": 16, "heads": 2, "d_vis": 20}}'),
    ("seeds-string", "experiment", '{"experiment": {"seeds": "7"}}'),
]


@pytest.mark.parametrize("command,text", [b[1:] for b in BAD_CONFIG_FILES],
                         ids=[f"{b[1]}-{b[0]}" for b in BAD_CONFIG_FILES])
def test_malformed_config_file_exit_code(workspace, tmp_path, command, text):
    root, _ = workspace
    cfg = tmp_path / "config.json"
    cfg.write_text(text)
    out = tmp_path / "out"
    argv = [command, "--out", str(out), "--config", str(cfg)]
    if command == "train":
        argv += ["--dataset", str(root / "ds")]
    assert main(argv) == 2
    assert not out.exists()


def test_config_int_stands_for_float(tmp_path):
    # the JSON type rule of scene files: an integer fits a float field, None
    # an optional one
    cfg = write_config(tmp_path, train={"base_lr": 1, "init_classifiers_from_embeddings": None})
    tc = cli.train_config(cli.load_config(cfg), build_parser().parse_args(
        ["train", "--out", "o", "--dataset", "d"]))
    assert tc.base_lr == 1 and tc.init_classifiers_from_embeddings is None


# flags a subcommand does not read; argparse must refuse each of them
REMOVED_FLAGS = [
    ("generate", ["--strict"]), ("generate", ["--no-strict"]), ("generate", ["--workers", "2"]),
    ("train", ["--workers", "2"]),
    ("predict", ["--config", "c.json"]), ("predict", ["--seed", "1"]),
    ("predict", ["--workers", "2"]),
    ("eval", ["--seed", "1"]), ("eval", ["--strict"]), ("eval", ["--no-strict"]),
    ("eval", ["--workers", "2"]),
    ("experiment", ["--strict"]), ("experiment", ["--no-strict"]),
    ("experiment", ["--workers", "2"]),
]

REQUIRED_ARGS = {
    "generate": ["--out", "o"],
    "train": ["--out", "o", "--dataset", "d"],
    "predict": ["--out", "o", "--dataset", "d", "--checkpoint", "c"],
    "eval": ["--out", "o", "--dump", "d", "--manifest", "m"],
    "experiment": ["--out", "o"],
}


@pytest.mark.parametrize("command,flag", REMOVED_FLAGS,
                         ids=[f"{c} {f[0]}" for c, f in REMOVED_FLAGS])
def test_removed_flag_is_refused(command, flag, capsys):
    argv = [command] + REQUIRED_ARGS[command]
    build_parser().parse_args(argv)
    # parse only: were the flag accepted, main() would go on to run the command
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv + flag)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


class TestExperimentSmoke:
    def test_single_seed_tiny(self, tmp_path):
        cfg = write_config(tmp_path,
                           world={"n_train_scenes": 10, "n_val_scenes": 4, "k_min": 3, "k_max": 4,
                                  "tag_probability": 0.5, "rule_rate_scale": 6.0, "d_emb": 16},
                           model={"d": 16, "hidden": 16, "heads": 2, "layers": 1, "d_emb": 16},
                           train={"epochs": 2, "batch_size": 4, "seed": 1})
        assert main(["experiment", "--out", str(tmp_path / "exp"), "--seed", "5",
                     "--config", cfg]) == 0
        summary = json.loads((tmp_path / "exp" / "comparison.json").read_text())
        assert summary["seeds"] == [5]
        assert set(summary["per_seed"]["5"]) == {"baseline", "vlsat"}
        # each mode directory holds what `sg3d train`, `predict` and `eval` write
        dataset = tmp_path / "exp" / "seed_5" / "dataset"
        for mode in ("baseline", "vlsat"):
            mode_dir = tmp_path / "exp" / "seed_5" / mode
            assert sorted(p.name for p in mode_dir.iterdir()) == [
                "checkpoint.json", "predictions.jsonl", "report.csv", "report.json", "train_log.jsonl"]
            assert main(["predict", "--dataset", str(dataset), "--out", str(tmp_path / f"p_{mode}"),
                         "--checkpoint", str(mode_dir / "checkpoint.json")]) == 0
            assert main(["eval", "--config", cfg, "--dump", str(mode_dir / "predictions.jsonl"),
                         "--manifest", str(dataset / "manifest.json"),
                         "--out", str(tmp_path / f"ev_{mode}")]) == 0
            assert (mode_dir / "predictions.jsonl").read_bytes() == \
                (tmp_path / f"p_{mode}" / "predictions.jsonl").read_bytes()
            for name in ("report.json", "report.csv"):
                assert (mode_dir / name).read_bytes() == (tmp_path / f"ev_{mode}" / name).read_bytes()
