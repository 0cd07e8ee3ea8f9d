import json
import shutil

import numpy as np
import pytest

from sg3d.cli import build_parser, main
from sg3d.metrics import dump_from_jsonl


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
                counts = counts + s.predicate_gt.sum(axis=(0, 1)).astype(int)
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

    def test_resume_across_modes_exit_code(self, workspace, tmp_path):
        root, cfg = workspace
        assert main(["train", "--dataset", str(root / "ds"), "--out", str(tmp_path / "b"),
                     "--config", cfg, "--no-vlsat", "--epochs", "1"]) == 0
        for ck, mode in ((root / "run" / "checkpoint.json", "--no-vlsat"),
                         (tmp_path / "b" / "checkpoint.json", "--vlsat")):
            assert main(["train", "--dataset", str(root / "ds"), "--out", str(tmp_path / "r"),
                         "--config", cfg, mode, "--epochs", "5", "--resume", str(ck)]) == 2
        assert not (tmp_path / "r" / "checkpoint.json").exists()

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
            gt_rows = prep.gt_pred_rows.astype(np.float64)
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
        for mode in ("baseline", "vlsat"):
            assert (tmp_path / "exp" / "seed_5" / mode / "report.json").exists()
            assert (tmp_path / "exp" / "seed_5" / mode / "checkpoint.json").exists()
