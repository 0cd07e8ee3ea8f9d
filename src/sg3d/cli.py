"""Command-line pipeline: generate, train, predict, eval, experiment.

Every artifact embeds the config hash and tool version. Exit codes:
0 ok, 2 config error, 3 data error, 4 numeric abort.
Log level comes from SGF_LOG_LEVEL (error|warn|info|debug).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import sys
from dataclasses import asdict, replace
from itertools import chain
from pathlib import Path

from . import __version__
from . import autodiff as ad
from .errors import ConfigError, DataError, NumericError, Sg3dError
from .metrics import (EvalConfig, PredictionDump, ScenePrediction, dump_from_jsonl,
                      dump_to_jsonl, evaluate, report_rows, report_to_csv)
from .reasoning import ModelConfig, ModelState, forward_scene, pack_scenes, prepare_scene
from .scene import (Vocabulary, field_problems, fits_type, load_scene_file, save_scene_file,
                    stored_config)
from .synthetic import WorldConfig, generate_dataset, manifest_to_json, provider_from_manifest
from .training import Checkpoint, TrainConfig, train

log = logging.getLogger("sg3d")

_LOG_LEVELS = {"error": logging.ERROR, "warn": logging.WARNING,
               "info": logging.INFO, "debug": logging.DEBUG}


def _setup_logging() -> None:
    level = os.environ.get("SGF_LOG_LEVEL", "info").lower()
    if level not in _LOG_LEVELS:
        raise ConfigError(f"SGF_LOG_LEVEL must be one of {sorted(_LOG_LEVELS)}, got {level!r}")
    logging.basicConfig(level=_LOG_LEVELS[level], format="%(levelname)s %(name)s: %(message)s")


def config_hash(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()).hexdigest()[:16]


def _build_dataclass(cls, values: dict, where: str):
    problems = field_problems(cls, values, complete=False)
    if problems:
        raise ConfigError(f"{where}: {'; '.join(problems)}")
    return cls(**values)


def load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except FileNotFoundError as e:
        raise ConfigError(f"config file not found: {path}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"config file {path} is not valid JSON: {e}") from e
    if not isinstance(cfg, dict):
        raise ConfigError(f"config file {path} must hold a JSON object, got {type(cfg).__name__}")
    unknown = set(cfg) - {"world", "model", "train", "eval", "experiment"}
    if unknown:
        raise ConfigError(f"config file {path}: unknown sections {sorted(unknown)}")
    for section, values in cfg.items():
        if not isinstance(values, dict):
            raise ConfigError(f"config file {path}: section {section!r} must be a JSON object, "
                              f"got {type(values).__name__}")
    return cfg


def world_config(cfg: dict, seed: int | None) -> WorldConfig:
    wc = _build_dataclass(WorldConfig, dict(cfg.get("world", {})), "world config")
    if seed is not None:
        wc.seed = seed
    wc.validate()
    return wc


def model_config(cfg: dict, manifest: dict) -> ModelConfig:
    values = dict(cfg.get("model", {}))
    if "joint" in values:
        raise ConfigError("model config: joint follows the training mode (--vlsat / --no-vlsat), "
                          "not the config file")
    wc = manifest["world_config"]
    sizes = ("n_obj", "n_rel", "d_vis", "d_emb")
    for name in sizes:
        values.setdefault(name, wc[name])
    mc = _build_dataclass(ModelConfig, values, "model config")
    wrong = [f"{name} {getattr(mc, name)} (the dataset's is {wc[name]})"
             for name in sizes if getattr(mc, name) != wc[name]]
    if wrong:
        raise ConfigError(f"model config disagrees with the dataset manifest: {', '.join(wrong)}")
    mc.validate()
    return mc


def train_config(cfg: dict, args) -> TrainConfig:
    values = dict(cfg.get("train", {}))
    if args.seed is not None:
        values["seed"] = args.seed
    if args.epochs is not None:
        values["epochs"] = args.epochs
    if getattr(args, "vlsat", None) is not None:
        values["vlsat"] = args.vlsat
    tc = _build_dataclass(TrainConfig, values, "train config")
    tc.validate()
    return tc


def eval_config(cfg: dict, args) -> EvalConfig:
    values = dict(cfg.get("eval", {}))
    for key in ("object_ks", "predicate_ks", "triplet_ks", "recall_ks"):
        if key in values:
            if not isinstance(values[key], list):
                raise ConfigError(f"eval config: {key} must be a list of integers")
            values[key] = tuple(values[key])
    if args.k_list:
        try:
            values["recall_ks"] = tuple(int(k) for k in args.k_list.split(","))
        except ValueError as e:
            raise ConfigError(f"--k-list must be comma-separated integers, got {args.k_list!r}") from e
    ec = _build_dataclass(EvalConfig, values, "eval config")
    ec.validate()
    return ec


# ---------------------------------------------------------------------------
# dataset I/O helpers


def write_dataset(out: Path, samples, vocab: Vocabulary, manifest: dict, extra_config: dict) -> None:
    out.mkdir(parents=True, exist_ok=True)
    manifest = dict(manifest)
    manifest["config_hash"] = config_hash(manifest["world_config"] | extra_config)
    manifest["tool_version"] = __version__
    save_scene_file(out / "train.jsonl", [s for s in samples if s.split == "train"])
    save_scene_file(out / "validation.jsonl", [s for s in samples if s.split == "validation"])
    (out / "manifest.json").write_text(manifest_to_json(manifest), encoding="utf-8")


def _read_json(path: Path, what: str):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except ValueError as e:
        raise DataError(f"{what} {path} is not valid JSON: {e}") from e


# the JSON type of every manifest field that train and predict read
MANIFEST_FIELDS = {"object_names": list[str], "predicate_names": list[str],
                   "predicate_train_frequency": list[int], "vocab_hash": str, "world_config": dict}


def read_manifest(dataset_dir: Path) -> dict:
    """The dataset manifest, whose `world_config` is a valid `WorldConfig`
    as `generate` writes it, resolved, and counts its name lists; a field
    missing or of the wrong JSON type (see `fits_type`), a world config
    that `validate` refuses or resolving would change, or a count that
    disagrees, is a data error."""
    path = dataset_dir / "manifest.json"
    if not path.exists():
        raise DataError(f"dataset manifest not found: {path}")
    manifest = _read_json(path, "dataset manifest")
    if not isinstance(manifest, dict):
        raise DataError(f"dataset manifest {path} must hold a JSON object, "
                        f"got {type(manifest).__name__}")
    bad = [k for k, kind in MANIFEST_FIELDS.items() if not fits_type(manifest.get(k), kind)]
    if bad:
        raise DataError(f"dataset manifest {path}: fields missing or of the wrong type: {bad}")
    wc = manifest["world_config"]
    where = f"dataset manifest {path}: world_config"
    unresolved = [k for k, v in asdict(stored_config(WorldConfig, wc, where)).items() if v != wc[k]]
    if unresolved:
        raise DataError(f"{where}: {unresolved} differ from their resolved values")
    counts = [len(manifest[k]) for k in ("object_names", "predicate_names",
                                          "predicate_train_frequency")]
    if counts != [wc["n_obj"], wc["n_rel"], wc["n_rel"]]:
        raise DataError(f"dataset manifest {path}: world_config n_obj={wc['n_obj']}, "
                        f"n_rel={wc['n_rel']} disagree with its {counts[0]} object names, "
                        f"{counts[1]} predicate names and {counts[2]} predicate frequencies")
    return manifest


def read_dataset(dataset_dir: Path, strict: bool = True, splits=("train", "validation")):
    """Manifest, vocabulary and the scenes of the listed splits' files."""
    manifest = read_manifest(dataset_dir)
    vocab = Vocabulary(object_names=manifest["object_names"],
                       predicate_names=manifest["predicate_names"],
                       predicate_train_frequency=manifest["predicate_train_frequency"])
    if vocab.content_hash() != manifest["vocab_hash"]:
        raise DataError("manifest vocabulary hash mismatch")
    samples = []
    for split in splits:
        path = dataset_dir / f"{split}.jsonl"
        if path.exists():
            samples.extend(load_scene_file(path, vocab, strict=strict, split=split))
    return samples, vocab, manifest


# ---------------------------------------------------------------------------
# pipeline stages: each writes its artifacts into `out` and returns what the next one reads


def train_stage(samples, vocab: Vocabulary, provider, mc: ModelConfig, tc: TrainConfig,
                out: Path, resume: Checkpoint | None = None) -> Checkpoint:
    """Train, writing train_log.jsonl (appended to when resuming) and checkpoint.json."""
    out.mkdir(parents=True, exist_ok=True)
    mode = "oracle-assisted" if tc.vlsat else "baseline"
    log.info("training %s model for %d epochs on %d scenes", mode, tc.epochs, len(samples))
    with open(out / "train_log.jsonl", "a" if resume else "w", encoding="utf-8") as fh:
        def hook(record):
            fh.write(json.dumps(record, sort_keys=True) + "\n")
            fh.flush()
            log.info("epoch %d: lr %.6f total %.6f", record["epoch"], record["lr"],
                     record["loss_total"])

        model, optimizer, _ = train(samples, vocab, provider, mc, tc,
                                    resume=resume, log_hook=hook)
    # the hash describes the model trained, which a resumed run takes from its checkpoint
    ck = Checkpoint.capture(model, optimizer, tc, next_epoch=tc.epochs,
                            vocab_hash=vocab.content_hash(),
                            extra={"config_hash": config_hash(asdict(tc) | asdict(model.cfg)),
                                   "tool_version": __version__})
    ck.save(out / "checkpoint.json")
    log.info("wrote %s", out / "checkpoint.json")
    return ck


def predict_dump(model: ModelState, samples, vocab_hash: str, cfg_hash: str) -> PredictionDump:
    """3D-branch probabilities of `samples`, in list order.

    Scenes of one instance count K run as one packed forward: they make a
    full layout, so attention reshapes instead of padding, and every matmul
    runs on two or more rows. Each scene's probabilities are then bitwise
    those of the scene run alone. Mixed K would pad the attention, and packed
    K=1 scenes would turn one-row products into many-row ones; either changes
    the summation order, so a K=1 scene runs alone.
    """
    prepared = [prepare_scene(s) for s in samples]
    groups: dict = {}
    for i, p in enumerate(prepared):
        k = p.nodes.total
        groups.setdefault(k if k > 1 else ("alone", i), []).append(i)
    scenes = [None] * len(prepared)
    for members in groups.values():
        batch = pack_scenes([prepared[i] for i in members])
        result = forward_scene(model, batch, "3d")
        object_probs = ad.softmax(result.obj_logits_3d, axis=1).data
        predicate_probs = ad.sigmoid(result.pred_logits_3d).data
        for i, node0, edge0 in zip(members, batch.nodes.starts, batch.edges.starts):
            p = prepared[i]
            scenes[i] = ScenePrediction(
                scene_id=p.scene_ids[0],
                object_probs=object_probs[node0:node0 + p.nodes.total],
                predicate_probs=predicate_probs[edge0:edge0 + p.edges.total],
                gt_objects=p.gt_objects,
                gt_predicate_rows=p.gt_predicate_rows)
    return PredictionDump(scenes=scenes, n_obj=model.cfg.n_obj, n_rel=model.cfg.n_rel,
                          vocab_hash=vocab_hash, config_hash=cfg_hash)


def predict_stage(ck: Checkpoint, samples, vocab_hash: str, out: Path) -> PredictionDump:
    """Predict `samples` with the checkpoint's model, writing predictions.jsonl."""
    if ck.vocab_hash != vocab_hash:
        raise DataError("checkpoint vocabulary hash does not match the dataset")
    model, _, _ = ck.restore()
    dump = predict_dump(model, samples, vocab_hash,
                        ck.payload.get("extra", {}).get("config_hash", ""))
    out.mkdir(parents=True, exist_ok=True)
    path = out / "predictions.jsonl"
    path.write_text(dump_to_jsonl(dump, tool_version=__version__), encoding="utf-8")
    log.info("wrote %s (%d scenes)", path, len(dump.scenes))
    return dump


def eval_stage(dump: PredictionDump, manifest_path: Path, ec: EvalConfig, out: Path) -> dict:
    """Evaluate the dump against a dataset manifest, writing report.json and
    report.csv; returns the report without the tool_version that report.json adds."""
    manifest = _read_json(manifest_path, "manifest")
    try:
        vocab_hash = manifest["vocab_hash"]
        triplets = manifest["train_triplets"]
        train_triplets = set(map(tuple, triplets))
        splits = manifest["predicate_splits"]
    except (KeyError, TypeError) as e:
        raise DataError(f"manifest {manifest_path}: missing or malformed field ({e!r})") from e
    # checked on the set `evaluate` reads, in bulk (a manifest holds thousands
    # of triples); an entry that is a string or an object gives str items
    if (not isinstance(triplets, list) or set(map(len, train_triplets)) - {3}
            or set(map(type, chain.from_iterable(train_triplets))) - {int}):
        raise DataError(f"manifest {manifest_path}: train_triplets must be a list of "
                        f"[subject, predicate, object] integer triples")
    if not isinstance(splits, dict) or not all(
            fits_type(v, list[int]) and all(0 <= p < dump.n_rel for p in v) for v in splits.values()):
        raise DataError(f"manifest {manifest_path}: predicate_splits must map each split name to "
                        f"a list of predicate classes in [0, {dump.n_rel})")
    if dump.vocab_hash and dump.vocab_hash != vocab_hash:
        raise DataError("dump vocabulary hash does not match the manifest")
    report = evaluate(dump, predicate_splits={name: set(v) for name, v in splits.items()},
                      train_triplets=train_triplets, cfg=ec)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(json.dumps(report | {"tool_version": __version__},
                                                sort_keys=True, indent=1), encoding="utf-8")
    (out / "report.csv").write_text(report_to_csv(report), encoding="utf-8")
    log.info("wrote %s and report.csv (%d rows)", out / "report.json", len(report_rows(report)))
    return report


# ---------------------------------------------------------------------------
# commands


def cmd_generate(args) -> int:
    cfg = load_config(args.config)
    wc = world_config(cfg, args.seed)
    samples, vocab, manifest = generate_dataset(wc)
    out = Path(args.out)
    write_dataset(out, samples, vocab, manifest, {})
    audit = manifest["separability_audit"]
    log.info("generated %d scenes (%d train) into %s", len(samples),
             sum(1 for s in samples if s.split == "train"), out)
    log.info("predicate train frequencies: %s", manifest["predicate_train_frequency"])
    for p, r in audit.items():
        log.info("separability of predicate %s: geometry %.3f, with latent %.3f",
                 p, r["geometry_balanced_accuracy"], r["latent_balanced_accuracy"])
    return 0


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    samples, vocab, manifest = read_dataset(Path(args.dataset), strict=args.strict, splits=("train",))
    mc, tc = model_config(cfg, manifest), train_config(cfg, args)
    resume = Checkpoint.load(args.resume) if args.resume else None
    train_stage(samples, vocab, provider_from_manifest(manifest), mc, tc, Path(args.out), resume)
    return 0


def cmd_predict(args) -> int:
    samples, vocab, _ = read_dataset(Path(args.dataset), strict=args.strict, splits=(args.split,))
    ck = Checkpoint.load(args.checkpoint)
    if not samples:
        raise DataError(f"no scenes in split {args.split!r}")
    predict_stage(ck, samples, vocab.content_hash(), Path(args.out))
    return 0


def cmd_eval(args) -> int:
    ec = eval_config(load_config(args.config), args)
    dump = dump_from_jsonl(Path(args.dump).read_text(encoding="utf-8"))
    eval_stage(dump, Path(args.manifest), ec, Path(args.out))
    return 0


# ---------------------------------------------------------------------------
# experiment harness


def _metric_or_none(report: dict, path: list):
    for key in path:
        report = report.get(key) if isinstance(report, dict) else None
    return report


EXPERIMENT_MODES = ("baseline", "vlsat")

EXPERIMENT_HEADLINES = [
    ("object A@1", ["object", "A", 1]),
    ("predicate mA@1", ["predicate", "mA", 1]),
    ("predicate mA@3", ["predicate", "mA", 3]),
    ("tail mA@1", ["splits", "tail", 1]),
    ("triplet A@50", ["triplet", "A", 50]),
    ("triplet mA@50", ["triplet", "mA", 50]),
    ("unseen A@50", ["seen_unseen", "unseen", 50]),
    ("sgcls R@20 (gc)", ["sgcls", "with_constraint", "R", 20]),
    ("predcls R@20 (gc)", ["predcls", "with_constraint", "R", 20]),
]


def run_experiment_seed(base_dir: Path, seed: int, cfg: dict, args) -> dict:
    """generate -> train both models -> predict -> eval, for one seed."""
    samples, vocab, manifest = generate_dataset(world_config(cfg, seed))
    seed_dir = base_dir / f"seed_{seed}"
    dataset_dir = seed_dir / "dataset"
    write_dataset(dataset_dir, samples, vocab, manifest, {})
    manifest = read_manifest(dataset_dir)
    provider = provider_from_manifest(manifest)
    mc = model_config(cfg, manifest)
    ec = eval_config(cfg, args)
    train_set = [s for s in samples if s.split == "train"]
    val = [s for s in samples if s.split == "validation"]

    results = {}
    for mode in EXPERIMENT_MODES:
        tc = replace(train_config(cfg, args), vlsat=mode == "vlsat")
        log.info("seed %d: training %s", seed, mode)
        ck = train_stage(train_set, vocab, provider, mc, tc, seed_dir / mode)
        dump = predict_stage(ck, val, vocab.content_hash(), seed_dir / mode)
        results[mode] = eval_stage(dump, dataset_dir / "manifest.json", ec, seed_dir / mode)
    return results


def _cell(value) -> str:
    return f"{(100 * value if value is not None else float('nan')):8.2f}"


def cmd_experiment(args) -> int:
    cfg = load_config(args.config)
    exp = dict(cfg.get("experiment", {}))
    unknown = set(exp) - {"seeds"}
    if unknown:
        raise ConfigError(f"experiment config: unknown keys {sorted(unknown)}")
    seeds = exp.get("seeds", [7, 11, 23])
    if not fits_type(seeds, list[int]):
        raise ConfigError(f"experiment config: seeds must be a list of integers, got {seeds!r}")
    if args.seed is not None:
        seeds = [args.seed]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    per_seed = {seed: run_experiment_seed(out, seed, cfg, args) for seed in seeds}

    # columns: (seed, mode) for every seed, then the per-mode means over seeds
    means = {mode: {} for mode in EXPERIMENT_MODES}
    lines = [f"{'metric':22s} " + " ".join(f"{f'seed {s}':>17s}" for s in seeds) + f" {'mean':>17s}",
             f"{'':22s} " + " ".join(f"{'base':>8s} {'vlsat':>8s}" for _ in range(len(seeds) + 1))]
    for name, path in EXPERIMENT_HEADLINES:
        cells = [_metric_or_none(per_seed[s][mode], path) for s in seeds for mode in EXPERIMENT_MODES]
        for m, mode in enumerate(EXPERIMENT_MODES):
            vals = [v for v in cells[m::len(EXPERIMENT_MODES)] if v is not None]
            means[mode][name] = sum(vals) / len(vals) if vals else None
        cells += [means[mode][name] for mode in EXPERIMENT_MODES]
        lines.append(f"{name:22s} " + " ".join(_cell(v) for v in cells))
    print("\n".join(lines))

    for headline in ("tail mA@1", "unseen A@50"):
        mb, mv = means["baseline"][headline], means["vlsat"][headline]
        if mb is not None and mv is not None:
            print(f"mean {headline}: oracle-assisted {100 * mv:.2f} vs baseline {100 * mb:.2f} "
                  f"(delta {100 * (mv - mb):+.2f})")

    summary = {
        "tool_version": __version__,
        "seeds": seeds,
        "headline_means": means,
        "per_seed": {str(s): per_seed[s] for s in seeds},
        "table": lines,
    }
    (out / "comparison.json").write_text(json.dumps(summary, sort_keys=True, indent=1),
                                         encoding="utf-8")
    log.info("wrote %s", out / "comparison.json")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sg3d",
                                     description="3D scene graph prediction with oracle-assisted training")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate a synthetic dataset")
    g.add_argument("--config", default=None, help="JSON config file")
    g.add_argument("--seed", type=int, default=None)
    g.add_argument("--out", required=True, help="output directory")

    t = sub.add_parser("train", help="train a model")
    t.add_argument("--config", default=None, help="JSON config file")
    t.add_argument("--seed", type=int, default=None)
    t.add_argument("--out", required=True, help="output directory")
    t.add_argument("--strict", action="store_true", default=True)
    t.add_argument("--no-strict", dest="strict", action="store_false")
    t.add_argument("--dataset", required=True, help="dataset directory")
    t.add_argument("--vlsat", dest="vlsat", action="store_true", default=None,
                   help="train with the oracle branch (default)")
    t.add_argument("--no-vlsat", dest="vlsat", action="store_false",
                   help="train the 3D-only baseline")
    t.add_argument("--epochs", type=int, default=None)
    t.add_argument("--resume", default=None, help="checkpoint to resume from")

    p = sub.add_parser("predict", help="dump 3D-branch predictions")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--strict", action="store_true", default=True)
    p.add_argument("--no-strict", dest="strict", action="store_false")
    p.add_argument("--dataset", required=True, help="dataset directory")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", default="validation", choices=("train", "validation"))

    e = sub.add_parser("eval", help="evaluate a prediction dump")
    e.add_argument("--config", default=None, help="JSON config file")
    e.add_argument("--out", required=True, help="output directory")
    e.add_argument("--dump", required=True)
    e.add_argument("--manifest", required=True)
    e.add_argument("--k-list", default=None, help="comma-separated recall k values")

    x = sub.add_parser("experiment", help="baseline-vs-oracle-assisted comparison")
    x.add_argument("--config", default=None, help="JSON config file")
    x.add_argument("--seed", type=int, default=None)
    x.add_argument("--out", required=True, help="output directory")
    x.add_argument("--k-list", default=None, help="comma-separated recall k values")
    x.add_argument("--epochs", type=int, default=None)
    return parser


COMMANDS = {
    "generate": cmd_generate,
    "train": cmd_train,
    "predict": cmd_predict,
    "eval": cmd_eval,
    "experiment": cmd_experiment,
}


def main(argv=None) -> int:
    try:
        _setup_logging()
        args = build_parser().parse_args(argv)
        return COMMANDS[args.command](args)
    except ConfigError as e:
        log.error("config error: %s", e)
        return 2
    except (DataError, OSError) as e:
        log.error("data error: %s", e)
        return 3
    except NumericError as e:
        log.error("numeric abort: %s", e)
        return 4
    except Sg3dError as e:
        log.error("%s", e)
        return 3


if __name__ == "__main__":
    sys.exit(main())
