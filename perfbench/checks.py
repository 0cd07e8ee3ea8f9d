"""Correctness checks on a finished pipeline run, and their self-test.

Each check returns a list of problems (empty when it passes). Every value
is compared against something computed apart from the code path that
produced it (finite differences, a softmax and sigmoid written here,
ranks recounted here, terms counted from the raw scene file) or against
a property the method must have. The self-test feeds each check a
deliberately corrupted input and counts it as failed if the check does
not report a problem.
"""

from __future__ import annotations

import copy
import json
from pathlib import Path

import numpy as np

from sg3d import cli
from sg3d.autodiff import Tape
from sg3d.reasoning import forward_scene, prepare_scene
from sg3d.synthetic import provider_from_manifest
from sg3d.training import Checkpoint, TrainConfig, build_train_scene, scene_loss

GRAD_RTOL = 1e-4            # the tolerance of tests/gradcheck.py
FD_STEPS = (1e-5, 1e-6)     # a second step rescues a kink crossed by the first
GRAD_COORDS = 16
PROB_ATOL = 1e-12
SAMPLED_SCENES = 8


class Ledger:
    """Counts operations (stages, checks, self-tests) and the failures among them."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def stage(self, n: int = 1) -> None:
        """Stage passes that returned; a failing stage ends the run instead."""
        self.attempted += n

    def check(self, name: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failures.append(f"check {name}: {problems[0]} ({len(problems)} problem(s))")

    def selftest(self, name: str, problems: list[str]) -> None:
        self.attempted += 1
        if not problems:
            self.failures.append(f"self-test {name}: the check passed a corrupted input")


# ---------------------------------------------------------------------------
# gradients


def _rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


def _central_difference(loss_value, param, index, h: float) -> float:
    saved = param.data[index]
    param.data[index] = saved + h
    up = loss_value()
    param.data[index] = saved - h
    down = loss_value()
    param.data[index] = saved
    return (up - down) / (2.0 * h)


def tape_gradients(model, loss_tensor_fn) -> dict[str, np.ndarray]:
    model.zero_grad()
    with Tape() as tape:
        tape.backward(loss_tensor_fn())
    return {k: np.zeros_like(p.data) if p.grad is None else p.grad.copy()
            for k, p in model.params.items()}


def sample_coords(params: dict, rng: np.random.Generator, n: int) -> list[tuple[str, tuple]]:
    names = sorted(params)
    sizes = np.array([params[k].data.size for k in names])
    flat = rng.choice(int(sizes.sum()), size=n, replace=False)
    offsets = np.cumsum(sizes) - sizes
    coords = []
    for f in sorted(flat):
        i = int(np.searchsorted(offsets, f, side="right") - 1)
        coords.append((names[i], np.unravel_index(int(f - offsets[i]), params[names[i]].data.shape)))
    return coords


def compare_gradients(grads: dict, coords, params: dict, loss_value) -> list[str]:
    problems = []
    for name, index in coords:
        an = float(grads[name][index])
        errs = []
        for h in FD_STEPS:
            errs.append(_rel_err(an, _central_difference(loss_value, params[name], index, h)))
            if errs[-1] <= GRAD_RTOL:
                break
        else:
            problems.append(f"gradient of {name}{tuple(int(i) for i in index)}: tape {an:.6e}, "
                            f"relative errors {['%.2e' % e for e in errs]}")
    return problems


# ---------------------------------------------------------------------------
# forward, training log, dump


def compare_bitwise(label: str, a: list[np.ndarray], b: list[np.ndarray]) -> list[str]:
    return [f"{label} #{n} differs" for n, (x, y) in enumerate(zip(a, b))
            if x.shape != y.shape or not np.array_equal(x, y)]


def loss_decreases(records: list[dict]) -> list[str]:
    if len(records) < 2:
        return [f"only {len(records)} logged epoch(s)"]
    first, last = records[0]["loss_total"], records[-1]["loss_total"]
    return [] if last < first else [f"loss_total went from {first} to {last}"]


def logs_identical(logs: list[list[dict]]) -> list[str]:
    """Same seed, same code: every probe training logs bitwise the same."""
    return [f"probe training {n} logged differently from probe training 0"
            for n, log in enumerate(logs) if log != logs[0]]


def _softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=1, keepdims=True)
    return np.exp(shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True)))


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def probabilities_match(expected: list[tuple[np.ndarray, np.ndarray]], scenes) -> list[str]:
    """Dump probabilities against (object, predicate) probabilities computed here."""
    problems = []
    for (obj, pred), s in zip(expected, scenes):
        for what, want, got in (("object", obj, s.object_probs), ("predicate", pred, s.predicate_probs)):
            if want.shape != got.shape or np.max(np.abs(want - got), initial=0.0) > PROB_ATOL:
                problems.append(f"scene {s.scene_id}: {what} probabilities differ from the logits")
    return problems


def dump_arrays(s) -> list[np.ndarray]:
    return [s.object_probs, s.predicate_probs, s.gt_objects, s.gt_predicate_rows]


# ---------------------------------------------------------------------------
# metric report


def _by_k(values: dict) -> list[tuple[int, float]]:
    return sorted((int(k), v) for k, v in values.items())


def report_invariants(report: dict) -> list[str]:
    """No-constraint R@k >= with-constraint R@k, PredCls >= SGCls, A@k and R@k monotone in k."""
    problems = []
    series = {"object A": report["object"]["A"], "predicate A": report["predicate"]["A"],
              "triplet A": report["triplet"]["A"]}
    for task in ("sgcls", "predcls"):
        for c in ("with_constraint", "no_constraint"):
            series[f"{task} {c} R"] = report[task][c]["R"]
    for label, values in series.items():
        ks = _by_k(values)
        if not ks or any(v is None for _, v in ks):
            problems.append(f"{label}: missing values")
            continue
        problems += [f"{label}@{k2} < @{k1}" for (k1, a), (k2, b) in zip(ks, ks[1:]) if b < a]
    for task in ("sgcls", "predcls"):
        wc, nc = report[task]["with_constraint"]["R"], report[task]["no_constraint"]["R"]
        problems += [f"{task} R@{k}: no constraint {nc[k]} < with constraint {wc[k]}"
                     for k in wc if None not in (wc[k], nc.get(k)) and nc[k] < wc[k]]
    for c in ("with_constraint", "no_constraint"):
        sg, pc = report["sgcls"][c]["R"], report["predcls"][c]["R"]
        problems += [f"{c} R@{k}: PredCls {pc[k]} < SGCls {sg[k]}"
                     for k in sg if None not in (sg[k], pc.get(k)) and pc[k] < sg[k]]
    return problems


def _hits(scores: np.ndarray, rows: np.ndarray, cols: np.ndarray, k: int) -> int:
    """Events ranked within the top k; ties broken by ascending class index."""
    s = scores[rows, cols][:, None]
    better = (scores[rows] > s).sum(axis=1)
    tie_before = ((scores[rows] == s) & (np.arange(scores.shape[1])[None, :] < cols[:, None])).sum(axis=1)
    return int((1 + better + tie_before <= k).sum())


def accuracy_matches(report: dict, dump) -> list[str]:
    """Object and predicate A@k recounted from the dump arrays."""
    obj = np.concatenate([s.object_probs for s in dump.scenes])
    labels = np.concatenate([s.gt_objects for s in dump.scenes]).astype(np.intp)
    pred = np.concatenate([s.predicate_probs for s in dump.scenes])
    rows, cols = np.nonzero(np.concatenate([s.gt_predicate_rows for s in dump.scenes]))
    problems = []
    for k, v in _by_k(report["object"]["A"]):
        mine = _hits(obj, np.arange(len(labels)), labels, k) / len(labels)
        if mine != v:
            problems.append(f"object A@{k}: report {v}, recounted {mine}")
    for k, v in _by_k(report["predicate"]["A"]):
        mine = _hits(pred, rows, cols, k) / len(rows)
        if mine != v:
            problems.append(f"predicate A@{k}: report {v}, recounted {mine}")
    return problems


def gt_terms(scene_file: Path) -> int:
    """Ground-truth (pair, predicate) terms, counted from the raw scene file."""
    terms = 0
    with open(scene_file, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                terms += len({(r["subject_id"], r["object_id"], int(p))
                              for r in rec["relations"] for p in r["predicates"]})
    return terms


def seen_unseen_total(report: dict, terms: int) -> list[str]:
    su = report["seen_unseen"]
    got = su["seen_count"] + su["unseen_count"]
    return [] if got == terms else [f"seen + unseen = {got}, scene file holds {terms} terms"]


# ---------------------------------------------------------------------------
# all checks of one run


def verify(ledger: Ledger, seed: int, vlsat: bool, samples, manifest: dict,
           world_log: list[dict], probe_logs: list[list[dict]], dataset: Path, train_out: Path, predict_out: Path,
           eval_out: Path) -> None:
    """Run every check, and each check once more on a corrupted input."""
    rng = np.random.default_rng([seed, 9])
    model, _, _ = Checkpoint.load(train_out / "checkpoint.json").restore()
    train = [s for s in samples if s.split == "train"]
    val = [s for s in samples if s.split == "validation"]
    picked = [val[i] for i in sorted(rng.choice(len(val), size=min(SAMPLED_SCENES, len(val)),
                                                replace=False))]

    # tape gradient of scene_loss against central differences
    ts = build_train_scene(train[int(rng.integers(len(train)))],
                           provider_from_manifest(manifest) if vlsat else None)
    weights = TrainConfig().weights()

    def loss_value() -> float:
        return scene_loss(model, ts, weights, vlsat)[0].item()

    grads = tape_gradients(model, lambda: scene_loss(model, ts, weights, vlsat)[0])
    coords = sample_coords(model.params, rng, GRAD_COORDS)
    ledger.check("gradient", compare_gradients(grads, coords, model.params, loss_value))
    bad = copy.deepcopy(grads)
    name, index = coords[0]
    bad[name][index] += 1e-2 * max(1.0, abs(bad[name][index]))
    ledger.selftest("gradient", compare_gradients(bad, coords[:1], model.params, loss_value))

    # the 3D forward never reads oracle values
    prepared = [prepare_scene(s) for s in picked]
    three_d = [forward_scene(model, p, "3d") for p in prepared]
    if vlsat:
        joint = [forward_scene(model, p, "joint") for p in prepared]
        a = [r.obj_logits_3d.data for r in joint] + [r.pred_logits_3d.data for r in joint]
        b = [r.obj_logits_3d.data for r in three_d] + [r.pred_logits_3d.data for r in three_d]
        ledger.check("3d-forward-unidirectional", compare_bitwise("3D logits", a, b))
        a = [x.copy() for x in a]
        a[0].flat[0] = np.nextafter(a[0].flat[0], np.inf)
        ledger.selftest("3d-forward-unidirectional", compare_bitwise("3D logits", a, b))

    # training lowers loss_total, and every probe training logs the same
    ledger.check("loss-decreases", loss_decreases(world_log))
    ledger.selftest("loss-decreases", loss_decreases(world_log[::-1]))
    ledger.check("train-log-repeats", logs_identical(probe_logs))
    bad = copy.deepcopy(probe_logs)
    bad[-1][-1]["loss_total"] = np.nextafter(bad[-1][-1]["loss_total"], np.inf)
    ledger.selftest("train-log-repeats", logs_identical(bad))

    # the dump read back from JSONL equals the dump that was written
    text = (predict_out / "predictions.jsonl").read_text(encoding="utf-8")
    dump = cli.dump_from_jsonl(text)
    if [s.scene_id for s in dump.scenes] != [s.scene_id for s in val]:
        ledger.check("dump-roundtrip", ["dump scene ids differ from the validation split"])
        return
    by_id = {s.scene_id: s for s in dump.scenes}
    stored = [by_id[s.scene_id] for s in picked]
    header = json.loads(text.split("\n", 1)[0])
    problems = [] if cli.dump_to_jsonl(dump, header.get("tool_version", "")) == text \
        else ["re-serialised dump differs from the file"]
    fresh = cli.predict_dump(model, picked, dump.vocab_hash, dump.config_hash).scenes
    for f, s in zip(fresh, stored):
        problems += compare_bitwise(f"scene {s.scene_id} array", dump_arrays(f), dump_arrays(s))
    ledger.check("dump-roundtrip", problems)
    bad = copy.deepcopy(stored[0])
    row = bad.object_probs[0]
    lo, hi = int(np.argmin(row)), int(np.argmax(row))
    row[lo], row[hi] = row[hi], row[lo]
    ledger.selftest("dump-roundtrip",
                    compare_bitwise("swapped dump value", dump_arrays(fresh[0]), dump_arrays(bad)))

    # dump probabilities against a softmax and sigmoid of the logits
    expected = [(_softmax(r.obj_logits_3d.data), _sigmoid(r.pred_logits_3d.data)) for r in three_d]
    ledger.check("dump-probabilities", probabilities_match(expected, stored))
    bad = copy.deepcopy(stored[0])
    row = int(np.argmax(np.ptp(bad.object_probs, axis=1)))
    bad.object_probs[row] = np.roll(bad.object_probs[row], 1)
    ledger.selftest("dump-probabilities", probabilities_match(expected[:1], [bad]))

    # metric report
    report = json.loads((eval_out / "report.json").read_text(encoding="utf-8"))
    ledger.check("report-invariants", report_invariants(report))
    bad = copy.deepcopy(report)
    recall = bad["sgcls"]["no_constraint"]["R"]
    ks = _by_k(recall)
    recall[str(ks[-1][0])] = ks[0][1] - 0.5
    ledger.selftest("report-invariants", report_invariants(bad))

    ledger.check("report-accuracy", accuracy_matches(report, dump))
    bad = copy.deepcopy(report)
    bad["object"]["A"]["1"] += 1.0 / sum(s.k for s in dump.scenes)
    ledger.selftest("report-accuracy", accuracy_matches(bad, dump))

    terms = gt_terms(dataset / "validation.jsonl")
    ledger.check("seen-unseen-total", seen_unseen_total(report, terms))
    ledger.selftest("seen-unseen-total", seen_unseen_total(report, terms + 1))
