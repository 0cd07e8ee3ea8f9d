"""Loss terms, the total objective, the optimizer, and the training loop.

The objective is

    L = l_obj (L_obj_3d + L_obj_oracle)
      + l_pred (L_pred_3d + L_pred_oracle)
      + l_aux (L_tri_emb + L_node_init)

with cross-entropy object losses, all-pairs per-class BCE predicate
losses, an L1 regularizer pulling fused oracle triplet embeddings
toward the template text embeddings of ground-truth relations, and a
negative-cosine alignment of pre-reasoning node features.

The baseline mode trains the 3D branch alone with only the first two
3D terms.

A mini-batch trains as one packed graph, the `PreparedScene` that
`pack_scenes` makes of its scenes (`build_train_scene` adds the text rows
the joint loss reads): one tape, one forward and one backward per batch,
then one optimizer step. Each loss term is a per-scene mean
(`autodiff.segment_mean`), so the batch objective is the sum of its
scenes' losses and every scene's terms are logged as if it had run alone.
"""

from __future__ import annotations

import base64
import hashlib
import json
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import autodiff as ad
from .autodiff import Segments, Tape, Tensor
from .errors import ConfigError, DataError, NumericError
from .reasoning import (ForwardResult, ModelConfig, ModelState, PreparedScene, forward_scene,
                        pack_scenes, prepare_scene)
from .scene import SceneGraphSample, Vocabulary, field_problems, fits_type, relation_terms
from .synthetic import EmbeddingProvider


@dataclass
class LossWeights:
    obj: float = 0.1
    pred: float = 1.0
    aux: float = 0.1

    def validate(self):
        for name, v in asdict(self).items():
            if not np.isfinite(v) or v < 0:
                raise ConfigError(f"loss weight {name} must be finite and >= 0")


# ---------------------------------------------------------------------------
# loss terms
#
# Each term is one mean per scene: `rows` gives the scenes' rows of a packed
# batch, and the result is a (scenes,) vector.


def loss_obj(logits: Tensor, gt: np.ndarray, rows: Segments) -> Tensor:
    """Mean softmax cross-entropy over instances."""
    gt = np.asarray(gt, dtype=np.intp)
    if gt.min() < 0 or gt.max() >= logits.data.shape[1]:
        raise DataError("object label out of range")
    ls = ad.log_softmax(logits, axis=1)
    return ad.neg(ad.segment_mean(ad.take_per_row(ls, gt), rows))


def loss_pred(logits: Tensor, gt: np.ndarray, rows: Segments) -> Tensor:
    """Mean binary cross-entropy with logits over all pairs and classes.

    All ordered pairs participate; pairs without any ground-truth
    predicate act as negatives for every class. A scene without pairs
    scores 0.
    """
    gt = np.asarray(gt, dtype=np.float64)
    if gt.shape != logits.data.shape:
        raise DataError(f"predicate gt shape {gt.shape} != logits shape {logits.data.shape}")
    # bce(x, y) = softplus(x) - x*y
    bce = ad.sub(ad.softplus(logits), ad.mul(logits, Tensor(gt)))
    return ad.segment_mean(ad.tmean(bce, axis=1), rows)


def loss_tri_emb(fused_rows: Tensor, text_rows: np.ndarray, rows: Segments) -> Tensor:
    """Mean-per-dimension L1 distance, averaged over ground-truth terms.

    Callers pass one fused row per (pair, gt-predicate) term, duplicating
    the pair row when it holds several predicates. Zero (with zero
    gradient) for a scene without ground-truth relations.
    """
    l1 = ad.absolute(ad.sub(fused_rows, Tensor(text_rows)))
    return ad.segment_mean(ad.tmean(l1, axis=1), rows)


def loss_node_init(threed_nodes: Tensor, oracle_nodes: Tensor, rows: Segments) -> Tensor:
    """Mean negative cosine between aligned pre-reasoning node features;
    1e-12 added to the norm product keeps a zero row finite."""
    dot = ad.tsum(ad.mul(threed_nodes, oracle_nodes), axis=1)
    na = ad.sqrt(ad.tsum(ad.mul(threed_nodes, threed_nodes), axis=1))
    nb = ad.sqrt(ad.tsum(ad.mul(oracle_nodes, oracle_nodes), axis=1))
    cos = ad.div(dot, ad.add(ad.mul(na, nb), 1e-12))
    return ad.neg(ad.segment_mean(cos, rows))


# every term's name, as `scene_loss` returns it and `train` logs it; the
# joint mode adds the last four
TERM_KEYS = ("loss_total", "loss_obj_3d", "loss_pred_3d", "loss_obj_or", "loss_pred_or",
             "loss_tri", "loss_node")


def total_loss(terms: dict[str, Tensor], weights: LossWeights) -> Tensor:
    """The weighted objective of the terms (see `TERM_KEYS`): the 3D terms,
    plus the oracle and auxiliary terms when `terms` holds them."""
    obj, pred = terms["loss_obj_3d"], terms["loss_pred_3d"]
    joint = "loss_obj_or" in terms
    if joint:
        obj = ad.add(obj, terms["loss_obj_or"])
        pred = ad.add(pred, terms["loss_pred_or"])
    total = ad.add(ad.mul(obj, weights.obj), ad.mul(pred, weights.pred))
    if joint:
        aux = ad.add(terms["loss_tri"], terms["loss_node"])
        total = ad.add(total, ad.mul(aux, weights.aux))
    return total


# ---------------------------------------------------------------------------
# classifier initialization


def init_classifier_from_embeddings(provider: EmbeddingProvider, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Object-classifier weights whose class-c column is embedding c, bias 0."""
    emb = provider.object_embeddings
    if emb.shape[1] != d:
        raise ConfigError(f"embedding width {emb.shape[1]} != classifier width {d}")
    return emb.T.copy(), np.zeros(emb.shape[0])


def apply_embedding_init(model: ModelState, provider: EmbeddingProvider) -> None:
    """Initialize the object classifiers of both streams from the embeddings."""
    w, b = init_classifier_from_embeddings(provider, model.cfg.d)
    for head in ("head3d", "head_oracle"):
        if head == "head_oracle" and not model.cfg.joint:
            continue
        model.subtree(head)["obj_w"].data = w.copy()
        model.subtree(head)["obj_b"].data = b.copy()


# ---------------------------------------------------------------------------
# optimizer


def cosine_lr(base: float, t: int, total: int) -> float:
    """Cosine annealing from base at t=0 to 0 at t=total."""
    if total <= 0:
        return base
    return base * 0.5 * (1.0 + np.cos(np.pi * t / total))


class AdamW:
    """AdamW with decoupled multiplicative weight decay.

    With a zero gradient a step changes a parameter exactly to
    p * (1 - lr * weight_decay).

    The parameters, `m` and `v` each live in one flat buffer, in the order
    of `params`, and a step updates them with whole-buffer ops. Each
    parameter's `data` becomes a view into the parameter buffer; a
    parameter whose `data` was rebound since is copied back in at the next
    step. The update is elementwise, so it is bitwise that of a loop over
    the tensors.
    """

    def __init__(self, params: dict[str, Tensor], betas=(0.9, 0.999),
                 eps: float = 1e-8, weight_decay: float = 0.01):
        self.params = params
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.step_count = 0
        ends = np.cumsum([p.data.size for p in params.values()]).tolist()
        self._slots = {name: (end - p.data.size, end, p.data.shape)
                       for (name, p), end in zip(params.items(), ends)}
        self.flat = np.concatenate([p.data for p in params.values()], axis=None)
        self._views = self.named(self.flat)
        for name, p in params.items():
            p.data = self._views[name]
        self.m = np.zeros_like(self.flat)
        self.v = np.zeros_like(self.flat)

    def named(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """Per-parameter views into a flat buffer (`flat`, `m` or `v`)."""
        return {name: flat[lo:hi].reshape(shape) for name, (lo, hi, shape) in self._slots.items()}

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()

    def step(self, lr: float) -> None:
        self.step_count += 1
        b1, b2 = self.beta1, self.beta2
        bc1 = 1.0 - b1 ** self.step_count
        bc2 = 1.0 - b2 ** self.step_count
        for name, p in self.params.items():
            if p.data is not self._views[name]:
                self._views[name][...] = p.data
                p.data = self._views[name]
        g = np.concatenate([p.grad if p.grad is not None else np.zeros_like(p.data)
                            for p in self.params.values()], axis=None)
        m, v, x = self.m, self.v, self.flat
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        update = (m / bc1) / (np.sqrt(v / bc2) + self.eps)
        x *= 1.0 - lr * self.weight_decay
        x -= lr * update


# ---------------------------------------------------------------------------
# packed-batch loss assembly


def build_train_scene(sample: SceneGraphSample, provider: EmbeddingProvider | None) -> PreparedScene:
    """`prepare_scene`, with the text rows of the ground-truth terms when a
    provider is given."""
    prepared = prepare_scene(sample)
    if provider is not None:
        _, subj, pred, obj = relation_terms(prepared.gt_predicate_rows, prepared.gt_objects)
        prepared.text = provider.text_embedding_rows(np.stack([subj, pred, obj], axis=1).tolist())
    return prepared


def scene_loss(model: ModelState, p: PreparedScene, weights: LossWeights,
               vlsat: bool) -> tuple[Tensor, dict[str, np.ndarray | None]]:
    """Forward a packed batch and assemble its objective, the sum of its
    scenes' weighted losses.

    Also returns every loss term of `TERM_KEYS` per scene, a (scenes,)
    array, or None for a term the mode leaves out.
    """
    mode = "joint" if vlsat else "3d"
    if vlsat and (p.text is None or p.text.shape[1] != model.cfg.d_emb):
        raise DataError(f"scenes {', '.join(p.scene_ids)}: text embeddings missing for the joint loss "
                        f"(width {model.cfg.d_emb}); build them with an embedding provider")
    result: ForwardResult = forward_scene(model, p, mode)
    terms = {
        "loss_obj_3d": loss_obj(result.obj_logits_3d, p.gt_objects, p.nodes),
        "loss_pred_3d": loss_pred(result.pred_logits_3d, p.gt_predicate_rows, p.edges),
    }
    if vlsat:
        # the ground-truth terms, scene by scene, then pair, then predicate:
        # the order of `p.text`
        pair, _ = np.nonzero(p.gt_predicate_rows)
        per_scene = Segments(np.bincount(p.edges.seg[pair], minlength=p.edges.count))
        terms["loss_obj_or"] = loss_obj(result.obj_logits_oracle, p.gt_objects, p.nodes)
        terms["loss_pred_or"] = loss_pred(result.pred_logits_oracle, p.gt_predicate_rows, p.edges)
        fused = ad.gather_rows(result.fused_triplets, pair)
        terms["loss_tri"] = loss_tri_emb(fused, p.text, per_scene)
        terms["loss_node"] = loss_node_init(result.nodes0_3d, result.nodes0_oracle, p.nodes)
    terms["loss_total"] = total_loss(terms, weights)
    values = {k: terms[k].data if k in terms else None for k in TERM_KEYS}
    return ad.tsum(terms["loss_total"]), values


# ---------------------------------------------------------------------------
# training loop


@dataclass
class TrainConfig:
    epochs: int = 60
    batch_size: int = 8
    base_lr: float = 1e-3
    weight_decay: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    seed: int = 0
    vlsat: bool = True
    lambda_obj: float = 0.1
    lambda_pred: float = 1.0
    lambda_aux: float = 0.1
    init_classifiers_from_embeddings: bool | None = None  # default: follow vlsat

    def weights(self) -> LossWeights:
        w = LossWeights(obj=self.lambda_obj, pred=self.lambda_pred, aux=self.lambda_aux)
        w.validate()
        return w

    def validate(self) -> None:
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("epochs and batch_size must be >= 1")
        if self.base_lr <= 0:
            raise ConfigError("base_lr must be positive")
        self.weights()


def _epoch_rng(seed: int, epoch: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, 600, epoch]))


def train(samples: list[SceneGraphSample], vocab: Vocabulary,
          provider: EmbeddingProvider | None, model_cfg: ModelConfig,
          train_cfg: TrainConfig, resume: "Checkpoint | None" = None,
          log_hook=None, stop_epoch: int | None = None) -> tuple[ModelState, "AdamW", list[dict]]:
    """Train on the train-split scenes; returns model, optimizer and epoch log.

    train_cfg.epochs fixes the cosine schedule; stop_epoch (when given)
    interrupts the run early so it can be resumed from a checkpoint.
    """
    train_cfg.validate()
    scenes = [s for s in samples if s.split == "train"]
    if not scenes:
        raise DataError("no training scenes")
    weights = train_cfg.weights()
    vlsat = train_cfg.vlsat
    if vlsat and any(s.visual_features is None for s in scenes):
        raise DataError("oracle-assisted training requires visual features on every scene")
    if vlsat and provider is None:
        raise DataError("oracle-assisted training requires an embedding provider")

    if resume is not None:
        if resume.vocab_hash != vocab.content_hash():
            raise DataError("checkpoint vocabulary hash does not match the dataset")
        if resume.train_config.vlsat != vlsat:
            raise ConfigError(f"cannot resume a vlsat={not vlsat} checkpoint with vlsat={vlsat}")
        model, optimizer, start_epoch = resume.restore()
        if start_epoch > train_cfg.epochs:
            raise ConfigError(f"the checkpoint has trained {start_epoch} epochs, more than "
                              f"epochs={train_cfg.epochs}")
    else:
        model = ModelState(replace(model_cfg, joint=vlsat))
        init_emb = train_cfg.init_classifiers_from_embeddings
        if init_emb is None:
            init_emb = vlsat
        if init_emb:
            if provider is None:
                raise ConfigError("classifier embedding init requires a provider")
            apply_embedding_init(model, provider)
        optimizer = AdamW(model.params, betas=(train_cfg.beta1, train_cfg.beta2),
                          eps=train_cfg.eps, weight_decay=train_cfg.weight_decay)
        start_epoch = 0

    prepared = [build_train_scene(s, provider if vlsat else None) for s in scenes]
    logs: list[dict] = []

    end_epoch = train_cfg.epochs if stop_epoch is None else min(stop_epoch, train_cfg.epochs)
    for epoch in range(start_epoch, end_epoch):
        lr = cosine_lr(train_cfg.base_lr, epoch, train_cfg.epochs)
        order = _epoch_rng(train_cfg.seed, epoch).permutation(len(prepared))
        sums = {k: 0.0 for k in TERM_KEYS}
        have = {k: 0 for k in TERM_KEYS}
        for batch_no, batch_start in enumerate(range(0, len(order), train_cfg.batch_size)):
            batch = order[batch_start:batch_start + train_cfg.batch_size]
            packed = pack_scenes([prepared[i] for i in batch])
            optimizer.zero_grad()
            try:
                with Tape() as tape:
                    total, values = scene_loss(model, packed, weights, vlsat)
                    tape.backward(total)
            except NumericError as e:
                raise NumericError(
                    f"non-finite loss at epoch {epoch}, batch {batch_no}, "
                    f"scenes {', '.join(packed.scene_ids)}: {e}") from e
            for k in TERM_KEYS:
                if values[k] is not None:
                    sums[k] += float(values[k].sum())
                    have[k] += len(values[k])
            optimizer.step(lr)
        record = {"epoch": epoch, "lr": lr}
        for k in TERM_KEYS:
            record[k] = (sums[k] / have[k]) if have[k] else None
        logs.append(record)
        if log_hook is not None:
            log_hook(record)
    return model, optimizer, logs


# ---------------------------------------------------------------------------
# checkpointing


def _encode_array(arr: np.ndarray) -> dict:
    data = np.ascontiguousarray(arr, dtype="<f8")
    return {"shape": list(arr.shape), "data": base64.b64encode(data.tobytes()).decode("ascii")}


def _decode_array(blob: dict, shape: tuple, where: str) -> np.ndarray:
    """A blob of `_encode_array` that must decode to exactly `shape`."""
    try:
        arr = np.frombuffer(base64.b64decode(blob["data"], validate=True), dtype="<f8")
        ok = list(blob["shape"]) == list(shape) and arr.size == int(np.prod(shape))
    except (KeyError, TypeError, ValueError) as e:
        raise DataError(f"checkpoint {where} cannot be decoded: {e}") from e
    if not ok:
        raise DataError(f"checkpoint {where} does not hold a {shape} array")
    return arr.reshape(shape).copy()


def _config(cls, values: dict, where: str):
    """`cls` from a checkpoint's config section, which must name every field
    with a value of its type and pass `validate`."""
    problems = field_problems(cls, values, complete=True)
    if problems:
        raise DataError(f"checkpoint {where}: {'; '.join(problems)}")
    config = cls(**values)
    try:
        config.validate()
    except ConfigError as e:
        raise DataError(f"checkpoint {where}: {e}") from e
    return config


class Checkpoint:
    """Serializable snapshot: parameters, optimizer state, epoch, config."""

    FORMAT_VERSION = 1
    # the JSON type of every section `restore` and the CLI read
    SECTIONS = {"model_config": dict, "train_config": dict, "params": dict, "optimizer": dict,
                "next_epoch": int, "vocab_hash": str}
    OPTIMIZER_SECTIONS = {"step": int, "m": dict, "v": dict}

    def __init__(self, payload: dict):
        self.payload = payload

    @classmethod
    def capture(cls, model: ModelState, optimizer: AdamW, train_cfg: TrainConfig,
                next_epoch: int, vocab_hash: str, extra: dict | None = None) -> "Checkpoint":
        payload = {
            "format_version": cls.FORMAT_VERSION,
            "kind": "sg3d-checkpoint",
            "model_config": asdict(model.cfg),
            "train_config": asdict(train_cfg),
            "next_epoch": next_epoch,
            "rng": {"seed": train_cfg.seed},
            "vocab_hash": vocab_hash,
            "params": {k: _encode_array(p.data) for k, p in model.params.items()},
            "optimizer": {
                "step": optimizer.step_count,
                "m": {k: _encode_array(v) for k, v in optimizer.named(optimizer.m).items()},
                "v": {k: _encode_array(v) for k, v in optimizer.named(optimizer.v).items()},
            },
            "extra": extra or {},
        }
        payload["content_hash"] = cls._hash(payload)
        return cls(payload)

    @staticmethod
    def _hash(payload: dict) -> str:
        body = {k: v for k, v in payload.items() if k != "content_hash"}
        return hashlib.sha256(json.dumps(body, sort_keys=True, separators=(",", ":")).encode()).hexdigest()

    def to_json(self) -> str:
        return json.dumps(self.payload, sort_keys=True, separators=(",", ":"))

    def save(self, path) -> None:
        """Write a temp file beside `path` and rename it over `path`, so a
        failed save leaves the previous checkpoint whole."""
        import os

        tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write(self.to_json())
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.remove(tmp)

    @classmethod
    def load(cls, path) -> "Checkpoint":
        with open(path, encoding="utf-8") as fh:
            try:
                payload = json.load(fh)
            except ValueError as e:
                raise DataError(f"{path}: checkpoint is not valid JSON: {e}") from e
        if not isinstance(payload, dict) or payload.get("kind") != "sg3d-checkpoint":
            raise DataError(f"{path}: not a checkpoint file")
        if payload.get("format_version") != cls.FORMAT_VERSION:
            raise DataError(f"{path}: unsupported checkpoint version")
        if payload.get("content_hash") != cls._hash(payload):
            raise DataError(f"{path}: checkpoint content hash mismatch")
        bad = [k for k, kind in cls.SECTIONS.items() if not fits_type(payload.get(k), kind)]
        if not bad:
            bad = [f"optimizer.{k}" for k, kind in cls.OPTIMIZER_SECTIONS.items()
                   if not fits_type(payload["optimizer"].get(k), kind)]
        if bad:
            raise DataError(f"{path}: checkpoint sections missing or of the wrong type: {bad}")
        return cls(payload)

    @property
    def model_config(self) -> ModelConfig:
        return _config(ModelConfig, self.payload["model_config"], "model_config")

    @property
    def train_config(self) -> TrainConfig:
        return _config(TrainConfig, self.payload["train_config"], "train_config")

    @property
    def vocab_hash(self) -> str:
        return self.payload["vocab_hash"]

    def restore(self) -> tuple[ModelState, AdamW, int]:
        model = ModelState(self.model_config)
        saved = self.payload["params"]
        if set(saved) != set(model.params):
            raise DataError("checkpoint parameter names do not match the model configuration")
        shapes = {name: p.data.shape for name, p in model.params.items()}
        for name, blob in saved.items():
            model.params[name].data = _decode_array(blob, shapes[name], f"parameter {name}")
        tc = self.train_config
        optimizer = AdamW(model.params, betas=(tc.beta1, tc.beta2), eps=tc.eps,
                          weight_decay=tc.weight_decay)
        optimizer.step_count = self.payload["optimizer"]["step"]
        for moment in ("m", "v"):
            blobs = self.payload["optimizer"][moment]
            if set(blobs) != set(shapes):
                raise DataError(f"checkpoint optimizer.{moment} names do not match the parameters")
            views = optimizer.named(getattr(optimizer, moment))
            for k, blob in blobs.items():
                views[k][...] = _decode_array(blob, shapes[k], f"optimizer.{moment}.{k}")
        return model, optimizer, self.payload["next_epoch"]
