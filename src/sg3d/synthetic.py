"""Deterministic generator of long-tailed synthetic scenes.

Predicate ground truth is produced in two passes. First, generous
geometric / latent rules are evaluated on every ordered instance pair.
Second, the satisfied pairs are thinned per predicate to quotas drawn
from a Zipf profile, so empirical frequencies match the profile exactly
up to rounding (real scene-graph corpora are sparsely annotated in the
same way). One relation per scene is protected from thinning.

The last predicate ("same_finish" in the default vocabulary) depends
only on a per-instance latent tag that is sampled independently of all
geometry; it is the semantic predicate the surrogate visual channel
carries and geometry cannot. Its base rate is tuned to sit at the
bottom of the Zipf profile, so it is (almost) never thinned and the
latent channel remains a near-perfect predictor of its ground truth.

Surrogate embedding providers stand in for fixed pretrained vision and
text encoders: unit-norm object/predicate embeddings plus a template
embedder mapping (subject, predicate, object) to a unit vector.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field, asdict

import numpy as np

from .errors import ConfigError, DataError
from .scene import (SceneGraphSample, Vocabulary, instance_attributes, pair_index_arrays,
                    relation_terms, split_predicates)

log = logging.getLogger("sg3d")

DEFAULT_OBJECT_CLASSES = [
    # name, base size (x, y, z), placed on furniture
    ("table", (1.40, 0.80, 0.75), False),
    ("chair", (0.50, 0.50, 0.90), False),
    ("sofa", (1.90, 0.90, 0.80), False),
    ("bed", (2.00, 1.60, 0.60), False),
    ("desk", (1.20, 0.60, 0.74), False),
    ("shelf", (0.80, 0.30, 1.80), False),
    ("cabinet", (0.90, 0.45, 1.20), False),
    ("lamp", (0.25, 0.25, 1.50), False),
    ("monitor", (0.55, 0.08, 0.35), True),
    ("plant", (0.35, 0.35, 0.80), False),
    ("box", (0.40, 0.40, 0.30), False),
    ("rug", (1.60, 1.10, 0.02), False),
    ("mug", (0.09, 0.09, 0.10), True),
    ("book", (0.15, 0.22, 0.03), True),
    ("bottle", (0.08, 0.08, 0.26), True),
    ("bin", (0.30, 0.30, 0.40), False),
]

DEFAULT_PREDICATES = [
    "near", "left_of", "right_of", "ahead_of", "behind_of",
    "above", "below", "larger_than", "smaller_than", "taller_than",
    "similar_size", "paired_with", "same_finish",
]

# (accessory subject, host object) class-index pairs for "paired_with"
DEFAULT_ACCESSORY_PAIRS = [
    (12, 0), (12, 4), (8, 4), (13, 5), (13, 4), (7, 0),
    (9, 5), (14, 0), (15, 4), (10, 6), (9, 0), (13, 6),
]


@dataclass
class WorldConfig:
    seed: int = 7
    n_train_scenes: int = 200
    n_val_scenes: int = 150
    k_min: int = 4
    k_max: int = 9
    n_obj: int = 16
    n_rel: int = 13
    zipf_exponent: float = 1.2
    semantic_predicates: list[int] = field(default_factory=list)  # default: last predicate
    d_emb: int = 32
    d_vis: int | None = None  # default: d_emb + 2
    # tuned so the tag rule fires at roughly its Zipf quota and stays unthinned
    tag_probability: float = 0.12
    # raw rule firing rate per predicate ~= rule_rate_scale * zipf weight
    # (floored so rare geometric rules keep a learnable margin); mild
    # thinning keeps probabilities calibrated
    rule_rate_scale: float = 0.8
    rule_rate_floor: float = 0.06
    sigma_noise: float = 0.25
    n_views: int = 5
    points_min: int = 24
    points_max: int = 48

    def __post_init__(self):
        if not self.semantic_predicates:
            self.semantic_predicates = [self.n_rel - 1]
        if self.d_vis is None:
            self.d_vis = self.d_emb + 2

    def validate(self) -> None:
        if self.k_max < 2:
            raise ConfigError("k_max must allow at least 2 instances per scene")
        if self.k_min < 2:
            raise ConfigError(f"k_min must be at least 2 instances per scene, got {self.k_min}")
        if self.k_min > self.k_max:
            raise ConfigError("invalid instance-count range")
        if self.zipf_exponent < 0:
            raise ConfigError("zipf exponent must be >= 0")
        if self.n_obj < 2 or self.n_rel < 2:
            raise ConfigError("need at least 2 object and 2 predicate classes")
        if self.d_vis < 4:
            raise ConfigError("d_vis too small to carry the latent channel")
        if self.n_views < 1:
            raise ConfigError("n_views must be >= 1")
        if self.n_train_scenes < 1 or self.n_val_scenes < 1:
            raise ConfigError("n_train_scenes and n_val_scenes must be >= 1")
        if not 1 <= self.points_min <= self.points_max:
            raise ConfigError(f"points_min must lie in [1, points_max], got {self.points_min}")
        if not 0.0 <= self.tag_probability <= 1.0:
            raise ConfigError(f"tag_probability must lie in [0, 1], got {self.tag_probability}")
        if min(self.sigma_noise, self.rule_rate_scale, self.rule_rate_floor) < 0:
            raise ConfigError("sigma_noise, rule_rate_scale and rule_rate_floor must be >= 0")
        splits = _index_splits(self.n_rel)
        tail = splits["tail"]
        for p in self.semantic_predicates:
            if not 0 <= p < self.n_rel:
                raise ConfigError(f"semantic predicate {p} out of range")
            if p not in tail:
                raise ConfigError(f"semantic predicate {p} must lie in the tail split {sorted(tail)}")


def _index_splits(n_rel: int) -> dict[str, set[int]]:
    # predicate index equals frequency rank by construction of the quotas
    vocab = Vocabulary([""], [str(i) for i in range(n_rel)],
                       list(range(n_rel, 0, -1)))
    return split_predicates(vocab)


def _rng(*key) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(list(key)))


# ---------------------------------------------------------------------------
# embedding provider


class EmbeddingProvider:
    """Fixed unit-norm object/predicate embeddings and a triplet embedder.

    When per-class feature rows are given, object embeddings blend a
    structured component (shared geometry makes nearby embeddings) with a
    random residual, mimicking the semantic structure of a pretrained
    encoder's class space; pairwise cosines stay bounded either way.
    """

    BLEND = (0.35, 0.30, 0.35)  # subject / predicate / object weights
    STRUCTURE_WEIGHT = 0.75

    def __init__(self, seed: int, n_obj: int, n_rel: int, d_emb: int,
                 max_cosine: float = 0.9, class_features: np.ndarray | None = None):
        self.seed = seed
        self.d_emb = d_emb
        self.max_cosine = max_cosine
        self.object_embeddings = self._draw(_rng(seed, 101), n_obj, class_features)
        self.predicate_embeddings = self._draw(_rng(seed, 102), n_rel, None)

    def _draw(self, rng: np.random.Generator, n: int,
              features: np.ndarray | None) -> np.ndarray:
        structured = None
        if features is not None:
            if features.shape[0] != n or features.shape[1] > self.d_emb:
                raise ConfigError("class feature table incompatible with embedding width")
            block = (features - features.mean(axis=0)) / np.maximum(features.std(axis=0), 1e-9)
            structured = np.zeros((n, self.d_emb))
            structured[:, :features.shape[1]] = block
            norms = np.linalg.norm(structured, axis=1, keepdims=True)
            structured = structured / np.maximum(norms, 1e-9)
        for _ in range(64):
            rows = rng.standard_normal((n, self.d_emb))
            rows /= np.linalg.norm(rows, axis=1, keepdims=True)
            if structured is not None:
                a = self.STRUCTURE_WEIGHT
                rows = a * structured + np.sqrt(1.0 - a * a) * rows
                rows /= np.linalg.norm(rows, axis=1, keepdims=True)
            cos = rows @ rows.T
            np.fill_diagonal(cos, 0.0)
            if np.abs(cos).max() <= self.max_cosine:
                return rows
        raise ConfigError("could not draw embeddings with bounded pairwise cosine; increase d_emb")

    def text_embedding(self, subject: int, predicate: int, obj: int) -> np.ndarray:
        """Unit-norm embedding of one relation triplet."""
        if not 0 <= subject < len(self.object_embeddings):
            raise DataError(f"subject class {subject} out of range")
        if not 0 <= obj < len(self.object_embeddings):
            raise DataError(f"object class {obj} out of range")
        if not 0 <= predicate < len(self.predicate_embeddings):
            raise DataError(f"predicate {predicate} out of range")
        ws, wp, wo = self.BLEND
        vec = (ws * self.object_embeddings[subject]
               + wp * self.predicate_embeddings[predicate]
               + wo * self.object_embeddings[obj])
        return vec / np.linalg.norm(vec)

    def text_embedding_rows(self, triplets) -> np.ndarray:
        return np.stack([self.text_embedding(s, p, o) for s, p, o in triplets]) \
            if len(triplets) else np.zeros((0, self.d_emb))


def visual_feature_rows(latents: np.ndarray, n_views: int, sigma_noise: float,
                        rng: np.random.Generator) -> np.ndarray:
    """Mean over n_views noisy draws around each instance's latent descriptor."""
    if n_views < 1:
        raise ConfigError("n_views must be >= 1")
    if sigma_noise == 0.0:
        return latents.copy()
    draws = latents[None, :, :] + sigma_noise * rng.standard_normal((n_views,) + latents.shape)
    return draws.mean(axis=0)


# ---------------------------------------------------------------------------
# world construction


def _class_table(cfg: WorldConfig) -> tuple[list[str], np.ndarray, np.ndarray, list[tuple[int, int]]]:
    """Names, base sizes, raised flags and accessory pairs for n_obj classes."""
    if cfg.n_obj <= len(DEFAULT_OBJECT_CLASSES):
        rows = DEFAULT_OBJECT_CLASSES[:cfg.n_obj]
        names = [r[0] for r in rows]
        sizes = np.array([r[1] for r in rows])
        raised = np.array([r[2] for r in rows])
        pairs = [(s, o) for s, o in DEFAULT_ACCESSORY_PAIRS if s < cfg.n_obj and o < cfg.n_obj]
    else:
        rng = _rng(cfg.seed, 201)
        names = [f"object_{i:03d}" for i in range(cfg.n_obj)]
        sizes = np.exp(rng.uniform(np.log(0.08), np.log(1.8), size=(cfg.n_obj, 3)))
        raised = sizes.prod(axis=1) < 0.02
        volumes = sizes.prod(axis=1)
        small = np.argsort(volumes)[: cfg.n_obj // 3]
        big = np.argsort(volumes)[-(cfg.n_obj // 3):]
        pairs = [(int(small[i % len(small)]), int(big[(i * 5 + 1) % len(big)])) for i in range(12)]
        pairs = sorted(set(pairs))
    if not pairs:
        pairs = [(0, 1)]
    return names, sizes, raised, pairs


def _class_feature_table(sizes: np.ndarray, raised: np.ndarray) -> np.ndarray:
    """Geometric class descriptors that structure the object embedding space."""
    logs = np.log(sizes)
    volume = logs.sum(axis=1, keepdims=True)
    aspect_xz = logs[:, 0:1] - logs[:, 2:3]
    aspect_yz = logs[:, 1:2] - logs[:, 2:3]
    return np.concatenate([logs, volume, aspect_xz, aspect_yz,
                           raised.astype(np.float64)[:, None]], axis=1)


def build_provider(cfg: WorldConfig) -> EmbeddingProvider:
    _, sizes, raised, _ = _class_table(cfg)
    return EmbeddingProvider(cfg.seed, cfg.n_obj, cfg.n_rel, cfg.d_emb,
                             class_features=_class_feature_table(sizes, raised))


def _predicate_rule_keys(n_rel: int) -> list[str]:
    """Rule key driving each predicate index; geometric keys cycle, last is latent."""
    base = [n for n in DEFAULT_PREDICATES if n != "same_finish"]
    return [base[i % len(base)] for i in range(n_rel - 1)] + ["same_finish"]


def _predicate_names(cfg: WorldConfig) -> list[str]:
    """The rule keys, a repeat suffixed by its count; 13 give `DEFAULT_PREDICATES`."""
    keys = _predicate_rule_keys(cfg.n_rel)
    seen: dict[str, int] = {}
    names = []
    for key in keys:
        n = seen.get(key, 0)
        names.append(key if n == 0 else f"{key}_{n}")
        seen[key] = n + 1
    return names


@dataclass
class _RawScene:
    """A generated scene before thinning: instance arrays as a
    `SceneGraphSample` holds them, their `instance_attributes` table, and
    `satisfied`, the (pair, predicate) terms its rules accept."""

    scene_id: str
    split: str
    classes: np.ndarray       # (K,) intp
    points: np.ndarray        # (P, 3)
    point_counts: np.ndarray  # (K,) intp
    attrs: np.ndarray         # (K, 11)
    tags: np.ndarray       # (K,) bool
    latents: np.ndarray    # (K, d_vis)
    satisfied: np.ndarray  # (E, n_rel) bool
    split_index: int = -1
    visual: np.ndarray | None = None


def _generate_geometry(cfg: WorldConfig, provider: EmbeddingProvider, split: str,
                       index: int, sizes: np.ndarray, raised: np.ndarray,
                       attempt: int = 0) -> _RawScene:
    split_id = 0 if split == "train" else 1
    rng = _rng(cfg.seed, 300 + split_id, index, attempt)
    k = int(rng.integers(cfg.k_min, cfg.k_max + 1))
    # mildly long-tailed class frequencies; size noise large enough that
    # object identity is genuinely ambiguous from shape statistics alone
    weights = 1.0 / (1.0 + 0.15 * np.arange(cfg.n_obj))
    classes = rng.choice(cfg.n_obj, size=k, p=weights / weights.sum())
    inst_sizes = sizes[classes] * np.exp(rng.normal(0.0, 0.38, size=(k, 3)))
    centers = np.empty((k, 3))
    centers[:, 0] = rng.uniform(-2.2, 2.2, size=k)
    centers[:, 1] = rng.uniform(-2.2, 2.2, size=k)
    lift = np.where(raised[classes], rng.uniform(0.55, 0.95, size=k), rng.uniform(0.0, 0.06, size=k))
    centers[:, 2] = inst_sizes[:, 2] / 2.0 + lift

    point_sets = []
    for i in range(k):
        n_pts = int(rng.integers(cfg.points_min, cfg.points_max + 1))
        point_sets.append(centers[i] + (rng.random((n_pts, 3)) - 0.5) * inst_sizes[i])
    points = np.concatenate(point_sets)
    counts = np.array([len(p) for p in point_sets], dtype=np.intp)
    tags = rng.random(k) < cfg.tag_probability

    latents = np.zeros((k, cfg.d_vis))
    emb_width = min(cfg.d_emb, cfg.d_vis - 2)
    latents[:, :emb_width] = provider.object_embeddings[classes, :emb_width]
    latents[:, -2] = tags

    return _RawScene(scene_id=f"{split}_{index:05d}", split=split,
                     classes=classes, points=points, point_counts=counts,
                     attrs=instance_attributes(points, counts), tags=tags, latents=latents,
                     satisfied=np.zeros((k * (k - 1), cfg.n_rel), dtype=bool))


def _scene_scale(scenes: list[_RawScene]) -> float:
    """Median centroid distance over the pairs of the first 40 scenes; each
    distance counts in both directions, which leaves the median as it is."""
    dists = np.concatenate([np.zeros(0)] + [_pair_stats(sc)["near"] for sc in scenes[:40]])
    return float(np.median(dists)) if dists.size else 1.0


# per-pair decision statistics of the geometric rules; a rule fires when its
# statistic is below ("lt") or above ("gt") the calibrated threshold
GEOM_RULES = {
    "near": "lt", "left_of": "gt", "right_of": "gt", "ahead_of": "gt",
    "behind_of": "gt", "above": "gt", "below": "gt", "larger_than": "gt",
    "smaller_than": "gt", "taller_than": "gt", "similar_size": "lt",
}


def _pair_stats(scene: _RawScene) -> dict[str, np.ndarray]:
    """Every rule statistic, one value per ordered pair."""
    subj, obj = pair_index_arrays(len(scene.classes))
    log_v, log_h = scene.attrs[:, 10], np.log(scene.attrs[:, 8])
    diff = scene.attrs[subj, :3] - scene.attrs[obj, :3]
    dv = log_v[subj] - log_v[obj]
    dh = log_h[subj] - log_h[obj]
    return {
        "near": np.sqrt((diff ** 2).sum(-1)),
        "left_of": -diff[:, 0],
        "right_of": diff[:, 0],
        "ahead_of": -diff[:, 1],
        "behind_of": diff[:, 1],
        "above": diff[:, 2],
        "below": -diff[:, 2],
        "larger_than": dv,
        "smaller_than": -dv,
        "taller_than": dh,
        "similar_size": np.abs(dv),
    }


def _calibrate_thresholds(cfg: WorldConfig, train_scenes: list[_RawScene],
                          scale: float) -> dict:
    """Quantile-calibrate every geometric rule so its firing rate tracks the
    Zipf weight of its predicate; thresholds are recorded in the manifest."""
    weights = zipf_weights(cfg.n_rel, cfg.zipf_exponent)
    keys = _predicate_rule_keys(cfg.n_rel)

    pooled: dict[str, list[np.ndarray]] = {k: [] for k in GEOM_RULES}
    for scene in train_scenes:
        stats = _pair_stats(scene)
        for name in GEOM_RULES:
            pooled[name].append(stats[name])
    pooled_arr = {name: np.concatenate(vals) for name, vals in pooled.items()}

    per_predicate = {}
    for r, key in enumerate(keys):
        if r in cfg.semantic_predicates or key not in GEOM_RULES:
            continue
        rate = float(min(0.45, max(cfg.rule_rate_floor, cfg.rule_rate_scale * weights[r])))
        stat = pooled_arr[key]
        q = rate if GEOM_RULES[key] == "lt" else 1.0 - rate
        per_predicate[str(r)] = {
            "rule": key,
            "direction": GEOM_RULES[key],
            "threshold": float(np.quantile(stat, q)),
            "target_rate": rate,
        }
    return {"per_predicate": per_predicate, "pair_distance": 0.9 * scale,
            "scene_scale": scale}


def _apply_rules(cfg: WorldConfig, scene: _RawScene, thresholds: dict,
                 accessory_pairs: list[tuple[int, int]]) -> None:
    subj, obj = pair_index_arrays(len(scene.classes))
    stats = _pair_stats(scene)
    keys = _predicate_rule_keys(cfg.n_rel)

    paired = np.zeros(len(subj), dtype=bool)
    pair_ok = stats["near"] < thresholds["pair_distance"]
    for s_cls, o_cls in accessory_pairs:
        paired |= (scene.classes[subj] == s_cls) & (scene.classes[obj] == o_cls) & pair_ok
    same_tag = scene.tags[subj] & scene.tags[obj]

    sat = np.zeros((len(subj), cfg.n_rel), dtype=bool)
    for r, key in enumerate(keys):
        spec = thresholds["per_predicate"].get(str(r))
        if spec is not None:
            stat = stats[spec["rule"]]
            sat[:, r] = stat < spec["threshold"] if spec["direction"] == "lt" \
                else stat > spec["threshold"]
        elif key == "paired_with":
            sat[:, r] = paired
        else:
            sat[:, r] = same_tag
    for p in cfg.semantic_predicates:
        sat[:, p] = same_tag
    scene.satisfied = sat


def zipf_weights(n: int, exponent: float) -> np.ndarray:
    w = (np.arange(1, n + 1, dtype=np.float64)) ** (-exponent)
    return w / w.sum()


def _thin_to_quota(cfg: WorldConfig, scenes: list[_RawScene], split_id: int,
                   allow_missing: bool = False) -> tuple[list[np.ndarray], np.ndarray]:
    """Select ground-truth relations per predicate so counts follow the profile."""
    n_rel = cfg.n_rel
    weights = zipf_weights(n_rel, cfg.zipf_exponent)

    # every satisfied (pair, predicate) term, in scene, pair, predicate order
    terms = [np.nonzero(scene.satisfied) for scene in scenes]
    pred = np.concatenate([np.zeros(0, dtype=np.intp)] + [p for _, p in terms])
    starts = np.cumsum([0] + [len(p) for _, p in terms])

    counts = np.bincount(pred, minlength=n_rel).astype(np.float64)
    if np.any(counts == 0):
        missing = [p for p in range(n_rel) if counts[p] == 0]
        if not allow_missing:
            raise DataError(f"rule for predicate(s) {missing} never fired; enlarge the dataset")
        log.warning("split %d: predicate(s) %s never fired; they get no relations", split_id, missing)
    present = counts > 0
    total = int(np.floor((counts[present] / weights[present]).min()))
    quotas = np.floor(weights * total).astype(int)
    quotas = np.where(present, np.maximum(quotas, 1), 0)

    # one protected relation per scene so every scene keeps >= 1 gt relation:
    # its first pair of the least-protected satisfied class (lowest index on
    # ties), so protection does not distort the frequency profile
    keep = np.zeros(len(pred), dtype=bool)
    protected_count = [0] * n_rel
    for scene, start, stop in zip(scenes, starts[:-1], starts[1:]):
        if start == stop:
            raise DataError(f"scene {scene.scene_id} has no satisfiable relation")
        p = min(np.unique(pred[start:stop]).tolist(), key=lambda q: (protected_count[q], q))
        keep[start + np.flatnonzero(pred[start:stop] == p)[0]] = True
        protected_count[p] += 1

    rng = _rng(cfg.seed, 400 + split_id)
    for p in range(n_rel):
        pool = np.flatnonzero((pred == p) & ~keep)
        extra = quotas[p] - protected_count[p]
        if extra > 0 and len(pool):
            keep[pool[rng.choice(len(pool), size=min(extra, len(pool)), replace=False)]] = True

    gts = []
    for scene, (pair, scene_pred), start, stop in zip(scenes, terms, starts[:-1], starts[1:]):
        gt = np.zeros(scene.satisfied.shape, dtype=np.uint8)
        kept = keep[start:stop]
        gt[pair[kept], scene_pred[kept]] = 1
        gts.append(gt)
    return gts, np.bincount(pred[keep], minlength=n_rel)


# ---------------------------------------------------------------------------
# separability audit


def _nb_predict(train_x, train_y, eval_x) -> np.ndarray:
    """Per-feature Gaussian naive Bayes decision with equal priors."""
    pos, neg = train_x[train_y], train_x[~train_y]
    if len(pos) < 2 or len(neg) < 2:
        return np.zeros(len(eval_x), dtype=bool)
    mu_p, mu_n = pos.mean(0), neg.mean(0)
    var_p = np.maximum(pos.var(0), 1e-6)
    var_n = np.maximum(neg.var(0), 1e-6)

    def loglik(x, mu, var):
        return (-0.5 * (np.log(2 * np.pi * var) + (x - mu) ** 2 / var)).sum(axis=1)

    return loglik(eval_x, mu_p, var_p) > loglik(eval_x, mu_n, var_n)


def _cv_balanced_acc(x: np.ndarray, y: np.ndarray, folds: int = 5) -> float:
    """K-fold cross-validated balanced accuracy of the naive Bayes rule."""
    fold_of = np.arange(len(x)) % folds
    pred = np.zeros(len(x), dtype=bool)
    for f in range(folds):
        mask = fold_of == f
        pred[mask] = _nb_predict(x[~mask], y[~mask], x[mask])
    tpr = pred[y].mean() if y.any() else 0.0
    tnr = (~pred[~y]).mean() if (~y).any() else 0.0
    return float(0.5 * (tpr + tnr))


def _pair_features(scene: _RawScene) -> tuple[np.ndarray, np.ndarray]:
    """Geometry-only and latent feature rows for every ordered pair."""
    from .encoders import descriptor_matrix

    subj, obj = pair_index_arrays(len(scene.classes))
    attrs = scene.attrs
    diff = (attrs[subj, :3] - attrs[obj, :3])[:, None, :]
    # one dot per pair, as np.linalg.norm takes it, so the audit keeps its bits
    dist = np.sqrt(diff @ np.swapaxes(diff, 1, 2))[:, 0]
    # then the box extents (columns 6-8) and stds (3-5) of subject and object
    geo = np.concatenate([descriptor_matrix(attrs, subj, obj), dist, attrs[subj, 6:9],
                          attrs[obj, 6:9], attrs[subj, 3:6], attrs[obj, 3:6]], axis=1)
    lat = np.concatenate([scene.visual[subj], scene.visual[obj]], axis=1)
    return geo, lat


def separability_audit(cfg: WorldConfig, scenes: list[_RawScene], gts: dict[str, list[np.ndarray]]) -> dict:
    """Check that semantic predicates need the latent channel.

    Cross-validated balanced accuracy of a Gaussian naive Bayes over all
    ordered pairs, once on geometry features alone and once with the
    surrogate visual rows appended.
    """
    rows_geo, rows_lat, labels = [], [], []
    for scene in scenes:
        gt = gts[scene.split][scene.split_index]
        geo, lat = _pair_features(scene)
        rows_geo.append(geo)
        rows_lat.append(lat)
        labels.append(gt)
    geo = np.concatenate(rows_geo)
    lat = np.concatenate(rows_lat)
    y_all = np.concatenate(labels)

    result = {}
    for p in cfg.semantic_predicates:
        y = y_all[:, p].astype(bool)
        result[str(p)] = {
            "geometry_balanced_accuracy": _cv_balanced_acc(geo, y),
            "latent_balanced_accuracy": _cv_balanced_acc(np.concatenate([geo, lat], axis=1), y),
        }
    return result


# ---------------------------------------------------------------------------
# top level


def generate_dataset(cfg: WorldConfig) -> tuple[list[SceneGraphSample], Vocabulary, dict]:
    """Generate train+validation scenes, vocabulary and a dataset manifest."""
    cfg.validate()
    names, sizes, raised, accessory_pairs = _class_table(cfg)
    predicate_names = _predicate_names(cfg)
    provider = build_provider(cfg)

    raw: list[_RawScene] = []
    positions: list[tuple[str, int]] = []
    for split, count in (("train", cfg.n_train_scenes), ("validation", cfg.n_val_scenes)):
        for idx in range(count):
            raw.append(_generate_geometry(cfg, provider, split, idx, sizes, raised))
            positions.append((split, idx))

    scale = _scene_scale(raw)
    thresholds = _calibrate_thresholds(cfg, [s for s in raw if s.split == "train"], scale)
    for scene in raw:
        _apply_rules(cfg, scene, thresholds, accessory_pairs)

    # redraw scenes that satisfy no rule at all (every scene must carry a
    # relation); thresholds stay fixed from the calibration pass
    for attempt in range(1, 20):
        empty = [n for n, scene in enumerate(raw) if not scene.satisfied.any()]
        if not empty:
            break
        for n in empty:
            split, idx = positions[n]
            raw[n] = _generate_geometry(cfg, provider, split, idx, sizes, raised, attempt)
            _apply_rules(cfg, raw[n], thresholds, accessory_pairs)
    else:
        raise DataError("could not generate scenes with at least one relation each")

    by_split: dict[str, list[_RawScene]] = {"train": [], "validation": []}
    for scene in raw:
        scene.split_index = len(by_split[scene.split])
        by_split[scene.split].append(scene)

    gts, freqs = {}, {}
    for split_id, split in enumerate(("train", "validation")):
        gts[split], freqs[split] = _thin_to_quota(cfg, by_split[split], split_id,
                                                  allow_missing=split == "validation")

    # visual features after gt so the noise stream is independent of thinning
    for scene in raw:
        split_id = 0 if scene.split == "train" else 1
        rng = _rng(cfg.seed, 500 + split_id, scene.split_index)
        scene.visual = visual_feature_rows(scene.latents, cfg.n_views, cfg.sigma_noise, rng)

    samples = []
    train_triplets = set()
    for scene in raw:
        gt = gts[scene.split][scene.split_index]
        sample = SceneGraphSample(scene_id=scene.scene_id, split=scene.split,
                                  instance_ids=np.arange(scene.classes.size),
                                  classes=scene.classes, points=scene.points,
                                  point_counts=scene.point_counts, gt_predicate_rows=gt,
                                  visual_features=scene.visual)
        samples.append(sample)
        if scene.split == "train":
            _, subj, pred, obj = relation_terms(gt, scene.classes)
            train_triplets.update(zip(subj.tolist(), pred.tolist(), obj.tolist()))

    vocab = Vocabulary(object_names=names, predicate_names=predicate_names,
                       predicate_train_frequency=[int(c) for c in freqs["train"]])
    audit = separability_audit(cfg, raw, gts)

    manifest = {
        "format_version": 1,
        "world_config": asdict(cfg),
        "embedding_seed": cfg.seed,
        "scene_scale": scale,
        "thresholds": thresholds,
        "object_names": names,
        "predicate_names": predicate_names,
        "predicate_train_frequency": [int(c) for c in freqs["train"]],
        "predicate_val_frequency": [int(c) for c in freqs["validation"]],
        "predicate_splits": {k: sorted(v) for k, v in split_predicates(vocab).items()},
        "train_triplets": sorted([list(t) for t in train_triplets]),
        "separability_audit": audit,
        "vocab_hash": vocab.content_hash(),
    }
    return samples, vocab, manifest


def provider_from_manifest(manifest: dict) -> EmbeddingProvider:
    return build_provider(WorldConfig(**manifest["world_config"]))


def manifest_to_json(manifest: dict) -> str:
    return json.dumps(manifest, sort_keys=True, separators=(",", ":"))
