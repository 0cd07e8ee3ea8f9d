"""Graph reasoning: gated message passing, multi-head self-attention,
unidirectional cross-attention collaborations, and the classifier heads.

Layer schedule (repeated T times, joint mode):

    1. node-level cross-attention, oracle queries the 3D nodes,
       with the learned distance mask added to the logits
    2. per stream: MHSA over nodes, then the gated GNN layer
    3. edge-level cross-attention, oracle queries the 3D edges (no mask)

The 3D stream never consumes oracle values, so its forward outputs are
identical with and without the oracle branch; the oracle influences the
3D parameters only through gradients (cross-attention keys/values and
the shared edge encoder).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import encoders
from .autodiff import Tensor
from .encoders import glorot
from .errors import ConfigError, DataError
from .scene import (InstanceAttributes, SceneGraphSample, compute_attributes,
                    pair_index_arrays, predicate_gt_rows)


@dataclass
class ModelConfig:
    d: int = 32
    hidden: int = 64
    heads: int = 4
    layers: int = 2
    d_vis: int = 34
    d_emb: int = 32
    n_obj: int = 16
    n_rel: int = 13
    joint: bool = True
    seed: int = 0

    def validate(self) -> None:
        if self.d % self.heads != 0:
            raise ConfigError(f"heads ({self.heads}) must divide feature width ({self.d})")
        if self.layers < 0:
            raise ConfigError("layers must be >= 0")


@dataclass
class GraphState:
    nodes: Tensor          # (K, D)
    edges: Tensor | None   # (E, D), None when K < 2


# ---------------------------------------------------------------------------
# parameter construction


def _attention_params(rng, d) -> dict[str, Tensor]:
    p = {}
    for name in ("q", "k", "v", "o"):
        p[f"w{name}"] = Tensor(glorot(rng, d, d), requires_grad=True)
        p[f"b{name}"] = Tensor(np.zeros(d), requires_grad=True)
    return p


def _gnn_params(rng, d) -> dict[str, Tensor]:
    return {
        "w_m": Tensor(glorot(rng, 3 * d, d), requires_grad=True),
        "w_g": Tensor(glorot(rng, d, d), requires_grad=True),
        "w_e": Tensor(glorot(rng, d, d), requires_grad=True),
        "w_n": Tensor(glorot(rng, d, d), requires_grad=True),
    }


def _flatten(tree: dict, prefix: str, out: dict[str, Tensor]) -> None:
    for key, value in tree.items():
        name = f"{prefix}.{key}" if prefix else key
        if isinstance(value, dict):
            _flatten(value, name, out)
        else:
            out[name] = value


class ModelState:
    """All learnable parameters of the 3D model and (optionally) the oracle."""

    def __init__(self, cfg: ModelConfig):
        cfg.validate()
        self.cfg = cfg
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 77]))
        d, h = cfg.d, cfg.hidden
        tree: dict = {
            "enc3d": {
                "point": encoders.init_point_mlp(rng, h, d),
                "edge": encoders.init_edge_mlp(rng, h, d),
            },
            "reason3d": {
                f"layer{i}": {"mhsa": _attention_params(rng, d), "gnn": _gnn_params(rng, d)}
                for i in range(cfg.layers)
            },
            "head3d": {
                "obj_w": Tensor(glorot(rng, d, cfg.n_obj), requires_grad=True),
                "obj_b": Tensor(np.zeros(cfg.n_obj), requires_grad=True),
                "pred_w": Tensor(glorot(rng, 3 * d, cfg.n_rel), requires_grad=True),
                "pred_b": Tensor(np.zeros(cfg.n_rel), requires_grad=True),
            },
        }
        if cfg.joint:
            tree["enc_oracle"] = {"proj": encoders.init_visual_proj(rng, cfg.d_vis, d)}
            tree["reason_oracle"] = {
                f"layer{i}": {"mhsa": _attention_params(rng, d), "gnn": _gnn_params(rng, d)}
                for i in range(cfg.layers)
            }
            tree["head_oracle"] = {
                "obj_w": Tensor(glorot(rng, d, cfg.n_obj), requires_grad=True),
                "obj_b": Tensor(np.zeros(cfg.n_obj), requires_grad=True),
                "pred_w": Tensor(glorot(rng, 3 * d, cfg.n_rel), requires_grad=True),
                "pred_b": Tensor(np.zeros(cfg.n_rel), requires_grad=True),
            }
            tree["collab"] = {
                f"layer{i}": {"node": _attention_params(rng, d), "edge": _attention_params(rng, d)}
                for i in range(cfg.layers)
            }
            tree["mask_mlp"] = {
                "w1": Tensor(glorot(rng, 4, h), requires_grad=True),
                "b1": Tensor(np.zeros(h), requires_grad=True),
                "w2": Tensor(glorot(rng, h, 1), requires_grad=True),
                "b2": Tensor(np.zeros(1), requires_grad=True),
            }
            tree["fuse"] = {
                "w": Tensor(glorot(rng, 3 * d, cfg.d_emb), requires_grad=True),
                "b": Tensor(np.zeros(cfg.d_emb), requires_grad=True),
            }
        self.tree = tree
        self.params: dict[str, Tensor] = {}
        _flatten(tree, "", self.params)

    def subtree(self, *path: str) -> dict:
        node = self.tree
        for key in path:
            node = node[key]
        return node

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()

    def three_d_param_names(self) -> list[str]:
        return [k for k in self.params if k.startswith(("enc3d.", "reason3d.", "head3d."))]


# ---------------------------------------------------------------------------
# reasoning ops


def multi_head_attention(query_stream: Tensor, kv_stream: Tensor, params: dict[str, Tensor],
                         n_heads: int, mask: Tensor | None = None,
                         collect_weights: list | None = None) -> Tensor:
    """Scaled dot-product attention with residual add into the query stream.

    The mask, when given, is added to the pre-softmax logits of every head.
    """
    q = ad.linear(query_stream, params["wq"], params["bq"])
    k = ad.linear(kv_stream, params["wk"], params["bk"])
    v = ad.linear(kv_stream, params["wv"], params["bv"])
    merged = ad.attention(q, k, v, n_heads, mask=mask, collect_weights=collect_weights)
    return ad.add(query_stream, ad.linear(merged, params["wo"], params["bo"]))


def mhsa(nodes: Tensor, params: dict[str, Tensor], n_heads: int) -> Tensor:
    return multi_head_attention(nodes, nodes, params, n_heads)


def mhca_node(oracle_nodes: Tensor, threed_nodes: Tensor, mask: Tensor,
              params: dict[str, Tensor], n_heads: int,
              collect_weights: list | None = None) -> Tensor:
    """Oracle nodes query the 3D nodes; additive distance mask on the logits."""
    return multi_head_attention(oracle_nodes, threed_nodes, params, n_heads,
                                mask=mask, collect_weights=collect_weights)


def mhca_edge(oracle_edges: Tensor, threed_edges: Tensor, params: dict[str, Tensor],
              n_heads: int, collect_weights: list | None = None) -> Tensor:
    """Oracle edges query the 3D edges over all ordered pairs, no mask."""
    return multi_head_attention(oracle_edges, threed_edges, params, n_heads,
                                collect_weights=collect_weights)


def mask_input_matrix(attrs: list[InstanceAttributes]) -> np.ndarray:
    """(K*K, 4) rows of cat(mu_i - mu_j, ||mu_i - mu_j||), diagonal included."""
    mus = np.stack([a.mean for a in attrs])
    diff = mus[:, None, :] - mus[None, :, :]
    norm = np.sqrt((diff ** 2).sum(-1, keepdims=True))
    return np.concatenate([diff, norm], axis=-1).reshape(-1, 4)


def distance_mask(attrs: list[InstanceAttributes], params: dict[str, Tensor]) -> Tensor:
    """Learned scalar mask per ordered pair, shaped (K, K)."""
    k = len(attrs)
    x = Tensor(mask_input_matrix(attrs))
    h = ad.relu(ad.linear(x, params["w1"], params["b1"]))
    out = ad.linear(h, params["w2"], params["b2"])
    return ad.reshape(out, (k, k))


def fat_gnn_layer(state: GraphState, params: dict[str, Tensor],
                  subj: np.ndarray, obj: np.ndarray, avg_matrix: np.ndarray) -> GraphState:
    """Gated node/edge message passing in residual form.

    For each directed edge: m = W_m cat(n_i, e_ij, n_j), gate g = sigmoid(W_g m),
    e' = e + W_e (g*m); nodes average g*m over their outgoing edges:
    n' = n + W_n mean_j(g*m).
    """
    if state.edges is None:
        return state
    n_i = ad.gather_rows(state.nodes, subj)
    n_j = ad.gather_rows(state.nodes, obj)
    cat = ad.concat([n_i, state.edges, n_j], axis=1)
    m = ad.matmul(cat, params["w_m"])
    gate = ad.sigmoid(ad.matmul(m, params["w_g"]))
    gm = ad.mul(gate, m)
    edges = ad.add(state.edges, ad.matmul(gm, params["w_e"]))
    pooled = ad.matmul(Tensor(avg_matrix), gm)
    nodes = ad.add(state.nodes, ad.matmul(pooled, params["w_n"]))
    return GraphState(nodes=nodes, edges=edges)


# ---------------------------------------------------------------------------
# full forward


@dataclass
class PreparedScene:
    """Constant per-scene arrays shared by every forward pass."""

    point_sets: list[np.ndarray]
    attrs: list[InstanceAttributes]
    subj: np.ndarray
    obj: np.ndarray
    avg_matrix: np.ndarray        # (K, E) averaging over outgoing edges
    descriptors: np.ndarray       # (E, 11)
    visual: np.ndarray | None
    gt_objects: np.ndarray        # (K,)
    gt_pred_rows: np.ndarray      # (E, N_rel)
    scene_id: str = ""


def prepare_scene(sample: SceneGraphSample) -> PreparedScene:
    k = sample.k
    attrs = [compute_attributes(inst) for inst in sample.instances]
    subj, obj = pair_index_arrays(k)
    avg = np.zeros((k, len(subj)))
    if k > 1:
        avg[subj, np.arange(len(subj))] = 1.0 / (k - 1)
    return PreparedScene(
        point_sets=[inst.points for inst in sample.instances],
        attrs=attrs,
        subj=subj,
        obj=obj,
        avg_matrix=avg,
        descriptors=encoders.descriptor_matrix(attrs, subj, obj),
        visual=sample.visual_features,
        gt_objects=np.array([inst.gt_class for inst in sample.instances], dtype=np.intp),
        gt_pred_rows=predicate_gt_rows(sample),
        scene_id=sample.scene_id,
    )


@dataclass
class ForwardResult:
    obj_logits_3d: Tensor
    pred_logits_3d: Tensor | None
    nodes0_3d: Tensor
    obj_logits_oracle: Tensor | None = None
    pred_logits_oracle: Tensor | None = None
    nodes0_oracle: Tensor | None = None
    fused_triplets: Tensor | None = None


def _triplet_features(nodes: Tensor, edges: Tensor, subj, obj) -> Tensor:
    return ad.concat([ad.gather_rows(nodes, subj), edges, ad.gather_rows(nodes, obj)], axis=1)


def forward_scene(model: ModelState, scene: PreparedScene, mode: str = "joint") -> ForwardResult:
    """Run the reasoning stack on one scene.

    mode "3d": 3D branch only. mode "joint": additionally runs the oracle
    branch and the cross-attention collaborations; 3D outputs are
    unaffected by construction.
    """
    cfg = model.cfg
    if mode not in ("3d", "joint"):
        raise ConfigError(f"unknown forward mode {mode!r}")
    joint = mode == "joint"
    if joint and not cfg.joint:
        raise ConfigError("model was built without the oracle branch")
    if joint and scene.visual is None:
        raise DataError(f"scene {scene.scene_id}: joint forward requires visual features")

    k = len(scene.point_sets)
    has_edges = k > 1

    nodes0_3d = encoders.encode_nodes_3d(scene.point_sets, model.subtree("enc3d", "point"))
    state_3d = GraphState(
        nodes=nodes0_3d,
        edges=encoders.encode_edges(scene.descriptors, model.subtree("enc3d", "edge")) if has_edges else None,
    )

    state_or = None
    nodes0_or = None
    mask = None
    if joint:
        nodes0_or = encoders.encode_nodes_oracle(scene.visual, model.subtree("enc_oracle", "proj"))
        # the oracle consumes the same geometric edge features; gradients from
        # its losses flow back into the shared edge encoder
        state_or = GraphState(nodes=nodes0_or, edges=state_3d.edges)
        mask = distance_mask(scene.attrs, model.subtree("mask_mlp"))

    for layer in range(cfg.layers):
        if joint:
            collab = model.subtree("collab", f"layer{layer}")
            state_or.nodes = mhca_node(state_or.nodes, state_3d.nodes, mask, collab["node"], cfg.heads)

        r3d = model.subtree("reason3d", f"layer{layer}")
        state_3d.nodes = mhsa(state_3d.nodes, r3d["mhsa"], cfg.heads)
        state_3d = fat_gnn_layer(state_3d, r3d["gnn"], scene.subj, scene.obj, scene.avg_matrix)

        if joint:
            ror = model.subtree("reason_oracle", f"layer{layer}")
            state_or.nodes = mhsa(state_or.nodes, ror["mhsa"], cfg.heads)
            state_or = fat_gnn_layer(state_or, ror["gnn"], scene.subj, scene.obj, scene.avg_matrix)
            if has_edges:
                collab = model.subtree("collab", f"layer{layer}")
                state_or.edges = mhca_edge(state_or.edges, state_3d.edges, collab["edge"], cfg.heads)

    head3d = model.subtree("head3d")
    obj_logits_3d = ad.linear(state_3d.nodes, head3d["obj_w"], head3d["obj_b"])
    pred_logits_3d = None
    if has_edges:
        tri_3d = _triplet_features(state_3d.nodes, state_3d.edges, scene.subj, scene.obj)
        pred_logits_3d = ad.linear(tri_3d, head3d["pred_w"], head3d["pred_b"])

    result = ForwardResult(obj_logits_3d=obj_logits_3d, pred_logits_3d=pred_logits_3d,
                           nodes0_3d=nodes0_3d)
    if joint:
        head_or = model.subtree("head_oracle")
        result.nodes0_oracle = nodes0_or
        result.obj_logits_oracle = ad.linear(state_or.nodes, head_or["obj_w"], head_or["obj_b"])
        if has_edges:
            tri_or = _triplet_features(state_or.nodes, state_or.edges, scene.subj, scene.obj)
            result.pred_logits_oracle = ad.linear(tri_or, head_or["pred_w"], head_or["pred_b"])
            fuse = model.subtree("fuse")
            result.fused_triplets = ad.linear(tri_or, fuse["w"], fuse["b"])
    return result
