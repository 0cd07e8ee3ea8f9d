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

The forward runs on a packed batch of scenes (`PreparedScene`): the
scenes' node rows and edge rows are concatenated, linear layers and the
gated GNN work on the packed rows, and attention stays inside each scene
through the `Segments` layouts. A one-scene batch runs the same code, and
a one-instance scene runs the edge path on zero edge rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import encoders
from .autodiff import Segments, Tensor
from .encoders import glorot
from .errors import ConfigError, DataError
from .scene import SceneGraphSample, instance_attributes, pair_index_arrays


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
        small = [name for name in ("d", "hidden", "heads", "d_vis", "d_emb")
                 if getattr(self, name) < 1]
        if small:
            raise ConfigError(f"{', '.join(small)} must be >= 1")
        if self.d % self.heads != 0:
            raise ConfigError(f"heads ({self.heads}) must divide feature width ({self.d})")
        if self.layers < 0:
            raise ConfigError("layers must be >= 0")


@dataclass
class GraphState:
    nodes: Tensor          # (K, D)
    edges: Tensor          # (E, D); E = 0 when K = 1


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


def _reasoning_params(rng, d, layers) -> dict:
    return {f"layer{i}": {"mhsa": _attention_params(rng, d), "gnn": _gnn_params(rng, d)}
            for i in range(layers)}


def _head_params(rng, d, n_obj, n_rel) -> dict[str, Tensor]:
    return {
        "obj_w": Tensor(glorot(rng, d, n_obj), requires_grad=True),
        "obj_b": Tensor(np.zeros(n_obj), requires_grad=True),
        "pred_w": Tensor(glorot(rng, 3 * d, n_rel), requires_grad=True),
        "pred_b": Tensor(np.zeros(n_rel), requires_grad=True),
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
            "reason3d": _reasoning_params(rng, d, cfg.layers),
            "head3d": _head_params(rng, d, cfg.n_obj, cfg.n_rel),
        }
        if cfg.joint:
            tree["enc_oracle"] = {"proj": encoders.init_visual_proj(rng, cfg.d_vis, d)}
            tree["reason_oracle"] = _reasoning_params(rng, d, cfg.layers)
            tree["head_oracle"] = _head_params(rng, d, cfg.n_obj, cfg.n_rel)
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
                         n_heads: int, layout: Segments, mask: Tensor | None = None) -> Tensor:
    """Scaled dot-product attention with residual add into the query stream.

    Both streams are packed rows of `layout`, and each row attends within
    its own scene (see `autodiff.attention`). The mask, when given, is
    added to the pre-softmax logits of every head.
    """
    q = ad.linear(query_stream, params["wq"], params["bq"])
    k = ad.linear(kv_stream, params["wk"], params["bk"])
    v = ad.linear(kv_stream, params["wv"], params["bv"])
    merged = ad.attention(q, k, v, n_heads, layout, mask)
    return ad.add(query_stream, ad.linear(merged, params["wo"], params["bo"]))


def mhsa(nodes: Tensor, params: dict[str, Tensor], n_heads: int, layout: Segments) -> Tensor:
    return multi_head_attention(nodes, nodes, params, n_heads, layout)


def mhca_node(oracle_nodes: Tensor, threed_nodes: Tensor, mask: Tensor,
              params: dict[str, Tensor], n_heads: int, layout: Segments) -> Tensor:
    """Oracle nodes query the 3D nodes; additive distance mask on the logits."""
    return multi_head_attention(oracle_nodes, threed_nodes, params, n_heads, layout, mask)


def mhca_edge(oracle_edges: Tensor, threed_edges: Tensor, params: dict[str, Tensor],
              n_heads: int, layout: Segments) -> Tensor:
    """Oracle edges query the 3D edges over all ordered pairs, no mask."""
    return multi_head_attention(oracle_edges, threed_edges, params, n_heads, layout)


def mask_input_matrix(means: np.ndarray, layout: Segments) -> np.ndarray:
    """Rows cat(mu_i - mu_j, ||mu_i - mu_j||), 4 wide, for every ordered pair
    (i, j) of instances in the same scene, diagonal included, in
    `layout.pairs` order: scene by scene, row-major in (i, j). `means` holds
    the (K, 3) instance centroids mu."""
    seg, i, j = layout.pairs
    diff = means[layout.starts[seg] + i] - means[layout.starts[seg] + j]
    norm = np.sqrt((diff ** 2).sum(-1, keepdims=True))
    return np.concatenate([diff, norm], axis=-1)


def distance_mask(means: np.ndarray, params: dict[str, Tensor], layout: Segments) -> Tensor:
    """Learned scalar mask per ordered pair of instances in the same scene:
    a (P, 1) column, one value per pair in `layout.pairs` order, as
    `attention` reads it.
    """
    x = Tensor(mask_input_matrix(means, layout))
    h = ad.relu(ad.linear(x, params["w1"], params["b1"]))
    return ad.linear(h, params["w2"], params["b2"])


def _triplet_features(nodes: Tensor, edges: Tensor, subj, obj) -> Tensor:
    """cat(n_i, e_ij, n_j) for every edge row."""
    return ad.concat([ad.gather_rows(nodes, subj), edges, ad.gather_rows(nodes, obj)], axis=1)


def fat_gnn_layer(state: GraphState, params: dict[str, Tensor],
                  subj: np.ndarray, obj: np.ndarray, out_edges: Segments) -> GraphState:
    """Gated node/edge message passing in residual form.

    For each directed edge: m = W_m cat(n_i, e_ij, n_j), gate g = sigmoid(W_g m),
    e' = e + W_e (g*m); nodes average g*m over their outgoing edges:
    n' = n + W_n mean_j(g*m). `out_edges` gives each node's outgoing edge
    rows, contiguous in the canonical pair order; a node without edges
    (a one-instance scene) pools 0.
    """
    m = ad.matmul(_triplet_features(state.nodes, state.edges, subj, obj), params["w_m"])
    gate = ad.sigmoid(ad.matmul(m, params["w_g"]))
    gm = ad.mul(gate, m)
    edges = ad.add(state.edges, ad.matmul(gm, params["w_e"]))
    pooled = ad.segment_mean(gm, out_edges)
    nodes = ad.add(state.nodes, ad.matmul(pooled, params["w_n"]))
    return GraphState(nodes=nodes, edges=edges)


# ---------------------------------------------------------------------------
# full forward


@dataclass
class PreparedScene:
    """Constant arrays of a packed batch of scenes: the one batch type of
    training and prediction, shared by every forward pass.

    K, E and P count the node, edge and point rows of all the batch's
    scenes, scene by scene; `subj` and `obj` index the packed node rows, and
    every run of rows is a `Segments` layout. One scene is a batch of one.
    `gt_predicate_rows` are the scenes' stored uint8 ground-truth rows. A
    batch of one shares its sample's points, classes and rows; its `means`
    are columns of `instance_attributes`. `text` holds the text embedding
    of each ground-truth term, in `relation_terms` order scene by scene, for
    the joint loss; prediction leaves it None.
    """

    points: np.ndarray            # (P, 3) the instances' points, stacked
    means: np.ndarray             # (K, 3) the instances' centroids
    subj: np.ndarray
    obj: np.ndarray
    descriptors: np.ndarray       # (E, 11)
    visual: np.ndarray | None     # None unless every scene has visual features
    text: np.ndarray | None       # (M, d_emb) None unless every scene has them
    gt_objects: np.ndarray        # (K,)
    gt_predicate_rows: np.ndarray  # (E, N_rel) uint8, the scenes' ground truth
    nodes: Segments               # node rows per scene
    edges: Segments               # edge rows per scene
    instances: Segments           # point rows per node
    out_edges: Segments           # outgoing edge rows per node
    scene_ids: list[str]


def prepare_scene(sample: SceneGraphSample) -> PreparedScene:
    """One scene as a batch of one."""
    k = sample.k
    attrs = instance_attributes(sample.points, sample.point_counts)
    subj, obj = pair_index_arrays(k)
    return PreparedScene(
        points=sample.points,
        means=attrs[:, :3],
        subj=subj,
        obj=obj,
        descriptors=encoders.descriptor_matrix(attrs, subj, obj),
        visual=sample.visual_features,
        text=None,
        gt_objects=sample.classes,
        gt_predicate_rows=sample.gt_predicate_rows,
        nodes=Segments([k]),
        edges=Segments([len(subj)]),
        instances=Segments(sample.point_counts),
        out_edges=Segments([k - 1] * k),
        scene_ids=[sample.scene_id],
    )


def pack_scenes(scenes: list[PreparedScene]) -> PreparedScene:
    """Concatenate batches into one: every row array and layout in list order,
    with `subj` and `obj` shifted to the packed node rows."""
    if len(scenes) == 1:
        return scenes[0]
    nodes = Segments(np.concatenate([s.nodes.lengths for s in scenes]))

    def rows_of_all(field: str) -> np.ndarray | None:
        arrays = [getattr(s, field) for s in scenes]
        return None if any(a is None for a in arrays) else np.concatenate(arrays)

    return PreparedScene(
        points=np.concatenate([s.points for s in scenes]),
        means=np.concatenate([s.means for s in scenes]),
        subj=np.concatenate([s.subj + off for s, off in zip(scenes, nodes.starts)]),
        obj=np.concatenate([s.obj + off for s, off in zip(scenes, nodes.starts)]),
        descriptors=np.concatenate([s.descriptors for s in scenes]),
        visual=rows_of_all("visual"),
        text=rows_of_all("text"),
        gt_objects=np.concatenate([s.gt_objects for s in scenes]),
        gt_predicate_rows=np.concatenate([s.gt_predicate_rows for s in scenes]),
        nodes=nodes,
        edges=Segments(np.concatenate([s.edges.lengths for s in scenes])),
        instances=Segments(np.concatenate([s.instances.lengths for s in scenes])),
        out_edges=Segments(np.concatenate([s.out_edges.lengths for s in scenes])),
        scene_ids=[i for s in scenes for i in s.scene_ids],
    )


@dataclass
class ForwardResult:
    obj_logits_3d: Tensor
    pred_logits_3d: Tensor
    nodes0_3d: Tensor
    obj_logits_oracle: Tensor | None = None
    pred_logits_oracle: Tensor | None = None
    nodes0_oracle: Tensor | None = None
    fused_triplets: Tensor | None = None


def forward_scene(model: ModelState, scene: PreparedScene, mode: str = "joint") -> ForwardResult:
    """Run the reasoning stack on a packed batch (one scene or many).

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
        raise DataError(f"scenes {', '.join(scene.scene_ids)}: joint forward requires "
                        f"visual features")

    nodes0_3d = encoders.encode_nodes_3d(scene.points, scene.instances,
                                         model.subtree("enc3d", "point"))
    state_3d = GraphState(
        nodes=nodes0_3d,
        edges=encoders.encode_edges(scene.descriptors, model.subtree("enc3d", "edge")),
    )

    state_or = None
    nodes0_or = None
    mask = None
    if joint:
        nodes0_or = encoders.encode_nodes_oracle(scene.visual, model.subtree("enc_oracle", "proj"))
        # the oracle consumes the same geometric edge features; gradients from
        # its losses flow back into the shared edge encoder
        state_or = GraphState(nodes=nodes0_or, edges=state_3d.edges)
        mask = distance_mask(scene.means, model.subtree("mask_mlp"), scene.nodes)

    for layer in range(cfg.layers):
        if joint:
            collab = model.subtree("collab", f"layer{layer}")
            state_or.nodes = mhca_node(state_or.nodes, state_3d.nodes, mask, collab["node"],
                                       cfg.heads, scene.nodes)

        r3d = model.subtree("reason3d", f"layer{layer}")
        state_3d.nodes = mhsa(state_3d.nodes, r3d["mhsa"], cfg.heads, scene.nodes)
        state_3d = fat_gnn_layer(state_3d, r3d["gnn"], scene.subj, scene.obj, scene.out_edges)

        if joint:
            ror = model.subtree("reason_oracle", f"layer{layer}")
            state_or.nodes = mhsa(state_or.nodes, ror["mhsa"], cfg.heads, scene.nodes)
            state_or = fat_gnn_layer(state_or, ror["gnn"], scene.subj, scene.obj, scene.out_edges)
            state_or.edges = mhca_edge(state_or.edges, state_3d.edges, collab["edge"],
                                       cfg.heads, scene.edges)

    head3d = model.subtree("head3d")
    obj_logits_3d = ad.linear(state_3d.nodes, head3d["obj_w"], head3d["obj_b"])
    tri_3d = _triplet_features(state_3d.nodes, state_3d.edges, scene.subj, scene.obj)
    pred_logits_3d = ad.linear(tri_3d, head3d["pred_w"], head3d["pred_b"])
    result = ForwardResult(obj_logits_3d=obj_logits_3d, pred_logits_3d=pred_logits_3d,
                           nodes0_3d=nodes0_3d)
    if joint:
        head_or = model.subtree("head_oracle")
        result.nodes0_oracle = nodes0_or
        result.obj_logits_oracle = ad.linear(state_or.nodes, head_or["obj_w"], head_or["obj_b"])
        tri_or = _triplet_features(state_or.nodes, state_or.edges, scene.subj, scene.obj)
        result.pred_logits_oracle = ad.linear(tri_or, head_or["pred_w"], head_or["pred_b"])
        fuse = model.subtree("fuse")
        result.fused_triplets = ad.linear(tri_or, fuse["w"], fuse["b"])
    return result
