"""Feature encoders: point sets to node features, instance-attribute pairs
to edge features, and surrogate visual rows to oracle node features.

The raw edge descriptor concatenates attribute differences

    x_ij = cat(mu_i - mu_j, sigma_i - sigma_j, b_i - b_j,
               ln l_i - ln l_j, ln v_i - ln v_j)          # width 11

The log ratios are computed as differences of logs so that the exact
antisymmetry x_ij == -x_ji holds bitwise.

Descriptors and points are data constants; gradients flow only
through the MLP parameters.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Segments, Tensor
from .errors import DataError, DimensionError

EDGE_DESCRIPTOR_WIDTH = 11


def glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    """Uniform Glorot/Xavier init of a (fan_in, fan_out) weight matrix."""
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


def init_point_mlp(rng: np.random.Generator, hidden: int, d: int) -> dict[str, Tensor]:
    """Shared per-point MLP 3 -> h -> h, max-pool, then h -> D."""
    return {
        "w1": Tensor(glorot(rng, 3, hidden), requires_grad=True),
        "b1": Tensor(np.zeros(hidden), requires_grad=True),
        "w2": Tensor(glorot(rng, hidden, hidden), requires_grad=True),
        "b2": Tensor(np.zeros(hidden), requires_grad=True),
        "w3": Tensor(glorot(rng, hidden, d), requires_grad=True),
        "b3": Tensor(np.zeros(d), requires_grad=True),
    }


def init_edge_mlp(rng: np.random.Generator, hidden: int, d: int) -> dict[str, Tensor]:
    """Edge MLP: linear(11 -> h), ReLU, linear(h -> D)."""
    return {
        "w1": Tensor(glorot(rng, EDGE_DESCRIPTOR_WIDTH, hidden), requires_grad=True),
        "b1": Tensor(np.zeros(hidden), requires_grad=True),
        "w2": Tensor(glorot(rng, hidden, d), requires_grad=True),
        "b2": Tensor(np.zeros(d), requires_grad=True),
    }


def init_visual_proj(rng: np.random.Generator, d_vis: int, d: int) -> dict[str, Tensor]:
    return {
        "w": Tensor(glorot(rng, d_vis, d), requires_grad=True),
        "b": Tensor(np.zeros(d), requires_grad=True),
    }


def encode_nodes_3d(points: np.ndarray, instances: Segments, params: dict[str, Tensor]) -> Tensor:
    """Stacked (P, 3) points of K instances -> (K, D).

    The shared per-point MLP runs once over all the points; a segment max
    then pools each instance's rows of the `instances` layout.
    """
    h = ad.relu(ad.linear(Tensor(points), params["w1"], params["b1"]))
    h = ad.relu(ad.linear(h, params["w2"], params["b2"]))
    return ad.linear(ad.segment_max(h, instances), params["w3"], params["b3"])


def descriptor_matrix(attrs: np.ndarray, subj, obj) -> np.ndarray:
    """(E, 11) descriptors of the ordered pairs (subj[e], obj[e]), in their order.

    `attrs` is the (K, 11) `scene.instance_attributes` table (mean, std,
    extent, log max side, log volume); a descriptor is the difference of
    two of its rows, so swapping a pair negates it bitwise.
    """
    out = attrs[subj] - attrs[obj]
    if not np.all(np.isfinite(out)):
        raise DataError("non-finite edge descriptor (degenerate attributes?)")
    return out


def encode_edges(descriptors: np.ndarray, params: dict[str, Tensor]) -> Tensor:
    """(E, 11) descriptors -> (E, D) edge features."""
    if descriptors.shape[1] != EDGE_DESCRIPTOR_WIDTH:
        raise DimensionError(f"edge descriptors must have width {EDGE_DESCRIPTOR_WIDTH}")
    h = ad.relu(ad.linear(Tensor(descriptors), params["w1"], params["b1"]))
    return ad.linear(h, params["w2"], params["b2"])


def encode_nodes_oracle(visual: np.ndarray, params: dict[str, Tensor]) -> Tensor:
    """(K, D_vis) visual rows -> (K, D) via a single learnable projection."""
    if visual.shape[1] != params["w"].data.shape[0]:
        raise DimensionError(
            f"visual width {visual.shape[1]} does not match projection input {params['w'].data.shape[0]}")
    return ad.linear(Tensor(visual), params["w"], params["b"])
