"""The benchmark's workloads: the world each one generates and the probe it times.

A run trains, predicts and evaluates the whole world once, untimed, and
then times short units of work on a probe: a few scenes of that world,
picked by their instance count K so that every seed gives a probe of the
same size (see run.py).

Every world setting is written out, so a later change to the defaults of
`WorldConfig` or `TrainConfig` does not silently change a workload.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    vlsat: bool           # joint (oracle-assisted) training, else 3D-only
    world: dict           # WorldConfig fields; the world seed is the run's --seed
    epochs: int           # of the untimed whole-world training; it sets the cosine schedule
    probe_train_k: tuple  # K of each training scene of the probe
    probe_val_k: tuple    # K of each validation scene of the probe
    probe_epochs: int     # per probe training; every epoch after the first is timed


WORKLOADS = {w.name: w for w in (
    Workload(
        name="vlsat-train",
        why="joint training on the default world: forward and backward through every module, "
            "oracle branch included",
        vlsat=True,
        world={"n_train_scenes": 200, "n_val_scenes": 150, "k_min": 4, "k_max": 9},
        epochs=2,
        probe_train_k=(4, 6, 7, 9),
        probe_val_k=(4, 6, 7, 9),
        probe_epochs=8,
    ),
    Workload(
        name="baseline-small",
        why="3D-only training on many small scenes: per-scene and per-op Python overhead "
            "dominates and the oracle branch never runs",
        vlsat=False,
        world={"n_train_scenes": 600, "n_val_scenes": 100, "k_min": 2, "k_max": 4},
        epochs=2,
        probe_train_k=(2, 3, 4, 2, 3, 4, 3, 3),
        probe_val_k=(2, 3, 4) * 5 + (3,),
        probe_epochs=8,
    ),
)}
