"""Per-layer timings of sg3d, taken from outside the package.

A traced run replaces public functions of sg3d's modules with timing
wrappers and puts the originals back afterwards; nothing inside the
package changes. A function is wrapped where its callers look it up:
`training.py` imports `forward_scene` by name, so the training forward is
wrapped there, and the CLI's own imports are wrapped in `sg3d.cli`.

When a function no longer exists, the metrics that need it are reported
as absent, never as zero. A layer that exists but is never called on a
workload (the oracle branch on a 3D-only run) reads zero.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict

# (timer key, module or class path inside sg3d, attribute)
TARGETS = [
    ("synthetic.generate", "cli", "generate_dataset"),
    ("scene.save", "cli", "save_scene_file"),
    ("scene.load", "cli", "load_scene_file"),
    ("training.prepare", "training", "build_train_scene"),
    ("encoders.nodes3d", "encoders", "encode_nodes_3d"),
    ("encoders.edges", "encoders", "encode_edges"),
    ("reasoning.forward", "training", "forward_scene"),
    ("reasoning.mhsa", "reasoning", "mhsa"),
    ("reasoning.mhca_node", "reasoning", "mhca_node"),
    ("reasoning.mhca_edge", "reasoning", "mhca_edge"),
    ("reasoning.distance_mask", "reasoning", "distance_mask"),
    ("reasoning.gnn", "reasoning", "fat_gnn_layer"),
    ("autodiff.backward", "autodiff.Tape", "backward"),
    ("training.scene_loss", "training", "scene_loss"),
    ("training.step", "training.AdamW", "step"),
    ("training.checkpoint_save", "training.Checkpoint", "save"),
    ("training.checkpoint_load", "training.Checkpoint", "load"),
    ("cli.predict", "cli", "predict_dump"),
    ("metrics.dump_write", "cli", "dump_to_jsonl"),
    ("metrics.dump_read", "cli", "dump_from_jsonl"),
    ("metrics.recall", "metrics", "recall_at_k"),
    ("metrics.triplet", "metrics", "triplet_records"),
    ("metrics.accuracy", "metrics", "topk_accuracy"),
    ("metrics.accuracy", "metrics", "accuracy_events"),
    ("metrics.accuracy", "metrics", "mean_topk_accuracy"),
    ("metrics.evaluate", "cli", "evaluate"),
]

# (metric, unit, timer key, scale, divisor): divisor "call" is the key's own
# call count, "evaluate" the number of `evaluate` calls, "scene" the number
# of scenes handed to `predict_dump`.
PER_CALL = [
    ("synthetic.generate_s", "s", "synthetic.generate", 1.0, "call"),
    ("scene.save_s", "s", "scene.save", 1.0, "call"),
    ("scene.load_s", "s", "scene.load", 1.0, "call"),
    ("training.prepare_ms", "ms", "training.prepare", 1e3, "call"),
    ("encoders.nodes3d_ms", "ms", "encoders.nodes3d", 1e3, "call"),
    ("encoders.edges_ms", "ms", "encoders.edges", 1e3, "call"),
    ("reasoning.forward_ms", "ms", "reasoning.forward", 1e3, "call"),
    ("reasoning.mhsa_ms", "ms", "reasoning.mhsa", 1e3, "call"),
    ("reasoning.mhca_node_ms", "ms", "reasoning.mhca_node", 1e3, "call"),
    ("reasoning.mhca_edge_ms", "ms", "reasoning.mhca_edge", 1e3, "call"),
    ("reasoning.distance_mask_ms", "ms", "reasoning.distance_mask", 1e3, "call"),
    ("reasoning.gnn_ms", "ms", "reasoning.gnn", 1e3, "call"),
    ("autodiff.backward_ms", "ms", "autodiff.backward", 1e3, "call"),
    ("training.step_ms", "ms", "training.step", 1e3, "call"),
    ("training.checkpoint_save_ms", "ms", "training.checkpoint_save", 1e3, "call"),
    ("training.checkpoint_load_ms", "ms", "training.checkpoint_load", 1e3, "call"),
    ("cli.predict_ms", "ms", "cli.predict", 1e3, "scene"),
    ("metrics.dump_write_s", "s", "metrics.dump_write", 1.0, "call"),
    ("metrics.dump_read_s", "s", "metrics.dump_read", 1.0, "call"),
    ("metrics.recall_s", "s", "metrics.recall", 1.0, "evaluate"),
    ("metrics.triplet_s", "s", "metrics.triplet", 1.0, "evaluate"),
    ("metrics.accuracy_s", "s", "metrics.accuracy", 1.0, "evaluate"),
    ("metrics.evaluate_s", "s", "metrics.evaluate", 1.0, "call"),
]


def _resolve(sg3d_modules: dict, path: str):
    module, _, cls = path.partition(".")
    owner = sg3d_modules[module]
    return getattr(owner, cls) if cls else owner


class Tracer:
    """Wraps the TARGETS while installed; counts only while `enabled`."""

    def __init__(self, sg3d_modules: dict):
        self.modules = sg3d_modules
        self.enabled = False
        self.calls: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)
        self.tape_records = 0       # tape length seen at each Tape.backward
        self.scenes_predicted = 0   # scenes handed to predict_dump
        self.missing: set[str] = set()
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for key, path, attr in TARGETS:
            owner = _resolve(self.modules, path)
            try:
                original = inspect.getattr_static(owner, attr)
            except AttributeError:
                self.missing.add(key)
                continue
            kind = type(original) if isinstance(original, (classmethod, staticmethod)) else None
            func = original.__func__ if kind else original
            timed = self._timed(key, func)
            setattr(owner, attr, kind(timed) if kind else timed)
            self._saved.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _timed(self, key: str, func):
        tracer = self

        @functools.wraps(func)
        def timed(*args, **kwargs):
            if not tracer.enabled:
                return func(*args, **kwargs)
            if key == "autodiff.backward":
                tracer.tape_records += len(args[0].records)
            elif key == "cli.predict":
                tracer.scenes_predicted += len(args[1])
            start = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                tracer.seconds[key] += time.perf_counter() - start
                tracer.calls[key] += 1

        return timed

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as {name: (value, unit)}; absent layers are left out."""
        divisors = {"evaluate": self.calls["metrics.evaluate"], "scene": self.scenes_predicted}
        out = {}
        for name, unit, key, scale, per in PER_CALL:
            if key in self.missing or (per == "evaluate" and "metrics.evaluate" in self.missing):
                continue
            n = self.calls[key] if per == "call" else divisors[per]
            out[name] = (scale * self.seconds[key] / n if n else 0.0, unit)
        if not self.missing & {"training.scene_loss", "reasoning.forward"}:
            n = self.calls["training.scene_loss"]
            own = self.seconds["training.scene_loss"] - self.seconds["reasoning.forward"]
            out["training.loss_ms"] = (1e3 * own / n if n else 0.0, "ms")
        if "autodiff.backward" not in self.missing:
            n = self.calls["autodiff.backward"]
            out["autodiff.ops_per_scene"] = (self.tape_records / n if n else 0.0, "count")
        return out
