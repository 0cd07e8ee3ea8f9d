"""Pipeline benchmark for sg3d: generate -> train -> predict -> eval.

Run from the root of a checkout:

    python3 perfbench/run.py --workload vlsat-train --seed 1 --seconds 45 --trace 0

A run generates the workload's world, then runs `sg3d train`, `predict`
and `eval` on the whole world through `sg3d.cli.main`, untimed: the checks
read their outputs. Then, for --seconds, it repeats the three stages on a
probe, a few scenes of the world, and times each short unit of work:

- train: one epoch of `training.train` over the probe's training scenes,
  timed between the epoch-log callbacks;
- predict: `cli.predict_dump` over the probe's validation scenes, then
  `cli.dump_to_jsonl` and the file write `sg3d predict` does;
- eval: one `sg3d eval` call through `sg3d.cli.main` on that dump.

Each throughput is the probe's scenes over the fastest unit of its stage.
The host's speed drifts by tens of percent over seconds to minutes, in
bursts of a few milliseconds; a unit of tens of milliseconds is often run
at full speed, so the fastest of many repeats holds steady where a
mean over seconds does not (see README.md).

Everything runs in this process on one thread. `--trace 0` prints the
end-to-end metrics; `--trace 1` wraps sg3d's public functions (see
tracer.py) and prints the per-layer metrics. Both check the outputs (see
checks.py). The last line of standard output is one JSON object:
correct, attempted, failed, metrics.
"""

from __future__ import annotations

import os
import time

_START = time.perf_counter()


def _process_age() -> float:
    """Seconds since this process started, read from /proc (0 where it is missing)."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
        with open("/proc/uptime", encoding="ascii") as fh:
            uptime = float(fh.read().split()[0])
        return max(0.0, uptime - start_ticks / os.sysconf("SC_CLK_TCK"))
    except (OSError, ValueError, IndexError):
        return 0.0


_AGE_AT_START = _process_age()

# one BLAS thread, set before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.setdefault("SGF_LOG_LEVEL", "warn")

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import WORKLOADS  # noqa: E402


class StageError(RuntimeError):
    pass


def _since_start() -> float:
    return _AGE_AT_START + time.perf_counter() - _START


def _sg3d(cli, *argv) -> None:
    rc = cli.main([str(a) for a in argv])
    if rc != 0:
        raise StageError(f"sg3d {' '.join(str(a) for a in argv)} exited with code {rc}")


def _probe(scenes, ks) -> list:
    """The first scene of each listed instance count K, in list order."""
    chosen, used = [], set()
    for k in ks:
        s = next((s for s in scenes if s.k == k and s.scene_id not in used), None)
        if s is None:
            raise StageError(f"the world holds no unused scene with K={k} for the probe")
        used.add(s.scene_id)
        chosen.append(s)
    return chosen


def _summary(stage: str, scenes: int, seconds: list[float]) -> str:
    return (f"{stage}: {len(seconds)} units of {scenes} scenes, fastest {min(seconds):.6f} s, "
            f"median {statistics.median(seconds):.6f} s")


def run(workload, seed: int, seconds: int, trace: bool, work: Path) -> dict:
    from sg3d import autodiff, cli, encoders, metrics, reasoning, training
    from sg3d.synthetic import provider_from_manifest

    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer({"autodiff": autodiff, "cli": cli, "encoders": encoders,
                         "metrics": metrics, "reasoning": reasoning, "training": training})
        tracer.install()
        tracer.enabled = True

    # set-up: generate the world, write it, read it back
    dataset = work / "dataset"
    config = work / "config.json"
    config.write_text(json.dumps({"world": workload.world, "train": {"epochs": workload.epochs}}),
                      encoding="utf-8")
    _sg3d(cli, "generate", "--config", config, "--seed", seed, "--out", dataset)
    samples, vocab, manifest = cli.read_dataset(dataset)
    setup_s = _since_start()

    from checks import Ledger, verify

    ledger = Ledger()
    ledger.stage()
    mode = "--vlsat" if workload.vlsat else "--no-vlsat"

    # the whole world once, untimed, through the CLI: the checks read its
    # outputs, and a traced run takes its per-layer metrics from it
    train_out, predict_out, eval_out = work / "train", work / "predict", work / "eval"
    _sg3d(cli, "train", "--config", config, "--dataset", dataset, "--out", train_out,
          "--seed", seed, mode)
    _sg3d(cli, "predict", "--dataset", dataset, "--checkpoint", train_out / "checkpoint.json",
          "--out", predict_out)
    _sg3d(cli, "eval", "--dump", predict_out / "predictions.jsonl",
          "--manifest", dataset / "manifest.json", "--out", eval_out)
    ledger.stage(3)
    with open(train_out / "train_log.jsonl", encoding="utf-8") as fh:
        world_log = [json.loads(line) for line in fh if line.strip()]
    if tracer:
        values = tracer.metrics()
        tracer.enabled = False

    # the probe: a few scenes of the world with a fixed mix of K, so that
    # every seed times the same amount of work
    probe_train = _probe([s for s in samples if s.split == "train"], workload.probe_train_k)
    probe_val = _probe([s for s in samples if s.split == "validation"], workload.probe_val_k)
    probe = work / "probe"
    cli.write_dataset(probe, probe_train + probe_val, vocab, manifest, {})
    provider = provider_from_manifest(manifest) if workload.vlsat else None
    model_cfg = cli.model_config({}, manifest)
    train_cfg = training.TrainConfig(epochs=workload.probe_epochs, seed=seed, vlsat=workload.vlsat)
    model, _, _ = training.Checkpoint.load(train_out / "checkpoint.json").restore()
    dump_path = work / "p_predict" / "predictions.jsonl"
    dump_path.parent.mkdir()
    eval_argv = ("eval", "--dump", dump_path, "--manifest", probe / "manifest.json",
                 "--out", work / "p_eval")

    def train_unit() -> tuple[list[float], list[dict]]:
        """Seconds of every epoch after the first, and the epoch log."""
        stamps = []
        _, _, log = training.train(probe_train, vocab, provider, model_cfg, train_cfg,
                                   log_hook=lambda record: stamps.append(time.perf_counter()))
        return [b - a for a, b in zip(stamps, stamps[1:])], log

    def predict_unit() -> float:
        t = time.perf_counter()
        dump = cli.predict_dump(model, probe_val, vocab.content_hash(), "")
        dump_path.write_text(cli.dump_to_jsonl(dump, tool_version=cli.__version__), encoding="utf-8")
        return time.perf_counter() - t

    def eval_unit() -> float:
        t = time.perf_counter()
        _sg3d(cli, *eval_argv)
        return time.perf_counter() - t

    train_unit(), predict_unit(), eval_unit()  # untimed: no timed unit is the first of its kind

    # timed: passes over the probe until --seconds are spent. A pass trains
    # once and runs predict and eval as many times as it timed epochs, so
    # every stage gets the same number of samples. A traced run alternates
    # untraced and traced passes and compares their epochs.
    timed = {"train": [], "predict": [], "eval": []}
    traced_epochs = []
    probe_logs = []
    began = time.perf_counter()
    n = 0
    while n < 2 or time.perf_counter() - began < seconds:
        if tracer:
            tracer.enabled = n % 2 == 1
        epochs, log = train_unit()
        probe_logs.append(log)
        ledger.stage()
        if tracer and tracer.enabled:
            traced_epochs += epochs
        else:
            timed["train"] += epochs
            for _ in epochs:
                timed["predict"].append(predict_unit())
                timed["eval"].append(eval_unit())
            ledger.stage(2 * len(epochs))
        n += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    print(_summary("train epoch", len(probe_train), timed["train"]))
    print(_summary("predict", len(probe_val), timed["predict"]))
    print(_summary("eval", len(probe_val), timed["eval"]))
    if tracer:
        tracer.uninstall()
        values["trace.overhead_s"] = (min(traced_epochs) - min(timed["train"]), "s")
    else:
        values = {
            "setup_s": (setup_s, "s"),
            "train_scenes_per_s": (len(probe_train) / min(timed["train"]), "scenes/s"),
            "predict_scenes_per_s": (len(probe_val) / min(timed["predict"]), "scenes/s"),
            "eval_scenes_per_s": (len(probe_val) / min(timed["eval"]), "scenes/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }

    verify(ledger, seed, workload.vlsat, samples, manifest, world_log, probe_logs,
           dataset, train_out, predict_out, eval_out)
    for failure in ledger.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    return {
        "correct": not ledger.failures,
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    root = Path.cwd()
    if not (root / "src" / "sg3d" / "__init__.py").is_file():
        print("perfbench: run from the root of an sg3d checkout (src/sg3d not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))

    work = root / ".perfbench_out" / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), work)
    except StageError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for name, m in result["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"operations: {result['attempted']} attempted, {result['failed']} failed")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
