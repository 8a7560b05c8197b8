"""Workload inputs and the workload process.

`make_inputs` turns (workload, seed) into plain JSON-able inputs; the
same seed always gives the same inputs.  Run as a script, this module is
the workload process: a fresh interpreter that imports cetsim from the
checkout's ``src``, builds the inputs, then repeats passes over them
until the time budget is spent and writes what it measured and produced
to ``<out>/result.json``.  It never checks outputs; ``run.py`` does,
after this process has exited, so the oracle's memory and time stay out
of the measurement.

    python3 perfbench/workloads.py --workload point-mix --seed 1 \\
        --seconds 50 --trace 0 --out <dir> [--setup-only]
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from spec import PER_LAYER

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

GRID_ARGV = ["sweep", "--beta", "0.5:11:23", "--h", "-5:5:101", "--format", "csv,json,svg",
             "--eta", "0.7", "--recover", "auto"]
PAR2_ARGV = GRID_ARGV + ["--parallel", "2"]


def grid_axis(flag: str) -> list[float]:
    """The values of GRID_ARGV's ``lo:hi:steps`` flag, spaced as cetsim spaces them."""
    lo, hi, steps = GRID_ARGV[GRID_ARGV.index(flag) + 1].split(":")
    return [float(x) for x in np.linspace(float(lo), float(hi), int(steps))]


GRID_POINTS = len(grid_axis("--beta")) * len(grid_axis("--h"))

POINT_MIX_CALLS = 2000
POINT_KINDS = ("ideal", "eta-auto", "decay-0.8", "shots")
SHOTS = 4096
ETA = 0.7
DECAY_RECOVER = 0.8

def make_inputs(workload: str, seed: int) -> dict:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "grid-noisy-par2":
        return {"argv": PAR2_ARGV, "points_per_op": GRID_POINTS}
    if workload == "point-mix":
        points = []
        for i in range(POINT_MIX_CALLS):
            points.append({
                "kind": POINT_KINDS[i % len(POINT_KINDS)],
                "beta": 10.0 ** rng.uniform(-3.0, 4.0),
                "h": rng.uniform(-6.0, 6.0),
                "J": rng.choice((-1.0, 1.0)) * rng.uniform(0.2, 3.0),
                "seed": rng.randrange(2**31),
            })
        return {"points": points, "points_per_op": 1}
    raise KeyError(workload)


def import_cetsim():
    """Import cetsim and its CLI from this checkout's src, never from an installed copy."""
    sys.path.insert(0, str(SRC))
    import cetsim
    import cetsim.cli  # noqa: F401  (also imports cetsim.outputs)

    if Path(cetsim.__file__).resolve().parent != SRC / "cetsim":
        raise ImportError(f"cetsim imported from {cetsim.__file__}, not {SRC}")
    return cetsim


def _digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.hexdigest()


class GridRunner:
    """One op is one `cetsim sweep` CLI call on the whole grid."""

    def __init__(self, cetsim, inputs, out: Path) -> None:
        self.cli = cetsim.cli
        self.argv = inputs["argv"]
        self.out = out

    def ops(self) -> int:
        return 1

    def run_op(self, pass_index: int, i: int):
        out_dir = self.out / f"grid-{pass_index}"
        argv = self.argv + ["--out-dir", str(out_dir)]
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            code = self.cli.main(argv)
            dt = time.perf_counter() - t0
        return dt, out_dir, (None if code == 0 else f"exit-{code}")

    def record(self, pass_index: int, i: int, out_dir: Path) -> str:
        names = sorted(os.listdir(out_dir))
        parts = []
        for name in names:
            parts += [name.encode(), (out_dir / name).read_bytes()]
        if pass_index > 0:
            shutil.rmtree(out_dir)
        return _digest(*parts)


class PointRunner:
    """One op is one `run_point` call; the client waits for each reply."""

    def __init__(self, cetsim, inputs, out: Path) -> None:
        self.cetsim = cetsim
        options = {
            "ideal": None,
            "eta-auto": cetsim.NoiseOptions(eta=ETA, recover="auto"),
            "decay-0.8": cetsim.NoiseOptions(
                decay=cetsim.default_decay_table(), recover=DECAY_RECOVER
            ),
            "shots": None,
        }
        self.calls = [
            (
                cetsim.ModelParams(J=p["J"], h=p["h"], beta=p["beta"]),
                options[p["kind"]],
                SHOTS if p["kind"] == "shots" else None,
                p["seed"] if p["kind"] == "shots" else None,
            )
            for p in inputs["points"]
        ]
        self.first: list = []

    def ops(self) -> int:
        return len(self.calls)

    def run_op(self, pass_index: int, i: int):
        params, noise, shots, seed = self.calls[i]
        t0 = time.perf_counter()
        try:
            row = self.cetsim.sweep.run_point(params, noise=noise, shots=shots, seed=seed)
        except self.cetsim.CetsError as exc:
            return time.perf_counter() - t0, None, type(exc).__name__
        return time.perf_counter() - t0, row, None

    def record(self, pass_index: int, i: int, row) -> str:
        labels = self.cetsim.LABELS
        stages = [
            {
                "provenance": res.provenance,
                "values": [[res.measurements.value(l).real, res.measurements.value(l).imag]
                           for l in labels],
                "entropy": res.entropy,
            }
            for res in row.results
        ]
        if pass_index == 0:
            self.first.append((i, stages))
        return _digest(json.dumps(stages).encode())

    def first_outputs(self) -> dict:
        return {str(i): stages for i, stages in self.first}


RUNNERS = {
    "grid-noisy-par2": GridRunner,
    "point-mix": PointRunner,
}


def run_pass(runner, pass_index: int, result: dict) -> tuple[float, list[float]]:
    """Run every op once; the pass wall time is the sum of the timed ops."""
    latencies = []
    fingerprints = []
    for i in range(runner.ops()):
        dt, output, error = runner.run_op(pass_index, i)
        latencies.append(dt)
        if error is None:
            fingerprints.append(runner.record(pass_index, i, output))
        else:
            fingerprints.append("error:" + error)
    result["fingerprints"].append(fingerprints)
    return sum(latencies), latencies


def trace_metrics(tracer, traced_passes: int, points: int, walls, untraced) -> dict:
    """Per-layer metrics as means per traced pass; counts repeat exactly."""
    metrics = {}
    for name, unit in PER_LAYER.items():
        layer, _, kind = name.rpartition(".")
        if kind == "self_s":
            metrics[name] = tracer.self_s(layer) / traced_passes
        elif kind == "calls":
            metrics[name] = tracer.calls[layer] / traced_passes
        elif unit in ("count", "B"):
            metrics[name] = tracer.counts[name] / traced_passes
    metrics["sweep.workers.self_s"] = tracer.worker_self_s / traced_passes
    metrics["synth.preps_per_point"] = tracer.calls["synth.build_circuit"] / (
        traced_passes * points
    )
    metrics["trace.wall_s"] = statistics.fmean(walls)
    metrics["trace.overhead_s"] = statistics.fmean(walls) - statistics.fmean(untraced)
    return metrics


def run_workload(cetsim, workload: str, inputs: dict, seconds: float, trace: bool,
                 out: Path) -> dict:
    """A warm-up pass, then timed passes while another one fits in `seconds`.

    The warm-up pays first-call costs (allocator growth, lazy imports)
    before timing starts; its outputs are the ones checked against the
    oracle.  With `trace`, each timed pass is preceded by a traced one.
    """
    runner = RUNNERS[workload](cetsim, inputs, out)
    points = inputs["points_per_op"] * runner.ops()
    result = {"fingerprints": [], "latencies": [],
              "walls": [], "trace": None}
    tracer = None
    if trace:
        from tracer import Tracer

        spool = out / "spool"
        spool.mkdir()
        tracer = Tracer(cetsim, spool_dir=str(spool))
    traced = []
    run_pass(runner, 0, result)
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        if tracer is not None:
            with tracer.installed():
                wall, _ = run_pass(runner, len(result["fingerprints"]), result)
            tracer.merge_workers()
            traced.append(wall)
        wall, latencies = run_pass(runner, len(result["fingerprints"]), result)
        result["walls"].append(wall)
        result["latencies"].append(latencies)
        now = time.perf_counter()
        if now - start + (now - began) > seconds:
            break
    # peak RSS of this process and of its largest waited-for child (a pool
    # worker of grid-noisy-par2, which runs every point there); the metric
    # is the larger of the two
    result["rss_self_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["rss_children_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    if tracer is not None:
        result["trace"] = trace_metrics(tracer, len(traced), points, traced, result["walls"])
    result["points_per_pass"] = points
    result["points_per_op"] = inputs["points_per_op"]
    if hasattr(runner, "first_outputs"):
        result["first_outputs"] = runner.first_outputs()
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(RUNNERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    cetsim = import_cetsim()
    inputs = make_inputs(args.workload, args.seed)
    ready = time.monotonic()
    out = Path(args.out)
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0
    result = run_workload(cetsim, args.workload, inputs, args.seconds,
                          bool(args.trace), out)
    result["ready"] = ready
    with open(out / "result.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
