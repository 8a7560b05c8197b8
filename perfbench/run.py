"""cetsim benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload grid-noisy-par2 --seed 1 --seconds 50 --trace 0

Run from the root of a checkout; cetsim is imported from its ``src``.
Each run

1. times ten fresh interpreters from start to ``import cetsim`` done
   and inputs generated, five before the workload process and five
   after it, so they meet different moments of a noisy machine
   (``setup_s`` is their median);
2. starts one workload process (``workloads.py``) that runs a warm-up
   pass over the seeded inputs, then repeats timed passes for
   ``--seconds``.  With ``--trace 1`` a traced pass precedes each timed
   one; it wraps the public functions of every cetsim module
   (``tracer.py``);
3. checks every output of the warm-up pass against the ``model`` oracle
   (``oracle.py``) and every later pass against the warm-up, outside the
   timed region;
4. prints a report, then as its last line one JSON object with
   ``correct``, ``attempted``, ``failed`` and ``metrics``.

An operation is a grid point or a ``run_point`` call.  It fails when it raises a ``CetsError`` (counted by type)
or its output disagrees with the oracle or with the first pass.  A
disagreement also makes ``correct`` false; a typed error does not,
because the errors the program raises today are recorded as the
baseline that later fixes must lower.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spec
from workloads import ROOT, SRC, make_inputs

SETUP_SAMPLES = 5  # before the workload process, and again after it
DEADLINE_S = 170.0
RESERVE_S = 45.0  # for the later setup samples and the oracle checks


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile, q in [0, 100]."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def machine_facts() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def worker_cmd(args, out: Path, *extra: str) -> list[str]:
    return [sys.executable, str(Path(__file__).with_name("workloads.py")),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--out", str(out), *extra]


def measure_setup(args, out: Path) -> list[float]:
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.monotonic()
        done = subprocess.run(worker_cmd(args, out, "--setup-only"), cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        samples.append(json.loads(done.stdout.splitlines()[-1])["ready"] - t0)
    return samples


def run_workload_process(cmd: list[str], timeout: float) -> None:
    """Run the workload process in its own session; on timeout kill it and its pool."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, start_new_session=True)
    try:
        code = proc.wait(timeout=timeout)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if code != 0:
        raise subprocess.CalledProcessError(code, cmd)


def check_outputs(cetsim, workload: str, inputs: dict, result: dict, out: Path):
    import oracle

    if workload.startswith("grid"):
        csv_path = out / "grid-0" / "sweep.csv"
        if not csv_path.is_file():  # every point fails
            return set(range(inputs["points_per_op"])), math.inf
        return oracle.check_grid(cetsim, csv_path)
    return oracle.check_point_mix(cetsim, inputs["points"], result["first_outputs"])


def count_failed(result: dict, bad: set[int], points_per_op: int) -> tuple[int, int, dict]:
    """(failed operations, mismatches, errors by type) of the checked first pass.

    An op fails when it raised, when its first output disagrees with the
    oracle, or when any later pass gave another output; each op counts
    once, so the counts depend on the seed and not on how many passes
    fit in the time.  A grid op is its points; ``bad`` then holds
    grid-point indices.
    """
    failed = mismatches = 0
    errors: dict[str, int] = {}
    first = result["fingerprints"][0]
    for i, fp in enumerate(first):
        if any(later[i] != fp for later in result["fingerprints"][1:]):
            failed += points_per_op
            mismatches += points_per_op
        elif fp.startswith("error:"):
            failed += points_per_op
            errors[fp[6:]] = errors.get(fp[6:], 0) + 1
        elif points_per_op > 1:
            failed += len(bad)
            mismatches += len(bad)
        elif i in bad:
            failed += 1
            mismatches += 1
    return failed, mismatches, errors


def end_to_end(result: dict, setup: list[float]) -> dict[str, float]:
    """Medians over the timed passes; p50 and p99 over every timed call.

    The latencies of all timed passes are pooled (about 20,000 calls on
    point-mix), so a stall that hits any one call counts.  On a grid one
    call is one CLI run over all its points.
    """
    wall = statistics.median(result["walls"])
    per_point_ms = [1e3 * dt / result["points_per_op"]
                    for latencies in result["latencies"] for dt in latencies]
    return {
        "setup_s": statistics.median(setup),
        "wall_s": wall,
        "points_per_s": result["points_per_pass"] / wall,
        "point_p50_ms": percentile(per_point_ms, 50.0),
        "point_p99_ms": percentile(per_point_ms, 99.0),
        "peak_rss_mb": max(result["rss_self_mb"], result["rss_children_mb"]),
    }


def run(args) -> int:
    started = time.monotonic()
    if not (SRC / "cetsim" / "__init__.py").is_file():
        print(f"perfbench: no cetsim sources under {SRC}", file=sys.stderr)
        return 2
    out = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    out.mkdir(parents=True)
    try:
        setup = measure_setup(args, out)
        budget = DEADLINE_S - RESERVE_S - (time.monotonic() - started)
        run_workload_process(worker_cmd(args, out), timeout=max(budget, 1.0))
        setup += measure_setup(args, out)
        with open(out / "result.json", encoding="utf-8") as fh:
            result = json.load(fh)

        from workloads import import_cetsim

        cetsim = import_cetsim()
        inputs = make_inputs(args.workload, args.seed)
        bad, worst = check_outputs(cetsim, args.workload, inputs, result, out)
        failed, mismatches, errors = count_failed(result, bad, inputs["points_per_op"])
        attempted = len(result["fingerprints"][0]) * inputs["points_per_op"]
        correct = mismatches == 0
        units = spec.units(bool(args.trace))
        if args.trace:
            metrics = result["trace"]
            self_sum = sum(v for k, v in metrics.items()
                           if k.endswith(".self_s") and k != "sweep.workers.self_s")
            correct = correct and self_sum <= metrics["trace.wall_s"]
        else:
            metrics = end_to_end(result, setup)
    finally:
        shutil.rmtree(out, ignore_errors=True)
        try:
            out.parent.rmdir()
        except OSError:
            pass

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(result['fingerprints'])}  operations {attempted}")
    print("machine " + json.dumps(machine_facts()))
    print(f"setup samples (s) {[round(s, 4) for s in setup]}")
    for name, value in metrics.items():
        print(f"  {name:40s} {value:>16.6f} {units[name]}")
    # zero on the grid, so it travels as attempted/failed, not as a metric
    print(f"  {'failed_frac':40s} {failed / attempted:>16.6f} ratio")
    print(f"  peak RSS (MiB): workload process {result['rss_self_mb']:.1f}, "
          f"largest child {result['rss_children_mb']:.1f}")
    if not args.trace:
        print(f"  latency samples {sum(map(len, result['latencies']))} over "
              f"{len(result['walls'])} timed passes")
    if args.trace:
        print(f"  layer self times sum to {self_sum:.4f} s of {metrics['trace.wall_s']:.4f} s "
              "traced wall per pass; self times are this process's, worker spans "
              "appear only in sweep.workers.self_s and the counts")
    print(f"failures {json.dumps(errors, sort_keys=True)}  failed {failed} of "
          f"{attempted}, oracle mismatches {mismatches}, "
          f"largest oracle deviation {worst:.3e}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="cetsim benchmark")
    parser.add_argument("--workload", required=True, choices=spec.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
