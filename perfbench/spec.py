"""Workloads and metrics of the cetsim benchmark, read from BENCHMARK.json.

BENCHMARK.json, at the root of the checkout, is the single source of the
workload names, metric names, units, directions and bounds; this module
only loads it and names the per-layer counts that must repeat exactly.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

SPEC_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
SPEC = json.loads(SPEC_PATH.read_text(encoding="utf-8"))

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

RUN_SECONDS: int = SPEC["run_seconds"]
WORKLOADS: list[str] = [w["name"] for w in SPEC["workloads"]]
#: metric name -> unit, measured with tracing off
END_TO_END: dict[str, str] = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
#: metric name -> unit, from the traced run, per pass over the workload's inputs
PER_LAYER: dict[str, str] = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

#: per-layer counts that repeat exactly from run to run for a given seed
EXACT_COUNTS = (
    "synth.preps_per_point",
    "engine.gates",
    "engine.bytes_moved_computed",
    "outputs.bytes_written",
    "reconstruct.nonphysical_stages",
)


def units(trace: bool) -> dict[str, str]:
    """Metric name -> unit of the metrics one run prints."""
    return PER_LAYER if trace else END_TO_END
