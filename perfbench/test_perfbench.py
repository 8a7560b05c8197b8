"""Tests of the benchmark's own code: inputs, tracer, counts and metric names.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
from types import ModuleType

import pytest

import run
import spec
import tracer
from workloads import import_cetsim, make_inputs, run_workload

cetsim = import_cetsim()

TINY_GRID = ["sweep", "--beta", "0.5:11:3", "--h", "-5:5:4", "--format", "csv,json,svg",
             "--eta", "0.7", "--recover", "auto"]


def tiny_inputs(workload: str, seed: int = 3) -> dict:
    """The workload's own inputs, cut down so a pass takes well under a second."""
    inputs = make_inputs(workload, seed)
    if workload == "grid-noisy-par2":
        return {"argv": TINY_GRID + ["--parallel", "2"], "points_per_op": 12}
    if workload == "point-mix":
        inputs["points"] = inputs["points"][:40]
    return inputs


def traced(workload: str, inputs: dict, tmp_path) -> dict:
    out = tmp_path / f"{workload}-{len(list(tmp_path.iterdir()))}"
    out.mkdir()
    return run_workload(cetsim, workload, inputs, seconds=0.0, trace=True, out=out)


def bindings() -> dict:
    """Every module-level and traced-class attribute of cetsim, by identity."""
    found = {}
    for mod in tracer.package_modules():
        for key, value in vars(mod).items():
            found[(mod.__name__, key)] = value
    for _, owner, attr, _ in tracer.targets(cetsim):
        if not isinstance(owner, ModuleType):
            found[(owner.__qualname__, attr)] = owner.__dict__[attr]
    return found


@pytest.mark.parametrize("workload", spec.WORKLOADS)
def test_same_seed_same_inputs(workload):
    assert json.dumps(make_inputs(workload, 7)) == json.dumps(make_inputs(workload, 7))
    if "points" in make_inputs(workload, 7):
        assert make_inputs(workload, 7) != make_inputs(workload, 8)


def test_tracer_wraps_every_binding_and_restores_it(tmp_path):
    before = bindings()
    original_run_circuit = cetsim.engine.run_circuit
    t = tracer.Tracer(cetsim, spool_dir=str(tmp_path))
    with t.installed():
        wrapped = cetsim.engine.run_circuit
        assert wrapped is not original_run_circuit
        # by-name imports go through the same wrapper
        assert cetsim.cli.run_circuit is wrapped
        assert cetsim.run_circuit is wrapped
        assert cetsim.sweep.depolarize is cetsim.noise.depolarize
        assert cetsim.sweep.depolarize is not before[("cetsim.noise", "depolarize")]
        # no module-level name still holds an unwrapped original
        originals = {id(before[(owner.__name__, attr)])
                     for _, owner, attr, _ in tracer.targets(cetsim)
                     if isinstance(owner, ModuleType)}
        for mod in tracer.package_modules():
            for key, value in vars(mod).items():
                assert id(value) not in originals, f"{mod.__name__}.{key} not wrapped"
        cetsim.cli.main(TINY_GRID + ["--out-dir", str(tmp_path / "grid")])
    assert t.calls["engine.run_circuit"] > 0
    after = bindings()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []


def test_tracer_restores_on_error(tmp_path):
    before = bindings()
    t = tracer.Tracer(cetsim)
    with pytest.raises(RuntimeError):
        with t.installed():
            raise RuntimeError("boom")
    after = bindings()
    assert all(after[key] is before[key] for key in before)


@pytest.mark.parametrize("workload", spec.WORKLOADS)
def test_named_counts_repeat_exactly(workload, tmp_path):
    inputs = tiny_inputs(workload)
    first = traced(workload, inputs, tmp_path)["trace"]
    second = traced(workload, inputs, tmp_path)["trace"]
    for name in spec.EXACT_COUNTS:
        assert first[name] == second[name], name
    assert first["synth.preps_per_point"] > 0
    assert first["engine.gates"] > 0


def test_parallel_counts_include_workers(tmp_path):
    serial = traced("grid-noisy-par2", {"argv": TINY_GRID, "points_per_op": 12}, tmp_path)
    parallel = traced("grid-noisy-par2", tiny_inputs("grid-noisy-par2"), tmp_path)
    for name in ("sweep.run_point.calls", "synth.build_circuit.calls", "engine.gates",
                 "engine.bytes_moved_computed", "noise.density_matrices",
                 "synth.preps_per_point", "outputs.bytes_written"):
        assert parallel["trace"][name] == serial["trace"][name], name
    assert parallel["trace"]["sweep.workers.self_s"] > 0
    assert parallel["trace"]["sweep.run_point.self_s"] == 0


@pytest.mark.parametrize("workload", spec.WORKLOADS)
def test_layer_self_times_fit_in_traced_wall(workload, tmp_path):
    metrics = traced(workload, tiny_inputs(workload), tmp_path)["trace"]
    assert set(metrics) == set(spec.PER_LAYER)
    self_sum = sum(v for k, v in metrics.items()
                   if k.endswith(".self_s") and k != "sweep.workers.self_s")
    assert 0 < self_sum <= metrics["trace.wall_s"]


def test_metric_names_and_bounds():
    metrics = spec.SPEC["end_to_end"] + spec.SPEC["per_layer"]
    names = [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    for name in names + spec.WORKLOADS:
        assert spec.NAME_RE.fullmatch(name), name
    assert set(spec.EXACT_COUNTS) <= set(spec.PER_LAYER)
    assert all(0 < m["bound"] <= 0.25 for m in spec.SPEC["end_to_end"])


def test_end_to_end_pools_latencies_over_passes():
    result = {"walls": [3.0, 1.0, 2.0], "points_per_op": 1, "points_per_pass": 2,
              "rss_self_mb": 50.0, "rss_children_mb": 60.0,
              "latencies": [[1e-3] * 99 + [0.1], [1e-3] * 100, [1e-3] * 100]}
    metrics = run.end_to_end(result, setup=[0.5, 0.4, 0.6])
    assert metrics["wall_s"] == 2.0
    assert metrics["points_per_s"] == 1.0
    assert metrics["setup_s"] == 0.5
    assert metrics["peak_rss_mb"] == 60.0
    assert metrics["point_p50_ms"] == pytest.approx(1.0)
    # one slow call in 300 sits above the 99th percentile of the pool
    assert metrics["point_p99_ms"] == pytest.approx(1.0)
    result["latencies"][1][0] = result["latencies"][2][0] = 0.1
    assert run.end_to_end(result, setup=[0.5])["point_p99_ms"] > 1.0


def test_failed_counts_errors_mismatches_and_divergent_passes():
    result = {"fingerprints": [["a", "error:NumericError", "c"],
                               ["a", "error:NumericError", "x"]]}
    assert run.count_failed(result, bad={0}, points_per_op=1) == (3, 2, {"NumericError": 1})
    # more passes of the same outputs change nothing
    result["fingerprints"].append(result["fingerprints"][1])
    assert run.count_failed(result, bad={0}, points_per_op=1) == (3, 2, {"NumericError": 1})
    assert run.count_failed({"fingerprints": [["g"], ["g"]]}, bad={3, 9},
                            points_per_op=12) == (2, 2, {})
    grid = {"fingerprints": [["g"], ["g"], ["h"]]}
    assert run.count_failed(grid, bad={3, 9}, points_per_op=12) == (12, 12, {})


def test_percentile():
    assert run.percentile([3.0, 1.0, 2.0], 50) == 2.0
    assert run.percentile([1.0, 2.0], 99) == pytest.approx(1.99)
    assert run.percentile(list(range(101)), 99) == 99


def test_oracle_accepts_outputs_and_flags_perturbed_ones(tmp_path):
    import csv

    import oracle
    from workloads import GRID_ARGV

    out = tmp_path / "grid"
    assert cetsim.cli.main(GRID_ARGV + ["--out-dir", str(out)]) == 0
    assert oracle.check_grid(cetsim, out / "sweep.csv")[0] == set()
    with open(out / "sweep.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    rows[1 + 3 * 17 + 2][3] = repr(float(rows[1 + 3 * 17 + 2][3]) + 1e-9)  # recovered M, point 17
    with open(out / "sweep.csv", "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    assert oracle.check_grid(cetsim, out / "sweep.csv")[0] == {17}

    inputs = tiny_inputs("point-mix")
    result = traced("point-mix", inputs, tmp_path)
    outputs = result["first_outputs"]
    assert oracle.check_point_mix(cetsim, inputs["points"], outputs)[0] == set()
    key = next(k for k in outputs if inputs["points"][int(k)]["kind"] == "ideal")
    outputs[key][0]["values"][2][0] += 1e-9
    assert oracle.check_point_mix(cetsim, inputs["points"], outputs)[0] == {int(key)}
