"""Spans and counts around the public functions of each cetsim module.

The tracer patches module and class attributes from outside the
package and restores every one of them on exit.  A function imported by
name into other modules (``cli.run_circuit`` is ``engine.run_circuit``)
is patched under every module-level name bound to it, so each call
passes through exactly one wrapper whichever name the caller used.

A span's self time is its duration minus the time covered by the spans
it caused.  Spans nest on one stack per process, so the self times of
one process sum to at most the wall time of its outermost spans.

Worker processes forked by ``sweep``'s process pool inherit the
wrappers.  Each worker starts from empty statistics and writes them to
the spool directory when it exits; `merge_workers` adds their counts
to this process's and their span time to ``sweep.workers.self_s``.
Self times of named layers stay those of this process, the one that
waits for the result.
"""

from __future__ import annotations

import functools
import json
import multiprocessing.util
import os
import sys
import time
from collections import Counter
from contextlib import contextmanager
from types import ModuleType


def _count_run_circuit(tracer, args, kwargs, result):
    circuit = kwargs["circuit"] if "circuit" in kwargs else args[0]
    gates = len(circuit.gates)
    tracer.counts["engine.gates"] += gates
    # computed, not measured: each gate reads and writes the whole
    # complex128 register of 2**qubits amplitudes
    tracer.counts["engine.bytes_moved_computed"] += gates * 2 * 16 * 2**circuit.qubit_count


def _count_written(tracer, args, kwargs, result):
    path = kwargs["path"] if "path" in kwargs else args[-1]  # every writer takes it last
    tracer.counts["outputs.bytes_written"] += os.path.getsize(path)


def _count_nonphysical(tracer, args, kwargs, result):
    tracer.counts["reconstruct.nonphysical_stages"] += not result.is_physical


def _count_density(tracer, args, kwargs, result):
    tracer.counts["noise.density_matrices"] += 1


def targets(cetsim) -> list[tuple[str | None, object, str, object]]:
    """(span name or None for count-only, owner, attribute, count hook)."""
    c = cetsim
    return [
        ("cli.main", c.cli, "main", None),
        ("sweep.run_sweep", c.sweep, "run_sweep", None),
        ("sweep.run_point", c.sweep, "run_point", None),
        ("synth.build_circuit", c.synth, "build_circuit", None),
        ("synth.cets_angles", c.synth, "cets_angles", None),
        ("engine.run_circuit", c.engine, "run_circuit", _count_run_circuit),
        ("engine.probe_expectation", c.engine, "probe_expectation", None),
        ("pauli.apply", c.pauli.PauliString, "apply", None),
        ("model.gibbs_distribution", c.model, "gibbs_distribution", None),
        ("noise.depolarize", c.noise, "depolarize", None),
        ("noise.estimate_eta", c.noise, "estimate_eta", None),
        (None, c.noise.DensityMatrix, "__init__", _count_density),
        ("reconstruct.assemble_density", c.reconstruct, "assemble_density",
         _count_nonphysical),
        ("reconstruct.entropy", c.reconstruct, "entropy", None),
        ("reconstruct.observables_summary", c.reconstruct, "observables_summary", None),
        ("outputs.write_csv", c.outputs, "write_csv", _count_written),
        ("outputs.write_json", c.outputs, "write_json", _count_written),
        ("outputs.svg", c.outputs, "write_line_plot", _count_written),
        ("outputs.svg", c.outputs, "write_heatmap", _count_written),
    ]


def package_modules(package: str = "cetsim") -> list[ModuleType]:
    return [
        mod for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == package or name.startswith(package + "."))
    ]


class Tracer:
    """Per-name span statistics and counts for one traced pass."""

    def __init__(self, cetsim, spool_dir: str | None = None) -> None:
        self._cetsim = cetsim
        self.spool_dir = spool_dir
        self._active = False
        self.reset()
        multiprocessing.util.register_after_fork(self, Tracer._after_fork)

    def reset(self) -> None:
        self.calls: Counter[str] = Counter()
        self.total: Counter[str] = Counter()
        self.child: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.worker_self_s = 0.0
        self._stack: list[list[float]] = []

    def self_s(self, name: str) -> float:
        return self.total[name] - self.child[name]

    def _wrap(self, name, fn, count):
        if name is None:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                count(self, args, kwargs, result)
                return result
            return counted

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            frame = [0.0]
            self._stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self._stack.pop()
                if self._stack:
                    self._stack[-1][0] += dt
                self.calls[name] += 1
                self.total[name] += dt
                self.child[name] += frame[0]
            if count is not None:
                count(self, args, kwargs, result)
            return result
        return spanned

    @contextmanager
    def installed(self):
        """Patch every target under every name it is bound to; restore on exit."""
        patches = []  # (owner, attribute, original)
        modules = package_modules()
        try:
            for name, owner, attr, count in targets(self._cetsim):
                original = owner.__dict__[attr]
                wrapper = self._wrap(name, original, count)
                bindings = [(owner, attr)]
                if isinstance(owner, ModuleType):
                    bindings += [
                        (m, key) for m in modules for key, value in list(vars(m).items())
                        if value is original and (m, key) != (owner, attr)
                    ]
                for holder, key in bindings:
                    patches.append((holder, key, original))
                    setattr(holder, key, wrapper)
            self._active = True
            yield self
        finally:
            self._active = False
            for holder, attr, original in reversed(patches):
                setattr(holder, attr, original)

    # -- worker processes -------------------------------------------------

    def _after_fork(self) -> None:
        if not self._active or self.spool_dir is None:
            return
        self.reset()
        multiprocessing.util.Finalize(self, self._dump_worker, exitpriority=10)

    def _dump_worker(self) -> None:
        # a worker's outermost spans are the run_point calls it served
        payload = {
            "counts": dict(self.counts),
            "calls": dict(self.calls),
            "self_s": sum(self.total[n] - self.child[n] for n in self.total),
        }
        path = os.path.join(self.spool_dir, f"worker-{os.getpid()}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)

    def merge_workers(self) -> None:
        """Fold in and remove the statistics of workers that have exited."""
        if self.spool_dir is None:
            return
        for entry in sorted(os.listdir(self.spool_dir)):
            if not entry.startswith("worker-"):
                continue
            path = os.path.join(self.spool_dir, entry)
            with open(path, encoding="utf-8") as fh:
                payload = json.load(fh)
            os.remove(path)
            self.counts.update(payload["counts"])
            self.calls.update(payload["calls"])
            self.worker_self_s += payload["self_s"]
