"""Phase-diagram sweeps: synthesise, simulate, measure, reconstruct.

Each grid point runs the full pipeline: prepare the state once, read
all seven diagonal observables from its populations, optionally apply
a noise model and its partial reversal, and reconstruct populations,
scalar observables and entropy for every provenance stage.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import partial
from typing import Mapping

import numpy as np

from . import engine, model, reconstruct, synth
from .errors import DomainError, IncompleteSetError, NumericError, TopologyError
from .noise import DecayProfile, anisotropy_split

PROVENANCE_IDEAL = "ideal"
PROVENANCE_NOISY = "simulated-noisy"
PROVENANCE_RECOVERED = "recovered"


@dataclass(frozen=True)
class NoiseOptions:
    """Noise model applied to the measured observables.

    Exactly one of `eta` (isotropic depolarisation) or `decay`
    (per-observable exponential decay over the measurement durations)
    may be set.  `recover` is a calibration factor in (0, 1] or "auto",
    which estimates the factor from the purity of the noisy state.
    """

    eta: float | None = None
    decay: Mapping[str, DecayProfile] | None = None
    recover: float | str | None = None

    def __post_init__(self) -> None:
        if self.eta is not None and self.decay is not None:
            raise DomainError("set either eta or a decay table, not both")
        if self.eta is not None and not 0.0 <= self.eta <= 1.0:
            raise DomainError(f"eta must be in [0, 1], got {self.eta}")
        if self.decay is not None:
            missing = [lbl for lbl in reconstruct.LABELS if lbl not in self.decay]
            if missing:
                raise IncompleteSetError(
                    f"decay table lacks durations for: {', '.join(missing)}"
                )
        if self.recover is not None:
            if self.eta is None and self.decay is None:
                raise DomainError("recover requires a noise model")
            if isinstance(self.recover, str):
                if self.recover != "auto":
                    raise DomainError(
                        f"recover must be a factor or 'auto', got {self.recover!r}"
                    )
            elif not 0.0 < float(self.recover) <= 1.0:
                raise DomainError(f"recover factor must be in (0, 1], got {self.recover}")

    @property
    def active(self) -> bool:
        return self.eta is not None or self.decay is not None


@dataclass(frozen=True)
class PointResult:
    """Everything reconstructed at one provenance stage of one point."""

    provenance: str
    measurements: reconstruct.MeasurementSet
    populations: np.ndarray
    magnetization: float
    pair_correlation: float
    triple_correlation: float
    entropy: float


@dataclass(frozen=True)
class SweepRow:
    """All provenance stages of one (beta, h) grid point."""

    beta: float
    h: float
    J: float
    log_partition: float
    results: tuple[PointResult, ...]

    def result(self, provenance: str) -> PointResult:
        for res in self.results:
            if res.provenance == provenance:
                return res
        raise KeyError(provenance)

    @property
    def provenances(self) -> tuple[str, ...]:
        return tuple(res.provenance for res in self.results)


@dataclass(frozen=True)
class SweepSpec:
    """A full sweep request."""

    betas: tuple[float, ...]
    fields: tuple[float, ...]
    J: float = 1.0
    noise: NoiseOptions | None = None
    parallelism: int = 1
    seed: int | None = None
    out_dir: str | None = None
    formats: tuple[str, ...] = ("csv",)

    def __post_init__(self) -> None:
        if not self.betas or not self.fields:
            raise DomainError("sweep grids must be non-empty")
        if self.parallelism < 1:
            raise DomainError(f"parallelism must be >= 1, got {self.parallelism}")
        for fmt in self.formats:
            if fmt not in ("csv", "json", "svg"):
                raise DomainError(f"unknown output format {fmt!r}")


@dataclass(frozen=True)
class SweepDataset:
    """Sweep results in row-major (beta outer, h inner) order."""

    spec: SweepSpec
    rows: tuple[SweepRow, ...]


def _stage_result(
    provenance: str,
    measurements: reconstruct.MeasurementSet,
    entropy_policy: str,
) -> PointResult:
    density = reconstruct.assemble_density(measurements, provenance=provenance)
    summary = reconstruct.observables_summary(measurements)
    return PointResult(
        provenance=provenance,
        measurements=measurements,
        populations=density.populations,
        magnetization=summary.magnetization,
        pair_correlation=summary.pair_correlation,
        triple_correlation=summary.triple_correlation,
        entropy=reconstruct.entropy(density, policy=entropy_policy),
    )


def _auto_lambda(noise: NoiseOptions) -> float:
    """Estimated recovery factor for the active noise model.

    Depolarisation: sqrt(Tr rho_eps^2) of the depolarised prepared state,
    which for a pure state of dimension D is sqrt(eta^2 (1 - 1/D) + 1/D).
    Per-observable decay: the isotropic component exp(-mean rate), with
    the residuals left to the caller via anisotropy_split.
    """
    if noise.eta is not None:
        d = len(reconstruct.SIGNS)
        return math.sqrt(noise.eta**2 * (1.0 - 1.0 / d) + 1.0 / d)
    rates = {
        label: -math.log(noise.decay[label].factor) for label in reconstruct.LABELS
    }
    return math.exp(-anisotropy_split(rates).mean_rate)


def run_point(
    params: model.ModelParams,
    noise: NoiseOptions | None = None,
    shots: int | None = None,
    seed: int | None = None,
) -> SweepRow:
    """Run the full pipeline at a single parameter point.

    The preparation circuit runs once and every diagonal readout is read
    from its populations; on a longer chain they are those of the first
    three spins.  With `shots` the readouts are finite-sample estimates;
    the readout at position `index` of LABELS draws from the stream
    `seed + index`, as probe_expectation would.
    """
    if params.n < 3:
        raise TopologyError(f"the readout set needs 3 spins, model has {params.n}")
    table = model.gibbs_distribution(params)
    state = engine.run_circuit(synth.build_circuit(params))
    norm = state.norm()
    if not abs(norm - 1.0) <= 1e-9:
        raise NumericError(f"prepared state norm is {norm}, expected 1")
    populations = state.probabilities().reshape(8, -1).sum(axis=1)
    values = reconstruct.diagonal_readout(populations).values
    if shots is not None:
        values = {
            label: engine.sample_shots(
                values[label], shots, None if seed is None else seed + index
            )
            for index, label in enumerate(reconstruct.LABELS)
        }
    durations = None
    if noise is not None and noise.decay is not None:
        durations = {label: noise.decay[label].tau for label in reconstruct.LABELS}
    ideal = reconstruct.MeasurementSet(values=values, durations=durations)
    results = [_stage_result(PROVENANCE_IDEAL, ideal, entropy_policy="strict")]

    if noise is not None and noise.active:
        if noise.eta is not None:
            noisy_ms = ideal.scaled(noise.eta)
        else:
            factors = {label: noise.decay[label].factor for label in reconstruct.LABELS}
            noisy_ms = ideal.scaled(factors)
        results.append(_stage_result(PROVENANCE_NOISY, noisy_ms, entropy_policy="clamp"))
        if noise.recover is not None:
            lam = (
                _auto_lambda(noise)
                if noise.recover == "auto"
                else float(noise.recover)
            )
            recovered_ms = noisy_ms.scaled(1.0 / lam)
            results.append(
                _stage_result(PROVENANCE_RECOVERED, recovered_ms, entropy_policy="clamp")
            )

    return SweepRow(
        beta=params.beta,
        h=params.h,
        J=params.J,
        log_partition=table.log_partition,
        results=tuple(results),
    )


def _point_task(spec: SweepSpec, point: tuple[float, float]) -> SweepRow:
    beta, h = point
    params = model.ModelParams(J=spec.J, h=h, beta=beta)
    return run_point(params, noise=spec.noise)


def check_writable(out_dir: str) -> None:
    """Create out_dir if needed and verify a file can be written there."""
    os.makedirs(out_dir, exist_ok=True)
    probe_path = os.path.join(out_dir, ".write-probe")
    with open(probe_path, "w", encoding="utf-8") as fh:
        fh.write("")
    os.remove(probe_path)


def run_sweep(spec: SweepSpec) -> SweepDataset:
    """Run every grid point, in row-major order, optionally in parallel.

    Output paths are validated before any point is computed, so an
    unwritable destination fails fast.  Parallel runs partition the grid
    over processes while preserving point order, and the results are
    bit-identical to a serial run.
    """
    if spec.out_dir is not None:
        check_writable(spec.out_dir)
    points = [(beta, h) for beta in spec.betas for h in spec.fields]
    task = partial(_point_task, spec)
    if spec.parallelism > 1:
        chunk = max(1, len(points) // (4 * spec.parallelism))
        with ProcessPoolExecutor(max_workers=spec.parallelism) as pool:
            rows = tuple(pool.map(task, points, chunksize=chunk))
    else:
        rows = tuple(task(point) for point in points)
    return SweepDataset(spec=spec, rows=rows)


def magnetization_slice(dataset: SweepDataset, beta: float) -> np.ndarray:
    """Ideal-stage magnetisation along h at one beta of the grid."""
    values = [
        row.result(PROVENANCE_IDEAL).magnetization
        for row in dataset.rows
        if row.beta == beta
    ]
    if not values:
        raise DomainError(f"beta {beta} not on the sweep grid")
    return np.array(values)


def with_parallelism(spec: SweepSpec, parallelism: int) -> SweepSpec:
    """The same spec with a different worker count (results must not change)."""
    return replace(spec, parallelism=parallelism)
