"""Phase-diagram sweeps: synthesise, simulate, measure, reconstruct.

One array pipeline, `run_sweep`, serves every point: a `SweepSpec` names
a batch by its grid's axes, and `run_sweep` simulates the grid's triangle
points in one `engine.run_layout` pass, one compiled circuit shape over B
rows of angles.  `run_point` is the batch of one.  `_stages` stacks the
provenance stages (ideal, noisy, recovered) along a leading axis and
reconstructs them all in one call.

A `SweepDataset` keeps the result as (stage, point) columns; `SweepRow`,
`PointResult` and `MeasurementSet` are per-point views built on request.
"""

from __future__ import annotations

import dataclasses
import math
import os
import sys
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import engine, errors, model, reconstruct, synth
from .errors import (
    CapacityError, DomainError, IncompleteSetError, NumericError, TopologyError,
)
from .noise import DecayProfile

PROVENANCE_IDEAL = "ideal"
PROVENANCE_NOISY = "simulated-noisy"
PROVENANCE_RECOVERED = "recovered"

#: Output formats, in the order they are written.
FORMATS = ("csv", "json", "svg")

#: The most grid points one sweep may hold.  A noisy, recovered sweep
#: peaks at about 1.7 KiB per point (a 230 x 1010 grid at 416 MiB, a
#: one-point sweep at 32 MiB), so a sweep at this limit stays under 2 GiB.
MAX_POINTS = 1_000_000

#: The per-stage summary columns of a dataset, in `PointResult` order.
_SUMMARIES = ("magnetization", "pair_correlation", "triple_correlation", "entropy")


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
    """A full sweep request: the axes of a grid of triangles, whose points run
    in row-major (beta outer, h inner) order.  Each point is checked as
    `model.ModelParams` checks it when the spec is made, before any output is
    touched.  `parallelism` is the number of processes that may write the row
    files (see `outputs.emit_outputs`); it changes no byte of any output.
    """

    betas: tuple[float, ...]
    fields: tuple[float, ...]
    J: float = 1.0
    noise: NoiseOptions | None = None
    formats: tuple[str, ...] = ("csv",)
    parallelism: int = 1

    def __post_init__(self) -> None:
        if not self.betas or not self.fields:
            raise DomainError("sweep grids must be non-empty")
        if len(self.betas) * len(self.fields) > MAX_POINTS:
            raise CapacityError(
                f"sweeps support at most {MAX_POINTS} points, got "
                f"{len(self.betas)} x {len(self.fields)}"
            )
        for fmt in self.formats:
            if fmt not in FORMATS:
                raise DomainError(f"unknown output format {fmt!r}")
        # beta * (|J| + |h|) * n grows with |h| under rounding, so every beta at
        # the widest h and every h (a NaN that max skips too) at the first beta
        # check every point; on a failure, a row-major scan names the first bad one.
        widest = max(self.fields, key=abs)
        try:
            for beta in self.betas:
                model.ModelParams(J=self.J, h=widest, beta=beta)
            for h in self.fields:
                model.ModelParams(J=self.J, h=h, beta=self.betas[0])
        except DomainError:
            for beta in self.betas:
                for h in self.fields:
                    model.ModelParams(J=self.J, h=h, beta=beta)
            raise  # not reached: the point that failed is on the grid
        if self.parallelism < 1:
            raise DomainError(f"parallelism must be >= 1, got {self.parallelism}")


@dataclass(frozen=True)
class SweepDataset:
    """Sweep results as (stage, point) columns, points in row-major (beta
    outer, h inner) order: log Z (B,), readouts `values` (S, B, 7),
    `populations` (S, B, 8) and the summaries (S, B)."""

    spec: SweepSpec
    provenances: tuple[str, ...]
    log_partition: np.ndarray
    values: np.ndarray
    populations: np.ndarray
    magnetization: np.ndarray
    pair_correlation: np.ndarray
    triple_correlation: np.ndarray
    entropy: np.ndarray

    def __post_init__(self) -> None:
        points = len(self.spec.betas) * len(self.spec.fields)
        if len(self.log_partition) != points:
            raise DomainError(f"{len(self.log_partition)} rows for {points} points")

    def row(self, b: int) -> SweepRow:
        """The per-point view of the grid's `b`-th point."""
        per_stage = zip(
            self.provenances, self.values[:, b].tolist(), self.populations[:, b],
            *[getattr(self, name)[:, b].tolist() for name in _SUMMARIES],
        )
        labels, measured = reconstruct.LABELS, reconstruct.MeasurementSet
        results = [
            PointResult(name, measured(dict(zip(labels, v))), p, *stats)
            for name, v, p, *stats in per_stage
        ]
        width = len(self.spec.fields)
        return SweepRow(
            self.spec.betas[b // width], self.spec.fields[b % width], self.spec.J,
            float(self.log_partition[b]), tuple(results),
        )

    @property
    def rows(self) -> tuple[SweepRow, ...]:
        """Per-point views of every grid point, in row-major order."""
        return tuple(map(self.row, range(len(self.log_partition))))

    def beta_points(self, index: int) -> slice:
        """The points of the grid's `index`-th beta, in h order."""
        width = len(self.spec.fields)
        return slice(index * width, (index + 1) * width)


def _decay_factors(noise: NoiseOptions) -> np.ndarray:
    return np.array([noise.decay[label].factor for label in reconstruct.LABELS])


def _auto_lambda(noise: NoiseOptions) -> float | np.ndarray:
    """Estimated recovery factor for the active noise model.

    Depolarisation: sqrt(Tr rho_eps^2) of the depolarised prepared state,
    which for a pure state of dimension D is sqrt(eta^2 (1 - 1/D) + 1/D).
    Per-observable decay: each readout's own decay factor, the exact
    inverse of the modelled decay; a factor whose inverse overflows
    leaves nothing to recover and raises DomainError.
    """
    if noise.eta is not None:
        d = len(reconstruct.SIGNS)
        return math.sqrt(noise.eta**2 * (1.0 - 1.0 / d) + 1.0 / d)
    factors = _decay_factors(noise)
    for label, factor in zip(reconstruct.LABELS, factors):
        if factor < 1.0 / sys.float_info.max:
            rate = noise.decay[label].rate
            raise DomainError(
                f"decay rate {rate:g} of {label} leaves nothing to recover"
            )
    return factors


def _stages(populations: np.ndarray, noise: NoiseOptions | None, shots, seed):
    """Stage names, readouts (S, B, 7), populations (S, B, 8) and the M, C2,
    C3 and S columns (S, B) from B points' (B, 8) populations.

    Stages: ideal; noisy = ideal x eta or x each label's decay factor;
    recovered = noisy x 1/lambda.  Sampled ideal readouts (`shots`) and
    later stages reconstruct with policy "clamp", exact ones "strict".
    """
    names = (PROVENANCE_IDEAL,)
    if noise is not None and noise.active:
        names += (PROVENANCE_NOISY,)
        if noise.recover is not None:
            names += (PROVENANCE_RECOVERED,)
    values = np.empty((len(names), len(populations), len(reconstruct.LABELS)), complex)
    values[0] = reconstruct.readouts(populations)
    if shots is not None:
        values[0] = [
            [
                engine.sample_shots(v, shots, None if seed is None else seed + index)
                for index, v in enumerate(row, b * len(row))
            ]
            for b, row in enumerate(values[0].tolist())
        ]
    if len(names) > 1:
        factor = noise.eta if noise.eta is not None else _decay_factors(noise)
        np.multiply(values[0], factor, out=values[1])
    if len(names) > 2:
        lam = _auto_lambda(noise) if noise.recover == "auto" else float(noise.recover)
        np.multiply(values[1], 1.0 / lam, out=values[2])
    populations = reconstruct.invert(values.real)
    entropy = np.empty(values.shape[:2])
    ideal_policy = "strict" if shots is None else "clamp"
    entropy[0] = reconstruct.entropies(populations[0], ideal_policy)
    if len(names) > 1:
        entropy[1:] = reconstruct.entropies(populations[1:], "clamp")
    return names, values, populations, (*reconstruct.summaries(values.real), entropy)


def run_point(
    params: model.ModelParams,
    noise: NoiseOptions | None = None,
    shots: int | None = None,
    seed: int | None = None,
) -> SweepRow:
    """Run the full pipeline at one triangle point: a batch of one.

    `shots` and `seed` sample the ideal readouts as in `run_sweep`.
    """
    if params.topology != model.TRIANGLE:
        raise TopologyError(f"run_point reads a triangle, not a {params.topology}")
    spec = SweepSpec(betas=(params.beta,), fields=(params.h,), J=params.J, noise=noise)
    return run_sweep(spec, shots, seed).row(0)


def check_writable(out_dir: str) -> None:
    """Create out_dir if needed and verify a file can be written there."""
    os.makedirs(out_dir, exist_ok=True)
    probe_path = os.path.join(out_dir, ".write-probe")
    with open(probe_path, "w", encoding="utf-8") as fh:
        fh.write("")
    os.remove(probe_path)


def run_sweep(spec: SweepSpec, shots: int | None = None,
              seed: int | None = None) -> SweepDataset:
    """Run every triangle point of `spec`'s grid as one batch: the compiled
    plan of the preparation circuit's `synth.layout`, run once over every
    point's row of angles on a float64 register, all read off one
    `model.gibbs_tables` call on the grid's row-major beta and h columns.
    No `synth.Gate` or `synth.Circuit` is built.

    With `shots` the ideal readouts are finite-sample estimates.  Point b's
    readout at position i of LABELS draws from the stream
    `seed + b * len(LABELS) + i`, so no two readouts of a batch share one.
    """
    first = model.ModelParams(J=spec.J, h=spec.fields[0], beta=spec.betas[0])
    betas = [beta for beta in spec.betas for _ in spec.fields]
    weights, log_z = model.gibbs_tables(first, betas, spec.fields * len(spec.betas))[1:]
    angles = synth.gibbs_angles(weights, first)
    amps = engine.run_layout(first.n, synth.layout(first.topology, first.n, False), angles)
    populations = amps * amps
    errors.check_unit(np.sqrt(populations.sum(axis=1)), 1e-9, NumericError,
                      "prepared state norm is")
    names, values, populations, columns = _stages(populations, spec.noise, shots, seed)
    return SweepDataset(spec, names, log_z, values, populations, *columns)


def magnetization_slice(dataset: SweepDataset, beta: float) -> np.ndarray:
    """Ideal-stage magnetisation along h at one beta of the grid."""
    if beta not in dataset.spec.betas:
        raise DomainError(f"beta {beta} not on the sweep grid")
    ideal = dataset.magnetization[dataset.provenances.index(PROVENANCE_IDEAL)]
    return ideal[dataset.beta_points(dataset.spec.betas.index(beta))].copy()


def with_parallelism(spec: SweepSpec, parallelism: int) -> SweepSpec:
    """`spec` with `parallelism` >= 1 processes for its row files, checked as
    a new spec is; `spec` itself when the count is unchanged.

    The points are always simulated as one batch in this process.  This
    process and up to `parallelism` - 1 forked children, no more than the
    usable CPUs or the grid's chunks, only spell `sweep.csv` and
    `sweep.json`, and the outputs are byte-identical for any count.
    """
    if parallelism == spec.parallelism:
        return spec
    return dataclasses.replace(spec, parallelism=parallelism)
