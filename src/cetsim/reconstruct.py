"""Density-matrix reconstruction from the diagonal readout set.

Seven expectations (three single-spin Z, three pair ZZ, one triple ZZZ)
determine the eight diagonal entries of a three-spin density matrix:

    p_k = (1 + sum_i <Z_i> z_i(k) + sum_{i<j} <Z_i Z_j> z_i z_j
             + <Z1 Z2 Z3> z_1 z_2 z_3) / 8.

One sign table serves both directions: the readout of a population
vector is SIGNS.T @ p, and reconstruction is p = (1 + SIGNS @ v) / 8.

Probe readouts are complex; reconstruction uses the real parts and
tracks the imaginary residuals, flagging any observable whose residual
exceeds 11 percent of its magnitude.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from . import model
from .engine import ProbeReadout
from .errors import DomainError, IncompleteSetError, NonPhysicalStateError
from .noise import DensityMatrix, clip_to_simplex

#: The diagonal readout set, in canonical order.
LABELS = ("Z1", "Z2", "Z3", "Z1Z2", "Z2Z3", "Z1Z3", "Z1Z2Z3")

_SITES = {
    "Z1": (0,),
    "Z2": (1,),
    "Z3": (2,),
    "Z1Z2": (0, 1),
    "Z2Z3": (1, 2),
    "Z1Z3": (0, 2),
    "Z1Z2Z3": (0, 1, 2),
}

#: (8, 7) sign of each readout label (columns, in LABELS order) on each
#: configuration (rows).
SIGNS = np.stack(
    [np.prod(model.spin_values(3)[:, list(_SITES[label])], axis=1) for label in LABELS],
    axis=1,
)
SIGNS.setflags(write=False)

IMAG_FLAG_FRACTION = 0.11

_STRICT_NEG_TOL = 1e-12


@dataclass(frozen=True)
class MeasurementSet:
    """The seven diagonal expectations, with optional durations attached."""

    values: Mapping[str, complex]
    durations: Mapping[str, float] | None = None

    def __post_init__(self) -> None:
        missing = [label for label in LABELS if label not in self.values]
        if missing:
            raise IncompleteSetError(f"missing observables: {', '.join(missing)}")
        extra = [label for label in self.values if label not in LABELS]
        if extra:
            raise DomainError(f"unexpected observables: {', '.join(extra)}")

    @classmethod
    def from_readouts(
        cls,
        readouts: Iterable[ProbeReadout],
        durations: Mapping[str, float] | None = None,
    ) -> "MeasurementSet":
        return cls(
            values={r.label: complex(r.value) for r in readouts}, durations=durations
        )

    def value(self, label: str) -> complex:
        return complex(self.values[label])

    def real_vector(self) -> np.ndarray:
        """Real parts in canonical label order."""
        return np.array([self.value(label).real for label in LABELS])

    def imaginary_flags(self) -> dict[str, bool]:
        """Labels whose imaginary residual exceeds the flagging fraction."""
        flags = {}
        for label in LABELS:
            v = self.value(label)
            flags[label] = abs(v.imag) > IMAG_FLAG_FRACTION * abs(v)
        return flags

    def scaled(self, factor) -> "MeasurementSet":
        """Multiply each value by a scalar or per-label factor."""
        if isinstance(factor, Mapping):
            values = {lbl: self.value(lbl) * factor[lbl] for lbl in LABELS}
        else:
            values = {lbl: self.value(lbl) * factor for lbl in LABELS}
        return MeasurementSet(values=values, durations=self.durations)

    def to_json(self) -> str:
        payload = {}
        for label in LABELS:
            v = self.value(label)
            entry: dict[str, float] = {"real": v.real, "imag": v.imag}
            if self.durations is not None and label in self.durations:
                entry["duration"] = float(self.durations[label])
            payload[label] = entry
        return json.dumps(payload, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "MeasurementSet":
        raw = json.loads(text)
        values = {}
        durations = {}
        for label, entry in raw.items():
            values[label] = complex(entry["real"], entry.get("imag", 0.0))
            if "duration" in entry:
                durations[label] = float(entry["duration"])
        return cls(values=values, durations=durations or None)


@dataclass(frozen=True)
class DiagonalDensity:
    """Populations over the eight spin configurations, plus provenance."""

    populations: np.ndarray
    provenance: str = "ideal"

    def __post_init__(self) -> None:
        if self.populations.shape != (8,):
            raise DomainError("diagonal density needs exactly 8 populations")
        total = float(self.populations.sum())
        if not abs(total - 1.0) <= 1e-9:
            raise DomainError(f"populations sum to {total}, expected 1")

    @property
    def is_physical(self) -> bool:
        return bool(np.all(self.populations >= -_STRICT_NEG_TOL))

    def as_matrix(self) -> DensityMatrix:
        return DensityMatrix.from_populations(self.populations)


def diagonal_readout(populations: np.ndarray) -> MeasurementSet:
    """The seven diagonal expectations of a population vector, SIGNS.T @ p."""
    values = SIGNS.T @ populations
    return MeasurementSet(values={lbl: complex(v) for lbl, v in zip(LABELS, values)})


def assemble_density(
    measurements: MeasurementSet, provenance: str = "ideal"
) -> DiagonalDensity:
    """Invert the readout set into populations (real parts only).

    The inversion is linear and exact; negative populations are kept
    as-is so the caller can see non-physical reconstructions.
    """
    populations = (1.0 + SIGNS @ measurements.real_vector()) / 8.0
    return DiagonalDensity(populations=populations, provenance=provenance)


def entropy(density: DiagonalDensity, policy: str = "strict") -> float:
    """Shannon entropy -sum p ln p of the populations.

    policy "strict" raises on negative populations beyond rounding;
    policy "clamp" zeroes them and renormalises (the clipped mass is
    logged by the clipping utility).
    """
    p = density.populations
    if policy == "strict":
        if float(p.min()) < -_STRICT_NEG_TOL:
            raise NonPhysicalStateError(
                f"negative population {p.min():.3e}; use policy='clamp' to proceed"
            )
        p = np.clip(p, 0.0, None)
    elif policy == "clamp":
        p, _ = clip_to_simplex(p)
    else:
        raise DomainError(f"unknown entropy policy {policy!r}")
    return model.shannon_entropy(p)


def fidelity(a, b) -> float:
    """Uhlmann fidelity between two states.

    Accepts DiagonalDensity or DensityMatrix in either slot; diagonal
    pairs reduce to (sum sqrt(p q))^2, mixed pairs go through an
    eigendecomposition.  Negative populations from non-physical
    reconstructions are clipped at zero for the square roots.
    """
    if isinstance(a, DiagonalDensity) and isinstance(b, DiagonalDensity):
        p = np.clip(a.populations, 0.0, None)
        q = np.clip(b.populations, 0.0, None)
        return float(np.sum(np.sqrt(p * q)) ** 2)
    ma = a.as_matrix() if isinstance(a, DiagonalDensity) else a
    mb = b.as_matrix() if isinstance(b, DiagonalDensity) else b
    if ma.dimension != mb.dimension:
        raise DomainError("fidelity requires equal dimensions")
    evals, evecs = np.linalg.eigh(ma.matrix)
    sqrt_a = (evecs * np.sqrt(np.clip(evals, 0.0, None))) @ evecs.conj().T
    inner = sqrt_a @ mb.matrix @ sqrt_a
    evals_inner = np.linalg.eigvalsh(inner)
    return float(np.sum(np.sqrt(np.clip(evals_inner, 0.0, None))) ** 2)


@dataclass(frozen=True)
class ObservablesSummary:
    """Scalar summaries of one readout set."""

    magnetization: float
    pair_correlation: float
    triple_correlation: float


def observables_summary(measurements: MeasurementSet) -> ObservablesSummary:
    """Total magnetisation and summed correlations from the real parts."""
    v = {label: measurements.value(label).real for label in LABELS}
    return ObservablesSummary(
        magnetization=v["Z1"] + v["Z2"] + v["Z3"],
        pair_correlation=v["Z1Z2"] + v["Z2Z3"] + v["Z1Z3"],
        triple_correlation=v["Z1Z2Z3"],
    )


def exact_measurement_set(params: model.ModelParams) -> MeasurementSet:
    """The seven exact thermal expectations, as a MeasurementSet."""
    from .pauli import PauliString

    values = {
        label: model.exact_expectation(params, PauliString.parse(label, params.n))
        for label in LABELS
    }
    return MeasurementSet(values=values)


def imaginary_fraction(value: complex) -> float:
    """|Im| / |value|, the residual measure used for flagging."""
    magnitude = abs(value)
    if magnitude == 0.0:
        return 0.0
    return abs(value.imag) / magnitude
