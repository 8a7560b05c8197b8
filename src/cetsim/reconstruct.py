"""Density-matrix reconstruction from the diagonal readout set.

Seven expectations (three single-spin Z, three pair ZZ, one triple ZZZ)
determine the eight diagonal entries of a three-spin density matrix:

    p_k = (1 + sum_i <Z_i> z_i(k) + sum_{i<j} <Z_i Z_j> z_i z_j
             + <Z1 Z2 Z3> z_1 z_2 z_3) / 8.

One sign table serves both directions: the readout of a population
vector is SIGNS.T @ p, and reconstruction is p = (1 + SIGNS @ v) / 8.
Its columns are `model.z_signs` of each label's Z sites.
`readouts`, `invert`, `summaries` and `entropies` work over leading
axes (points, stages) one row at a time, so a row's bits do not depend
on its batch; `assemble_density`, `observables_summary` and `entropy`
are their one-row calls.

Probe readouts are complex; reconstruction uses the real parts and
tracks the imaginary residuals, flagging any observable whose residual
exceeds 11 percent of its magnitude.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import model
from .errors import DomainError, IncompleteSetError, NonPhysicalStateError, check_unit
from .noise import DensityMatrix, clip_to_simplex
from .pauli import PauliString

#: The diagonal readout set, in canonical order.
LABELS = ("Z1", "Z2", "Z3", "Z1Z2", "Z2Z3", "Z1Z3", "Z1Z2Z3")
_LABEL_SET = frozenset(LABELS)

#: (8, 7) sign of each readout label (columns, in LABELS order) on each
#: configuration (rows).
SIGNS = np.stack([
    model.z_signs(3, [i for i, c in enumerate(letters) if c == "Z"])
    for letters in (PauliString.parse(label, 3).letters for label in LABELS)
], axis=1)
SIGNS.setflags(write=False)

IMAG_FLAG_FRACTION = 0.11

_STRICT_NEG_TOL = 1e-12
_SUM_TOL = 1e-9


@dataclass(frozen=True)
class MeasurementSet:
    """The seven diagonal expectations."""

    values: Mapping[str, complex]

    def __post_init__(self) -> None:
        if self.values.keys() == _LABEL_SET:
            return
        missing = [label for label in LABELS if label not in self.values]
        if missing:
            raise IncompleteSetError(f"missing observables: {', '.join(missing)}")
        extra = [label for label in self.values if label not in LABELS]
        raise DomainError(f"unexpected observables: {', '.join(extra)}")

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


@dataclass(frozen=True)
class DiagonalDensity:
    """Populations over the eight spin configurations."""

    populations: np.ndarray

    def __post_init__(self) -> None:
        if self.populations.shape != (8,):
            raise DomainError("diagonal density needs exactly 8 populations")
        check_unit(self.populations.sum(), _SUM_TOL, DomainError, "populations sum to")

    @property
    def is_physical(self) -> bool:
        return bool(np.all(self.populations >= -_STRICT_NEG_TOL))


def readouts(populations: np.ndarray) -> np.ndarray:
    """The seven diagonal expectations SIGNS.T @ p of (..., 8) populations."""
    return np.matmul(SIGNS.T, np.asarray(populations)[..., None])[..., 0]


def invert(values: np.ndarray) -> np.ndarray:
    """Populations (1 + SIGNS @ v) / 8 of (..., 7) real readouts.

    The inversion is linear and exact; negative populations are kept
    as-is so the caller can see non-physical reconstructions.  Each row
    must sum to one within 1e-9.
    """
    populations = (1.0 + np.matmul(SIGNS, values[..., None])[..., 0]) / 8.0
    check_unit(populations.sum(axis=-1), _SUM_TOL, DomainError, "populations sum to")
    return populations


def summaries(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Magnetisation, summed pair and triple correlation of (..., 7) real readouts."""
    return (
        values[..., 0] + values[..., 1] + values[..., 2],
        values[..., 3] + values[..., 4] + values[..., 5],
        values[..., 6],
    )


def entropies(populations: np.ndarray, policy: str = "strict") -> np.ndarray:
    """Shannon entropy -sum p ln p of each row of (..., 8) populations.

    policy "strict" raises on negative populations beyond rounding;
    policy "clamp" zeroes them and renormalises (the clipped mass is
    logged by the clipping utility).
    """
    p = populations
    if policy == "strict":
        if float(p.min()) < -_STRICT_NEG_TOL:
            raise NonPhysicalStateError(
                f"negative population {p.min():.3e}; use policy='clamp' to proceed"
            )
        p = np.maximum(p, 0.0)
    elif policy == "clamp":
        p, _ = clip_to_simplex(p)
    else:
        raise DomainError(f"unknown entropy policy {policy!r}")
    return model.shannon_entropy(p)


def assemble_density(measurements: MeasurementSet) -> DiagonalDensity:
    """Invert the readout set into populations (real parts only)."""
    populations = invert(measurements.real_vector())
    return DiagonalDensity(populations=populations)


def entropy(density: DiagonalDensity, policy: str = "strict") -> float:
    """Shannon entropy of one density's populations under `policy`."""
    return float(entropies(density.populations, policy))


def fidelity(a: DensityMatrix, b: DensityMatrix) -> float:
    """Uhlmann fidelity (Tr sqrt(sqrt(a) b sqrt(a)))^2 of two density matrices.

    Negative eigenvalues from non-physical recoveries are clipped at zero
    for the square roots.
    """
    if a.dimension != b.dimension:
        raise DomainError("fidelity requires equal dimensions")
    evals, evecs = np.linalg.eigh(a.matrix)
    sqrt_a = (evecs * np.sqrt(np.clip(evals, 0.0, None))) @ evecs.conj().T
    inner = sqrt_a @ b.matrix @ sqrt_a
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
    return ObservablesSummary(*map(float, summaries(measurements.real_vector())))


def exact_measurement_set(params: model.ModelParams) -> MeasurementSet:
    """The seven exact thermal expectations, as a MeasurementSet."""
    values = {
        label: model.exact_expectation(params, PauliString.parse(label, params.n))
        for label in LABELS
    }
    return MeasurementSet(values=values)

