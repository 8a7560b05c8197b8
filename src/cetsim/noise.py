"""Depolarising noise, its partial reversal, and readout decay.

The channel model is global depolarisation with residual polarisation
eta: rho_eps = (1 - eta) I/D + eta rho.  Because the channel is affine
and invertible for eta > 0, scaling the traceless part back up by a
calibrated factor recovers the ideal state up to statistical error;
over-correction can push eigenvalues negative, which is reported rather
than hidden.

Readout decay is modelled per observable as exp(-tau / T2) with tau the
measurement duration, optionally including an exp(-tau / T1) envelope.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass

import numpy as np

from .engine import StateVector
from .errors import DomainError, NonPhysicalStateError, check_unit

logger = logging.getLogger(__name__)

_HERMITIAN_TOL = 1e-10
_TRACE_TOL = 1e-9
_EIG_TOL = 1e-10

#: Measurement durations (seconds) of the standard readout set, used when
#: no explicit decay table is supplied.
DEFAULT_DURATIONS: dict[str, float] = {
    "Z1": 0.35,
    "Z2": 0.46,
    "Z3": 0.57,
    "Z1Z2": 0.62,
    "Z2Z3": 0.58,
    "Z1Z3": 0.76,
    "Z1Z2Z3": 0.59,
    "X1": 0.37,
    "X2": 0.49,
    "X3": 0.63,
    "Y1": 0.37,
    "Y2": 0.49,
    "Y3": 0.63,
}

DEFAULT_T2 = 1.0


@dataclass(frozen=True)
class DensityMatrix:
    """A trace-one Hermitian matrix; positivity is checked, not enforced.

    Recovery can legitimately produce matrices with small negative
    eigenvalues, so `is_physical` is a queryable flag rather than a
    constructor requirement.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = self.matrix
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DomainError(f"density matrix must be square, got {m.shape}")
        if not m.size:
            raise DomainError("density matrix must not be empty")
        if not np.max(np.abs(m - m.conj().T)) <= _HERMITIAN_TOL:
            raise DomainError("density matrix is not Hermitian")
        check_unit(complex(np.trace(m)), _TRACE_TOL, DomainError,
                   "density matrix trace is")

    @classmethod
    def from_state(cls, state) -> "DensityMatrix":
        """Outer product |psi><psi| of a StateVector or amplitude array."""
        amps = state.amplitudes if isinstance(state, StateVector) else np.asarray(state)
        amps = amps.astype(complex)
        check_unit(np.linalg.norm(amps), _TRACE_TOL, DomainError, "state norm is")
        return cls(np.outer(amps, amps.conj()))

    @classmethod
    def maximally_mixed(cls, dimension: int) -> "DensityMatrix":
        if dimension < 1:
            raise DomainError("dimension must be >= 1")
        return cls(np.eye(dimension, dtype=complex) / dimension)

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    def purity(self) -> float:
        return float(np.real(np.trace(self.matrix @ self.matrix)))

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.matrix)[0])

    @property
    def is_physical(self) -> bool:
        return self.min_eigenvalue() >= -_EIG_TOL


def depolarize(rho: DensityMatrix, eta: float) -> DensityMatrix:
    """Mix rho with the maximally mixed state, keeping polarisation eta."""
    if not 0.0 <= eta <= 1.0:
        raise DomainError(f"eta must be in [0, 1], got {eta}")
    mixed = DensityMatrix.maximally_mixed(rho.dimension).matrix
    return DensityMatrix((1.0 - eta) * mixed + eta * rho.matrix)


def estimate_eta(rho: DensityMatrix, mode: str = "exact") -> float:
    """Polarisation estimate from purity.

    "exact" inverts Tr rho^2 = eta^2 (1 - 1/D) + 1/D, assuming the clean
    state was pure.  "approx" returns sqrt(Tr rho^2), which drops the
    1/D floor and is the estimator used for recovery calibration.
    """
    purity = rho.purity()
    if mode == "approx":
        return math.sqrt(max(purity, 0.0))
    if mode != "exact":
        raise DomainError(f"unknown eta estimation mode {mode!r}")
    d = rho.dimension
    numerator = purity - 1.0 / d
    if numerator < 0.0:
        logger.warning(
            "purity %.6g below maximally mixed floor 1/%d; returning eta = 0",
            purity,
            d,
        )
        return 0.0
    return math.sqrt(numerator / (1.0 - 1.0 / d))


def recover(rho: DensityMatrix, lam: float) -> DensityMatrix:
    """Invert depolarisation with calibration factor lam in (0, 1].

    The map (rho - I/D)/lam + I/D preserves the trace for any lam;
    lam below the true polarisation overshoots and can leave the result
    non-physical, which is logged and left to the caller to inspect.
    """
    if not 0.0 < lam <= 1.0:
        raise DomainError(f"recovery factor must be in (0, 1], got {lam}")
    mixed = DensityMatrix.maximally_mixed(rho.dimension).matrix
    out = DensityMatrix((rho.matrix - mixed) / lam + mixed)
    if not out.is_physical:
        logger.warning(
            "recovery with lam=%.6g produced min eigenvalue %.3e",
            lam,
            out.min_eigenvalue(),
        )
    return out


def projection_overlap(rho: DensityMatrix, state) -> float:
    """Normalised overlap <psi|rho|psi> / sqrt(Tr rho^2) with a pure target."""
    amps = state.amplitudes if isinstance(state, StateVector) else np.asarray(state)
    amps = amps.astype(complex)
    if amps.shape[0] != rho.dimension:
        raise DomainError(
            f"state dimension {amps.shape[0]} does not match rho ({rho.dimension})"
        )
    overlap = float(np.real(np.vdot(amps, rho.matrix @ amps)))
    return overlap / math.sqrt(rho.purity())


@dataclass(frozen=True)
class DecayProfile:
    """Exponential readout decay over one measurement of duration tau."""

    tau: float
    t2: float = DEFAULT_T2
    t1: float | None = None

    def __post_init__(self) -> None:
        if not self.tau >= 0.0:
            raise DomainError(f"duration must be >= 0, got {self.tau}")
        if not self.t2 > 0.0:
            raise DomainError(f"T2 must be > 0, got {self.t2}")
        if self.t1 is not None and not self.t1 > 0.0:
            raise DomainError(f"T1 must be > 0, got {self.t1}")

    @property
    def rate(self) -> float:
        """Decay exponent tau/T2, plus tau/T1 when T1 is set."""
        r = self.tau / self.t2
        if self.t1 is not None:
            r += self.tau / self.t1
        return r

    @property
    def factor(self) -> float:
        f = math.exp(-self.tau / self.t2)
        if self.t1 is not None:
            f *= math.exp(-self.tau / self.t1)
        return f


def default_decay_table(
    t2: float = DEFAULT_T2, t1: float | None = None
) -> dict[str, DecayProfile]:
    """Decay profiles for the standard readout set at the given T2 (and T1)."""
    return {
        label: DecayProfile(tau=tau, t2=t2, t1=t1)
        for label, tau in DEFAULT_DURATIONS.items()
    }


def load_decay_table(path) -> dict[str, DecayProfile]:
    """Read a decay table from JSON.

    Accepts {"label": tau} with optional top-level "t2"/"t1" keys, or
    {"label": {"tau": ..., "t2": ..., "t1": ...}} for full control.  Any
    other shape, a missing "tau" or a non-numeric value is a DomainError.
    """
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise DomainError("decay table must be a JSON object")
    try:
        default_t2 = float(raw.pop("t2", DEFAULT_T2))
        default_t1 = raw.pop("t1", None)
        default_t1 = float(default_t1) if default_t1 is not None else None
        table: dict[str, DecayProfile] = {}
        for label, entry in raw.items():
            if isinstance(entry, dict):
                t1 = entry.get("t1", default_t1)
                table[label] = DecayProfile(
                    tau=float(entry["tau"]),
                    t2=float(entry.get("t2", default_t2)),
                    t1=float(t1) if t1 is not None else None,
                )
            else:
                table[label] = DecayProfile(
                    tau=float(entry), t2=default_t2, t1=default_t1
                )
    except DomainError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"malformed decay table {path}: {exc!r}") from None
    return table


def clip_to_simplex(populations: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Zero negative populations and renormalise, reporting the clipped mass.

    Works on each row of (..., D) populations; every row's clipped mass is
    returned and the largest is logged, so silent repairs never happen.
    Callers that need strict positivity should raise instead.
    """
    p = np.asarray(populations, dtype=float)
    clipped_mass = -np.minimum(p, 0.0).sum(axis=-1)
    if (clipped_mass > 0.0).any():
        logger.info("clipped %.3e of negative population mass", clipped_mass.max())
    q = np.maximum(p, 0.0)
    total = q.sum(axis=-1, keepdims=True)
    if (total <= 0.0).any():
        raise NonPhysicalStateError("populations are entirely non-positive")
    return q / total, clipped_mass
