"""Exact thermodynamics of small classical Ising clusters.

Everything downstream (circuit synthesis, readout checks, reconstruction)
is validated against this module: it enumerates all 2**n spin
configurations of a triangle or open chain, builds the Gibbs distribution
in log space, and evaluates observables and entropy directly.

Conventions
-----------
Spins are numbered 0..n-1 from the most significant bit of the
configuration index, and bit value 0 encodes spin up (z = +1).  The
configuration index therefore reads as the bit string b_0 b_1 ... b_{n-1}.
`z_signs` reads the parity of a set of spins off the configuration index:
the diagonal of a Z string, behind `spin_values`, diagonal expectations and
the readout sign table.  The integer level counts come from the same bits.
The energy is

    E = J * sum_(i,j) z_i z_j + h * sum_i z_i

with the bond sum running over the interaction graph (all three pairs for
the triangle, nearest neighbours for the open chain).  J > 0 frustrates
the triangle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import DomainError, NumericError, TopologyError, check_unit

TRIANGLE = "triangle"
CHAIN = "chain"

_WEIGHT_SUM_TOL = 1e-12


@dataclass(frozen=True)
class ModelParams:
    """Couplings and inverse temperature of one Ising cluster.

    beta >= 0; beta = 0 is the infinite-temperature (uniform) limit.
    The triangle topology is fixed at n = 3; chains support any n >= 1.
    """

    J: float
    h: float
    beta: float
    n: int = 3
    topology: str = TRIANGLE

    def __post_init__(self) -> None:
        for name in ("J", "h", "beta"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise DomainError(f"{name} must be finite, got {value!r}")
        if self.beta < 0.0:
            raise DomainError(f"beta must be >= 0, got {self.beta}")
        if self.topology not in (TRIANGLE, CHAIN):
            raise TopologyError(f"unknown topology {self.topology!r}")
        if self.n < 1:
            raise DomainError(f"n must be >= 1, got {self.n}")
        if self.topology == TRIANGLE and self.n != 3:
            raise TopologyError("triangle topology requires n = 3")
        # every exponent beta * E_k must be a finite float; |E_k| is at most
        # (|J| + |h|) n.  Python floats overflow to inf without a warning.
        beta, J, h = float(self.beta), float(self.J), float(self.h)
        if not math.isfinite(beta * ((abs(J) + abs(h)) * self.n)):
            raise DomainError(
                f"beta * energy overflows at beta={beta!r}, J={J!r}, h={h!r}"
            )

    def bonds(self) -> tuple[tuple[int, int], ...]:
        """Interaction pairs of the cluster."""
        if self.topology == TRIANGLE:
            return ((0, 1), (1, 2), (0, 2))
        return tuple((i, i + 1) for i in range(self.n - 1))


def _bit_counts(x: np.ndarray) -> np.ndarray:
    """Raised bits of each element of a uint32 array (a SWAR population count)."""
    x = x - ((x >> 1) & 0x55555555)
    x = (x & 0x33333333) + ((x >> 2) & 0x33333333)
    x = (x + (x >> 4)) & 0x0F0F0F0F
    return (x * 0x01010101) >> 24


def z_signs(n: int, sites: Sequence[int]) -> np.ndarray:
    """(2**n,) +-1 diagonal of the Z string on `sites`, the parity of their
    bits in each configuration index; ones for no sites."""
    mask = 0
    for site in sites:
        mask ^= 1 << (n - 1 - site)
    return np.where(_bit_counts(np.arange(2**n, dtype=np.uint32) & mask) & 1, -1.0, 1.0)


@lru_cache(maxsize=64)
def spin_values(n: int) -> np.ndarray:
    """(2**n, n) array of z values for every configuration index."""
    z = np.stack([z_signs(n, (site,)) for site in range(n)], axis=1)
    z.setflags(write=False)  # cached; callers must not mutate
    return z


@dataclass(frozen=True)
class GibbsTable:
    """Gibbs distribution of one parameter point.

    weights sum to one; log_partition is log Z evaluated in the log
    domain, so the table stays finite at any beta >= 0.
    """

    params: ModelParams
    energies: np.ndarray
    weights: np.ndarray
    log_partition: float


@lru_cache(maxsize=64)
def _level_counts(n: int, bonds: tuple[tuple[int, int], ...]) -> tuple[np.ndarray, ...]:
    """Bond sums a and field sums b, integers, of every configuration: (2**n,) each.

    b is n less twice the index's raised bits, and a the number of bonds less
    twice those whose bits differ, which index ^ (index >> d) marks for every
    bond of length d.  A uint32 index holds every table that fits in memory.
    """
    index = np.arange(2**n, dtype=np.uint32)
    unlike = np.zeros(2**n)
    for d in {j - i for i, j in bonds}:  # bond lengths
        mask = sum(1 << (n - 1 - j) for i, j in bonds if j - i == d)  # later sites
        unlike += _bit_counts((index ^ (index >> d)) & mask)
    a = len(bonds) - 2.0 * unlike
    b = n - 2.0 * _bit_counts(index)
    a.setflags(write=False)  # cached; callers must not mutate
    b.setflags(write=False)
    return a, b


def gibbs_tables(params: ModelParams, beta: Sequence[float],
                 h: Sequence[float]) -> tuple[np.ndarray, ...]:
    """Energies and Gibbs weights, both (B, 2**n), and log Z (B,) of B points at
    the (B,) `beta` and `h`, with `params`' J, topology and size (not its beta
    and h); each row of weights must sum to one."""
    a, b = _level_counts(params.n, params.bonds())
    J, beta, h = params.J, np.array(beta, float)[:, None], np.array(h, float)[:, None]
    e = J * a + h * b
    # Weights come from the differences J da + h db to the ground level.  On
    # the triangle da is 0 or +-4 and db 0, +-2, +-4, or +-6 when da = 0, so
    # each difference is rounded once and is exactly 0 at a degeneracy such
    # as h = 2J.  They are halved: one can reach twice the (|J| + |h|) n that
    # the guard keeps finite.
    ground = e.argmin(axis=1)[:, None]
    half = (J / 2) * (a - a[ground]) + (h / 2) * (b - b[ground])
    with np.errstate(over="ignore"):  # exp(-inf) = 0 is the weight
        log_w = (beta * half) * -2.0
    # less the largest, so no exponent overflows
    top = log_w.max(axis=1, keepdims=True)
    weights = np.exp(log_w - top)
    total = weights.sum(axis=1, keepdims=True)
    weights /= total
    log_z = (top + np.log(total))[:, 0]
    check_unit(weights.sum(axis=1), _WEIGHT_SUM_TOL, NumericError,
               "Gibbs weights sum to")
    # the normaliser's log counts from the ground level
    return e, weights, log_z - beta[:, 0] * e.min(axis=1)


def gibbs_distribution(params: ModelParams) -> GibbsTable:
    """Exact Gibbs weights exp(-beta * E_k) / Z for every configuration."""
    e, weights, log_z = gibbs_tables(params, [params.beta], [params.h])
    return GibbsTable(params, e[0], weights[0], float(log_z[0]))


def exact_expectation(params: ModelParams, op) -> complex:
    """Thermal expectation of a Pauli string in the coherent encoding.

    Diagonal strings (I/Z only) are classical averages over the Gibbs
    weights.  Off-diagonal strings are evaluated as <psi| P |psi> on the
    amplitude vector sqrt(p), which is the quantity the probe readout
    reports for the prepared state.
    """
    if op.num_qubits != params.n:
        raise DomainError(
            f"operator acts on {op.num_qubits} qubits, model has {params.n}"
        )
    table = gibbs_distribution(params)
    if op.is_diagonal:
        signs = z_signs(params.n, [i for i, c in enumerate(op.letters) if c == "Z"])
        return complex(float(np.dot(table.weights, signs)))
    psi = np.sqrt(table.weights).astype(complex)
    return complex(np.vdot(psi, op.apply(psi)))


def shannon_entropy(p: np.ndarray) -> np.ndarray:
    """-sum p ln p over the last axis of non-negative populations, 0 ln 0 = 0;
    a pure distribution gives +0.0."""
    return 0.0 - (p * np.log(np.where(p > 0.0, p, 1.0))).sum(axis=-1)


def exact_entropy(params: ModelParams) -> float:
    """Shannon entropy -sum p ln p of the Gibbs distribution (units of k_B)."""
    return float(shannon_entropy(gibbs_distribution(params).weights))
