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
`z_signs` is the one product of spin columns: the diagonal of a Z string,
behind the bond energies, diagonal expectations and readout sign table.
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


@lru_cache(maxsize=64)
def spin_values(n: int) -> np.ndarray:
    """(2**n, n) array of z values for every configuration index."""
    idx = np.arange(2**n)
    shifts = n - 1 - np.arange(n)
    bits = (idx[:, None] >> shifts[None, :]) & 1
    z = (1.0 - 2.0 * bits).astype(float)
    z.setflags(write=False)  # cached; callers must not mutate
    return z


def z_signs(n: int, sites: Sequence[int]) -> np.ndarray:
    """(2**n,) +-1 diagonal of the Z string on `sites`; ones for no sites."""
    z = spin_values(n)
    signs = z[:, sites[0]].copy() if sites else np.ones(2**n)
    for site in sites[1:]:
        signs = signs * z[:, site]
    return signs


def _normalize_log_weights(
    log_w: np.ndarray, axis: int = -1
) -> tuple[np.ndarray, np.ndarray]:
    """Normalised exp(log_w) along `axis`, and the log of its normaliser.

    The maximum is subtracted before exponentiating and the weights are
    divided by their sum, so they sum to one to rounding at any scale of
    log_w; log Z = max + log(sum) is returned alongside.
    """
    top = log_w.max(axis=axis, keepdims=True)
    w = np.exp(log_w - top)
    total = w.sum(axis=axis, keepdims=True)
    return w / total, np.squeeze(top + np.log(total), axis=axis)


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
    """Bond sums a and field sums b, integers, of every configuration: (2**n,) each."""
    a = sum((z_signs(n, bond) for bond in bonds), np.zeros(2**n))
    b = spin_values(n).sum(axis=1)
    a.setflags(write=False)  # cached; callers must not mutate
    b.setflags(write=False)
    return a, b


def gibbs_tables(params: Sequence[ModelParams]) -> tuple[np.ndarray, ...]:
    """Energies and Gibbs weights, both (B, 2**n), and log Z (B,) of B points
    of one topology and size; each row of weights must sum to one."""
    first = params[0]
    if any((p.topology, p.n) != (first.topology, first.n) for p in params):
        raise DomainError("batched points must share topology and size")
    a, b = _level_counts(first.n, first.bonds())
    J, h, beta = np.array([(p.J, p.h, p.beta) for p in params]).T[..., None]
    e = J * a + h * b
    # Weights come from the differences J da + h db to the ground level.  On
    # the triangle da is 0 or +-4 and db 0, +-2, +-4, or +-6 when da = 0, so
    # each difference is rounded once and is exactly 0 at a degeneracy such
    # as h = 2J.  They are halved: one can reach twice the (|J| + |h|) n that
    # the guard keeps finite.
    ground = e.argmin(axis=1)[:, None]
    half = (J / 2) * (a - a[ground]) + (h / 2) * (b - b[ground])
    with np.errstate(over="ignore"):  # exp(-inf) = 0 is the weight
        weights, log_z = _normalize_log_weights((beta * half) * -2.0)
    check_unit(weights.sum(axis=1), _WEIGHT_SUM_TOL, NumericError,
               "Gibbs weights sum to")
    # the normaliser's log counts from the ground level
    return e, weights, log_z - beta[:, 0] * e.min(axis=1)


def gibbs_distribution(params: ModelParams) -> GibbsTable:
    """Exact Gibbs weights exp(-beta * E_k) / Z for every configuration."""
    e, weights, log_z = gibbs_tables([params])
    return GibbsTable(params, e[0], weights[0], float(log_z[0]))


def cets_amplitudes(params: ModelParams) -> np.ndarray:
    """Real amplitudes sqrt(p_k) of the coherent encoding of the Gibbs state."""
    return np.sqrt(gibbs_distribution(params).weights)


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


@dataclass(frozen=True)
class ChainConditionals:
    """Markov factorisation of an open-chain Gibbs distribution.

    table[i, prev_bit, bit] is P(bit at site i | bit at site i-1); the
    i = 0 rows both hold the unconditional marginal of the first site.
    Bit 0 encodes z = +1 throughout.
    """

    params: ModelParams
    table: np.ndarray


def chain_conditionals(params: ModelParams) -> ChainConditionals:
    """Transfer-matrix conditionals P(z_{i+1} | z_i), computed in log space.

    Suffix sums R_i(z) over the remaining chain keep every conditional a
    ratio of two finite log terms, so the factorisation is stable at
    large beta where raw Boltzmann factors overflow.
    """
    if params.topology != CHAIN:
        raise TopologyError("chain_conditionals requires chain topology")
    n, beta, J, h = params.n, params.beta, params.J, params.h
    z = np.array([1.0, -1.0])  # bit 0 -> z = +1

    # log T[z, z'] = -beta (J z z' + h z'), log f[z] = -beta h z
    log_t = -beta * (J * np.outer(z, z) + h * z[None, :])
    log_f = -beta * h * z

    log_r = np.zeros((n, 2))
    for i in range(n - 2, -1, -1):
        log_r[i] = _normalize_log_weights(log_t + log_r[i + 1][None, :], axis=1)[1]

    table = np.empty((n, 2, 2))
    table[0, 0] = table[0, 1] = _normalize_log_weights(log_f + log_r[0])[0]
    for i in range(1, n):
        table[i] = _normalize_log_weights(log_t + log_r[i][None, :], axis=1)[0]

    check_unit(table.sum(axis=2), _WEIGHT_SUM_TOL, NumericError,
               "chain conditionals sum to")
    return ChainConditionals(params=params, table=table)
