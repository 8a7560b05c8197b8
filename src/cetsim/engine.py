"""Exact state-vector execution and probe-qubit readout.

The register uses big-endian indexing: qubit 0 is the most significant
bit of the state index, so for a three-spin circuit the index reads as
the spin string b_1 b_2 b_3.

One gate kernel acts in place, through views, on B registers held as
a (2, ..., 2, B) array whose axis q is qubit q.  `run_circuits` runs one
circuit over B rows of angles at once; `run_circuit` is its B = 1 call.

Readout of an operator U on a prepared state |psi> goes through an
ancilla probe: the register is driven to (|0>|psi> + |1> U|psi>)/sqrt(2)
and <U> is read off the probe's coherence, <U> = 2 <0-block|1-block>.
For Hermitian U this equals the ordinary expectation <psi|U|psi>.
The pipeline reads diagonal strings from populations instead; the probe
is its cross-check and the path for off-diagonal operators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import model, synth
from .errors import DomainError, NumericError
from .pauli import PauliString

_SQRT_HALF = math.sqrt(0.5)
#: numpy draws binomial counts as int64.
_MAX_SHOTS = int(np.iinfo(np.int64).max)


@dataclass
class StateVector:
    """Complex amplitudes over computational basis states."""

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        # run_circuit hands over a strided row of its batch; the dot
        # products read one contiguous buffer
        self.amplitudes = np.ascontiguousarray(self.amplitudes)
        size = self.amplitudes.shape[0]
        if self.amplitudes.ndim != 1 or size & (size - 1) or size == 0:
            raise DomainError("amplitude vector length must be a power of two")

    @classmethod
    def zero(cls, num_qubits: int) -> "StateVector":
        if num_qubits < 1:
            raise DomainError("need at least one qubit")
        amps = np.zeros(2**num_qubits, dtype=complex)
        amps[0] = 1.0
        return cls(amps)

    @property
    def qubit_count(self) -> int:
        return int(self.amplitudes.shape[0]).bit_length() - 1

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


def _apply(amps: np.ndarray, gate: synth.Gate, cos=None, sin=None) -> None:
    """Apply one gate in place to a (2, ..., 2, B) batch of registers.

    `cos` and `sin` hold each register's angle for a "rot" gate.
    """
    sel = [slice(None)] * amps.ndim
    for c in gate.controls:
        sel[c] = 1
    sel[gate.target] = 0
    a0 = amps[tuple(sel)]
    sel[gate.target] = 1
    a1 = amps[tuple(sel)]
    if gate.kind == "rot":
        a0[...], a1[...] = cos * a0 - sin * a1, sin * a0 + cos * a1
    elif gate.kind == "h":
        a0[...], a1[...] = _SQRT_HALF * (a0 + a1), _SQRT_HALF * (a0 - a1)
    elif gate.letter == "X":
        a0[...], a1[...] = a1.copy(), a0.copy()
    elif gate.letter == "Y":
        a0[...], a1[...] = -1j * a1, 1j * a0
    else:  # Z
        np.negative(a1, out=a1)


def run_circuits(
    circuit: synth.Circuit, angles: Sequence[Sequence[float]]
) -> np.ndarray:
    """Execute one circuit on |0...0> over B rows of angles; (B, 2**n) amplitudes.

    Row b holds one angle per rotation gate, in gate order, for register
    b; the gates' own angles are not read.
    """
    width = len(circuit.angles)
    if len(angles) == 0 or any(len(row) != width for row in angles):
        raise DomainError(f"angles must be one or more rows of {width} values")
    n, batch = circuit.qubit_count, len(angles)
    amps = np.zeros((2,) * n + (batch,), dtype=complex)
    amps[(0,) * n] = 1.0
    # math.cos/sin, not numpy's, so the amplitudes follow the libm values of
    # the exported angles; `turns` yields each rotation gate's (B,) row
    flat = [theta for row in angles for theta in row]
    cos = np.fromiter(map(math.cos, flat), complex, len(flat))
    sin = np.fromiter(map(math.sin, flat), complex, len(flat))
    turns = zip(cos.reshape(batch, width).T, sin.reshape(batch, width).T)
    for gate in circuit.gates:
        _apply(amps, gate, *(next(turns) if gate.kind == "rot" else ()))
    return amps.reshape(-1, batch).T


def run_circuit(circuit: synth.Circuit) -> StateVector:
    """Execute a circuit on |0...0>: the one-row call of run_circuits."""
    return StateVector(run_circuits(circuit, [circuit.angles])[0])


def direct_expectation(state: StateVector, op: PauliString) -> complex:
    """<psi| P |psi> evaluated without the probe."""
    if op.num_qubits != state.qubit_count:
        raise DomainError(
            f"operator acts on {op.num_qubits} qubits, state has {state.qubit_count}"
        )
    return complex(np.vdot(state.amplitudes, op.apply(state.amplitudes)))


@dataclass(frozen=True)
class ProbeReadout:
    """One probe measurement: complex value plus the operator label."""

    value: complex
    label: str


def sample_shots(value: complex, shots: int, seed: int | None) -> complex:
    """Finite-sample estimate of a probe coherence `value`.

    The real and imaginary parts are replaced by the means of `shots`
    probe X and Y readings, drawn binomially from a generator seeded
    with `seed`.  Shots run from 1 to the largest int64; a seed, when
    given, is >= 0.
    """
    if not 1 <= shots <= _MAX_SHOTS:
        raise DomainError(f"shots must be in [1, {_MAX_SHOTS}], got {shots}")
    if seed is not None and seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    p_x = min(max(0.5 * (1.0 + value.real), 0.0), 1.0)
    p_y = min(max(0.5 * (1.0 + value.imag), 0.0), 1.0)
    re = 2.0 * rng.binomial(shots, p_x) / shots - 1.0
    im = 2.0 * rng.binomial(shots, p_y) / shots - 1.0
    return complex(re, im)


def probe_expectation(
    params: model.ModelParams,
    op: PauliString,
    shots: int | None = None,
    seed: int | None = None,
) -> ProbeReadout:
    """Measure a Pauli string on the prepared state via the probe qubit.

    Synthesises the preparation circuit with the probe prepended, applies
    the operator controlled on the probe, and reads <U> from the probe
    coherence.  With `shots` set, the value is replaced by its
    finite-sample estimate from `sample_shots`.
    """
    if op.num_qubits != params.n:
        raise DomainError(
            f"operator acts on {op.num_qubits} qubits, model has {params.n}"
        )
    circuit = synth.build_circuit(params, include_probe=True)
    gates = list(circuit.gates)
    for site, letter in enumerate(op.letters):
        if letter != "I":
            gates.append(
                synth.Gate(kind="pauli", target=site + 1, controls=(0,), letter=letter)
            )
    state = run_circuit(
        synth.Circuit(qubit_count=circuit.qubit_count, gates=tuple(gates))
    )
    half = 1 << params.n
    value = 2.0 * complex(np.vdot(state.amplitudes[:half], state.amplitudes[half:]))
    if abs(value) > 1.0 + 1e-10:
        raise NumericError(f"probe coherence {value!r} exceeds unit magnitude")
    if shots is not None:
        value = sample_shots(value, shots, seed)
    return ProbeReadout(value=value, label=op.label())
