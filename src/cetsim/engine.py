"""Exact state-vector execution and probe-qubit readout.

The register uses big-endian indexing: qubit 0 is the most significant
bit of the state index, so for a three-spin circuit the index reads as
the spin string b_1 b_2 b_3.  Gates act in place on a single amplitude
buffer; running a circuit allocates exactly one vector of length
2**qubit_count.

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


def _pair_indices(
    num_qubits: int, target: int, controls: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the (bit=0, bit=1) amplitude pairs the gate acts on."""
    t_bit = 1 << (num_qubits - 1 - target)
    idx = np.arange(1 << num_qubits)
    mask = (idx & t_bit) == 0
    for c in controls:
        mask &= (idx & (1 << (num_qubits - 1 - c))) != 0
    i0 = idx[mask]
    return i0, i0 | t_bit


def apply_gate(state: StateVector, gate: synth.Gate) -> StateVector:
    """Apply one gate in place and return the same StateVector."""
    n = state.qubit_count
    touched = (gate.target, *gate.controls)
    if max(touched) >= n:
        raise DomainError(f"gate touches qubit {max(touched)}, register has {n}")
    i0, i1 = _pair_indices(n, gate.target, gate.controls)
    amps = state.amplitudes
    a0 = amps[i0]
    a1 = amps[i1]
    if gate.kind == "rot":
        c, s = math.cos(gate.theta), math.sin(gate.theta)
        amps[i0] = c * a0 - s * a1
        amps[i1] = s * a0 + c * a1
    elif gate.kind == "h":
        amps[i0] = _SQRT_HALF * (a0 + a1)
        amps[i1] = _SQRT_HALF * (a0 - a1)
    elif gate.letter == "X":
        amps[i0] = a1
        amps[i1] = a0
    elif gate.letter == "Y":
        amps[i0] = -1j * a1
        amps[i1] = 1j * a0
    else:  # Z
        amps[i1] = -a1
    return state


def run_circuit(circuit: synth.Circuit) -> StateVector:
    """Execute a circuit on |0...0>."""
    state = StateVector.zero(circuit.qubit_count)
    for gate in circuit.gates:
        apply_gate(state, gate)
    return state


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
