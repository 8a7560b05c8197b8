"""Exact state-vector execution and probe-qubit readout.

The register uses big-endian indexing: qubit 0 is the most significant
bit of the state index, so for a three-spin circuit the index reads as
the spin string b_1 b_2 b_3.

B registers are held as one (2, ..., 2, B) array whose axis q is qubit q.
A gate layout, each gate's (kind, target, controls) without its angle, is
compiled once per register size into a plan: each step's update and the
index tuples of its target's 0 and 1 halves with the controls at 1.  One
executor, `run_layout`, runs a plan in place through those views over a
(B, R) array of angles, one row of R rotation angles per register.  The
register is float64 unless a step is a Y letter, so a preparation circuit,
whose rotations are real, never goes complex.  `run_circuits` runs a
`synth.Circuit`'s layout, and `run_circuit` is its B = 1 call.

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
from functools import lru_cache

import numpy as np

from . import model, synth
from .errors import DomainError, NumericError
from .pauli import PauliString

_SQRT_HALF = math.sqrt(0.5)
#: numpy draws binomial counts as int64.
_MAX_SHOTS = int(np.iinfo(np.int64).max)


@dataclass
class StateVector:
    """Amplitudes over the computational basis states of one or more qubits:
    float64 from a circuit without a Y letter, complex otherwise."""

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        if np.ndim(self.amplitudes) != 1:
            raise DomainError("amplitudes must be a vector")
        # run_circuit hands over a strided row of its batch; the dot
        # products read one contiguous buffer
        self.amplitudes = np.ascontiguousarray(self.amplitudes)
        size = len(self.amplitudes)
        if size < 2 or size & (size - 1):
            raise DomainError(
                f"amplitude vector length must be a power of two >= 2, got {size}"
            )

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


def _rotate(a0, a1, turns):
    cos, sin = next(turns)
    return cos * a0 - sin * a1, sin * a0 + cos * a1


#: Each step kind's new 0 and 1 halves of its target from the old; a
#: rotation takes the next (cos, sin) pair of (B,) rows from `turns`.
_UPDATES = {
    "rot": _rotate,
    "h": lambda a0, a1, turns: (_SQRT_HALF * (a0 + a1), _SQRT_HALF * (a0 - a1)),
    "X": lambda a0, a1, turns: (a1.copy(), a0.copy()),
    "Y": lambda a0, a1, turns: (-1j * a1, 1j * a0),
    "Z": lambda a0, a1, turns: (a0, -a1),
}


@lru_cache(maxsize=128)
def _plan(qubits: int, layout: tuple) -> tuple[type, int, tuple]:
    """The register dtype, the rotation count and the steps of `layout` on
    `qubits` qubits, compiled once per pair."""
    steps = []
    for kind, target, controls in layout:
        if kind not in _UPDATES:
            raise DomainError(f"unknown step kind {kind!r}")
        # an index of `qubits` or -1 would address the batch axis
        touched = (target, *controls)
        if len(set(touched)) < len(touched) or not all(0 <= q < qubits for q in touched):
            raise DomainError(
                f"step {(kind, target, controls)} must touch distinct qubits below {qubits}"
            )
        index = [slice(None)] * (qubits + 1)  # the last axis is the batch
        for c in controls:
            index[c] = 1
        index[target] = 0
        zero = tuple(index)
        index[target] = 1
        steps.append((_UPDATES[kind], zero, tuple(index)))
    kinds = [kind for kind, _, _ in layout]
    return complex if "Y" in kinds else float, kinds.count("rot"), tuple(steps)


def run_layout(qubits: int, layout: tuple, angles) -> np.ndarray:
    """Execute a gate layout on |0...0> of `qubits` qubits over (B, R)
    angles; (B, 2**qubits) amplitudes, float64 unless a step is a Y letter.

    `layout` holds each gate's (kind, target, controls) in order, as
    `synth.layout` and `synth.Circuit.layout` give it: kind "rot", "h" or
    a Pauli letter, its qubits distinct and below `qubits` (else a
    `DomainError`).  Row b of the float array np.asarray reads from
    `angles` holds one angle per "rot" step, in step order, for register
    b.  B >= 1 and every angle is finite.
    """
    dtype, rotations, steps = _plan(qubits, layout)
    try:
        angles = np.asarray(angles, dtype=float)
    except ValueError:  # ragged rows
        angles = np.empty(0)
    if angles.ndim != 2 or not len(angles) or angles.shape[1] != rotations:
        raise DomainError(f"angles must be one or more rows of {rotations} values")
    if not np.isfinite(angles).all():
        b, r = np.argwhere(~np.isfinite(angles))[0]
        raise DomainError(f"angle {r} of row {b} must be finite, got {angles[b, r]}")
    batch = len(angles)
    amps = np.zeros((2,) * qubits + (batch,), dtype=dtype)
    amps[(0,) * qubits] = 1.0
    turns = zip(np.cos(angles.T), np.sin(angles.T))
    for update, zero, one in steps:
        a0, a1 = amps[zero], amps[one]
        a0[...], a1[...] = update(a0, a1, turns)
    return amps.reshape(-1, batch).T


def run_circuits(circuit: synth.Circuit, angles) -> np.ndarray:
    """Execute one circuit on |0...0> over (B, R) angles; (B, 2**n) amplitudes.

    The circuit's layout runs through `run_layout`, so the amplitudes are
    float64 unless a gate is a Y letter.  Row b of `angles` holds one angle
    per rotation gate, in gate order, for register b; the gates' own angles
    are not read.  R is the circuit's rotation count.
    """
    return run_layout(circuit.qubit_count, circuit.layout, angles)


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
