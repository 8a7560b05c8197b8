"""Compile Ising parameters into amplitude-preparation circuits.

The target state carries sqrt(p_k) on basis state |k>, with p the Gibbs
distribution of the cluster.  All amplitudes are non-negative, so real
rotations

    R(theta) = [[cos t, -sin t], [sin t, cos t]]

suffice.  A rotation splits the mass of its branch between bit 0 and bit
1: cos^2 t is the conditional probability of bit 0, so the angles are the
amplitude-encoding tree of Grover and Rudolph (arXiv:quant-ph/0208112)
over the Gibbs weights.  For the triangle `triangle_angles` reads the
tree off B points' weights at once: one split for the first spin, two for
the second given the first, and, since the energy is symmetric in the
spins, three for the third given how many of the first two bits are
raised.  Sharing the single-bit dependence between uncontrolled and
controlled gates telescopes the construction to seven rotations.  Open
chains factor through nearest-neighbour conditionals and need 2n - 1
rotations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import model
from .errors import CapacityError, DomainError, NumericError, TopologyError

#: Largest open chain the synthesiser accepts (state vectors stay < 32 MiB).
MAX_CHAIN = 20

_CLAMP_TOL = 1e-12
_FORMAT_HEADER = "#cets v1"


def rotation_angle(p0: float) -> float:
    """Angle t in [0, pi/2] with cos^2 t = p0.

    p0 slightly outside [0, 1] (within 1e-12) is clamped; anything
    further out indicates a broken upstream probability and raises.
    """
    if p0 < 0.0 or p0 > 1.0:
        if p0 < -_CLAMP_TOL or p0 > 1.0 + _CLAMP_TOL:
            raise NumericError(f"cos^2 argument {p0!r} outside [0, 1]")
        p0 = min(max(p0, 0.0), 1.0)
    return math.acos(math.sqrt(p0))


@dataclass(frozen=True)
class AngleSet:
    """The six primitive angles of the triangle construction.

    theta_x sets the first spin; theta_y / theta_z set the second spin
    conditioned on the first; theta_0/1/2 set the third spin for 0, 1 or
    2 of the first two bits raised.
    """

    theta_x: float
    theta_y: float
    theta_z: float
    theta_0: float
    theta_1: float
    theta_2: float


def _split_angles(weights: np.ndarray) -> np.ndarray:
    """(B, 6) `AngleSet` angles of B triangle points' (B, 8) Gibbs weights.

    Each is arctan2(sqrt(mass of bit 1), sqrt(mass of bit 0)) over its
    branch, so a branch whose masses both underflow to 0 gets a finite
    angle, where arccos(sqrt(p0)) would read p0 = 0/0.
    """
    pairs = weights[:, ::2] + weights[:, 1::2]  # b3 summed out
    # (mass of bit 0, mass of bit 1) of b1; of b2 given b1 = 0 and 1; and
    # of b3 given b1 b2 = 00, 01 and 11
    masses = np.concatenate((pairs[:, ::2] + pairs[:, 1::2], pairs,
                             weights[:, :4], weights[:, 6:]), axis=1)
    roots = np.sqrt(masses)
    return np.arctan2(roots[:, 1::2], roots[:, ::2])


def triangle_angles(weights: np.ndarray) -> np.ndarray:
    """(B, 7) rotation angles, in gate order, of B triangle points' (B, 8)
    Gibbs weights: the six split angles, telescoped."""
    x, y, z, t0, t1, t2 = _split_angles(weights).T
    d1 = t1 - t0
    return np.array([x, y, z - y, t0, d1, d1, (t2 - t1) - d1]).T


def cets_angles(params: model.ModelParams) -> AngleSet:
    """Rotation angles preparing the triangle's coherent Gibbs encoding."""
    if params.topology != model.TRIANGLE:
        raise TopologyError("cets_angles is defined for the triangle")
    return AngleSet(*_split_angles(model.gibbs_tables([params])[1])[0].tolist())


@dataclass(frozen=True)
class Gate:
    """One primitive gate: a real rotation, a Hadamard or a Pauli letter.

    Controls fire on bit value 1.  `theta` is used by "rot" gates,
    `letter` by "pauli" gates.
    """

    kind: str
    target: int
    controls: tuple[int, ...] = ()
    theta: float | None = None
    letter: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("rot", "h", "pauli"):
            raise DomainError(f"unknown gate kind {self.kind!r}")
        if self.target < 0 or any(c < 0 for c in self.controls):
            raise DomainError("qubit indices must be non-negative")
        if self.target in self.controls:
            raise DomainError(f"target {self.target} also listed as control")
        if len(set(self.controls)) != len(self.controls):
            raise DomainError("duplicate control qubits")
        if self.kind == "rot" and self.theta is None:
            raise DomainError("rot gate requires theta")
        if self.kind == "pauli" and self.letter not in ("X", "Y", "Z"):
            raise DomainError(f"pauli gate requires letter X/Y/Z, got {self.letter!r}")


@dataclass(frozen=True)
class Circuit:
    """An ordered gate list on `qubit_count` qubits.

    `params` and `include_probe` record how the circuit was synthesised
    (None for hand-built circuits).
    """

    qubit_count: int
    gates: tuple[Gate, ...]
    params: model.ModelParams | None = None
    include_probe: bool = False

    def __post_init__(self) -> None:
        if self.qubit_count < 1:
            raise DomainError("circuit needs at least one qubit")
        for gate in self.gates:
            touched = (gate.target, *gate.controls)
            if max(touched) >= self.qubit_count:
                raise DomainError(
                    f"gate touches qubit {max(touched)}, circuit has {self.qubit_count}"
                )

    @property
    def angles(self) -> list[float]:
        """The rotation gates' angles in gate order: one row of engine.run_circuits."""
        return [gate.theta for gate in self.gates if gate.kind == "rot"]


def rotation_angles(params: model.ModelParams) -> list[float]:
    """The rotation angles of a point's preparation circuit, in gate order.

    The triangle's seven telescope the six angles of `cets_angles`; a
    chain's 2n - 1 realise its nearest-neighbour conditionals, one
    uncontrolled and one controlled rotation per site after the first.
    """
    if params.topology == model.TRIANGLE:
        return triangle_angles(model.gibbs_tables([params])[1])[0].tolist()
    if params.n > MAX_CHAIN:
        raise CapacityError(f"chains support n <= {MAX_CHAIN}, got {params.n}")
    table = model.chain_conditionals(params).table
    angles = [rotation_angle(table[0, 0, 0])]
    for i in range(1, params.n):
        t0 = rotation_angle(table[i, 0, 0])
        angles += (t0, rotation_angle(table[i, 1, 0]) - t0)
    return angles


def _layout(params: model.ModelParams, off: int) -> list[tuple[int, tuple[int, ...]]]:
    """(target, controls) of each rotation, in the order of rotation_angles,
    with the spins on qubits off, off + 1, ..."""
    if params.topology == model.TRIANGLE:
        q1, q2, q3 = off, off + 1, off + 2
        return [(q1, ()), (q2, ()), (q2, (q1,)), (q3, ()), (q3, (q1,)), (q3, (q2,)),
                (q3, (q1, q2))]
    layout = [(off, ())]
    for q in range(off + 1, off + params.n):
        layout += ((q, ()), (q, (q - 1,)))
    return layout


def build_circuit(
    params: model.ModelParams, include_probe: bool = False, angles=None
) -> Circuit:
    """Preparation circuit of a triangle or an open chain.

    Qubits are the spins in order; with include_probe an extra qubit 0
    is prepended in (|0> + |1>)/sqrt(2) and the spins shift up by one.
    `angles` are the point's `rotation_angles` when already formed.
    """
    if angles is None:
        angles = rotation_angles(params)
    off = 1 if include_probe else 0
    gates = [Gate(kind="h", target=0)] if include_probe else []
    gates += [
        Gate(kind="rot", target=target, controls=controls, theta=theta)
        for (target, controls), theta in zip(_layout(params, off), angles)
    ]
    return Circuit(
        qubit_count=params.n + off,
        gates=tuple(gates),
        params=params,
        include_probe=include_probe,
    )


def build_triangle_circuit(
    params: model.ModelParams, include_probe: bool = False
) -> Circuit:
    """Seven-rotation preparation circuit for the frustrated triangle."""
    if params.topology != model.TRIANGLE:
        raise TopologyError("build_triangle_circuit requires triangle topology")
    return build_circuit(params, include_probe)


def build_chain_circuit(
    params: model.ModelParams, include_probe: bool = False
) -> Circuit:
    """(2n - 1)-rotation preparation circuit for an open chain."""
    if params.topology != model.CHAIN:
        raise TopologyError("build_chain_circuit requires chain topology")
    return build_circuit(params, include_probe)


def _format_float(value: float) -> str:
    return f"{value:.17g}"


def export_circuit(circuit: Circuit) -> str:
    """Render a circuit in the plain-text .cets format.

    The format is line-oriented: a version header, one metadata line,
    then one gate per line in execution order.  Exports are canonical,
    so export(parse(text)) == text for any exported text.
    """
    lines = [_FORMAT_HEADER]
    meta = [f"qubits={circuit.qubit_count}"]
    if circuit.params is not None:
        p = circuit.params
        meta += [
            f"topology={p.topology}",
            f"n={p.n}",
            f"J={_format_float(p.J)}",
            f"h={_format_float(p.h)}",
            f"beta={_format_float(p.beta)}",
            f"probe={'true' if circuit.include_probe else 'false'}",
        ]
    lines.append(" ".join(meta))
    for gate in circuit.gates:
        controls = ",".join(str(c) for c in gate.controls)
        if gate.kind == "rot":
            lines.append(
                f"ROT target={gate.target} controls=[{controls}] "
                f"theta={_format_float(gate.theta)}"
            )
        elif gate.kind == "h":
            lines.append(f"H target={gate.target} controls=[{controls}]")
        else:
            lines.append(
                f"PAULI target={gate.target} controls=[{controls}] letter={gate.letter}"
            )
    return "\n".join(lines) + "\n"


def _parse_fields(parts: list[str], line_no: int) -> dict[str, str]:
    fields: dict[str, str] = {}
    for part in parts:
        key, sep, value = part.partition("=")
        if not sep:
            raise DomainError(f"malformed field {part!r} on line {line_no}")
        fields[key] = value
    return fields


def parse_circuit(text: str) -> Circuit:
    """Parse the .cets format produced by export_circuit."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != _FORMAT_HEADER:
        raise DomainError(f"missing {_FORMAT_HEADER!r} header")
    if len(lines) < 2:
        raise DomainError("missing metadata line")
    meta = _parse_fields(lines[1].split(), line_no=2)
    if "qubits" not in meta:
        raise DomainError("metadata line lacks qubits=")
    qubit_count = int(meta["qubits"])
    params = None
    include_probe = False
    if "topology" in meta:
        params = model.ModelParams(
            J=float(meta["J"]),
            h=float(meta["h"]),
            beta=float(meta["beta"]),
            n=int(meta["n"]),
            topology=meta["topology"],
        )
        include_probe = meta.get("probe") == "true"
    gates: list[Gate] = []
    for line_no, line in enumerate(lines[2:], start=3):
        parts = line.split()
        kind = parts[0]
        fields = _parse_fields(parts[1:], line_no)
        raw = fields.get("controls", "[]").strip("[]")
        controls = tuple(int(c) for c in raw.split(",")) if raw else ()
        target = int(fields["target"])
        if kind == "ROT":
            gates.append(
                Gate(kind="rot", target=target, controls=controls,
                     theta=float(fields["theta"]))
            )
        elif kind == "H":
            gates.append(Gate(kind="h", target=target, controls=controls))
        elif kind == "PAULI":
            gates.append(
                Gate(kind="pauli", target=target, controls=controls,
                     letter=fields["letter"])
            )
        else:
            raise DomainError(f"unknown gate {kind!r} on line {line_no}")
    return Circuit(
        qubit_count=qubit_count,
        gates=tuple(gates),
        params=params,
        include_probe=include_probe,
    )


def save_circuit(circuit: Circuit, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(export_circuit(circuit))


def load_circuit(path) -> Circuit:
    with open(path, encoding="utf-8") as fh:
        return parse_circuit(fh.read())
