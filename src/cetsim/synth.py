"""Compile Ising parameters into amplitude-preparation circuits.

The target state carries sqrt(p_k) on basis state |k>, with p the Gibbs
distribution of the cluster.  All amplitudes are non-negative, so real
rotations

    R(theta) = [[cos t, -sin t], [sin t, cos t]]

suffice.  Rotation angles encode two-outcome Boltzmann splits: an angle
with cos^2 t = 1/(1 + exp(2x)) puts weight exp(-x)/2cosh(x) on bit 0.

For the triangle the first two spins use a renormalised pair model
obtained by summing out the third spin analytically; the third spin is
then set by controlled rotations whose angles depend on the first two
bits.  Sharing the single-bit dependence between uncontrolled and
controlled gates telescopes the construction to seven rotations.  Open
chains factor through nearest-neighbour conditionals and need 2n - 1
rotations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import model
from .errors import CapacityError, DomainError, NumericError, TopologyError

#: Below this beta the renormalisation constants switch to their exact
#: leading-order forms; the closed forms lose all digits to cancellation.
SERIES_BETA = 1e-8

#: Largest open chain the synthesiser accepts (state vectors stay < 32 MiB).
MAX_CHAIN = 20

_CLAMP_TOL = 1e-12
_FORMAT_HEADER = "#cets v1"


def _lncosh(x: float) -> float:
    """log cosh x without overflow."""
    ax = abs(x)
    return ax + math.log1p(math.exp(-2.0 * ax)) - math.log(2.0)


@dataclass(frozen=True)
class RenormConstants:
    """Pair model left after summing the third triangle spin out.

    The original couplings (J, h) shift to (J - bond_shift,
    h - field_shift); `offset` is the extra single-spin shift entering
    the first-spin marginal.  The overall constant of the summed-out
    weight cancels in every normalised quantity and is not kept.
    """

    bond_shift: float
    field_shift: float
    offset: float


def effective_params(params: model.ModelParams) -> RenormConstants:
    """Renormalisation constants of the triangle at one parameter point."""
    if params.topology != model.TRIANGLE:
        raise TopologyError("effective_params is defined for the triangle")
    beta, J, h = params.beta, params.J, params.h
    if beta < SERIES_BETA:
        b = beta * J * J
        c = beta * J * h
        j_eff = J - b
        h_eff = h - c
        g = beta * j_eff * h_eff
        return RenormConstants(b, c, g)
    lp = _lncosh(2 * beta * J + beta * h)
    lm = _lncosh(2 * beta * J - beta * h)
    lh = _lncosh(beta * h)
    b = (lp + lm - 2.0 * lh) / (4.0 * beta)
    c = (lp - lm) / (4.0 * beta)
    j_eff = J - b
    h_eff = h - c
    g = (_lncosh(beta * (j_eff + h_eff)) - _lncosh(beta * (j_eff - h_eff))) / (
        2.0 * beta
    )
    return RenormConstants(b, c, g)


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


def _boltzmann_angle(x: float) -> float:
    """Angle of a two-outcome split with log-weight ratio 2x; cos^2 t = sigmoid(-2x)."""
    try:
        p0 = 1.0 / (1.0 + math.exp(2.0 * x))
    except OverflowError:  # exp(2x) is inf in floating point: sigmoid(-2x) = 0
        p0 = 0.0
    return rotation_angle(p0)


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


def cets_angles(params: model.ModelParams) -> AngleSet:
    """Rotation angles preparing the triangle's coherent Gibbs encoding."""
    rc = effective_params(params)
    beta, J, h = params.beta, params.J, params.h
    j_eff = J - rc.bond_shift
    h_eff = h - rc.field_shift
    return AngleSet(
        theta_x=_boltzmann_angle(beta * (h_eff - rc.offset)),
        theta_y=_boltzmann_angle(beta * (j_eff + h_eff)),
        theta_z=_boltzmann_angle(beta * (h_eff - j_eff)),
        theta_0=_boltzmann_angle(beta * (2.0 * J + h)),
        theta_1=_boltzmann_angle(beta * h),
        theta_2=_boltzmann_angle(beta * (h - 2.0 * J)),
    )


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
        a = cets_angles(params)
        d1, d2 = a.theta_1 - a.theta_0, a.theta_2 - 2.0 * a.theta_1 + a.theta_0
        return [a.theta_x, a.theta_y, a.theta_z - a.theta_y, a.theta_0, d1, d1, d2]
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


def build_circuit(params: model.ModelParams, include_probe: bool = False) -> Circuit:
    """Preparation circuit of a triangle or an open chain.

    Qubits are the spins in order; with include_probe an extra qubit 0
    is prepended in (|0> + |1>)/sqrt(2) and the spins shift up by one.
    """
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
