"""Compile Ising parameters into amplitude-preparation circuits.

The target state carries sqrt(p_k) on basis state |k>, with p the Gibbs
distribution of the cluster.  All amplitudes are non-negative, so real
rotations

    R(theta) = [[cos t, -sin t], [sin t, cos t]]

suffice.  A rotation splits the mass of its branch between bit 0 and bit
1: cos^2 t is the conditional probability of bit 0, so the angles are the
amplitude-encoding tree of Grover and Rudolph (arXiv:quant-ph/0208112)
over the Gibbs weights, which `gibbs_angles` reads off B points at once.
Each spin is conditioned on its window of nearest predecessors: all of
them on the triangle, the nearest on an open chain, whose Gibbs
distribution is a Markov chain.  Rotations of one target add, so a site's
2**k splits telescope into one rotation per subset of its k window qubits
as controls: 7 rotations for the triangle, 2n - 1 for a chain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import model
from .errors import CapacityError, CetsError, DomainError, TopologyError

#: Largest open chain the synthesiser accepts (state vectors stay < 32 MiB).
MAX_CHAIN = 20

_FORMAT_HEADER = "#cets v1"

#: Each gate kind's .cets keyword and the Gate field its line ends with,
#: spelled `field=value` after the target and controls (None: no field).
_GATE_KINDS = {"rot": ("ROT", "theta"), "h": ("H", None), "pauli": ("PAULI", "letter")}
_GATE_OF_KEYWORD = {kw: (kind, field) for kind, (kw, field) in _GATE_KINDS.items()}
#: The metadata line's fields: qubits, alone or with the synthesis parameters.
_META_FIELDS = ("qubits", "topology", "n", "J", "h", "beta", "probe")


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


def _windows(topology: str, n: int) -> list[int]:
    """How many nearest predecessors each site is conditioned on."""
    reach = n - 1 if topology == model.TRIANGLE else 1
    return [min(site, reach) for site in range(n)]


def gibbs_angles(weights: np.ndarray, params: model.ModelParams) -> np.ndarray:
    """(B, rotations) angles, in gate order, of B points' (B, 2**n) Gibbs
    weights; `params` is any one of the points, for its topology and size.

    Each split angle is arctan2(sqrt(mass of bit 1), sqrt(mass of bit 0))
    over its branch, so a branch whose masses both underflow to 0 gets a
    finite angle, where the ratio m0 / (m0 + m1) would be 0/0.
    """
    windows = _windows(params.topology, params.n)
    rows = len(weights)
    prefix = [weights]  # marginals of b_0 .. b_i, later bits summed out pairwise
    for _ in windows[1:]:
        prefix.append(prefix[-1][:, ::2] + prefix[-1][:, 1::2])
    masses = []  # each site's masses, indexed by (window bits, own bit)
    for site, (marginal, k) in enumerate(zip(reversed(prefix), windows)):
        if k < site:  # the bits before the window summed out
            marginal = marginal.reshape(rows, -1, 2 << k).sum(axis=1)
        if k > 1:  # in gate order, whose lowest window bit is the farthest
            bits = marginal.reshape((rows,) + (2,) * (k + 1))
            marginal = bits.transpose(0, *range(k, 0, -1), k + 1).reshape(rows, -1)
        masses.append(marginal)
    roots = np.sqrt(np.concatenate(masses, axis=1))
    angles = np.arctan2(roots[:, 1::2], roots[:, ::2])
    # Telescope in place, a window bit at a time: each split less the one with
    # the bit lowered.  Every site after the first has a window, so the lowest
    # bit pairs columns (1, 2), (3, 4), ... of every block at once.
    angles[:, 2::2] -= angles[:, 1::2]
    start = 0
    for k in windows:
        block = angles[:, start:start + (1 << k)]  # a view of angles
        for bit in range(1, k):
            pairs = block.reshape(rows, -1, 2, 1 << bit)
            pairs[:, :, 1] -= pairs[:, :, 0]
        start += 1 << k
    return angles


def cets_angles(params: model.ModelParams) -> AngleSet:
    """Rotation angles preparing the triangle's coherent Gibbs encoding: the
    sums of the telescoped rotations that act on each branch."""
    if params.topology != model.TRIANGLE:
        raise TopologyError("cets_angles is defined for the triangle")
    x, y, dz, t0, d1, d2, d12 = rotation_angles(params)
    return AngleSet(x, y, y + dz, t0, t0 + d1, t0 + d1 + d2 + d12)


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
        if self.kind not in _GATE_KINDS:
            raise DomainError(f"unknown gate kind {self.kind!r}")
        if self.target < 0 or any(c < 0 for c in self.controls):
            raise DomainError("qubit indices must be non-negative")
        if self.target in self.controls:
            raise DomainError(f"target {self.target} also listed as control")
        if len(set(self.controls)) != len(self.controls):
            raise DomainError("duplicate control qubits")
        if self.kind == "rot" and (self.theta is None or not math.isfinite(self.theta)):
            raise DomainError(f"rot gate requires a finite theta, got {self.theta!r}")
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

    @property
    def layout(self) -> tuple[tuple[str, int, tuple[int, ...]], ...]:
        """Each gate's (kind, target, controls), a Pauli gate's kind its letter:
        the shape `engine.run_layout` compiles, without the angles."""
        return tuple(
            (gate.letter if gate.kind == "pauli" else gate.kind, gate.target, gate.controls)
            for gate in self.gates
        )


def rotation_angles(params: model.ModelParams) -> list[float]:
    """The rotation angles of a point's preparation circuit, in gate order."""
    if params.n > MAX_CHAIN:
        raise CapacityError(f"chains support n <= {MAX_CHAIN}, got {params.n}")
    weights = model.gibbs_tables(params, [params.beta], [params.h])[1]
    return gibbs_angles(weights, params)[0].tolist()


@lru_cache(maxsize=64)
def layout(topology: str, n: int, probe: bool) -> tuple[tuple[str, int, tuple[int, ...]], ...]:
    """("rot", target, controls) of each rotation of a preparation circuit, in
    the order of gibbs_angles, with the spins on qubits 0, 1, ... or, with
    `probe`, 1, 2, ...: per site, one for each subset of its window, ordered
    by a mask whose lowest bit is the farthest predecessor."""
    off = 1 if probe else 0
    steps = []
    for site, k in enumerate(_windows(topology, n)):
        controls = [()]
        for qubit in range(off + site - k, off + site):
            controls += [c + (qubit,) for c in controls]
        steps += [("rot", off + site, c) for c in controls]
    return tuple(steps)


def build_circuit(params: model.ModelParams, include_probe: bool = False) -> Circuit:
    """Preparation circuit of a triangle or an open chain: the gates of
    `layout` with the point's `rotation_angles`.

    Qubits are the spins in order; with include_probe an extra qubit 0
    is prepended in (|0> + |1>)/sqrt(2) and the spins shift up by one.
    """
    off = 1 if include_probe else 0
    steps = layout(params.topology, params.n, bool(include_probe))
    gates = [Gate(kind="h", target=0)] if include_probe else []
    gates += [
        Gate(kind=kind, target=target, controls=controls, theta=theta)
        for (kind, target, controls), theta in zip(steps, rotation_angles(params))
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
        keyword, field = _GATE_KINDS[gate.kind]
        controls = ",".join(str(c) for c in gate.controls)
        line = f"{keyword} target={gate.target} controls=[{controls}]"
        if field is not None:
            value = getattr(gate, field)
            line += f" {field}={_format_float(value) if field == 'theta' else value}"
        lines.append(line)
    return "\n".join(lines) + "\n"


def _parse_fields(parts: list[str], line_no: int, allowed) -> dict[str, str]:
    """The `key=value` fields of line `line_no`: each key once, from `allowed`."""
    fields: dict[str, str] = {}
    for part in parts:
        key, sep, value = part.partition("=")
        if not sep:
            raise DomainError(f"malformed field {part!r} on line {line_no}")
        if key in fields or key not in allowed:
            raise DomainError(f"{'repeated' if key in fields else 'unexpected'} field "
                              f"{part!r} on line {line_no}")
        fields[key] = value
    return fields


def parse_circuit(text: str) -> Circuit:
    """Parse the .cets format produced by export_circuit; a missing, repeated
    or unexpected field or a value that does not parse is a DomainError
    naming its line."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != _FORMAT_HEADER:
        raise DomainError(f"missing {_FORMAT_HEADER!r} header")
    if len(lines) < 2:
        raise DomainError("missing metadata line")
    line_no = 2
    try:
        parts = lines[1].split()
        topology = any(part.startswith("topology=") for part in parts)
        meta = _parse_fields(parts, line_no, _META_FIELDS if topology else ("qubits",))
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
            probe = meta.get("probe", "false")
            if probe not in ("true", "false"):
                raise DomainError(f"probe must be true or false, got {probe!r} on line {line_no}")
            include_probe = probe == "true"
        gates: list[Gate] = []
        for line_no, line in enumerate(lines[2:], start=3):
            keyword, *parts = line.split()
            if keyword not in _GATE_OF_KEYWORD:
                raise DomainError(f"unknown gate {keyword!r} on line {line_no}")
            kind, field = _GATE_OF_KEYWORD[keyword]
            fields = _parse_fields(parts, line_no, ("target", "controls", field))
            raw = fields.get("controls", "[]").strip("[]")
            controls = tuple(int(c) for c in raw.split(",")) if raw else ()
            ending = {}
            if field is not None:
                ending[field] = float(fields[field]) if field == "theta" else fields[field]
            gates.append(Gate(kind=kind, target=int(fields["target"]),
                              controls=controls, **ending))
    except CetsError:
        raise
    except (KeyError, ValueError) as exc:
        raise DomainError(f"malformed line {line_no}: {exc!r}") from None
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
