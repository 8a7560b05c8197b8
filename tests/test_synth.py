import math
from dataclasses import astuple
from fractions import Fraction

import numpy as np
import pytest

from cetsim import model
from cetsim.engine import run_circuit
from cetsim.errors import CapacityError, DomainError, TopologyError
from cetsim.model import CHAIN, ModelParams, gibbs_distribution, gibbs_tables
from cetsim.synth import (
    Circuit,
    Gate,
    build_chain_circuit,
    build_circuit,
    build_triangle_circuit,
    cets_angles,
    export_circuit,
    gibbs_angles,
    layout,
    load_circuit,
    parse_circuit,
    rotation_angles,
    save_circuit,
)


def params(beta, h, J=1.0):
    return ModelParams(J=J, h=h, beta=beta)


def split_masses(weights):
    """(mass of bit 0, mass of bit 1) of each AngleSet split, by index."""
    w = weights.tolist()
    return [
        (sum(w[0:4]), sum(w[4:8])),  # b1
        (w[0] + w[1], w[2] + w[3]),  # b2 given b1 = 0
        (w[4] + w[5], w[6] + w[7]),  # b2 given b1 = 1
        (w[0], w[1]),  # b3 given b1 b2 = 00
        (w[2], w[3]),  # b3 given b1 b2 = 01
        (w[6], w[7]),  # b3 given b1 b2 = 11
    ]


class TestGibbsTree:
    def test_triangle_only(self):
        with pytest.raises(TopologyError):
            cets_angles(ModelParams(J=1, h=0, beta=1, n=3, topology=CHAIN))

    @pytest.mark.parametrize("beta, h, J", [
        (0.0, 1.0, 1.0), (2.3, 0.7, 1.0), (11.0, 1.0, 1.0), (3.0, -2.5, 0.4),
        (1e12, 0.6, 0.3), (1e-9, 1.3, -0.4),
    ])
    def test_cos_squared_is_conditional_probability(self, beta, h, J):
        p = params(beta, h, J)
        masses = split_masses(gibbs_distribution(p).weights)
        for theta, (m0, m1) in zip(astuple(cets_angles(p)), masses):
            if m0 + m1 > 0.0:  # a branch without mass has no conditional
                p0 = m0 / (m0 + m1)
                assert math.cos(theta) ** 2 == pytest.approx(p0, abs=1e-15)

    def test_zero_field_symmetries(self):
        # at h = 0 a global flip maps each b1 = 0 mass onto a b1 = 1 mass
        a = cets_angles(params(3.0, 0.0))
        assert a.theta_x == a.theta_1 == math.pi / 4
        assert a.theta_y + a.theta_z == pytest.approx(math.pi / 2, abs=1e-15)
        assert a.theta_0 + a.theta_2 == pytest.approx(math.pi / 2, abs=1e-15)

    def test_zero_mass_branch_gives_finite_angle(self):
        # every weight but all-down's underflows, so the b1 = 0 branches
        # have no mass at all; the circuit still prepares |111>
        p = params(1e300, 5.0)
        masses = split_masses(gibbs_distribution(p).weights)
        assert [sum(masses[i]) for i in (1, 3, 4)] == [0.0] * 3
        assert astuple(cets_angles(p)) == (math.pi / 2, 0.0, math.pi / 2, 0.0, 0.0,
                                           math.pi / 2)
        probabilities = run_circuit(build_circuit(p)).probabilities()
        assert probabilities == pytest.approx([0.0] * 7 + [1.0], abs=1e-30)

    def test_batch_rows_are_single_point_calls(self):
        for J in (0.3, -1.0):  # a batch shares one J
            points = [params(b, h, J) for b in (0.0, 0.7, 1e8) for h in (-2.0, 0.6)]
            weights = gibbs_tables(points[0], [p.beta for p in points],
                                   [p.h for p in points])[1]
            batch = gibbs_angles(weights, points[0])
            assert batch.tolist() == [rotation_angles(p) for p in points]

    def test_chain_batch_rows_are_single_point_calls(self):
        for J in (0.3, -1.0):  # a batch shares one J
            points = [ModelParams(J=J, h=h, beta=b, n=5, topology=CHAIN)
                      for b in (0.0, 0.7, 1e12) for h in (-2.0, 0.6)]
            weights = gibbs_tables(points[0], [p.beta for p in points],
                                   [p.h for p in points])[1]
            batch = gibbs_angles(weights, points[0])
            assert batch.tolist() == [rotation_angles(p) for p in points]


class TestAngles:
    def test_all_in_first_quadrant(self):
        for beta in np.linspace(0.0, 11.0, 12):
            for h in np.linspace(-5.0, 5.0, 11):
                for theta in astuple(cets_angles(params(float(beta), float(h)))):
                    assert 0.0 <= theta <= math.pi / 2

    def test_beta_zero_gives_pi_over_four(self):
        for theta in astuple(cets_angles(params(0.0, 1.0))):
            assert theta == pytest.approx(math.pi / 4, abs=1e-12)

    def test_theta_1_at_zero_field(self):
        assert cets_angles(params(2.0, 0.0)).theta_1 == pytest.approx(
            math.pi / 4, abs=1e-15
        )

    def test_theta_0_saturates_cold(self):
        # weight exp(-beta(2J+h)) vanishes: rotation goes to pi/2
        assert cets_angles(params(11.0, 1.0)).theta_0 == pytest.approx(
            math.pi / 2, abs=1e-7
        )

    def test_first_spin_angle_encodes_marginal(self):
        # cos^2 theta_x must equal P(z1 = +1) = (1 + <Z1>)/2 = 1/3 here
        a = cets_angles(params(11.0, 1.0))
        assert math.cos(a.theta_x) ** 2 == pytest.approx(1.0 / 3.0, abs=1e-9)

    def test_field_mirror_symmetry(self):
        # h -> -h swaps spin up and down, so angles reflect around pi/4.
        # arccos near saturation amplifies 1-ulp rounding to ~1e-10.
        for h in (0.3, 1.1, 2.7):
            plus = cets_angles(params(3.0, h))
            minus = cets_angles(params(3.0, -h))
            assert minus.theta_1 == pytest.approx(math.pi / 2 - plus.theta_1, abs=1e-9)
            assert minus.theta_0 == pytest.approx(math.pi / 2 - plus.theta_2, abs=1e-9)
            assert minus.theta_2 == pytest.approx(math.pi / 2 - plus.theta_0, abs=1e-9)
            assert minus.theta_x == pytest.approx(math.pi / 2 - plus.theta_x, abs=1e-9)
            assert minus.theta_y == pytest.approx(math.pi / 2 - plus.theta_z, abs=1e-9)

    def test_slope_continuity_across_zero_field(self):
        # central differences at two resolutions agree: no kink at h = 0
        beta = 3.0
        for attr in ("theta_x", "theta_y", "theta_z", "theta_0", "theta_1", "theta_2"):
            def angle(h):
                return getattr(cets_angles(params(beta, h)), attr)

            coarse = (angle(1e-4) - angle(-1e-4)) / 2e-4
            fine = (angle(5e-5) - angle(-5e-5)) / 1e-4
            assert abs(coarse - fine) < 1e-6 * max(1.0, abs(coarse))


class TestRotationAngle:
    """One split's angle, read off a one-spin chain's two masses."""

    def test_exact_bounds(self):
        one = ModelParams(J=1.0, h=0.0, beta=1.0, n=1, topology=CHAIN)
        angles = gibbs_angles(np.array([[1.0, 0.0], [0.0, 1.0]]), one)
        assert angles.tolist() == [[0.0], [math.pi / 2]]

    def test_clamps_rounding_spill(self):
        # masses need no normalising, so a sum past one by rounding needs no clamp
        one = ModelParams(J=1.0, h=0.0, beta=1.0, n=1, topology=CHAIN)
        angles = gibbs_angles(np.array([[1.0 + 5e-13, 0.0], [0.0, 1.0 + 5e-13]]), one)
        assert angles.tolist() == [[0.0], [math.pi / 2]]


class TestTriangleCircuit:
    def test_gate_counts(self):
        circuit = build_triangle_circuit(params(11.0, 1.0))
        assert circuit.qubit_count == 3
        assert len(circuit.gates) == 7
        assert all(g.kind == "rot" for g in circuit.gates)

    def test_probe_prepends_hadamard(self):
        circuit = build_triangle_circuit(params(11.0, 1.0), include_probe=True)
        assert circuit.qubit_count == 4
        assert len(circuit.gates) == 8
        assert circuit.gates[0].kind == "h"
        assert circuit.gates[0].target == 0
        assert {g.target for g in circuit.gates[1:]} == {1, 2, 3}

    def test_control_structure(self):
        gates = build_triangle_circuit(params(2.0, 0.5)).gates
        assert [g.controls for g in gates] == [
            (), (), (0,), (), (0,), (1,), (0, 1),
        ]

    def test_deterministic(self):
        assert build_triangle_circuit(params(4.0, -1.2)) == build_triangle_circuit(
            params(4.0, -1.2)
        )

    def test_requires_triangle(self):
        with pytest.raises(TopologyError):
            build_triangle_circuit(
                ModelParams(J=1, h=0, beta=1, n=3, topology=CHAIN)
            )


class TestChainCircuit:
    @pytest.mark.parametrize("n", [1, 2, 5, 12])
    def test_gate_count_is_2n_minus_1(self, n):
        circuit = build_chain_circuit(
            ModelParams(J=1.0, h=0.3, beta=2.0, n=n, topology=CHAIN)
        )
        assert all(g.kind == "rot" for g in circuit.gates)
        assert len(circuit.gates) == 2 * n - 1

    def test_capacity_limit(self):
        with pytest.raises(CapacityError):
            build_chain_circuit(
                ModelParams(J=1.0, h=0.0, beta=1.0, n=21, topology=CHAIN)
            )

    def test_requires_chain(self):
        with pytest.raises(TopologyError):
            build_chain_circuit(params(1.0, 0.0))

    def test_build_circuit_dispatch(self):
        assert build_circuit(params(1.0, 0.0)).qubit_count == 3
        chain = ModelParams(J=1, h=0, beta=1, n=4, topology=CHAIN)
        assert build_circuit(chain).qubit_count == 4

    def test_chain_layout(self):
        chain = ModelParams(J=1.0, h=0.3, beta=2.0, n=4, topology=CHAIN)
        gates = build_chain_circuit(chain, include_probe=True).gates[1:]
        assert [(g.target, g.controls) for g in gates] == [
            (1, ()), (2, ()), (2, (1,)), (3, ()), (3, (2,)), (4, ()), (4, (3,)),
        ]

    @pytest.mark.parametrize("topology, n", [(model.TRIANGLE, 3), (CHAIN, 1), (CHAIN, 6)])
    def test_probe_layout_starts_with_the_hadamard(self, topology, n):
        assert layout(topology, n, True)[0] == ("h", 0, ())
        assert layout(topology, n, True)[1:] == tuple(
            ("rot", target + 1, tuple(c + 1 for c in controls))
            for _, target, controls in layout(topology, n, False)
        )

    @pytest.mark.parametrize("point", [params(0.8, -0.4),
                                       ModelParams(J=-0.6, h=1.1, beta=3.0, n=5,
                                                   topology=CHAIN)])
    def test_probe_circuit_is_the_hadamard_then_the_rotations(self, point):
        steps = layout(point.topology, point.n, True)[1:]
        rotations = tuple(
            Gate(kind=kind, target=target, controls=controls, theta=theta)
            for (kind, target, controls), theta in zip(steps, rotation_angles(point),
                                                       strict=True)
        )
        gates = build_circuit(point, include_probe=True).gates
        assert gates == (Gate(kind="h", target=0),) + rotations


def fraction_weights(params):
    """Gibbs weights from each level's exact rational difference to the
    ground level, written out independently of the model helpers: a
    degenerate level weighs exactly 1 before normalising."""
    J, h, beta = (Fraction(x) for x in (params.J, params.h, params.beta))
    n = params.n
    levels = []
    for k in range(2**n):
        z = [1 - 2 * ((k >> (n - 1 - i)) & 1) for i in range(n)]
        levels.append(J * sum(z[i] * z[j] for i, j in params.bonds()) + h * sum(z))
    ground = min(levels)
    weights = [math.exp(-float(beta * (level - ground))) for level in levels]
    total = math.fsum(weights)
    return np.array([w / total for w in weights])


class TestChainGroundTruth:
    @pytest.mark.parametrize("J, h", [
        (1.0, 2.0), (1.0, -2.0), (1.0, 0.0), (-1.0, 0.0), (0.3, 0.6), (0.3, 0.0),
        (1 / 3, 2 / 3), (1 / 3, 0.0), (0.3, 0.7),
    ])
    def test_cold_degenerate_chains_match_fraction_reference(self, J, h):
        # h = 2J and h = 0 leave degenerate ground levels, non-dyadic J rounds
        for beta in (1e8, 1e12, 1e16):
            for n in range(3, 8):
                p = ModelParams(J=J, h=h, beta=beta, n=n, topology=CHAIN)
                probs = run_circuit(build_chain_circuit(p)).probabilities()
                assert np.abs(probs - fraction_weights(p)).max() <= 1e-15, (beta, n)

    @pytest.mark.parametrize("beta", [1e8, 1e12, 1e16])
    def test_circuit_is_exact_on_the_h_2j_boundary(self, beta):
        p = ModelParams(J=1.0, h=2.0, beta=beta, n=6, topology=CHAIN)
        probs = run_circuit(build_chain_circuit(p)).probabilities()
        assert np.abs(probs - gibbs_distribution(p).weights).max() <= 1e-15

    def test_longest_chain_forms_no_spin_table(self, monkeypatch):
        real = model.spin_values

        def no_table(n):
            if n == 20:
                raise AssertionError("spin_values(20) is a 160 MiB table")
            return real(n)

        monkeypatch.setattr(model, "spin_values", no_table)
        model._level_counts.cache_clear()
        p = ModelParams(J=1.0, h=0.7, beta=2.0, n=20, topology=CHAIN)
        assert len(build_chain_circuit(p).gates) == 39


class TestRotationAngles:
    @pytest.mark.parametrize("probe", [False, True])
    def test_circuit_angles_are_rotation_angles(self, probe):
        for p in (params(0.0, 1.0), params(7.3, -0.4),
                  ModelParams(J=0.8, h=-0.4, beta=1.7, n=7, topology=CHAIN)):
            assert build_circuit(p, include_probe=probe).angles == rotation_angles(p)

    def test_capacity_limit(self):
        with pytest.raises(CapacityError):
            rotation_angles(ModelParams(J=1.0, h=0.0, beta=1.0, n=21, topology=CHAIN))


class TestGateValidation:
    def test_target_in_controls(self):
        with pytest.raises(DomainError):
            Gate(kind="rot", target=1, controls=(1,), theta=0.1)

    def test_rot_needs_theta(self):
        with pytest.raises(DomainError):
            Gate(kind="rot", target=0)

    def test_pauli_needs_letter(self):
        with pytest.raises(DomainError):
            Gate(kind="pauli", target=0, letter="Q")

    def test_circuit_bounds_check(self):
        with pytest.raises(DomainError):
            Circuit(qubit_count=2, gates=(Gate(kind="rot", target=2, theta=0.0),))


class TestCetsFormat:
    def test_export_parse_round_trip(self, tmp_path):
        circuit = build_triangle_circuit(params(11.0, 1.0), include_probe=True)
        text = export_circuit(circuit)
        parsed = parse_circuit(text)
        assert parsed == circuit
        assert export_circuit(parsed) == text

    def test_round_trip_via_file(self, tmp_path):
        circuit = build_chain_circuit(
            ModelParams(J=0.8, h=-0.4, beta=3.5, n=6, topology=CHAIN)
        )
        path = tmp_path / "chain.cets"
        save_circuit(circuit, path)
        assert load_circuit(path) == circuit
        assert export_circuit(load_circuit(path)) == export_circuit(circuit)

    def test_header_contents(self):
        text = export_circuit(build_triangle_circuit(params(11.0, 1.0)))
        lines = text.splitlines()
        assert lines[0] == "#cets v1"
        assert lines[1] == "qubits=3 topology=triangle n=3 J=1 h=1 beta=11 probe=false"
        assert sum(ln.startswith("ROT ") for ln in lines) == 7

    def test_handmade_circuit_round_trip(self):
        circuit = Circuit(
            qubit_count=2,
            gates=(
                Gate(kind="h", target=0),
                Gate(kind="pauli", target=1, controls=(0,), letter="Y"),
                Gate(kind="rot", target=1, theta=-0.25),
            ),
        )
        assert parse_circuit(export_circuit(circuit)) == circuit

    def test_rejects_bad_header(self):
        with pytest.raises(DomainError):
            parse_circuit("#nope\nqubits=2\n")

    def test_rejects_unknown_gate(self):
        with pytest.raises(DomainError):
            parse_circuit("#cets v1\nqubits=2\nCNOT target=1 controls=[0]\n")

    def test_angles_survive_round_trip_bit_for_bit(self):
        circuit = build_triangle_circuit(params(7.3, 0.123456789))
        parsed = parse_circuit(export_circuit(circuit))
        for original, reparsed in zip(circuit.gates, parsed.gates):
            assert original.theta == reparsed.theta


@pytest.mark.parametrize(
    "body, message",
    [
        ("qubits=x", "line 2: ValueError"),
        ("qubits=3 topology=triangle n=3 h=1 beta=1 probe=false", "line 2: KeyError"),
        ("qubits=2\nROT target=1 controls=[a] theta=0.5", "line 3: ValueError"),
        ("qubits=2\nROT target=1 controls=[0]", "line 3: KeyError"),
        ("qubits=2\nH controls=[]\nH target=1 controls=[]", "line 3: KeyError"),
        ("qubits=2\nH target=0\nPAULI target=1 controls=[0]", "line 4: KeyError"),
        ("qubits=2\nROT target=1 controls=[0] theta=nan", "finite theta, got nan"),
        ("qubits=2\nROT target=1 controls=[0] theta=-inf", "finite theta, got -inf"),
        ("qubits=2\nH target=0 controls=[] theta=nan letter=Q",
         "unexpected field 'theta=nan' on line 3"),
        ("qubits=2\nPAULI target=1 controls=[0] letter=X theta=1",
         "unexpected field 'theta=1' on line 3"),
        ("qubits=2\nH target=0 colour=red", "unexpected field 'colour=red' on line 3"),
        ("qubits=2\nH target=0 target=1", "repeated field 'target=1' on line 3"),
        ("qubits=2\nROT target=1 theta=0.5 theta=0.5", "repeated field 'theta=0.5' on line 3"),
        ("qubits=2 bogus=3", "unexpected field 'bogus=3' on line 2"),
        ("qubits=2 qubits=2", "repeated field 'qubits=2' on line 2"),
        ("qubits=2 probe=true", "unexpected field 'probe=true' on line 2"),
        ("qubits=3 n=3 J=1 h=1 beta=1", "unexpected field 'n=3' on line 2"),
        ("qubits=3 topology=triangle n=3 J=1 h=1 beta=1 probe=maybe",
         "probe must be true or false, got 'maybe' on line 2"),
        ("qubits=3 topology=triangle n=3 J=1 h=1 beta=1 probe=false probe=true",
         "repeated field 'probe=true' on line 2"),
        ("qubits=3 topology=triangle n=3 J=1 h=1 beta=1 colour=red",
         "unexpected field 'colour=red' on line 2"),
    ],
    ids=["qubits", "no-J", "controls", "no-theta", "no-target", "no-letter",
         "nan-theta", "inf-theta", "h-with-fields", "pauli-with-theta", "unknown-gate-field",
         "repeated-target", "repeated-theta", "unknown-meta-field", "repeated-qubits",
         "probe-without-topology", "n-without-topology", "probe-maybe", "repeated-probe",
         "unknown-topology-field"],
)
def test_malformed_cets_is_a_domain_error(body, message):
    with pytest.raises(DomainError, match=message):
        parse_circuit(f"#cets v1\n{body}\n")


def test_unknown_cets_topology_stays_a_topology_error():
    with pytest.raises(TopologyError):
        parse_circuit("#cets v1\nqubits=3 topology=ring n=3 J=1 h=1 beta=1\n")
