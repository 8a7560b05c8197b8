import math
from dataclasses import astuple

import numpy as np
import pytest

from cetsim.errors import CapacityError, DomainError, NumericError, TopologyError
from cetsim.model import CHAIN, ModelParams
from cetsim.synth import (
    Circuit,
    Gate,
    build_chain_circuit,
    build_circuit,
    build_triangle_circuit,
    cets_angles,
    effective_params,
    export_circuit,
    load_circuit,
    parse_circuit,
    rotation_angle,
    rotation_angles,
    save_circuit,
)


def params(beta, h, J=1.0):
    return ModelParams(J=J, h=h, beta=beta)


class TestEffectiveParams:
    def test_triangle_only(self):
        with pytest.raises(TopologyError):
            effective_params(ModelParams(J=1, h=0, beta=1, n=3, topology=CHAIN))

    def test_zero_field_symmetries(self):
        rc = effective_params(params(3.0, 0.0))
        assert rc.field_shift == 0.0
        assert rc.offset == 0.0
        assert rc.bond_shift > 0.0

    def test_closed_form_against_direct_ratio(self):
        # b and c must turn the summed-out pair weight K(z1, z2) into
        # A * exp(beta*b*z1*z2) * exp(beta*c*(z1+z2)) for all four (z1, z2);
        # the constant A cancels in the ratio K(z1, z2) / K(+1, +1)
        beta, J, h = 2.3, 1.0, 0.7
        rc = effective_params(params(beta, h, J))

        def k(z1, z2):
            return 2 * math.cosh(beta * J * (z1 + z2) + beta * h)

        for z1 in (1, -1):
            for z2 in (1, -1):
                model_ratio = math.exp(
                    beta * rc.bond_shift * (z1 * z2 - 1)
                    + beta * rc.field_shift * (z1 + z2 - 2)
                )
                assert k(z1, z2) / k(1, 1) == pytest.approx(model_ratio, rel=1e-12)

    def test_series_branch_matches_leading_order(self):
        beta, J, h = 1e-9, 1.3, 0.4
        rc = effective_params(params(beta, h, J))
        assert rc.bond_shift == pytest.approx(beta * J * J, rel=1e-10)
        assert rc.field_shift == pytest.approx(beta * J * h, rel=1e-10)

    def test_closed_form_meets_series_in_overlap_region(self):
        # at beta = 1e-5 the closed forms still carry ~10 digits and the
        # dropped series terms are O(beta^2) relative: both must agree
        beta, J, h = 1e-5, 1.3, 0.6
        rc = effective_params(params(beta, h, J))
        assert rc.bond_shift == pytest.approx(beta * J * J, rel=1e-4)
        assert rc.field_shift == pytest.approx(beta * J * h, rel=1e-4)
        assert rc.offset == pytest.approx(beta * J * h, rel=1e-3)

    def test_constants_finite_on_grid(self):
        for beta in np.linspace(0.0, 11.0, 23):
            for h in np.linspace(-5.0, 5.0, 21):
                rc = effective_params(params(float(beta), float(h)))
                assert math.isfinite(rc.bond_shift)
                assert math.isfinite(rc.field_shift)
                assert math.isfinite(rc.offset)


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
    def test_exact_bounds(self):
        assert rotation_angle(1.0) == 0.0
        assert rotation_angle(0.0) == pytest.approx(math.pi / 2)

    def test_clamps_rounding_spill(self):
        assert rotation_angle(1.0 + 5e-13) == 0.0
        assert rotation_angle(-5e-13) == pytest.approx(math.pi / 2)

    def test_rejects_real_violations(self):
        with pytest.raises(NumericError):
            rotation_angle(1.0 + 1e-9)
        with pytest.raises(NumericError):
            rotation_angle(-1e-9)


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
