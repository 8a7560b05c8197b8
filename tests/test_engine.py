import math

import numpy as np
import pytest

from cetsim.engine import (
    StateVector,
    apply_gate,
    direct_expectation,
    probe_expectation,
    run_circuit,
    run_circuits,
    sample_shots,
)
from cetsim.errors import DomainError
from cetsim.model import CHAIN, ModelParams, cets_amplitudes, exact_expectation, gibbs_distribution
from cetsim.pauli import PauliString
from cetsim.synth import Circuit, Gate, build_chain_circuit, build_circuit, build_triangle_circuit


def rot(target, theta, controls=()):
    return Gate(kind="rot", target=target, controls=controls, theta=theta)


class TestApplyGate:
    def test_identity_rotation(self):
        state = StateVector.zero(2)
        apply_gate(state, rot(0, 0.0))
        np.testing.assert_array_equal(state.amplitudes, [1, 0, 0, 0])

    def test_quarter_turn_flips(self):
        state = StateVector.zero(1)
        apply_gate(state, rot(0, math.pi / 2))
        np.testing.assert_allclose(state.amplitudes, [0, 1], atol=1e-15)

    def test_rotation_matrix_orientation(self):
        # R(theta)|0> = cos|0> + sin|1>
        state = StateVector.zero(1)
        apply_gate(state, rot(0, 0.3))
        np.testing.assert_allclose(
            state.amplitudes, [math.cos(0.3), math.sin(0.3)], atol=1e-15
        )

    def test_big_endian_targeting(self):
        # qubit 0 is the most significant bit
        state = StateVector.zero(3)
        apply_gate(state, rot(0, math.pi / 2))
        assert abs(state.amplitudes[0b100] - 1.0) < 1e-15
        state = StateVector.zero(3)
        apply_gate(state, rot(2, math.pi / 2))
        assert abs(state.amplitudes[0b001] - 1.0) < 1e-15

    def test_control_gates_fire_on_one(self):
        state = StateVector.zero(2)
        apply_gate(state, rot(1, math.pi / 2, controls=(0,)))
        np.testing.assert_allclose(state.amplitudes, [1, 0, 0, 0], atol=1e-15)
        apply_gate(state, rot(0, math.pi / 2))
        apply_gate(state, rot(1, math.pi / 2, controls=(0,)))
        np.testing.assert_allclose(state.amplitudes, [0, 0, 0, 1], atol=1e-15)

    def test_hadamard(self):
        state = StateVector.zero(1)
        apply_gate(state, Gate(kind="h", target=0))
        np.testing.assert_allclose(
            state.amplitudes, [math.sqrt(0.5), math.sqrt(0.5)], atol=1e-15
        )

    def test_pauli_gates(self):
        for letter, expected in (("X", [0, 1]), ("Y", [0, 1j]), ("Z", [1, 0])):
            state = StateVector.zero(1)
            apply_gate(state, Gate(kind="pauli", target=0, letter=letter))
            np.testing.assert_allclose(state.amplitudes, expected, atol=1e-15)

    def test_in_place(self):
        state = StateVector.zero(2)
        assert apply_gate(state, rot(0, 0.2)) is state

    def test_out_of_range(self):
        state = StateVector.zero(2)
        with pytest.raises(DomainError):
            apply_gate(state, rot(2, 0.1))
        with pytest.raises(DomainError):
            apply_gate(state, rot(0, 0.1, controls=(5,)))

    def test_norm_preserved_by_random_circuits(self):
        rng = np.random.default_rng(42)
        state = StateVector.zero(4)
        apply_gate(state, Gate(kind="h", target=0))
        for _ in range(60):
            target = int(rng.integers(4))
            others = [q for q in range(4) if q != target]
            k = int(rng.integers(0, 3))
            controls = tuple(rng.choice(others, size=k, replace=False).tolist())
            apply_gate(state, rot(target, float(rng.normal()), controls))
        assert state.norm() == pytest.approx(1.0, abs=1e-12)


class TestRunCircuit:
    def test_empty_circuit(self):
        out = run_circuit(Circuit(qubit_count=3, gates=()))
        np.testing.assert_array_equal(out.amplitudes, StateVector.zero(3).amplitudes)

    def test_triangle_cold_point(self):
        params = ModelParams(J=1.0, h=1.0, beta=11.0)
        state = run_circuit(build_triangle_circuit(params))
        amp = math.sqrt(1.0 / 3.0)
        for k in (0b011, 0b101, 0b110):
            assert abs(state.amplitudes[k] - amp) < 1e-6
        assert abs(state.amplitudes[0b000]) < 1e-6

    @pytest.mark.parametrize("beta", [0.0, 0.5, 2.0, 11.0])
    @pytest.mark.parametrize("h", [-3.0, -0.5, 0.0, 1.0, 4.0])
    def test_triangle_amplitudes_match_gibbs(self, beta, h):
        params = ModelParams(J=1.0, h=h, beta=beta)
        state = run_circuit(build_triangle_circuit(params))
        expected = gibbs_distribution(params).weights
        assert np.max(np.abs(state.probabilities() - expected)) < 1e-10

    def test_amplitudes_real_nonnegative(self):
        params = ModelParams(J=1.0, h=0.7, beta=5.0)
        amps = run_circuit(build_triangle_circuit(params)).amplitudes
        assert np.all(amps.imag == 0.0)
        assert np.all(amps.real >= -1e-12)

    @pytest.mark.parametrize("n", [2, 5, 12])
    def test_chain_amplitudes_match_gibbs(self, n):
        params = ModelParams(J=1.0, h=0.4, beta=2.0, n=n, topology=CHAIN)
        state = run_circuit(build_chain_circuit(params))
        expected = gibbs_distribution(params).weights
        assert np.max(np.abs(state.probabilities() - expected)) < 1e-8

    def test_matches_cets_amplitudes(self):
        params = ModelParams(J=1.0, h=-0.9, beta=3.3)
        state = run_circuit(build_triangle_circuit(params))
        np.testing.assert_allclose(
            state.amplitudes.real, cets_amplitudes(params), atol=1e-12
        )


class TestRunCircuits:
    def test_batch_rows_equal_single_runs_bit_for_bit(self):
        params = [
            ModelParams(J=J, h=h, beta=beta)
            for beta in (0.0, 0.4, 3.0, 50.0)
            for h in (-2.0, 0.0, 2.0)
            for J in (1.0, -0.7)
        ]
        circuits = [build_circuit(p, include_probe=True) for p in params]
        batch = run_circuits(circuits)
        assert batch.shape == (len(params), 16)
        for row, circuit in zip(batch, circuits):
            single = run_circuit(circuit).amplitudes
            assert row.tobytes() == single.tobytes()

    def test_batch_must_share_one_gate_shape(self):
        params = ModelParams(J=1.0, h=0.5, beta=1.0)
        a = build_triangle_circuit(params)
        b = build_triangle_circuit(params, include_probe=True)
        chain = build_chain_circuit(
            ModelParams(J=1.0, h=0.5, beta=1.0, n=4, topology=CHAIN)
        )
        for circuits in ([a, b], [a, chain], []):
            with pytest.raises(DomainError):
                run_circuits(circuits)


class TestDirectExpectation:
    def test_identity(self):
        params = ModelParams(J=1.0, h=0.3, beta=2.0)
        state = run_circuit(build_triangle_circuit(params))
        assert direct_expectation(state, PauliString.identity(3)) == pytest.approx(1.0)

    def test_cold_point_triple(self):
        params = ModelParams(J=1.0, h=1.0, beta=11.0)
        state = run_circuit(build_triangle_circuit(params))
        value = direct_expectation(state, PauliString.parse("Z1Z2Z3"))
        assert abs(value - 1.0) < 1e-6

    def test_size_mismatch(self):
        state = StateVector.zero(3)
        with pytest.raises(DomainError):
            direct_expectation(state, PauliString.parse("Z1", 4))


class TestProbeExpectation:
    def test_identity_reads_one(self):
        params = ModelParams(J=1.0, h=0.5, beta=2.0)
        out = probe_expectation(params, PauliString.identity(3))
        assert out.value == pytest.approx(1.0 + 0.0j, abs=1e-12)
        assert out.label == "I"

    def test_cold_point_landmarks(self):
        params = ModelParams(J=1.0, h=1.0, beta=11.0)
        z1 = probe_expectation(params, PauliString.parse("Z1", 3))
        assert abs(z1.value.real + 1.0 / 3.0) < 1e-6
        assert z1.value.imag == 0.0

    @pytest.mark.parametrize("label", ["Z1", "Z2Z3", "Z1Z2Z3", "X1", "X2", "Y3"])
    def test_probe_equals_direct(self, label):
        params = ModelParams(J=1.0, h=0.8, beta=1.5)
        op = PauliString.parse(label, 3)
        state = run_circuit(build_circuit(params))
        probe = probe_expectation(params, op).value
        direct = direct_expectation(state, op)
        assert abs(probe - direct) < 1e-10

    def test_probe_equals_direct_random_strings(self):
        rng = np.random.default_rng(123)
        for _ in range(30):
            beta = float(rng.uniform(0.0, 11.0))
            h = float(rng.uniform(-5.0, 5.0))
            letters = tuple(rng.choice(list("IXYZ"), size=3))
            op = PauliString(letters)
            params = ModelParams(J=1.0, h=h, beta=beta)
            probe = probe_expectation(params, op).value
            direct = direct_expectation(run_circuit(build_circuit(params)), op)
            assert abs(probe - direct) < 1e-10

    def test_probe_equals_exact_thermal(self):
        params = ModelParams(J=1.0, h=0.8, beta=4.0)
        for label in ("Z1", "Z1Z3", "X2", "Y1"):
            op = PauliString.parse(label, 3)
            probe = probe_expectation(params, op).value
            assert abs(probe - exact_expectation(params, op)) < 1e-10

    def test_probe_on_chain(self):
        params = ModelParams(J=1.0, h=0.3, beta=2.0, n=5, topology=CHAIN)
        op = PauliString.parse("Z2Z3", 5)
        probe = probe_expectation(params, op).value
        assert abs(probe - exact_expectation(params, op)) < 1e-10

    def test_shots_reproducible_and_consistent(self):
        params = ModelParams(J=1.0, h=1.0, beta=2.0)
        op = PauliString.parse("Z1", 3)
        a = probe_expectation(params, op, shots=4000, seed=9)
        b = probe_expectation(params, op, shots=4000, seed=9)
        assert a.value == b.value
        exact = probe_expectation(params, op).value
        # binomial error ~ 1/sqrt(shots)
        assert abs(a.value.real - exact.real) < 5.0 / math.sqrt(4000)

    def test_shots_validation(self):
        params = ModelParams(J=1.0, h=1.0, beta=2.0)
        with pytest.raises(DomainError):
            probe_expectation(params, PauliString.parse("Z1", 3), shots=0)

    def test_sample_shots_bounds(self):
        top = int(np.iinfo(np.int64).max)
        assert abs(sample_shots(0.5 + 0.0j, top, 0).real - 0.5) < 1e-6
        with pytest.raises(DomainError, match="shots"):
            sample_shots(0.5 + 0.0j, top + 1, 0)
        with pytest.raises(DomainError, match="seed"):
            sample_shots(0.5 + 0.0j, 10, -1)

    def test_size_mismatch(self):
        params = ModelParams(J=1.0, h=1.0, beta=2.0)
        with pytest.raises(DomainError):
            probe_expectation(params, PauliString.parse("Z1Z2", 2))
