import math

import numpy as np
import pytest

from cetsim.engine import (
    StateVector,
    direct_expectation,
    probe_expectation,
    run_circuit,
    run_circuits,
    sample_shots,
)
from cetsim.errors import DomainError
from cetsim.model import CHAIN, ModelParams, exact_expectation, gibbs_distribution
from cetsim.pauli import PauliString
from cetsim.synth import (
    Circuit,
    Gate,
    build_chain_circuit,
    build_circuit,
    build_triangle_circuit,
    rotation_angles,
)


def rot(target, theta, controls=()):
    return Gate(kind="rot", target=target, controls=controls, theta=theta)


def run(n, *gates):
    """Amplitudes of `gates` run in order on |0...0> of n qubits."""
    return run_circuit(Circuit(qubit_count=n, gates=gates)).amplitudes


class TestApplyGate:
    def test_identity_rotation(self):
        np.testing.assert_array_equal(run(2, rot(0, 0.0)), [1, 0, 0, 0])

    def test_quarter_turn_flips(self):
        np.testing.assert_allclose(run(1, rot(0, math.pi / 2)), [0, 1], atol=1e-15)

    def test_rotation_matrix_orientation(self):
        # R(theta)|0> = cos|0> + sin|1>
        np.testing.assert_allclose(
            run(1, rot(0, 0.3)), [math.cos(0.3), math.sin(0.3)], atol=1e-15
        )

    def test_big_endian_targeting(self):
        # qubit 0 is the most significant bit
        assert abs(run(3, rot(0, math.pi / 2))[0b100] - 1.0) < 1e-15
        assert abs(run(3, rot(2, math.pi / 2))[0b001] - 1.0) < 1e-15

    def test_control_gates_fire_on_one(self):
        controlled = rot(1, math.pi / 2, controls=(0,))
        np.testing.assert_allclose(run(2, controlled), [1, 0, 0, 0], atol=1e-15)
        flipped = run(2, controlled, rot(0, math.pi / 2), controlled)
        np.testing.assert_allclose(flipped, [0, 0, 0, 1], atol=1e-15)

    def test_hadamard(self):
        amps = run(1, Gate(kind="h", target=0))
        np.testing.assert_allclose(amps, [math.sqrt(0.5), math.sqrt(0.5)], atol=1e-15)

    def test_pauli_gates(self):
        for letter, expected in (("X", [0, 1]), ("Y", [0, 1j]), ("Z", [1, 0])):
            amps = run(1, Gate(kind="pauli", target=0, letter=letter))
            np.testing.assert_allclose(amps, expected, atol=1e-15)

    def test_out_of_range(self):
        # a target out of range is test_synth's test_circuit_bounds_check
        with pytest.raises(DomainError):
            Circuit(qubit_count=2, gates=(rot(0, 0.1, controls=(5,)),))

    def test_norm_preserved_by_random_circuits(self):
        rng = np.random.default_rng(42)
        gates = [Gate(kind="h", target=0)]
        for _ in range(60):
            target = int(rng.integers(4))
            others = [q for q in range(4) if q != target]
            k = int(rng.integers(0, 3))
            controls = tuple(rng.choice(others, size=k, replace=False).tolist())
            gates.append(rot(target, float(rng.normal()), controls))
        state = run_circuit(Circuit(qubit_count=4, gates=tuple(gates)))
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
            state.amplitudes.real, np.sqrt(gibbs_distribution(params).weights),
            atol=1e-12,
        )


def probe_circuit(params, letters):
    """A probe preparation circuit with `letters` applied under the probe."""
    circuit = build_circuit(params, include_probe=True)
    paulis = tuple(
        Gate(kind="pauli", target=site + 1, controls=(0,), letter=letter)
        for site, letter in enumerate(letters)
        if letter != "I"
    )
    return Circuit(qubit_count=circuit.qubit_count, gates=circuit.gates + paulis)


class TestRunCircuits:
    @staticmethod
    def assert_rows_equal_single_runs(circuits, angles):
        # one circuit, the first, and each point's own angle row
        batch = run_circuits(circuits[0], angles)
        assert batch.shape == (len(circuits), 2 ** circuits[0].qubit_count)
        for row, circuit in zip(batch, circuits):
            assert row.tobytes() == run_circuit(circuit).amplitudes.tobytes()

    def test_batch_rows_equal_single_runs_bit_for_bit(self):
        params = [
            ModelParams(J=1.0, h=float(h), beta=float(beta))
            for beta in np.linspace(0.5, 11.0, 23)
            for h in np.linspace(-5.0, 5.0, 101)
        ]
        circuits = [build_circuit(p) for p in params]
        self.assert_rows_equal_single_runs(circuits, list(map(rotation_angles, params)))

    @pytest.mark.parametrize("n", range(1, 13))
    def test_rows_equal_single_runs_on_chains(self, n):
        params = [
            ModelParams(J=J, h=h, beta=beta, n=n, topology=CHAIN)
            for beta in (0.0, 0.7, 5.0)
            for h in (-1.3, 0.4)
            for J in (1.0, -0.6)
        ]
        circuits = [build_chain_circuit(p) for p in params]
        self.assert_rows_equal_single_runs(circuits, list(map(rotation_angles, params)))

    @pytest.mark.parametrize("letters", ["XIZ", "YYI", "ZXY"])
    def test_rows_equal_single_runs_on_probe_circuits(self, letters):
        circuits = [
            probe_circuit(ModelParams(J=J, h=h, beta=beta), letters)
            for beta in (0.0, 0.4, 3.0, 50.0)
            for h in (-2.0, 0.0, 2.0)
            for J in (1.0, -0.7)
        ]
        self.assert_rows_equal_single_runs(circuits, [c.angles for c in circuits])

    def test_angle_matrix_must_fit_the_circuit(self):
        circuit = build_triangle_circuit(ModelParams(J=1.0, h=0.5, beta=1.0))
        row = circuit.angles
        for angles in ([row[:-1]], [row + [0.1]], [row, row[:-1]], [row[:-1], row], []):
            with pytest.raises(DomainError):
                run_circuits(circuit, angles)
        rows, r = np.array([row, row]), len(row)
        for shape in ((r,), (0, r), (2, r + 1), (2, r, 1)):
            with pytest.raises(DomainError):
                run_circuits(circuit, np.resize(rows, shape))

    @pytest.mark.parametrize(
        "bad, message",
        [(math.nan, "angle 3 of row 1 must be finite, got nan"),
         (math.inf, "angle 3 of row 1 must be finite, got inf"),
         (-math.inf, "angle 3 of row 1 must be finite, got -inf")],
        ids=["nan", "inf", "-inf"],
    )
    def test_non_finite_angle_is_a_domain_error(self, bad, message):
        # raised before any cos or sin is taken, so inf warns of nothing
        circuit = build_triangle_circuit(ModelParams(J=1.0, h=0.5, beta=1.0))
        angles = np.array([circuit.angles] * 3)
        angles[1, 3] = angles[2, 0] = bad
        with pytest.raises(DomainError, match=message):
            run_circuits(circuit, angles)
        with pytest.raises(DomainError, match="angle 0 of row 0"):
            run_circuits(circuit, [[math.nan] * len(circuit.angles)])

    def test_array_and_list_rows_give_the_same_bytes(self):
        params = [ModelParams(J=1.0, h=h, beta=b) for b in (0.3, 4.0) for h in (-1, 0.6)]
        angles = np.array([rotation_angles(p) for p in params])
        circuit = build_circuit(params[0])
        as_array = run_circuits(circuit, angles)
        assert as_array.tobytes() == run_circuits(circuit, angles.tolist()).tobytes()


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
