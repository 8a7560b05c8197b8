import math

import numpy as np
import pytest

from cetsim.errors import DomainError, IncompleteSetError, NonPhysicalStateError
from cetsim.model import ModelParams, gibbs_distribution
from cetsim.noise import DensityMatrix, depolarize
from cetsim.reconstruct import (
    LABELS,
    SIGNS,
    DiagonalDensity,
    MeasurementSet,
    assemble_density,
    entropies,
    entropy,
    exact_measurement_set,
    fidelity,
    invert,
    observables_summary,
    readouts,
)

# Readout set measured on hardware at the (beta=11, h=1) calibration point,
# kept as a regression fixture for the reconstruction arithmetic.
HARDWARE_VALUES = {
    "Z1": -0.2497,
    "Z2": -0.1208,
    "Z3": -0.2564,
    "Z1Z2": -0.1335,
    "Z2Z3": -0.3377,
    "Z1Z3": -0.1549,
    "Z1Z2Z3": 0.5110,
}

HARDWARE_POPULATIONS = [
    0.032250, 0.091750, 0.052500, 0.198650,
    0.039025, 0.276575, 0.248025, 0.061225,
]


def measurement_set(values):
    return MeasurementSet(values={k: complex(v) for k, v in values.items()})


def uniform_set():
    return measurement_set({label: 0.0 for label in LABELS})


def diagonal_matrix(populations):
    return DensityMatrix(np.diag(np.asarray(populations, dtype=complex)))


def test_sign_table():
    # rows: configurations b1 b2 b3; columns: LABELS
    assert SIGNS.tolist() == [
        [1, 1, 1, 1, 1, 1, 1],
        [1, 1, -1, 1, -1, -1, -1],
        [1, -1, 1, -1, -1, 1, -1],
        [1, -1, -1, -1, 1, -1, 1],
        [-1, 1, 1, -1, 1, -1, -1],
        [-1, 1, -1, -1, -1, 1, 1],
        [-1, -1, 1, 1, -1, -1, 1],
        [-1, -1, -1, 1, 1, 1, -1],
    ]
    assert SIGNS.dtype == np.float64
    assert not SIGNS.flags.writeable


class TestMeasurementSet:
    def test_requires_all_seven(self):
        values = {label: complex(0.1) for label in LABELS[:-1]}
        with pytest.raises(IncompleteSetError):
            MeasurementSet(values=values)

    def test_rejects_unknown_labels(self):
        values = {label: complex(0.0) for label in LABELS}
        values["X1"] = complex(0.2)
        with pytest.raises(DomainError):
            MeasurementSet(values=values)

    def test_imaginary_flagging_threshold(self):
        values = {label: complex(0.5, 0.01) for label in LABELS}
        values["Z1"] = complex(0.1, 0.02)  # 20% imaginary: flagged
        ms = MeasurementSet(values=values)
        flags = ms.imaginary_flags()
        assert flags["Z1"] is True
        assert not any(flags[label] for label in LABELS if label != "Z1")

    def test_zero_value_not_flagged(self):
        ms = uniform_set()
        assert not any(ms.imaginary_flags().values())


class TestAssembleDensity:
    def test_uniform(self):
        density = assemble_density(uniform_set())
        np.testing.assert_allclose(density.populations, 0.125, atol=1e-15)

    def test_cold_point_inverts_to_ground_manifold(self):
        params = ModelParams(J=1.0, h=1.0, beta=11.0)
        density = assemble_density(exact_measurement_set(params))
        expected = np.zeros(8)
        expected[[3, 5, 6]] = 1.0 / 3.0
        np.testing.assert_allclose(density.populations, expected, atol=1e-6)

    def test_hardware_fixture(self):
        density = assemble_density(measurement_set(HARDWARE_VALUES))
        np.testing.assert_allclose(density.populations, HARDWARE_POPULATIONS, atol=1e-12)
        assert density.populations.sum() == pytest.approx(1.0, abs=1e-12)
        assert density.is_physical

    @pytest.mark.parametrize("beta", [0.0, 0.7, 3.0, 11.0])
    @pytest.mark.parametrize("h", [-2.5, 0.0, 1.0])
    def test_inversion_matches_gibbs(self, beta, h):
        params = ModelParams(J=1.0, h=h, beta=beta)
        density = assemble_density(exact_measurement_set(params))
        np.testing.assert_allclose(
            density.populations, gibbs_distribution(params).weights, atol=1e-10
        )

    def test_negative_population_visible(self):
        values = {label: complex(0.0) for label in LABELS}
        values["Z1Z2Z3"] = complex(1.5)  # unphysical input
        density = assemble_density(MeasurementSet(values=values))
        assert density.populations.min() < -0.05
        assert not density.is_physical

    def test_uses_real_parts_only(self):
        noisy_imag = {label: complex(0.0, 0.3) for label in LABELS}
        density = assemble_density(MeasurementSet(values=noisy_imag))
        np.testing.assert_allclose(density.populations, 0.125, atol=1e-15)


class TestBatchedRows:
    def test_each_row_equals_its_one_row_call(self):
        # one matrix-vector product per row: a row's bits do not depend on
        # the batch around it
        rng = np.random.default_rng(4)
        populations = rng.dirichlet(np.full(8, 0.4), size=(3, 40))
        values = readouts(populations)
        assert values.shape == (3, 40, 7)
        rebuilt = invert(values)
        strict = entropies(rebuilt, "strict")
        clamped = entropies(rebuilt - 0.01, "clamp")
        for index in np.ndindex(3, 40):
            v = values[index]
            ms = measurement_set(dict(zip(LABELS, v)))
            assert v.tobytes() == readouts(populations[index]).tobytes()
            density = assemble_density(ms)
            assert rebuilt[index].tobytes() == density.populations.tobytes()
            assert strict[index] == entropy(density)
            assert observables_summary(ms).magnetization == v[0] + v[1] + v[2]
            assert clamped[index] == entropies(rebuilt[index] - 0.01, "clamp")


class TestEntropy:
    def test_point_mass(self):
        p = np.zeros(8)
        p[7] = 1.0
        assert entropy(DiagonalDensity(populations=p)) == 0.0

    def test_uniform(self):
        density = DiagonalDensity(populations=np.full(8, 0.125))
        assert entropy(density) == pytest.approx(3 * math.log(2), abs=1e-12)

    def test_strict_rejects_negative(self):
        p = np.array([0.3, 0.8, -0.1, 0, 0, 0, 0, 0])
        with pytest.raises(NonPhysicalStateError):
            entropy(DiagonalDensity(populations=p))

    def test_clamp_policy_repairs(self):
        p = np.array([0.3, 0.8, -0.1, 0, 0, 0, 0, 0])
        value = entropy(DiagonalDensity(populations=p), policy="clamp")
        q = np.array([0.3, 0.8, 0, 0, 0, 0, 0, 0]) / 1.1
        assert value == pytest.approx(float(-(q[q > 0] * np.log(q[q > 0])).sum()))

    def test_unknown_policy(self):
        with pytest.raises(DomainError):
            entropy(DiagonalDensity(populations=np.full(8, 0.125)), policy="ignore")

    def test_pipeline_landmark_sixfold(self):
        params = ModelParams(J=1.0, h=0.0, beta=11.0)
        density = assemble_density(exact_measurement_set(params))
        assert entropy(density) == pytest.approx(math.log(6), abs=1e-3)


class TestFidelity:
    def test_identical_diagonal(self):
        density = assemble_density(measurement_set(HARDWARE_VALUES))
        rho = diagonal_matrix(density.populations)
        assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_point_masses(self):
        a = np.zeros(8)
        a[0] = 1.0
        b = np.zeros(8)
        b[7] = 1.0
        assert fidelity(
            DensityMatrix.from_state(a), DensityMatrix.from_state(b)
        ) == pytest.approx(0.0, abs=1e-15)

    def test_depolarized_vs_pure_closed_form(self):
        # F(|psi><psi|, rho_eps) = eta + (1 - eta)/8
        amps = np.zeros(8)
        amps[3] = 1.0
        rho = DensityMatrix.from_state(amps)
        noisy = depolarize(rho, 0.5)
        assert fidelity(rho, noisy) == pytest.approx(0.5625, abs=1e-12)

    def test_diagonal_and_matrix_paths_agree(self):
        # commuting (diagonal) states: F reduces to (sum sqrt(p q))^2
        params = ModelParams(J=1.0, h=0.5, beta=2.0)
        p = assemble_density(exact_measurement_set(params)).populations
        q = np.full(8, 0.125)
        reference = float(np.sum(np.sqrt(np.clip(p, 0.0, None) * q)) ** 2)
        matrix_path = fidelity(diagonal_matrix(p), DensityMatrix.maximally_mixed(8))
        assert matrix_path == pytest.approx(reference, abs=1e-10)

    def test_symmetry(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            a = diagonal_matrix(rng.dirichlet(np.ones(8)))
            amps = rng.normal(size=8) + 1j * rng.normal(size=8)
            b = depolarize(DensityMatrix.from_state(amps / np.linalg.norm(amps)), 0.6)
            assert fidelity(a, b) == pytest.approx(fidelity(b, a), abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            fidelity(DensityMatrix.maximally_mixed(4), DensityMatrix.maximally_mixed(8))


class TestObservablesSummary:
    def test_cold_point(self):
        params = ModelParams(J=1.0, h=1.0, beta=11.0)
        summary = observables_summary(exact_measurement_set(params))
        assert summary.magnetization == pytest.approx(-1.0, abs=1e-6)
        assert summary.pair_correlation == pytest.approx(-1.0, abs=1e-6)
        assert summary.triple_correlation == pytest.approx(1.0, abs=1e-6)

    def test_saturated_point(self):
        params = ModelParams(J=1.0, h=5.0, beta=11.0)
        summary = observables_summary(exact_measurement_set(params))
        assert summary.magnetization == pytest.approx(-3.0, abs=1e-6)
        assert summary.pair_correlation == pytest.approx(3.0, abs=1e-6)
        assert summary.triple_correlation == pytest.approx(-1.0, abs=1e-6)

    def test_zero_field_symmetry(self):
        params = ModelParams(J=1.0, h=0.0, beta=3.0)
        summary = observables_summary(exact_measurement_set(params))
        assert summary.magnetization == pytest.approx(0.0, abs=1e-10)
