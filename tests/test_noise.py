import json
import math

import numpy as np
import pytest

from cetsim.engine import run_circuit
from cetsim.errors import DomainError, NonPhysicalStateError
from cetsim.model import ModelParams
from cetsim.noise import (
    DEFAULT_DURATIONS,
    DecayProfile,
    DensityMatrix,
    clip_to_simplex,
    default_decay_table,
    depolarize,
    estimate_eta,
    load_decay_table,
    projection_overlap,
    recover,
)
from cetsim.synth import build_triangle_circuit


def random_pure(rng, dim=8):
    amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return amps / np.linalg.norm(amps)


def cets_state(beta=11.0, h=5.0):
    return run_circuit(build_triangle_circuit(ModelParams(J=1.0, h=h, beta=beta)))


class TestDensityMatrix:
    def test_from_state_is_projector(self):
        rho = DensityMatrix.from_state(cets_state())
        assert rho.dimension == 8
        assert rho.purity() == pytest.approx(1.0, abs=1e-12)
        assert rho.is_physical

    def test_rejects_unnormalised(self):
        with pytest.raises(DomainError):
            DensityMatrix.from_state(np.ones(8))

    def test_rejects_non_hermitian(self):
        m = np.zeros((4, 4), dtype=complex)
        m[0, 0] = 1.0
        m[0, 1] = 0.5
        with pytest.raises(DomainError):
            DensityMatrix(m)

    def test_rejects_empty(self):
        with pytest.raises(DomainError, match="empty"):
            DensityMatrix(np.zeros((0, 0)))

    def test_rejects_wrong_trace(self):
        with pytest.raises(DomainError):
            DensityMatrix(np.eye(4, dtype=complex))

    @pytest.mark.parametrize("dtype", [complex, float])
    def test_rejects_nan(self, dtype):
        with pytest.raises(DomainError, match="not Hermitian"):
            DensityMatrix(np.full((2, 2), np.nan, dtype))
        with pytest.raises(DomainError, match="^state norm is nan, expected 1$"):
            DensityMatrix.from_state(np.full(2, np.nan, dtype))

    def test_maximally_mixed(self):
        rho = DensityMatrix.maximally_mixed(8)
        assert rho.purity() == pytest.approx(1.0 / 8.0, abs=1e-15)


class TestDepolarize:
    def test_eta_one_is_identity_channel(self):
        rho = DensityMatrix.from_state(cets_state())
        out = depolarize(rho, 1.0)
        np.testing.assert_allclose(out.matrix, rho.matrix, atol=1e-15)

    def test_eta_zero_is_maximally_mixed(self):
        rho = DensityMatrix.from_state(cets_state())
        out = depolarize(rho, 0.0)
        np.testing.assert_allclose(out.matrix, np.eye(8) / 8, atol=1e-15)

    def test_purity_closed_form(self):
        # pure 8-dim input: Tr rho_eps^2 = (7 eta^2 + 1)/8
        rho = DensityMatrix.from_state(cets_state())
        out = depolarize(rho, 0.5)
        assert out.purity() == pytest.approx(0.34375, abs=1e-12)

    def test_eta_out_of_range(self):
        rho = DensityMatrix.maximally_mixed(4)
        for eta in (-0.1, 1.1):
            with pytest.raises(DomainError):
                depolarize(rho, eta)

    def test_diagonal_observable_scales_by_eta(self):
        # traceless Pauli: Tr(rho_eps P) = eta Tr(rho P)
        rho = DensityMatrix.from_state(cets_state(beta=2.0, h=0.7))
        signs = np.array([1, -1, 1, -1, 1, -1, 1, -1], dtype=float)  # Z3
        ideal = float(np.real(np.diag(rho.matrix)) @ signs)
        noisy = float(np.real(np.diag(depolarize(rho, 0.37).matrix)) @ signs)
        assert noisy == pytest.approx(0.37 * ideal, abs=1e-12)


class TestEstimateEta:
    def test_pure_state_reads_one(self):
        rho = DensityMatrix.from_state(cets_state())
        assert estimate_eta(rho) == pytest.approx(1.0, abs=1e-12)
        assert estimate_eta(rho, "approx") == pytest.approx(1.0, abs=1e-12)

    def test_exact_mode_inverts_injection(self):
        rho = DensityMatrix.from_state(cets_state())
        for eta in np.linspace(0.1, 1.0, 10):
            noisy = depolarize(rho, float(eta))
            assert estimate_eta(noisy) == pytest.approx(float(eta), abs=1e-12)

    def test_approx_mode_is_sqrt_purity(self):
        rho = depolarize(DensityMatrix.from_state(cets_state()), 0.5)
        assert estimate_eta(rho, "approx") == pytest.approx(
            math.sqrt(0.34375), abs=1e-15
        )

    def test_calibration_landmark(self):
        # the channel whose purity estimate reads 0.6316
        eta0 = math.sqrt((8 * 0.6316**2 - 1) / 7)
        rho = depolarize(DensityMatrix.from_state(cets_state()), eta0)
        assert estimate_eta(rho, "approx") == pytest.approx(0.6316, abs=1e-12)

    def test_maximally_mixed(self):
        rho = DensityMatrix.maximally_mixed(8)
        assert estimate_eta(rho) == 0.0
        assert estimate_eta(rho, "approx") == pytest.approx(math.sqrt(1 / 8))

    def test_unknown_mode(self):
        with pytest.raises(DomainError):
            estimate_eta(DensityMatrix.maximally_mixed(4), "guess")


class TestRecover:
    def test_round_trip_random_states(self):
        rng = np.random.default_rng(5)
        worst = 0.0
        for _ in range(100):
            rho = DensityMatrix.from_state(random_pure(rng))
            eta = float(rng.uniform(0.05, 1.0))
            back = recover(depolarize(rho, eta), eta)
            worst = max(worst, float(np.max(np.abs(back.matrix - rho.matrix))))
        assert worst < 1e-12

    def test_trace_preserved(self):
        rho = depolarize(DensityMatrix.from_state(cets_state()), 0.4)
        out = recover(rho, 0.7)
        assert complex(np.trace(out.matrix)).real == pytest.approx(1.0, abs=1e-12)

    def test_lam_validation(self):
        rho = DensityMatrix.maximally_mixed(8)
        for lam in (0.0, -0.2, 1.5):
            with pytest.raises(DomainError):
                recover(rho, lam)

    def test_overcorrection_flagged_not_hidden(self):
        rho = depolarize(DensityMatrix.from_state(cets_state()), 0.3)
        out = recover(rho, 0.18)  # lam well below the injected eta
        assert not out.is_physical
        assert out.min_eigenvalue() < -1e-10

    def test_population_ordering_invariant(self):
        # the recovery map is affine with positive slope on populations
        rng = np.random.default_rng(6)
        p = rng.dirichlet(np.ones(8))
        rho = depolarize(DensityMatrix(np.diag(p).astype(complex)), 0.6)
        rec = recover(rho, 0.8)
        before = np.argsort(np.real(np.diag(rho.matrix)))
        after = np.argsort(np.real(np.diag(rec.matrix)))
        np.testing.assert_array_equal(before, after)


class TestProjectionOverlap:
    def test_pure_state(self):
        state = cets_state()
        rho = DensityMatrix.from_state(state)
        assert projection_overlap(rho, state) == pytest.approx(1.0, abs=1e-12)

    def test_depolarized_closed_form(self):
        # <psi|rho_eps|psi> = eta + (1-eta)/8 ; purity = (7 eta^2+1)/8
        state = cets_state()
        rho = depolarize(DensityMatrix.from_state(state), 0.5)
        expected = (0.5 + 0.5 / 8) / math.sqrt(0.34375)
        value = projection_overlap(rho, state)
        assert value == pytest.approx(expected, abs=1e-12)
        assert value == pytest.approx(0.9594, abs=5e-5)

    def test_dimension_check(self):
        with pytest.raises(DomainError):
            projection_overlap(DensityMatrix.maximally_mixed(4), np.ones(8) / np.sqrt(8))


class TestDecay:
    def test_profile_factor(self):
        profile = DecayProfile(tau=0.35, t2=1.0)
        assert profile.factor == pytest.approx(math.exp(-0.35), abs=1e-15)

    def test_t1_envelope(self):
        profile = DecayProfile(tau=0.5, t2=1.0, t1=2.95)
        assert profile.factor == pytest.approx(
            math.exp(-0.5) * math.exp(-0.5 / 2.95), abs=1e-15
        )

    def test_rate(self):
        assert DecayProfile(tau=0.35, t2=0.5).rate == pytest.approx(0.7, abs=1e-15)
        profile = DecayProfile(tau=0.5, t2=1.0, t1=2.95)
        assert profile.rate == pytest.approx(0.5 + 0.5 / 2.95, abs=1e-15)
        assert math.exp(-profile.rate) == pytest.approx(profile.factor, rel=1e-15)

    def test_rate_stays_finite_when_factor_underflows(self):
        profile = DecayProfile(tau=1000.0, t2=1.0)
        assert profile.factor == 0.0
        assert profile.rate == 1000.0

    def test_profile_validation(self):
        with pytest.raises(DomainError):
            DecayProfile(tau=-0.1)
        with pytest.raises(DomainError):
            DecayProfile(tau=0.1, t2=0.0)
        with pytest.raises(DomainError):
            DecayProfile(tau=0.1, t2=1.0, t1=-1.0)

    def test_default_table_covers_standard_set(self):
        table = default_decay_table()
        assert set(table) == set(DEFAULT_DURATIONS)
        assert table["Z1"].tau == 0.35
        assert table["Z1Z3"].tau == 0.76

    def test_load_decay_table_shorthand(self, tmp_path):
        path = tmp_path / "decay.json"
        path.write_text(json.dumps({"t2": 2.0, "Z1": 0.35, "Z2": 0.46}))
        table = load_decay_table(path)
        assert table["Z1"] == DecayProfile(tau=0.35, t2=2.0)
        assert table["Z2"].factor == pytest.approx(math.exp(-0.23))

    def test_load_decay_table_full_entries(self, tmp_path):
        path = tmp_path / "decay.json"
        path.write_text(
            json.dumps({"Z1": {"tau": 0.35, "t2": 0.5, "t1": 2.95}, "Z2": {"tau": 0.4}})
        )
        table = load_decay_table(path)
        assert table["Z1"].t1 == 2.95
        assert table["Z2"].t2 == 1.0

    def test_load_rejects_non_object(self, tmp_path):
        path = tmp_path / "decay.json"
        path.write_text("[1, 2]")
        with pytest.raises(DomainError):
            load_decay_table(path)


class TestClipToSimplex:
    def test_no_op_on_valid(self):
        p, clipped = clip_to_simplex(np.full(8, 0.125))
        assert clipped == 0.0
        np.testing.assert_allclose(p, 0.125)

    def test_clips_and_renormalises(self, caplog):
        with caplog.at_level("INFO", logger="cetsim.noise"):
            p, clipped = clip_to_simplex(np.array([0.6, 0.5, -0.1]))
        assert clipped == pytest.approx(0.1)
        assert p.sum() == pytest.approx(1.0)
        assert p[2] == 0.0
        assert "clipped" in caplog.text

    def test_all_negative_rejected(self):
        with pytest.raises(NonPhysicalStateError):
            clip_to_simplex(np.array([-0.5, -0.5]))
