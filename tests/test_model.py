import math

import numpy as np
import pytest

from cetsim.errors import DomainError, TopologyError
from cetsim.model import (
    CHAIN,
    ModelParams,
    cets_amplitudes,
    chain_conditionals,
    exact_entropy,
    exact_expectation,
    gibbs_distribution,
    spin_values,
)
from cetsim.pauli import PauliString

# Hand-enumerated energies of the triangle at J=1, h=1, indexed by the
# configuration bit string b1 b2 b3 (bit 0 = spin up).
TRIANGLE_ENERGIES_J1_H1 = [6.0, 0.0, 0.0, -2.0, 0.0, -2.0, -2.0, 0.0]


def test_energy_all_up():
    params = ModelParams(J=1.0, h=1.0, beta=1.0)
    assert gibbs_distribution(params).energies[0] == 6.0


def test_energy_table_matches_enumeration():
    params = ModelParams(J=1.0, h=1.0, beta=1.0)
    assert gibbs_distribution(params).energies.tolist() == TRIANGLE_ENERGIES_J1_H1


def test_ground_manifold_at_h1():
    # one-spin-up configurations 011, 101, 110
    e = gibbs_distribution(ModelParams(J=1.0, h=1.0, beta=1.0)).energies
    ground = np.flatnonzero(e == e.min())
    assert ground.tolist() == [3, 5, 6]


def test_sixfold_degeneracy_at_zero_field():
    e = gibbs_distribution(ModelParams(J=1.0, h=0.0, beta=1.0)).energies
    assert int((e == e.min()).sum()) == 6


def test_spin_values_convention():
    z = spin_values(3)
    assert z[0].tolist() == [1.0, 1.0, 1.0]
    assert z[0b011].tolist() == [1.0, -1.0, -1.0]
    assert z[0b111].tolist() == [-1.0, -1.0, -1.0]


def test_bonds():
    assert ModelParams(J=1, h=0, beta=1).bonds() == ((0, 1), (1, 2), (0, 2))
    chain = ModelParams(J=1, h=0, beta=1, n=5, topology=CHAIN)
    assert chain.bonds() == ((0, 1), (1, 2), (2, 3), (3, 4))
    assert ModelParams(J=1, h=0, beta=1, n=1, topology=CHAIN).bonds() == ()


@pytest.mark.parametrize("beta", [0.1, 1.0, 5.0])
@pytest.mark.parametrize("h", [-2.0, 0.0, 0.7])
def test_gibbs_matches_naive(beta, h):
    params = ModelParams(J=1.0, h=h, beta=beta)
    table = gibbs_distribution(params)
    raw = np.exp(-beta * table.energies)
    naive = raw / raw.sum()
    np.testing.assert_allclose(table.weights, naive, atol=1e-10)
    assert math.isclose(table.log_partition, math.log(raw.sum()), rel_tol=1e-12)


def test_gibbs_beta_zero_is_uniform():
    table = gibbs_distribution(ModelParams(J=1.0, h=1.0, beta=0.0))
    np.testing.assert_allclose(table.weights, np.full(8, 0.125), atol=1e-15)


def test_gibbs_low_temperature_concentrates():
    table = gibbs_distribution(ModelParams(J=1.0, h=1.0, beta=11.0))
    for k in (3, 5, 6):
        assert abs(table.weights[k] - 1.0 / 3.0) < 1e-9
    assert table.weights[[0, 1, 2, 4, 7]].max() < 1e-9


def test_gibbs_strong_field_selects_all_down():
    table = gibbs_distribution(ModelParams(J=1.0, h=5.0, beta=11.0))
    assert abs(table.weights[7] - 1.0) < 1e-9


def test_gibbs_survives_extreme_beta():
    # raw Boltzmann factors overflow here; log-space path must not
    table = gibbs_distribution(ModelParams(J=1.0, h=5.0, beta=400.0))
    assert np.isfinite(table.log_partition)
    assert abs(table.weights.sum() - 1.0) < 1e-12


def test_weights_complement_symmetry_at_zero_field():
    w = gibbs_distribution(ModelParams(J=1.0, h=0.0, beta=3.0)).weights
    for k in range(8):
        assert w[k] == pytest.approx(w[7 - k], abs=1e-15)


def test_params_validation():
    with pytest.raises(DomainError):
        ModelParams(J=1.0, h=0.0, beta=-0.5)
    with pytest.raises(DomainError):
        ModelParams(J=float("nan"), h=0.0, beta=1.0)
    with pytest.raises(DomainError):
        ModelParams(J=1.0, h=0.0, beta=1.0, n=0, topology=CHAIN)
    with pytest.raises(TopologyError):
        ModelParams(J=1.0, h=0.0, beta=1.0, n=4)
    with pytest.raises(TopologyError):
        ModelParams(J=1.0, h=0.0, beta=1.0, topology="ring")


def test_params_reject_overflowing_energy_scale():
    with pytest.raises(DomainError):
        ModelParams(J=1.0, h=1e308, beta=1e308)
    with pytest.raises(DomainError):
        ModelParams(J=1e200, h=0.0, beta=1e200, n=5, topology=CHAIN)


def test_gibbs_normalises_at_large_log_partition():
    # log Z ~ 1e5: exp(log_w - log Z) carried its rounding into the weights
    table = gibbs_distribution(ModelParams(J=6.54, h=-6.61, beta=2192.0))
    assert abs(table.weights.sum() - 1.0) <= 1e-12


def test_gibbs_ground_manifold_at_extreme_beta():
    table = gibbs_distribution(ModelParams(J=1.0, h=1.0, beta=1e200))
    np.testing.assert_allclose(table.weights[[3, 5, 6]], 1.0 / 3.0, atol=1e-15)
    assert table.weights[[0, 1, 2, 4, 7]].max() == 0.0
    assert math.isfinite(table.log_partition)


def test_chain_wide_domain_normalises():
    # log-uniform beta over 16 decades, both signs of J, chains up to n = 9
    rng = np.random.default_rng(2026)
    for _ in range(2000):
        params = ModelParams(
            J=float(rng.uniform(0.1, 10.0) * rng.choice([-1.0, 1.0])),
            h=float(rng.uniform(-10.0, 10.0)),
            beta=float(10.0 ** rng.uniform(-12.0, 4.0)),
            n=int(rng.integers(1, 10)),
            topology=CHAIN,
        )
        chain_conditionals(params)
        gibbs_distribution(params)


def test_exact_expectation_landmarks():
    params = ModelParams(J=1.0, h=1.0, beta=11.0)
    for label in ("Z1", "Z2", "Z3", "Z1Z2", "Z2Z3", "Z1Z3"):
        value = exact_expectation(params, PauliString.parse(label, 3))
        assert value.imag == 0.0
        assert abs(value.real + 1.0 / 3.0) < 1e-6
    triple = exact_expectation(params, PauliString.parse("Z1Z2Z3", 3))
    assert abs(triple.real - 1.0) < 1e-6


def test_exact_expectation_identity():
    params = ModelParams(J=1.0, h=0.3, beta=2.0)
    assert exact_expectation(params, PauliString.identity(3)) == pytest.approx(1.0)


def test_exact_expectation_off_diagonal_against_dense_oracle():
    # independent oracle: dense kron matrices on sqrt(p)
    params = ModelParams(J=1.0, h=0.6, beta=2.5)
    psi = cets_amplitudes(params)
    mats = {
        "I": np.eye(2),
        "X": np.array([[0, 1], [1, 0]], dtype=complex),
        "Y": np.array([[0, -1j], [1j, 0]]),
        "Z": np.diag([1.0, -1.0]).astype(complex),
    }
    rng = np.random.default_rng(7)
    for _ in range(20):
        letters = rng.choice(list("IXYZ"), size=3)
        op = PauliString(tuple(letters))
        dense = np.kron(np.kron(mats[letters[0]], mats[letters[1]]), mats[letters[2]])
        expected = psi @ dense @ psi
        got = exact_expectation(params, op)
        assert abs(got - expected) < 1e-12


def test_exact_expectation_x_is_small_but_nonzero():
    params = ModelParams(J=1.0, h=1.0, beta=11.0)
    value = exact_expectation(params, PauliString.parse("X1", 3))
    assert 0.0 < value.real < 1e-4


def test_y_expectation_real_part_is_exactly_zero():
    # real amplitudes + odd number of Y factors: purely imaginary terms
    params = ModelParams(J=1.0, h=0.4, beta=3.0)
    for label in ("Y1", "Y2", "Y3", "X1Y2", "Y1Z3"):
        value = exact_expectation(params, PauliString.parse(label, 3))
        assert value.real == 0.0


def test_exact_expectation_size_mismatch():
    params = ModelParams(J=1.0, h=0.0, beta=1.0)
    with pytest.raises(DomainError):
        exact_expectation(params, PauliString.parse("Z1", 4))


def test_entropy_landmarks():
    assert exact_entropy(ModelParams(J=1, h=1, beta=0.0)) == pytest.approx(
        3 * math.log(2), abs=1e-12
    )
    assert exact_entropy(ModelParams(J=1, h=0, beta=11.0)) == pytest.approx(
        math.log(6), abs=1e-3
    )
    assert exact_entropy(ModelParams(J=1, h=1, beta=11.0)) == pytest.approx(
        math.log(3), abs=1e-3
    )
    assert exact_entropy(ModelParams(J=1, h=5, beta=11.0)) < 1e-6


def test_cets_amplitudes_are_sqrt_weights():
    params = ModelParams(J=1.0, h=0.2, beta=1.7)
    table = gibbs_distribution(params)
    np.testing.assert_allclose(cets_amplitudes(params) ** 2, table.weights, atol=1e-14)


def chain_rule_weight(cond, index):
    """Gibbs probability of one configuration via the chain rule."""
    n = cond.params.n
    bits = [(index >> (n - 1 - i)) & 1 for i in range(n)]
    p = cond.table[0, 0, bits[0]]
    for i in range(1, n):
        p *= cond.table[i, bits[i - 1], bits[i]]
    return float(p)


class TestChainConditionals:
    def test_requires_chain(self):
        with pytest.raises(TopologyError):
            chain_conditionals(ModelParams(J=1.0, h=0.0, beta=1.0))

    def test_single_site_marginal(self):
        # bit 0 is z=+1, which costs +h, so its weight is exp(-beta h)
        params = ModelParams(J=1.0, h=0.8, beta=2.0, n=1, topology=CHAIN)
        cond = chain_conditionals(params)
        up = math.exp(-1.6) / (2 * math.cosh(1.6))
        assert cond.table[0, 0, 0] == pytest.approx(up, abs=1e-14)
        assert cond.table[0, 0, 1] == pytest.approx(1 - up, abs=1e-14)

    def test_rows_normalise(self):
        params = ModelParams(J=1.0, h=-0.3, beta=4.0, n=7, topology=CHAIN)
        cond = chain_conditionals(params)
        np.testing.assert_allclose(cond.table.sum(axis=2), 1.0, atol=1e-12)

    def test_beta_zero_gives_coin_flips(self):
        params = ModelParams(J=1.0, h=0.5, beta=0.0, n=4, topology=CHAIN)
        cond = chain_conditionals(params)
        np.testing.assert_allclose(cond.table, 0.5, atol=1e-15)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_products_reproduce_gibbs(self, n):
        # brute-force oracle, written out independently of the model helpers
        params = ModelParams(J=1.0, h=0.7, beta=2.0, n=n, topology=CHAIN)
        cond = chain_conditionals(params)
        boltz = []
        for k in range(2**n):
            z = [1 - 2 * ((k >> (n - 1 - i)) & 1) for i in range(n)]
            e = sum(z[i] * z[i + 1] for i in range(n - 1)) + 0.7 * sum(z)
            boltz.append(math.exp(-2.0 * e))
        total = sum(boltz)
        for k in range(2**n):
            expected = boltz[k] / total
            assert chain_rule_weight(cond, k) == pytest.approx(expected, abs=1e-10)

    def test_large_beta_does_not_overflow(self):
        # h=3 is past the h=2J crossover, so the field wins: all spins down
        params = ModelParams(J=1.0, h=3.0, beta=50.0, n=20, topology=CHAIN)
        cond = chain_conditionals(params)
        assert np.isfinite(cond.table).all()
        assert chain_rule_weight(cond, 2**20 - 1) == pytest.approx(1.0, abs=1e-12)
