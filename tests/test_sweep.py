import math

import numpy as np
import pytest

from cetsim import cli, engine, synth
from cetsim import sweep as sweep_mod
from cetsim.errors import DomainError, IncompleteSetError, TopologyError
from cetsim.model import CHAIN, ModelParams, exact_entropy, exact_expectation
from cetsim.pauli import PauliString
from cetsim.noise import DecayProfile, default_decay_table
from cetsim.reconstruct import LABELS
from cetsim.sweep import (
    PROVENANCE_IDEAL,
    PROVENANCE_NOISY,
    PROVENANCE_RECOVERED,
    NoiseOptions,
    SweepSpec,
    magnetization_slice,
    run_point,
    run_sweep,
    with_parallelism,
)


def triangle(beta, h, J=1.0):
    return ModelParams(J=J, h=h, beta=beta)


def assert_rows_equal(left, right):
    # bitwise equality, field by field (ndarray members preclude plain ==)
    assert len(left) == len(right)
    for row_a, row_b in zip(left, right):
        assert (row_a.beta, row_a.h, row_a.J) == (row_b.beta, row_b.h, row_b.J)
        assert row_a.log_partition == row_b.log_partition
        assert row_a.provenances == row_b.provenances
        for res_a, res_b in zip(row_a.results, row_b.results):
            assert res_a.measurements.values == res_b.measurements.values
            assert np.array_equal(res_a.populations, res_b.populations)
            assert res_a.magnetization == res_b.magnetization
            assert res_a.pair_correlation == res_b.pair_correlation
            assert res_a.triple_correlation == res_b.triple_correlation
            assert res_a.entropy == res_b.entropy


class TestNoiseOptions:
    def test_eta_and_decay_exclusive(self):
        with pytest.raises(DomainError):
            NoiseOptions(eta=0.5, decay=default_decay_table())

    def test_recover_requires_model(self):
        with pytest.raises(DomainError):
            NoiseOptions(recover=0.5)

    def test_recover_validation(self):
        with pytest.raises(DomainError):
            NoiseOptions(eta=0.5, recover=0.0)
        with pytest.raises(DomainError):
            NoiseOptions(eta=0.5, recover="magic")

    def test_decay_must_cover_readout_set(self):
        with pytest.raises(IncompleteSetError):
            NoiseOptions(decay={"Z1": DecayProfile(tau=0.35)})

    def test_eta_bounds(self):
        with pytest.raises(DomainError):
            NoiseOptions(eta=1.2)


class TestRunPoint:
    def test_ideal_cold_point(self):
        row = run_point(triangle(11.0, 1.0))
        assert row.provenances == (PROVENANCE_IDEAL,)
        res = row.result(PROVENANCE_IDEAL)
        assert res.magnetization == pytest.approx(-1.0, abs=1e-6)
        assert res.entropy == pytest.approx(math.log(3), abs=1e-3)
        assert row.log_partition == pytest.approx(
            math.log(3 * math.exp(22.0) + 4 + math.exp(-66.0)), rel=1e-12
        )

    def test_ideal_zero_field(self):
        res = run_point(triangle(11.0, 0.0)).result(PROVENANCE_IDEAL)
        assert res.magnetization == pytest.approx(0.0, abs=1e-9)
        assert res.entropy == pytest.approx(math.log(6), abs=1e-3)

    def test_hot_limit(self):
        res = run_point(triangle(1e-6, 1.0)).result(PROVENANCE_IDEAL)
        assert res.magnetization == pytest.approx(0.0, abs=1e-4)
        assert res.entropy == pytest.approx(3 * math.log(2), abs=1e-4)

    def test_populations_match_exact_entropy(self):
        params = triangle(2.5, 0.8)
        res = run_point(params).result(PROVENANCE_IDEAL)
        assert res.entropy == pytest.approx(exact_entropy(params), abs=1e-9)

    def test_eta_noise_scales_observables(self):
        row = run_point(triangle(11.0, 1.0), noise=NoiseOptions(eta=0.6))
        assert row.provenances == (PROVENANCE_IDEAL, PROVENANCE_NOISY)
        ideal = row.result(PROVENANCE_IDEAL)
        noisy = row.result(PROVENANCE_NOISY)
        assert noisy.magnetization == pytest.approx(0.6 * ideal.magnetization, abs=1e-12)
        assert noisy.entropy > ideal.entropy

    def test_fixed_lambda_recovery_round_trip(self):
        # recovering with the injected eta restores the ideal values exactly
        row = run_point(triangle(11.0, 1.0), noise=NoiseOptions(eta=0.6, recover=0.6))
        ideal = row.result(PROVENANCE_IDEAL)
        rec = row.result(PROVENANCE_RECOVERED)
        assert rec.magnetization == pytest.approx(ideal.magnetization, abs=1e-12)
        assert rec.entropy == pytest.approx(ideal.entropy, abs=1e-9)

    def test_auto_lambda_eta_mode(self):
        # auto uses sqrt of the noisy purity: (7 eta^2 + 1)/8 under eta
        eta = 0.6
        row = run_point(triangle(11.0, 1.0), noise=NoiseOptions(eta=eta, recover="auto"))
        lam = math.sqrt((7 * eta**2 + 1) / 8)
        noisy = row.result(PROVENANCE_NOISY)
        rec = row.result(PROVENANCE_RECOVERED)
        assert rec.magnetization == pytest.approx(noisy.magnetization / lam, abs=1e-12)

    def test_decay_noise_per_label(self):
        table = default_decay_table(t2=2.0)
        row = run_point(triangle(11.0, 1.0), noise=NoiseOptions(decay=table))
        ideal = row.result(PROVENANCE_IDEAL)
        noisy = row.result(PROVENANCE_NOISY)
        for label in LABELS:
            expected = ideal.measurements.value(label) * table[label].factor
            assert noisy.measurements.value(label) == pytest.approx(expected, abs=1e-12)

    def test_decay_auto_recovers_each_label(self):
        # auto recovery divides each readout by its own decay factor, the
        # exact inverse of the modelled decay, so the ideal values return
        table = default_decay_table()
        row = run_point(
            triangle(11.0, 1.0), noise=NoiseOptions(decay=table, recover="auto")
        )
        ideal = row.result(PROVENANCE_IDEAL)
        noisy = row.result(PROVENANCE_NOISY)
        rec = row.result(PROVENANCE_RECOVERED)
        for label in LABELS:
            expected = noisy.measurements.value(label) * (1.0 / table[label].factor)
            assert rec.measurements.value(label) == expected
            assert rec.measurements.value(label) == pytest.approx(
                ideal.measurements.value(label), abs=1e-12
            )
        assert rec.magnetization == pytest.approx(ideal.magnetization, abs=1e-12)
        assert rec.entropy == pytest.approx(ideal.entropy, abs=1e-9)

    def test_decay_auto_bounded_for_anisotropic_table(self):
        # one slow readout used to inflate every other one past [-1, 1]
        table = dict(default_decay_table())
        table["Z1Z3"] = DecayProfile(tau=30.0)
        row = run_point(triangle(1.0, 0.3), NoiseOptions(decay=table, recover="auto"))
        rec = row.result(PROVENANCE_RECOVERED)
        for label in LABELS:
            assert abs(rec.measurements.value(label).real) <= 1.0 + 1e-12
        assert abs(rec.magnetization) <= 3.0 + 1e-12

    def test_decay_auto_lambda_rejects_underflow(self):
        table = dict(default_decay_table())
        table["Z1Z3"] = DecayProfile(tau=800.0)
        with pytest.raises(DomainError):
            run_point(triangle(1.0, 0.0), NoiseOptions(decay=table, recover="auto"))
        # a fixed factor divides by that factor only
        row = run_point(triangle(1.0, 0.0), NoiseOptions(decay=table, recover=0.5))
        assert row.result(PROVENANCE_RECOVERED).measurements.value("Z1Z3") == 0.0

    def test_decay_zero_noise_limit(self):
        table = default_decay_table(t2=1e12)
        row = run_point(
            triangle(11.0, 1.0), noise=NoiseOptions(decay=table, recover="auto")
        )
        ideal = row.result(PROVENANCE_IDEAL)
        rec = row.result(PROVENANCE_RECOVERED)
        assert rec.magnetization == pytest.approx(ideal.magnetization, abs=1e-9)

    def test_shots_deterministic_per_seed(self):
        a = run_point(triangle(2.0, 0.5), shots=2000, seed=17)
        b = run_point(triangle(2.0, 0.5), shots=2000, seed=17)
        c = run_point(triangle(2.0, 0.5), shots=2000, seed=18)
        av = a.result(PROVENANCE_IDEAL).measurements
        bv = b.result(PROVENANCE_IDEAL).measurements
        cv = c.result(PROVENANCE_IDEAL).measurements
        assert av == bv
        assert any(av.value(lbl) != cv.value(lbl) for lbl in LABELS)


class TestSinglePreparation:
    @pytest.mark.parametrize(
        "noise", [None, NoiseOptions(eta=0.7, recover="auto")], ids=["ideal", "eta-auto"]
    )
    def test_one_circuit_per_point(self, noise, monkeypatch):
        built = []
        real_build = synth.build_circuit

        def counting_build(*args, **kwargs):
            built.append(kwargs.get("include_probe", False))
            return real_build(*args, **kwargs)

        def no_probe(*args, **kwargs):
            raise AssertionError("run_point must not go through the probe")

        monkeypatch.setattr(synth, "build_circuit", counting_build)
        monkeypatch.setattr(engine, "probe_expectation", no_probe)
        run_point(triangle(2.0, 0.5), noise=noise)
        assert built == [False]

    def test_one_circuit_per_batch(self, monkeypatch):
        built, angled = [], []
        real_build, real_angles = synth.build_circuit, synth.rotation_angles

        def counting_build(*args, **kwargs):
            built.append(kwargs.get("include_probe", False))
            return real_build(*args, **kwargs)

        def counting_angles(params):
            angled.append(params)
            return real_angles(params)

        monkeypatch.setattr(synth, "build_circuit", counting_build)
        monkeypatch.setattr(synth, "rotation_angles", counting_angles)
        spec = SweepSpec(betas=(0.5, 3.0, 11.0), fields=(-1.0, 0.0, 0.5, 2.0))
        dataset = run_sweep(spec)
        assert built == [False]
        # each point's angles are formed once, the first point's by build_circuit
        assert [(p.beta, p.h) for p in angled] == [(r.beta, r.h) for r in dataset.rows]

    def test_ideal_readouts_match_probe(self):
        for beta in (0.0, 0.7, 3.0, 11.0):
            for h in (-2.5, 0.0, 1.3):
                for J in (1.0, -0.8):
                    params = triangle(beta, h, J)
                    ms = run_point(params).result(PROVENANCE_IDEAL).measurements
                    for label in LABELS:
                        probe = engine.probe_expectation(
                            params, PauliString.parse(label, 3)
                        )
                        assert abs(ms.value(label) - probe.value) <= 1e-12

    def test_chain_reads_first_three_spins(self):
        params = ModelParams(J=1.0, h=0.3, beta=1.0, n=5, topology=CHAIN)
        ms = run_point(params).result(PROVENANCE_IDEAL).measurements
        for label in LABELS:
            exact = exact_expectation(params, PauliString.parse(label, 5))
            assert abs(ms.value(label) - exact) <= 1e-12
        with pytest.raises(TopologyError):
            run_point(ModelParams(J=1.0, h=0.3, beta=1.0, n=2, topology=CHAIN))

    def test_sampled_readouts_keep_probe_streams(self):
        seed = 41
        for params in (triangle(0.3, 0.4), triangle(1.0, -0.6, J=-0.5)):
            ms = run_point(params, shots=4096, seed=seed).result(PROVENANCE_IDEAL)
            for index, label in enumerate(LABELS):
                probe = engine.probe_expectation(
                    params, PauliString.parse(label, 3), shots=4096, seed=seed + index
                )
                assert ms.measurements.value(label) == probe.value


class TestSweepSpec:
    def test_empty_grid_rejected(self):
        with pytest.raises(DomainError):
            SweepSpec(betas=(), fields=(1.0,))

    def test_bad_parallelism(self, tmp_path, capsys):
        spec = SweepSpec(betas=(1.0,), fields=(1.0,))
        assert with_parallelism(spec, 1) is spec
        with pytest.raises(DomainError):
            with_parallelism(spec, 0)
        argv = ["sweep", "--beta", "1", "--h", "0", "--out-dir", str(tmp_path)]
        assert cli.main(argv + ["--parallel", "0"]) == cli.EXIT_USAGE
        assert "parallelism must be >= 1" in capsys.readouterr().err
        assert cli.main(argv + ["--parallel", "2"]) == cli.EXIT_OK

    def test_bad_format(self):
        with pytest.raises(DomainError):
            SweepSpec(betas=(1.0,), fields=(1.0,), formats=("xlsx",))


class TestRunSweep:
    def test_single_point_matches_run_point(self):
        spec = SweepSpec(betas=(3.0,), fields=(0.7,))
        dataset = run_sweep(spec)
        row = run_point(triangle(3.0, 0.7))
        assert_rows_equal(dataset.rows, (row,))

    def test_row_major_order(self):
        spec = SweepSpec(betas=(1.0, 2.0), fields=(-1.0, 0.0, 1.0))
        dataset = run_sweep(spec)
        assert [(r.beta, r.h) for r in dataset.rows] == [
            (1.0, -1.0), (1.0, 0.0), (1.0, 1.0),
            (2.0, -1.0), (2.0, 0.0), (2.0, 1.0),
        ]

    def test_parallel_matches_serial(self):
        betas = tuple(np.linspace(0.5, 4.0, 3))
        fields = tuple(np.linspace(-2.0, 2.0, 5))
        noise = NoiseOptions(eta=0.7, recover="auto")
        serial = run_sweep(SweepSpec(betas=betas, fields=fields, noise=noise))
        parallel = run_sweep(
            with_parallelism(SweepSpec(betas=betas, fields=fields, noise=noise), 4)
        )
        assert_rows_equal(serial.rows, parallel.rows)

    def test_unwritable_out_dir_fails_before_compute(
        self, monkeypatch, tmp_path, capsys
    ):
        blocker = tmp_path / "file"
        blocker.write_text("in the way")

        def no_compute(spec):
            raise AssertionError("the sweep ran before the destination was checked")

        monkeypatch.setattr(sweep_mod, "run_sweep", no_compute)
        code = cli.main(
            ["sweep", "--beta", "1", "--h", "0", "--out-dir", str(blocker / "sub")]
        )
        assert code == cli.EXIT_IO
        assert "i/o error" in capsys.readouterr().err


    def test_duplicate_axis_values_select_rows_by_position(self):
        spec = SweepSpec(betas=(1.0, 1.0), fields=(0.0, 0.5, 1.0))
        dataset = run_sweep(spec)
        m = magnetization_slice(dataset, 1.0)
        assert m.tolist() == [
            row.result(PROVENANCE_IDEAL).magnetization for row in dataset.rows[:3]
        ]
        with pytest.raises(DomainError):
            magnetization_slice(dataset, 2.0)


class TestPhaseStructure:
    def test_magnetization_staircase(self):
        # cold slice: plateaus at -3, -1, +1, +3 with steps near h = -2, 0, 2
        fields = np.linspace(-5.0, 5.0, 101)
        rows = [run_point(triangle(50.0, float(h))) for h in fields]
        m = np.array([r.result(PROVENANCE_IDEAL).magnetization for r in rows])
        assert abs(m[fields < -2.2] - 3.0).max() < 1e-6
        assert abs(m[(fields > -1.8) & (fields < -0.2)] - 1.0).max() < 1e-6
        assert abs(m[(fields > 0.2) & (fields < 1.8)] + 1.0).max() < 1e-6
        assert abs(m[fields > 2.2] + 3.0).max() < 1e-6

    def test_half_integer_step_at_crossover(self):
        # at h = 2J four states are degenerate: M = (3*(-1) + (-3))/4
        res = run_point(triangle(50.0, 2.0)).result(PROVENANCE_IDEAL)
        assert res.magnetization == pytest.approx(-1.5, abs=0.01)

    def test_thermal_washout_of_steps(self):
        fields = np.linspace(-5.0, 5.0, 101)

        def max_slope(beta):
            m = [
                run_point(triangle(beta, float(h))).result(PROVENANCE_IDEAL).magnetization
                for h in fields
            ]
            return np.max(np.abs(np.diff(m))) / (fields[1] - fields[0])

        assert max_slope(11.0) / max_slope(1.0) > 3.0
