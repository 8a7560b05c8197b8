import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from cetsim import cli, engine, model, reconstruct, synth
from cetsim import sweep as sweep_mod
from cetsim.errors import DomainError, IncompleteSetError, TopologyError
from cetsim.model import CHAIN, ModelParams, exact_entropy
from cetsim.pauli import PauliString
from cetsim.noise import DecayProfile, default_decay_table
from cetsim.outputs import emit_outputs
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

    def test_equal_points_of_a_seeded_batch_draw_apart(self):
        spec = SweepSpec(betas=(0.3,), fields=(0.2, 0.2))
        dataset = run_sweep(spec, shots=64, seed=5)
        first, second = (dataset.row(b).result(PROVENANCE_IDEAL) for b in (0, 1))
        assert first.measurements != second.measurements
        # point b draws label i from seed + b * len(LABELS) + i
        point = run_point(triangle(0.3, 0.2), shots=64, seed=5)
        assert first.measurements == point.result(PROVENANCE_IDEAL).measurements
        later = run_point(triangle(0.3, 0.2), shots=64, seed=5 + len(LABELS))
        assert second.measurements == later.result(PROVENANCE_IDEAL).measurements


def count_calls(monkeypatch):
    """Calls by name of the functions that form a point's weights, angles
    and circuit, counted from here on."""
    calls = {}
    for owner, name in ((synth, "build_circuit"), (synth, "rotation_angles"),
                        (synth, "cets_angles"), (synth, "gibbs_angles"),
                        (model, "gibbs_tables")):
        def counting(*args, _real=getattr(owner, name), _name=name, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
    return calls


def count_circuit_objects(monkeypatch):
    """Names of the `synth.Gate`s and `synth.Circuit`s constructed from here on."""
    made = []
    for cls in (synth.Gate, synth.Circuit):
        def counting(self, _real=cls.__post_init__, _name=cls.__name__):
            made.append(_name)
            _real(self)

        monkeypatch.setattr(cls, "__post_init__", counting)
    return made


class TestSinglePreparation:
    @pytest.mark.parametrize(
        "noise", [None, NoiseOptions(eta=0.7, recover="auto")], ids=["ideal", "eta-auto"]
    )
    def test_one_circuit_per_point(self, noise, monkeypatch):
        calls = count_calls(monkeypatch)
        made = count_circuit_objects(monkeypatch)

        def no_probe(*args, **kwargs):
            raise AssertionError("run_point must not go through the probe")

        monkeypatch.setattr(engine, "probe_expectation", no_probe)
        run_point(triangle(2.0, 0.5), noise=noise)
        # its weights and angles are formed once; the circuit is a compiled
        # layout, so no build_circuit, Gate or Circuit
        assert calls == {"gibbs_tables": 1, "gibbs_angles": 1}
        assert made == []

    def test_one_circuit_per_batch(self, monkeypatch):
        calls = count_calls(monkeypatch)
        made = count_circuit_objects(monkeypatch)
        spec = SweepSpec(betas=(0.5, 3.0, 11.0), fields=(-1.0, 0.0, 0.5, 2.0))
        run_sweep(spec)
        # one batch of weights and angles; no point's angles on their own
        assert calls == {"gibbs_tables": 1, "gibbs_angles": 1}
        assert made == []

    def test_plan_is_compiled_once_per_shape(self):
        engine._plan.cache_clear()
        run_point(triangle(2.0, 0.5))
        run_point(triangle(0.3, -1.0), noise=NoiseOptions(eta=0.7))
        run_sweep(SweepSpec(betas=(0.5, 3.0), fields=(-1.0, 0.0, 2.0)))
        info = engine._plan.cache_info()
        assert (info.misses, info.hits) == (1, 2)

    def test_batch_angles_reach_the_engine_as_one_array(self, monkeypatch):
        formed, passed = [], []

        def gibbs_angles(*args, _real=synth.gibbs_angles):
            formed.append(_real(*args))
            return formed[-1]

        def run_layout(qubits, layout, angles, _real=engine.run_layout):
            passed.append(angles)
            return _real(qubits, layout, angles)

        monkeypatch.setattr(synth, "gibbs_angles", gibbs_angles)
        monkeypatch.setattr(engine, "run_layout", run_layout)
        run_sweep(SweepSpec(betas=(0.5, 3.0), fields=(-1.0, 0.0, 2.0)))
        assert len(passed) == 1 and passed[0] is formed[0]
        assert isinstance(passed[0], np.ndarray) and passed[0].shape == (6, 7)

    def test_sweep_and_emitters_build_no_per_point_objects(
        self, monkeypatch, tmp_path
    ):
        made = []
        views = ((sweep_mod, "PointResult"), (reconstruct, "MeasurementSet"))
        for owner, name in views:
            def counting(*args, _real=getattr(owner, name), _name=name, **kwargs):
                made.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(owner, name, counting)
        noise = NoiseOptions(eta=0.7, recover="auto")
        spec = SweepSpec(
            betas=(0.5, 3.0, 11.0), fields=(-1.0, 0.0, 0.5, 2.0), noise=noise
        )
        dataset = run_sweep(spec)
        emit_outputs(dataset, ("csv", "json", "svg"), str(tmp_path))
        assert made == []
        # the per-point views are still built on request
        assert len(dataset.rows) == 12
        assert made.count("PointResult") == made.count("MeasurementSet") == 12 * 3

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

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_chain_is_rejected_before_compute(self, n, monkeypatch):
        def no_circuit(*args, **kwargs):
            raise AssertionError("no circuit may run for a chain")

        monkeypatch.setattr(engine, "run_layout", no_circuit)
        with pytest.raises(TopologyError):
            run_point(ModelParams(J=1.0, h=0.3, beta=1.0, n=n, topology=CHAIN))

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

    def test_with_parallelism_sets_the_count(self):
        spec = SweepSpec(betas=(1.0, 2.0), fields=(0.0,))
        assert spec.parallelism == 1
        four = with_parallelism(spec, 4)
        assert four.parallelism == 4
        assert four == dataclasses.replace(spec, parallelism=4)
        assert with_parallelism(four, 4) is four
        assert spec.parallelism == 1
        with pytest.raises(DomainError, match="parallelism must be >= 1, got 0"):
            with_parallelism(four, 0)
        with pytest.raises(DomainError, match="parallelism must be >= 1, got 0"):
            SweepSpec(betas=(1.0,), fields=(1.0,), parallelism=0)

    def test_largest_grid_holds_only_its_axes(self):
        betas = tuple(np.linspace(0.0, 11.0, 1000).tolist())
        fields = tuple(np.linspace(-5.0, 5.0, 1000).tolist())
        assert len(betas) * len(fields) == sweep_mod.MAX_POINTS
        tracemalloc.start()
        try:
            spec = SweepSpec(betas=betas, fields=fields)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20  # no object per point
        assert spec.betas is betas and spec.fields is fields

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


#: Cold enough that every excited level's weight is below 1e-17 at each case
COLD_BETAS = (1e2, 1e8, 1e16, 1e300)


class TestColdLimits:
    """J > 0: S and M tend to the ground manifold's counts, with no oracle."""

    @pytest.mark.parametrize("beta", COLD_BETAS)
    @pytest.mark.parametrize("J, h, manifold", [
        # h = 0: the six states with one spin against the other two
        (0.1, 0.0, 6), (1.0, 0.0, 6), (1.3, 0.0, 6),
        # 0 < |h| < 2J: the three of those with two spins along the field
        (1.0, 0.3, 3), (1.0, -1.0, 3), (0.7, 1.1, 3), (1.3, -0.5, 3),
        # |h| > 2J: all spins along the field
        (1.0, 2.5, 1), (1.0, -5.0, 1), (0.3, 0.9, 1),
    ])
    def test_entropy_counts_the_ground_manifold(self, beta, J, h, manifold):
        params = triangle(beta, h, J)
        for entropy in (exact_entropy(params), run_point(params).results[0].entropy):
            assert entropy == pytest.approx(math.log(manifold), abs=1e-12)

    @pytest.mark.parametrize("beta", COLD_BETAS)
    @pytest.mark.parametrize("J", [0.1, 0.3, 1 / 3, 0.35, 0.7, 1.3])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_phase_boundary_is_four_fold(self, beta, J, sign):
        # at |h| = 2J three M = -1 states and the M = -3 state are degenerate
        params = triangle(beta, sign * 2.0 * J, J)
        ideal = run_point(params).results[0]
        for entropy in (exact_entropy(params), ideal.entropy):
            assert entropy == pytest.approx(math.log(4.0), abs=1e-12)
        assert ideal.magnetization == pytest.approx(-1.5 * sign, abs=1e-12)
