import dataclasses
import json
import math
import os
import struct
import time
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cetsim import outputs
from cetsim.errors import DomainError, NumericError
from cetsim.noise import default_decay_table
from cetsim.outputs import (
    CSV_HEADER,
    _SCALE,
    _scale_colors,
    _spec_payload,
    default_plots,
    emit_outputs,
    write_csv,
    write_heatmap,
    write_json,
    write_line_plot,
)
from cetsim.reconstruct import LABELS
from cetsim.sweep import (
    NoiseOptions,
    SweepDataset,
    SweepSpec,
    run_sweep,
    with_parallelism,
)


@pytest.fixture(scope="module")
def ideal_dataset():
    return run_sweep(SweepSpec(betas=(1.0, 2.0), fields=(-1.0, 0.0, 1.0)))


@pytest.fixture(scope="module")
def noisy_dataset():
    return run_sweep(
        SweepSpec(
            betas=(1.0, 2.0),
            fields=(-1.0, 0.0, 1.0),
            noise=NoiseOptions(eta=0.8, recover=0.8),
        )
    )


@pytest.fixture(scope="module")
def line_dataset():
    return run_sweep(SweepSpec(betas=(2.0,), fields=(-2.0, -1.0, 0.0, 1.0, 2.0)))


class TestCsv:
    def test_header_exact(self, ideal_dataset, tmp_path):
        path = tmp_path / "sweep.csv"
        write_csv(ideal_dataset, path)
        text = path.read_text(encoding="utf-8")
        assert text.splitlines()[0] == "beta,h,J,M,C2,C3,S,logZ,provenance"
        assert CSV_HEADER == "beta,h,J,M,C2,C3,S,logZ,provenance"

    def test_one_line_per_stage(self, noisy_dataset, tmp_path):
        path = tmp_path / "sweep.csv"
        write_csv(noisy_dataset, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 1 + 6 * 3  # header + grid points x stages
        provenances = {line.rsplit(",", 1)[1] for line in lines[1:]}
        assert provenances == {"ideal", "simulated-noisy", "recovered"}

    def test_floats_round_trip_exactly(self, ideal_dataset, tmp_path):
        path = tmp_path / "sweep.csv"
        write_csv(ideal_dataset, path)
        lines = path.read_text(encoding="utf-8").splitlines()[1:]
        for line, row in zip(lines, ideal_dataset.rows):
            cells = line.split(",")
            assert float(cells[0]) == row.beta
            assert float(cells[1]) == row.h
            assert float(cells[3]) == row.results[0].magnetization
            assert float(cells[7]) == row.log_partition

    def test_matches_row_loop(self, noisy_dataset, tmp_path):
        datasets = (noisy_dataset, _decay_t1(), _shots(), _integer_inputs(), _special_names())
        for dataset in datasets:
            write_csv(dataset, tmp_path / "sweep.csv")
            expected = [CSV_HEADER]
            for row in dataset.rows:
                for res in row.results:
                    numbers = (
                        row.beta, row.h, row.J, res.magnetization,
                        res.pair_correlation, res.triple_correlation, res.entropy,
                        row.log_partition,
                    )
                    expected.append(
                        ",".join([*(repr(float(x)) for x in numbers), res.provenance])
                    )
            text = (tmp_path / "sweep.csv").read_text(encoding="utf-8")
            assert text == "\n".join(expected) + "\n"

    def test_unix_newlines_and_trailing_newline(self, ideal_dataset, tmp_path):
        path = tmp_path / "sweep.csv"
        write_csv(ideal_dataset, path)
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")


class TestJson:
    def test_loads_and_shape(self, noisy_dataset, tmp_path):
        path = tmp_path / "sweep.json"
        write_json(noisy_dataset, path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert set(payload) == {"spec", "rows"}
        assert len(payload["rows"]) == 6
        row = payload["rows"][0]
        assert set(row) == {"beta", "h", "J", "logZ", "results"}
        stages = [res["provenance"] for res in row["results"]]
        assert stages == ["ideal", "simulated-noisy", "recovered"]
        res = row["results"][0]
        assert len(res["populations"]) == 8
        assert set(res["observables"]) == {
            "Z1", "Z2", "Z3", "Z1Z2", "Z2Z3", "Z1Z3", "Z1Z2Z3",
        }
        assert set(res["observables"]["Z1"]) == {"real", "imag"}

    def test_spec_payload_is_data_only(self, noisy_dataset, tmp_path):
        path = tmp_path / "sweep.json"
        write_json(noisy_dataset, path)
        spec = json.loads(path.read_text(encoding="utf-8"))["spec"]
        assert set(spec) == {"betas", "fields", "J", "noise"}
        assert "parallelism" not in spec
        assert spec["noise"]["eta"] == 0.8
        assert spec["noise"]["recover"] == 0.8
        assert spec["noise"]["decay"] is None

    def test_noise_null_without_noise(self, ideal_dataset, tmp_path):
        path = tmp_path / "sweep.json"
        write_json(ideal_dataset, path)
        spec = json.loads(path.read_text(encoding="utf-8"))["spec"]
        assert spec["noise"] is None

    def test_keys_sorted(self, ideal_dataset, tmp_path):
        path = tmp_path / "sweep.json"
        write_json(ideal_dataset, path)
        text = path.read_text(encoding="utf-8")
        assert text.index('"rows"') < text.index('"spec"')


def reference_json(dataset, path):
    """sweep.json as one nested payload through json.dump."""
    rows = []
    for row in dataset.rows:
        results = []
        for res in row.results:
            results.append(
                {
                    "provenance": res.provenance,
                    "observables": {
                        label: {
                            "real": res.measurements.value(label).real,
                            "imag": res.measurements.value(label).imag,
                        }
                        for label in LABELS
                    },
                    "populations": [float(p) for p in res.populations],
                    "M": res.magnetization,
                    "C2": res.pair_correlation,
                    "C3": res.triple_correlation,
                    "S": res.entropy,
                }
            )
        rows.append(
            {
                "beta": row.beta,
                "h": row.h,
                "J": row.J,
                "logZ": row.log_partition,
                "results": results,
            }
        )
    payload = {"spec": _spec_payload(dataset.spec), "rows": rows}
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _eta_auto():
    return run_sweep(
        SweepSpec(
            betas=(0.5, 3.0),
            fields=(-1.0, 0.25),
            noise=NoiseOptions(eta=0.7, recover="auto"),
        )
    )


def _decay_t1():
    noise = NoiseOptions(decay=default_decay_table(t1=3.0), recover="auto")
    return run_sweep(SweepSpec(betas=(1.0, 3.0), fields=(-1.0, 1.0), noise=noise))


def _shots():
    spec = SweepSpec(
        betas=(0.3,), fields=(0.2,), noise=NoiseOptions(eta=0.9, recover="auto")
    )
    dataset = run_sweep(spec, shots=4096, seed=5)
    assert (dataset.values[:, 0, LABELS.index("Z1")].imag != 0.0).any()
    return dataset


def _integer_inputs():
    return run_sweep(SweepSpec(betas=(1, 2), fields=(0.5,), J=1))


def _special_floats():
    values = np.full((1, 1, len(LABELS)), complex(-0.0, math.nan))
    values[0, 0, LABELS.index("Z1")] = complex(math.inf, -math.inf)
    populations = np.array([[[-0.0, math.nan, math.inf, -math.inf, 0.5, 0, 1, 2]]])
    # M, C2, C3 and S
    stats = [np.array([[x]]) for x in (-0.0, math.nan, math.inf, -math.inf)]
    spec = SweepSpec(betas=(1.0,), fields=(-0.0,), J=-1.0)
    return SweepDataset(
        spec, ("ideal",), np.array([math.nan]), values, populations, *stats
    )


def _special_names():
    """Seven stages, named with what json escapes or `%` reads, and as the
    row template's own markers."""
    names = ("50%", "%s", 'say "hi"', "back\\slash", "réel ✓", "@1", "#0")
    base = _eta_auto()
    stages = [k % len(base.provenances) for k in range(len(names))]
    columns = ("values", "populations", "magnetization", "pair_correlation",
               "triple_correlation", "entropy")
    return dataclasses.replace(
        base, provenances=names, **{name: getattr(base, name)[stages] for name in columns}
    )


class TestJsonBytes:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: run_sweep(SweepSpec(betas=(1.0, 2.0), fields=(-1.0, 0.0, 1.0))),
            _eta_auto,
            _decay_t1,
            _shots,
            _integer_inputs,
            _special_floats,
            _special_names,
        ],
        ids=[
            "ideal", "eta-auto", "decay-t1", "shots", "integer-inputs",
            "special-floats", "special-names",
        ],
    )
    def test_matches_json_dump(self, build, tmp_path):
        dataset = build()
        write_json(dataset, tmp_path / "streamed.json")
        reference_json(dataset, tmp_path / "reference.json")
        streamed = (tmp_path / "streamed.json").read_bytes()
        assert streamed == (tmp_path / "reference.json").read_bytes()

    def test_integer_inputs_spelled_as_integers(self, tmp_path):
        write_json(_integer_inputs(), tmp_path / "sweep.json")
        text = (tmp_path / "sweep.json").read_text(encoding="utf-8")
        assert '      "J": 1,\n      "beta": 1,\n' in text

    def test_decay_spec_block_nested(self, tmp_path):
        write_json(_decay_t1(), tmp_path / "sweep.json")
        spec = json.loads((tmp_path / "sweep.json").read_text())["spec"]
        assert spec["noise"]["decay"]["Z1"]["t1"] == 3.0


def _float(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


#: Values whose spelling is easy to get wrong: signed zeros, NaNs with
#: distinct payloads and signs, infinities, subnormals and the values at
#: repr's switches between positional and exponent notation.
_EDGE_FLOATS = (
    0.0, -0.0, math.inf, -math.inf,
    _float(0x7FF8000000000000), _float(0x7FF8000000000001),
    _float(0xFFF8000000000000), _float(0x7FFFFFFFFFFFFFFF),
    5e-324, -5e-324, 2.225073858507201e-308,
    1e16, 9999999999999998.0, 1e-4, 1e-5, 0.7, 0.0375, 1.0, -1.0,
)


@st.composite
def _blocks(draw):
    """A (rows, columns) float block drawn from a pool of at most five
    values, edge values or any float, so repeats are heavy."""
    pool = draw(st.lists(st.sampled_from(_EDGE_FLOATS) | st.floats(), min_size=1, max_size=5))
    rows, columns = draw(st.integers(1, 6)), draw(st.integers(1, 9))
    values = draw(st.lists(st.sampled_from(pool), min_size=rows * columns,
                           max_size=rows * columns))
    return np.array(values, dtype=np.float64).reshape(rows, columns)


class TestSpell:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_blocks())
    @example(np.array([_EDGE_FLOATS, _EDGE_FLOATS[::-1]]))
    @example(np.array([[0.0, -0.0, 0.0], [-0.0, 0.0, -0.0]]))
    def test_matches_per_element_spelling(self, block):
        reprs, jsons = outputs._spell(block)
        values = block.tolist()
        assert reprs.tolist() == [[float.__repr__(x) for x in row] for row in values]
        assert jsons.tolist() == [[json.dumps(x) for x in row] for row in values]


class TestFromRows:
    def test_rows_must_fill_the_grid(self, noisy_dataset):
        d = noisy_dataset
        for kept in (0, 5):
            columns = [
                getattr(d, name)[:, :kept]
                for name in ("values", "populations", "magnetization",
                             "pair_correlation", "triple_correlation", "entropy")
            ]
            with pytest.raises(DomainError, match=f"^{kept} rows for 6 points$"):
                SweepDataset(d.spec, d.provenances, d.log_partition[:kept], *columns)


class TestSvg:
    def test_line_plot_well_formed(self, noisy_dataset, tmp_path):
        path = tmp_path / "line.svg"
        write_line_plot(noisy_dataset, "M", path)
        root = ET.fromstring(path.read_text(encoding="utf-8"))
        assert root.tag.endswith("svg")

    def test_line_plot_one_polyline_per_series(self, noisy_dataset, tmp_path):
        path = tmp_path / "line.svg"
        write_line_plot(noisy_dataset, "S", path)
        text = path.read_text(encoding="utf-8")
        assert text.count("<polyline") == 2 * 3  # betas x stages

    def test_noisy_stages_dashed(self, noisy_dataset, tmp_path):
        path = tmp_path / "line.svg"
        write_line_plot(noisy_dataset, "M", path)
        text = path.read_text(encoding="utf-8")
        assert 'stroke-dasharray="6,3"' in text
        assert 'stroke-dasharray="2,3"' in text

    def test_duplicate_axis_values_keep_one_point_per_field(self, tmp_path):
        spec = SweepSpec(betas=(1.0, 1.0), fields=(0.0, 0.5, 1.0))
        path = tmp_path / "line.svg"
        write_line_plot(run_sweep(spec), "M", path)
        root = ET.fromstring(path.read_text(encoding="utf-8"))
        lines = [el for el in root.iter() if el.tag.endswith("polyline")]
        assert [len(el.get("points").split()) for el in lines] == [3, 3]

    def test_colors_match_scalar_scale(self):
        def scale_color(t):
            # the per-cell form the heatmaps used before they coloured columns
            t = min(max(t, 0.0), 1.0)
            pos = t * (len(_SCALE) - 1)
            i = min(int(pos), len(_SCALE) - 2)
            frac = pos - i
            rgb = [
                round(255 * ((1.0 - frac) * _SCALE[i][k] + frac * _SCALE[i + 1][k]))
                for k in range(3)
            ]
            return f"rgb({rgb[0]},{rgb[1]},{rgb[2]})"

        t = np.concatenate([np.linspace(-0.2, 1.2, 50001), np.arange(24) / 23])
        assert _scale_colors(t) == [scale_color(x) for x in t.tolist()]

    @pytest.mark.parametrize(
        "plot, quantity, attr, value",
        [("M-vs-h", "M", "magnetization", math.nan),
         ("S-heatmap", "S", "entropy", math.inf)],
        ids=["line", "heatmap"],
    )
    def test_non_finite_value_is_numeric_error(
        self, ideal_dataset, tmp_path, plot, quantity, attr, value
    ):
        column = getattr(ideal_dataset, attr).copy()
        column[0, 4] = value
        dataset = dataclasses.replace(ideal_dataset, **{attr: column})
        with pytest.raises(NumericError, match=f"non-finite {quantity} of stage ideal"):
            emit_outputs(dataset, ["svg"], str(tmp_path), plots=[plot])
        assert list(tmp_path.iterdir()) == []

    def test_heatmap_well_formed(self, noisy_dataset, tmp_path):
        path = tmp_path / "heat.svg"
        write_heatmap(noisy_dataset, "M", "recovered", path)
        root = ET.fromstring(path.read_text(encoding="utf-8"))
        rects = [el for el in root.iter() if el.tag.endswith("rect")]
        # 6 grid cells + 24 colour-bar steps
        assert len(rects) == 6 + 24

    def test_heatmap_of_an_absent_stage_is_a_domain_error(self, ideal_dataset, tmp_path):
        with pytest.raises(DomainError, match="no stage 'recovered'"):
            write_heatmap(ideal_dataset, "M", "recovered", tmp_path / "heat.svg")
        assert list(tmp_path.iterdir()) == []

    def test_unknown_quantity_rejected(self, ideal_dataset, tmp_path):
        with pytest.raises(DomainError):
            write_line_plot(ideal_dataset, "Q", tmp_path / "x.svg")
        with pytest.raises(DomainError):
            write_heatmap(ideal_dataset, "Q", "ideal", tmp_path / "x.svg")


class TestEmitOutputs:
    def test_default_plots_follow_grid_shape(self, ideal_dataset, line_dataset):
        assert default_plots(line_dataset) == ["M-vs-h", "S-vs-h"]
        assert default_plots(ideal_dataset) == [
            "M-vs-h", "S-vs-h", "M-heatmap", "S-heatmap",
        ]

    def test_emit_all_formats(self, noisy_dataset, tmp_path):
        written = emit_outputs(
            noisy_dataset, ["csv", "json", "svg"], str(tmp_path)
        )
        names = sorted(p.rsplit("/", 1)[1] for p in written)
        assert names == [
            "heatmap_M_ideal.svg",
            "heatmap_M_noisy.svg",
            "heatmap_M_recovered.svg",
            "heatmap_S_ideal.svg",
            "heatmap_S_noisy.svg",
            "heatmap_S_recovered.svg",
            "line_M_vs_h.svg",
            "line_S_vs_h.svg",
            "sweep.csv",
            "sweep.json",
        ]

    def test_unknown_format_rejected(self, ideal_dataset, tmp_path):
        with pytest.raises(DomainError):
            emit_outputs(ideal_dataset, ["yaml"], str(tmp_path))

    def test_unknown_plot_token_rejected(self, ideal_dataset, tmp_path):
        with pytest.raises(DomainError):
            emit_outputs(ideal_dataset, ["svg"], str(tmp_path), plots=["M-pie"])

    def test_repeated_emission_is_byte_identical(self, noisy_dataset, tmp_path):
        dir_a = tmp_path / "a"
        dir_b = tmp_path / "b"
        paths_a = emit_outputs(noisy_dataset, ["csv", "json", "svg"], str(dir_a))
        paths_b = emit_outputs(noisy_dataset, ["csv", "json", "svg"], str(dir_b))
        assert len(paths_a) == len(paths_b)
        for pa, pb in zip(paths_a, paths_b):
            with open(pa, "rb") as fa, open(pb, "rb") as fb:
                assert fa.read() == fb.read()

    def test_repeated_plot_token_draws_once(self, ideal_dataset, tmp_path):
        written = emit_outputs(ideal_dataset, ["svg"], str(tmp_path),
                               plots=["S-vs-h", "M-vs-h", "S-vs-h"])
        assert [p.rsplit("/", 1)[1] for p in written] == [
            "line_S_vs_h.svg", "line_M_vs_h.svg",
        ]


def _one_beta():
    noise = NoiseOptions(eta=0.7, recover="auto")
    return run_sweep(SweepSpec(betas=(2.0,), fields=tuple(np.linspace(-2, 2, 7)),
                               noise=noise))


def _one_point():
    return run_sweep(SweepSpec(betas=(0.5,), fields=(0.25,)))


@pytest.fixture
def many_cpus(monkeypatch):
    # the process count is capped by the usable CPUs; a 64-CPU answer lets
    # the small grids below reach every split on any machine
    monkeypatch.setattr(outputs, "_usable_cpus", lambda: 64)


def _emit(dataset, workers, formats, out_dir):
    """Relative paths `emit_outputs` returned and {name: bytes} it wrote."""
    spec = with_parallelism(dataset.spec, workers)
    paths = emit_outputs(dataclasses.replace(dataset, spec=spec), formats, str(out_dir))
    files = {p.name: p.read_bytes() for p in out_dir.iterdir()}
    return [os.path.relpath(p, out_dir) for p in paths], files


class TestParallelRows:
    @pytest.mark.parametrize(
        "build", [_one_beta, _one_point, _decay_t1, _special_floats],
        ids=["one-beta", "one-point", "decay-t1", "special-floats"],
    )
    @pytest.mark.parametrize("chunk", [2, 256], ids=["chunk-2", "chunk-256"])
    def test_outputs_identical_for_any_worker_count(
        self, build, chunk, forks, many_cpus, monkeypatch, tmp_path
    ):
        monkeypatch.setattr(outputs, "_CHUNK", chunk)
        dataset = build()
        points = len(dataset.log_partition)
        both = ["csv", "json"]
        if np.isfinite(dataset.entropy).all():  # special floats cannot be plotted
            both.append("svg")
        written = {}  # each file's bytes, whichever format set wrote it
        for formats in (["csv"], ["json"], both):
            out = tmp_path / "-".join(formats)
            del forks[:]
            serial = _emit(dataset, 1, formats, out / "serial")
            assert forks == []
            chunks = -(-points // chunk)
            for workers in (2, 3, points + 1):
                del forks[:]
                assert _emit(dataset, workers, formats, out / str(workers)) == serial
                # the calling process is one of the processes that spell rows
                assert len(forks) == min(workers, chunks) - 1
            for name, data in serial[1].items():
                assert written.setdefault(name, data) == data, name
        write_csv(dataset, tmp_path / "direct.csv")
        write_json(dataset, tmp_path / "direct.json")
        assert (tmp_path / "direct.csv").read_bytes() == written["sweep.csv"]
        assert (tmp_path / "direct.json").read_bytes() == written["sweep.json"]

    def test_workers_capped_by_cpus_and_points(
        self, ideal_dataset, forks, monkeypatch, tmp_path
    ):
        monkeypatch.setattr(outputs, "_CHUNK", 1)  # one chunk per point
        dataset = dataclasses.replace(
            ideal_dataset, spec=with_parallelism(ideal_dataset.spec, 10**6)
        )
        emit_outputs(dataset, ["csv", "json"], str(tmp_path))
        assert len(forks) == min(outputs._usable_cpus(), 6) - 1

    def test_usable_cpus_follow_the_affinity_set(self, monkeypatch):
        # a cpuset-limited container: the machine has 64 CPUs, this process may use 3
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
        assert outputs._usable_cpus() == 3

    def test_default_parallelism_never_forks(self, noisy_dataset, monkeypatch, tmp_path):
        def no_fork():
            raise AssertionError("a sweep with parallelism 1 must not fork")

        monkeypatch.setattr(os, "fork", no_fork)
        assert noisy_dataset.spec.parallelism == 1
        assert len(emit_outputs(noisy_dataset, ["csv", "json", "svg"], str(tmp_path))) == 10

    def test_temporary_parts_leave_no_file(
        self, ideal_dataset, forks, many_cpus, monkeypatch, tmp_path
    ):
        monkeypatch.setattr(outputs, "_CHUNK", 2)
        for processes in (1, 2):
            del forks[:]
            dataset = dataclasses.replace(
                ideal_dataset, spec=with_parallelism(ideal_dataset.spec, processes)
            )
            out = tmp_path / str(processes)
            emit_outputs(dataset, ["json", "csv"], str(out))
            assert len(forks) == processes - 1
            # neither a part nor its temporary directory
            assert sorted(p.name for p in out.iterdir()) == ["sweep.csv", "sweep.json"]

    def test_own_spelling_fault_reaps_children_and_leaves_no_file(
        self, ideal_dataset, forks, many_cpus, monkeypatch, tmp_path
    ):
        monkeypatch.setattr(outputs, "_CHUNK", 1)
        parent = os.getpid()
        real_row_speller = outputs._row_speller

        def broken_here(*args):
            # raises at the call, whether or not the children left a chunk
            if os.getpid() == parent:
                raise RuntimeError("calling process fault")
            return real_row_speller(*args)

        monkeypatch.setattr(outputs, "_row_speller", broken_here)
        dataset = dataclasses.replace(
            ideal_dataset, spec=with_parallelism(ideal_dataset.spec, 3)
        )
        with pytest.raises(RuntimeError, match="calling process fault"):
            emit_outputs(dataset, ["csv", "json"], str(tmp_path))
        assert len(forks) == 2
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert list(tmp_path.iterdir()) == []

    def test_late_plots_leave_the_chunks_to_the_child(
        self, forks, many_cpus, monkeypatch, tmp_path
    ):
        monkeypatch.setattr(outputs, "_CHUNK", 2)
        dataset = _one_beta()
        serial = _emit(dataset, 1, ["csv", "json"], tmp_path / "serial")
        real_plot_files = outputs._plot_files
        real_slot_matrix = outputs._slot_matrix
        spelled_here = []

        def slow_plot_files(*args):
            time.sleep(0.5)
            return real_plot_files(*args)

        def counted_slot_matrix(*args):
            spelled_here.append(args[1])  # one call per chunk, in this process only
            return real_slot_matrix(*args)

        monkeypatch.setattr(outputs, "_plot_files", slow_plot_files)
        monkeypatch.setattr(outputs, "_slot_matrix", counted_slot_matrix)
        _, files = _emit(dataset, 2, ["csv", "json", "svg"], tmp_path / "late")
        assert len(forks) == 1
        assert {name: files[name] for name in serial[1]} == serial[1]
        chunks = -(-len(dataset.log_partition) // 2)
        assert len(spelled_here) < chunks - len(spelled_here)

    def test_plot_fault_stops_the_children(self, forks, many_cpus, monkeypatch, tmp_path):
        # before it reaps, the calling process claims every chunk left, so
        # each child stops after the chunk it is spelling when a plot fails
        monkeypatch.setattr(outputs, "_CHUNK", 1)
        log = tmp_path / "spelled"
        real_row_speller = outputs._row_speller
        real_plot_files = outputs._plot_files

        def logged_speller(dataset, formats):
            spell = real_row_speller(dataset, formats)

            def logged(chunk, files):
                time.sleep(0.02)  # 48 chunks take a child about 1 s
                spell(chunk, files)
                with open(log, "a") as fh:
                    fh.write(f"{os.getpid()}\n")
            return logged

        before = []

        def plots_once_a_child_spells(*args):
            # the log exists from a child's open, before its first line is
            # written, so wait for a whole line
            deadline = time.monotonic() + 10
            text = ""
            while "\n" not in text and time.monotonic() < deadline:
                time.sleep(0.001)
                text = log.read_text() if log.exists() else ""
            before.extend(text[: text.rfind("\n") + 1].split())
            return real_plot_files(*args)

        monkeypatch.setattr(outputs, "_row_speller", logged_speller)
        monkeypatch.setattr(outputs, "_plot_files", plots_once_a_child_spells)
        dataset = run_sweep(SweepSpec(betas=(1.0, 2.0), fields=tuple(np.linspace(-2, 2, 24))))
        column = dataset.magnetization.copy()
        column[0, 0] = math.nan
        dataset = dataclasses.replace(
            dataset, magnetization=column, spec=with_parallelism(dataset.spec, 3)
        )
        with pytest.raises(NumericError, match="non-finite M"):
            emit_outputs(dataset, ["csv", "json", "svg"], str(tmp_path / "out"))
        assert len(forks) == 2
        assert before  # a child was spelling when the plot failed
        after = log.read_text().split()
        for pid in forks:
            assert after.count(str(pid)) - before.count(str(pid)) <= 2
        assert list((tmp_path / "out").iterdir()) == []

    def test_claims_never_repeat_across_processes(self, forks, many_cpus, monkeypatch, tmp_path):
        # six processes on any number of cores race for 20,000 one-point chunks,
        # each spelled as its own index; a chunk missed or written twice into
        # its part, or parts joined out of order, changes the file
        monkeypatch.setattr(outputs, "_CHUNK", 1)

        def index_speller(dataset, formats):
            def spell(chunk, files):
                for fh in files:
                    fh.write(b"%d\n" % chunk.start)
            return spell

        monkeypatch.setattr(outputs, "_row_speller", index_speller)
        dataset = run_sweep(SweepSpec(betas=(1.0,), fields=tuple(np.linspace(-1, 1, 20000))))
        dataset = dataclasses.replace(dataset, spec=with_parallelism(dataset.spec, 6))
        emit_outputs(dataset, ["csv"], str(tmp_path))
        assert len(forks) == 5
        rows = "".join(f"{b}\n" for b in range(20000))
        every_chunk_once = (tmp_path / "sweep.csv").read_text() == CSV_HEADER + "\n" + rows
        assert every_chunk_once  # a bool, so a failure prints no 20,000-line diff

    def test_repeated_formats_write_once(self, ideal_dataset, tmp_path):
        written = emit_outputs(ideal_dataset, ["csv", "csv", "svg", "json", "svg"], str(tmp_path))
        names = [os.path.basename(p) for p in written]
        assert names[:1] == ["sweep.csv"] and names[-1:] == ["sweep.json"]
        assert len(names) == len(set(names))
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(names)
