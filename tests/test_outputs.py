import dataclasses
import json
import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from cetsim.errors import DomainError, NumericError
from cetsim.model import ModelParams
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
from cetsim.sweep import NoiseOptions, SweepDataset, SweepSpec, run_batch, run_sweep


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
        for dataset in (noisy_dataset, _decay_t1(), _shots(), _integer_inputs()):
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
    params = [ModelParams(J=1.0, h=0.2, beta=0.3)]
    dataset = run_batch(spec, params, shots=4096, seed=5)
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
        ],
        ids=[
            "ideal", "eta-auto", "decay-t1", "shots", "integer-inputs",
            "special-floats",
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
