import dataclasses
import json
import math
import os
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cetsim import cli, errors
from cetsim.errors import NumericError
from cetsim.model import ModelParams
from cetsim.noise import DEFAULT_DURATIONS
from cetsim.reconstruct import LABELS
from cetsim.sweep import MAX_POINTS, run_point
from cetsim.synth import parse_circuit


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPoint:
    def test_exit_ok_and_report(self, capsys):
        code, out, _ = run_cli(["point", "--beta", "2", "--h", "0.5"], capsys)
        assert code == cli.EXIT_OK
        assert "beta=2 h=0.5 J=1" in out
        assert "[ideal]" in out
        row = run_point(ModelParams(J=1.0, h=0.5, beta=2.0))
        expected = f"M={row.results[0].magnetization:+.9f}"
        assert expected in out

    def test_negative_field_value(self, capsys):
        code, out, _ = run_cli(["point", "--beta", "1", "--h", "-1.5"], capsys)
        assert code == cli.EXIT_OK
        assert "h=-1.5" in out

    @pytest.mark.parametrize(
        "flag, value, shown",
        [("--h", "-1e-3", "h=-0.001"), ("--J", "-1E2", "J=-100"),
         ("--beta", "-1e0", None)],
    )
    def test_negative_values_with_an_exponent(self, capsys, flag, value, shown):
        argv = {"--beta": "1", "--h": "0", "--J": "1", flag: value}
        code, out, err = run_cli(
            ["point", *(token for item in argv.items() for token in item)], capsys
        )
        if shown is None:
            # parsed as a value, then rejected by the model's domain check
            assert code == cli.EXIT_USAGE
            assert "beta must be >= 0" in err
        else:
            assert code == cli.EXIT_OK
            assert shown in out

    @pytest.mark.parametrize(
        "argv, shown",
        [(["point", "--h", "-inf"], "-inf"), (["point", "--h", "-nan"], "nan"),
         (["sweep", "--h", "-inf:0:2"], "-inf")],
    )
    def test_negative_non_finite_values_reach_the_finite_check(
        self, capsys, tmp_path, argv, shown
    ):
        code, out, err = run_cli(
            [*argv, "--beta", "1", "--out-dir", str(tmp_path / "out")], capsys
        )
        assert code == cli.EXIT_USAGE
        assert (out, err) == ("", f"error: h must be finite, got {shown}\n")
        assert not (tmp_path / "out").exists()

    def test_value_led_by_a_dash_is_read_as_a_float(self, capsys):
        code, out, err = run_cli(["point", "--beta", "1", "--h", "-h"], capsys)
        assert code == cli.EXIT_USAGE
        assert out == ""
        assert err.endswith("error: argument --h: invalid float value: '-h'\n")

    def test_repeated_formats_written_once_in_order(self, capsys, tmp_path):
        code, out, _ = run_cli(
            ["point", "--beta", "1", "--h", "0", "--out-dir", str(tmp_path),
             "--format", "json,csv,csv,json"],
            capsys,
        )
        assert code == cli.EXIT_OK
        wrote = [line.rsplit("/", 1)[1] for line in out.splitlines()
                 if line.startswith("wrote ")]
        assert wrote == ["sweep.csv", "sweep.json"]

    def test_noise_stages_reported(self, capsys):
        code, out, _ = run_cli(
            ["point", "--beta", "2", "--h", "0.5", "--eta", "0.8",
             "--recover", "0.8"],
            capsys,
        )
        assert code == cli.EXIT_OK
        for stage in ("[ideal]", "[simulated-noisy]", "[recovered]"):
            assert stage in out

    def test_shots_deterministic_with_seed(self, capsys):
        argv = ["point", "--beta", "2", "--h", "0.5", "--shots", "400",
                "--seed", "11"]
        _, out_a, _ = run_cli(argv, capsys)
        _, out_b, _ = run_cli(argv, capsys)
        assert out_a == out_b

    def test_out_dir_writes_files(self, capsys, tmp_path):
        code, out, _ = run_cli(
            ["point", "--beta", "1", "--h", "0", "--out-dir", str(tmp_path),
             "--format", "csv,json"],
            capsys,
        )
        assert code == cli.EXIT_OK
        assert (tmp_path / "sweep.csv").exists()
        assert (tmp_path / "sweep.json").exists()

    @pytest.mark.parametrize(
        "noise, formats",
        [(["--eta", "0.7", "--recover", "auto"], ["--format", "csv,json,svg"]),
         (["--decay-profile", "default", "--t1", "3", "--recover", "auto"],
          ["--format", "csv,json,svg"]),
         ([], [])],
        ids=["eta-auto", "decay-t1", "default-format"],
    )
    def test_files_match_a_one_point_sweep(self, capsys, tmp_path, noise, formats):
        point = ["--beta", "2", "--h", "0.5", *noise, *formats]
        dir_a, dir_b = tmp_path / "point", tmp_path / "sweep"
        code_a, _, _ = run_cli(["point", *point, "--out-dir", str(dir_a)], capsys)
        code_b, _, _ = run_cli(["sweep", *point, "--out-dir", str(dir_b)], capsys)
        assert code_a == code_b == cli.EXIT_OK
        names = sorted(p.name for p in dir_a.iterdir())
        assert names == sorted(p.name for p in dir_b.iterdir())
        assert names == (["line_M_vs_h.svg", "line_S_vs_h.svg", "sweep.csv",
                          "sweep.json"] if formats else ["sweep.csv"])
        for name in names:
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()

    def test_unwritable_out_dir_fails_before_compute(self, capsys, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("in the way")
        code, out, err = run_cli(
            ["point", "--beta", "2", "--h", "0.5", "--eta", "0.7", "--recover",
             "auto", "--out-dir", str(blocker / "x")],
            capsys,
        )
        assert code == cli.EXIT_IO
        assert out == ""
        assert "i/o error" in err

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_format_without_out_dir_is_usage_error(
        self, capsys, tmp_path, monkeypatch, source
    ):
        monkeypatch.chdir(tmp_path)
        argv = ["point", "--beta", "1", "--h", "0"]
        if source == "flag":
            argv += ["--format", "json"]
        else:
            (tmp_path / "cfg.json").write_text(json.dumps({"format": "json"}))
            argv = ["--config", "cfg.json", *argv]
        code, out, err = run_cli(argv, capsys)
        assert code == cli.EXIT_USAGE
        assert out == ""
        assert err == "error: --format requires --out-dir\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == (
            ["cfg.json"] if source == "config" else []
        )

    def test_overflowing_beta_field_is_usage_error(self, capsys):
        code, out, err = run_cli(["point", "--beta", "1e308", "--h", "1e308"], capsys)
        assert code == cli.EXIT_USAGE
        assert "nan" not in out.lower()
        assert "error" in err

    def test_extreme_beta_reads_ground_manifold(self, capsys):
        code, out, _ = run_cli(["point", "--beta", "1e200", "--h", "1"], capsys)
        assert code == cli.EXIT_OK
        assert "nan" not in out.lower()
        assert "M=-1.000000000" in out

    @pytest.mark.parametrize("argv, expected", [
        # beta * 3 (|J| + |h|) is just below the overflow the guard rejects
        (["--beta", "5e307", "--h", "0", "--J", "1"],
         ("C2=-1.000000000", "S=1.791759469")),
        # a level gap of 4e300 at beta = 1e-9: only the ground pair has weight
        (["--beta", "1e-9", "--h", "0", "--J", "-1e300"],
         ("C2=+3.000000000", "S=0.693147181")),
        (["--beta", "1e16", "--h", "0", "--J", "1"], ("S=1.791759469",)),
        (["--beta", "1e50", "--h", "0.3", "--J", "1"], ("S=1.098612289",)),
        (["--beta", "1e12", "--h", "0.6", "--J", "0.3"], ("M=-1.500000000",)),
    ], ids=["guard-beta", "guard-J", "cold-h0", "cold-h0.3", "boundary"])
    def test_guard_edge_and_cold_limits_are_finite(self, capsys, argv, expected):
        code, out, _ = run_cli(["point", *argv], capsys)
        assert code == cli.EXIT_OK
        assert "nan" not in out.lower() and "inf" not in out.lower()
        summary = out.splitlines()[-1].split()
        assert all(item in summary for item in expected)

    def test_pure_state_entropy_is_positive_zero(self, capsys, tmp_path):
        code, out, _ = run_cli(["point", "--beta", "50", "--h", "5"], capsys)
        assert code == cli.EXIT_OK
        assert out.splitlines()[-1].endswith(" S=0.000000000")
        argv = ["sweep", "--beta", "50", "--h", "5", "--out-dir", str(tmp_path)]
        assert run_cli(argv, capsys)[0] == cli.EXIT_OK
        row = (tmp_path / "sweep.csv").read_text().splitlines()[1].split(",")
        assert row[6] == "0.0"

    @pytest.mark.parametrize("beta", ["1e16", "2", "0"])
    def test_readouts_rounding_to_zero_print_positive(self, capsys, beta):
        # at h = 0 some readouts are about -1e-17, which rounds to -0
        row = run_point(ModelParams(J=1.0, h=0.0, beta=float(beta)))
        values = [getattr(res, name) for res in row.results
                  for name in ("magnetization", "pair_correlation", "triple_correlation")]
        for res in row.results:
            values += [res.measurements.value(label).real for label in LABELS]
        assert any(f"{v:+.9f}" == "-0.000000000" for v in values)
        code, out, _ = run_cli(["point", "--beta", beta, "--h", "0", "--J", "1"], capsys)
        assert code == cli.EXIT_OK
        assert "-0.000000000" not in out
        assert "M=+0.000000000" in out

    @pytest.mark.parametrize(
        "table",
        [{"Z1": {"t2": 1}}, {"Z1": "fast"}, {"Z1": [0.3]}, {"Z1": None},
         {"t2": "slow", "Z1": 0.3}, {"Z1": {"tau": 0.3, "t1": "x"}}],
    )
    def test_malformed_decay_profile_is_usage_error(self, capsys, tmp_path, table):
        path = tmp_path / "decay.json"
        path.write_text(json.dumps(table))
        code, _, err = run_cli(
            ["point", "--beta", "1", "--h", "0", "--decay-profile", str(path)], capsys
        )
        assert code == cli.EXIT_USAGE
        assert "decay table" in err

    @pytest.mark.parametrize("recover", [[], ["--recover", "auto"]], ids=["none", "auto"])
    def test_undefined_decay_rate_is_usage_error(self, capsys, tmp_path, recover):
        path = tmp_path / "decay.json"
        path.write_text(json.dumps({**DEFAULT_DURATIONS, "Z1Z2Z3": math.inf, "t2": math.inf}))
        code, _, err = run_cli(
            ["point", "--beta", "1", "--h", "0", "--decay-profile", str(path), *recover],
            capsys,
        )
        assert code == cli.EXIT_USAGE
        assert "tau/T2 is undefined for tau=inf and T2=inf" in err

    @pytest.mark.parametrize(
        "taus",
        [dict.fromkeys(LABELS, 1000.0), {**DEFAULT_DURATIONS, "Z1Z3": 800.0},
         dict.fromkeys(LABELS, 715.0)],
        ids=["every-tau-1000", "z1z3-tau-800", "every-tau-715"],
    )
    def test_underflowing_decay_with_auto_recover_is_usage_error(
        self, capsys, tmp_path, taus
    ):
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"t2": 1.0, **taus}))
        code, _, err = run_cli(
            ["point", "--beta", "1", "--h", "0", "--decay-profile", str(path),
             "--recover", "auto"],
            capsys,
        )
        assert code == cli.EXIT_USAGE
        assert err.startswith("error:")
        assert "nothing to recover" in err

    def test_noise_options_read_once(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "decay.json"
        path.write_text(json.dumps(DEFAULT_DURATIONS))
        loads = []
        real_load = cli.noise.load_decay_table

        def counted(p):
            loads.append(p)
            return real_load(p)

        monkeypatch.setattr(cli.noise, "load_decay_table", counted)
        code, _, _ = run_cli(
            ["point", "--beta", "1", "--h", "0", "--decay-profile", str(path),
             "--out-dir", str(tmp_path / "out"), "--format", "json"],
            capsys,
        )
        assert code == cli.EXIT_OK
        assert len(loads) == 1

    def test_missing_required_flag_is_usage_error(self, capsys):
        code, _, _ = run_cli(["point", "--beta", "2"], capsys)
        assert code == cli.EXIT_USAGE

    def test_invalid_beta_is_usage_error(self, capsys):
        code, _, err = run_cli(["point", "--beta", "-2", "--h", "0"], capsys)
        assert code == cli.EXIT_USAGE
        assert "error" in err

    @pytest.mark.parametrize(
        "flags",
        [["--shots", "10", "--seed", "-1"], ["--shots", "100000000000000000000"],
         ["--seed", "-1"]],
        ids=["negative-seed", "shots-above-int64", "negative-seed-without-shots"],
    )
    def test_bad_shot_input_is_usage_error(self, capsys, flags):
        code, _, err = run_cli(
            ["point", "--beta", "2", "--h", "0.5", *flags], capsys
        )
        assert code == cli.EXIT_USAGE
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_shot_noise_near_a_pure_state_is_clamped(self, capsys):
        # sampled readouts of the cold triangle invert to slightly negative
        # populations; they are estimates, so the ideal stage clamps them
        code, out, err = run_cli(
            ["point", "--beta", "11", "--h", "1", "--shots", "4096", "--seed", "1"],
            capsys,
        )
        assert code == cli.EXIT_OK, err
        assert out.count("[ideal]") == 1
        assert "nan" not in out.lower()


class TestSweep:
    def test_seed_is_not_a_sweep_option(self, capsys):
        # sweeps take no shots, so a seed could not change them
        code, _, err = run_cli(
            ["sweep", "--beta", "1", "--h", "0", "--seed", "1"], capsys
        )
        assert code == cli.EXIT_USAGE
        assert "--seed" in err

    def test_grid_csv(self, capsys, tmp_path):
        code, out, _ = run_cli(
            ["sweep", "--beta", "1:2:2", "--h", "-1:1:3",
             "--out-dir", str(tmp_path)],
            capsys,
        )
        assert code == cli.EXIT_OK
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert len(lines) == 1 + 6
        assert "wrote" in out

    @pytest.mark.parametrize("grid, got", [
        (["--beta", "0:1:100000000000", "--h", "0"], "100000000000 steps"),
        (["--beta", "0:1:3000", "--h", "0:1:3000"], "3000 x 3000"),
    ], ids=["axis", "grid"])
    def test_oversized_grid_is_capacity_error(self, grid, got, capsys, tmp_path):
        out_dir = tmp_path / "out"
        tracemalloc.start()
        try:
            code, out, err = run_cli(["sweep", *grid, "--out-dir", str(out_dir)], capsys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == cli.EXIT_USAGE
        assert out == ""
        assert err == f"error: sweeps support at most {MAX_POINTS} points, got {got}\n"
        assert peak < 2**20  # nothing the size of an axis or the grid
        assert not out_dir.exists()

    @pytest.mark.parametrize("grid, message", [
        (["--beta", "0:1e400:3", "--h", "0"], "beta must be finite, got inf"),
        (["--beta", "nan:1:3", "--h", "0"], "beta must be finite, got nan"),
        (["--beta", "1", "--h=-inf:0:2"], "h must be finite, got -inf"),
        (["--beta", "inf", "--h", "0"], "beta must be finite, got inf"),
        (["--beta", "1", "--h", "-1e308:1e308:3"],
         "--h -1e308:1e308:3 spans more than a float holds"),
    ], ids=["infinite-end", "nan-end", "negative-infinite-end", "scalar", "span"])
    def test_non_finite_range_is_one_line(self, grid, message, capsys, tmp_path):
        # one line naming the value given, not numpy's warning and a NaN
        out_dir = tmp_path / "out"
        code, out, err = run_cli(["sweep", *grid, "--out-dir", str(out_dir)], capsys)
        assert code == cli.EXIT_USAGE
        assert out == ""
        assert err == f"error: {message}\n"
        assert not out_dir.exists()

    def test_widest_finite_range_runs_without_warning(self, capsys, tmp_path):
        # np.linspace's last step overflows before the point is set to hi
        code, _, err = run_cli(
            ["sweep", "--beta", "0:1.7976931348623157e308:4", "--h", "0", "--J", "0",
             "--out-dir", str(tmp_path)],
            capsys,
        )
        assert code == cli.EXIT_OK
        assert err == ""
        rows = (tmp_path / "sweep.csv").read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows][-1] == "1.7976931348623157e+308"

    def test_signed_range_value(self, capsys, tmp_path):
        # "--h -3:3:13" (separate tokens) must parse as one range option
        code, _, _ = run_cli(
            ["sweep", "--beta", "2", "--h", "-3:3:13",
             "--out-dir", str(tmp_path)],
            capsys,
        )
        assert code == cli.EXIT_OK
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert len(lines) == 1 + 13

    def test_signed_exponent_range_value(self, capsys, tmp_path):
        code, _, _ = run_cli(
            ["sweep", "--beta", "1", "--h", "-1e300:1e300:3",
             "--out-dir", str(tmp_path)],
            capsys,
        )
        assert code == cli.EXIT_OK
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        fields = [line.split(",")[1] for line in lines[1:]]
        assert fields == ["-1e+300", "0.0", "1e+300"]

    def test_plot_flag_forces_svg(self, capsys, tmp_path):
        code, _, _ = run_cli(
            ["sweep", "--beta", "1:2:2", "--h", "-1:1:3",
             "--out-dir", str(tmp_path), "--plot", "M-vs-h"],
            capsys,
        )
        assert code == cli.EXIT_OK
        assert (tmp_path / "line_M_vs_h.svg").exists()

    @pytest.mark.parametrize(
        "token", ["Q-vs-h", "M-vs-beta", pytest.param("", id="empty")]
    )
    def test_bad_plot_token_fails_before_compute(self, capsys, tmp_path, monkeypatch,
                                                 token):
        def no_sweep(spec):
            raise AssertionError("the grid must not be computed")

        monkeypatch.setattr(cli.sweep, "run_sweep", no_sweep)
        code, _, err = run_cli(
            ["sweep", "--beta", "0.5:11:23", "--h", "-5:5:101", "--plot", token,
             "--out-dir", str(tmp_path)],
            capsys,
        )
        assert code == cli.EXIT_USAGE
        assert "plot" in err

    def test_malformed_range_is_usage_error(self, capsys):
        code, _, _ = run_cli(["sweep", "--beta", "1:2", "--h", "0"], capsys)
        assert code == cli.EXIT_USAGE

    @pytest.mark.parametrize("command", ["point", "sweep"])
    @pytest.mark.parametrize(
        "source, value",
        [("flag", ""), ("flag", ","), ("config", []), ("config", "")],
        ids=["flag-empty", "flag-comma", "config-list", "config-empty"],
    )
    def test_empty_format_is_usage_error(
        self, capsys, tmp_path, monkeypatch, command, source, value
    ):
        monkeypatch.chdir(tmp_path)
        argv = [command, "--beta", "1", "--h", "0", "--out-dir", "D"]
        if source == "flag":
            argv += ["--format", value]
        else:
            (tmp_path / "cfg.json").write_text(json.dumps({"format": value}))
            argv = ["--config", "cfg.json", *argv]
        code, out, err = run_cli(argv, capsys)
        assert code == cli.EXIT_USAGE
        assert out == ""
        assert "argument --format: expected at least one of csv,json,svg" in err
        assert not (tmp_path / "D").exists()

    def test_unknown_format_is_usage_error(self, capsys):
        code, _, _ = run_cli(
            ["sweep", "--beta", "1", "--h", "0", "--format", "yaml"], capsys
        )
        assert code == cli.EXIT_USAGE

    def test_parallel_outputs_byte_identical(self, capsys, tmp_path):
        dir_a = tmp_path / "serial"
        dir_b = tmp_path / "parallel"
        base = ["sweep", "--beta", "1:2:2", "--h", "-1:1:3", "--eta", "0.7",
                "--recover", "auto", "--format", "csv,json,svg"]
        code_a, _, _ = run_cli(
            base + ["--parallel", "1", "--out-dir", str(dir_a)], capsys
        )
        code_b, _, _ = run_cli(
            base + ["--parallel", "8", "--out-dir", str(dir_b)], capsys
        )
        assert code_a == code_b == cli.EXIT_OK
        names = sorted(p.name for p in dir_a.iterdir())
        assert names == sorted(p.name for p in dir_b.iterdir())
        for name in names:
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()

    def test_unwritable_out_dir_is_io_error(self, capsys, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("in the way")
        code, _, err = run_cli(
            ["sweep", "--beta", "1", "--h", "0",
             "--out-dir", str(blocker / "sub")],
            capsys,
        )
        assert code == cli.EXIT_IO
        assert "i/o error" in err

    @pytest.mark.parametrize("blocked", [True, False], ids=["file-in-path", "new-dir"])
    def test_bad_grid_value_is_reported_before_out_dir(self, capsys, tmp_path, blocked):
        if blocked:
            (tmp_path / "file").write_text("in the way")
        out_dir = tmp_path / "file" / "x" if blocked else tmp_path / "new"
        code, out, err = run_cli(
            ["sweep", "--beta", "-1", "--h", "0", "--out-dir", str(out_dir)], capsys
        )
        assert code == cli.EXIT_USAGE
        assert out == ""
        assert err == "error: beta must be >= 0, got -1.0\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == (["file"] if blocked else [])

    @pytest.mark.parametrize("command", ["point", "sweep"])
    @pytest.mark.parametrize(
        "noise_flags",
        [["--eta", "2"], ["--decay-profile", "no-such-table.json"]],
        ids=["bad-eta", "missing-table"],
    )
    def test_bad_grid_value_is_reported_before_bad_noise(
        self, capsys, monkeypatch, tmp_path, command, noise_flags
    ):
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(
            [command, "--beta", "-1", "--h", "0", *noise_flags], capsys
        )
        assert (code, out, err) == (
            cli.EXIT_USAGE, "", "error: beta must be >= 0, got -1.0\n"
        )

    def test_repeated_plot_token_writes_once(self, capsys, tmp_path):
        code, out, _ = run_cli(
            ["sweep", "--beta", "1", "--h", "0", "--format", "svg",
             "--plot", "M-vs-h,M-vs-h", "--out-dir", str(tmp_path)],
            capsys,
        )
        assert code == cli.EXIT_OK
        assert out == f"wrote {tmp_path / 'line_M_vs_h.svg'}\n"
        assert [p.name for p in tmp_path.iterdir()] == ["line_M_vs_h.svg"]


class TestParallelSweep:
    ARGV = ["sweep", "--beta", "1:2:2", "--h", "-1:1:3", "--format", "csv,json,svg",
            "--parallel", "2"]

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        # two processes on any machine: the calling one and one child
        monkeypatch.setattr(cli.outputs, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(cli.outputs, "_CHUNK", 2)

    def test_failed_worker_is_io_error(self, capsys, monkeypatch, tmp_path):
        parent = os.getpid()
        real_row_speller = cli.outputs._row_speller

        def broken_in_children(*args):
            # raises at the call, whether or not the child claims a chunk
            if os.getpid() != parent:
                raise RuntimeError("worker fault")
            return real_row_speller(*args)

        # the calling process spells rows too; only the forked child raises
        monkeypatch.setattr(cli.outputs, "_row_speller", broken_in_children)
        code, out, err = run_cli(self.ARGV + ["--out-dir", str(tmp_path)], capsys)
        assert code == cli.EXIT_IO
        assert out == ""
        assert err == "i/o error: a sweep row worker exited with status 1\n"
        assert not (tmp_path / "sweep.json").exists()

    def test_non_finite_plot_reaps_workers(self, capsys, monkeypatch, tmp_path, forks):
        real_run_sweep = cli.sweep.run_sweep

        def nan_magnetization(spec):
            dataset = real_run_sweep(spec)
            column = dataset.magnetization.copy()
            column[0, 0] = float("nan")
            return dataclasses.replace(dataset, magnetization=column)

        monkeypatch.setattr(cli.sweep, "run_sweep", nan_magnetization)
        code, out, err = run_cli(self.ARGV + ["--out-dir", str(tmp_path)], capsys)
        assert code == cli.EXIT_NUMERIC
        assert out == ""
        assert err == (
            "numeric-consistency error: cannot plot non-finite M of stage ideal\n"
        )
        assert len(forks) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert list(tmp_path.iterdir()) == []


class TestCircuit:
    def test_stdout_export(self, capsys):
        code, out, _ = run_cli(["circuit", "--beta", "3", "--h", "0.5"], capsys)
        assert code == cli.EXIT_OK
        assert out.startswith("#cets v1\n")
        circuit = parse_circuit(out)
        assert len(circuit.gates) == 7

    def test_probe_flag_adds_qubit(self, capsys):
        code, out, _ = run_cli(
            ["circuit", "--beta", "3", "--h", "0.5", "--probe"], capsys
        )
        assert code == cli.EXIT_OK
        circuit = parse_circuit(out)
        assert circuit.qubit_count == 4
        assert "probe=true" in out

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "c.cets"
        code, out, _ = run_cli(
            ["circuit", "--beta", "3", "--h", "0.5", "--out", str(path)],
            capsys,
        )
        assert code == cli.EXIT_OK
        assert parse_circuit(path.read_text()).qubit_count == 3

    def test_chain_gate_count(self, capsys):
        code, out, _ = run_cli(
            ["circuit", "--topology", "chain", "--n", "6",
             "--beta", "2", "--h", "0.3"],
            capsys,
        )
        assert code == cli.EXIT_OK
        assert len(parse_circuit(out).gates) == 11

    def test_oversized_chain_is_usage_error(self, capsys):
        code, _, _ = run_cli(
            ["circuit", "--topology", "chain", "--n", "25",
             "--beta", "2", "--h", "0.3"],
            capsys,
        )
        assert code == cli.EXIT_USAGE


class TestNoiseStudy:
    def test_report_structure(self, capsys):
        code, out, _ = run_cli(
            ["noise-study", "--beta", "11", "--h", "1", "--eta", "0.5"],
            capsys,
        )
        assert code == cli.EXIT_OK
        report = json.loads(out)
        assert report["eta"] == 0.5
        assert abs(report["eta_estimates"]["exact"] - 0.5) < 1e-9
        assert set(report["purity"]) == {"ideal", "noisy", "recovered"}
        assert report["fidelity"]["recovered_vs_ideal"] > \
            report["fidelity"]["noisy_vs_ideal"]

    def test_out_dir_writes_json(self, capsys, tmp_path):
        code, out, err = run_cli(
            ["noise-study", "--beta", "11", "--h", "1", "--eta", "0.5",
             "--out-dir", str(tmp_path)],
            capsys,
        )
        assert code == cli.EXIT_OK
        saved = json.loads((tmp_path / "noise_study.json").read_text())
        assert saved == json.loads(out)
        assert "wrote" in err

    def test_unwritable_out_dir_fails_before_compute(self, capsys, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("in the way")
        code, out, err = run_cli(
            ["noise-study", "--beta", "1", "--h", "0", "--eta", "0.5",
             "--out-dir", str(blocker / "x")],
            capsys,
        )
        assert code == cli.EXIT_IO
        assert out == ""
        assert err.startswith("i/o error")

    @pytest.mark.parametrize("flag", [["--eta", "2"], ["--eta", "0.5", "--recover", "0"]])
    def test_bad_input_is_reported_before_out_dir(self, capsys, tmp_path, flag):
        code, out, err = run_cli(
            ["noise-study", "--beta", "1", "--h", "0", *flag,
             "--out-dir", str(tmp_path / "new")],
            capsys,
        )
        assert code == cli.EXIT_USAGE
        assert out == ""
        assert err.startswith("error:")
        assert not (tmp_path / "new").exists()

    def test_format_flag_not_accepted(self, capsys):
        code, _, err = run_cli(
            ["noise-study", "--beta", "11", "--h", "1", "--eta", "0.5",
             "--format", "json"],
            capsys,
        )
        assert code == cli.EXIT_USAGE
        assert "--format" in err


class TestConfig:
    def test_config_sets_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"J": 2.0, "format": ["csv", "json"]}))
        out_dir = tmp_path / "out"
        code, out, _ = run_cli(
            ["--config", str(cfg), "point", "--beta", "1", "--h", "0",
             "--out-dir", str(out_dir)],
            capsys,
        )
        assert code == cli.EXIT_OK
        assert "J=2" in out
        assert (out_dir / "sweep.json").exists()

    def test_explicit_flag_overrides_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"J": 2.0}))
        code, out, _ = run_cli(
            ["--config", str(cfg), "point", "--beta", "1", "--h", "0",
             "--J", "3"],
            capsys,
        )
        assert code == cli.EXIT_OK
        assert "J=3" in out

    def test_joined_config_flag_reads_the_file(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"J": 2.5}))
        argv = ["point", "--beta", "1", "--h", "0"]
        spaced = run_cli(["--config", str(cfg), *argv], capsys)
        joined = run_cli([f"--config={cfg}", *argv], capsys)
        assert joined == spaced
        assert spaced[0] == cli.EXIT_OK
        assert "J=2.5" in spaced[1]

    @pytest.mark.parametrize("argv", [["--config="], ["point", "--config"]],
                             ids=["joined", "last"])
    def test_config_without_path_is_usage_error(self, capsys, argv):
        code, out, err = run_cli(argv, capsys)
        assert code == cli.EXIT_USAGE
        assert out == ""
        assert err == "error: --config requires a path\n"

    def test_unknown_key_is_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"JJ": 2.0}))
        code, _, err = run_cli(
            ["--config", str(cfg), "point", "--beta", "1", "--h", "0"], capsys
        )
        assert code == cli.EXIT_USAGE
        assert "unknown config keys" in err

    def test_malformed_json_is_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        code, _, _ = run_cli(
            ["--config", str(cfg), "point", "--beta", "1", "--h", "0"], capsys
        )
        assert code == cli.EXIT_USAGE

    @pytest.mark.parametrize(
        "config, command",
        [
            ([1], "point"),
            ("x", "point"),
            ({"J": None}, "point"),
            ({"t2": "abc"}, "point"),
            ({"seed": True}, "point"),
            ({"recover": None}, "noise-study"),
            ({"parallel": 2.5}, "sweep"),
        ],
        ids=["list", "string", "null-J", "text-t2", "bool-seed", "null-recover",
             "fractional-parallel"],
    )
    def test_malformed_value_is_usage_error(self, capsys, tmp_path, config, command):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv = ["--config", str(cfg), command, "--beta", "1", "--h", "0"]
        if command == "noise-study":
            argv += ["--eta", "0.5"]
        code, _, err = run_cli(argv + ["--out-dir", str(tmp_path / "out")], capsys)
        assert code == cli.EXIT_USAGE
        assert "error:" in err
        assert "unknown config keys" not in err

    def test_values_parsed_by_flag_type(self, capsys, tmp_path):
        # null is fine where the flag's default is None (seed, t1)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"J": "2", "eta": 0.5, "recover": 0.5, "seed": None, "t1": None}
        ))
        code, out, _ = run_cli(
            ["--config", str(cfg), "point", "--beta", "1", "--h", "0"], capsys
        )
        assert code == cli.EXIT_OK
        assert "J=2" in out
        assert "[recovered]" in out

    def test_missing_file_is_io_error(self, capsys, tmp_path):
        code, _, _ = run_cli(
            ["--config", str(tmp_path / "absent.json"), "point",
             "--beta", "1", "--h", "0"],
            capsys,
        )
        assert code == cli.EXIT_IO


#: The documented exit code of each error class; a new class needs an entry.
_EXIT_BY_ERROR = {
    errors.DomainError: cli.EXIT_USAGE,
    errors.TopologyError: cli.EXIT_USAGE,
    errors.CapacityError: cli.EXIT_USAGE,
    errors.PauliParseError: cli.EXIT_USAGE,
    errors.IncompleteSetError: cli.EXIT_USAGE,
    errors.NumericError: cli.EXIT_NUMERIC,
    errors.NonPhysicalStateError: cli.EXIT_NUMERIC,
}


def run_raising(error, capsys, monkeypatch):
    """Run `point` with its command replaced by one raising `error`."""
    def boom(args):
        raise error

    real_build = cli.build_parser

    def patched_parser():
        parser = real_build()
        parser.command_parsers["point"].set_defaults(func=boom)
        return parser

    monkeypatch.setattr(cli, "build_parser", patched_parser)
    return run_cli(["point", "--beta", "1", "--h", "0"], capsys)


class TestExitCodeMapping:
    def test_numeric_error_maps_to_3(self, capsys, monkeypatch):
        code, _, err = run_raising(
            NumericError("synthetic inconsistency"), capsys, monkeypatch
        )
        assert code == cli.EXIT_NUMERIC
        assert "numeric-consistency" in err

    @pytest.mark.parametrize(
        "error", errors.CetsError.__subclasses__(), ids=lambda cls: cls.__name__
    )
    def test_every_error_class_has_its_exit_code(self, capsys, monkeypatch, error):
        code, out, err = run_raising(error("synthetic"), capsys, monkeypatch)
        assert code == _EXIT_BY_ERROR[error]
        assert out == ""
        assert err.endswith(": synthetic\n")


_INT64_MAX = 2**63 - 1


def _flag(name, values):
    """An optional `--name=value` flag (one token, so negatives parse)."""
    return st.one_of(st.just([]), values.map(lambda v: [f"--{name}={v}"]))


_POINT_ARGS = st.tuples(
    st.one_of(st.just(0.0), st.floats(-12.0, 300.0).map(lambda e: 10.0**e)),
    st.floats(-1e300, 1e300, allow_nan=False),
    st.floats(-1e3, 1e3, allow_nan=False),
    _flag("shots", st.one_of(
        st.integers(-5, 5000), st.integers(_INT64_MAX - 2, _INT64_MAX + 2**40)
    )),
    _flag("seed", st.one_of(
        st.integers(-(2**70), 2**16), st.integers(_INT64_MAX, 2**70)
    )),
    _flag("eta", st.floats(-0.5, 1.5, allow_nan=False)),
    _flag("recover", st.one_of(st.just("auto"), st.floats(-0.5, 1.5))),
)


class TestExitCodeProperty:
    @settings(
        max_examples=300,
        deadline=None,
        derandomize=True,
        database=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(_POINT_ARGS)
    def test_point_exits_with_a_documented_code(self, capsys, args):
        beta, h, J, *flags = args
        argv = ["point", f"--beta={beta!r}", f"--h={h!r}", f"--J={J!r}"]
        for flag in flags:
            argv += flag
        code, out, _ = run_cli(argv, capsys)
        assert code in (0, 2, 3, 4)
        if code == cli.EXIT_OK:
            assert "nan" not in out.lower()
            assert "inf" not in out.lower()


class TestModuleInvocation:
    def test_cli_import_starts_no_process_machinery(self):
        # sweeps run as one batch in-process; importing the CLI should not
        # pay for a process pool
        src = os.path.dirname(os.path.dirname(cli.__file__))
        code = (
            "import sys, cetsim.cli; "
            "print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_python_dash_m(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "cetsim", "point", "--beta", "2",
             "--h", "0.5"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "M=" in proc.stdout

    def test_usage_error_returncode(self):
        proc = subprocess.run(
            [sys.executable, "-m", "cetsim", "point"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
