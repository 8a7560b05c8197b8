"""Command-line interface.

Subcommands:
  point        full pipeline at one (beta, h)
  sweep        grid sweep with CSV/JSON/SVG outputs
  circuit      synthesise a preparation circuit to the .cets format
  noise-study  depolarisation and recovery report at one point

Exit codes: 0 success, 2 usage or domain error, 3 numeric-consistency
failure, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import model, noise, outputs, reconstruct, sweep, synth
from .engine import run_circuit
from .errors import (
    CapacityError, CetsError, DomainError, NonPhysicalStateError, NumericError,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_IO = 4

_CONFIG_KEYS = {
    "J", "t2", "t1", "out_dir", "format", "parallel", "eta", "recover", "seed"
}


def _parse_range(text: str, name: str) -> tuple[float, ...]:
    """Scalar "x" or inclusive range "lo:hi:steps" of the flag --`name`, with
    at most `sweep.MAX_POINTS` steps and a finite lo, hi and hi - lo."""
    parts = text.split(":")
    try:
        if len(parts) == 1:
            return (float(parts[0]),)
        lo, hi, steps = parts  # three parts, or ValueError
        lo, hi, steps = float(lo), float(hi), int(steps)
        if steps < 1:
            raise ValueError
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a number or lo:hi:steps range, got {text!r}"
        ) from None
    if steps > sweep.MAX_POINTS:
        raise CapacityError(
            f"sweeps support at most {sweep.MAX_POINTS} points, got {steps} steps"
        )
    for end in (lo, hi):
        if not np.isfinite(end):
            raise DomainError(f"{name} must be finite, got {end!r}")
    if not np.isfinite(hi - lo):
        raise DomainError(f"--{name} {text} spans more than a float holds")
    with np.errstate(over="ignore"):  # at most the last point, which linspace sets to hi
        return tuple(float(x) for x in np.linspace(lo, hi, steps))


class _RangeAction(argparse.Action):
    """Store `_parse_range` of the value.  A malformed value is argparse's
    usage error; a CetsError passes through argparse to `main`'s one line."""

    def __call__(self, parser, namespace, values, option_string=None):
        try:
            setattr(namespace, self.dest, _parse_range(values, self.dest))
        except argparse.ArgumentTypeError as exc:
            raise argparse.ArgumentError(self, str(exc)) from None


def _parse_recover(text: str):
    if text == "auto":
        return "auto"
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a factor in (0, 1] or 'auto', got {text!r}"
        ) from None


def _parse_formats(text: str) -> tuple[str, ...]:
    """Each named format once, in the order `sweep.FORMATS` writes them."""
    formats = [part.strip() for part in text.split(",") if part.strip()]
    if not formats:
        raise argparse.ArgumentTypeError("expected at least one of csv,json,svg")
    for fmt in formats:
        if fmt not in sweep.FORMATS:
            raise argparse.ArgumentTypeError(f"unknown format {fmt!r}")
    return tuple(fmt for fmt in sweep.FORMATS if fmt in formats)


def _add_noise_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--eta", type=float, default=None,
                        help="residual polarisation of a depolarising channel")
    parser.add_argument("--decay-profile", default=None, metavar="PATH",
                        help="JSON decay table; 'default' uses the built-in durations")
    parser.add_argument("--t2", type=float, default=noise.DEFAULT_T2,
                        help="T2 (s) for the built-in decay table")
    parser.add_argument("--t1", type=float, default=None,
                        help="optional T1 (s) envelope for the decay table")
    parser.add_argument("--recover", type=_parse_recover, default=None,
                        metavar="LAM|auto", help="partial-reversal factor")


def _add_output_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out-dir", default=None, help="directory for output files")
    parser.add_argument("--format", type=_parse_formats, default=("csv",),
                        help="comma-separated: csv,json,svg")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cetsim",
        description="Thermal-state preparation circuits for small Ising clusters",
        allow_abbrev=False,
    )
    parser.add_argument("--config", default=None, metavar="PATH",
                        help="JSON file with default option values")
    commands = parser.add_subparsers(dest="command", required=True)

    point = commands.add_parser("point", help="run the pipeline at one (beta, h)")
    point.add_argument("--beta", type=float, required=True)
    point.add_argument("--h", type=float, required=True)
    point.add_argument("--J", type=float, default=1.0)
    point.add_argument("--shots", type=int, default=None,
                       help="sample the probe readouts instead of exact values")
    point.add_argument("--seed", type=int, default=None)
    _add_noise_arguments(point)
    _add_output_arguments(point)
    point.set_defaults(func=_cmd_point, format=None)  # files need --out-dir

    swp = commands.add_parser("sweep", help="sweep a (beta, h) grid")
    swp.add_argument("--beta", action=_RangeAction, required=True,
                     help="number or lo:hi:steps")
    swp.add_argument("--h", action=_RangeAction, required=True,
                     help="number or lo:hi:steps")
    swp.add_argument("--J", type=float, default=1.0)
    swp.add_argument("--parallel", type=int, default=1, metavar="N",
                     help="N >= 1 processes, this one included, spell sweep.csv "
                          "and sweep.json, at most one per usable CPU and per "
                          "256-point chunk; the points run as one batch in this "
                          "process, and every output is byte-identical for any N")
    swp.add_argument("--plot", default=None,
                     help="comma-separated plot tokens, e.g. M-vs-h,S-heatmap")
    _add_noise_arguments(swp)
    _add_output_arguments(swp)
    swp.set_defaults(func=_cmd_sweep)

    circ = commands.add_parser("circuit", help="export a preparation circuit")
    circ.add_argument("--topology", choices=(model.TRIANGLE, model.CHAIN),
                      default=model.TRIANGLE)
    circ.add_argument("--n", type=int, default=3, help="number of spins")
    circ.add_argument("--beta", type=float, required=True)
    circ.add_argument("--h", type=float, required=True)
    circ.add_argument("--J", type=float, default=1.0)
    circ.add_argument("--probe", action="store_true",
                      help="prepend the probe qubit")
    circ.add_argument("--out", default=None, metavar="PATH",
                      help="write .cets here instead of stdout")
    circ.set_defaults(func=_cmd_circuit)

    study = commands.add_parser("noise-study",
                                help="depolarisation and recovery report")
    study.add_argument("--beta", type=float, required=True)
    study.add_argument("--h", type=float, required=True)
    study.add_argument("--J", type=float, default=1.0)
    study.add_argument("--eta", type=float, required=True)
    study.add_argument("--recover", type=_parse_recover, default="auto",
                       metavar="LAM|auto")
    study.add_argument("--out-dir", default=None, help="directory for output files")
    study.set_defaults(func=_cmd_noise_study)

    parser.command_parsers = dict(commands.choices)
    return parser


def _noise_options(args: argparse.Namespace) -> sweep.NoiseOptions | None:
    decay = None
    if getattr(args, "decay_profile", None) is not None:
        if args.decay_profile == "default":
            decay = noise.default_decay_table(t2=args.t2, t1=args.t1)
        else:
            decay = noise.load_decay_table(args.decay_profile)
    if args.eta is None and decay is None and args.recover is None:
        return None
    return sweep.NoiseOptions(eta=args.eta, decay=decay, recover=args.recover)


def _signed(value: float) -> str:
    """`value` to nine decimals with its sign; one that rounds to zero is +0."""
    return f"{value:+.9f}".replace("-0.000000000", "+0.000000000")


def _print_row(row: sweep.SweepRow) -> None:
    print(f"beta={row.beta:g} h={row.h:g} J={row.J:g} logZ={row.log_partition:.12g}")
    for res in row.results:
        print(f"[{res.provenance}]")
        for label in reconstruct.LABELS:
            v = res.measurements.value(label)
            print(f"  <{label}> = {_signed(v.real)}{_signed(v.imag)}j")
        print(
            f"  M={_signed(res.magnetization)} C2={_signed(res.pair_correlation)} "
            f"C3={_signed(res.triple_correlation)} S={res.entropy:.9f}"
        )


def _cmd_point(args: argparse.Namespace) -> int:
    spec = sweep.SweepSpec(  # a bad --beta is reported first
        betas=(args.beta,), fields=(args.h,), J=args.J,
        formats=("csv",) if args.format is None else args.format,
    )
    if args.seed is not None and args.seed < 0:
        raise DomainError(f"seed must be >= 0, got {args.seed}")
    spec = dataclasses.replace(spec, noise=_noise_options(args))
    # an unwritable destination fails before the point is computed
    if args.out_dir is not None:
        sweep.check_writable(args.out_dir)
    elif args.format is not None:
        raise DomainError("--format requires --out-dir")
    dataset = sweep.run_sweep(spec, args.shots, args.seed)
    _print_row(dataset.row(0))
    if args.out_dir is not None:
        for path in outputs.emit_outputs(dataset, spec.formats, args.out_dir):
            print(f"wrote {path}")
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    out_dir = args.out_dir if args.out_dir is not None else "."
    spec = sweep.SweepSpec(betas=args.beta, fields=args.h, J=args.J)  # grid errors first
    spec = dataclasses.replace(spec, noise=_noise_options(args), formats=args.format,
                               parallelism=args.parallel)
    plots = None if args.plot is None else args.plot.split(",")
    for token in plots or ():
        outputs.parse_plot_token(token)
    # an unwritable destination fails before any point is computed
    sweep.check_writable(out_dir)
    dataset = sweep.run_sweep(spec)
    formats = args.format
    if args.plot is not None and "svg" not in formats:
        formats += ("svg",)  # the last of sweep.FORMATS, so the order holds
    for path in outputs.emit_outputs(dataset, formats, out_dir, plots=plots):
        print(f"wrote {path}")
    return EXIT_OK


def _cmd_circuit(args: argparse.Namespace) -> int:
    params = model.ModelParams(
        J=args.J, h=args.h, beta=args.beta, n=args.n, topology=args.topology
    )
    circuit = synth.build_circuit(params, include_probe=args.probe)
    text = synth.export_circuit(circuit)
    if args.out is None:
        sys.stdout.write(text)
    else:
        synth.save_circuit(circuit, args.out)
        print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_noise_study(args: argparse.Namespace) -> int:
    params = model.ModelParams(J=args.J, h=args.h, beta=args.beta)
    state = run_circuit(synth.build_circuit(params))
    rho_clean = noise.DensityMatrix.from_state(state)
    rho_noisy = noise.depolarize(rho_clean, args.eta)
    lam = (
        noise.estimate_eta(rho_noisy, mode="approx")
        if args.recover == "auto"
        else float(args.recover)
    )
    rho_rec = noise.recover(rho_noisy, lam)
    # --eta and --recover are checked by now; an unwritable destination
    # fails before the report is computed and printed
    if args.out_dir is not None:
        sweep.check_writable(args.out_dir)

    readouts = {
        stage: reconstruct.readouts(np.real(np.diag(rho.matrix))).tolist()
        for stage, rho in (
            ("ideal", rho_clean), ("noisy", rho_noisy), ("recovered", rho_rec)
        )
    }
    report = {
        "params": {"beta": args.beta, "h": args.h, "J": args.J},
        "eta": args.eta,
        "lambda": lam,
        "purity": {
            "ideal": rho_clean.purity(),
            "noisy": rho_noisy.purity(),
            "recovered": rho_rec.purity(),
        },
        "eta_estimates": {
            "exact": noise.estimate_eta(rho_noisy, mode="exact"),
            "approx": noise.estimate_eta(rho_noisy, mode="approx"),
        },
        "fidelity": {
            "noisy_vs_ideal": reconstruct.fidelity(rho_noisy, rho_clean),
            "recovered_vs_ideal": reconstruct.fidelity(rho_rec, rho_clean),
        },
        "projection_overlap": noise.projection_overlap(rho_noisy, state),
        "min_eigenvalue": {
            "noisy": rho_noisy.min_eigenvalue(),
            "recovered": rho_rec.min_eigenvalue(),
        },
        "recovered_physical": rho_rec.is_physical,
        "observables": {
            label: {stage: values[i] for stage, values in readouts.items()}
            for i, label in enumerate(reconstruct.LABELS)
        },
    }
    text = json.dumps(report, indent=2, sort_keys=True)
    print(text)
    if args.out_dir is not None:
        path = os.path.join(args.out_dir, "noise_study.json")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text + "\n")
        print(f"wrote {path}", file=sys.stderr)
    return EXIT_OK


def _apply_config(parser: argparse.ArgumentParser, argv: list[str]) -> list[str]:
    """Load --config JSON and fold it into the subcommand's defaults.

    Each value reaches argparse as the string a command line would give,
    so the flag's own type parses and checks it; null is accepted only
    where the flag's default is None.
    """
    idx = next((i for i, t in enumerate(argv) if t.partition("=")[0] == "--config"), None)
    if idx is None:
        return argv
    _, joined, path = argv[idx].partition("=")  # "--config=PATH" or "--config PATH"
    rest = argv[idx + 1 :]
    if not joined and rest:
        path, rest = rest[0], rest[1:]
    elif not path:
        raise DomainError("--config requires a path")
    argv = argv[:idx] + rest
    with open(path, encoding="utf-8") as fh:
        config = json.load(fh)
    if not isinstance(config, dict):
        raise DomainError(f"config {path} must be a JSON object")
    unknown = set(config) - _CONFIG_KEYS
    if unknown:
        raise DomainError(f"unknown config keys: {', '.join(sorted(unknown))}")
    command = next((token for token in argv if not token.startswith("-")), None)
    sub = parser.command_parsers.get(command)
    if sub is None:
        return argv
    defaults = {}
    for key, value in config.items():
        if key == "format" and isinstance(value, list):
            value = ",".join(map(str, value))
        if value is None:
            if sub.get_default(key) is not None:
                raise DomainError(f"config key {key!r} may not be null")
        elif isinstance(value, (bool, list, dict)):
            raise DomainError(f"config key {key!r} must be a string or a number")
        else:
            value = str(value)
        defaults[key] = value
    sub.set_defaults(**defaults)
    return argv


# flags whose values may start with a minus sign (negative h, ranges, -inf, ...)
_SIGNED_FLAGS = {"--h", "--beta", "--J"}


def _merge_signed_values(argv: list[str]) -> list[str]:
    """Rewrite ["--h", "-5:5:101"] as ["--h=-5:5:101"] so argparse accepts it; any
    value led by one "-" merges, and float() or _parse_range then reads it."""
    merged = []
    i = 0
    while i < len(argv):
        token = argv[i]
        value = argv[i + 1] if i + 1 < len(argv) else ""
        if token in _SIGNED_FLAGS and value[:1] == "-" and value[:2] != "--":
            merged.append(f"{token}={value}")
            i += 2
        else:
            merged.append(token)
            i += 1
    return merged


def main(argv: list[str] | None = None) -> int:
    argv = _merge_signed_values(list(sys.argv[1:] if argv is None else argv))
    parser = build_parser()
    try:
        argv = _apply_config(parser, argv)
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            return EXIT_OK if not exc.code else int(exc.code)
        return args.func(args)
    except (NumericError, NonPhysicalStateError) as exc:
        print(f"numeric-consistency error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (CetsError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
