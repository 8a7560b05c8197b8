"""Deterministic CSV/JSON/SVG emitters for sweep datasets.

All emitters format numbers through repr(float(...)) or fixed-width
templates, never through locale- or platform-dependent paths, so two
runs of the same sweep produce byte-identical files regardless of the
worker count that computed them.

`sweep.json` is streamed one grid row at a time through fixed `%`
templates whose keys are already sorted; each number is spelled as
`json` spells it, so the file is the one `json.dump(indent=2,
sort_keys=True)` would write, without its pure-Python encoder.
"""

from __future__ import annotations

import json
import math
import os
from typing import Iterable, Sequence

from . import sweep as sweep_mod
from .errors import DomainError
from .reconstruct import LABELS

CSV_HEADER = "beta,h,J,M,C2,C3,S,logZ,provenance"

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
_DASHES = {"ideal": "", "simulated-noisy": "6,3", "recovered": "2,3"}

#: Anchors of the sequential colour scale used by heatmaps.
_SCALE = (
    (0.267, 0.005, 0.329),
    (0.231, 0.322, 0.546),
    (0.129, 0.567, 0.551),
    (0.369, 0.789, 0.383),
    (0.993, 0.906, 0.144),
)

_QUANTITIES = {
    "M": ("magnetization", "M"),
    "C2": ("pair_correlation", "C2"),
    "C3": ("triple_correlation", "C3"),
    "S": ("entropy", "S (k_B)"),
}


def _fmt(value: float) -> str:
    return repr(float(value))


def write_csv(dataset: sweep_mod.SweepDataset, path) -> None:
    """One line per (grid point, provenance stage)."""
    lines = [CSV_HEADER]
    for row in dataset.rows:
        for res in row.results:
            numbers = (
                row.beta, row.h, row.J, res.magnetization, res.pair_correlation,
                res.triple_correlation, res.entropy, row.log_partition,
            )
            lines.append(",".join([*map(_fmt, numbers), res.provenance]))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _spec_payload(spec: sweep_mod.SweepSpec) -> dict:
    noise = None
    if spec.noise is not None:
        noise = {
            "eta": spec.noise.eta,
            "recover": spec.noise.recover,
            "decay": None
            if spec.noise.decay is None
            else {
                label: {"tau": prof.tau, "t2": prof.t2, "t1": prof.t1}
                for label, prof in sorted(spec.noise.decay.items())
            },
        }
    # parallelism is omitted: the payload records only what determines
    # the data
    return {
        "betas": [float(b) for b in spec.betas],
        "fields": [float(h) for h in spec.fields],
        "J": float(spec.J),
        "noise": noise,
    }


def _numbers(values: list) -> list[str]:
    """Scalars spelled as `json` spells them.

    Finite floats go through float.__repr__ in one pass; a list holding
    anything else (NaN, Infinity, an integer) goes through json.dumps.
    """
    try:
        texts = list(map(float.__repr__, values))
    except TypeError:
        return list(map(json.dumps, values))
    return texts if all(map(math.isfinite, values)) else list(map(json.dumps, values))


def _template(skeleton: dict, indent: int) -> str:
    """`skeleton` as json.dump lays it out at `indent`, each None a `%s` slot.

    The first line carries no indent, as the caller places it.
    """
    text = json.dumps(skeleton, indent=2, sort_keys=True)
    return text.replace("\n", "\n" + " " * indent).replace("null", "%s")


def _list(items: list[str], indent: int) -> str:
    """Pre-spelled items as json.dump lays out a list at `indent`."""
    if not items:
        return "[]"
    pad = " " * (indent + 2)
    return "[\n" + pad + (",\n" + pad).join(items) + "\n" + " " * indent + "]"


#: Slots in sorted-key order: C2, C3, M, S, (imag, real) per label in
#: _OBSERVABLE_ORDER, populations, provenance.
_STAGE = _template(
    {
        "C2": None, "C3": None, "M": None, "S": None,
        "observables": {label: {"imag": None, "real": None} for label in LABELS},
        "populations": None,
        "provenance": None,
    },
    8,
)
_OBSERVABLE_ORDER = tuple(sorted(LABELS))
#: Slots in sorted-key order: J, beta, h, logZ, results.
_ROW = _template(
    {"J": None, "beta": None, "h": None, "logZ": None, "results": None}, 4
)


def _stage_text(res: sweep_mod.PointResult) -> str:
    values = [
        res.pair_correlation,
        res.triple_correlation,
        res.magnetization,
        res.entropy,
    ]
    for label in _OBSERVABLE_ORDER:
        value = res.measurements.value(label)
        values += (value.imag, value.real)
    populations = _numbers(list(map(float, res.populations)))
    return _STAGE % (
        *_numbers(values), _list(populations, 10), json.dumps(res.provenance)
    )


def write_json(dataset: sweep_mod.SweepDataset, path) -> None:
    """Full dataset, including raw complex readouts and populations.

    The bytes are those of json.dump(payload, indent=2, sort_keys=True)
    plus a newline.  Each grid row is filled into fixed templates, with
    every number spelled as `json` spells it, and written as it is
    built, so the document is never held whole; only the spec block
    goes through json.dumps.
    """
    spec = json.dumps(_spec_payload(dataset.spec), indent=2, sort_keys=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write('{\n  "rows": [')
        separator = "\n    "
        for row in dataset.rows:
            results = _list([_stage_text(res) for res in row.results], 6)
            scalars = _numbers([row.J, row.beta, row.h, row.log_partition])
            fh.write(separator + _ROW % (*scalars, results))
            separator = ",\n    "
        fh.write("\n  ],\n" if dataset.rows else "],\n")
        fh.write('  "spec": ' + spec.replace("\n", "\n  ") + "\n}\n")


def _scale_color(t: float) -> str:
    t = min(max(t, 0.0), 1.0)
    pos = t * (len(_SCALE) - 1)
    i = min(int(pos), len(_SCALE) - 2)
    frac = pos - i
    rgb = [
        round(255 * ((1.0 - frac) * _SCALE[i][k] + frac * _SCALE[i + 1][k]))
        for k in range(3)
    ]
    return f"rgb({rgb[0]},{rgb[1]},{rgb[2]})"


def _ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    if hi == lo:
        return [lo]
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count)]


def _svg_document(width: int, height: int, body: list[str]) -> str:
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">'
    )
    style = (
        "<style>text{font-family:sans-serif;font-size:12px;fill:#222}"
        ".title{font-size:14px}.axis{stroke:#222;stroke-width:1}</style>"
    )
    return "\n".join([head, style, *body, "</svg>"]) + "\n"


def _axes(
    x0: float, y0: float, x1: float, y1: float,
    xlo: float, xhi: float, ylo: float, yhi: float,
    xlabel: str, ylabel: str,
) -> list[str]:
    body = [
        f'<line class="axis" x1="{x0:.2f}" y1="{y0:.2f}" x2="{x1:.2f}" y2="{y0:.2f}"/>',
        f'<line class="axis" x1="{x0:.2f}" y1="{y0:.2f}" x2="{x0:.2f}" y2="{y1:.2f}"/>',
    ]
    for tick in _ticks(xlo, xhi):
        px = x0 + (x1 - x0) * ((tick - xlo) / (xhi - xlo) if xhi != xlo else 0.5)
        body.append(
            f'<line class="axis" x1="{px:.2f}" y1="{y0:.2f}" '
            f'x2="{px:.2f}" y2="{y0 + 5:.2f}"/>'
        )
        body.append(
            f'<text x="{px:.2f}" y="{y0 + 18:.2f}" text-anchor="middle">{tick:g}</text>'
        )
    for tick in _ticks(ylo, yhi):
        py = y0 + (y1 - y0) * ((tick - ylo) / (yhi - ylo) if yhi != ylo else 0.5)
        body.append(
            f'<line class="axis" x1="{x0 - 5:.2f}" y1="{py:.2f}" '
            f'x2="{x0:.2f}" y2="{py:.2f}"/>'
        )
        body.append(
            f'<text x="{x0 - 8:.2f}" y="{py + 4:.2f}" text-anchor="end">{tick:g}</text>'
        )
    mid_x = (x0 + x1) / 2
    mid_y = (y0 + y1) / 2
    body.append(
        f'<text x="{mid_x:.2f}" y="{y0 + 34:.2f}" text-anchor="middle">{xlabel}</text>'
    )
    body.append(
        f'<text x="{x0 - 40:.2f}" y="{mid_y:.2f}" text-anchor="middle" '
        f'transform="rotate(-90 {x0 - 40:.2f} {mid_y:.2f})">{ylabel}</text>'
    )
    return body


def write_line_plot(dataset: sweep_mod.SweepDataset, quantity: str, path) -> None:
    """Quantity vs h; one polyline per (beta, provenance) pair."""
    if quantity not in _QUANTITIES:
        raise DomainError(f"unknown plot quantity {quantity!r}")
    attr, ylabel = _QUANTITIES[quantity]
    width, height = 640, 420
    x0, y0, x1, y1 = 70.0, 360.0, 610.0, 40.0

    series = []
    for bi, beta in enumerate(dataset.spec.betas):
        rows = dataset.beta_rows(bi)
        for provenance in rows[0].provenances:
            xs = [row.h for row in rows]
            ys = [getattr(row.result(provenance), attr) for row in rows]
            series.append((beta, provenance, _PALETTE[bi % len(_PALETTE)], xs, ys))

    all_x = [x for s in series for x in s[3]]
    all_y = [y for s in series for y in s[4]]
    xlo, xhi = min(all_x), max(all_x)
    ylo, yhi = min(all_y), max(all_y)
    if yhi == ylo:
        ylo, yhi = ylo - 0.5, yhi + 0.5
    pad = 0.05 * (yhi - ylo)
    ylo, yhi = ylo - pad, yhi + pad

    def px(x: float) -> float:
        return x0 + (x1 - x0) * ((x - xlo) / (xhi - xlo) if xhi != xlo else 0.5)

    def py(y: float) -> float:
        return y0 + (y1 - y0) * (y - ylo) / (yhi - ylo)

    body = [
        f'<text class="title" x="{(x0 + x1) / 2:.2f}" y="22" '
        f'text-anchor="middle">{ylabel} vs h</text>'
    ]
    body += _axes(x0, y0, x1, y1, xlo, xhi, ylo, yhi, "h (units of J)", ylabel)
    legend_y = 46.0
    for beta, provenance, color, xs, ys in series:
        points = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
        dash = _DASHES.get(provenance, "")
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        body.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5"'
            f'{dash_attr} points="{points}"/>'
        )
        body.append(
            f'<line x1="{x1 - 150:.2f}" y1="{legend_y:.2f}" x2="{x1 - 120:.2f}" '
            f'y2="{legend_y:.2f}" stroke="{color}" stroke-width="1.5"{dash_attr}/>'
        )
        body.append(
            f'<text x="{x1 - 114:.2f}" y="{legend_y + 4:.2f}">'
            f"beta={beta:g} {provenance}</text>"
        )
        legend_y += 16.0
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_svg_document(width, height, body))


def write_heatmap(
    dataset: sweep_mod.SweepDataset, quantity: str, provenance: str, path
) -> None:
    """Quantity over the (h, beta) grid for one provenance stage."""
    if quantity not in _QUANTITIES:
        raise DomainError(f"unknown plot quantity {quantity!r}")
    attr, label = _QUANTITIES[quantity]
    betas = list(dataset.spec.betas)
    fields = list(dataset.spec.fields)
    values = [getattr(row.result(provenance), attr) for row in dataset.rows]
    vlo, vhi = min(values), max(values)
    span = vhi - vlo if vhi != vlo else 1.0

    width, height = 640, 420
    x0, y0, x1, y1 = 70.0, 360.0, 560.0, 40.0
    cell_w = (x1 - x0) / len(fields)
    cell_h = (y0 - y1) / len(betas)
    body = [
        f'<text class="title" x="{(x0 + x1) / 2:.2f}" y="22" '
        f'text-anchor="middle">{label} over (h, beta), {provenance}</text>'
    ]
    # rows are row-major (beta outer); beta increases upward
    for index, value in enumerate(values):
        bi, hi_ = divmod(index, len(fields))
        t = (value - vlo) / span
        cx = x0 + hi_ * cell_w
        cy = y0 - (bi + 1) * cell_h
        body.append(
            f'<rect x="{cx:.2f}" y="{cy:.2f}" width="{cell_w:.2f}" '
            f'height="{cell_h:.2f}" fill="{_scale_color(t)}"/>'
        )
    body += _axes(
        x0, y0, x1, y1,
        min(fields), max(fields), min(betas), max(betas),
        "h (units of J)", "beta (units of 1/J)",
    )
    # colour bar
    bar_x, bar_w = 585.0, 16.0
    steps = 24
    for i in range(steps):
        t = i / (steps - 1)
        cy = y0 - (i + 1) * (y0 - y1) / steps
        body.append(
            f'<rect x="{bar_x:.2f}" y="{cy:.2f}" width="{bar_w:.2f}" '
            f'height="{(y0 - y1) / steps:.2f}" fill="{_scale_color(t)}"/>'
        )
    body.append(f'<text x="{bar_x:.2f}" y="{y0 + 14:.2f}">{vlo:.3g}</text>')
    body.append(f'<text x="{bar_x:.2f}" y="{y1 - 6:.2f}">{vhi:.3g}</text>')
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_svg_document(width, height, body))


def parse_plot_token(token: str) -> tuple[str, str]:
    """Split a plot token such as "M-vs-h" or "S-heatmap" into (quantity, kind)."""
    for kind in ("-vs-h", "-heatmap"):
        if token.endswith(kind):
            quantity = token[: -len(kind)]
            if quantity not in _QUANTITIES:
                raise DomainError(f"unknown plot quantity {quantity!r}")
            return quantity, kind
    raise DomainError(f"unknown plot token {token!r}")


def _plot_files(
    dataset: sweep_mod.SweepDataset, plots: Sequence[str], out_dir: str
) -> list[str]:
    written = []
    provenances = dataset.rows[0].provenances
    for token in plots:
        quantity, kind = parse_plot_token(token)
        if kind == "-vs-h":
            path = os.path.join(out_dir, f"line_{quantity}_vs_h.svg")
            write_line_plot(dataset, quantity, path)
            written.append(path)
        else:
            for provenance in provenances:
                suffix = provenance.replace("simulated-", "")
                path = os.path.join(out_dir, f"heatmap_{quantity}_{suffix}.svg")
                write_heatmap(dataset, quantity, provenance, path)
                written.append(path)
    return written


def default_plots(dataset: sweep_mod.SweepDataset) -> list[str]:
    """M and S line plots; heatmaps too when the grid is two-dimensional."""
    plots = ["M-vs-h", "S-vs-h"]
    if len(dataset.spec.betas) > 1 and len(dataset.spec.fields) > 1:
        plots += ["M-heatmap", "S-heatmap"]
    return plots


def emit_outputs(
    dataset: sweep_mod.SweepDataset,
    formats: Iterable[str],
    out_dir: str,
    plots: Sequence[str] | None = None,
) -> list[str]:
    """Write the requested formats into out_dir and return the paths."""
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for fmt in formats:
        if fmt == "csv":
            path = os.path.join(out_dir, "sweep.csv")
            write_csv(dataset, path)
            written.append(path)
        elif fmt == "json":
            path = os.path.join(out_dir, "sweep.json")
            write_json(dataset, path)
            written.append(path)
        elif fmt == "svg":
            written += _plot_files(
                dataset, plots if plots else default_plots(dataset), out_dir
            )
        else:
            raise DomainError(f"unknown output format {fmt!r}")
    return written
