"""Deterministic CSV/JSON/SVG emitters for sweep datasets.

All emitters format numbers through repr(float(...)) or fixed-width
templates, never through locale- or platform-dependent paths, so two
runs of the same sweep produce byte-identical files.  A plot of a
non-finite value raises NumericError before its file is opened.

Every emitter reads the dataset's (stage, point) columns, never its
per-point `rows` views.  `sweep.json` is streamed one beta's block of
rows at a time through a fixed `%` template whose keys are already
sorted; each number is spelled as `json` spells it, so the file is the
one `json.dump(indent=2, sort_keys=True)` would write, without its
pure-Python encoder.
"""

from __future__ import annotations

import json
import os
from typing import Iterable, Sequence

import numpy as np

from . import sweep as sweep_mod
from .errors import DomainError, NumericError
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


def write_csv(dataset: sweep_mod.SweepDataset, path) -> None:
    """One line per (grid point, provenance stage)."""
    betas, fields, J = dataset.spec.betas, dataset.spec.fields, float(dataset.spec.J)
    heads = [f"{float(b)!r},{float(h)!r},{J!r}," for b in betas for h in fields]
    tails = [f",{z!r}," for z in dataset.log_partition.tolist()]
    stages = []
    for s, provenance in enumerate(dataset.provenances):
        # M, C2, C3, S in CSV_HEADER's order, each column spelled in one pass
        stats = zip(*(
            map(float.__repr__, getattr(dataset, attr)[s].tolist())
            for attr, _ in _QUANTITIES.values()
        ))
        stages.append([
            head + ",".join(cells) + tail + provenance
            for head, cells, tail in zip(heads, stats, tails)
        ])
    lines = [CSV_HEADER, *(line for point in zip(*stages) for line in point)]
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
    return {
        "betas": [float(b) for b in spec.betas],
        "fields": [float(h) for h in spec.fields],
        "J": float(spec.J),
        "noise": noise,
    }


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


def _slot_matrix(dataset: sweep_mod.SweepDataset) -> np.ndarray:
    """(points, 1 + stages x 26): logZ, then per stage C2, C3, M, S, (imag,
    real) per label in _OBSERVABLE_ORDER and the eight populations."""
    stats = np.stack([dataset.pair_correlation, dataset.triple_correlation,
                      dataset.magnetization, dataset.entropy], axis=-1)
    values = dataset.values[..., [LABELS.index(label) for label in _OBSERVABLE_ORDER]]
    parts = np.stack([values.imag, values.real], axis=-1).reshape(*stats.shape[:2], -1)
    stages = np.concatenate([stats, parts, dataset.populations], axis=-1)
    return np.hstack([dataset.log_partition[:, None], *stages])


def write_json(dataset: sweep_mod.SweepDataset, path) -> None:
    """Full dataset, including raw complex readouts and populations.

    The bytes are those of json.dump(payload, indent=2, sort_keys=True)
    plus a newline, with beta, h and J spelled from the spec's own values.
    Each beta's block of rows is spelled in one pass over its slot matrix
    and filled into one row template, whose slots follow the matrix, then
    written, so the document is never held whole.
    """
    spec = json.dumps(_spec_payload(dataset.spec), indent=2, sort_keys=True)
    numbers = ["%s"] * (4 + 2 * len(LABELS))
    stages = [
        _STAGE % (*numbers, _list(["%s"] * 8, 10), json.dumps(name).replace("%", "%%"))
        for name in dataset.provenances
    ]
    template = _ROW % ("%s", "%s", "%s", "%s", _list(stages, 6))
    J = json.dumps(dataset.spec.J)
    fields = list(map(json.dumps, dataset.spec.fields))
    matrix = _slot_matrix(dataset)
    width = matrix.shape[1]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write('{\n  "rows": [')
        for bi, beta in enumerate(map(json.dumps, dataset.spec.betas)):
            block = matrix[dataset.beta_points(bi)]
            # json spells NaN and the infinities; float.__repr__ every finite float
            spell = float.__repr__ if np.isfinite(block).all() else json.dumps
            texts = list(map(spell, block.ravel().tolist()))
            rows = [
                template % (J, beta, h, *texts[i * width : (i + 1) * width])
                for i, h in enumerate(fields)
            ]
            fh.write(("\n    " if bi == 0 else ",\n    ") + ",\n    ".join(rows))
        fh.write("\n  ],\n")
        fh.write('  "spec": ' + spec.replace("\n", "\n  ") + "\n}\n")


def _scale_colors(t: np.ndarray) -> list[str]:
    """The colour scale at each t, clipped to [0, 1]: linear between the
    anchors, each channel rounded half to even."""
    pos = np.minimum(np.maximum(t, 0.0), 1.0) * (len(_SCALE) - 1)
    i = np.minimum(pos.astype(int), len(_SCALE) - 2)
    frac = (pos - i)[:, None]
    scale = np.array(_SCALE)
    rgb = np.rint(255 * ((1.0 - frac) * scale[i] + frac * scale[i + 1])).astype(int)
    return [f"rgb({r},{g},{b})" for r, g, b in rgb.tolist()]


def _check_finite(values: np.ndarray, quantity: str, provenance: str) -> None:
    if not np.isfinite(values).all():
        raise NumericError(f"cannot plot non-finite {quantity} of stage {provenance}")


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

    fields = list(dataset.spec.fields)
    column = getattr(dataset, attr)
    for provenance, ys in zip(dataset.provenances, column):
        _check_finite(ys, quantity, provenance)
    series = [
        (beta, provenance, _PALETTE[bi % len(_PALETTE)], ys[dataset.beta_points(bi)])
        for bi, beta in enumerate(dataset.spec.betas)
        for provenance, ys in zip(dataset.provenances, column.tolist())
    ]

    xlo, xhi = min(fields), max(fields)
    ylo, yhi = float(column.min()), float(column.max())
    if yhi == ylo:
        ylo, yhi = ylo - 0.5, yhi + 0.5
    pad = 0.05 * (yhi - ylo)
    ylo, yhi = ylo - pad, yhi + pad

    def px(x: float) -> float:
        return x0 + (x1 - x0) * ((x - xlo) / (xhi - xlo) if xhi != xlo else 0.5)

    def py(y: float) -> float:
        return y0 + (y1 - y0) * (y - ylo) / (yhi - ylo)

    xs = [f"{px(x):.2f}" for x in fields]
    body = [
        f'<text class="title" x="{(x0 + x1) / 2:.2f}" y="22" '
        f'text-anchor="middle">{ylabel} vs h</text>'
    ]
    body += _axes(x0, y0, x1, y1, xlo, xhi, ylo, yhi, "h (units of J)", ylabel)
    legend_y = 46.0
    for beta, provenance, color, ys in series:
        points = " ".join(f"{x},{py(y):.2f}" for x, y in zip(xs, ys))
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
    values = getattr(dataset, attr)[dataset.provenances.index(provenance)]
    _check_finite(values, quantity, provenance)
    vlo, vhi = float(values.min()), float(values.max())
    span = vhi - vlo if vhi != vlo else 1.0

    width, height = 640, 420
    x0, y0, x1, y1 = 70.0, 360.0, 560.0, 40.0
    cell_w = (x1 - x0) / len(fields)
    cell_h = (y0 - y1) / len(betas)
    body = [
        f'<text class="title" x="{(x0 + x1) / 2:.2f}" y="22" '
        f'text-anchor="middle">{label} over (h, beta), {provenance}</text>'
    ]
    # points are row-major (beta outer); beta increases upward
    colors = _scale_colors((values - vlo) / span)
    xs = [f'<rect x="{x0 + hi * cell_w:.2f}" y="' for hi in range(len(fields))]
    size = f'" width="{cell_w:.2f}" height="{cell_h:.2f}" fill="'
    for bi in range(len(betas)):
        y = f"{y0 - (bi + 1) * cell_h:.2f}{size}"
        row = colors[dataset.beta_points(bi)]
        body += [f'{x}{y}{color}"/>' for x, color in zip(xs, row)]
    body += _axes(
        x0, y0, x1, y1,
        min(fields), max(fields), min(betas), max(betas),
        "h (units of J)", "beta (units of 1/J)",
    )
    # colour bar
    bar_x, bar_w = 585.0, 16.0
    steps = 24
    for i, color in enumerate(_scale_colors(np.arange(steps) / (steps - 1))):
        cy = y0 - (i + 1) * (y0 - y1) / steps
        body.append(
            f'<rect x="{bar_x:.2f}" y="{cy:.2f}" width="{bar_w:.2f}" '
            f'height="{(y0 - y1) / steps:.2f}" fill="{color}"/>'
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
    for token in plots:
        quantity, kind = parse_plot_token(token)
        if kind == "-vs-h":
            path = os.path.join(out_dir, f"line_{quantity}_vs_h.svg")
            write_line_plot(dataset, quantity, path)
            written.append(path)
        else:
            for provenance in dataset.provenances:
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
