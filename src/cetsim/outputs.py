"""Deterministic CSV/JSON/SVG emitters for sweep datasets.

All emitters format numbers through repr(float(...)) or fixed-width
templates, never through locale- or platform-dependent paths, so two
runs of the same sweep produce byte-identical files.  A plot of a
non-finite value raises NumericError before its file is opened.

Every emitter reads the dataset's (stage, point) columns, never its
per-point `rows` views.  A row file (`sweep.csv`, `sweep.json`) is a
fixed head, the rows of the grid's points in order, and a fixed tail.
The rows of any contiguous range of points are spelled by one range
speller for both files, in one pass per chunk of points, so neither
file is held whole.  A chunk's numbers are gathered into one slot matrix,
logZ and every stage's M, C2, C3 and S first, and each distinct bit
pattern in it is spelled once; `sweep.csv` takes those leading columns,
the same texts as `sweep.json`.  `sweep.json`'s row template is
json.dumps(indent=2, sort_keys=True) of one row whose numbers are marker
strings naming their matrix columns, so the dump itself orders the
template's `%s` slots.  Each number is spelled as `json` spells it, so
the file is the one `json.dump(indent=2, sort_keys=True)` would write,
without its pure-Python encoder.

`emit_outputs` spells the row files in N = min(parallelism, usable
CPUs, chunks) processes: this one and N - 1 forked children.  Every
process walks the chunks in order and claims chunk k by creating its
part `k.<first row format>` in one temporary directory with an exclusive
create, which fails in every process but one; the claimant writes the
chunk's rows into its parts, one file per row format.  This process,
which draws the plots first, simply claims fewer chunks.  The row files
are then the head, every chunk's part in order, and the tail.  With one
process the same walk spells every chunk, so the bytes are the same for
any N.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import re
import tempfile
from typing import Callable, Iterable, Iterator, NoReturn, Sequence

import numpy as np

from . import sweep as sweep_mod
from .errors import DomainError, NumericError
from .reconstruct import LABELS

CSV_HEADER = "beta,h,J,M,C2,C3,S,logZ,provenance"

#: Grid points spelled at a time into a row file.
_CHUNK = 256

#: Bytes buffered per open row file or part, so that rows, which are
#: written one at a time, leave in a few large writes.
_BUFFER = 1 << 16

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


def write_csv(dataset: sweep_mod.SweepDataset, path, parts=None) -> None:
    """One line per (grid point, provenance stage).

    `parts`, when given, are the paths of the grid's chunks of CSV rows,
    in order.
    """
    _write_rows(path, CSV_HEADER + "\n", "csv", dataset, parts, "")


def _write_rows(path, head: str, fmt: str, dataset, parts, tail: str) -> None:
    """Write head, every point's `fmt` rows and tail to `path`: the rows
    are copied from `parts`, or spelled here over the whole grid."""
    with open(path, "wb", buffering=_BUFFER) as fh:
        fh.write(head.encode())
        if parts is None:
            spell = _row_speller(dataset, (fmt,))
            for chunk in _chunks(dataset):
                spell(chunk, (fh,))
        for part in parts or ():
            with open(part, "rb") as src:
                fh.write(src.read())
        fh.write(tail.encode())


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


def _slot_matrix(dataset: sweep_mod.SweepDataset, points: slice, readouts: bool) -> np.ndarray:
    """(points, slots): logZ, then each stage's M, C2, C3 and S, then with
    `readouts` each stage's readouts' real parts, their imaginary parts and
    its populations."""
    stats = np.stack([getattr(dataset, attr)[:, points] for attr, _ in _QUANTITIES.values()], -1)
    blocks = [dataset.log_partition[points, None], *stats]
    if readouts:
        values = dataset.values[:, points]
        blocks += [*np.concatenate([values.real, values.imag, dataset.populations[:, points]], -1)]
    return np.hstack(blocks)


def _json_row(dataset: sweep_mod.SweepDataset) -> tuple[str, list[int]]:
    """A `sweep.json` row as json.dumps lays it out, as a `%` template, and
    the cell that fills each slot in turn: cell k is column k of the
    `_slot_matrix` with readouts, and the beta and h cells follow its last.
    Numbers are dumped as markers naming their cells; the stage names go
    in after the slots are cut, so no name is taken for a slot."""
    cell = map("@{}".format, itertools.count())  # zip(keys, cell) takes one per key
    logZ = next(cell)
    stats = [dict(zip(_QUANTITIES, cell)) for _ in dataset.provenances]
    results = []
    for s, stat in enumerate(stats):
        real, imag = dict(zip(LABELS, cell)), dict(zip(LABELS, cell))
        results.append({
            **stat,
            "observables": {label: {"real": real[label], "imag": imag[label]} for label in LABELS},
            "populations": list(itertools.islice(cell, dataset.populations.shape[-1])),
            "provenance": f"#{s}",
        })
    row = {"J": dataset.spec.J, "beta": next(cell), "h": next(cell), "logZ": logZ,
           "results": results}
    text = json.dumps(row, indent=2, sort_keys=True).replace("%", "%%").replace("\n", "\n    ")
    order = [int(k) for k in re.findall(r'"@(\d+)"', text)]
    names = [json.dumps(name).replace("%", "%%") for name in dataset.provenances]
    return re.sub(r'"#(\d+)"', lambda m: names[int(m[1])], re.sub(r'"@\d+"', "%s", text)), order


def _spell(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`block`'s floats as (float.__repr__, json) texts, two object arrays
    of its shape.

    Each distinct int64 bit pattern is spelled once, so -0.0 stays apart
    from 0.0 and NaNs apart by payload.  json spells NaN and the
    infinities its own way and every finite float as repr does; when all
    are finite the two arrays are one.
    """
    bits, inverse = np.unique(block.ravel().view(np.int64), return_inverse=True)
    distinct = bits.view(np.float64)
    reprs = np.array(list(map(float.__repr__, distinct.tolist())), dtype=object)
    reprs = reprs[inverse].reshape(block.shape)
    if np.isfinite(distinct).all():
        return reprs, reprs
    jsons = np.array(list(map(json.dumps, distinct.tolist())), dtype=object)
    return reprs, jsons[inverse].reshape(block.shape)


def _chunks(dataset: sweep_mod.SweepDataset) -> Iterator[range]:
    """The grid's chunks of points, in order."""
    points = len(dataset.log_partition)
    for start in range(0, points, _CHUNK):
        yield range(start, min(start + _CHUNK, points))


def _row_speller(
    dataset: sweep_mod.SweepDataset, formats: Sequence[str]
) -> Callable[[range, Sequence], None]:
    """A function that writes a chunk of points' rows in each of `formats`
    into the matching binary file.

    A "csv" file takes one line per (point, provenance stage), each ended
    by a newline.  A "json" file takes the chunk's stretch of the "rows"
    list of `sweep.json`, each row after its separator, so the stretches of
    consecutive chunks concatenate.  A chunk's slot matrix is spelled once
    for both: a JSON row fills the `_json_row` template with the matrix's
    cells in the template's order, and a CSV line takes logZ and its
    stage's M, C2, C3 and S from the matrix's leading columns.  Every axis
    value is spelled once, here; each row is written as it is spelled, so
    no chunk's text is held whole.
    """
    spec = dataset.spec
    width = len(spec.fields)
    # without JSON only the CSV's slots are spelled
    readouts = "json" in formats
    csv_J = f"{float(spec.J)!r},"
    csv_betas = [f"{float(b)!r}," for b in spec.betas]
    csv_fields = [f"{float(h)!r},{csv_J}" for h in spec.fields]
    provenances = [f"{name}\n" for name in dataset.provenances]
    template, order = _json_row(dataset)
    # the beta and h cells follow the slot matrix's last column: their slots
    # gather column 0 and are filled after
    beta_slot, h_slot = order.index(len(order) - 2), order.index(len(order) - 1)
    gather = np.array(order)
    gather[[beta_slot, h_slot]] = 0
    betas = np.array(list(map(json.dumps, spec.betas)), dtype=object)
    fields = np.array(list(map(json.dumps, spec.fields)), dtype=object)

    def spell(chunk: range, files: Sequence) -> None:
        reprs, jsons = _spell(_slot_matrix(dataset, slice(chunk.start, chunk.stop), readouts))
        for fmt, fh in zip(formats, files):
            if fmt == "csv":
                for b, cells in zip(chunk, reprs[:, : 1 + 4 * len(provenances)].tolist()):
                    head = csv_betas[b // width] + csv_fields[b % width]
                    tail = f",{cells[0]},"
                    fh.write("".join(
                        head + ",".join(cells[1 + 4 * s : 5 + 4 * s]) + tail + provenance
                        for s, provenance in enumerate(provenances)
                    ).encode())
            else:
                sep = "\n    " if chunk.start == 0 else ",\n    "
                points = np.arange(chunk.start, chunk.stop)
                cells = jsons[:, gather]
                cells[:, beta_slot] = betas[points // width]
                cells[:, h_slot] = fields[points % width]
                for slots in cells.tolist():
                    fh.write((sep + template % tuple(slots)).encode())
                    sep = ",\n    "

    return spell


def write_json(dataset: sweep_mod.SweepDataset, path, parts=None) -> None:
    """Full dataset, including raw complex readouts and populations.

    The bytes are those of json.dump(payload, indent=2, sort_keys=True)
    plus a newline, with beta, h and J spelled from the spec's own values.
    `parts`, when given, are the paths of the grid's chunks of JSON rows,
    in order.
    """
    spec = json.dumps(_spec_payload(dataset.spec), indent=2, sort_keys=True)
    tail = '\n  ],\n  "spec": ' + spec.replace("\n", "\n  ") + "\n}\n"
    _write_rows(path, '{\n  "rows": [', "json", dataset, parts, tail)


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
    xlo, xhi = min(fields), max(fields)
    ylo, yhi = float(column.min()), float(column.max())
    if yhi == ylo:
        ylo, yhi = ylo - 0.5, yhi + 0.5
    pad = 0.05 * (yhi - ylo)
    ylo, yhi = ylo - pad, yhi + pad

    def px(x: float) -> float:
        return x0 + (x1 - x0) * ((x - xlo) / (xhi - xlo) if xhi != xlo else 0.5)

    xs = [f"{px(x):.2f}" for x in fields]
    # every stage's y pixels in one expression, in the scalar order of operations
    pys = (y0 + (y1 - y0) * (column - ylo) / (yhi - ylo)).tolist()
    series = [
        (beta, provenance, _PALETTE[bi % len(_PALETTE)], ys[dataset.beta_points(bi)])
        for bi, beta in enumerate(dataset.spec.betas)
        for provenance, ys in zip(dataset.provenances, pys)
    ]
    body = [
        f'<text class="title" x="{(x0 + x1) / 2:.2f}" y="22" '
        f'text-anchor="middle">{ylabel} vs h</text>'
    ]
    body += _axes(x0, y0, x1, y1, xlo, xhi, ylo, yhi, "h (units of J)", ylabel)
    legend_y = 46.0
    for beta, provenance, color, ys in series:
        points = " ".join(f"{x},{y:.2f}" for x, y in zip(xs, ys))
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
    if provenance not in dataset.provenances:
        raise DomainError(f"the dataset has no stage {provenance!r}")
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
    for token in dict.fromkeys(plots):  # each token once, first one first
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


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the system
    keeps one (a cpuset-limited container reports the host's count to
    `os.cpu_count`), else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _spell_unclaimed(
    parts: str, formats: list[str], chunks: list[range], spell=None
) -> None:
    """Claim, in order, each chunk that no process has claimed yet, and
    write its rows with `spell` into its part per format in `parts`.

    Chunk k is claimed by creating its part `k.<first format>` with an
    exclusive create, which succeeds in one process only.  Without `spell`
    each chunk is claimed and left empty, so that no process spells it.
    """
    for k, chunk in enumerate(chunks):
        paths = [os.path.join(parts, f"{k}.{fmt}") for fmt in formats]
        try:
            claim = open(paths[0], "xb", buffering=_BUFFER)
        except FileExistsError:
            continue
        with claim, contextlib.ExitStack() as stack:
            if spell is not None:
                rest = [stack.enter_context(open(p, "wb", buffering=_BUFFER)) for p in paths[1:]]
                spell(chunk, [claim, *rest])


def _row_worker(
    dataset: sweep_mod.SweepDataset, parts: str, formats: list[str], chunks: list[range]
) -> NoReturn:
    """`_spell_unclaimed` in a forked process, which it then ends.  It never
    returns into the caller, flushes no inherited stdio buffer and runs no
    exit hook; it makes no BLAS call."""
    status = 1
    try:
        _spell_unclaimed(parts, formats, chunks, _row_speller(dataset, formats))
        status = 0
    finally:
        os._exit(status)


def emit_outputs(
    dataset: sweep_mod.SweepDataset,
    formats: Iterable[str],
    out_dir: str,
    plots: Sequence[str] | None = None,
) -> list[str]:
    """Write the requested formats into out_dir and return the paths, each
    format once, in the order of its first appearance in `formats`.

    The row files are spelled by this process and any forked children,
    each claiming chunks of points by creating their parts in a temporary
    directory: this process draws the plots first and then claims what is
    left.  If this process raises, it first claims every chunk left, so
    each child stops after its current chunk.  Every child is reaped
    before this returns or raises, and one that failed raises OSError.
    """
    formats = list(dict.fromkeys(formats))
    for fmt in formats:
        if fmt not in sweep_mod.FORMATS:
            raise DomainError(f"unknown output format {fmt!r}")
    os.makedirs(out_dir, exist_ok=True)
    rows = [fmt for fmt in formats if fmt != "svg"]
    chunks = list(_chunks(dataset))
    processes = 1
    if rows and hasattr(os, "fork"):
        processes = min(dataset.spec.parallelism, _usable_cpus(), len(chunks))
    written = {}
    scratch = tempfile.TemporaryDirectory(dir=out_dir) if rows else contextlib.nullcontext()
    with scratch as parts:
        pids = []
        try:
            for _ in range(1, processes):
                pid = os.fork()
                if pid == 0:
                    _row_worker(dataset, parts, rows, chunks)
                pids.append(pid)
            if "svg" in formats:
                written["svg"] = _plot_files(
                    dataset, plots if plots else default_plots(dataset), out_dir
                )
            if rows:
                _spell_unclaimed(parts, rows, chunks, _row_speller(dataset, rows))
        except BaseException:
            if rows:  # every chunk left is claimed: each child stops after its own
                _spell_unclaimed(parts, rows, chunks)
            raise
        finally:
            statuses = [os.waitpid(pid, 0)[1] for pid in pids]
        failed = [os.waitstatus_to_exitcode(status) for status in statuses if status]
        if failed:
            raise OSError(f"a sweep row worker exited with status {failed[0]}")
        for fmt in rows:
            path = os.path.join(out_dir, f"sweep.{fmt}")
            writer = write_csv if fmt == "csv" else write_json
            # `parts` by keyword: a writer's path is its last positional argument
            writer(dataset, path, parts=[
                os.path.join(parts, f"{k}.{fmt}") for k in range(len(chunks))
            ])
            written[fmt] = [path]
    return [path for fmt in formats for path in written[fmt]]
