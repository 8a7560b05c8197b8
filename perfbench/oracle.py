"""Checks of workload outputs against cetsim's exact `model` oracle.

Each check returns the set of op (or grid-point) indices whose output
disagrees with the oracle, plus the largest deviation seen.  Tolerances
are those of the acceptance gate: 1e-10 for triangle readouts
(criterion 01) and 1e-9 for entropy (criterion 08).  Sampled readouts are held to six standard deviations of
their binomial estimate.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

from scipy.special import entr

from workloads import ETA, GRID_POINTS, SHOTS, grid_axis

TRIANGLE_TOL = 1e-10
ENTROPY_TOL = 1e-9
SHOT_TOL = 6.0 / math.sqrt(SHOTS)

_SINGLES = ((0,), (1,), (2,))
_PAIRS = ((0, 1), (1, 2), (0, 2))


_LAM = math.sqrt(ETA**2 * (1.0 - 1.0 / 8) + 1.0 / 8)  # sqrt purity of a depolarised pure state
#: provenance -> factor the stage applies to the ideal expectations
STAGE_FACTORS = {"ideal": 1.0, "simulated-noisy": ETA, "recovered": ETA / _LAM}


def check_grid(cetsim, csv_path: Path) -> tuple[set[int], float]:
    """Every CSV row against the Gibbs oracle; returns bad grid-point indices."""
    model = cetsim.model
    z = model.spin_values(3)
    factors = STAGE_FACTORS
    expected_points = [(b, h) for b in grid_axis("--beta") for h in grid_axis("--h")]

    with open(csv_path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    bad: set[int] = set()
    worst = 0.0
    if len(rows) != GRID_POINTS * len(factors):
        return set(range(GRID_POINTS)), math.inf
    for index, (beta, h) in enumerate(expected_points):
        stage_rows = rows[index * len(factors):(index + 1) * len(factors)]
        table = model.gibbs_distribution(model.ModelParams(J=1.0, h=h, beta=beta))
        w = table.weights
        m = sum(float(z[:, i] @ w) for (i,) in _SINGLES)
        c2 = sum(float((z[:, i] * z[:, j]) @ w) for i, j in _PAIRS)
        c3 = float((z[:, 0] * z[:, 1] * z[:, 2]) @ w)
        for row, (provenance, f) in zip(stage_rows, factors.items()):
            if (row["provenance"] != provenance or float(row["beta"]) != beta
                    or float(row["h"]) != h):
                bad.add(index)
                worst = math.inf
                continue
            entropy = float(entr(f * w + (1.0 - f) / 8.0).sum())
            devs = [abs(float(row["M"]) - f * m), abs(float(row["C2"]) - f * c2),
                    abs(float(row["C3"]) - f * c3),
                    abs(float(row["logZ"]) - table.log_partition)]
            dev_s = abs(float(row["S"]) - entropy)
            worst = max(worst, *devs)
            if not (max(devs) <= TRIANGLE_TOL and dev_s <= ENTROPY_TOL):
                bad.add(index)
    return bad, worst


def check_point_mix(cetsim, points: list[dict], outputs: dict) -> tuple[set[int], float]:
    """Ideal-stage readouts of every successful call against exact_measurement_set."""
    stages_per_kind = {"ideal": 1, "eta-auto": 3, "decay-0.8": 3, "shots": 1}
    bad: set[int] = set()
    worst = 0.0
    for key, stages in outputs.items():
        i = int(key)
        p = points[i]
        params = cetsim.ModelParams(J=p["J"], h=p["h"], beta=p["beta"])
        exact = cetsim.exact_measurement_set(params)
        tol = SHOT_TOL if p["kind"] == "shots" else TRIANGLE_TOL
        ideal = stages[0]
        if ideal["provenance"] != "ideal" or len(stages) != stages_per_kind[p["kind"]]:
            bad.add(i)
            continue
        dev = max(
            abs(complex(re, im) - exact.value(label))
            for (re, im), label in zip(ideal["values"], cetsim.LABELS)
        )
        if p["kind"] != "shots":
            worst = max(worst, dev)
        if not dev <= tol:
            bad.add(i)
    return bad, worst

