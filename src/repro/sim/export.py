"""CSV export of experiment artefacts.

Benches and the CLI can persist every figure's underlying data as plain
CSV so results can be diffed, re-plotted or consumed by other tools —
the artefact a real reproduction package ships alongside the tables.
"""

from __future__ import annotations

import csv
import pathlib
from typing import Dict, Mapping, Sequence, Union

import numpy as np

from repro.fileio import atomic_write
from repro.sim.metrics import TimeSeries

PathLike = Union[str, pathlib.Path]


def series_to_csv(
    path: PathLike,
    series: Mapping[str, TimeSeries],
    *,
    bucket_s: float = 1.0,
) -> pathlib.Path:
    """Write several time series into one CSV: t, <name1>, <name2>, ...

    Series are aligned on ``bucket_s``-wide time buckets (mean within a
    bucket); buckets a series has no data for are left empty.
    """
    if not series:
        raise ValueError("no series to export")
    if bucket_s <= 0:
        raise ValueError("bucket_s must be positive")
    out = pathlib.Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)

    buckets: Dict[int, Dict[str, float]] = {}
    for name, s in series.items():
        if len(s) == 0:
            continue
        idx = np.floor(s.times / bucket_s).astype(np.int64)
        sums: Dict[int, list] = {}
        for b, v in zip(idx, s.values):
            sums.setdefault(int(b), []).append(float(v))
        for b, vals in sums.items():
            buckets.setdefault(b, {})[name] = float(np.mean(vals))

    names = list(series)
    with atomic_write(out, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t_s"] + names)
        for b in sorted(buckets):
            row = [f"{b * bucket_s:g}"]
            for name in names:
                value = buckets[b].get(name)
                row.append("" if value is None else f"{value:.3f}")
            writer.writerow(row)
    return out


def scores_to_csv(
    path: PathLike,
    scores_by_label: Mapping[str, Sequence[float]],
) -> pathlib.Path:
    """Write per-iteration score arrays: iteration, <label1>, ..."""
    if not scores_by_label:
        raise ValueError("no scores to export")
    out = pathlib.Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    names = list(scores_by_label)
    longest = max(len(v) for v in scores_by_label.values())
    with atomic_write(out, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration"] + names)
        for i in range(longest):
            row = [str(i + 1)]
            for name in names:
                vals = scores_by_label[name]
                if i < len(vals) and vals[i] == vals[i]:  # not NaN
                    row.append(f"{float(vals[i]):.3f}")
                else:
                    row.append("")
            writer.writerow(row)
    return out


def read_csv(path: PathLike) -> Dict[str, list]:
    """Read back an exported CSV into column lists (test/round-trip aid)."""
    with pathlib.Path(path).open() as fh:
        reader = csv.reader(fh)
        header = next(reader)
        cols: Dict[str, list] = {name: [] for name in header}
        for row in reader:
            for name, cell in zip(header, row):
                cols[name].append(float(cell) if cell else None)
    return cols
