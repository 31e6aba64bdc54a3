"""Run records, error metrics, CSV persistence, and SVG line charts.

Every table is written by one of two writers.  The long table
``step,time,channel,<columns>``, one row per step and channel, holds a
run's rows CSV and a dataset's truth and measurement series, and one
reader loads and checks both.  The per-channel tables (the run summary,
a dataset's noise levels, a sweep's errors) go through a row writer.
Floats are written in shortest round-trip form, and nothing time- or
host-dependent goes in the rows CSV, so identical configs give
byte-identical files; the summary holds the wall time.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ConfigError
from .models import MeasurementSeries


@dataclass
class RunRecord:
    """Time-indexed truth and per-filter estimate series.

    ``truth`` has shape (n, M); ``filter_means`` / ``filter_stds`` map
    filter name -> (n, M) arrays aligned with ``times``.
    """

    steps: np.ndarray
    times: np.ndarray
    truth: np.ndarray
    filter_means: dict
    filter_stds: dict
    seed: int = 0
    wall_time: float = 0.0
    channel_names: list = field(default_factory=list)

    def __post_init__(self):
        self.steps = np.asarray(self.steps, dtype=int)
        self.times = np.asarray(self.times, dtype=float)
        self.truth = np.atleast_2d(np.asarray(self.truth, dtype=float))
        if self.truth.shape[1] != self.steps.size:
            raise ValueError("truth columns must match number of steps")
        for name in self.filter_means:
            if self.filter_means[name].shape != self.truth.shape:
                raise ValueError(f"filter '{name}' means shape mismatch")
            if self.filter_stds[name].shape != self.truth.shape:
                raise ValueError(f"filter '{name}' stds shape mismatch")
        if not self.channel_names:
            self.channel_names = [str(i) for i in range(self.truth.shape[0])]

    @property
    def filters(self) -> list:
        return list(self.filter_means)

    @property
    def n_channels(self) -> int:
        return self.truth.shape[0]

    def summary_rmse(self) -> dict:
        """Per-channel RMSE of each filter's mean against the truth."""
        return {name: rmse(means, self.truth)
                for name, means in self.filter_means.items()}


def rmse(estimates: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """Root of the per-channel mean squared deviation.

    Accepts (M,) or (n, M) arrays; shapes must agree.
    """
    estimates = np.asarray(estimates, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if estimates.shape != truth.shape:
        raise ValueError(f"shape mismatch {estimates.shape} vs {truth.shape}")
    d = np.atleast_2d(estimates - truth)
    return np.sqrt(np.mean(d * d, axis=1))


def _fmt(x: float) -> str:
    """Shortest decimal that round-trips to the same double."""
    return repr(float(x))


_BLOCK_ROWS = 4096


def _write_long(path, steps, times, columns: dict) -> Path:
    """Write ``step,time,channel,<columns>``, one row per (step, channel),
    from ``columns``: name -> (channels, M) array.  Rows are formatted
    column by column, a block of about ``_BLOCK_ROWS`` at a time."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    arrays = [np.asarray(a, dtype=float) for a in columns.values()]
    n = arrays[0].shape[0]
    steps = np.asarray(steps).tolist()
    times = np.asarray(times, dtype=float).tolist()
    block = max(1, _BLOCK_ROWS // max(n, 1))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(["step", "time", "channel", *columns]) + "\n")
        for i in range(0, len(steps), block):
            j = i + block
            lead = [f"{s},{t!r},{c}" for s, t in zip(steps[i:j], times[i:j])
                    for c in range(n)]
            # repr of a Python float is the shortest round-trip decimal
            cells = [map(repr, a[:, i:j].T.ravel().tolist()) for a in arrays]
            fh.writelines(",".join(row) + "\n" for row in zip(lead, *cells))
    return path


def _read_long(path, kind: str, finite: bool = False) -> tuple:
    """Inverse of :func:`_write_long`: ``(steps, times, columns)``.

    A header that does not start ``step,time,channel`` or repeats a name,
    a row of another width, a cell that does not parse, a time that is
    not finite, channels other than ``0..n-1``, a missing or repeated
    (step, channel) row and a time other than the one its step's first
    row gives are each a ``ConfigError`` naming the file, the row and
    ``kind`` (the last names the first row too, since either may hold
    the odd time); with ``finite`` so is a value cell that is not
    finite."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if (header[:3] != ["step", "time", "channel"]
                or len(set(header)) < len(header)):
            raise ConfigError(f"unrecognized {kind} header in {path}")
        cells, times = {}, {}
        for line, row in enumerate(reader, start=2):
            try:
                if len(row) != len(header):
                    raise ValueError(f"{len(row)} fields, not {len(header)}")
                key, t = (int(row[0]), int(row[2])), float(row[1])
                values = [float(x) for x in row[3:]]
                if not math.isfinite(t):
                    raise ValueError(f"time {t!r} is not finite")
                if finite and not all(map(math.isfinite, values)):
                    raise ValueError(f"value {','.join(row[3:])} is not finite")
                if key in cells:
                    raise ValueError(f"repeats step {key[0]}, channel {key[1]}")
                first = times.setdefault(key[0], (t, line))
                if first[0] != t:
                    raise ValueError(f"time {t!r} is not step {key[0]}'s "
                                     f"time {first[0]!r} of row {first[1]}")
                cells[key] = values
            except ValueError as err:
                raise ConfigError(f"malformed {kind} row {line} in {path}: "
                                  f"{err}") from err
    steps = sorted(times)
    n = len({c for _, c in cells})
    try:
        table = np.array([cells[s, c] for s in steps for c in range(n)])
    except KeyError as err:
        raise ConfigError(f"malformed {kind} table {path}: no row for step "
                          "{}, channel {}".format(*err.args[0])) from None
    table = table.reshape(len(steps), n, len(header) - 3).transpose(2, 1, 0)
    return (np.array(steps, dtype=int), np.array([times[s][0] for s in steps]),
            dict(zip(header[3:], np.ascontiguousarray(table))))


def _write_rows(path, header: Sequence[str], rows) -> Path:
    """Write ``header`` and ``rows``: floats through :func:`_fmt`, anything
    else through ``str``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(x) if isinstance(x, float) else str(x)
                              for x in row) + "\n")
    return path


def emit_csv(record: RunRecord, path) -> Path:
    """Write the rows CSV, the long table with columns ``truth`` and each
    filter's ``<filter>_mean`` and ``<filter>_std``, in record order."""
    columns = {"truth": record.truth}
    for name in record.filters:
        columns[f"{name}_mean"] = record.filter_means[name]
        columns[f"{name}_std"] = record.filter_stds[name]
    return _write_long(path, record.steps, record.times, columns)


def load_csv(path) -> RunRecord:
    """Inverse of :func:`emit_csv` (summary fields are not persisted); a
    header-only file gives one channel and no steps."""
    steps, times, columns = _read_long(path, "CSV")
    names = [col[:-5] for col in columns if col.endswith("_mean")]
    if list(columns) != ["truth"] + [f"{n}_{s}" for n in names
                                     for s in ("mean", "std")]:
        raise ConfigError(f"unrecognized CSV header in {path}")
    if steps.size == 0:
        columns = {col: np.zeros((1, 0)) for col in columns}
    return RunRecord(steps=steps, times=times, truth=columns["truth"],
                     filter_means={n: columns[f"{n}_mean"] for n in names},
                     filter_stds={n: columns[f"{n}_std"] for n in names})


def emit_series_csv(path, times, values) -> Path:
    """Write a dataset series, ``values`` (channels, M) at ``times``, as
    rows ``step,time,channel,value``."""
    return _write_long(path, np.arange(1, len(times) + 1), times,
                       {"value": values})


def load_series_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of :func:`emit_series_csv`: ``(times, values)``; a bad
    header or row, a non-finite value among them, is a ``ConfigError``."""
    _, times, columns = _read_long(path, "dataset", finite=True)
    if list(columns) != ["value"]:
        raise ConfigError(f"unrecognized dataset header in {path}")
    return times, columns["value"]


def emit_dataset(out_dir, truth, series: MeasurementSeries, noise_std,
                 seed: int) -> Path:
    """Write a dataset directory: ``truth.csv`` and ``measurements.csv``
    (series at ``series.times``), ``noise_std.csv`` (rows
    ``channel,noise_std``) and ``seed.txt``."""
    out = Path(out_dir)
    emit_series_csv(out / "truth.csv", series.times, truth)
    emit_series_csv(out / "measurements.csv", series.times, series.values)
    noise = np.atleast_1d(np.asarray(noise_std, dtype=float)).tolist()
    _write_rows(out / "noise_std.csv", ["channel", "noise_std"],
                enumerate(noise))
    (out / "seed.txt").write_text(f"{seed}\n", encoding="utf-8")
    return out


def load_dataset(data_dir) -> tuple:
    """Inverse of :func:`emit_dataset`: ``(truth, series, noise_std, seed)``,
    ``seed`` None without ``seed.txt``.  A missing file, a bad header, a
    malformed row, a truth, measurement or noise cell that is not finite,
    measurement times that are not strictly increasing and truth times
    other than the measurement times are each a ``ConfigError``, which
    names the file and, for a row, the row."""
    data_dir = Path(data_dir)
    for name in ("truth.csv", "measurements.csv", "noise_std.csv"):
        if not (data_dir / name).exists():
            raise ConfigError(f"dataset file missing: {data_dir / name}")
    truth_times, truth = load_series_csv(data_dir / "truth.csv")
    times, values = load_series_csv(data_dir / "measurements.csv")
    try:
        series = MeasurementSeries(times=times, values=values)
    except ValueError as err:
        raise ConfigError(f"malformed dataset {data_dir / 'measurements.csv'}"
                          f": {err}") from err
    if not np.array_equal(truth_times, times):
        raise ConfigError(f"the times of {data_dir / 'truth.csv'} are not "
                          f"those of {data_dir / 'measurements.csv'}")
    noise_path = data_dir / "noise_std.csv"
    lines = noise_path.read_text(encoding="utf-8").splitlines()
    if lines[:1] != ["channel,noise_std"]:
        raise ConfigError(f"unrecognized dataset header in {noise_path}")
    noise_std = np.empty(len(lines) - 1)
    for i, line in enumerate(lines[1:]):
        try:
            _, cell = line.split(",")
            noise_std[i] = float(cell)
            if not math.isfinite(noise_std[i]):
                raise ValueError(f"noise level {cell} is not finite")
        except ValueError as err:
            raise ConfigError(f"malformed dataset row {i + 2} in "
                              f"{noise_path}: {err}") from err
    seed_path = data_dir / "seed.txt"
    seed = None
    if seed_path.exists():
        try:
            seed = int(seed_path.read_text())
        except ValueError as err:
            raise ConfigError(f"malformed dataset seed in {seed_path}: "
                              f"{err}") from err
    return truth, series, noise_std, seed


_PALETTE = ["#d62728", "#1f77b4", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]


def emit_linechart(record: RunRecord, channels: Sequence[int], path) -> Path:
    """Write an 800x480 SVG line chart: truth plus every filter, per channel.

    One polyline per (filter, channel) and one per truth channel, with
    labeled axes and a legend.  Raises ``ValueError`` for an empty or
    out-of-range channel selection.
    """
    channels = list(channels)
    if not channels:
        raise ValueError("channel selection is empty")
    for c in channels:
        if not 0 <= c < record.n_channels:
            raise ValueError(f"channel {c} out of range 0..{record.n_channels - 1}")
    if record.times.size == 0:
        raise ValueError("record has no rows to plot")

    labels = ["truth"] + record.filters
    series = [(li, vals[c]) for li, vals in
              enumerate([record.truth, *record.filter_means.values()])
              for c in channels]

    finite_vals = np.concatenate([v[np.isfinite(v)] for _, v in series])
    lo = float(finite_vals.min()) if finite_vals.size else 0.0
    hi = float(finite_vals.max()) if finite_vals.size else 1.0
    if hi <= lo:
        hi = lo + 1.0
    t0, t1 = float(record.times[0]), float(record.times[-1])
    if t1 <= t0:
        t1 = t0 + 1.0
    width, height = 800, 480
    mleft, mright, mtop, mbot = 60, 20, 20, 45
    pw, ph = width - mleft - mright, height - mtop - mbot
    xs = mleft + (record.times - t0) / (t1 - t0) * pw

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{mleft}" y1="{mtop + ph}" x2="{mleft + pw}" y2="{mtop + ph}" stroke="black"/>',
        f'<line x1="{mleft}" y1="{mtop}" x2="{mleft}" y2="{mtop + ph}" stroke="black"/>',
        f'<text x="{mleft + pw / 2:.1f}" y="{height - 8}" text-anchor="middle" '
        f'font-size="13">time</text>',
        f'<text x="14" y="{mtop + ph / 2:.1f}" text-anchor="middle" font-size="13" '
        f'transform="rotate(-90 14 {mtop + ph / 2:.1f})">value</text>',
        f'<text x="{mleft - 6}" y="{mtop + ph + 4}" text-anchor="end" font-size="11">{lo:.4g}</text>',
        f'<text x="{mleft - 6}" y="{mtop + 10}" text-anchor="end" font-size="11">{hi:.4g}</text>',
        f'<text x="{mleft}" y="{mtop + ph + 16}" text-anchor="middle" font-size="11">{t0:.4g}</text>',
        f'<text x="{mleft + pw}" y="{mtop + ph + 16}" text-anchor="middle" font-size="11">{t1:.4g}</text>',
    ]
    for li, vals in series:
        dash = ' stroke-dasharray="5,3"' if li else ""
        ok = np.isfinite(vals)
        ys = mtop + (hi - vals[ok]) / (hi - lo) * ph
        pts = " ".join(f"{x:.2f},{y:.2f}"
                       for x, y in zip(xs[ok].tolist(), ys.tolist()))
        parts.append(f'<polyline fill="none" stroke="{_PALETTE[li % len(_PALETTE)]}"'
                     f'{dash} points="{pts}"/>')
    for li, name in enumerate(labels):
        color = _PALETTE[li % len(_PALETTE)]
        y = mtop + 14 + 16 * li
        parts.append(f'<line x1="{mleft + pw - 120}" y1="{y}" x2="{mleft + pw - 95}" '
                     f'y2="{y}" stroke="{color}"/>')
        parts.append(f'<text x="{mleft + pw - 90}" y="{y + 4}" font-size="12">{name}</text>')
    parts.append("</svg>")

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(parts), encoding="utf-8")
    return path


def emit_summary(record: RunRecord, path) -> Path:
    """Write the per-channel RMSE summary (includes wall time and seed)."""
    summary = record.summary_rmse()
    return _write_rows(
        path, ["channel", *(f"{n}_rmse" for n in record.filters), "seed",
               "wall_time"],
        ([c, *(summary[n][c] for n in record.filters), record.seed,
          f"{record.wall_time:.3f}"] for c in range(record.n_channels)))


def emit_sweep(report, path) -> Path:
    """Write a :class:`enks.harness.ConvergenceReport` as rows
    ``<variable>,error_mean,error_std``."""
    return _write_rows(path, [report.variable, "error_mean", "error_std"],
                       zip(report.values.tolist(), report.mean_errors.tolist(),
                           report.std_errors.tolist()))
