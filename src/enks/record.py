"""Run records, error metrics, CSV persistence, and SVG line charts.

Besides the run record's rows CSV, the dataset that ``enks simulate``
writes and ``enks run --data`` reads is persisted here: its truth and
measurement series, its noise levels and its seed.

The rows CSV is the deterministic artifact of a run: identical configs
must produce byte-identical files, so floats are written with shortest
round-trip formatting and nothing time- or host-dependent goes in.  The
summary (which includes wall time) lives in a separate file.
"""

from __future__ import annotations

import csv
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


def emit_csv(record: RunRecord, path) -> Path:
    """Write the rows CSV: step,time,channel,truth,<filter>_mean,<filter>_std.

    One row per (step, channel), filters in record order, header
    mandatory, UTF-8 with newline-only line endings.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    names = record.filters
    header = ["step", "time", "channel", "truth"]
    for name in names:
        header += [f"{name}_mean", f"{name}_std"]
    # Python lists of Python floats: indexing an array makes a numpy scalar
    truth = record.truth.tolist()
    series = [(record.filter_means[name].tolist(),
               record.filter_stds[name].tolist()) for name in names]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for i, (step, t) in enumerate(zip(record.steps.tolist(),
                                          record.times.tolist())):
            for c in range(record.n_channels):
                row = [str(step), _fmt(t), str(c), _fmt(truth[c][i])]
                for means, stds in series:
                    row.append(_fmt(means[c][i]))
                    row.append(_fmt(stds[c][i]))
                fh.write(",".join(row) + "\n")
    return path


def load_csv(path) -> RunRecord:
    """Inverse of :func:`emit_csv` (summary fields are not persisted)."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header[:4] != ["step", "time", "channel", "truth"]:
            raise ValueError(f"unrecognized CSV header in {path}")
        names = [col[:-5] for col in header[4:] if col.endswith("_mean")]
        rows = list(reader)
    if not rows:
        return RunRecord(steps=np.zeros(0, dtype=int), times=np.zeros(0),
                         truth=np.zeros((1, 0)),
                         filter_means={n: np.zeros((1, 0)) for n in names},
                         filter_stds={n: np.zeros((1, 0)) for n in names})
    steps = sorted({int(r[0]) for r in rows})
    channels = sorted({int(r[2]) for r in rows})
    step_pos = {s: i for i, s in enumerate(steps)}
    M, n = len(steps), len(channels)
    times = np.zeros(M)
    truth = np.zeros((n, M))
    means = {name: np.zeros((n, M)) for name in names}
    stds = {name: np.zeros((n, M)) for name in names}
    for r in rows:
        i = step_pos[int(r[0])]
        c = int(r[2])
        times[i] = float(r[1])
        truth[c, i] = float(r[3])
        for k, name in enumerate(names):
            means[name][c, i] = float(r[4 + 2 * k])
            stds[name][c, i] = float(r[5 + 2 * k])
    return RunRecord(steps=np.asarray(steps), times=times, truth=truth,
                     filter_means=means, filter_stds=stds)


def emit_series_csv(path, times, values) -> Path:
    """Write a dataset series, ``values`` (channels, M) at ``times``, as
    rows ``step,time,channel,value``."""
    path = Path(path)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("step,time,channel,value\n")
        for i, t in enumerate(times):
            for c in range(values.shape[0]):
                fh.write(f"{i + 1},{_fmt(t)},{c},{_fmt(values[c, i])}\n")
    return path


def load_series_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of :func:`emit_series_csv`: ``(times, values)``.

    A dataset file is user input, so a bad header or row is a
    ``ConfigError``.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != ["step", "time", "channel", "value"]:
            raise ConfigError(f"unrecognized dataset header in {path}")
        rows = list(reader)
    try:
        steps = sorted({int(r[0]) for r in rows})
        channels = sorted({int(r[2]) for r in rows})
        pos = {s: i for i, s in enumerate(steps)}
        times = np.zeros(len(steps))
        values = np.zeros((len(channels), len(steps)))
        for r in rows:
            i = pos[int(r[0])]
            times[i] = float(r[1])
            values[int(r[2]), i] = float(r[3])
    except (ValueError, IndexError) as err:
        raise ConfigError(f"malformed dataset row in {path}: {err}") from err
    return times, values


def emit_dataset(out_dir, truth, series: MeasurementSeries, noise_std,
                 seed: int) -> Path:
    """Write a dataset directory: ``truth.csv`` and ``measurements.csv``
    (series at ``series.times``), ``noise_std.csv`` (rows
    ``channel,noise_std``) and ``seed.txt``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    emit_series_csv(out / "truth.csv", series.times, truth)
    emit_series_csv(out / "measurements.csv", series.times, series.values)
    with open(out / "noise_std.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("channel,noise_std\n")
        for c, s in enumerate(np.atleast_1d(noise_std)):
            fh.write(f"{c},{_fmt(s)}\n")
    (out / "seed.txt").write_text(f"{seed}\n", encoding="utf-8")
    return out


def load_dataset(data_dir) -> tuple:
    """Inverse of :func:`emit_dataset`: ``(truth, series, noise_std, seed)``.

    ``seed`` is None for a dataset without ``seed.txt``.  A missing file
    or a malformed row is a ``ConfigError``.
    """
    data_dir = Path(data_dir)
    for name in ("truth.csv", "measurements.csv", "noise_std.csv"):
        if not (data_dir / name).exists():
            raise ConfigError(f"dataset file missing: {data_dir / name}")
    _, truth = load_series_csv(data_dir / "truth.csv")
    times, values = load_series_csv(data_dir / "measurements.csv")
    noise_path = data_dir / "noise_std.csv"
    try:
        noise_std = np.array([float(l.split(",")[1])
                              for l in noise_path.read_text().splitlines()[1:]])
    except (ValueError, IndexError) as err:
        raise ConfigError(f"malformed dataset row in {noise_path}: {err}") from err
    seed_path = data_dir / "seed.txt"
    seed = None
    if seed_path.exists():
        try:
            seed = int(seed_path.read_text())
        except ValueError as err:
            raise ConfigError(f"malformed dataset seed in {seed_path}: "
                              f"{err}") from err
    return (truth, MeasurementSeries(times=times, values=values), noise_std,
            seed)


_PALETTE = ["#d62728", "#1f77b4", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]


def emit_linechart(record: RunRecord, channels: Sequence[int], path,
                   width: int = 800, height: int = 480) -> Path:
    """Write an SVG line chart: truth plus every filter, per channel.

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

    series = [("truth", c, record.truth[c]) for c in channels]
    for name in record.filters:
        series += [(name, c, record.filter_means[name][c]) for c in channels]

    finite_vals = np.concatenate([s[2][np.isfinite(s[2])] for s in series])
    lo = float(finite_vals.min()) if finite_vals.size else 0.0
    hi = float(finite_vals.max()) if finite_vals.size else 1.0
    if hi <= lo:
        hi = lo + 1.0
    t0, t1 = float(record.times[0]), float(record.times[-1])
    if t1 <= t0:
        t1 = t0 + 1.0
    mleft, mright, mtop, mbot = 60, 20, 20, 45
    pw, ph = width - mleft - mright, height - mtop - mbot

    def sx(t):
        return mleft + (t - t0) / (t1 - t0) * pw

    def sy(v):
        return mtop + (hi - v) / (hi - lo) * ph

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
    labels = ["truth"] + record.filters
    for li, (name, c, vals) in enumerate(series):
        color = _PALETTE[labels.index(name) % len(_PALETTE)]
        dash = ' stroke-dasharray="5,3"' if name != "truth" else ""
        pts = " ".join(f"{sx(t):.2f},{sy(v):.2f}"
                       for t, v in zip(record.times, vals) if np.isfinite(v))
        parts.append(f'<polyline fill="none" stroke="{color}"{dash} points="{pts}"/>')
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
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    summary = record.summary_rmse()
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("channel," + ",".join(f"{n}_rmse" for n in record.filters)
                 + ",seed,wall_time\n")
        for c in range(record.n_channels):
            row = [str(c)] + [_fmt(summary[n][c]) for n in record.filters]
            row += [str(record.seed), f"{record.wall_time:.3f}"]
            fh.write(",".join(row) + "\n")
    return path
