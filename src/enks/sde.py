"""Euler-Maruyama integration and synthetic-data generation.

One explicit Euler-Maruyama kernel steps every path.  Ensemble prediction
takes its Brownian increments from a :class:`enks.rng.ParticleNoise`,
one ``(N, m)`` panel per step drawn in a single call from that step's
keyed stream.  The reference truth of a twin experiment is a one-column
ensemble stepped by the same kernel, its whole Brownian path drawn from
its stream in one call.  Measurement synthesis corrupts the truth's
noise-free signal, the measurement map of the whole trajectory in one
call.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericFailure
from .models import (MeasurementModel, MeasurementSeries, ProcessModel,
                     require_finite)
from .rng import ParticleNoise, RngStream


def _em(model: ProcessModel, x: np.ndarray, t: float, dt: float,
        dB: np.ndarray | None, out: np.ndarray | None = None) -> np.ndarray:
    """One explicit Euler-Maruyama step ``x + b(x, t) dt + F dB`` of every
    column of ``x``, built in ``out`` (or one new array).

    ``out`` may be ``x`` itself, which then holds the step: the model's
    new drift array is scaled by ``dt`` in place (a drift that shares
    memory with ``x`` is scaled into a new array) and added into ``x``;
    IEEE addition commutes, so these are the bits of ``b dt + x``.  ``dB``
    holds one increment per column, shape (m, N), and is not read when m
    = 0.  A diffusion that is a scaled selection (``model.selection``) is
    applied by slices, with the bits of the dense product.  A dense
    diffusion multiplies a C-ordered ``dB``: the noise's increments are an
    F-ordered view, and at some shapes BLAS sums ``F @ dB`` on that view
    in another order.  Overflow is left to the caller's finiteness check.
    """
    drift = model.drift_ensemble(x, t)
    if out is not x:
        out = np.multiply(drift, dt, out=out)
        out += x
    elif np.may_share_memory(drift, x):
        out += drift * dt
    else:
        out += np.multiply(drift, dt, out=drift)
    del drift  # freed before the diffusion makes its temporaries
    if model.m:
        if model.selection is not None:
            rows, cols, scale = model.selection
            out[rows] += scale * dB[cols]
        else:
            out += model.constant_diffusion @ np.ascontiguousarray(dB)
    return out


def predict_ensemble(model: ProcessModel, ens: np.ndarray, t_prev: float,
                     dt: float, noise: ParticleNoise,
                     out: np.ndarray | None = None) -> np.ndarray:
    """Propagate every particle one EM step.

    Column j of the result is column j of ``ens`` stepped with column j of
    the step's increments from ``noise``; column order is preserved, so
    permuting the particles and their increments together permutes the
    result.  The result is built in ``out``, a float array of the shape of
    ``ens``, or in one new array.  ``out`` may be ``ens`` itself, which
    then holds the prediction; any other ``out`` must not alias ``ens``,
    and ``ens`` is left as it is.  The increments are never changed.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    n, N = ens.shape
    if n != model.n:
        raise ValueError(f"ensemble has {n} rows, model expects {model.n}")
    if noise.N != N:
        raise ValueError(f"{noise.N} particle streams for {N} particles")

    dB = noise.increments(model.m, dt) if model.m else None
    with np.errstate(over="ignore", invalid="ignore"):
        out = _em(model, ens, t_prev, dt, dB, out)
    require_finite(out, "non-finite particle after prediction", t=t_prev + dt)
    return out


def simulate_truth(model: ProcessModel, x0: np.ndarray, grid: np.ndarray,
                   stream: RngStream) -> np.ndarray:
    """EM-integrate a single reference path on a strictly increasing grid.

    The path is a one-column ensemble stepped by the ensemble's kernel.
    It starts at ``x0`` at t = 0 when ``grid[0] > 0`` (the usual
    post-initial grid ``t_1 < ... < t_M``), else at ``grid[0]``, where it
    is recorded as is.  Step i runs from the previous grid time to
    ``grid[i]`` with ``dt_i`` their difference, and its increment is
    ``sqrt(dt_i)`` times row i of one ``(steps, m)`` draw from ``stream``:
    the draws ``m`` normals per step would give, in the same order.

    Returns
    -------
    ndarray, shape (n, M)
        State sampled at each grid time.

    Raises
    ------
    NumericFailure
        "truth simulation failed", with the time and index of the first
        non-finite grid column.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0 or np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be 1-d and strictly increasing")
    start = 1 if grid[0] <= 0 else 0
    t_prev = np.concatenate(([0.0], grid[:-1]))
    dts = grid - t_prev
    traj = np.empty((model.n, grid.size))
    x = np.asarray(x0, dtype=float).reshape(model.n, 1)
    if start:
        traj[:, 0] = x[:, 0]
    dB = (np.sqrt(dts[start:, None])
          * stream.standard_normal((grid.size - start, model.m)))
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(start, grid.size):
            x = _em(model, x, t_prev[i], dts[i], dB[i - start, :, None],
                    traj[:, i:i + 1])
    bad = ~np.isfinite(traj[:, start:]).all(axis=0)
    if bad.any():
        i = start + int(np.argmax(bad))
        raise NumericFailure("truth simulation failed", t=grid[i], step=i)
    return traj


def clean_signal(meas: MeasurementModel, traj: np.ndarray,
                 grid: np.ndarray) -> np.ndarray:
    """Noise-free measurements ``h(x(t_i), t_i)`` of a trajectory, (q, M).

    One call of the measurement map on the whole ``(n, M)`` trajectory,
    with column i at ``grid[i]``.  The result may share memory with
    ``traj`` (an identity map returns it as is).
    """
    clean = np.asarray(meas.h(traj, grid), dtype=float)
    if clean.shape != (meas.q, grid.size):
        raise ValueError(f"h returned shape {clean.shape}, "
                         f"expected {(meas.q, grid.size)}")
    return clean


def synth_measurements(meas: MeasurementModel, traj: np.ndarray,
                       grid: np.ndarray, stream: RngStream,
                       noise_std: np.ndarray,
                       clean: np.ndarray | None = None) -> MeasurementSeries:
    """Corrupt a trajectory into synthetic observations.

    Y_i = h(x(t_i), t_i) + eps_i with eps_i ~ N(0, diag(noise_std^2)),
    drawn from ``stream`` so a replayed stream reproduces the data.
    ``clean`` is the trajectory's :func:`clean_signal` when the caller
    has it already.
    """
    grid = np.asarray(grid, dtype=float)
    traj = np.asarray(traj, dtype=float)
    if traj.shape[1] != grid.size:
        raise ValueError(f"trajectory has {traj.shape[1]} columns for {grid.size} times")
    noise_std = np.broadcast_to(np.asarray(noise_std, dtype=float), (meas.q,))
    if np.any(noise_std < 0):
        raise ValueError("noise_std entries must be >= 0")
    if clean is None:
        clean = clean_signal(meas, traj, grid)
    eps = noise_std[:, None] * stream.standard_normal((meas.q, grid.size))
    return MeasurementSeries(times=grid, values=clean + eps)
