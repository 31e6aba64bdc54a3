"""Euler-Maruyama integration and synthetic-data generation.

These routines are shared by every filter: single-step and ensemble
prediction, reference-trajectory simulation, and measurement synthesis
for twin experiments.  Ensemble prediction takes its Brownian increments
from a :class:`enks.rng.ParticleNoise`, which reads each particle's stream
a block of steps ahead (a byte budget sets the block) and serves draws
bit-identical to per-step ones.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericFailure
from .models import MeasurementModel, MeasurementSeries, ProcessModel
from .rng import ParticleNoise, RngStream, brownian_increments


def em_step(model: ProcessModel, x: np.ndarray, t: float, dt: float,
            dB: np.ndarray) -> np.ndarray:
    """One explicit Euler-Maruyama step x + b(x,t) dt + f(x,t) dB.

    Parameters
    ----------
    model : ProcessModel
    x : ndarray, shape (n,)
        Current state.
    t : float
        Current time (the fields are evaluated at (x, t)).
    dt : float
        Step length, strictly positive.
    dB : ndarray, shape (m,)
        Brownian increment over the step.

    Raises
    ------
    NumericFailure
        If the stepped state is non-finite.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    x = np.asarray(x, dtype=float)
    dB = np.asarray(dB, dtype=float)
    if dB.shape != (model.m,):
        raise ValueError(f"dB shape {dB.shape} != ({model.m},)")
    # overflow here is an expected failure mode, reported as NumericFailure
    with np.errstate(over="ignore", invalid="ignore"):
        b = np.asarray(model.drift(x, t), dtype=float)
        out = x + b * dt
        if model.m:
            f = np.asarray(model.diffusion(x, t), dtype=float)
            out = out + f @ dB
    if not np.isfinite(out).all():
        raise NumericFailure("non-finite state after EM step", t=t)
    return out


def _ensemble_drift(model: ProcessModel, ens: np.ndarray, t: float) -> np.ndarray:
    if model.drift_ensemble is not None:
        return np.asarray(model.drift_ensemble(ens, t), dtype=float)
    out = np.empty_like(ens)
    for j in range(ens.shape[1]):
        out[:, j] = np.asarray(model.drift(ens[:, j], t), dtype=float)
    return out


def predict_ensemble(model: ProcessModel, ens: np.ndarray, t_prev: float,
                     dt: float, noise: ParticleNoise) -> np.ndarray:
    """Propagate every particle one EM step with its own Brownian stream.

    Column j of the result is ``em_step`` applied to column j of ``ens``
    with the increment drawn from particle j's stream in ``noise``;
    column order is preserved, so results are reproducible no matter how
    columns would be distributed over workers.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    n, N = ens.shape
    if n != model.n:
        raise ValueError(f"ensemble has {n} rows, model expects {model.n}")
    if noise.N != N:
        raise ValueError(f"{noise.N} particle streams for {N} particles")

    with np.errstate(over="ignore", invalid="ignore"):
        drift = _ensemble_drift(model, ens, t_prev)
        out = ens + drift * dt
        if model.m:
            dB = noise.increments(model.m, dt)
            if model.constant_diffusion is not None:
                out = out + model.constant_diffusion @ dB
            else:
                for j in range(N):
                    out[:, j] += np.asarray(model.diffusion(ens[:, j], t_prev),
                                            dtype=float) @ dB[:, j]
    bad = ~np.isfinite(out).all(axis=0)
    if bad.any():
        j = int(np.argmax(bad))
        raise NumericFailure("non-finite particle after prediction",
                             t=t_prev + dt, particle=j)
    return out


def simulate_truth(model: ProcessModel, x0: np.ndarray, grid: np.ndarray,
                   stream: RngStream) -> np.ndarray:
    """EM-integrate a single reference path on a strictly increasing grid.

    The path starts at ``x0`` at time ``grid[0] - (grid[1] - grid[0])``
    when the grid excludes time zero; by convention the caller passes the
    post-initial grid ``t_1 < ... < t_M`` and integration starts at t = 0.

    Returns
    -------
    ndarray, shape (n, M)
        State sampled at each grid time.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0 or np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be 1-d and strictly increasing")
    x = np.asarray(x0, dtype=float).reshape(model.n)
    traj = np.empty((model.n, grid.size))
    t = 0.0 if grid[0] > 0 else grid[0]
    start = 0
    if grid[0] <= 0:
        traj[:, 0] = x
        start = 1
        t = grid[0]
    for i in range(start, grid.size):
        dt = grid[i] - t
        try:
            x = em_step(model, x, t, dt, brownian_increments(stream, model.m, dt)
                        if model.m else np.zeros(0))
        except NumericFailure as err:
            raise NumericFailure("truth simulation failed", t=grid[i], step=i) from err
        traj[:, i] = x
        t = grid[i]
    return traj


def synth_measurements(meas: MeasurementModel, traj: np.ndarray,
                       grid: np.ndarray, stream: RngStream,
                       noise_std: np.ndarray) -> MeasurementSeries:
    """Corrupt a trajectory into synthetic observations.

    Y_i = h(x(t_i), t_i) + eps_i with eps_i ~ N(0, diag(noise_std^2)),
    drawn from ``stream`` so a replayed stream reproduces the data.
    """
    grid = np.asarray(grid, dtype=float)
    traj = np.asarray(traj, dtype=float)
    if traj.shape[1] != grid.size:
        raise ValueError(f"trajectory has {traj.shape[1]} columns for {grid.size} times")
    noise_std = np.broadcast_to(np.asarray(noise_std, dtype=float), (meas.q,))
    if np.any(noise_std < 0):
        raise ValueError("noise_std entries must be >= 0")
    clean = np.empty((meas.q, grid.size))
    for i, t in enumerate(grid):
        clean[:, i] = np.asarray(meas.h(traj[:, i], t), dtype=float).reshape(meas.q)
    eps = noise_std[:, None] * stream.standard_normal((meas.q, grid.size))
    return MeasurementSeries(times=grid, values=clean + eps)
