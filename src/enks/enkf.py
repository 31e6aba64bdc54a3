"""Stochastic (perturbed-observation) ensemble Kalman filter baseline.

The analysis step is the standard one: sample covariances about the
ensemble means give the gain, and each member assimilates an
independently perturbed copy of the observation,

    x_j  <-  x_j + C_xh (C_hh + R)^{-1} (y + eps_j - h(x_j)),
    eps_j ~ N(0, R).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve, LinAlgError

from .errors import NumericFailure
from .models import MeasurementModel, ProcessModel
from .rng import ParticleNoise, RngStream
from .sde import predict_ensemble


@dataclass(frozen=True)
class EnkfConfig:
    """Ensemble size, observation-error covariance, and seed."""

    N: int
    R: np.ndarray
    seed: int = 0

    def __post_init__(self):
        if self.N < 2:
            raise ValueError("N must be >= 2")
        R = np.atleast_2d(np.asarray(self.R, dtype=float))
        if R.shape[0] != R.shape[1]:
            raise ValueError("R must be square")
        if not np.allclose(R, R.T):
            raise ValueError("R must be symmetric")
        if np.any(np.linalg.eigvalsh(R) <= 0):
            raise ValueError("R must be positive definite")
        object.__setattr__(self, "R", R)


@dataclass
class EnkfState:
    """Current time and analysis ensemble."""

    t_curr: float
    ensemble: np.ndarray


def enkf_update(pred: np.ndarray, h_pred: np.ndarray, y: np.ndarray,
                cfg: EnkfConfig, stream: RngStream) -> np.ndarray:
    """Perturbed-observation analysis of a forecast ensemble.

    Parameters
    ----------
    pred : ndarray, shape (n, N)
        Forecast ensemble.
    h_pred : ndarray, shape (q, N)
        Forecast measurement images.
    y : ndarray, shape (q,)
        Observation.
    cfg : EnkfConfig
    stream : RngStream
        Source of the observation perturbations (q draws per member).
    """
    pred = np.asarray(pred, dtype=float)
    h_pred = np.asarray(h_pred, dtype=float)
    y = np.asarray(y, dtype=float).reshape(-1)
    n, N = pred.shape
    q = y.size
    if h_pred.shape != (q, N):
        raise ValueError(f"h_pred shape {h_pred.shape} != ({q}, {N})")
    if cfg.R.shape != (q, q):
        raise ValueError("R dimension does not match the observation")

    Xd = pred - pred.mean(axis=1, keepdims=True)
    Hd = h_pred - h_pred.mean(axis=1, keepdims=True)
    # a diverging ensemble overflows here; the check below reports it
    with np.errstate(over="ignore", invalid="ignore"):
        C_xh = Xd @ Hd.T / (N - 1)
        C_hh = Hd @ Hd.T / (N - 1)
        denom = 0.5 * (C_hh + C_hh.T) + cfg.R
    if not (np.isfinite(denom).all() and np.isfinite(C_xh).all()):
        raise NumericFailure("non-finite ensemble covariance in analysis")
    try:
        factor = cho_factor(denom)
    except LinAlgError as err:
        raise NumericFailure("singular innovation covariance in analysis") from err
    gain = cho_solve(factor, C_xh.T).T

    chol_R = np.linalg.cholesky(cfg.R)
    eps = chol_R @ stream.standard_normal((q, N))
    analysis = pred + gain @ (y[:, None] + eps - h_pred)
    if not np.isfinite(analysis).all():
        raise NumericFailure("non-finite analysis ensemble")
    return analysis


def enkf_step(state: EnkfState, proc: ProcessModel, meas: MeasurementModel,
              y: np.ndarray, cfg: EnkfConfig, noise: ParticleNoise,
              perturbation_stream: RngStream, dt: float) -> EnkfState:
    """Forecast with the shared EM predictor, then analyze."""
    y = np.asarray(y, dtype=float).reshape(-1)
    if y.size != meas.q:
        raise ValueError(f"measurement has length {y.size}, expected {meas.q}")
    t_new = state.t_curr + dt
    pred = predict_ensemble(proc, state.ensemble, state.t_curr, dt, noise)
    h_pred = meas.evaluate(pred, t_new)
    analysis = enkf_update(pred, h_pred, y, cfg, perturbation_stream)
    return EnkfState(t_curr=t_new, ensemble=analysis)
