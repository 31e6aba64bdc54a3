"""Stochastic (perturbed-observation) ensemble Kalman filter baseline.

The analysis step is the standard one: sample covariances about the
ensemble means give the gain, and each member assimilates an
independently perturbed copy of the observation,

    x_j  <-  x_j + C_xh (C_hh + R)^{-1} (y + eps_j - h(x_j)),
    eps_j ~ N(0, R).

The gain comes from ``enks.core.analysis_gain``, the kernel of the EnKS
gain, with ``C_xh (C_hh + R)^{-1} = Xd Hd^T/(N-1) (Hd Hd^T/(N-1) + R)^{-1}``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import analysis_gain
from .errors import NumericFailure
from .models import MeasurementModel, ProcessModel
from .rng import ParticleNoise, RngStream
from .sde import predict_ensemble

# NumericFailure messages of the analysis gain: non-finite denominator,
# denominator not positive definite, non-finite gain
GAIN_FAILURES = ("non-finite ensemble covariance in analysis",
                 "singular innovation covariance in analysis",
                 "non-finite ensemble covariance in analysis")


@dataclass(frozen=True)
class EnkfConfig:
    """Ensemble size and observation-error covariance.

    ``R`` is stored symmetrized and ``chol_R`` is its lower Cholesky
    factor, both set on construction.
    """

    N: int
    R: np.ndarray
    chol_R: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.N < 2:
            raise ValueError("N must be >= 2")
        R = np.atleast_2d(np.asarray(self.R, dtype=float))
        if R.shape[0] != R.shape[1]:
            raise ValueError("R must be square")
        if not np.allclose(R, R.T):
            raise ValueError("R must be symmetric")
        R = 0.5 * (R + R.T)
        try:
            chol_R = np.linalg.cholesky(R)
        except np.linalg.LinAlgError as err:
            raise ValueError("R must be positive definite") from err
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "chol_R", chol_R)


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
    if N < 2:
        raise ValueError("the analysis needs at least 2 particles")
    if h_pred.shape != (q, N):
        raise ValueError(f"h_pred shape {h_pred.shape} != ({q}, {N})")
    if cfg.R.shape != (q, q):
        raise ValueError("R dimension does not match the observation")

    weight = 1.0 / (N - 1)
    gain = analysis_gain(pred, h_pred, weight, weight, cfg.R, GAIN_FAILURES)

    eps = cfg.chol_R @ stream.standard_normal((q, N))
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
