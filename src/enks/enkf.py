"""Stochastic (perturbed-observation) ensemble Kalman filter baseline.

The analysis step is the standard one: sample covariances about the
ensemble means give the gain, and each member assimilates an
independently perturbed copy of the observation,

    x_j  <-  x_j + C_xh (C_hh + R)^{-1} (y + eps_j - h(x_j)),
    eps_j ~ N(0, R).

The gain comes from ``enks.core.analysis_gain``, the kernel of the EnKS
gain, with ``C_xh (C_hh + R)^{-1} = Xd Hd^T/(N-1) (Hd Hd^T/(N-1) + R)^{-1}``,
and the update is the step's one new ensemble-sized array.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import FilterState, analysis_gain, forecast, matmul
from .models import MeasurementModel, ProcessModel, require_finite
from .rng import ParticleNoise, RngStream

# NumericFailure messages of the analysis gain: non-finite denominator,
# denominator not positive definite, non-finite gain
GAIN_FAILURES = ("non-finite ensemble covariance in analysis",
                 "singular innovation covariance in analysis",
                 "non-finite ensemble covariance in analysis")


@dataclass(frozen=True)
class EnkfConfig:
    """Observation-error covariance.

    ``R`` is stored symmetrized and ``chol_R`` is its lower Cholesky
    factor, both set on construction.
    """

    R: np.ndarray
    chol_R: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
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


def enkf_update(pred: np.ndarray, h_pred: np.ndarray, y: np.ndarray,
                cfg: EnkfConfig, stream: RngStream) -> np.ndarray:
    """Perturbed-observation analysis of a forecast ensemble.

    The analysis is one new array, ``G (y + eps - h)`` with ``pred`` added
    into it (the bits of ``pred + G (y + eps - h)``); the inputs are left
    as they are.

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

    # the perturbed innovation y + eps - h, formed in the perturbation
    innov = matmul(cfg.chol_R, stream.standard_normal((q, N)))
    innov += y[:, None]
    innov -= h_pred
    analysis = matmul(gain, innov)
    analysis += pred
    require_finite(analysis, "non-finite analysis ensemble")
    return analysis


def enkf_step(state: FilterState, proc: ProcessModel, meas: MeasurementModel,
              y: np.ndarray, cfg: EnkfConfig, noise: ParticleNoise,
              perturbation_stream: RngStream, dt: float,
              consume: bool = False) -> FilterState:
    """:func:`enks.core.forecast` over ``dt`` (in place over the state's
    ensemble with ``consume``), then :func:`enkf_update`.
    ``state.noise_term`` must equal ``cfg.R``, the covariance the analysis
    uses; any other is a ``ValueError``."""
    if state.noise_term is not cfg.R and not np.array_equal(state.noise_term,
                                                            cfg.R):
        raise ValueError("an EnKF state's noise term must be its config's R")
    y, t_new, pred, h_pred = forecast(state, proc, meas, y, dt, noise,
                                      consume)
    analysis = enkf_update(pred, h_pred, y, cfg, perturbation_stream)
    return FilterState(t_new, analysis, state.noise_term)
