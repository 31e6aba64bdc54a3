"""Non-iterative ensemble Kushner-Stratonovich (EnKS) filter step.

The filter alternates Euler-Maruyama prediction of the particle ensemble
with a strictly additive, weight-free update: every particle is shifted
by a shared gain matrix applied to its own innovation,

    x_j  <-  x_j + G (y - h(x_j)).

The gain couples the predicted state/measurement cross terms with the
previous step's ensemble means through time-weighted products, and its
denominator blends the ensemble innovation covariance with the scaled
measurement-noise intensity through a parameter ``alpha``:

    G = (1/N) [ (X - Xbar) (Hd^T tc + hbar_prev^T (tc - tp))
              + (xbar tc - xbar_prev tp) 1^T Hd^T ]
        [ alpha S + (1 - alpha) sigma^T sigma ]^{-1}

with ``Hd = H - hbar`` the centered predicted measurements, ``S`` their
sample covariance, and ``(tc, tp)`` the time pair discussed below.

Time origin
-----------
With ``time_origin="absolute"`` the products use the running times
``(t_i, t_{i-1})``, making the gain norm grow linearly with elapsed time;
empirically the update then over-amplifies ensemble spread once
``t > 2 * alpha`` and every long benchmark diverges.  The default
``time_origin="step"`` restarts the clock at each assimilation interval,
``(tc, tp) = (dt, 0)``, which preserves the update structure while
keeping the gain bounded; all shipped experiments use it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import cho_factor, cho_solve, LinAlgError

from .errors import NumericFailure
from .models import MeasurementModel, ProcessModel, validate_ensemble
from .rng import ParticleNoise
from .sde import predict_ensemble


@dataclass(frozen=True)
class FilterConfig:
    """Run-level filter parameters.

    Parameters
    ----------
    N : int
        Ensemble size, at least 2.
    dt : float
        Assimilation step, strictly positive.
    alpha : float
        Denominator blend weight in (0, 1); 0.8 is the customary value.
    seed : int
        Base seed for all streams of the run.
    param_diffusion : float
        Diffusion intensity applied to augmented parameter channels by the
        benchmark builders (kept here so a config fully describes a run).
    time_origin : str
        "step" (default) or "absolute"; see module docstring.
    """

    N: int
    dt: float
    alpha: float = 0.8
    seed: int = 0
    param_diffusion: float = 0.01
    time_origin: str = "step"

    def __post_init__(self):
        if self.N < 2:
            raise ValueError("N must be >= 2")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie strictly inside (0, 1)")
        if self.param_diffusion < 0:
            raise ValueError("param_diffusion must be >= 0")
        if self.time_origin not in ("step", "absolute"):
            raise ValueError("time_origin must be 'step' or 'absolute'")


@dataclass
class FilterState:
    """Ensemble plus the lagged means the gain formula consumes.

    ``prev_state_mean`` / ``prev_meas_mean`` hold the predicted (pre-update)
    ensemble means of the previous step; at initialization they are the
    means over the initial ensemble.
    """

    t_curr: float
    t_prev: float
    ensemble: np.ndarray
    prev_state_mean: np.ndarray
    prev_meas_mean: np.ndarray

    @property
    def n(self) -> int:
        return self.ensemble.shape[0]

    @property
    def N(self) -> int:
        return self.ensemble.shape[1]


@dataclass
class InnovationRecord:
    """Per-particle innovations y - h(x_j) and their ensemble mean."""

    innovations: np.ndarray
    mean: np.ndarray


def make_initial_state(ensemble: np.ndarray, meas: MeasurementModel,
                       t0: float = 0.0) -> FilterState:
    """Initial FilterState with lagged means taken over the initial ensemble."""
    ensemble = validate_ensemble(ensemble)
    h0 = meas.evaluate(ensemble, t0)
    return FilterState(
        t_curr=t0,
        t_prev=t0,
        ensemble=ensemble,
        prev_state_mean=ensemble.mean(axis=1),
        prev_meas_mean=h0.mean(axis=1),
    )


def ensemble_mean(ens: np.ndarray) -> np.ndarray:
    """Arithmetic mean over particle columns."""
    ens = np.asarray(ens, dtype=float)
    if ens.ndim != 2 or ens.shape[1] < 1:
        raise ValueError("need a 2-d ensemble with at least one column")
    return ens.mean(axis=1)


def innovation_record(y: np.ndarray, h_pred: np.ndarray) -> InnovationRecord:
    """Innovations of a measurement against predicted measurement columns."""
    y = np.asarray(y, dtype=float).reshape(-1)
    innov = y[:, None] - np.asarray(h_pred, dtype=float)
    return InnovationRecord(innovations=innov, mean=innov.mean(axis=1))


def innovation_covariance(h_pred: np.ndarray, h_mean: np.ndarray) -> np.ndarray:
    """Sample covariance of predicted measurements about their mean.

    Returns (1/(N-1)) sum_j (h_j - hbar)(h_j - hbar)^T, symmetric PSD.
    """
    h_pred = np.asarray(h_pred, dtype=float)
    if h_pred.ndim != 2 or h_pred.shape[1] < 2:
        raise ValueError("innovation covariance needs at least 2 columns")
    d = h_pred - np.asarray(h_mean, dtype=float).reshape(-1, 1)
    # a diverging ensemble overflows here; blended_denominator reports it
    with np.errstate(over="ignore", invalid="ignore"):
        S = d @ d.T / (h_pred.shape[1] - 1)
        return 0.5 * (S + S.T)


def blended_denominator(S: np.ndarray, sigma_gram: np.ndarray,
                        alpha: float) -> np.ndarray:
    """alpha * S + (1 - alpha) * sigma^T sigma, symmetric positive definite."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly inside (0, 1)")
    S = np.asarray(S, dtype=float)
    sigma_gram = np.asarray(sigma_gram, dtype=float)
    out = alpha * S + (1.0 - alpha) * sigma_gram
    if not np.isfinite(out).all():
        raise NumericFailure("non-finite blended denominator")
    return 0.5 * (out + out.T)


def compute_gain(pred: np.ndarray, h_pred: np.ndarray, state: FilterState,
                 cfg: FilterConfig, sigma_gram: np.ndarray) -> np.ndarray:
    """Gain matrix of the additive update, shape (n, q).

    ``pred`` is the predicted ensemble, ``h_pred`` its measurement image,
    and ``state`` supplies the previous step's means and the time pair
    ``(state.t_curr, state.t_prev)`` entering the time-weighted products.
    The first factor is evaluated in the expanded, cancellation-free form

        (H - hbar)^T tc + hbar_prev^T (tc - tp),

    algebraically identical to the raw time-difference products.
    """
    pred = np.asarray(pred, dtype=float)
    h_pred = np.asarray(h_pred, dtype=float)
    n, N = pred.shape
    q = h_pred.shape[0]
    if h_pred.shape[1] != N:
        raise ValueError("pred and h_pred disagree on ensemble size")
    if state.prev_state_mean.shape != (n,) or state.prev_meas_mean.shape != (q,):
        raise ValueError("lagged means have wrong dimensions")
    tc, tp = state.t_curr, state.t_prev

    # a diverging ensemble overflows here; the finite checks below report it
    with np.errstate(over="ignore", invalid="ignore"):
        x_mean = pred.mean(axis=1)
        h_mean = h_pred.mean(axis=1)
        Xd = pred - x_mean[:, None]
        Hd = h_pred - h_mean[:, None]

        first = Hd.T * tc + state.prev_meas_mean[None, :] * (tc - tp)
        lag_shift = x_mean * tc - state.prev_state_mean * tp
        numerator = (Xd @ first + np.outer(lag_shift, Hd.sum(axis=1))) / N

    S = innovation_covariance(h_pred, h_mean)
    denom = blended_denominator(S, sigma_gram, cfg.alpha)
    try:
        factor = cho_factor(denom)
    except LinAlgError as err:
        raise NumericFailure("gain denominator is not positive definite",
                             t=tc) from err
    # a non-finite numerator is reported below, not as scipy's ValueError
    gain = cho_solve(factor, numerator.T, check_finite=False).T
    if not np.isfinite(gain).all():
        raise NumericFailure("non-finite gain", t=tc)
    return gain


def additive_update(pred: np.ndarray, gain: np.ndarray, y: np.ndarray,
                    h_pred: np.ndarray) -> np.ndarray:
    """Shift every particle by the gain applied to its own innovation.

    Column j of the result is ``pred[:, j] + G (y - h_pred[:, j])``; there
    is no weighting and no resampling.
    """
    pred = np.asarray(pred, dtype=float)
    gain = np.asarray(gain, dtype=float)
    y = np.asarray(y, dtype=float).reshape(-1)
    h_pred = np.asarray(h_pred, dtype=float)
    if gain.shape != (pred.shape[0], h_pred.shape[0]):
        raise ValueError(f"gain shape {gain.shape} inconsistent with ensembles")
    if h_pred.shape != (y.size, pred.shape[1]):
        raise ValueError("h_pred shape inconsistent with y and pred")
    return pred + gain @ (y[:, None] - h_pred)


def enks_step(state: FilterState, proc: ProcessModel, meas: MeasurementModel,
              y: np.ndarray, cfg: FilterConfig,
              noise: ParticleNoise) -> FilterState:
    """Advance the filter one assimilation step.

    Predict the ensemble over ``cfg.dt``, evaluate the measurement map,
    assemble the gain, apply the additive update, and roll the lagged
    means forward from the *predicted* (pre-update) ensemble.
    """
    y = np.asarray(y, dtype=float).reshape(-1)
    if y.size != meas.q:
        raise ValueError(f"measurement has length {y.size}, expected {meas.q}")
    t_new = state.t_curr + cfg.dt
    try:
        pred = predict_ensemble(proc, state.ensemble, state.t_curr, cfg.dt, noise)
        h_pred = meas.evaluate(pred, t_new)
    except NumericFailure as err:
        raise NumericFailure("prediction failed", t=t_new,
                             particle=err.particle) from err

    if cfg.time_origin == "step":
        gain_state = replace(state, t_curr=cfg.dt, t_prev=0.0)
    else:
        gain_state = replace(state, t_curr=t_new, t_prev=state.t_curr)
    gain = compute_gain(pred, h_pred, gain_state, cfg, meas.sigma_gram)
    updated = additive_update(pred, gain, y, h_pred)
    if not np.isfinite(updated).all():
        raise NumericFailure("non-finite ensemble after update", t=t_new)
    return FilterState(
        t_curr=t_new,
        t_prev=state.t_curr,
        ensemble=updated,
        prev_state_mean=pred.mean(axis=1),
        prev_meas_mean=h_pred.mean(axis=1),
    )
