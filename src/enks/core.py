"""Non-iterative ensemble Kushner-Stratonovich (EnKS) filter step.

The filter alternates Euler-Maruyama prediction of the particle ensemble
with a strictly additive, weight-free update: every particle is shifted
by a shared gain matrix applied to its own innovation,

    x_j  <-  x_j + G (y - h(x_j)).

With ``Xd = X - xbar`` and ``Hd = H - hbar`` the predicted ensemble and
its measurement image centred on their means, the gain is

    G = (tc / N) Xd Hd^T [ alpha/(N-1) Hd Hd^T + (1 - alpha) sigma^T sigma ]^{-1},

whose denominator blends the innovation sample covariance with the scaled
measurement-noise intensity through ``alpha``.  The gain as the paper
writes it adds two terms built from the previous step's means and time
``tp``: ``hbar_prev^T (tc - tp)`` inside the cross product and
``(xbar tc - xbar_prev tp) 1^T Hd^T``.  Both vanish exactly, because each
multiplies a zero-sum quantity: ``Xd 1 = 0`` and ``Hd 1 = 0``.  What is
left has the shape of the ensemble Kalman-Bucy gain ``C_xh (nu nu^T)^{-1}
dt`` (Bergemann & Reich 2012), and :func:`analysis_gain` computes it for
this filter, its iterative form and the perturbed-observation EnKF.

Time origin
-----------
With ``time_origin="absolute"`` the gain uses the running time ``tc =
t_i``, making its norm grow linearly with elapsed time; empirically the
update then over-amplifies ensemble spread once ``t > 2 * alpha`` and
every long benchmark diverges.  The default ``time_origin="step"``
restarts the clock at each assimilation interval, ``tc = dt``, which
keeps the gain bounded; all shipped experiments use it.

Dense solves go through numpy's own LAPACK (``spd_solve``): a step then
runs all its BLAS work in one library and one thread pool.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import NumericFailure
from .models import MeasurementModel, ProcessModel, validate_ensemble
from .rng import ParticleNoise
from .sde import predict_ensemble

# NumericFailure messages of the EnKS gain: non-finite denominator,
# denominator not positive definite, non-finite gain
GAIN_FAILURES = ("non-finite blended denominator",
                 "gain denominator is not positive definite",
                 "non-finite gain")


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
    time_origin : str
        "step" (default) or "absolute"; see module docstring.
    """

    N: int
    dt: float
    alpha: float = 0.8
    seed: int = 0
    time_origin: str = "step"

    def __post_init__(self):
        if self.N < 2:
            raise ValueError("N must be >= 2")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie strictly inside (0, 1)")
        if self.time_origin not in ("step", "absolute"):
            raise ValueError("time_origin must be 'step' or 'absolute'")

    def gain_time(self, t_new: float) -> float:
        """The gain's ``tc`` for a step ending at ``t_new``: ``dt`` or ``t_new``."""
        return self.dt if self.time_origin == "step" else t_new


@dataclass
class FilterState:
    """Ensemble at time ``t_curr`` plus the gain's constant noise term.

    ``noise_term`` is ``(1 - alpha) sigma^T sigma``, the part of the gain
    denominator that does not depend on the ensemble; it is formed once
    per run by :func:`make_initial_state` and carried from step to step.
    """

    t_curr: float
    ensemble: np.ndarray
    noise_term: np.ndarray

    @property
    def n(self) -> int:
        return self.ensemble.shape[0]

    @property
    def N(self) -> int:
        return self.ensemble.shape[1]


def make_initial_state(ensemble: np.ndarray, meas: MeasurementModel,
                       cfg: FilterConfig, t0: float = 0.0) -> FilterState:
    """Initial FilterState, with the noise term of ``meas`` and ``cfg.alpha``."""
    return FilterState(t_curr=t0, ensemble=validate_ensemble(ensemble),
                       noise_term=(1.0 - cfg.alpha) * meas.sigma_gram)


def spd_solve(A: np.ndarray, B: np.ndarray, message: str,
              t: float | None = None) -> np.ndarray:
    """Solve ``A X = B`` for symmetric positive definite ``A``.

    The Cholesky factorization checks that ``A`` is positive definite; an
    ``A`` that is not raises ``NumericFailure(message, t=t)``.  The system
    is then solved in one LU solve: numpy has no triangular solver, so
    solving on the factor would take two.  A non-finite ``B`` yields a
    non-finite ``X`` without a warning; callers check the result.
    """
    try:
        np.linalg.cholesky(A)
    except np.linalg.LinAlgError as err:
        raise NumericFailure(message, t=t) from err
    return np.linalg.solve(A, B)


def analysis_gain(pred: np.ndarray, h_pred: np.ndarray, scale: float,
                  weight: float, noise_term: np.ndarray, failures: tuple,
                  t: float | None = None) -> np.ndarray:
    """Gain ``scale Xd Hd^T (weight Hd Hd^T + noise_term)^{-1}``, shape (n, q).

    ``Xd`` and ``Hd`` are ``pred`` and ``h_pred`` centred on their
    ensemble means.  Every filter's analysis runs through this kernel: the
    EnKS with ``(tc/N, alpha/(N-1), (1-alpha) sigma^T sigma)`` and the
    perturbed-observation EnKF with ``(1/(N-1), 1/(N-1), R)``.
    ``failures`` holds the ``NumericFailure`` messages for a non-finite
    denominator, a denominator that is not positive definite and a
    non-finite gain; the last two carry ``t``.
    """
    pred = np.asarray(pred, dtype=float)
    h_pred = np.asarray(h_pred, dtype=float)
    if h_pred.shape[1] != pred.shape[1]:
        raise ValueError("pred and h_pred disagree on ensemble size")
    non_finite_denom, not_definite, non_finite_gain = failures
    # a diverging ensemble overflows here; the finite checks below report it
    with np.errstate(over="ignore", invalid="ignore"):
        Xd = pred - pred.mean(axis=1, keepdims=True)
        Hd = h_pred - h_pred.mean(axis=1, keepdims=True)
        cross = Xd @ Hd.T
        denom = weight * (Hd @ Hd.T) + noise_term
    if not np.isfinite(denom).all():
        raise NumericFailure(non_finite_denom)
    gain = scale * spd_solve(denom, cross.T, not_definite, t=t).T
    if not np.isfinite(gain).all():
        raise NumericFailure(non_finite_gain, t=t)
    return gain


def compute_gain(pred: np.ndarray, h_pred: np.ndarray, tc: float,
                 cfg: FilterConfig, noise_term: np.ndarray) -> np.ndarray:
    """EnKS gain of the additive update, shape (n, q).

    ``pred`` is the predicted ensemble (or an inner iterate), ``h_pred``
    its measurement image, ``tc`` the gain's time (``cfg.gain_time``) and
    ``noise_term`` the run's ``(1 - alpha) sigma^T sigma``:

        G = (tc / N) Xd Hd^T [ alpha/(N-1) Hd Hd^T + noise_term ]^{-1}.

    This is the paper's gain exactly: its lagged-mean terms multiply
    ``Xd 1`` and ``Hd 1``, which are zero (module docstring).
    """
    N = np.shape(pred)[1]
    if N < 2:
        raise ValueError("the gain needs at least 2 particles")
    return analysis_gain(pred, h_pred, tc / N, cfg.alpha / (N - 1),
                         noise_term, GAIN_FAILURES, t=tc)


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
    assemble the gain and apply the additive update.
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

    gain = compute_gain(pred, h_pred, cfg.gain_time(t_new), cfg,
                        state.noise_term)
    updated = additive_update(pred, gain, y, h_pred)
    if not np.isfinite(updated).all():
        raise NumericFailure("non-finite ensemble after update", t=t_new)
    return replace(state, t_curr=t_new, ensemble=updated)
