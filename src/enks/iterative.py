"""Annealed inner-iteration variant of the additive update.

At a fixed measurement time the update is applied repeatedly, each pass
damped by an annealing multiplier beta_k and using a gain re-assembled
from the current iterate.  The lagged means are frozen across inner
iterations; only the outer time step advances them.  One undamped pass
(kappa = 1) reproduces the non-iterative update exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import (FilterConfig, FilterState, additive_update, compute_gain,
                   innovation_record)
from .errors import NumericFailure
from .models import MeasurementModel, ProcessModel
from .rng import ParticleNoise
from .sde import predict_ensemble


@dataclass(frozen=True)
class AnnealingSchedule:
    """Monotone damping multipliers beta_0 <= ... <= beta_{kappa-1} = 1."""

    betas: tuple

    def __post_init__(self):
        betas = tuple(float(b) for b in self.betas)
        if len(betas) < 1:
            raise ValueError("schedule needs at least one multiplier")
        if any(b <= 0 for b in betas):
            raise ValueError("multipliers must be positive")
        if any(b2 < b1 for b1, b2 in zip(betas, betas[1:])):
            raise ValueError("multipliers must be nondecreasing")
        if betas[-1] != 1.0:
            raise ValueError("final multiplier must be exactly 1")
        object.__setattr__(self, "betas", betas)

    @property
    def kappa(self) -> int:
        return len(self.betas)


@dataclass
class IterationTrace:
    """Per-iteration Cauchy residuals and mean innovation norms."""

    residuals: np.ndarray
    innovation_norms: np.ndarray


def make_schedule(kappa: int) -> AnnealingSchedule:
    """Exponential schedule beta_k = exp(k + 1 - kappa), k = 0..kappa-1.

    Strictly increasing toward exactly 1 at the last iteration, so early
    passes are heavily damped and the final pass applies the full update.
    """
    if kappa < 1:
        raise ValueError("kappa must be >= 1")
    return AnnealingSchedule(betas=tuple(np.exp(k + 1 - kappa) for k in range(kappa)))


def iterative_gain(ens_k: np.ndarray, h_k: np.ndarray, state: FilterState,
                   cfg: FilterConfig, sigma_gram: np.ndarray) -> np.ndarray:
    """Gain of inner iteration k: the standard gain on the current iterate.

    Identical formula to :func:`enks.core.compute_gain` with the iterate
    ensemble and its measurement image in place of the predicted ones;
    the lagged means inside ``state`` stay fixed across iterations.
    """
    return compute_gain(ens_k, h_k, state, cfg, sigma_gram)


def iterate_update(pred: np.ndarray, state: FilterState, y: np.ndarray,
                   schedule: AnnealingSchedule, meas: MeasurementModel,
                   cfg: FilterConfig, t_eval: float | None = None
                   ) -> tuple[np.ndarray, IterationTrace]:
    """Run kappa damped additive passes at the current measurement time.

    Each pass re-evaluates the measurement map on the current iterate,
    re-assembles the gain, and applies ``beta_k G (y - h_j)`` per
    particle.  All kappa passes always run; the returned trace records
    the Frobenius residual between consecutive iterates and the mean
    innovation norm per pass.  ``t_eval`` is the physical time the
    measurement map is evaluated at; it defaults to ``state.t_curr``.
    """
    y = np.asarray(y, dtype=float).reshape(-1)
    ens = np.asarray(pred, dtype=float)
    if t_eval is None:
        t_eval = state.t_curr
    residuals = np.empty(schedule.kappa)
    innov_norms = np.empty(schedule.kappa)
    for k, beta in enumerate(schedule.betas):
        h_k = meas.evaluate(ens, t_eval)
        gain = iterative_gain(ens, h_k, state, cfg, meas.sigma_gram)
        new = additive_update(ens, beta * gain, y, h_k)
        if not np.isfinite(new).all():
            raise NumericFailure("non-finite iterate", t=t_eval, step=k)
        residuals[k] = np.linalg.norm(new - ens)
        innov_norms[k] = np.linalg.norm(innovation_record(y, h_k).mean)
        ens = new
    return ens, IterationTrace(residuals=residuals, innovation_norms=innov_norms)


def iterative_enks_step(state: FilterState, proc: ProcessModel,
                        meas: MeasurementModel, y: np.ndarray,
                        cfg: FilterConfig, noise: ParticleNoise,
                        schedule: AnnealingSchedule) -> tuple[FilterState, IterationTrace]:
    """One assimilation step with the annealed inner-iteration update."""
    y = np.asarray(y, dtype=float).reshape(-1)
    if y.size != meas.q:
        raise ValueError(f"measurement has length {y.size}, expected {meas.q}")
    t_new = state.t_curr + cfg.dt
    pred = predict_ensemble(proc, state.ensemble, state.t_curr, cfg.dt, noise)
    h_pred = meas.evaluate(pred, t_new)

    if cfg.time_origin == "step":
        gain_state = replace(state, t_curr=cfg.dt, t_prev=0.0)
    else:
        gain_state = replace(state, t_curr=t_new, t_prev=state.t_curr)
    updated, trace = iterate_update(pred, gain_state, y, schedule, meas, cfg,
                                    t_eval=t_new)
    new_state = FilterState(
        t_curr=t_new,
        t_prev=state.t_curr,
        ensemble=updated,
        prev_state_mean=pred.mean(axis=1),
        prev_meas_mean=h_pred.mean(axis=1),
    )
    return new_state, trace
