"""Annealed inner-iteration variant of the additive update.

At a fixed measurement time the update is applied repeatedly, each pass
damped by an annealing multiplier beta_k and using a gain re-assembled
from the current iterate.  The gain's time ``tc`` and noise term are
those of the outer step for every pass; only the iterate and its
measurement image change.  One undamped pass (kappa = 1) reproduces the
non-iterative update exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import FilterConfig, FilterState, compute_gain
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


def iterate_update(pred: np.ndarray, h_pred: np.ndarray, state: FilterState,
                   y: np.ndarray, schedule: AnnealingSchedule,
                   meas: MeasurementModel, cfg: FilterConfig,
                   t_eval: float | None = None
                   ) -> tuple[np.ndarray, IterationTrace]:
    """Run kappa damped additive passes at the current measurement time.

    ``h_pred`` is the measurement image of ``pred`` at ``t_eval``, which
    the first pass uses; each later pass re-evaluates the measurement map
    on the current iterate.  ``state`` supplies the gain's time
    (``state.t_curr``) and noise term.  Every pass re-assembles the gain
    and applies ``beta_k G (y - h_j)`` per particle.  All kappa passes
    always run; the returned trace records, per pass, the Frobenius norm
    of that increment (the residual between consecutive iterates) and the
    norm of the mean innovation.  ``t_eval`` is the physical time the
    measurement map is evaluated at; it defaults to ``state.t_curr``.
    """
    y = np.asarray(y, dtype=float).reshape(-1)
    ens = np.asarray(pred, dtype=float)
    if t_eval is None:
        t_eval = state.t_curr
    residuals = np.empty(schedule.kappa)
    innov_norms = np.empty(schedule.kappa)
    h_k = h_pred
    for k, beta in enumerate(schedule.betas):
        if k:
            h_k = meas.evaluate(ens, t_eval)
        gain = compute_gain(ens, h_k, state.t_curr, cfg, state.noise_term)
        innov = y[:, None] - h_k
        incr = (beta * gain) @ innov
        new = ens + incr
        if not np.isfinite(new).all():
            raise NumericFailure("non-finite iterate", t=t_eval, step=k)
        residuals[k] = np.linalg.norm(incr)
        innov_norms[k] = np.linalg.norm(innov.mean(axis=1))
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

    gain_state = replace(state, t_curr=cfg.gain_time(t_new))
    updated, trace = iterate_update(pred, h_pred, gain_state, y, schedule,
                                    meas, cfg, t_eval=t_new)
    return replace(state, t_curr=t_new, ensemble=updated), trace
