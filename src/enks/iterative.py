"""Annealed inner-iteration variant of the additive update.

At a fixed measurement time the update is applied repeatedly, each pass
damped by an annealing multiplier beta_k and using a gain re-assembled
from the current iterate.  The gain's time ``tc = dt`` and noise term are
those of the outer step for every pass; only the iterate and its
measurement image change.  One undamped pass (kappa = 1) reproduces the
non-iterative update exactly.

The per-pass trace (increment and mean-innovation norms) is computed only
on request: ``trace=True`` here, ``collect_traces`` in
:func:`enks.harness.run_filter_series`.  Without it a pass does only the
arithmetic of its update.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import FilterConfig, FilterState, compute_gain, forecast
from .errors import NumericFailure
from .models import MeasurementModel, ProcessModel, all_finite
from .rng import ParticleNoise


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
                   meas: MeasurementModel, cfg: FilterConfig, t: float,
                   trace: bool = False
                   ) -> tuple[np.ndarray, IterationTrace | None]:
    """Run kappa damped additive passes at the measurement time ``t``.

    ``h_pred`` is the measurement image of ``pred`` at ``t``, which the
    first pass uses; each later pass re-evaluates the measurement map at
    ``t`` on the current iterate.  ``state`` supplies the gain's noise
    term.  Every pass re-assembles the gain and applies ``beta_k G (y -
    h_j)`` per particle.  All kappa passes always run.  With ``trace``
    set, the returned trace records, per pass, the Frobenius norm of that
    increment (the residual between consecutive iterates) and the norm of
    the mean innovation; without it neither is computed and the trace is
    None.

    The iterate is one copy of ``pred``, updated in place by every pass.
    Each pass centres it into ``state.work[1]`` (a new array when that
    does not have the shape of ``pred``) and then forms its increment
    there, so neither ``pred`` nor ``h_pred`` changes.
    """
    y = np.asarray(y, dtype=float).reshape(-1)
    ens = np.array(pred, dtype=float)
    h_k = np.asarray(h_pred, dtype=float)
    record = (IterationTrace(residuals=np.empty(schedule.kappa),
                             innovation_norms=np.empty(schedule.kappa))
              if trace else None)
    innov = np.empty_like(h_k)
    work = (state.work[1] if state.work.shape[1:] == ens.shape
            else np.empty_like(ens))
    for k, beta in enumerate(schedule.betas):
        if k:
            h_k = meas.evaluate(ens, t)
        gain = compute_gain(ens, h_k, cfg, state.noise_term, work)
        np.subtract(y[:, None], h_k, out=innov)
        incr = np.matmul(beta * gain, innov, out=work)
        ens += incr
        if not all_finite(ens):
            raise NumericFailure("non-finite iterate")
        if record is not None:
            record.residuals[k] = np.linalg.norm(incr)
            record.innovation_norms[k] = np.linalg.norm(innov.mean(axis=1))
    return ens, record


def iterative_enks_step(state: FilterState, proc: ProcessModel,
                        meas: MeasurementModel, y: np.ndarray,
                        cfg: FilterConfig, noise: ParticleNoise,
                        schedule: AnnealingSchedule, trace: bool = False
                        ) -> tuple[FilterState, IterationTrace | None]:
    """One assimilation step with the annealed inner-iteration update;
    it starts from :func:`enks.core.forecast`.  The step's trace is
    computed only when ``trace`` is set, and is None otherwise."""
    y, t_new, pred, h_pred = forecast(state, proc, meas, y, cfg.dt, noise)
    updated, record = iterate_update(pred, h_pred, state, y, schedule, meas,
                                     cfg, t_new, trace=trace)
    return replace(state, t_curr=t_new, ensemble=updated), record
