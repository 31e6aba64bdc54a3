"""Annealed inner-iteration variant of the additive update.

At a fixed measurement time the update is applied repeatedly, each pass
damped by an annealing multiplier beta_k and using a gain re-assembled
from the current iterate.  The gain's time ``tc = dt`` and noise term are
those of the outer step for every pass; only the iterate and its
measurement image change.  One undamped pass (kappa = 1) reproduces the
non-iterative update exactly.

When the measurement map is linear (``MeasurementModel.linear``), each
pass's moments follow exactly from the previous pass's small matrices,
so the passes run on ``(n, q)`` and ``(q, q)`` arrays and the step is
one additive update of the prediction with the summed step gain: the
map is evaluated once per step and the ensemble updated once.  Every
pass's matrices are then functions of one symmetric ``(q, q)`` matrix,
the measured moment whitened by the first denominator, so one
eigendecomposition of it gives all kappa passes in closed form, as a
recursion on q numbers run on Python floats, and the step gain as one
product in that basis, with no solve: :func:`enks.core.step_gain`, the
rule the other filters and the large-N oracles use too.  Other maps, and
one undamped pass, run the passes on the iterate itself, each pass one
:func:`enks.core.additive_update` of the one before, from the prediction.

The per-pass trace (increment and mean-innovation norms) is computed only
on request: ``trace=True`` here, ``collect_traces`` in
:func:`enks.harness.run_filter_series`.  Without it a pass does only the
arithmetic of its update.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (FilterConfig, FilterState, additive_update,
                   analysis_moments, compute_gain, forecast, gain_weights,
                   matmul, step_gain)
from .models import MeasurementModel, ProcessModel, require_finite
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

    ``h_pred`` is the measurement image of ``pred`` at ``t``.  ``state``
    supplies the gain's noise term.  Pass k re-assembles the gain ``G_k``
    from the current iterate and applies ``beta_k G_k (y - h_j)`` per
    particle.  All kappa passes always run.  With ``trace`` set, the
    returned trace records, per pass, the Frobenius norm of that increment
    (the residual between consecutive iterates) and the norm of the mean
    innovation; without it neither is computed and the trace is None.

    When ``meas.linear`` is set and kappa >= 2 the passes run on moments
    (:func:`_linear_passes`): one eigendecomposition gives every pass,
    and the result is one additive update of ``pred``.  Otherwise every
    pass is one :func:`enks.core.additive_update` of the iterate, starting
    from ``pred``, with the damped gain ``beta_k G_k``, and each later
    pass re-evaluates the measurement map at ``t`` on its new iterate;
    with kappa = 1 that is :func:`enks.core.enks_step`'s gain and update,
    bit for bit.  Either way neither ``pred`` nor ``h_pred`` changes.
    """
    y = np.asarray(y, dtype=float).reshape(-1)
    pred = np.asarray(pred, dtype=float)
    h_k = np.asarray(h_pred, dtype=float)
    record = (IterationTrace(residuals=np.empty(schedule.kappa),
                             innovation_norms=np.empty(schedule.kappa))
              if trace else None)
    if meas.linear and schedule.kappa > 1:
        ens = _linear_passes(pred, h_k, state, y, schedule, cfg, record)
        require_finite(ens, "non-finite iterate")
        return ens, record
    ens = pred
    for k, beta in enumerate(schedule.betas):
        if k:
            h_k = meas.evaluate(ens, t)
        gain = beta * compute_gain(ens, h_k, cfg, state.noise_term)
        if record is not None:
            innov = y[:, None] - h_k
            record.residuals[k] = np.linalg.norm(matmul(gain, innov))
            record.innovation_norms[k] = np.linalg.norm(innov.mean(axis=1))
        ens = additive_update(ens, gain, y, h_k)
        require_finite(ens, "non-finite iterate")
    return ens, record


def _linear_passes(pred: np.ndarray, h_pred: np.ndarray, state: FilterState,
                   y: np.ndarray, schedule: AnnealingSchedule,
                   cfg: FilterConfig,
                   record: IterationTrace | None) -> np.ndarray:
    """The passes of :func:`iterate_update` for a linear measurement map
    and kappa >= 2.

    With ``h`` linear, ``h(X_k)`` of every iterate follows from
    ``h(pred)``, so every pass is (n, q) and (q, q) algebra on the moments
    of ``pred`` and ``h_pred`` (:func:`enks.core.analysis_moments`), and
    the last iterate is one additive update ``pred + B (y - h(pred))``
    with the step gain ``B`` of :func:`enks.core.step_gain`, which
    derives it.  In that derivation's notation, pass k's trace is the norm
    of ``cross W diag(f_k) W^T (y - h(pred))``, and that of ``U diag(e_k)
    W^T`` applied to the mean innovation.
    """
    scale, weight = gain_weights(cfg, pred.shape[1])
    # a diverging ensemble overflows here; the factor's and B's finite
    # checks report it
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        cross, hh = analysis_moments(pred, h_pred)
        passes = None if record is None else []
        B = step_gain(cross, hh, state.noise_term, scale, weight,
                      schedule.betas, _trace=passes)
    if record is not None:
        (W, U, f, e), = passes
        innov = y[:, None] - h_pred
        cross_W, W_innov = cross @ W, W.T @ innov
        W_mean = W.T @ innov.mean(axis=1)
        for k in range(schedule.kappa):
            record.residuals[k] = np.linalg.norm((cross_W * f[k]) @ W_innov)
            record.innovation_norms[k] = np.linalg.norm(U @ (e[k] * W_mean))
    return additive_update(pred, B, y, h_pred)


def iterative_enks_step(state: FilterState, proc: ProcessModel,
                        meas: MeasurementModel, y: np.ndarray,
                        cfg: FilterConfig, noise: ParticleNoise,
                        schedule: AnnealingSchedule, trace: bool = False,
                        consume: bool = False
                        ) -> tuple[FilterState, IterationTrace | None]:
    """One assimilation step with the annealed inner-iteration update;
    it starts from :func:`enks.core.forecast`, in place over the state's
    ensemble with ``consume``.  The step's trace is computed only when
    ``trace`` is set, and is None otherwise."""
    y, t_new, pred, h_pred = forecast(state, proc, meas, y, cfg.dt, noise,
                                      consume)
    updated, record = iterate_update(pred, h_pred, state, y, schedule, meas,
                                     cfg, t_new, trace=trace)
    return FilterState(t_new, updated, state.noise_term), record
