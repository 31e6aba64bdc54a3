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
product in that basis, with no solve.  Other maps, and one undamped pass,
run the passes on the iterate itself.

The per-pass trace (increment and mean-innovation norms) is computed only
on request: ``trace=True`` here, ``collect_traces`` in
:func:`enks.harness.run_filter_series`.  Without it a pass does only the
arithmetic of its update.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (GAIN_FAILURES, FilterConfig, FilterState,
                   additive_update, analysis_moments, compute_gain,
                   factor_denominator, forecast, gain_weights, matmul,
                   whitened_spectrum)
from .errors import NumericFailure
from .models import (MeasurementModel, ProcessModel, all_finite,
                     require_finite)
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
    and the result is one additive update of ``pred``.  Otherwise the
    iterate is one copy of ``pred``, updated in place by every pass, and
    each later pass re-evaluates the measurement map at ``t`` on it; with
    kappa = 1 that is :func:`enks.core.enks_step`'s gain and update, bit
    for bit.  Either way neither ``pred`` nor ``h_pred`` changes.
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
    ens = pred.copy()
    innov = np.empty_like(h_k)
    for k, beta in enumerate(schedule.betas):
        if k:
            h_k = meas.evaluate(ens, t)
        gain = compute_gain(ens, h_k, cfg, state.noise_term)
        np.subtract(y[:, None], h_k, out=innov)
        incr = matmul(beta * gain, innov)
        ens += incr
        require_finite(ens, "non-finite iterate")
        if record is not None:
            record.residuals[k] = np.linalg.norm(incr)
            record.innovation_norms[k] = np.linalg.norm(innov.mean(axis=1))
    return ens, record


def _linear_passes(pred: np.ndarray, h_pred: np.ndarray, state: FilterState,
                   y: np.ndarray, schedule: AnnealingSchedule,
                   cfg: FilterConfig,
                   record: IterationTrace | None) -> np.ndarray:
    """The passes of :func:`iterate_update` for a linear measurement map
    and kappa >= 2.

    With ``h`` linear, ``h(X_k)`` of every iterate follows from
    ``h(pred)``, so every pass is (n, q) and (q, q) algebra on the moments
    ``cross_k = Xd_k Hd_k^T`` and ``C_k = Hd_k Hd_k^T``, formed once from
    ``pred`` and ``h_pred``.  With ``s = tc/N``, ``w = alpha/(N-1)``,
    ``R0`` the noise term, ``A_k = beta_k G_k`` pass k's damped gain,
    ``D_k = w C_k + R0`` its denominator, ``K_k = h(A_k) = beta_k s C_k
    D_k^{-1}`` and ``E_k = I - K_k``:

        cross_{k+1} = (cross_k - A_k C_k) E_k^T = cross_k E_k^T E_k^T,
        C_{k+1} = E_k C_k E_k^T,

    since ``A_k C_k = cross_k K_k^T``.  So ``cross_k = cross_0 P_k`` with
    ``P_0 = I``, ``P_{k+1} = P_k E_k^T E_k^T``.  Pass k's innovations are
    ``Q_k (y - h(pred))``, ``Q_0 = I``, ``Q_{k+1} = E_k Q_k``, so the last
    iterate is one additive update ``pred + B (y - h(pred))`` with the
    step gain ``B = sum_k A_k Q_k``, ``A_k Q_k = beta_k s cross_0 P_k
    D_k^{-1} Q_k``.

    Every pass is diagonal in one basis.  Factor ``D_0 = L L^T``, invert
    ``L`` (:func:`enks.core.factor_denominator`) and diagonalize ``L^{-1}
    C_0 L^{-T} = V diag(mu_0) V^T`` (:func:`enks.core.whitened_spectrum`);
    with ``W = L^{-T} V`` and ``U = L V = D_0 W``, ``U W^T = W^T U = I``,
    ``C_0 = U diag(mu_0) U^T`` and ``R0 = U diag(r) U^T``, ``r = 1 - w
    mu_0``.  If ``C_k = U diag(mu_k) U^T``, then ``D_k = U diag(d_k)
    U^T`` and ``D_k^{-1} = W diag(1/d_k) W^T`` with ``d_k = w mu_k + r``,
    ``K_k = U diag(beta_k s mu_k / d_k) W^T`` and ``E_k = U diag(eps_k)
    W^T``, ``eps_k = 1 - beta_k s mu_k / d_k``, so ``C_{k+1}`` is diagonal
    too, with ``mu_{k+1} = eps_k^2 mu_k``.  With ``e_k = prod_{j<k} eps_j``:

        P_k = W diag(e_k^2) U^T,   Q_k = U diag(e_k) W^T,
        P_k D_k^{-1} Q_k = W diag(e_k^3 / d_k) W^T,

    and ``B = cross_0 W diag(Phi) W^T``, ``Phi = sum_k beta_k s e_k^3 /
    d_k`` over all kappa passes.  The passes are this recursion on q
    numbers (:func:`_pass_weights`); ``mu`` and ``r`` are clipped at 0,
    so that rounding cannot make a ``d_k`` negative.  The factor of
    ``D_0`` is the first pass's positive-definiteness check, with its
    failures; a ``d_k`` of 0 is a later denominator that is not positive
    definite, and a non-finite ``B`` a non-finite gain.  Pass k's trace
    is the norm of ``cross_0 W diag(f_k) W^T (y - h(pred))``, ``f_k =
    beta_k s e_k^3 / d_k``, and that of ``U diag(e_k) W^T`` applied to
    the mean innovation.
    """
    scale, weight = gain_weights(cfg, pred.shape[1])
    # a diverging ensemble overflows here; the factor's and B's finite
    # checks report it
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        cross, hh = analysis_moments(pred, h_pred)
        denom, inverse = factor_denominator(hh, weight, state.noise_term,
                                            GAIN_FAILURES)
        mu, W = whitened_spectrum(hh, inverse)
        try:
            phi, f, e = _pass_weights(mu, schedule.betas, scale, weight,
                                      record is not None)
        except ZeroDivisionError:
            raise NumericFailure(GAIN_FAILURES[1]) from None
        B = cross @ ((W * phi) @ W.T)
        if not all_finite(B):
            raise NumericFailure(GAIN_FAILURES[2])
        if record is not None:
            innov = y[:, None] - h_pred
            cross_W, W_innov = cross @ W, W.T @ innov
            U, W_mean = denom @ W, W.T @ innov.mean(axis=1)
            for k in range(schedule.kappa):
                record.residuals[k] = np.linalg.norm(
                    (cross_W * f[k]) @ W_innov)
                record.innovation_norms[k] = np.linalg.norm(
                    U @ (e[k] * W_mean))
    return additive_update(pred, B, y, h_pred)


def _pass_weights(mu: np.ndarray, betas: tuple, scale: float, weight: float,
                  trace: bool
                  ) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
    """``Phi`` of :func:`_linear_passes` from the whitened spectrum ``mu``,
    and with ``trace`` each pass's ``f_k`` and ``e_k``, shape (kappa, q).

    The q directions are independent and the passes sequential, so the
    recursion runs on Python floats, one direction at a time: on q
    numbers a numpy call costs more than its arithmetic.  ``mu`` and ``r
    = 1 - weight mu`` are clipped at 0, and NaNs pass through.  A ``d_k``
    of 0 raises ``ZeroDivisionError``.
    """
    phi, per_pass = [], []
    steps = [beta * scale for beta in betas]  # beta_k s
    for m in mu.tolist():
        m = max(m, 0.0)
        r = max(1.0 - weight * m, 0.0)
        e, total = 1.0, 0.0
        for step in steps:
            damp = step / (weight * m + r)  # beta_k s / d_k
            f = damp * (e * e * e)
            total += f
            if trace:
                per_pass.append((f, e))
            eps = 1.0 - damp * m
            m *= eps * eps
            e *= eps
        phi.append(total)
    if not trace:
        return np.array(phi), None, None
    f, e = np.array(per_pass).reshape(len(phi), len(betas), 2).T
    return np.array(phi), f, e


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
