"""Non-iterative ensemble Kushner-Stratonovich (EnKS) filter step.

The filter alternates Euler-Maruyama prediction of the particle ensemble
with a strictly additive, weight-free update: every particle is shifted
by a shared gain matrix applied to its own innovation,

    x_j  <-  x_j + G (y - h(x_j)).

:func:`additive_update` is that update, and the only one in the package:
the iterative form's step gain and passes and the perturbed-observation
EnKF (:mod:`enks.enkf`, one observation per particle) go through it too.

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
this filter, its iterative form and the perturbed-observation EnKF: the
ensemble moments ``X Hd^T`` and ``Hd Hd^T`` (:func:`analysis_moments`),
then the step gain of :func:`step_gain`, one Cholesky factor ``L`` of the
denominator ``D`` and its inverse, and ``D^{-1} = L^{-T} L^{-1}`` applied
as two products: no solve.  Since ``Hd 1 = 0``, ``X Hd^T = Xd Hd^T``
exactly, so the state ensemble is never centred.  In floating point the
uncentred product rounds relative to the rows' means rather than their
spreads: a row whose mean is 10^k times its spread loses about k digits
in the cross moment.  :func:`step_gain` is the one rule from moments to
a gain: the iterative form on a linear map hands it the same moments and
its damping multipliers, and it whitens the measured moment by the
factor's inverse and forms the passes' step gain in that basis; the
exact large-N oracles of :mod:`enks.benchmarks` hand it exact moments.

The gain's time is the assimilation step, ``tc = dt``, at every step.

Dense factorizations call numpy's own LAPACK gufuncs ``cholesky_lo``,
``inv`` and, for the whitening, ``eigh_lo`` of
``numpy.linalg._umath_linalg``: the bits of ``np.linalg.cholesky``,
``inv`` and ``eigh`` without their Python wrappers.  A step then runs all
its BLAS work in one library, which the run loop
(:func:`enks.harness.run_filter_series`) keeps on one thread.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import NumericFailure
from .models import (MeasurementModel, ProcessModel, all_finite,
                     require_finite, validate_ensemble)
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
    dt : float
        Assimilation step, strictly positive.
    alpha : float
        Denominator blend weight in (0, 1); 0.8 is the customary value.
    seed : int
        Base seed for all streams of the run.
    """

    dt: float
    alpha: float = 0.8
    seed: int = 0

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie strictly inside (0, 1)")


@dataclass
class FilterState:
    """Ensemble at time ``t_curr`` plus the gain's constant noise term.

    ``noise_term`` is the part of the :func:`analysis_gain` denominator
    that does not depend on the ensemble: ``(1 - alpha) sigma^T sigma``
    for the EnKS filters (formed by :func:`make_initial_state`) and ``R``
    for the EnKF.  It is formed once per run and carried from step to step.
    A step leaves its state as it is, unless its caller lets it consume
    the ensemble (:func:`forecast`).
    """

    t_curr: float
    ensemble: np.ndarray
    noise_term: np.ndarray


def make_initial_state(ensemble: np.ndarray, meas: MeasurementModel,
                       cfg: FilterConfig) -> FilterState:
    """Initial FilterState at time 0, with the noise term of ``meas`` and
    ``cfg.alpha``."""
    return FilterState(t_curr=0.0, ensemble=validate_ensemble(ensemble),
                       noise_term=(1.0 - cfg.alpha) * meas.sigma_gram)


def row_mean(x: np.ndarray) -> np.ndarray:
    """Mean of each row of a 2-D array, shape (rows, 1).

    The reduction and division ``x.mean(axis=1, keepdims=True)`` runs,
    with the same bits, without the Python wrapper around them.
    """
    return np.add.reduce(x, axis=1, keepdims=True) / x.shape[1]


def row_moments(x: np.ndarray, work: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray]:
    """Row means and ``ddof=1`` standard deviations of ``x``, each (rows,).

    The bits of ``x.mean(axis=1)`` and ``x.std(axis=1, ddof=1)``, from one
    mean: the deviations are formed and squared in ``work``, an array of
    the shape of ``x`` that does not alias it.  Finite entries whose sum
    or squared deviation overflows (above about 1e154) raise
    ``NumericFailure("ensemble moments overflow")`` rather than a numpy
    warning or an infinite std.
    """
    try:
        with np.errstate(over="raise"):
            mean = row_mean(x)
            dev = np.subtract(x, mean, out=work)
            np.multiply(dev, dev, out=dev)
            var = np.add.reduce(dev, axis=1) / (x.shape[1] - 1)
    except FloatingPointError:
        raise NumericFailure("ensemble moments overflow") from None
    return mean[:, 0], np.sqrt(var, out=var)


def analysis_moments(pred: np.ndarray, h_pred: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray]:
    """The analysis's ensemble moments ``(X Hd^T, Hd Hd^T)``, (n, q) and (q, q).

    ``X`` is ``pred`` and ``Hd`` is ``h_pred`` centred on its ensemble
    mean.  ``Hd 1 = 0``, so ``X Hd^T`` is the centred ``Xd Hd^T`` in exact
    arithmetic, and ``pred`` is read, never centred or copied.  Its
    rounding scales with the rows' means rather than their spreads: a row
    whose mean is 10^k times its spread loses about k digits of the
    centred product.  An ensemble whose measurements do not spread (``Hd
    = 0``) gives moments of exactly zero.  It runs under its caller's
    ``np.errstate(over="ignore", invalid="ignore", divide="ignore")``: a
    diverging ensemble overflows here, and the gain's finite checks
    report it.
    """
    pred = np.asarray(pred, dtype=float)
    h_pred = np.asarray(h_pred, dtype=float)
    if h_pred.shape[1] != pred.shape[1]:
        raise ValueError("pred and h_pred disagree on ensemble size")
    Hd = h_pred - row_mean(h_pred)
    return pred @ Hd.T, Hd @ Hd.T


def factor_denominator(hh: np.ndarray, weight: float, noise_term: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray]:
    """The denominator ``D = weight hh + noise_term`` and ``L^{-1}``, the
    inverse of its lower Cholesky factor ``L``.

    ``L`` is numpy's LAPACK gufunc ``cholesky_lo``, which leaves a NaN
    factor when ``D`` is not positive definite; ``D`` is checked for
    finiteness only then, to name the first or second of
    ``GAIN_FAILURES``.  ``L^{-1}`` is the gufunc ``inv``, so that
    ``D^{-1} = L^{-T} L^{-1}``.  It runs under the caller's ``errstate``.
    """
    denom = weight * hh + noise_term
    factor = _umath_linalg.cholesky_lo(denom)
    if not all_finite(factor):
        raise NumericFailure(GAIN_FAILURES[1 if all_finite(denom) else 0])
    return denom, _umath_linalg.inv(factor)


def whitened_spectrum(hh: np.ndarray, inverse: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of ``hh`` whitened by a lower factor ``L``: ``(mu, W)``.

    ``inverse`` is ``L^{-1}`` (:func:`factor_denominator`).  ``L^{-1} hh
    L^{-T} = V diag(mu) V^T`` is one symmetric eigensolve (the gufunc
    ``eigh_lo``, which reads the lower triangle); ``W = L^{-T} V``, so
    ``W^T hh W = diag(mu)`` and ``W^T L L^T W = I``.  It runs under the
    caller's ``errstate``: a failed eigensolve leaves NaNs, which the
    caller's later checks report.
    """
    mu, V = _umath_linalg.eigh_lo(inverse @ hh @ inverse.T)
    return mu, inverse.T @ V


def step_gain(cross: np.ndarray, hh: np.ndarray, noise_term: np.ndarray,
              scale: float, weight: float, betas: tuple, *,
              _trace: list | None = None) -> np.ndarray:
    """The step gain ``B`` from second moments, shape (n, q).

    This is the one rule that turns moments into a gain: every filter's
    analysis (:func:`analysis_gain`), the iterative form's passes on a
    linear map (:mod:`enks.iterative`) and both exact large-N oracles of
    :mod:`enks.benchmarks` call it.  ``cross`` is the (n, q) cross moment
    of state and measurement, ``hh`` the (q, q) measured moment and
    ``betas`` the passes' damping multipliers.  The denominator ``D_0 =
    weight hh + noise_term`` is checked and factored once, ``D_0 = L L^T``
    (:func:`factor_denominator`); its failures are ``GAIN_FAILURES``.
    One multiplier beta gives

        B = (beta scale cross) L^{-T} L^{-1} = beta scale cross D_0^{-1},

    two products and no solve.  Several give the step gain of kappa
    damped passes on a linear map, each re-forming its gain from the
    moments the pass before left, so that the last iterate is ``pred + B
    (y - h(pred))``.  With ``s = scale``, ``w = weight``, ``R0`` the
    noise term, ``cross_k`` and ``C_k`` pass k's moments (``cross_0 =
    cross``, ``C_0 = hh``), ``A_k = beta_k s cross_k D_k^{-1}`` its damped
    gain, ``D_k = w C_k + R0``, ``K_k = h(A_k) = beta_k s C_k D_k^{-1}``
    and ``E_k = I - K_k``:

        cross_{k+1} = (cross_k - A_k C_k) E_k^T = cross_k E_k^T E_k^T,
        C_{k+1} = E_k C_k E_k^T,

    since ``A_k C_k = cross_k K_k^T``.  So ``cross_k = cross_0 P_k`` with
    ``P_0 = I``, ``P_{k+1} = P_k E_k^T E_k^T``.  Pass k's innovations are
    ``Q_k (y - h(pred))``, ``Q_0 = I``, ``Q_{k+1} = E_k Q_k``, and ``B =
    sum_k A_k Q_k``, ``A_k Q_k = beta_k s cross_0 P_k D_k^{-1} Q_k``.

    Every pass is diagonal in one basis.  Diagonalize ``L^{-1} C_0 L^{-T}
    = V diag(mu_0) V^T`` (:func:`whitened_spectrum`); with ``W = L^{-T}
    V`` and ``U = L V = D_0 W``, ``U W^T = W^T U = I``, ``C_0 = U
    diag(mu_0) U^T`` and ``R0 = U diag(r) U^T``, ``r = 1 - w mu_0``.  If
    ``C_k = U diag(mu_k) U^T``, then ``D_k^{-1} = W diag(1/d_k) W^T`` with
    ``d_k = w mu_k + r``, and ``E_k = U diag(eps_k) W^T``, ``eps_k = 1 -
    beta_k s mu_k / d_k``, so ``C_{k+1}`` is diagonal too, with ``mu_{k+1}
    = eps_k^2 mu_k``.  With ``e_k = prod_{j<k} eps_j``:

        P_k = W diag(e_k^2) U^T,   Q_k = U diag(e_k) W^T,
        P_k D_k^{-1} Q_k = W diag(e_k^3 / d_k) W^T,

    and ``B = cross W diag(Phi) W^T``, ``Phi = sum_k f_k``, ``f_k = beta_k
    s e_k^3 / d_k``: a recursion on q numbers (:func:`_pass_weights`).  A
    ``d_k`` of 0 is a later denominator that is not positive definite.
    With several betas, a list ``_trace`` receives ``(W, U, f, e)``, f and
    e of shape (kappa, q), from which :mod:`enks.iterative` reads its
    per-pass trace without a second eigensolve.  It runs under the
    caller's ``errstate``: a diverging input overflows here, and the
    factor's and the gain's finite checks report it.
    """
    denom, inverse = factor_denominator(hh, weight, noise_term)
    if len(betas) == 1:
        gain = (betas[0] * scale * cross) @ inverse.T @ inverse
    else:
        mu, W = whitened_spectrum(hh, inverse)
        try:
            phi, f, e = _pass_weights(mu, betas, scale, weight,
                                      _trace is not None)
        except ZeroDivisionError:
            raise NumericFailure(GAIN_FAILURES[1]) from None
        gain = cross @ ((W * phi) @ W.T)
        if _trace is not None:
            _trace.append((W, denom @ W, f, e))
    if not all_finite(gain):
        raise NumericFailure(GAIN_FAILURES[2])
    return gain


def _pass_weights(mu: np.ndarray, betas: tuple, scale: float, weight: float,
                  trace: bool
                  ) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
    """``Phi`` of :func:`step_gain` from the whitened spectrum ``mu``, and
    with ``trace`` each pass's ``f_k`` and ``e_k``, shape (kappa, q).

    The q directions are independent and the passes sequential, so the
    recursion runs on Python floats, one direction at a time: on q
    numbers a numpy call costs more than its arithmetic.  ``mu`` and ``r
    = 1 - weight mu`` are clipped at 0, so that rounding cannot make a
    ``d_k`` negative, and NaNs pass through.  A ``d_k`` of 0 raises
    ``ZeroDivisionError``.
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


def analysis_gain(pred: np.ndarray, h_pred: np.ndarray, scale: float,
                  weight: float, noise_term: np.ndarray,
                  failures: tuple) -> np.ndarray:
    """Gain ``scale Xd Hd^T (weight Hd Hd^T + noise_term)^{-1}``, shape (n, q).

    The moments of :func:`analysis_moments`, then :func:`step_gain` with
    one undamped pass, under one ``errstate``.  ``failures`` holds the
    ``NumericFailure`` messages for a non-finite denominator, a
    denominator that is not positive definite and a non-finite gain, in
    place of ``GAIN_FAILURES``.  Every filter's analysis runs through
    this kernel: the EnKS with ``(tc/N, alpha/(N-1), (1-alpha) sigma^T
    sigma)`` (:func:`compute_gain`) and the perturbed-observation EnKF
    with ``(1/(N-1), 1/(N-1), R)``.  Measurements that do not spread give
    a gain of exactly zero.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        cross, hh = analysis_moments(pred, h_pred)
        try:
            return step_gain(cross, hh, noise_term, scale, weight, (1.0,))
        except NumericFailure as err:
            raise NumericFailure(failures[GAIN_FAILURES.index(str(err))])


def compute_gain(pred: np.ndarray, h_pred: np.ndarray, cfg: FilterConfig,
                 noise_term: np.ndarray) -> np.ndarray:
    """EnKS gain of the additive update, shape (n, q).

    ``pred`` is the predicted ensemble (or an inner iterate), ``h_pred``
    its measurement image and ``noise_term`` the run's ``(1 - alpha)
    sigma^T sigma``; the gain's time is ``tc = cfg.dt``:

        G = (tc / N) Xd Hd^T [ alpha/(N-1) Hd Hd^T + noise_term ]^{-1}.

    This is the paper's gain exactly: its lagged-mean terms multiply
    ``Xd 1`` and ``Hd 1``, which are zero (module docstring).
    """
    scale, weight = gain_weights(cfg, np.shape(pred)[1])
    return analysis_gain(pred, h_pred, scale, weight, noise_term,
                         GAIN_FAILURES)


def gain_weights(cfg: FilterConfig, N: int) -> tuple[float, float]:
    """The EnKS gain's scale ``tc/N`` and blend weight ``alpha/(N-1)``."""
    if N < 2:
        raise ValueError("the gain needs at least 2 particles")
    return cfg.dt / N, cfg.alpha / (N - 1)


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.matmul(a, b)`` of two 2-D float arrays, with its bits.

    With an inner dimension of 1 numpy's ``matmul`` runs an unblocked
    loop, several times slower than BLAS through ``np.dot`` on a
    ``(1, 2000)`` row; with a wider one ``matmul`` is the faster.
    """
    if a.shape[1] == 1:
        return np.dot(a, b)
    return np.matmul(a, b)


def additive_update(pred: np.ndarray, gain: np.ndarray, y: np.ndarray,
                    h_pred: np.ndarray) -> np.ndarray:
    """Shift every particle by the gain applied to its own innovation.

    Column j of the result is ``pred[:, j] + G (y_j - h_pred[:, j])``,
    with ``y_j`` either the one observation ``y`` of shape (q,) or column
    j of a ``y`` of shape (q, N), one per particle (the EnKF's perturbed
    observations).  Any other shape of ``y`` is a ``ValueError``.  There
    is no weighting and no resampling.  This is every filter's update:
    the EnKS step, each pass of the iterative step and the EnKF's
    analysis.  The result is one new array, ``G (y - h)`` with ``pred``
    added into it.
    """
    pred = np.asarray(pred, dtype=float)
    gain = np.asarray(gain, dtype=float)
    y = np.asarray(y, dtype=float)
    h_pred = np.asarray(h_pred, dtype=float)
    if gain.shape != (pred.shape[0], h_pred.shape[0]):
        raise ValueError(f"gain shape {gain.shape} inconsistent with ensembles")
    if h_pred.shape != (gain.shape[1], pred.shape[1]):
        raise ValueError("h_pred shape inconsistent with gain and pred")
    if y.shape not in (h_pred.shape[:1], h_pred.shape):
        raise ValueError(f"y shape {y.shape} is neither (q,) nor (q, N)")
    out = matmul(gain, (y[:, None] if y.ndim == 1 else y) - h_pred)
    out += pred  # pred + G (y - h), with the same bits, in one new array
    return out


def forecast(state: FilterState, proc: ProcessModel, meas: MeasurementModel,
             y: np.ndarray, dt: float, noise: ParticleNoise,
             consume: bool = False
             ) -> tuple[np.ndarray, float, np.ndarray, np.ndarray]:
    """The forecast every filter's step starts from.

    Checks that ``y`` has the measurement's length, predicts the ensemble
    over ``dt`` and evaluates the measurement map on the prediction at the
    new time.  Returns ``(y, t_new, pred, h_pred)``, with ``y`` as a flat
    float array.  The prediction is one new array, unless ``consume`` is
    set: then it is made in place over ``state.ensemble``, which the state
    no longer holds after the step.  Only a caller that owns the state's
    ensemble and never reads it again sets it, as
    :func:`enks.harness.run_filter_series` does.
    """
    y = np.asarray(y, dtype=float).reshape(-1)
    if y.size != meas.q:
        raise ValueError(f"measurement has length {y.size}, expected {meas.q}")
    t_new = state.t_curr + dt
    pred = predict_ensemble(proc, state.ensemble, state.t_curr, dt, noise,
                            out=state.ensemble if consume else None)
    return y, t_new, pred, meas.evaluate(pred, t_new)


def enks_step(state: FilterState, proc: ProcessModel, meas: MeasurementModel,
              y: np.ndarray, cfg: FilterConfig, noise: ParticleNoise,
              consume: bool = False) -> FilterState:
    """Advance the filter one assimilation step.

    :func:`forecast` over ``cfg.dt`` (in place over the state's ensemble
    with ``consume``), then assemble the gain and apply the additive
    update, whose result is the step's one new ensemble.
    """
    y, t_new, pred, h_pred = forecast(state, proc, meas, y, cfg.dt, noise,
                                      consume)
    gain = compute_gain(pred, h_pred, cfg, state.noise_term)
    updated = additive_update(pred, gain, y, h_pred)
    require_finite(updated, "non-finite ensemble after update")
    return FilterState(t_new, updated, state.noise_term)
