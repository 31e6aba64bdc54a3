"""Benchmark problems, the problem registry and the exact linear-Gaussian
oracle.

Four twin-experiment identification problems (two shear frames, a
nonlinear oscillator with a reaction measurement, and a population
equation) plus a linear-Gaussian problem whose exact conditional moments
come from a Kalman recursion on the EM-discretized model, and whose exact
large-N EnKS moments come from the same recursion with the EnKS gain: each
oracle is its filter's own gain rule, :func:`enks.core.step_gain`, fed
exact moments.
:func:`build_problem` turns a problem id plus overrides into the
:class:`Problem` a twin experiment runs: truth and filter models, the
measurement map, the truth's start state and the initial-ensemble prior.

Joint state-parameter estimation augments the physical state with the
unknown parameters: parameter channels carry zero drift and, in the
filter model, a small constant diffusion so the ensemble retains spread
in those directions.  Truth models freeze the parameters (zero parameter
diffusion).  Frame and oscillator measurement noise defaults to 1% of the
per-channel standard deviation of the noise-free measurement signal,
which the harness resolves once the truth trajectory exists.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .core import matmul, step_gain
from .errors import NumericFailure
from .models import MeasurementModel, MeasurementSeries, ProcessModel


def nu_from_noise_std(noise_std, dt: float) -> np.ndarray:
    """Intensity matrix whose Brownian increment over dt has std noise_std.

    A per-sample observation error eps ~ N(0, diag(noise_std^2)) matches a
    Brownian measurement noise of intensity nu = diag(noise_std)/sqrt(dt).
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    s = np.atleast_1d(np.asarray(noise_std, dtype=float))
    return np.diag(s) / np.sqrt(dt)


# ---------------------------------------------------------------------------
# shear frames
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ShearFrameSpec:
    """Multi-storey shear frame with uncertain stiffness and damping.

    ``measured`` lists the observed velocity channels (0-based storey
    indices); None observes all of them.
    """

    dof: int
    k_ref: tuple
    c_ref: tuple
    forcing_amp: float = 500.0
    proc_noise: float = 5.0
    measured: Optional[tuple] = None

    def __post_init__(self):
        if self.dof < 1:
            raise ValueError("dof must be >= 1")
        if len(self.k_ref) != self.dof or len(self.c_ref) != self.dof:
            raise ValueError("k_ref and c_ref must have one entry per storey")
        if any(k <= 0 for k in self.k_ref) or any(c <= 0 for c in self.c_ref):
            raise ValueError("stiffness and damping parameters must be positive")
        if self.measured is not None:
            if any(i < 0 or i >= self.dof for i in self.measured):
                raise ValueError("measured channel out of range")

    @property
    def measured_channels(self) -> tuple:
        return tuple(range(self.dof)) if self.measured is None else tuple(self.measured)


def default_frame_spec(dof: int, proc_noise: float = 5.0) -> ShearFrameSpec:
    """Reference frame: stiffness 100 and damping 5 at every storey."""
    return ShearFrameSpec(dof=dof, k_ref=(100.0,) * dof, c_ref=(5.0,) * dof,
                          proc_noise=proc_noise)


def tridiagonal_stiffness(params: Sequence[float], dof: int) -> np.ndarray:
    """Shear-frame stiffness matrix from per-storey parameters.

    Row i carries the diagonal ``params[i] + params[i+1]`` (just
    ``params[dof-1]`` on the last row) with off-diagonals ``-params[i+1]``;
    the result is symmetric.
    """
    p = np.asarray(params, dtype=float)
    if p.shape != (dof,):
        raise ValueError(f"expected {dof} parameters, got shape {p.shape}")
    if np.any(p <= 0):
        raise ValueError("parameters must be positive")
    K = np.zeros((dof, dof))
    for i in range(dof):
        K[i, i] = p[i] + (p[i + 1] if i + 1 < dof else 0.0)
        if i + 1 < dof:
            K[i, i + 1] = -p[i + 1]
            K[i + 1, i] = -p[i + 1]
    return K


def _storey_chain_apply(p: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Column-wise tridiagonal product for per-particle parameters.

    Equals ``tridiagonal_stiffness(p[:, j], dof) @ u[:, j]`` per column j,
    written with shifted slices so no matrices are assembled: row i is
    ``p[i] (u[i] - u[i-1]) + p[i+1] (u[i] - u[i+1])``, with ``u[-1]`` read
    as zero and the second term absent on the last row.
    """
    out = np.empty_like(u)
    out[0] = u[0]
    np.subtract(u[1:], u[:-1], out=out[1:])
    out *= p
    out[:-1] += p[1:] * (u[:-1] - u[1:])
    return out


def build_shear_frame(spec: ShearFrameSpec, xi: float = 1.0,
                      param_diffusion: float = 0.01,
                      meas_noise_std=1.0, dt: float = 0.01
                      ) -> tuple[ProcessModel, MeasurementModel]:
    """Augmented-state model of a shear frame under known random forcing.

    The state stacks displacements, velocities, stiffness parameters, and
    damping parameters (n = 4 dof).  The drift re-assembles the stiffness
    and damping operators from the *current* parameter channels of each
    particle, which is what makes joint estimation nonlinear.  The
    forcing ``forcing_amp * exp(-t) |xi| cos(5 t)`` acts on every storey,
    with ``xi`` fixed per run and shared by truth and filter.

    Process noise enters the velocity channels at intensity
    ``spec.proc_noise``; parameter channels diffuse at
    ``param_diffusion`` (zero for truth models).
    """
    dof = spec.dof
    n = 4 * dof
    amp = spec.forcing_amp
    xi_mag = abs(xi)

    def drift_ensemble(x, t):
        u, v = x[:dof], x[dof:2 * dof]
        kp, cp = x[2 * dof:3 * dof], x[3 * dof:]
        r = amp * np.exp(-t) * xi_mag * np.cos(5.0 * t)
        out = np.empty_like(x)
        out[:dof] = v
        np.subtract(r, _storey_chain_apply(cp, v), out=out[dof:2 * dof])
        out[dof:2 * dof] -= _storey_chain_apply(kp, u)
        out[2 * dof:] = 0.0
        return out

    m = 3 * dof  # velocity noise + parameter random walk
    F = np.zeros((n, m))
    F[dof:2 * dof, :dof] = spec.proc_noise * np.eye(dof)
    F[2 * dof:, dof:] = param_diffusion * np.eye(2 * dof)

    proc = ProcessModel(n=n, m=m, drift_ensemble=drift_ensemble,
                        constant_diffusion=F)

    channels = np.asarray(spec.measured_channels, dtype=int)
    q = channels.size

    meas = MeasurementModel(q=q, h=lambda x, t: x[dof + channels],
                            nu=nu_from_noise_std(np.broadcast_to(
                                np.asarray(meas_noise_std, dtype=float), (q,)), dt),
                            dt_scale=dt, linear=True)
    return proc, meas


def frame_truth_x0(spec: ShearFrameSpec) -> np.ndarray:
    """Truth initial condition: rest state with reference parameters."""
    return np.concatenate([np.zeros(spec.dof), np.zeros(spec.dof),
                           np.asarray(spec.k_ref, dtype=float),
                           np.asarray(spec.c_ref, dtype=float)])


# ---------------------------------------------------------------------------
# nonlinear oscillator with reaction measurement
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PendulumSpec:
    """1-DOF oscillator x'' + c x' + k sin(x) = r(t) + noise.

    Defaults put the response around a third of a radian so the sin
    nonlinearity is visible, off resonance with the 5 rad/s forcing.
    """

    c: float = 2.0
    k: float = 10.0
    forcing_amp: float = 5.0
    forcing_decay: float = 0.01
    proc_noise: float = 0.05

    def __post_init__(self):
        if self.c <= 0 or self.k <= 0:
            raise ValueError("c and k must be positive")


def build_pendulum(spec: PendulumSpec, xi: float = 1.0,
                   param_diffusion: float = 0.01,
                   meas_noise_std=1.0, dt: float = 0.01
                   ) -> tuple[ProcessModel, MeasurementModel]:
    """Augmented model (x, v, k, c) with the base reaction measured.

    The measurement is the reaction transferred at the base,
    ``h = c v + k sin(x)``, nonlinear in both the state and the
    parameters.
    """
    amp, decay = spec.forcing_amp, spec.forcing_decay
    xi_mag = abs(xi)

    def drift_ensemble(x, t):
        pos, vel, kp, cp = x[0], x[1], x[2], x[3]
        r = amp * np.exp(-decay * t) * xi_mag * np.cos(5.0 * t)
        out = np.zeros_like(x)
        out[0] = vel
        out[1] = r - cp * vel - kp * np.sin(pos)
        return out

    F = np.zeros((4, 3))
    F[1, 0] = spec.proc_noise
    F[2, 1] = param_diffusion
    F[3, 2] = param_diffusion
    proc = ProcessModel(n=4, m=3, drift_ensemble=drift_ensemble,
                        constant_diffusion=F)

    def h(x, t):
        return (x[3] * x[1] + x[2] * np.sin(x[0]))[None, :]

    meas = MeasurementModel(q=1, h=h, nu=nu_from_noise_std(meas_noise_std, dt),
                            dt_scale=dt)
    return proc, meas


# ---------------------------------------------------------------------------
# population equation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PopulationSpec:
    """Scalar population equation dX = -r1 (1 - X/r2) X dt + noise.

    States above ``r2`` diverge (super-exponentially: the drift grows
    quadratically), states below decay toward zero, so the twin
    experiment starting at ``x0 = 2.1`` probes an unstable regime.
    """

    r1: float = 1.0
    r2: float = 2.0
    x0: float = 2.1
    proc_noise_std: float = 0.2
    meas_noise_std: float = 0.1
    dt: float = 0.1

    def __post_init__(self):
        if self.r2 <= 0:
            raise ValueError("r2 must be positive")


def build_population(spec: PopulationSpec
                     ) -> tuple[ProcessModel, MeasurementModel]:
    """Scalar model with identity measurement."""
    r1, r2 = spec.r1, spec.r2

    def drift_ensemble(x, t):
        return -r1 * (1.0 - x / r2) * x

    proc = ProcessModel(n=1, m=1, drift_ensemble=drift_ensemble,
                        constant_diffusion=np.array([[spec.proc_noise_std]]))
    meas = MeasurementModel(
        q=1, h=lambda x, t: x,
        nu=nu_from_noise_std(spec.meas_noise_std, spec.dt), dt_scale=spec.dt,
        linear=True)
    return proc, meas


# ---------------------------------------------------------------------------
# linear-Gaussian oracle problem
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinearGaussianSpec:
    """dX = A X dt + F dB observed through Y = H X + eps, eps ~ N(0, R)."""

    A: np.ndarray
    F: np.ndarray
    H: np.ndarray
    R: np.ndarray
    x0_mean: np.ndarray
    x0_cov: np.ndarray

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        F = np.atleast_2d(np.asarray(self.F, dtype=float))
        H = np.atleast_2d(np.asarray(self.H, dtype=float))
        R = np.atleast_2d(np.asarray(self.R, dtype=float))
        n = A.shape[0]
        if A.shape != (n, n):
            raise ValueError("A must be square")
        if F.shape[0] != n:
            raise ValueError("F row count must match A")
        if H.shape[1] != n:
            raise ValueError("H column count must match A")
        if R.shape != (H.shape[0], H.shape[0]):
            raise ValueError("R must be q x q")
        if not np.allclose(R, R.T) or np.any(np.linalg.eigvalsh(R) <= 0):
            raise ValueError("R must be symmetric positive definite")
        x0_mean = np.asarray(self.x0_mean, dtype=float).reshape(n)
        x0_cov = np.atleast_2d(np.asarray(self.x0_cov, dtype=float))
        if x0_cov.shape != (n, n):
            raise ValueError("x0_cov must be n x n")
        for name, val in (("A", A), ("F", F), ("H", H), ("R", R),
                          ("x0_mean", x0_mean), ("x0_cov", x0_cov)):
            object.__setattr__(self, name, val)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def q(self) -> int:
        return self.H.shape[0]


def scalar_linear_gaussian(A: float = -1.0, F: float = 1.0, H: float = 1.0,
                           R: float = 0.01, x0_mean: float = 0.0,
                           x0_cov: float = 1.0) -> LinearGaussianSpec:
    return LinearGaussianSpec(A=[[A]], F=[[F]], H=[[H]], R=[[R]],
                              x0_mean=[x0_mean], x0_cov=[[x0_cov]])


def build_linear_gaussian(spec: LinearGaussianSpec, dt: float
                          ) -> tuple[ProcessModel, MeasurementModel]:
    A, F, H = spec.A, spec.F, spec.H

    proc = ProcessModel(n=spec.n, m=F.shape[1],
                        drift_ensemble=lambda x, t: matmul(A, x),
                        constant_diffusion=F)
    noise_std = np.sqrt(np.diag(spec.R))
    meas = MeasurementModel(q=spec.q, h=lambda x, t: matmul(H, x),
                            nu=nu_from_noise_std(noise_std, dt), dt_scale=dt,
                            linear=True)
    return proc, meas


def kalman_oracle(spec: LinearGaussianSpec, series: MeasurementSeries,
                  dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact posterior moments on the EM-discretized linear model.

    Transition ``I + A dt`` with process covariance ``F F^T dt``; one
    predict/update per measurement time with the Kalman gain ``P H^T (H P
    H^T + R)^{-1}``.  This is the perturbed-observation EnKF's rule at N =
    infinity: :func:`enks.core.step_gain` with scale 1, weight 1 and noise
    term ``R``, on the exact moments (:func:`_exact_moments`).

    Returns
    -------
    means : ndarray, shape (n, M)
    covs : ndarray, shape (M, n, n)
    """
    return _exact_moments(spec, series, dt, 1.0, 1.0, spec.R, (1.0,),
                          perturbed=True)[:2]


def enks_limit_oracle(spec: LinearGaussianSpec, series: MeasurementSeries,
                      dt: float, alpha: float = 0.8,
                      betas: Sequence[float] = (1.0,)
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact large-N limit of the EnKS on the EM-discretized linear model.

    The lagged-mean terms of the EnKS gain multiply zero-sum quantities,
    so the gain of an N-particle ensemble is
    ``tc (N-1)/N C_xh [alpha C_hh + (1 - alpha) sigma^T sigma]^{-1}``; as
    N grows the sample moments tend to the moments ``(m, P)`` propagated
    here, which is the mean the EnKS converges to in N.  It differs from
    the Kalman mean of :func:`kalman_oracle` because this gain is not the
    Kalman gain.  This is the EnKS filters' own rule at N = infinity:
    :func:`enks.core.step_gain` with scale ``tc``, weight ``alpha`` and
    noise term ``(1 - alpha) sigma^T sigma`` on the exact moments
    (:func:`_exact_moments`), with no ``B R B^T`` term, since the update
    adds no perturbation.

    ``betas`` is ``(1.0,)`` for the non-iterative filter and
    ``make_schedule(kappa).betas`` for the iterative one.  ``tc`` is ``dt``;
    ``sigma`` is the scaled intensity :func:`build_linear_gaussian` gives
    the filter.

    Returns
    -------
    means : ndarray, shape (n, M)
    covs : ndarray, shape (M, n, n)
    gains : ndarray, shape (M, n, q)
        Effective gain ``B`` of each whole step, ``m_post = m_pred +
        B (y - H m_pred)``; the Kalman gain is its counterpart.
    """
    noise_term = (1.0 - alpha) * build_linear_gaussian(spec, dt)[1].sigma_gram
    return _exact_moments(spec, series, dt, dt, alpha, noise_term,
                          tuple(betas), perturbed=False)


def _exact_moments(spec: LinearGaussianSpec, series: MeasurementSeries,
                   dt: float, scale: float, weight: float,
                   noise_term: np.ndarray, betas: tuple, perturbed: bool
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Means (n, M), covariances (M, n, n) and step gains (M, n, q) of a
    filter's rule on exact moments.  Per step:

        predict   m <- a m,  P <- a P a^T + F F^T dt,  a = I + A dt
        gain      B = step_gain(P H^T, H P H^T, noise_term, scale, weight,
                                betas)
        update    m <- m + B (y - H m)
                  P <- (I - B H) P (I - B H)^T  [+ B R B^T if perturbed]

    ``perturbed`` adds the spread of observations perturbed with
    covariance ``R``.  A gain that fails raises the ``NumericFailure`` of
    :func:`enks.core.step_gain`, with the step.
    """
    n, H, M = spec.n, spec.H, len(series)
    eye = np.eye(n)
    a = eye + spec.A * dt
    Q = spec.F @ spec.F.T * dt
    m, P = spec.x0_mean, spec.x0_cov  # never written in place
    means, covs = np.empty((n, M)), np.empty((M, n, n))
    gains = np.empty((M, n, spec.q))
    for i in range(M):
        # a diverging prior overflows here; step_gain's checks report it
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            m = a @ m
            P = a @ P @ a.T + Q
            try:
                B = step_gain(P @ H.T, H @ P @ H.T, noise_term, scale,
                              weight, betas)
            except NumericFailure as err:
                raise NumericFailure(str(err), step=i) from err
        E = eye - B @ H
        m = m + B @ (series.values[:, i] - H @ m)
        P = E @ P @ E.T + (B @ spec.R @ B.T if perturbed else 0.0)
        P = 0.5 * (P + P.T)
        means[:, i], covs[i], gains[i] = m, P, B
    return means, covs, gains


# ---------------------------------------------------------------------------
# problem registry
# ---------------------------------------------------------------------------

PROBLEM_IDS = ("frame50", "frame20-damaged", "frame4-damaged", "pendulum",
               "population", "linear-gaussian")

RELATIVE_NOISE_FRACTION = 0.01  # "low intensity" measurement noise rule


@dataclass
class Problem:
    """Everything a twin experiment needs besides run-level config."""

    name: str
    proc_truth: ProcessModel
    proc_filter: ProcessModel
    meas: MeasurementModel
    x0_truth: np.ndarray
    init_mean: np.ndarray
    init_spread: np.ndarray
    channel_names: list
    # noise_std is per measurement channel; None means "1% of signal std",
    # resolved by the harness once the truth trajectory exists.
    noise_std: Optional[np.ndarray]
    kalman_spec: Optional[LinearGaussianSpec] = None
    default_N: int = 1000
    default_dt: float = 0.01
    default_horizon: float = 5.0

    def with_noise_std(self, noise_std: np.ndarray, dt: float) -> "Problem":
        """Finalize the measurement model for a resolved noise level."""
        meas = replace(self.meas, nu=nu_from_noise_std(noise_std, dt),
                       dt_scale=dt)
        out = replace(self, meas=meas)
        out.noise_std = np.asarray(noise_std, dtype=float)
        return out


def _frame_problem(name, dof, *, N, horizon, proc_noise, xi, dt,
                   param_diffusion, meas_noise_std, damaged_storey=None,
                   damaged_k=98.0):
    """Shear-frame twin experiment, optionally with one damaged storey.

    The frame's models do not read the reference parameters, so the
    damage (storey ``damaged_storey``, 1-based, at stiffness
    ``damaged_k``) reaches the run only through the truth's start state.
    """
    spec = default_frame_spec(dof, proc_noise=proc_noise)
    build = dict(xi=xi, dt=dt,
                 meas_noise_std=1.0 if meas_noise_std is None else meas_noise_std)
    proc_f, meas = build_shear_frame(spec, param_diffusion=param_diffusion,
                                     **build)
    # truth: reference parameters, frozen: the filter's model without its
    # parameter diffusion, columns dof: of F
    F_truth = proc_f.constant_diffusion.copy()
    F_truth[:, dof:] = 0.0
    proc_t = replace(proc_f, constant_diffusion=F_truth)
    if damaged_storey is not None:
        k_ref = list(spec.k_ref)
        k_ref[damaged_storey - 1] = damaged_k
        spec = replace(spec, k_ref=tuple(k_ref))

    init_mean = np.concatenate([np.zeros(2 * dof), np.full(dof, 100.0),
                                np.full(dof, 5.0)])
    init_spread = np.concatenate([np.full(2 * dof, 0.01), np.full(dof, 5.0),
                                  np.full(dof, 0.5)])
    names = ([f"u{i+1}" for i in range(dof)] + [f"v{i+1}" for i in range(dof)]
             + [f"K{i+1}" for i in range(dof)] + [f"C{i+1}" for i in range(dof)])
    return Problem(name=name, proc_truth=proc_t, proc_filter=proc_f, meas=meas,
                   x0_truth=frame_truth_x0(spec),
                   init_mean=init_mean, init_spread=init_spread,
                   channel_names=names, noise_std=meas_noise_std,
                   default_N=N, default_dt=dt, default_horizon=horizon)


def build_problem(problem: str, *, xi: float = 1.0, dt: Optional[float] = None,
                  param_diffusion: float = 0.01,
                  proc_noise: Optional[float] = None,
                  meas_noise_std=None, init_spread_scale: float = 1.0) -> Problem:
    """Assemble the named problem with optional overrides.

    ``xi`` is the forcing randomness drawn once per run (frames and
    oscillator); ``proc_noise`` overrides the problem's process-noise
    intensity; ``meas_noise_std`` pins the measurement noise instead of
    the 1%-of-signal rule.
    """
    def pick(override, default):
        return default if override is None else override

    frame = dict(xi=xi, dt=dt or 0.01, param_diffusion=param_diffusion,
                 meas_noise_std=meas_noise_std)
    if problem == "frame50":
        p = _frame_problem("frame50", 50, N=800, horizon=5.0,
                           proc_noise=pick(proc_noise, 5.0), **frame)
    elif problem == "frame20-damaged":
        # damage detection wants a long window and modest process noise,
        # otherwise the 2% stiffness deficit stays below the posterior spread
        p = _frame_problem("frame20-damaged", 20, N=300, horizon=20.0,
                           proc_noise=pick(proc_noise, 1.0), damaged_storey=10,
                           **frame)
    elif problem == "frame4-damaged":
        # desk-scale damage problem; lower process noise keeps the
        # parameter channels identifiable at this size
        p = _frame_problem("frame4-damaged", 4, N=300, horizon=20.0,
                           proc_noise=pick(proc_noise, 1.0), damaged_storey=3,
                           **frame)
    elif problem == "pendulum":
        spec = PendulumSpec(proc_noise=pick(proc_noise, 0.05))
        step = dt or 0.01
        proc_f, meas = build_pendulum(spec, xi=xi,
                                      param_diffusion=param_diffusion,
                                      meas_noise_std=pick(meas_noise_std, 1.0),
                                      dt=step)
        proc_t, _ = build_pendulum(spec, xi=xi, param_diffusion=0.0,
                                   meas_noise_std=1.0, dt=step)
        p = Problem(name="pendulum", proc_truth=proc_t, proc_filter=proc_f,
                    meas=meas, x0_truth=np.array([0.0, 0.0, spec.k, spec.c]),
                    init_mean=np.array([0.0, 0.0, spec.k, spec.c]),
                    init_spread=np.array([0.01, 0.01, 2.0, 0.5]),
                    channel_names=["x", "v", "k", "c"],
                    noise_std=meas_noise_std, default_N=600, default_dt=step,
                    default_horizon=5.0)
    elif problem == "population":
        spec = PopulationSpec(proc_noise_std=pick(proc_noise, 0.2),
                              meas_noise_std=_scalar(pick(meas_noise_std, 0.1)),
                              dt=dt or 0.1)
        proc, meas = build_population(spec)
        p = Problem(name="population", proc_truth=proc, proc_filter=proc,
                    meas=meas, x0_truth=np.array([spec.x0]),
                    init_mean=np.array([spec.x0]), init_spread=np.array([0.1]),
                    channel_names=["x"],
                    noise_std=np.array([spec.meas_noise_std]),
                    default_N=1000, default_dt=spec.dt, default_horizon=5.0)
    elif problem == "linear-gaussian":
        spec = scalar_linear_gaussian(
            F=pick(proc_noise, 1.0),
            R=0.01 if meas_noise_std is None else _scalar(meas_noise_std) ** 2)
        step = dt or 0.01
        proc, meas = build_linear_gaussian(spec, step)
        p = Problem(name="linear-gaussian", proc_truth=proc, proc_filter=proc,
                    meas=meas, x0_truth=None,  # drawn from the prior by the harness
                    init_mean=spec.x0_mean,
                    init_spread=np.sqrt(np.diag(spec.x0_cov)),
                    channel_names=["x"],
                    noise_std=np.sqrt(np.diag(spec.R)), kalman_spec=spec,
                    default_N=2000, default_dt=step, default_horizon=10.0)
    else:
        raise ValueError(f"unknown problem id '{problem}' "
                         f"(expected one of {', '.join(PROBLEM_IDS)})")
    if init_spread_scale != 1.0:
        p.init_spread = p.init_spread * init_spread_scale
    return p


def _scalar(value) -> float:
    """One noise level given as a number or a one-element array."""
    return float(np.asarray(value).reshape(()))
