"""Twin-experiment orchestration and convergence sweeps.

``run_experiment`` generates (or loads) truth and measurements, runs every
selected filter over the same data with paired random streams, and writes
the run record; each filter run draws its Brownian increments from one
:class:`enks.rng.ParticleNoise`, one panel per step from a stream keyed by
``(seed, step)``, so every filter of an experiment sees the same noise.
``convergence_sweep`` estimates empirical convergence orders in ensemble
size or step length, each against the limit of the filter being swept: on
the linear-Gaussian problem the exact large-N limit (the Kalman mean for
the EnKF, the EnKS limit recursion for the EnKS filters), elsewhere a
high-resolution self-reference.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .benchmarks import (PROBLEM_IDS, RELATIVE_NOISE_FRACTION,
                         LinearGaussianSpec, Problem, build_problem,
                         enks_limit_oracle, kalman_oracle)
from .core import FilterConfig, FilterState, enks_step, row_moments
from .enkf import EnkfConfig, enkf_step
from .errors import ConfigError, NumericFailure
from .iterative import AnnealingSchedule, make_schedule, iterative_enks_step
from .models import MeasurementSeries, validate_ensemble
from .record import RunRecord, emit_csv, emit_linechart, emit_summary
from .rng import (FORCING_STREAM, INIT_ENSEMBLE_STREAM, MEASUREMENT_STREAM,
                  PERTURBATION_STREAM, TRUTH_STREAM, ParticleNoise, RngStream,
                  particle_streams)
from .sde import clean_signal, simulate_truth, synth_measurements

FILTER_KINDS = ("enks", "enks-iter", "enkf")
# ExperimentConfig's real fields (unless None) must be finite, and >= 0
# where the flag is set, else positive
_REAL_FIELDS = (("dt", False), ("horizon", False), ("proc_noise", True),
                ("meas_noise_std", False), ("param_diffusion", True),
                ("init_spread_scale", False))


@dataclass
class ExperimentConfig:
    """Run-level configuration; None fields fall back to problem defaults."""

    problem: str
    filters: tuple = ("enks",)
    N: Optional[int] = None
    dt: Optional[float] = None
    alpha: float = 0.8
    kappa: int = 10
    seed: int = 0
    horizon: Optional[float] = None
    out_dir: str = "runs"
    proc_noise: Optional[float] = None
    meas_noise_std: Optional[float] = None
    param_diffusion: float = 0.01
    init_spread_scale: float = 1.0
    tracked_channels: Optional[tuple] = None
    emit_outputs: bool = True

    def __post_init__(self):
        if self.problem not in PROBLEM_IDS:
            raise ConfigError(f"unknown problem id '{self.problem}' "
                              f"(expected one of {', '.join(PROBLEM_IDS)})")
        self.filters = tuple(self.filters)
        for f in self.filters:
            if f not in FILTER_KINDS:
                raise ConfigError(f"unknown filter '{f}' "
                                  f"(expected one of {', '.join(FILTER_KINDS)})")
        if not self.filters:
            raise ConfigError("at least one filter must be selected")
        if self.N is not None and self.N < 2:
            raise ConfigError("N must be >= 2")
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError("alpha must lie strictly inside (0, 1)")
        if self.kappa < 1:
            raise ConfigError("kappa must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        for name, may_be_zero in _REAL_FIELDS:
            x = getattr(self, name)
            if x is not None and not (math.isfinite(x)
                                      and (x >= 0 if may_be_zero else x > 0)):
                raise ConfigError(f"{name} must be finite and "
                                  f"{'>= 0' if may_be_zero else 'positive'}, "
                                  f"got {x}")


@dataclass
class ConvergenceReport:
    """Sweep outcome: per-value error statistics and the fitted power law."""

    variable: str
    values: np.ndarray
    errors: np.ndarray  # (len(values), repeats)
    slope: float
    intercept: float

    @property
    def mean_errors(self) -> np.ndarray:
        return self.errors.mean(axis=1)

    @property
    def std_errors(self) -> np.ndarray:
        return self.errors.std(axis=1, ddof=1)


def _resolve(cfg: ExperimentConfig, problem: Optional[Problem] = None
             ) -> tuple[Problem, int, float, float]:
    """The configured problem (built unless given), N, dt and horizon."""
    if problem is None:
        xi = float(RngStream(cfg.seed, FORCING_STREAM).standard_normal())
        problem = build_problem(cfg.problem, xi=xi, dt=cfg.dt,
                                param_diffusion=cfg.param_diffusion,
                                proc_noise=cfg.proc_noise,
                                meas_noise_std=cfg.meas_noise_std,
                                init_spread_scale=cfg.init_spread_scale)
    N = cfg.N if cfg.N is not None else problem.default_N
    dt = cfg.dt if cfg.dt is not None else problem.default_dt
    horizon = cfg.horizon if cfg.horizon is not None else problem.default_horizon
    return problem, N, dt, horizon


def make_twin_data(cfg: ExperimentConfig, problem: Optional[Problem] = None
                   ) -> tuple[Problem, np.ndarray, MeasurementSeries, np.ndarray]:
    """Simulate truth and synthesize measurements for a configuration.

    ``problem`` is the configuration's problem when the caller has built
    it already.  Returns the finalized problem (measurement noise
    resolved), the truth trajectory (n, M), the measurement series, and
    the time grid.
    """
    problem, _, dt, horizon = _resolve(cfg, problem)
    M = int(round(horizon / dt))
    if M < 1:
        raise ConfigError("horizon shorter than one step")
    grid = dt * np.arange(1, M + 1)

    truth = _truth_path(problem, cfg.seed, grid)

    clean = None
    if problem.noise_std is None:
        clean = clean_signal(problem.meas, truth, grid)
        noise_std = np.maximum(RELATIVE_NOISE_FRACTION * clean.std(axis=1),
                               1e-12)
    else:
        noise_std = np.broadcast_to(np.asarray(problem.noise_std, dtype=float),
                                    (problem.meas.q,))
    problem = problem.with_noise_std(noise_std, dt)

    series = synth_measurements(problem.meas, truth, grid,
                                RngStream(cfg.seed, MEASUREMENT_STREAM),
                                problem.noise_std, clean)
    return problem, truth, series, grid


def _truth_path(problem: Problem, seed: int, grid: np.ndarray) -> np.ndarray:
    """Truth trajectory on ``grid``, all drawn from the truth stream.

    The linear-Gaussian truth starts from a draw of its prior, the
    stream's first draws; the other problems start at ``x0_truth``.
    """
    stream = RngStream(seed, TRUTH_STREAM)
    x0 = problem.x0_truth
    if x0 is None:
        spec = problem.kalman_spec
        x0 = (spec.x0_mean
              + np.linalg.cholesky(spec.x0_cov) @ stream.standard_normal(spec.n))
    return simulate_truth(problem.proc_truth, x0, grid, stream)


def initial_ensemble(problem: Problem, N: int, seed: int) -> np.ndarray:
    """Gaussian ensemble around the problem's prior guess.

    One ``(n, N)`` draw, scaled by the spread and shifted by the mean in
    place: the bits of ``mean + spread * draw`` in one array.
    """
    stream = RngStream(seed, INIT_ENSEMBLE_STREAM)
    ens = stream.standard_normal((problem.init_mean.size, N))
    ens *= problem.init_spread[:, None]
    ens += problem.init_mean[:, None]
    return ens


@functools.cache
def _openblas_threads():
    """``(get, set)`` of the thread count of numpy's bundled OpenBLAS, or
    None when numpy's core module does not export them."""
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
        get = lib.scipy_openblas_get_num_threads64_
        set_ = lib.scipy_openblas_set_num_threads64_
    except (AttributeError, OSError):
        return None
    get.restype, get.argtypes = ctypes.c_int, []
    set_.restype, set_.argtypes = None, [ctypes.c_int]
    return get, set_


@contextlib.contextmanager
def _one_blas_thread():
    """Run numpy's OpenBLAS on one thread within the block and restore the
    count found however it ends; where the count cannot be set, leave it."""
    blas = _openblas_threads()
    if blas is None:
        yield
        return
    get, set_ = blas
    found = get()
    set_(1)
    try:
        yield
    finally:
        set_(found)


def run_filter_series(kind: str, problem: Problem, series: MeasurementSeries,
                      ens0: np.ndarray, cfg: FilterConfig,
                      schedule: Optional[AnnealingSchedule] = None,
                      collect_traces: bool = False,
                      streams: Optional[ParticleNoise] = None):
    """Run one filter over a measurement series.

    Returns ``(means, stds, extra)`` where ``means``/``stds`` are (n, M)
    and ``extra`` is a list of per-step IterationTrace objects for
    "enks-iter" when ``collect_traces`` is set, else None.
    ``collect_traces`` also decides whether the traces are computed at
    all: without it the iterative steps skip their residual norms.
    ``streams`` is the ensemble's noise source and defaults to the
    step-keyed panels of ``cfg.seed``.  Where numpy's OpenBLAS thread
    count can be set, the run keeps it at one thread from its first step
    to its last, whatever its size or noise, so its bits do not depend on
    the host's core count; the thread count found is restored before this
    returns or raises.  The run starts no thread: each step draws its
    noise on the calling thread.  A step's ``NumericFailure``, or one from
    its moments, is re-raised with the filter kind, the step index and the
    step's measurement time, its particle kept.

    ``ens0`` is left as it is: the run starts from its own copy, and each
    step predicts in place over the run's ensemble (``consume``), so the
    run keeps no scratch.  Once the step has returned, the consumed array
    holds its dead prediction: the step's mean and ``ddof=1`` std are
    formed from one mean with the deviations in it.
    """
    ens0 = validate_ensemble(ens0)
    n, N = ens0.shape
    M = len(series)
    means = np.empty((n, M))
    stds = np.empty((n, M))
    if streams is None:
        streams = particle_streams(cfg.seed, N)
    extra = [] if collect_traces else None
    proc, meas = problem.proc_filter, problem.meas
    noise_term = (1.0 - cfg.alpha) * meas.sigma_gram  # the EnKF's is R

    if kind == "enkf":
        R = np.diag(np.asarray(problem.noise_std, dtype=float) ** 2)
        enkf_cfg = EnkfConfig(R=R)
        noise_term = enkf_cfg.R
        perturb = RngStream(cfg.seed, PERTURBATION_STREAM)

        def step(state, y):
            return enkf_step(state, proc, meas, y, enkf_cfg, streams, perturb,
                             cfg.dt, consume=True)
    elif kind == "enks":
        def step(state, y):
            return enks_step(state, proc, meas, y, cfg, streams,
                             consume=True)
    elif kind == "enks-iter":
        if schedule is None:
            raise ValueError("enks-iter needs an annealing schedule")

        def step(state, y):
            state, trace = iterative_enks_step(state, proc, meas, y, cfg,
                                               streams, schedule,
                                               trace=collect_traces,
                                               consume=True)
            if collect_traces:
                extra.append(trace)
            return state
    else:
        raise ValueError(f"unknown filter kind '{kind}'")

    state = FilterState(0.0, ens0.copy(), noise_term)
    with _one_blas_thread():
        for i in range(M):
            t = state.t_curr + cfg.dt
            try:
                prev, state = state, step(state, series.values[:, i])
                means[:, i], stds[:, i] = row_moments(state.ensemble,
                                                      prev.ensemble)
                del prev  # one ensemble less while the next step predicts
            except NumericFailure as err:
                raise NumericFailure(f"{kind} filter failed", t=t, step=i,
                                     particle=err.particle) from err
    return means, stds, extra


def run_experiment(cfg: ExperimentConfig,
                   data: Optional[tuple] = None) -> RunRecord:
    """Full twin experiment: data, filters, record, and artifacts.

    ``data`` optionally supplies a previously persisted dataset as
    ``(truth, series, noise_std, seed)`` (for instance loaded by
    :func:`enks.record.load_dataset`); the models are still rebuilt from the
    configuration, so the run's seed must be the one that generated the
    data for the forcing input to agree.  Each of these is a
    ``ConfigError``: a dataset seed other than ``cfg.seed``, times that
    are not the run's grid ``dt * (1, ..., M)``, and a set ``horizon``
    that does not give the dataset's M steps.  A dataset seed of None
    (a dataset saved without one) is not checked.
    """
    t_start = time.perf_counter()
    problem, N, dt, horizon = _resolve(cfg)
    if data is None:
        problem, truth, series, grid = make_twin_data(cfg, problem)
    else:
        truth, series, noise_std, data_seed = data
        if data_seed is not None and data_seed != cfg.seed:
            raise ConfigError(f"loaded dataset was simulated with seed "
                              f"{data_seed}, not the run's seed {cfg.seed}")
        truth = np.atleast_2d(np.asarray(truth, dtype=float))
        noise_std = np.asarray(noise_std, dtype=float).reshape(-1)
        q = problem.meas.q
        if (truth.shape != (problem.proc_truth.n, len(series))
                or series.values.shape[0] != q or noise_std.size not in (1, q)):
            raise ConfigError("loaded dataset shape does not match the problem")
        if not np.allclose(series.times, dt * np.arange(1, len(series) + 1),
                           rtol=1e-9, atol=0.0):
            raise ConfigError(f"loaded dataset times are not the multiples "
                              f"of dt={dt}")
        steps = round(horizon / dt)
        if cfg.horizon is not None and steps != len(series):
            raise ConfigError(f"horizon={cfg.horizon} gives {steps} steps of "
                              f"dt={dt}, the loaded dataset has {len(series)}")
        problem = problem.with_noise_std(np.broadcast_to(noise_std, (q,)), dt)
        grid = series.times
    tracked = cfg.tracked_channels
    if tracked is None:
        tracked = tuple(range(min(truth.shape[0], 4)))
    if any(not 0 <= c < truth.shape[0] for c in tracked):
        raise ConfigError(f"tracked channels {tracked} outside "
                          f"0..{truth.shape[0] - 1}")

    fcfg = FilterConfig(dt=dt, alpha=cfg.alpha, seed=cfg.seed)
    schedule = make_schedule(cfg.kappa)
    ens0 = initial_ensemble(problem, N, cfg.seed)

    filter_means, filter_stds = {}, {}
    for kind in cfg.filters:
        means, stds, _ = run_filter_series(kind, problem, series, ens0, fcfg,
                                           schedule=schedule)
        filter_means[kind] = means
        filter_stds[kind] = stds

    record = RunRecord(steps=np.arange(1, len(series) + 1), times=grid,
                       truth=truth, filter_means=filter_means,
                       filter_stds=filter_stds, seed=cfg.seed,
                       wall_time=time.perf_counter() - t_start,
                       channel_names=problem.channel_names)
    if cfg.emit_outputs:
        out = Path(cfg.out_dir)
        emit_csv(record, out / f"{cfg.problem}_rows.csv")
        emit_summary(record, out / f"{cfg.problem}_summary.csv")
        for c in tracked:
            emit_linechart(record, [c], out / f"{cfg.problem}_ch{c}.svg")
    return record


# ---------------------------------------------------------------------------
# convergence sweeps
# ---------------------------------------------------------------------------

def _deviation(a: np.ndarray, b: np.ndarray) -> float:
    """Channel-averaged, time-averaged absolute deviation."""
    return float(np.mean(np.abs(a - b)))


def fit_power_law(values: Sequence, errors: np.ndarray) -> tuple[float, float]:
    """Least-squares ``(slope, intercept)`` of ``log(errors)`` against
    ``log(values)``: ``errors ~ exp(intercept) * values ** slope``.

    A non-positive or non-finite error is a ``NumericFailure``.
    """
    errors = np.asarray(errors, dtype=float)
    if np.any(errors <= 0) or not np.isfinite(errors).all():
        raise NumericFailure("sweep produced non-positive or non-finite errors")
    slope, intercept = np.polyfit(np.log(np.asarray(values, dtype=float)),
                                  np.log(errors), 1)
    return float(slope), float(intercept)


def convergence_sweep(cfg: ExperimentConfig, variable: str, values: Sequence,
                      repeats: int, ref_factor: int = 10) -> ConvergenceReport:
    """Estimate the empirical convergence order in N or dt.

    An order is measured against the limit of the filter being swept, so
    the errors of a consistent filter fall to zero.  N sweeps on the
    linear-Gaussian problem use the exact large-N mean: the Kalman mean
    for "enkf", and :func:`enks.benchmarks.enks_limit_oracle` for "enks"
    and "enks-iter", whose additive gain is not the Kalman gain; other
    problems reference the filter's own run at ``16 * max(values)``.  dt
    sweeps share one fine-grid truth path and one measurement-noise panel
    across resolutions (common random numbers) and reference the filter's
    own run at ``min(values) / ref_factor``.  The order is the slope
    :func:`fit_power_law` fits to the mean errors.
    """
    if variable not in ("N", "dt"):
        raise ConfigError("variable must be 'N' or 'dt'")
    values = list(values)
    if len(values) < 3:
        raise ConfigError("need at least 3 sweep values")
    if repeats < 5:
        raise ConfigError("need at least 5 repeats")
    kind = cfg.filters[0]

    errors = np.empty((len(values), repeats))
    if variable == "N":
        for r in range(repeats):
            run_cfg = ExperimentConfig(**{**cfg.__dict__, "seed": cfg.seed + r,
                                          "emit_outputs": False})
            problem, _, dt, _ = _resolve(run_cfg)
            problem, truth, series, grid = make_twin_data(run_cfg, problem)
            if problem.kalman_spec is not None:
                ref_means = _large_n_limit(problem.kalman_spec, series, dt,
                                           run_cfg, kind)
            else:
                ref_means = _run_one(problem, series, 16 * int(max(values)), dt,
                                     run_cfg, kind)
            for i, N in enumerate(values):
                means = _run_one(problem, series, int(N), dt, run_cfg, kind)
                errors[i, r] = _deviation(means, ref_means)
    else:
        dt_ref = min(values) / ref_factor
        for i, dt_v in enumerate(values):
            ratio = dt_v / dt_ref
            if abs(ratio - round(ratio)) > 1e-9:
                raise ConfigError(f"dt={dt_v} is not a multiple of the "
                                  f"reference step {dt_ref}")
        for r in range(repeats):
            run_cfg = ExperimentConfig(**{**cfg.__dict__, "seed": cfg.seed + r,
                                          "emit_outputs": False})
            per_dt = _dt_sweep_errors(run_cfg, values, dt_ref, kind)
            errors[:, r] = per_dt
    slope, intercept = fit_power_law(values, errors.mean(axis=1))
    return ConvergenceReport(variable=variable,
                             values=np.asarray(values, dtype=float),
                             errors=errors, slope=slope, intercept=intercept)


def _large_n_limit(spec: LinearGaussianSpec, series: MeasurementSeries,
                   dt: float, cfg: ExperimentConfig, kind: str) -> np.ndarray:
    """Exact mean a linear-Gaussian run of ``kind`` converges to in N."""
    if kind == "enkf":
        return kalman_oracle(spec, series, dt)[0]
    betas = make_schedule(cfg.kappa).betas if kind == "enks-iter" else (1.0,)
    return enks_limit_oracle(spec, series, dt, alpha=cfg.alpha, betas=betas)[0]


def _run_one(problem: Problem, series: MeasurementSeries, N: int, dt: float,
             cfg: ExperimentConfig, kind: str) -> np.ndarray:
    fcfg = FilterConfig(dt=dt, alpha=cfg.alpha, seed=cfg.seed)
    ens0 = initial_ensemble(problem, N, cfg.seed)
    means, _, _ = run_filter_series(kind, problem, series, ens0, fcfg,
                                    schedule=make_schedule(cfg.kappa))
    return means


def _dt_sweep_errors(cfg: ExperimentConfig, values: Sequence[float],
                     dt_ref: float, kind: str) -> np.ndarray:
    """Errors of coarse-step runs against the fine-step self-reference.

    One fine-grid truth path, one measurement-noise panel, one initial
    ensemble, and one Brownian path per particle are shared by every
    resolution; coarser grids aggregate increments and subsample data,
    so the deviation isolates the step-size effect.  The coarse runs take
    ``particle_streams(seed, N, stride)``, which sums the ``stride`` fine
    step panels of each coarse step.
    """
    problem, N, _, horizon = _resolve(cfg)
    M_ref = int(round(horizon / dt_ref))
    fine_grid = dt_ref * np.arange(1, M_ref + 1)
    truth_fine = _truth_path(problem, cfg.seed, fine_grid)

    if problem.noise_std is None:
        raise ConfigError("dt sweeps need a problem with explicit noise_std")
    noise_std = np.broadcast_to(np.asarray(problem.noise_std, dtype=float),
                                (problem.meas.q,))
    eps_fine = noise_std[:, None] * RngStream(
        cfg.seed, MEASUREMENT_STREAM).standard_normal((problem.meas.q, M_ref))

    def run_at(dt_v: float) -> np.ndarray:
        stride = int(round(dt_v / dt_ref))
        idx = np.arange(stride - 1, M_ref, stride)
        grid = fine_grid[idx]
        prob_dt = problem.with_noise_std(noise_std, dt_v)
        clean = clean_signal(prob_dt.meas, truth_fine[:, idx], grid)
        series = MeasurementSeries(times=grid, values=clean + eps_fine[:, idx])
        return run_filter_series(kind, prob_dt, series,
                                 initial_ensemble(prob_dt, N, cfg.seed),
                                 FilterConfig(dt=dt_v, alpha=cfg.alpha,
                                              seed=cfg.seed),
                                 schedule=make_schedule(cfg.kappa),
                                 streams=particle_streams(cfg.seed, N,
                                                          stride))[0], idx

    means_ref, _ = run_at(dt_ref)
    errs = np.empty(len(values))
    for i, dt_v in enumerate(values):
        means_dt, idx = run_at(dt_v)
        errs[i] = _deviation(means_dt, means_ref[:, idx])
    return errs
