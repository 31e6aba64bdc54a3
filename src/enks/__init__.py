"""Ensemble Kushner-Stratonovich filtering library and benchmark harness.

Weight-free additive particle filtering in non-iterative and annealed
iterative forms, a stochastic EnKF baseline, an exact linear-Gaussian
Kalman oracle, and a twin-experiment harness with convergence
diagnostics.
"""

from .benchmarks import (PROBLEM_IDS, LinearGaussianSpec, PendulumSpec,
                         PopulationSpec, Problem, ShearFrameSpec,
                         build_linear_gaussian, build_pendulum,
                         build_population, build_problem, build_shear_frame,
                         enks_limit_oracle, kalman_oracle,
                         nu_from_noise_std, scalar_linear_gaussian,
                         tridiagonal_stiffness)
from .core import (FilterConfig, FilterState, additive_update, analysis_gain,
                   compute_gain, enks_step, forecast, make_initial_state)
from .enkf import EnkfConfig, enkf_step, enkf_update
from .errors import NumericFailure
from .harness import (ConvergenceReport, ExperimentConfig, convergence_sweep,
                      initial_ensemble, make_twin_data, run_experiment,
                      run_filter_series)
from .iterative import (AnnealingSchedule, IterationTrace, iterate_update,
                        iterative_enks_step, make_schedule)
from .models import MeasurementModel, MeasurementSeries, ProcessModel
from .record import (RunRecord, emit_csv, emit_linechart, emit_series_csv,
                     emit_summary, load_csv, load_series_csv, rmse)
from .rng import ParticleNoise, RngStream, particle_streams
from .sde import (clean_signal, predict_ensemble, simulate_truth,
                  synth_measurements)

__version__ = "0.1.0"

__all__ = [
    "AnnealingSchedule", "ConvergenceReport", "EnkfConfig",
    "ExperimentConfig", "FilterConfig", "FilterState",
    "IterationTrace", "LinearGaussianSpec", "MeasurementModel",
    "MeasurementSeries", "NumericFailure", "ParticleNoise", "PendulumSpec",
    "PopulationSpec",
    "PROBLEM_IDS", "Problem", "ProcessModel", "RngStream", "RunRecord",
    "ShearFrameSpec", "additive_update", "analysis_gain",
    "build_linear_gaussian",
    "build_pendulum", "build_population", "build_problem", "build_shear_frame",
    "clean_signal", "compute_gain", "convergence_sweep", "emit_csv",
    "emit_linechart", "emit_series_csv", "emit_summary", "enkf_step",
    "enkf_update",
    "enks_limit_oracle", "enks_step", "forecast",
    "initial_ensemble", "iterate_update", "iterative_enks_step",
    "kalman_oracle", "load_csv", "load_series_csv", "make_initial_state",
    "make_schedule", "make_twin_data", "nu_from_noise_std", "particle_streams",
    "predict_ensemble", "rmse", "run_experiment", "run_filter_series",
    "scalar_linear_gaussian", "simulate_truth", "synth_measurements",
    "tridiagonal_stiffness",
]
