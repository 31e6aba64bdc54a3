"""The names the benchmark under ``bench/`` looks up in the package.

``bench/tracing.py`` wraps functions at the names their callers use and
skips a name its owner no longer has, so a rename here would silently
zero that layer's trace metrics; ``bench/workloads.py`` and
``bench/kernels.py`` import or patch names directly, so a rename there
would crash the benchmark.  The benchmark's own tests sit outside the
test paths; this module keeps the names it relies on in the suite.
"""

import inspect

import pytest

import enks

LOOKED_UP = {
    "benchmarks": ("kalman_oracle",),
    "core": ("compute_gain", "additive_update", "predict_ensemble"),
    "iterative": ("compute_gain", "iterate_update", "predict_ensemble"),
    "enkf": ("enkf_update", "predict_ensemble"),
    "harness": ("build_problem", "make_twin_data", "simulate_truth",
                "synth_measurements", "initial_ensemble", "particle_streams",
                "run_filter_series", "enks_step", "iterative_enks_step",
                "enkf_step", "emit_csv", "emit_summary", "emit_linechart",
                "run_experiment", "ExperimentConfig", "FILTER_KINDS"),
    "record": ("load_csv",),
    "errors": ("NumericFailure",),
}


@pytest.mark.parametrize("module", sorted(LOOKED_UP))
def test_module_names(module):
    owner = getattr(enks, module)
    missing = [name for name in LOOKED_UP[module] if not hasattr(owner, name)]
    assert not missing, f"enks.{module} lacks {missing}"


def test_wrapped_methods_keep_their_calls():
    # the tracer wraps evaluate as (meas, ens, t) and counts every
    # standard_normal call; the set-up span reads the built problem's drift
    params = inspect.signature(enks.models.MeasurementModel.evaluate).parameters
    assert list(params) == ["self", "ens", "t"]
    assert callable(enks.rng.RngStream.standard_normal)
    problem = enks.harness.build_problem("population")
    assert callable(problem.proc_filter.drift_ensemble)
