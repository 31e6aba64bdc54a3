"""The names the benchmark under ``bench/`` looks up in the package.

``bench/tracing.py`` wraps functions at the names their callers use and
skips a name its owner no longer has, so a rename here would silently
zero that layer's trace metrics; ``bench/workloads.py`` and
``bench/kernels.py`` import or patch names directly, so a rename there
would crash the benchmark.  The benchmark's own tests sit outside the
test paths; this module keeps the names it relies on in the suite, and
runs the tracer's patch table over short experiments of every filter, on
a linear and on a nonlinear measurement map.
"""

import inspect
import sys
from pathlib import Path

import pytest

import enks

BENCH = Path(__file__).resolve().parents[1] / "bench"

LOOKED_UP = {
    "benchmarks": ("kalman_oracle",),
    "core": ("compute_gain", "additive_update", "predict_ensemble"),
    "iterative": ("compute_gain", "iterate_update"),
    "enkf": ("enkf_update",),
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


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing
    return tracing


def test_patch_table_traces_every_filter_step(tracing):
    # the names a traced run wraps must be the ones each step calls: a
    # call that bypasses them leaves its layer's metrics at 0.  On a
    # linear map enks-iter forms its step gain from moments, without
    # compute_gain; on the pendulum's map its passes call it
    steps = 3
    for problem in ("linear-gaussian", "pendulum"):
        dt = enks.benchmarks.build_problem(problem).default_dt
        cfg = enks.harness.ExperimentConfig(
            problem=problem, filters=enks.harness.FILTER_KINDS, N=8,
            horizon=dt * steps, emit_outputs=False)
        tracer = tracing.Tracer("names", enks.errors.NumericFailure)
        with tracing.patched(tracing.patches(tracer, enks)):
            enks.harness.run_experiment(cfg)
        spans = tracer.spans
        step_of = tracing.enclosing(spans, tracing.STEP_SPANS)
        kind_of = {i: tracing.STEP_SPANS[s[tracing.NAME]]
                   for i, s in enumerate(spans)
                   if s[tracing.NAME] in tracing.STEP_SPANS}
        assert sorted(kind_of.values()) == sorted(
            enks.harness.FILTER_KINDS * steps)
        under = {kind: set() for kind in enks.harness.FILTER_KINDS}
        for i, s in enumerate(spans):
            if step_of[i] >= 0 and step_of[i] != i:
                under[kind_of[step_of[i]]].add(s[tracing.NAME])
        for kind in enks.harness.FILTER_KINDS:
            assert "sde.predict_ensemble" in under[kind], (problem, kind)
        assert "core.compute_gain" in under["enks"], problem
        assert ("core.compute_gain" in under["enks-iter"]) == (
            problem == "pendulum")
        assert "core.additive_update" in under["enks"], problem
        assert "iterative.iterate_update" in under["enks-iter"], problem
        assert "enkf.enkf_update" in under["enkf"], problem
        # every pass of the pendulum's loop is one additive update, which
        # iterative.passes_per_step counts; on a linear map the step is one
        passes = sum(spans[s[tracing.PARENT]][tracing.NAME]
                     == "iterative.iterate_update" for s in spans
                     if s[tracing.NAME] == "core.additive_update")
        assert passes == steps * (1 if problem == "linear-gaussian"
                                  else cfg.kappa), problem
