import threading
import tracemalloc
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from enks import core, harness, iterative
from enks.benchmarks import build_problem
from enks.core import FilterConfig, FilterState, enks_step, make_initial_state
from enks.enkf import EnkfConfig, enkf_step, enkf_update
from enks.errors import NumericFailure
from enks.harness import (FILTER_KINDS, ExperimentConfig, convergence_sweep,
                          fit_power_law, initial_ensemble, make_twin_data,
                          run_experiment, run_filter_series)
from enks.iterative import iterate_update, iterative_enks_step, make_schedule
from enks.record import load_csv
from enks.rng import (INIT_ENSEMBLE_STREAM, PERTURBATION_STREAM, STEP_BASE,
                      RngStream, particle_streams)
from enks.sde import predict_ensemble

from oracles import FixedNoise, StepKeyedNoise

POPULATION_SEED = 2  # truth stays bounded through T = 5 for this seed


class TestExperimentConfig:
    def test_invalid_problem_rejected_before_simulation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(problem="no-such-problem")

    def test_invalid_filter(self):
        with pytest.raises(ValueError):
            ExperimentConfig(problem="population", filters=("bogus",))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(problem="population", alpha=1.5)
        with pytest.raises(ValueError):
            ExperimentConfig(problem="population", N=1)
        with pytest.raises(ValueError):
            ExperimentConfig(problem="population", dt=-0.1)


class TestRunExperiment:
    def test_population_paper_configuration(self, tmp_path):
        # N = 1000, dt = 0.1, T = 5: completes with one row block per step
        cfg = ExperimentConfig(problem="population", filters=("enks", "enkf"),
                               N=1000, dt=0.1, horizon=5.0,
                               seed=POPULATION_SEED, out_dir=str(tmp_path))
        record = run_experiment(cfg)
        assert record.steps.size == 50
        rows = (tmp_path / "population_rows.csv").read_text().splitlines()
        assert len(rows) == 1 + 50  # header + one channel x 50 steps
        assert (tmp_path / "population_summary.csv").exists()
        assert (tmp_path / "population_ch0.svg").exists()

    def test_byte_identical_reruns(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            cfg = ExperimentConfig(problem="population", filters=("enks",),
                                   N=200, horizon=2.0, seed=POPULATION_SEED,
                                   out_dir=str(out))
            run_experiment(cfg)
        assert (out_a / "population_rows.csv").read_bytes() == \
            (out_b / "population_rows.csv").read_bytes()

    def test_summary_consistent_with_rows(self, tmp_path):
        cfg = ExperimentConfig(problem="population", filters=("enks",),
                               N=100, horizon=2.0, seed=POPULATION_SEED,
                               out_dir=str(tmp_path))
        record = run_experiment(cfg)
        back = load_csv(tmp_path / "population_rows.csv")
        rec_rmse = record.summary_rmse()["enks"]
        from enks.record import rmse
        again = rmse(back.filter_means["enks"], back.truth)
        assert np.allclose(rec_rmse, again, rtol=1e-12)

    def test_frame20_damage_separation_majority_of_seeds(self):
        # stiffness estimate at the damaged storey ends below both
        # neighbors in two thirds of the seeds. Per seed that happens about
        # three times in four, so 20 of 30 seeds fails with probability
        # about 0.1 (binomial, p = 0.75), while a filter that sees the
        # damage only 3 times in 5 passes with probability 0.29 and one
        # that does not see it (p = 1/3) with probability 2e-4; the loop
        # stops once the bar is reached.
        n_seeds, need, wins = 30, 20, 0
        for seed in range(n_seeds):
            cfg = ExperimentConfig(problem="frame20-damaged", filters=("enks",),
                                   seed=seed, emit_outputs=False)
            rec = run_experiment(cfg)
            k = rec.filter_means["enks"][40:60, -1]
            wins += (k[9] < k[8]) and (k[9] < k[10])
            if wins == need:
                break
        assert wins >= need, f"separation in only {wins}/{n_seeds} seeds"

    def test_linear_gaussian_truth_from_prior(self):
        cfg = ExperimentConfig(problem="linear-gaussian", N=50, horizon=0.5,
                               seed=3, emit_outputs=False)
        problem, truth, series, grid = make_twin_data(cfg)
        assert truth.shape == (1, 50)
        assert len(series) == 50

    def test_relative_noise_rule(self):
        # frames and the oscillator default to noise_std = 1% of the
        # per-channel noise-free measurement signal's std over the run
        cfg = ExperimentConfig(problem="pendulum", N=50, horizon=1.0, seed=3,
                               emit_outputs=False)
        problem, truth, series, grid = make_twin_data(cfg)
        clean = problem.meas.h(truth, grid)[0]
        assert problem.noise_std[0] == pytest.approx(0.01 * clean.std())

    @pytest.mark.parametrize("problem_id", ["pendulum", "population"])
    def test_builds_the_problem_once_and_measures_the_truth_once(
            self, problem_id, monkeypatch):
        # cost guard: one run_experiment builds its problem once, and the
        # noise-free signal h(truth) is one call over the whole truth, also
        # where it first sets the 1%-of-signal noise (pendulum); every other
        # call of h maps the N-particle ensemble
        built, h_calls = [], []
        build = harness.build_problem

        def counted_build(*args, **kwargs):
            problem = build(*args, **kwargs)
            h = problem.meas.h

            def counted_h(x, t):
                h_calls.append((x, t))
                return h(x, t)
            problem.meas.h = counted_h
            built.append(problem)
            return problem

        monkeypatch.setattr(harness, "build_problem", counted_build)
        cfg = ExperimentConfig(problem=problem_id, filters=("enks",), N=20,
                               horizon=1.0, seed=POPULATION_SEED,
                               emit_outputs=False)
        record = run_experiment(cfg)
        assert len(built) == 1
        truth_calls = [(x, t) for x, t in h_calls if x.shape[1] != cfg.N]
        assert len(truth_calls) == 1
        x, t = truth_calls[0]
        assert np.array_equal(x, record.truth)
        assert np.array_equal(t, record.times)

    def test_run_from_persisted_dataset(self, tmp_path):
        # simulate -> load -> run must reproduce the direct run exactly
        from enks.cli import main
        from enks.record import load_dataset
        seed = POPULATION_SEED
        assert main(["simulate", "--problem", "population", "--horizon", "2.0",
                     "--seed", str(seed), "--out", str(tmp_path / "data")]) == 0
        data = load_dataset(tmp_path / "data")
        cfg = ExperimentConfig(problem="population", filters=("enks",), N=100,
                               horizon=2.0, seed=seed,
                               out_dir=str(tmp_path / "fromdata"))
        rec_loaded = run_experiment(cfg, data=data)
        cfg2 = ExperimentConfig(problem="population", filters=("enks",), N=100,
                                horizon=2.0, seed=seed,
                                out_dir=str(tmp_path / "direct"))
        rec_direct = run_experiment(cfg2)
        assert np.array_equal(rec_loaded.filter_means["enks"],
                              rec_direct.filter_means["enks"])
        assert (tmp_path / "fromdata" / "population_rows.csv").read_bytes() == \
            (tmp_path / "direct" / "population_rows.csv").read_bytes()


class TestConvergenceSweep:
    def base_cfg(self):
        return ExperimentConfig(problem="linear-gaussian", filters=("enks",),
                                horizon=1.0, emit_outputs=False)

    def test_injected_inverse_sqrt_law(self):
        values = np.array([50, 100, 200, 400])
        slope, intercept = fit_power_law(values, 3.7 / np.sqrt(values))
        assert slope == pytest.approx(-0.5, abs=1e-12)
        assert np.exp(intercept) == pytest.approx(3.7, rel=1e-12)

    def test_injected_sqrt_dt_law(self):
        values = np.array([0.02, 0.01, 0.005, 0.0025])
        slope, _ = fit_power_law(values, 0.9 * np.sqrt(values))
        assert slope == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
    def test_fit_rejects_a_non_positive_or_non_finite_error(self, bad):
        with pytest.raises(NumericFailure, match="non-positive or non-finite"):
            fit_power_law([1, 2, 4], [1.0, bad, 0.5])

    def test_preconditions(self):
        # each is raised before any run is simulated
        with pytest.raises(ValueError):
            convergence_sweep(self.base_cfg(), "N", [10, 20], repeats=5)
        with pytest.raises(ValueError):
            convergence_sweep(self.base_cfg(), "N", [10, 20, 40], repeats=4)
        with pytest.raises(ValueError):
            convergence_sweep(self.base_cfg(), "mass", [1, 2, 3], repeats=5)

    def test_real_small_N_sweep_runs(self):
        cfg = ExperimentConfig(problem="linear-gaussian", filters=("enks",),
                               horizon=0.5, emit_outputs=False)
        report = convergence_sweep(cfg, "N", [20, 40, 80], repeats=5)
        assert report.errors.shape == (3, 5)
        assert np.isfinite(report.mean_errors).all()
        assert np.isfinite(report.slope)

    def test_linear_gaussian_n_sweep_references_each_filter_limit(
            self, monkeypatch):
        # the EnKF converges to the Kalman mean, the EnKS filters to the
        # large-N limit of their own gain
        from enks import harness
        from enks.iterative import make_schedule
        calls = []
        kalman, limit = harness.kalman_oracle, harness.enks_limit_oracle

        def kalman_spy(*args, **kw):
            calls.append("kalman")
            return kalman(*args, **kw)

        def limit_spy(*args, **kw):
            calls.append(("limit", tuple(kw["betas"])))
            return limit(*args, **kw)

        monkeypatch.setattr(harness, "kalman_oracle", kalman_spy)
        monkeypatch.setattr(harness, "enks_limit_oracle", limit_spy)
        expected = {"enkf": "kalman", "enks": ("limit", (1.0,)),
                    "enks-iter": ("limit", make_schedule(3).betas)}
        for kind, ref in expected.items():
            calls.clear()
            cfg = ExperimentConfig(problem="linear-gaussian", filters=(kind,),
                                   kappa=3, horizon=0.1, emit_outputs=False)
            report = convergence_sweep(cfg, "N", [10, 20, 40], repeats=5)
            assert calls == [ref] * 5, kind
            assert np.isfinite(report.slope)

    def test_real_small_dt_sweep_runs(self):
        cfg = ExperimentConfig(problem="linear-gaussian", filters=("enks",),
                               N=50, horizon=0.5, emit_outputs=False)
        report = convergence_sweep(cfg, "dt", [0.05, 0.025, 0.0125],
                                   repeats=5, ref_factor=5)
        assert report.errors.shape == (3, 5)
        assert np.isfinite(report.mean_errors).all()


class TestRunFilterSeries:
    def setup_data(self, problem, N, horizon, seed=3):
        cfg = ExperimentConfig(problem=problem, N=N, horizon=horizon,
                               seed=seed, emit_outputs=False)
        problem, _, series, grid = make_twin_data(cfg)
        fcfg = FilterConfig(dt=grid[0], seed=seed)
        return problem, series, initial_ensemble(problem, N, seed), fcfg

    @pytest.mark.parametrize("kind", FILTER_KINDS)
    @pytest.mark.parametrize("problem_id", ["linear-gaussian", "frame4-damaged",
                                            "frame20-damaged"])
    def test_matches_per_particle_noise_loop(self, problem_id, kind):
        # the default noise is the step-keyed panels, drawn here by the
        # loop over particles and steps; frame20-damaged's panels are
        # (700, 60)
        N, horizon = (700, 0.03) if problem_id == "frame20-damaged" else (12, 0.7)
        problem, series, ens0, fcfg = self.setup_data(problem_id, N, horizon)
        runs = [run_filter_series(kind, problem, series, ens0, fcfg,
                                  schedule=make_schedule(3), streams=streams)
                for streams in (None, StepKeyedNoise(fcfg.seed, N))]
        (means, stds, _), (means_o, stds_o, _) = runs
        assert np.array_equal(means, means_o)
        assert np.array_equal(stds, stds_o)

    @pytest.mark.parametrize("kind", FILTER_KINDS)
    @pytest.mark.parametrize("N", [2, 500])
    def test_noise_streams_per_run_do_not_grow_with_n(self, N, kind):
        # cost guard: whatever N, a run builds one ensemble-noise stream and
        # reads it once for each of its M * s fine steps; the EnKF builds
        # its one perturbation stream besides
        problem, series, ens0, fcfg = self.setup_data("linear-gaussian", N, 0.05)
        built, read = [], []
        init, draw = RngStream.__init__, RngStream.standard_normal

        def build(self, seed, stream_id=0):
            built.append(stream_id)
            init(self, seed, stream_id)

        def read_key(self, size=None, out=None):
            read.append(self.stream_id)
            return draw(self, size, out=out)

        for stride in (1, 3):
            built.clear()
            read.clear()
            with mock.patch.object(RngStream, "__init__", build), \
                    mock.patch.object(RngStream, "standard_normal", read_key):
                streams = (None if stride == 1  # the default noise
                           else particle_streams(fcfg.seed, N, stride))
                run_filter_series(kind, problem, series, ens0, fcfg,
                                  schedule=make_schedule(3), streams=streams)
            assert built == [STEP_BASE] + (
                [PERTURBATION_STREAM] if kind == "enkf" else [])
            assert [k - STEP_BASE for k in read if k >= STEP_BASE] == list(
                range(len(series) * stride))

    @pytest.mark.parametrize("kind", FILTER_KINDS)
    @pytest.mark.parametrize("outcome", ["returns", "fails"])
    def test_one_blas_thread_ends_with_the_run(self, outcome, kind):
        # a run with wide panels (frame20-damaged at N=700) or narrow ones
        # (linear-Gaussian at N=50) runs OpenBLAS on one thread during every
        # step; after it, returned or failed mid-run on an overflowing h, no
        # thread is left and OpenBLAS runs on the thread count it had before
        get_blas, set_blas = harness._openblas_threads()
        name = {"enks": "enks_step", "enks-iter": "iterative_enks_step",
                "enkf": "enkf_step"}[kind]
        step, during = getattr(harness, name), []

        def recorded(*args, **kwargs):
            during.append(get_blas())
            return step(*args, **kwargs)

        for problem_id, N in (("frame20-damaged", 700), ("linear-gaussian", 50)):
            problem, series, ens0, fcfg = self.setup_data(problem_id, N, 0.04)
            if outcome == "fails":
                h = problem.meas.h

                def overflowing(x, t, h=h):  # from the step ending at 0.02 on
                    return h(x, t) * (1e200 if t > 0.015 else 1.0)

                problem = replace(problem, meas=replace(problem.meas,
                                                        h=overflowing))
            found, before = get_blas(), threading.enumerate()
            during.clear()
            try:
                set_blas(2)
                with mock.patch.object(harness, name, recorded):
                    if outcome == "fails":
                        with pytest.raises(NumericFailure) as info:
                            run_filter_series(kind, problem, series, ens0, fcfg,
                                              schedule=make_schedule(3))
                        assert info.value.step == 1
                    else:
                        run_filter_series(kind, problem, series, ens0, fcfg,
                                          schedule=make_schedule(3))
                assert threading.enumerate() == before
                assert get_blas() == 2
                assert during == [1] * (2 if outcome == "fails"
                                        else len(series))
            finally:
                set_blas(found)

    @pytest.mark.parametrize("kind", FILTER_KINDS)
    def test_bits_do_not_depend_on_the_blas_threads_found(self, kind):
        # frame20-damaged's analysis at N=500 and two OpenBLAS threads sums
        # in another order than at one, so only a run that sets one thread
        # whatever it finds gives the same bits on every host
        get_blas, set_blas = harness._openblas_threads()
        problem, series, ens0, fcfg = self.setup_data("frame20-damaged", 500,
                                                      0.05)
        found, runs = get_blas(), []
        try:
            for threads in (2, 1):
                set_blas(threads)
                runs.append(run_filter_series(kind, problem, series, ens0, fcfg,
                                              schedule=make_schedule(10)))
        finally:
            set_blas(found)
        (means_2, stds_2, _), (means_1, stds_1, _) = runs
        assert len(series) == 5
        assert np.array_equal(means_2, means_1)
        assert np.array_equal(stds_2, stds_1)

    def test_no_pin_without_the_blas_symbols(self):
        # a numpy that does not export OpenBLAS's thread count runs every
        # step at the count it has
        get_blas, set_blas = harness._openblas_threads()
        problem, series, ens0, fcfg = self.setup_data("frame20-damaged", 700,
                                                      0.04)
        step, during = harness.enks_step, []

        def recorded(*args, **kwargs):
            during.append(get_blas())
            return step(*args, **kwargs)

        found = get_blas()
        try:
            set_blas(2)
            with mock.patch.object(harness, "_openblas_threads",
                                   return_value=None), \
                    mock.patch.object(harness, "enks_step", recorded):
                run_filter_series("enks", problem, series, ens0, fcfg)
            assert get_blas() == 2
        finally:
            set_blas(found)
        assert during == [2] * len(series)

    @pytest.mark.parametrize("kind", FILTER_KINDS)
    def test_one_cholesky_and_one_inverse_per_analysis(self, kind):
        # cost guard: each analysis (an enks or enkf step, an enks-iter
        # step at kappa = 1, an enks-iter pass on the pendulum's map)
        # checks its denominator with one Cholesky factorization and
        # inverts the factor once, both numpy's LAPACK gufuncs called
        # directly, and solves nothing.  An enks-iter step on a linear map
        # at kappa >= 2 factors and inverts its first denominator,
        # diagonalizes the whitened moment with one symmetric eigensolve,
        # and solves nothing.  The EnKF factors R once per run besides,
        # through np.linalg.cholesky, and nothing goes through
        # np.linalg.solve
        cases = ([("frame4-damaged", 1), ("frame4-damaged", 3),
                  ("frame4-damaged", 10), ("pendulum", 3)]
                 if kind == "enks-iter" else [("frame4-damaged", 3)])
        for problem_id, kappa in cases:
            problem, series, ens0, fcfg = self.setup_data(problem_id, 12, 0.05)
            if kind == "enks-iter" and problem.meas.linear and kappa > 1:
                per_step = {"cholesky_lo": 1, "inv": 1, "eigh_lo": 1,
                            "solve": 0}
            else:
                passes = kappa if kind == "enks-iter" else 1
                per_step = {"cholesky_lo": passes, "inv": passes,
                            "eigh_lo": 0, "solve": 0}
            lapack = mock.Mock(wraps=core._umath_linalg)
            with mock.patch.object(core, "_umath_linalg", lapack), \
                    mock.patch.object(np.linalg, "cholesky",
                                      wraps=np.linalg.cholesky) as cholesky, \
                    mock.patch.object(np.linalg, "solve",
                                      wraps=np.linalg.solve) as solve:
                run_filter_series(kind, problem, series, ens0, fcfg,
                                  schedule=make_schedule(kappa))
            calls = {name: getattr(lapack, name).call_count
                     for name in per_step}
            assert calls == {name: len(series) * count
                             for name, count in per_step.items()}, (
                problem_id, kappa)
            assert cholesky.call_count == (kind == "enkf")
            assert solve.call_count == 0

    def test_iterative_run_computes_traces_only_on_request(self):
        # cost guard: an enks-iter run reaches harness.iterative_enks_step
        # and iterative.iterate_update, the names the bench tracer wraps,
        # once per step; its passes take their two trace norms only when
        # traces are collected, and the means and stds are the same bits
        # either way
        problem, series, ens0, fcfg = self.setup_data("frame4-damaged", 12,
                                                      0.05)
        kappa, runs = 3, []
        for collect in (False, True):
            with mock.patch.object(harness, "iterative_enks_step",
                                   wraps=harness.iterative_enks_step) as step, \
                    mock.patch.object(iterative, "iterate_update",
                                      wraps=iterative.iterate_update) as update, \
                    mock.patch.object(np.linalg, "norm",
                                      wraps=np.linalg.norm) as norm:
                runs.append(run_filter_series(
                    "enks-iter", problem, series, ens0, fcfg,
                    schedule=make_schedule(kappa), collect_traces=collect))
            assert step.call_count == update.call_count == len(series) == 5
            assert norm.call_count == 2 * kappa * len(series) * collect
        (means, stds, none), (means_t, stds_t, traces) = runs
        assert none is None and len(traces) == len(series)
        assert np.array_equal(means, means_t) and np.array_equal(stds, stds_t)

    @pytest.mark.parametrize("kind", FILTER_KINDS)
    def test_step_peak_memory_stays_under_2_5_ensembles(self, kind):
        # cost guard: past its first two steps, a frame20-damaged step
        # (n = 80, N = 700) allocates at its peak less than two and a half
        # ensembles' bytes: the drift, the new ensemble and arrays of the
        # measurement size.  The run's step predicts in place over the
        # run's ensemble, the increments live in the noise's panel, and
        # the analysis centres only the measurement image.  Measured: 1.73x
        # for each filter; 1.90x when the drift array outlives the drift
        # term; 2.57x for enks when it predicts into a new array; 4.8x,
        # 5.3x and 4.8x when a step makes its own prediction, centred copy
        # and update arrays.
        problem, series, ens0, fcfg = self.setup_data("frame20-damaged", 700,
                                                      0.06)
        name = {"enks": "enks_step", "enks-iter": "iterative_enks_step",
                "enkf": "enkf_step"}[kind]
        step, peaks = getattr(harness, name), []

        def measured(*args, **kwargs):
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = step(*args, **kwargs)
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
            return out

        tracemalloc.start()
        try:
            with mock.patch.object(harness, name, measured):
                run_filter_series(kind, problem, series, ens0, fcfg,
                                  schedule=make_schedule(10))
        finally:
            tracemalloc.stop()
        assert len(peaks) == len(series) == 6
        assert max(peaks[2:]) < 2.5 * ens0.nbytes, [p / ens0.nbytes
                                                     for p in peaks]

    @pytest.mark.parametrize("kind", FILTER_KINDS)
    def test_run_peak_memory_stays_under_4_ensembles(self, kind):
        # cost guard over a whole frame20-damaged run (n = 80, q = m = 60,
        # N = 700, 6 steps): at its peak the run holds its own ensemble,
        # which the step predicts over in place, the noise's (N, m) panel
        # and the drift, or the new ensemble, and a step's temporaries:
        # less than four ensembles' bytes besides ens0.  Measured:
        # 3.51-3.53x for the three filters; 4.51-4.54x when the previous
        # state outlives the step's moments, or with a scratch the step
        # predicts into; 6.26-6.29x with a two-ensemble scratch and an
        # (m, N) increment buffer besides the panel
        problem, series, ens0, fcfg = self.setup_data("frame20-damaged", 700,
                                                      0.06)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            run_filter_series(kind, problem, series, ens0, fcfg,
                              schedule=make_schedule(10))
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert len(series) == 6
        assert peak < 4 * ens0.nbytes, peak / ens0.nbytes

    def test_pendulum_pass_loop_peak_memory_stays_under_5_ensembles(self):
        # cost guard over a pendulum enks-iter run (n = 4, q = 1, N =
        # 20,000, 6 steps, kappa = 10), whose passes run on the ensemble:
        # each pass is one additive update of the previous iterate, which
        # starts as the prediction, so the run holds the prediction, the
        # iterate and the next one with a step's temporaries.  Measured:
        # 4.51x; 5.51x when the loop updates a copy of the prediction in
        # place
        problem, series, ens0, fcfg = self.setup_data("pendulum", 20_000,
                                                      0.06)
        assert not problem.meas.linear
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            run_filter_series("enks-iter", problem, series, ens0, fcfg,
                              schedule=make_schedule(10))
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert len(series) == 6
        assert peak < 5 * ens0.nbytes, peak / ens0.nbytes

    @pytest.mark.parametrize("kind", FILTER_KINDS)
    def test_run_leaves_ens0_unchanged(self, kind):
        # a run predicts over its own copy of ens0, never over the
        # caller's array: ens0 keeps its bytes, and a second run from it
        # gives the same means and stds
        problem, series, ens0, fcfg = self.setup_data("frame4-damaged", 12,
                                                      0.1)
        before = ens0.tobytes()
        first = run_filter_series(kind, problem, series, ens0, fcfg,
                                  schedule=make_schedule(3))
        assert ens0.tobytes() == before
        second = run_filter_series(kind, problem, series, ens0, fcfg,
                                   schedule=make_schedule(3))
        assert ens0.tobytes() == before
        assert np.array_equal(first[0], second[0])
        assert np.array_equal(first[1], second[1])

    @pytest.mark.parametrize("kind", FILTER_KINDS)
    def test_failure_carries_filter_step_and_particle(self, kind):
        problem, series, ens0, fcfg = self.setup_data("linear-gaussian", 8, 0.1)
        proc = problem.proc_filter

        def blowup(x, t):
            out = -x
            if t > 0.025:  # the step starting at t = 0.03, step index 3
                out[:, 5] = np.inf
            return out

        problem = replace(problem, proc_filter=replace(proc,
                                                       drift_ensemble=blowup))
        with pytest.raises(NumericFailure) as info:
            run_filter_series(kind, problem, series, ens0, fcfg,
                              schedule=make_schedule(3))
        err = info.value
        assert (err.step, err.particle) == (3, 5)
        assert err.t == pytest.approx(series.times[3])
        assert kind in str(err)
        assert isinstance(err.__cause__, NumericFailure)

    @pytest.mark.parametrize("kind", FILTER_KINDS)
    def test_analysis_failure_carries_filter_step_and_particle(self, kind):
        # a non-finite particle in a step's analysis (particle 5 of step 3,
        # put into the update's result or the EnKF's perturbations) fails
        # the step's own finite check, which names the particle; the run
        # re-raises it with the filter and the step.  On a linear map
        # enks-iter ends in one additive update; on the pendulum's its
        # pass loop checks each of its kappa = 3 updates, here the first
        # of step 3
        problems = ["linear-gaussian"] + (["pendulum"] if kind == "enks-iter"
                                          else [])
        for problem_id in problems:
            self.check_analysis_failure(kind, problem_id)

    def check_analysis_failure(self, kind, problem_id):
        problem, series, ens0, fcfg = self.setup_data(problem_id, 8, 0.1)
        passes = 1 if problem.meas.linear else 3
        calls = []

        def poisoned(x):
            calls.append(None)
            if len(calls) == 3 * passes + 1:
                x[:, 5] = np.nan
            return x

        if kind == "enkf":
            class Perturbations:
                def __init__(self, stream):
                    self.stream = stream

                def standard_normal(self, shape):
                    return poisoned(self.stream.standard_normal(shape))

            step = harness.enkf_step
            owner, name = harness, "enkf_step"

            def patched(state, proc, meas, y, cfg, noise, perturb, dt,
                        **kwargs):
                return step(state, proc, meas, y, cfg, noise,
                            Perturbations(perturb), dt, **kwargs)
        else:
            owner = core if kind == "enks" else iterative
            name, update = "additive_update", owner.additive_update

            def patched(*args):
                return poisoned(update(*args))

        with mock.patch.object(owner, name, patched), \
                pytest.raises(NumericFailure) as info:
            run_filter_series(kind, problem, series, ens0, fcfg,
                              schedule=make_schedule(3))
        err, cause = info.value, info.value.__cause__
        assert (err.step, err.particle, cause.particle) == (3, 5, 5)
        assert err.t == pytest.approx(series.times[3])
        assert str(cause).startswith({
            "enks": "non-finite ensemble after update",
            "enks-iter": "non-finite iterate",
            "enkf": "non-finite analysis ensemble"}[kind])

    @pytest.mark.parametrize("kind", FILTER_KINDS)
    def test_overflowing_ensemble_fails_without_warnings(self, kind):
        # finite members whose statistics overflow: a NumericFailure, and
        # no numpy RuntimeWarning on the way
        problem, series, ens0, fcfg = self.setup_data("linear-gaussian", 8, 0.1)
        ens0 = 1e160 * np.array([[1.0, -1.0] * 4])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericFailure) as info:
                run_filter_series(kind, problem, series, ens0, fcfg,
                                  schedule=make_schedule(3))
        assert info.value.step == 0
        assert info.value.t == pytest.approx(series.times[0])

    @pytest.mark.parametrize("kind", FILTER_KINDS)
    def test_overflowing_moments_fail_the_step_that_made_them(self, kind):
        # a two-state model measuring x[1] alone, N = 8: the unmeasured
        # x[0] of one particle grows a hundredfold a step from 1e150, so
        # every step succeeds with finite entries, and the recorded
        # moments overflow from step 2 (1e156 squared).  The run ends
        # there with a NumericFailure naming the filter, the step and its
        # time, and no numpy warning on the way
        from enks.benchmarks import Problem
        from enks.models import (MeasurementModel, MeasurementSeries,
                                 ProcessModel)
        dt, N, M = 0.01, 8, 5
        growth = np.array([[99.0 / dt], [0.0]])
        proc = ProcessModel(n=2, m=1, drift_ensemble=lambda x, t: growth * x,
                            constant_diffusion=np.zeros((2, 1)))
        meas = MeasurementModel(q=1, h=lambda x, t: x[1:], nu=np.eye(1),
                                dt_scale=dt, linear=True)
        problem = Problem(name="two-state", proc_truth=proc, proc_filter=proc,
                          meas=meas, x0_truth=np.zeros(2),
                          init_mean=np.zeros(2), init_spread=np.ones(2),
                          channel_names=["x0", "x1"],
                          noise_std=np.array([0.1]))
        series = MeasurementSeries(times=dt * np.arange(1, M + 1),
                                   values=np.zeros((1, M)))
        ens0 = np.zeros((2, N))
        ens0[0, 5] = 1e150
        fcfg = FilterConfig(dt=dt, seed=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericFailure) as info:
                run_filter_series(kind, problem, series, ens0, fcfg,
                                  schedule=make_schedule(3))
        err = info.value
        assert str(err).startswith(f"{kind} filter failed step=2 ")
        assert err.step == 2 and err.particle is None
        assert err.t == pytest.approx(series.times[2])
        assert str(err.__cause__) == "ensemble moments overflow"
        # two steps fewer, the same run records finite moments
        means, stds, _ = run_filter_series(
            kind, problem, MeasurementSeries(series.times[:2],
                                             series.values[:, :2]),
            ens0, fcfg, schedule=make_schedule(3))
        assert np.isfinite(stds).all() and stds[0, 1] > 1e153


STEP_CALLS =("predict_ensemble", "enks_step", "iterate_update",
              "iterative_enks_step", "enkf_step", "enkf_update")


@pytest.mark.parametrize("name", STEP_CALLS)
@pytest.mark.parametrize("problem_id", ["frame4-damaged", "population"])
def test_steps_leave_their_inputs_unchanged(problem_id, name):
    # without ``consume`` the in-place work of a step touches only arrays
    # it made: the caller's ensemble, prediction, measurement image,
    # observation and increments read the same after two calls from the
    # same state, and the second call leaves the first call's result
    # alone.  Population's h returns its input, so there h_pred is pred.
    N = 12
    cfg = ExperimentConfig(problem=problem_id, N=N, horizon=0.1,
                           seed=POPULATION_SEED, emit_outputs=False)
    problem, _, series, grid = make_twin_data(cfg)
    proc, meas, t1 = problem.proc_filter, problem.meas, grid[0]
    fcfg = FilterConfig(dt=t1, seed=cfg.seed)
    ens = initial_ensemble(problem, N, cfg.seed)
    dB = np.sqrt(t1) * RngStream(7, 2).standard_normal((proc.m, N))
    pred = predict_ensemble(proc, ens, 0.0, t1, particle_streams(cfg.seed, N))
    h_pred = meas.evaluate(pred, t1)
    assert (h_pred is pred) == (problem_id == "population")
    y = series.values[:, 0]
    state = make_initial_state(ens, meas, fcfg)
    enkf_cfg = EnkfConfig(R=np.diag(problem.noise_std ** 2))
    enkf_state = FilterState(0.0, ens, enkf_cfg.R)
    assert state.ensemble is ens and enkf_state.ensemble is ens
    schedule = make_schedule(3)

    def perturb():
        return RngStream(cfg.seed, PERTURBATION_STREAM)

    calls = {
        "predict_ensemble": lambda: predict_ensemble(proc, ens, 0.0, t1,
                                                     FixedNoise(dB)),
        "enks_step": lambda: enks_step(state, proc, meas, y, fcfg,
                                       FixedNoise(dB)).ensemble,
        "iterate_update": lambda: iterate_update(
            pred, h_pred, state, y, schedule, meas, fcfg, t1)[0],
        "iterative_enks_step": lambda: iterative_enks_step(
            state, proc, meas, y, fcfg, FixedNoise(dB), schedule)[0].ensemble,
        "enkf_step": lambda: enkf_step(enkf_state, proc, meas, y, enkf_cfg,
                                       FixedNoise(dB), perturb(),
                                       t1).ensemble,
        "enkf_update": lambda: enkf_update(pred, h_pred, y, enkf_cfg,
                                           perturb()),
    }
    inputs = (ens, pred, h_pred, y, dB)
    before = [a.copy() for a in inputs]
    first = calls[name]()
    kept = first.copy()
    second = calls[name]()
    for a, b in zip(inputs, before):
        assert np.array_equal(a, b)
    assert not np.shares_memory(first, second)
    assert np.array_equal(first, kept) and np.array_equal(second, kept)


@pytest.mark.parametrize("problem_id, N", [("frame20-damaged", 700),
                                           ("frame50", 800)])
def test_initial_ensemble_is_one_array_with_the_bits_of_its_formula(problem_id,
                                                                    N):
    # set-up draws one (n, N) panel and scales and shifts it in place: the
    # bits of mean + spread * draw, with about one ensemble's bytes at its
    # peak (plus about 64 KB that a stream's generator takes).  Measured:
    # 1.14x at frame20-damaged and 1.05x at frame50; 2.14x and 2.05x with
    # the formula's temporaries
    problem = build_problem(problem_id)
    draw = RngStream(5, INIT_ENSEMBLE_STREAM).standard_normal(
        (problem.init_mean.size, N))
    expected = (problem.init_mean[:, None]
                + problem.init_spread[:, None] * draw)
    tracemalloc.start()
    try:
        ens = initial_ensemble(problem, N, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(ens, expected)
    assert peak < 1.25 * ens.nbytes, peak / ens.nbytes
