import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from enks.core import FilterConfig
from enks.errors import NumericFailure
from enks.harness import (FILTER_KINDS, ExperimentConfig, convergence_sweep,
                          initial_ensemble, make_twin_data, run_experiment,
                          run_filter_series)
from enks.iterative import make_schedule
from enks.record import load_csv
from enks.rng import STEP_BASE, PERTURBATION_STREAM, RngStream, particle_streams

from oracles import StepKeyedNoise

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
        clean = np.array([problem.meas.h(truth[:, i], t)[0]
                          for i, t in enumerate(grid)])
        assert problem.noise_std[0] == pytest.approx(0.01 * clean.std())

    def test_run_from_persisted_dataset(self, tmp_path):
        # simulate -> load -> run must reproduce the direct run exactly
        from enks.cli import load_dataset, main
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
        report = convergence_sweep(self.base_cfg(), "N", [50, 100, 200, 400],
                                   repeats=5,
                                   error_fn=lambda v, r: 3.7 / np.sqrt(v))
        assert report.slope == pytest.approx(-0.5, abs=1e-12)
        assert np.exp(report.intercept) == pytest.approx(3.7, rel=1e-12)

    def test_injected_sqrt_dt_law(self):
        report = convergence_sweep(self.base_cfg(), "dt",
                                   [0.02, 0.01, 0.005, 0.0025], repeats=5,
                                   error_fn=lambda v, r: 0.9 * np.sqrt(v))
        assert report.slope == pytest.approx(0.5, abs=1e-12)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            convergence_sweep(self.base_cfg(), "N", [10, 20], repeats=5,
                              error_fn=lambda v, r: 1.0)
        with pytest.raises(ValueError):
            convergence_sweep(self.base_cfg(), "N", [10, 20, 40], repeats=4,
                              error_fn=lambda v, r: 1.0)
        with pytest.raises(ValueError):
            convergence_sweep(self.base_cfg(), "mass", [1, 2, 3], repeats=5,
                              error_fn=lambda v, r: 1.0)

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
        fcfg = FilterConfig(N=N, dt=grid[0], seed=seed)
        return problem, series, initial_ensemble(problem, N, seed), fcfg

    @pytest.mark.parametrize("kind", FILTER_KINDS)
    @pytest.mark.parametrize("problem_id", ["linear-gaussian", "frame4-damaged"])
    def test_matches_per_particle_noise_loop(self, problem_id, kind):
        # the default noise is the step-keyed panels, drawn here by the
        # loop over particles and steps
        problem, series, ens0, fcfg = self.setup_data(problem_id, 12, 0.7)
        runs = [run_filter_series(kind, problem, series, ens0, fcfg,
                                  schedule=make_schedule(3), streams=streams)
                for streams in (None, StepKeyedNoise(fcfg.seed, 12))]
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

        def read_key(self, size=None):
            read.append(self.stream_id)
            return draw(self, size)

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
    def test_one_cholesky_and_one_solve_per_analysis(self, kind):
        # cost guard: each analysis (an enks or enkf step, an enks-iter
        # pass) checks its denominator with one Cholesky factorization and
        # solves with one LU solve; the EnKF factors R once per run besides
        problem, series, ens0, fcfg = self.setup_data("frame4-damaged", 12, 0.05)
        kappa = 3
        analyses = len(series) * (kappa if kind == "enks-iter" else 1)
        with mock.patch.object(np.linalg, "cholesky",
                               wraps=np.linalg.cholesky) as cholesky, \
                mock.patch.object(np.linalg, "solve",
                                  wraps=np.linalg.solve) as solve:
            run_filter_series(kind, problem, series, ens0, fcfg,
                              schedule=make_schedule(kappa))
        assert cholesky.call_count == analyses + (kind == "enkf")
        assert solve.call_count == analyses

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
        assert kind in str(err)
        assert isinstance(err.__cause__, NumericFailure)

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
