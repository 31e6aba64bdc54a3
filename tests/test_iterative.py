from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enks.core import (FilterConfig, FilterState, additive_update,
                       compute_gain, enks_step, make_initial_state)
from enks.iterative import (AnnealingSchedule, iterate_update,
                            iterative_enks_step, make_schedule)
from enks.models import MeasurementModel, ProcessModel
from enks.rng import RngStream, particle_streams

from oracles import gain_oracle


class TestMakeSchedule:
    def test_single_iteration_is_undamped(self):
        assert make_schedule(1).betas == (1.0,)

    def test_kappa_ten_closed_form(self):
        sched = make_schedule(10)
        assert sched.betas[9] == 1.0
        assert sched.betas[8] == pytest.approx(np.exp(-1))
        assert sched.betas[0] == pytest.approx(np.exp(-9))
        assert all(b2 > b1 for b1, b2 in zip(sched.betas, sched.betas[1:]))

    def test_invalid_kappa(self):
        with pytest.raises(ValueError):
            make_schedule(0)

    @given(st.integers(min_value=1, max_value=50))
    @settings(max_examples=50, deadline=None)
    def test_schedule_invariants(self, kappa):
        sched = make_schedule(kappa)
        assert sched.kappa == kappa
        assert sched.betas[-1] == 1.0
        assert all(b > 0 for b in sched.betas)
        assert all(b2 >= b1 for b1, b2 in zip(sched.betas, sched.betas[1:]))

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            AnnealingSchedule(betas=(0.5, 0.4, 1.0))  # decreasing
        with pytest.raises(ValueError):
            AnnealingSchedule(betas=(0.5, 0.9))  # does not end at 1
        with pytest.raises(ValueError):
            AnnealingSchedule(betas=(-0.1, 1.0))  # nonpositive


def make_state(t_curr, noise_term, n=1):
    """Gain state of ``iterate_update``: tc = ``t_curr`` and the noise term."""
    return FilterState(t_curr=t_curr, ensemble=np.zeros((n, 2)),
                       noise_term=np.atleast_2d(noise_term))


def identity_meas(n, dt=0.1):
    return MeasurementModel(q=n, h=lambda x, t: x, nu=np.eye(n), dt_scale=dt,
                            h_ensemble=lambda x, t: x)


class TestIterativeGain:
    def test_first_iterate_equals_noniterative_gain(self):
        # one undamped pass applies the plain gain to the predicted image
        rng = np.random.default_rng(2)
        pred = rng.standard_normal((3, 10))
        h = rng.standard_normal((2, 10))
        y = rng.standard_normal(2)
        cfg = FilterConfig(N=10, dt=0.1, alpha=0.7)
        state = make_state(0.1, 0.3 * np.eye(2), n=3)
        meas = identity_meas(2)
        out, _ = iterate_update(pred, h, state, y, make_schedule(1), meas, cfg)
        G = compute_gain(pred, h, 0.1, cfg, 0.3 * np.eye(2))
        assert np.array_equal(out, additive_update(pred, G, y, h))

    def test_zero_spread_iterate(self):
        pred = np.tile(np.array([[2.0]]), (1, 5))
        h = np.tile(np.array([[1.0]]), (1, 5))
        cfg = FilterConfig(N=5, dt=0.1, alpha=0.5)
        G = compute_gain(pred, h, 0.1, cfg, 0.5 * np.eye(1))
        assert np.array_equal(G, np.zeros((1, 1)))

    def test_second_iterate_matches_oracle(self):
        # one damped pass by hand, then the gain on the new iterate must
        # match the straight-line oracle evaluated on that iterate
        pred = np.array([[1.0, 3.0]])
        h0 = pred.copy()  # identity measurement
        cfg = FilterConfig(N=2, dt=1.0, alpha=0.5)
        sig = np.array([[1.0]])
        y = np.array([2.0])
        beta0 = np.exp(-1)
        G0 = compute_gain(pred, h0, 1.0, cfg, 0.5 * sig)
        ens1 = additive_update(pred, beta0 * G0, y, h0)
        G1 = compute_gain(ens1, ens1, 1.0, cfg, 0.5 * sig)
        oracle = gain_oracle(ens1, ens1, [0.0], [0.0], 1.0, 0.0, 0.5, sig)
        assert np.allclose(G1, oracle, atol=1e-13)


class TestIterateUpdate:
    def setup_method(self):
        self.proc = ProcessModel(n=1, m=1, drift=lambda x, t: -x,
                                 diffusion=lambda x, t: np.eye(1),
                                 drift_ensemble=lambda x, t: -x,
                                 constant_diffusion=np.eye(1))
        self.meas = identity_meas(1, dt=0.01)

    def test_kappa_one_reduces_to_noniterative_bitwise(self):
        N = 32
        ens0 = RngStream(3, 2).standard_normal((1, N))
        y = np.array([0.7])
        cfg = FilterConfig(N=N, dt=0.01, alpha=0.8, seed=3)

        s_plain = make_initial_state(ens0.copy(), self.meas, cfg)
        out_plain = enks_step(s_plain, self.proc, self.meas, y, cfg,
                              particle_streams(3, N))
        s_iter = make_initial_state(ens0.copy(), self.meas, cfg)
        out_iter, trace = iterative_enks_step(s_iter, self.proc, self.meas, y,
                                              cfg, particle_streams(3, N),
                                              make_schedule(1))
        assert np.array_equal(out_plain.ensemble, out_iter.ensemble)
        assert out_plain.t_curr == out_iter.t_curr
        assert trace.residuals.shape == (1,)

    def test_step_evaluates_measurement_map_once_per_pass(self):
        # the first pass reuses the predicted image the step computed
        N, kappa = 8, 4
        cfg = FilterConfig(N=N, dt=0.01, alpha=0.8, seed=3)
        state = make_initial_state(RngStream(3, 2).standard_normal((1, N)),
                                   self.meas, cfg)
        evaluate = MeasurementModel.evaluate
        with mock.patch.object(MeasurementModel, "evaluate", autospec=True,
                               side_effect=evaluate) as counted:
            iterative_enks_step(state, self.proc, self.meas, np.array([0.7]),
                                cfg, particle_streams(3, N), make_schedule(kappa))
        assert counted.call_count == kappa

    def test_trace_records_increment_and_mean_innovation(self):
        # on a frame4-damaged step, residuals[k] is the distance between
        # consecutive iterates and innovation_norms[k] the norm of
        # y - mean h(iterate_k); the measurement map sees every iterate
        from enks.harness import (ExperimentConfig, initial_ensemble,
                                  make_twin_data)
        N, seed, kappa = 50, 1, 10
        cfg = ExperimentConfig(problem="frame4-damaged", filters=("enks-iter",),
                               N=N, seed=seed, emit_outputs=False)
        problem, truth, series, grid = make_twin_data(cfg)
        fcfg = FilterConfig(N=N, dt=grid[0], seed=seed)
        state = make_initial_state(initial_ensemble(problem, N, seed),
                                   problem.meas, fcfg)
        seen = []
        evaluate = MeasurementModel.evaluate

        def record(meas, ens, t):
            h = evaluate(meas, ens, t)
            seen.append((ens.copy(), h))
            return h

        y = series.values[:, 0]
        with mock.patch.object(MeasurementModel, "evaluate", autospec=True,
                               side_effect=record):
            new, trace = iterative_enks_step(state, problem.proc_filter,
                                             problem.meas, y, fcfg,
                                             particle_streams(seed, N),
                                             make_schedule(kappa))
        iterates = [ens for ens, _ in seen] + [new.ensemble]
        assert len(iterates) == kappa + 1
        residuals = np.array([np.linalg.norm(b - a)
                              for a, b in zip(iterates, iterates[1:])])
        innovations = [np.linalg.norm(y - h.mean(axis=1)) for _, h in seen]
        # iterate_{k+1} is ens + incr rounded, off by at most half an ulp
        # per entry; the early increments are 1e-8 of the ensemble's norm,
        # so that rounding, not rtol, bounds their difference
        rounding = np.finfo(float).eps * np.array(
            [np.linalg.norm(b) for b in iterates[1:]])
        assert np.all(np.abs(trace.residuals - residuals)
                      <= 1e-12 * residuals + rounding)
        assert np.allclose(trace.innovation_norms, innovations, rtol=1e-12,
                           atol=0)

    def test_exact_measurement_leaves_ensemble_fixed(self):
        # every particle already produces the observation: all passes no-op
        N = 8
        ens = np.tile(np.array([[1.5]]), (1, N))
        state = make_state(0.01, 0.2 * self.meas.sigma_gram)
        cfg = FilterConfig(N=N, dt=0.01, alpha=0.8)
        h = self.meas.evaluate(ens, state.t_curr)
        out, trace = iterate_update(ens, h, state, np.array([1.5]),
                                    make_schedule(5), self.meas, cfg)
        assert np.array_equal(out, ens)
        assert np.allclose(trace.residuals, 0.0)
        assert np.allclose(trace.innovation_norms, 0.0)

    def test_trace_lengths_match_kappa(self):
        N = 16
        ens = RngStream(8, 2).standard_normal((1, N))
        state = make_state(0.01, 0.2 * self.meas.sigma_gram)
        cfg = FilterConfig(N=N, dt=0.01, alpha=0.8)
        for kappa in (1, 3, 10):
            h = self.meas.evaluate(ens, state.t_curr)
            out, trace = iterate_update(ens, h, state, np.array([0.2]),
                                        make_schedule(kappa), self.meas, cfg)
            assert trace.residuals.shape == (kappa,)
            assert trace.innovation_norms.shape == (kappa,)
            assert np.isfinite(out).all()

    def test_boundedness_large_kappa(self):
        # iterates stay finite through kappa = 50 on an assimilation step
        N = 24
        ens = 2.1 + 0.05 * RngStream(12, 2).standard_normal((1, N))
        cfg = FilterConfig(N=N, dt=0.1, alpha=0.8)
        meas = identity_meas(1, dt=0.1)
        state = make_state(0.1, 0.2 * meas.sigma_gram)
        out, trace = iterate_update(ens, meas.evaluate(ens, state.t_curr),
                                    state, np.array([2.3]),
                                    make_schedule(50), meas, cfg)
        assert np.isfinite(out).all()
        assert np.isfinite(trace.residuals).all()

    def test_final_innovation_beats_plain_in_majority_of_seeds(self):
        # paired twin experiments: the annealed update drives the final
        # measurement mismatch at least as low as the single pass does in
        # the majority of seeds (the improvement is marginal, not large)
        from enks.harness import (ExperimentConfig, initial_ensemble,
                                  make_twin_data, run_filter_series)
        wins = 0
        for s in range(20):
            cfg = ExperimentConfig(problem="linear-gaussian", filters=("enks",),
                                   N=200, dt=0.01, horizon=1.0, seed=7000 + s,
                                   emit_outputs=False)
            problem, truth, series, grid = make_twin_data(cfg)
            fcfg = FilterConfig(N=200, dt=0.01, alpha=0.8, seed=7000 + s)
            ens0 = initial_ensemble(problem, 200, 7000 + s)
            m_it, _, _ = run_filter_series("enks-iter", problem, series, ens0,
                                           fcfg, schedule=make_schedule(10))
            m_pl, _, _ = run_filter_series("enks", problem, series, ens0, fcfg)
            y_last = series.values[0, -1]
            wins += abs(y_last - m_it[0, -1]) <= abs(y_last - m_pl[0, -1])
        assert wins >= 11, f"iterative won only {wins}/20 paired seeds"

    def test_boundedness_on_all_benchmark_problems(self):
        # one assimilation step with kappa = 50 stays finite on every
        # benchmark family: frame, damaged frame, oscillator, population
        from enks.harness import (ExperimentConfig, initial_ensemble,
                                  make_twin_data)
        from enks.iterative import iterative_enks_step
        from enks.rng import particle_streams
        for problem_id, N, seed in [("frame4-damaged", 50, 1),
                                    ("frame20-damaged", 50, 1),
                                    ("pendulum", 50, 1),
                                    ("population", 50, 2)]:
            cfg = ExperimentConfig(problem=problem_id, filters=("enks-iter",),
                                   N=N, seed=seed, emit_outputs=False)
            problem, truth, series, grid = make_twin_data(cfg)
            dt = grid[1] - grid[0]
            fcfg = FilterConfig(N=N, dt=dt, alpha=0.8, seed=seed)
            state = make_initial_state(initial_ensemble(problem, N, seed),
                                       problem.meas, fcfg)
            new, trace = iterative_enks_step(state, problem.proc_filter,
                                             problem.meas, series.values[:, 0],
                                             fcfg, particle_streams(seed, N),
                                             make_schedule(50))
            assert np.isfinite(new.ensemble).all(), problem_id
            assert np.isfinite(trace.residuals).all(), problem_id
