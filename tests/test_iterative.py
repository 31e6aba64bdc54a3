from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enks.benchmarks import PROBLEM_IDS
from enks.core import (GAIN_FAILURES, FilterConfig, FilterState,
                       additive_update, compute_gain, enks_step,
                       make_initial_state)
from enks.errors import NumericFailure
from enks import core
from enks.iterative import (AnnealingSchedule, iterate_update,
                            iterative_enks_step, make_schedule)
from enks.models import MeasurementModel, ProcessModel
from enks.rng import RngStream, particle_streams

from oracles import gain_oracle, linear_step_gain_oracle


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
    """State of ``iterate_update``: its noise term, at time ``t_curr``."""
    return FilterState(t_curr=t_curr, ensemble=np.zeros((n, 2)),
                       noise_term=np.atleast_2d(noise_term))


def identity_meas(n):
    return MeasurementModel(q=n, h=lambda x, t: x)


class TestIterativeGain:
    def test_first_iterate_equals_noniterative_gain(self):
        # one undamped pass applies the plain gain to the predicted image
        rng = np.random.default_rng(2)
        pred = rng.standard_normal((3, 10))
        h = rng.standard_normal((2, 10))
        y = rng.standard_normal(2)
        cfg = FilterConfig(dt=0.1, alpha=0.7)
        state = make_state(0.1, 0.3 * np.eye(2), n=3)
        meas = identity_meas(2)
        out, _ = iterate_update(pred, h, state, y, make_schedule(1), meas, cfg,
                                state.t_curr)
        G = compute_gain(pred, h, cfg, 0.3 * np.eye(2))
        assert np.array_equal(out, additive_update(pred, G, y, h))

    def test_zero_spread_iterate(self):
        pred = np.tile(np.array([[2.0]]), (1, 5))
        h = np.tile(np.array([[1.0]]), (1, 5))
        cfg = FilterConfig(dt=0.1, alpha=0.5)
        G = compute_gain(pred, h, cfg, 0.5 * np.eye(1))
        assert np.array_equal(G, np.zeros((1, 1)))

    def test_second_iterate_matches_oracle(self):
        # one damped pass by hand, then the gain on the new iterate must
        # match the straight-line oracle evaluated on that iterate
        pred = np.array([[1.0, 3.0]])
        h0 = pred.copy()  # identity measurement
        cfg = FilterConfig(dt=1.0, alpha=0.5)
        sig = np.array([[1.0]])
        y = np.array([2.0])
        beta0 = np.exp(-1)
        G0 = compute_gain(pred, h0, cfg, 0.5 * sig)
        ens1 = additive_update(pred, beta0 * G0, y, h0)
        G1 = compute_gain(ens1, ens1, cfg, 0.5 * sig)
        oracle = gain_oracle(ens1, ens1, [0.0], [0.0], 1.0, 0.0, 0.5, sig)
        assert np.allclose(G1, oracle, atol=1e-13)


class TestIterateUpdate:
    def setup_method(self):
        self.proc = ProcessModel(n=1, m=1, drift_ensemble=lambda x, t: -x,
                                 constant_diffusion=np.eye(1))
        self.meas = identity_meas(1)
        self.noise_std = np.array([0.1])  # an intensity of 1 over dt = 0.01

    def test_kappa_one_reduces_to_noniterative_bitwise(self):
        N = 32
        ens0 = RngStream(3, 2).standard_normal((1, N))
        y = np.array([0.7])
        cfg = FilterConfig(dt=0.01, alpha=0.8, seed=3)

        s_plain = make_initial_state(ens0.copy(), self.noise_std, cfg)
        out_plain = enks_step(s_plain, self.proc, self.meas, y, cfg,
                              particle_streams(3, N))
        s_iter = make_initial_state(ens0.copy(), self.noise_std, cfg)
        out_iter, trace = iterative_enks_step(s_iter, self.proc, self.meas, y,
                                              cfg, particle_streams(3, N),
                                              make_schedule(1), trace=True)
        assert np.array_equal(out_plain.ensemble, out_iter.ensemble)
        assert out_plain.t_curr == out_iter.t_curr
        assert trace.residuals.shape == (1,)

    def test_step_evaluates_measurement_map_once_per_pass(self):
        # the first pass reuses the predicted image the step computed
        N, kappa = 8, 4
        cfg = FilterConfig(dt=0.01, alpha=0.8, seed=3)
        state = make_initial_state(RngStream(3, 2).standard_normal((1, N)),
                                   self.noise_std, cfg)
        evaluate = MeasurementModel.evaluate
        with mock.patch.object(MeasurementModel, "evaluate", autospec=True,
                               side_effect=evaluate) as counted:
            iterative_enks_step(state, self.proc, self.meas, np.array([0.7]),
                                cfg, particle_streams(3, N), make_schedule(kappa))
        assert counted.call_count == kappa

    @pytest.mark.parametrize("trace", [False, True])
    def test_moments_route_factors_and_diagonalizes_once(self, trace):
        # cost guard: the step gain and its per-pass trace come from one
        # Cholesky factor, one inverse and one symmetric eigensolve, with
        # traces or without
        meas = replace(identity_meas(3), linear=True)
        pred = RngStream(8, 0).standard_normal((3, 12))
        state = make_state(0.0, 0.2 * 0.1 ** 2 * np.eye(3), n=3)
        lapack = mock.Mock(wraps=core._umath_linalg)
        with mock.patch.object(core, "_umath_linalg", lapack):
            _, record = iterate_update(pred, pred.copy(), state,
                                       np.array([0.5, -1.0, 2.0]),
                                       make_schedule(4), meas,
                                       FilterConfig(dt=0.1), 0.0, trace=trace)
        assert (record is not None) == trace
        assert [getattr(lapack, name).call_count
                for name in ("cholesky_lo", "inv", "eigh_lo")] == [1, 1, 1]

    def test_trace_records_increment_and_mean_innovation(self):
        # on a frame4-damaged step, residuals[k] is the distance between
        # consecutive iterates and innovation_norms[k] the norm of
        # y - mean h(iterate_k).  The iterates come from the pass loop (the
        # map declared not linear), where the measurement map sees every
        # one; the step as declared runs on moments, and its trace must
        # match the same iterates
        from enks.harness import (ExperimentConfig, initial_ensemble,
                                  make_twin_data)
        N, seed, kappa = 50, 1, 10
        cfg = ExperimentConfig(problem="frame4-damaged", filters=("enks-iter",),
                               N=N, seed=seed, emit_outputs=False)
        problem, truth, series, grid = make_twin_data(cfg)
        assert problem.meas.linear
        fcfg = FilterConfig(dt=grid[0], seed=seed)
        ens0 = initial_ensemble(problem, N, seed)
        seen = []
        evaluate = MeasurementModel.evaluate

        def record(meas, ens, t):
            h = evaluate(meas, ens, t)
            seen.append((ens.copy(), h))
            return h

        y = series.values[:, 0]
        traces = []
        for meas in (replace(problem.meas, linear=False), problem.meas):
            state = make_initial_state(ens0, problem.noise_std, fcfg)
            with mock.patch.object(MeasurementModel, "evaluate", autospec=True,
                                   side_effect=record):
                new, trace = iterative_enks_step(state, problem.proc_filter,
                                                 meas, y, fcfg,
                                                 particle_streams(seed, N),
                                                 make_schedule(kappa),
                                                 trace=True)
            if not traces:
                loop_seen, loop_new = seen[:], new.ensemble
            traces.append(trace)
        # the loop evaluated every iterate, the moments route only pred
        assert len(seen) == kappa + 1
        iterates = [ens for ens, _ in loop_seen] + [loop_new]
        assert len(iterates) == kappa + 1
        residuals = np.array([np.linalg.norm(b - a)
                              for a, b in zip(iterates, iterates[1:])])
        innovations = [np.linalg.norm(y - h.mean(axis=1)) for _, h in loop_seen]
        # iterate_{k+1} is ens + incr rounded, off by at most half an ulp
        # per entry; the early increments are 1e-8 of the ensemble's norm,
        # so that rounding, not rtol, bounds their difference
        rounding = np.finfo(float).eps * np.array(
            [np.linalg.norm(b) for b in iterates[1:]])
        for trace in traces:
            assert np.all(np.abs(trace.residuals - residuals)
                          <= 1e-12 * residuals + rounding)
            assert np.allclose(trace.innovation_norms, innovations,
                               rtol=1e-12, atol=0)

    @pytest.mark.parametrize("problem_id", ["frame4-damaged",
                                            "linear-gaussian"])
    def test_trace_leaves_the_iterate_unchanged(self, problem_id):
        # the same step with and without its trace: equal ensembles, and
        # no trace object when none is asked for
        from enks.harness import (ExperimentConfig, initial_ensemble,
                                  make_twin_data)
        N, seed = 40, 1
        cfg = ExperimentConfig(problem=problem_id, N=N, seed=seed,
                               emit_outputs=False)
        problem, _, series, grid = make_twin_data(cfg)
        fcfg = FilterConfig(dt=grid[0], seed=seed)
        ens0 = initial_ensemble(problem, N, seed)
        outs = []
        for trace in (False, True):
            state = make_initial_state(ens0.copy(), problem.noise_std, fcfg)
            new, record = iterative_enks_step(
                state, problem.proc_filter, problem.meas, series.values[:, 0],
                fcfg, particle_streams(seed, N), make_schedule(10),
                trace=trace)
            assert (record is None) == (not trace)
            outs.append(new.ensemble)
        assert np.array_equal(*outs)

    @pytest.mark.parametrize("trace", [False, True])
    def test_trace_norms_are_computed_only_on_request(self, trace,
                                                      monkeypatch):
        # cost guard: with the trace off a pass takes no norm; with it on,
        # two (the increment and the mean innovation)
        N, kappa = 16, 4
        ens = RngStream(8, 2).standard_normal((1, N))
        state = make_state(0.01, 0.2 * 0.01 ** 2)
        cfg = FilterConfig(dt=0.01, alpha=0.8)
        h = self.meas.evaluate(ens, state.t_curr)
        calls, norm = [], np.linalg.norm

        def counted(*args, **kwargs):
            calls.append(args)
            return norm(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "norm", counted)
        out, record = iterate_update(ens, h, state, np.array([0.2]),
                                     make_schedule(kappa), self.meas, cfg,
                                     state.t_curr, trace=trace)
        assert len(calls) == 2 * kappa * trace
        assert (record is None) == (not trace)

    def test_exact_measurement_leaves_ensemble_fixed(self):
        # every particle already produces the observation: all passes no-op
        N = 8
        ens = np.tile(np.array([[1.5]]), (1, N))
        state = make_state(0.01, 0.2 * 0.01 ** 2)
        cfg = FilterConfig(dt=0.01, alpha=0.8)
        h = self.meas.evaluate(ens, state.t_curr)
        out, trace = iterate_update(ens, h, state, np.array([1.5]),
                                    make_schedule(5), self.meas, cfg,
                                    state.t_curr, trace=True)
        assert np.array_equal(out, ens)
        assert np.allclose(trace.residuals, 0.0)
        assert np.allclose(trace.innovation_norms, 0.0)

    def test_trace_lengths_match_kappa(self):
        N = 16
        ens = RngStream(8, 2).standard_normal((1, N))
        state = make_state(0.01, 0.2 * 0.01 ** 2)
        cfg = FilterConfig(dt=0.01, alpha=0.8)
        for kappa in (1, 3, 10):
            h = self.meas.evaluate(ens, state.t_curr)
            out, trace = iterate_update(ens, h, state, np.array([0.2]),
                                        make_schedule(kappa), self.meas, cfg,
                                        state.t_curr, trace=True)
            assert trace.residuals.shape == (kappa,)
            assert trace.innovation_norms.shape == (kappa,)
            assert np.isfinite(out).all()

    def test_boundedness_large_kappa(self):
        # iterates stay finite through kappa = 50 on an assimilation step
        N = 24
        ens = 2.1 + 0.05 * RngStream(12, 2).standard_normal((1, N))
        cfg = FilterConfig(dt=0.1, alpha=0.8)
        meas = identity_meas(1)
        state = make_state(0.1, 0.2 * 0.1 ** 2)
        out, trace = iterate_update(ens, meas.evaluate(ens, state.t_curr),
                                    state, np.array([2.3]),
                                    make_schedule(50), meas, cfg, state.t_curr,
                                    trace=True)
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
            fcfg = FilterConfig(dt=0.01, alpha=0.8, seed=7000 + s)
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
            fcfg = FilterConfig(dt=dt, alpha=0.8, seed=seed)
            state = make_initial_state(initial_ensemble(problem, N, seed),
                                       problem.noise_std, fcfg)
            new, trace = iterative_enks_step(state, problem.proc_filter,
                                             problem.meas, series.values[:, 0],
                                             fcfg, particle_streams(seed, N),
                                             make_schedule(50), trace=True)
            assert np.isfinite(new.ensemble).all(), problem_id
            assert np.isfinite(trace.residuals).all(), problem_id


def short_run(problem_id, N, steps, seed=1, meas_noise_std=None):
    """A problem's twin data cut to ``steps`` steps, its ensemble and config."""
    from enks.benchmarks import build_problem
    from enks.harness import (ExperimentConfig, initial_ensemble,
                              make_twin_data)
    dt = build_problem(problem_id).default_dt
    cfg = ExperimentConfig(problem=problem_id, N=N, seed=seed,
                           horizon=steps * dt, emit_outputs=False,
                           meas_noise_std=meas_noise_std)
    problem, _, series, grid = make_twin_data(cfg)
    return (problem, series, initial_ensemble(problem, N, seed),
            FilterConfig(dt=grid[0], seed=seed))


LINEAR_PROBLEMS = tuple(p for p in PROBLEM_IDS if p != "pendulum")


def assert_matches_the_loop(run, loop_run):
    """Means and stds within 1e-10 of the loop's spread, traces within
    1e-12 relative."""
    means, stds, traces = run
    means_loop, stds_loop, traces_loop = loop_run
    assert np.all(np.abs(means - means_loop) <= 1e-10 * stds_loop)
    assert np.all(np.abs(stds - stds_loop) <= 1e-10 * stds_loop)
    for trace, loop in zip(traces, traces_loop, strict=True):
        assert np.allclose(trace.residuals, loop.residuals, rtol=1e-12,
                           atol=0)
        assert np.allclose(trace.innovation_norms, loop.innovation_norms,
                           rtol=1e-12, atol=0)


class TestMomentsRoute:
    """enks-iter on a linear map at kappa >= 2 runs all its passes from one
    whitened eigendecomposition of the moments, with no solve; the pass
    loop over the iterate, and the brute-force passes on explicit moments,
    are the references it must reproduce."""

    @pytest.mark.parametrize("problem_id", LINEAR_PROBLEMS)
    def test_matches_the_pass_loop(self, problem_id):
        # every kappa the eigendecomposition serves, and a measurement
        # noise of 1e-9, where the whitened noise 1 - w mu is rounding
        # and clipped at 0
        from enks.harness import run_filter_series
        N = 80 if problem_id == "frame50" else 40
        noises = ((None, 1e-9) if problem_id in ("population",
                                                 "frame4-damaged")
                  else (None,))
        for noise in noises:
            problem, series, ens0, fcfg = short_run(problem_id, N, 6,
                                                    meas_noise_std=noise)
            assert problem.meas.linear
            for kappa in (2, 3, 10, 25):
                assert_matches_the_loop(*(
                    run_filter_series("enks-iter",
                                      replace(problem, meas=meas), series,
                                      ens0, fcfg,
                                      schedule=make_schedule(kappa),
                                      collect_traces=True)
                    for meas in (problem.meas,
                                 replace(problem.meas, linear=False))))

    @pytest.mark.parametrize("N", [2, 3, 12])
    def test_correlated_noise_and_rank_deficient_moments(self, N):
        # a linear map of 4 states to q = 3 with a non-diagonal SPD noise
        # intensity; N <= q leaves the measured moment C_0 of rank N - 1,
        # so the whitened spectrum has zeros.  The noise term is of the
        # moments' size, so the denominators are well conditioned and the
        # loop's own rounding stays below the tolerances
        H = np.array([[1.0, 0.5, 0.0, -0.3], [0.0, 1.0, 0.2, 0.0],
                      [0.4, 0.0, 0.0, 1.0]])
        nu = np.array([[1.0, 0.3, 0.1], [0.3, 0.8, -0.2],
                       [0.1, -0.2, 0.6]])
        meas = MeasurementModel(q=3, h=lambda x, t: H @ x, linear=True)
        sigma = nu * 0.3
        cfg = FilterConfig(dt=0.1, alpha=0.8)
        pred = 1.0 + RngStream(5, N).standard_normal((4, N))
        h = meas.evaluate(pred, 0.0)
        y = np.array([1.2, 0.8, 1.1])
        state = make_state(0.0, (1 - cfg.alpha) * sigma.T @ sigma, n=4)
        for kappa in (2, 3, 10, 25):
            outs = []
            for m in (meas, replace(meas, linear=False)):
                ens, trace = iterate_update(pred, h, state, y,
                                            make_schedule(kappa), m, cfg,
                                            0.0, trace=True)
                outs.append((ens.mean(axis=1), ens.std(axis=1, ddof=1),
                             [trace]))
            assert_matches_the_loop(*outs)

    @pytest.mark.parametrize("q, N", [(1, 12), (3, 12), (3, 3), (50, 120),
                                      (50, 30)])
    def test_step_gain_matches_the_brute_force_passes(self, q, N):
        # the step moves pred by B (y - h(pred)), with B the step gain of
        # the brute-force pass loop on explicit (q, q) moments, which
        # inverts every denominator and diagonalizes nothing.  N > q gives
        # random SPD moments, N <= q a measured moment C_0 of rank N - 1.
        # dt / alpha near 1 makes the passes damp the innovations far
        # below 1, so each pass's weight e_k^3 shows
        rng = np.random.default_rng(q * N)
        n = q + 2
        H = rng.standard_normal((q, n))
        meas = MeasurementModel(q=q, h=lambda x, t: H @ x, linear=True)
        pred = 1.0 + rng.standard_normal((n, N))
        h = meas.evaluate(pred, 0.0)
        y = H @ pred.mean(axis=1) + rng.standard_normal(q)
        root = rng.standard_normal((q, q))
        noise_term = 0.2 * (root @ root.T / q + np.eye(q))
        cfg = FilterConfig(dt=0.5, alpha=0.8)
        state = make_state(0.0, noise_term, n=n)
        Xd = pred - pred.mean(axis=1, keepdims=True)
        Hd = h - h.mean(axis=1, keepdims=True)
        assert np.linalg.matrix_rank(Hd @ Hd.T) == min(q, N - 1)
        for kappa in (2, 3, 10, 25):
            betas = make_schedule(kappa).betas
            B = linear_step_gain_oracle(Xd @ Hd.T, Hd @ Hd.T, noise_term,
                                        betas, cfg.dt / N,
                                        cfg.alpha / (N - 1))
            expected = B @ (y[:, None] - h)
            out, _ = iterate_update(pred, h, state, y, make_schedule(kappa),
                                    meas, cfg, 0.0)
            err = np.abs((out - pred) - expected)
            assert np.all(err <= 1e-11 * np.abs(expected).max()
                          + 4 * np.finfo(float).eps * np.abs(pred)), kappa

    def test_singular_later_denominator_is_not_positive_definite(self):
        # a whitened spectrum of 4 at s = w = 0.25 (N = 2, dt = 0.5,
        # alpha = 0.25) has r = 0, and an undamped first pass takes it to
        # 0, so the second pass's denominator d_1 = w mu_1 + r is 0
        meas = replace(identity_meas(1), linear=True)
        cfg = FilterConfig(dt=0.5, alpha=0.25)
        pred = np.array([[0.0, 1.0]])
        state = make_state(0.0, 0.2 * np.eye(1))
        spectrum = (np.array([4.0]), np.eye(1))
        with mock.patch.object(core, "whitened_spectrum",
                               return_value=spectrum), \
                pytest.raises(NumericFailure, match=GAIN_FAILURES[1]):
            iterate_update(pred, pred.copy(), state, np.array([0.5]),
                           AnnealingSchedule(betas=(1.0, 1.0)), meas, cfg,
                           0.0)

    def test_pass_weights_clip_the_spectrum_and_the_noise_weight(self):
        # rounding can leave a whitened eigenvalue below 0, or weight * mu
        # above 1 (so r < 0); the recursion reads each as 0.  mu = -0.3
        # then gives d_k = r = 1 and an e_k that stays 1; weight * mu =
        # 1.5 gives r = 0, so d_k = weight * mu_k at every pass
        betas, scale, weight = (0.5, 1.0), 0.1, 0.25
        phi, f, e = core._pass_weights(np.array([-0.3, 6.0]), betas,
                                       scale, weight, True)
        assert f.shape == e.shape == (2, 2)
        assert e[:, 0].tolist() == [1.0, 1.0]
        assert f[:, 0].tolist() == [0.5 * scale, 1.0 * scale]
        assert phi[0] == 0.5 * scale + 1.0 * scale
        m, e_k, expected = 6.0, 1.0, []
        for beta in betas:
            damp = beta * scale / (weight * m)
            expected.append((damp * e_k * e_k * e_k, e_k))
            eps = 1.0 - damp * m
            m, e_k = m * eps * eps, e_k * eps
        assert f[:, 1] == pytest.approx([fk for fk, _ in expected],
                                        rel=1e-14)
        assert e[:, 1] == pytest.approx([ek for _, ek in expected],
                                        rel=1e-14)
        assert phi[1] == pytest.approx(sum(fk for fk, _ in expected),
                                       rel=1e-14)

    @pytest.mark.parametrize("kappa", [2, 10])
    def test_zero_spread_leaves_the_ensemble_unchanged(self, kappa):
        # identical particles have zero moments, so every gain is zero and
        # the step returns the prediction's bits, whatever the innovation
        meas = replace(identity_meas(2), linear=True)
        cfg = FilterConfig(dt=0.1, alpha=0.8)
        pred = np.tile(np.array([[1.5], [-0.25]]), (1, 6))
        state = make_state(0.1, 0.2 * 0.1 ** 2 * np.eye(2), n=2)
        out, trace = iterate_update(pred, pred.copy(), state,
                                    np.array([3.0, 1.0]),
                                    make_schedule(kappa), meas, cfg, 0.1,
                                    trace=True)
        assert np.array_equal(out, pred)
        assert np.all(trace.residuals == 0)

    @pytest.mark.parametrize("failure", [0, 1])
    def test_denominator_failures_match_the_pass_loop(self, failure):
        # from step 2 the map reads NaN (a non-finite first denominator)
        # or zero with a zero noise term (a first denominator that is not
        # positive definite): both routes raise the first pass's message,
        # and run_filter_series names the step and its time
        from enks.harness import run_filter_series
        problem, series, ens0, fcfg = short_run("frame4-damaged", 12, 4)
        h, t_bad = problem.meas.h, series.times[2] - 0.5 * fcfg.dt
        late = np.nan if failure == 0 else 0.0
        meas = replace(problem.meas,
                       h=lambda x, t: h(x, t) * (1.0 if t < t_bad else late))
        if failure == 1:
            problem = replace(problem, noise_std=0.0 * problem.noise_std)
        raised = []
        for m in (meas, replace(meas, linear=False)):
            with pytest.raises(NumericFailure) as info:
                run_filter_series("enks-iter", replace(problem, meas=m),
                                  series, ens0, fcfg,
                                  schedule=make_schedule(10))
            raised.append((str(info.value), str(info.value.__cause__)))
            assert info.value.step == 2
            assert info.value.t == pytest.approx(series.times[2])
        assert raised[0] == raised[1]
        assert raised[0][1] == GAIN_FAILURES[failure]

    def test_non_finite_gain_matches_the_pass_loop(self):
        # an unobserved state whose spread overflows the cross moment: the
        # first denominator is finite and the gain is not, and both routes
        # name the gain
        meas = MeasurementModel(q=1, h=lambda x, t: x[:1], linear=True)
        cfg = FilterConfig(dt=0.1, alpha=0.8)
        pred = np.array([[0.0, 1.0, 2.0, 3.0],
                         [1e308, -1e308, 1e308, -1e308]])
        state = make_state(0.0, 0.2 * np.eye(1), n=2)
        for m in (meas, replace(meas, linear=False)):
            with pytest.raises(NumericFailure) as info:
                iterate_update(pred, m.evaluate(pred, 0.0), state,
                               np.array([1.0]), make_schedule(3), m, cfg, 0.0)
            assert str(info.value) == GAIN_FAILURES[2]

    @pytest.mark.parametrize("problem_id", PROBLEM_IDS)
    def test_kappa_one_is_the_plain_step_bitwise(self, problem_id):
        from enks.harness import run_filter_series
        problem, series, ens0, fcfg = short_run(problem_id, 30, 5)
        plain = run_filter_series("enks", problem, series, ens0, fcfg)
        one = run_filter_series("enks-iter", problem, series, ens0, fcfg,
                                schedule=make_schedule(1))
        assert np.array_equal(plain[0], one[0])
        assert np.array_equal(plain[1], one[1])

    @pytest.mark.parametrize("problem_id", ["frame4-damaged", "pendulum"])
    def test_measurement_map_evaluations_per_step(self, problem_id):
        # cost guard: a linear map is evaluated on the ensemble once per
        # step, by the forecast; the pendulum's once per pass
        from enks.harness import run_filter_series
        kappa = 4
        problem, series, ens0, fcfg = short_run(problem_id, 12, 3)
        evaluate = MeasurementModel.evaluate
        with mock.patch.object(MeasurementModel, "evaluate", autospec=True,
                               side_effect=evaluate) as counted:
            run_filter_series("enks-iter", problem, series, ens0, fcfg,
                              schedule=make_schedule(kappa))
        per_step = 1 if problem.meas.linear else kappa
        assert counted.call_count == per_step * len(series) == (
            3 if problem_id == "frame4-damaged" else 12)
