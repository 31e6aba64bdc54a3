import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enks.core import (GAIN_FAILURES, FilterConfig, additive_update,
                       analysis_gain, compute_gain, enks_step,
                       make_initial_state)
from enks.benchmarks import enks_limit_oracle, scalar_linear_gaussian
from enks.errors import NumericFailure
from enks.models import MeasurementModel, MeasurementSeries, ProcessModel
from enks.rng import RngStream, particle_streams

from oracles import (brute_covariance, exact_moment_ensemble, gain_oracle,
                     scalar_kalman_series)


def identity_meas(n, nu=1.0, dt=0.1):
    return MeasurementModel(q=n, h=lambda x, t: x, nu=nu * np.eye(n),
                            dt_scale=dt, h_ensemble=lambda x, t: x)


class TestEnsembleMean:
    """The ensemble mean the kernel centres on, read through its gain."""

    def test_single_column(self):
        # copies of one column average to that column exactly, so the
        # centred state is exactly zero and so is the gain, however the
        # measurements spread
        v = np.array([[1.5], [-2.0], [3.0]])
        pred = np.tile(v, (1, 4))
        h = RngStream(21, 0).standard_normal((2, 4))
        G = analysis_gain(pred, h, 1.0, 1.0, np.eye(2), GAIN_FAILURES)
        assert np.array_equal(G, np.zeros((3, 2)))


class TestInnovationCovariance:
    """The kernel's ``Hd Hd^T``, read through gains with a known answer."""

    def test_identical_columns(self):
        # identical measurement columns have zero covariance: zero gain
        # however the state spreads
        pred = RngStream(21, 0).standard_normal((2, 5))
        h = np.tile(np.array([[2.0], [1.0]]), (1, 5))
        G = analysis_gain(pred, h, 1.0, 1.0, np.eye(2), GAIN_FAILURES)
        assert np.array_equal(G, np.zeros((2, 2)))

    def test_scalar_two_particles(self):
        # h = (1, 3): Hd Hd^T = 2, so with pred = h the gain is 2 / (2 + 1)
        h = np.array([[1.0, 3.0]])
        G = analysis_gain(h, h, 1.0, 1.0, np.eye(1), GAIN_FAILURES)
        assert G[0, 0] == pytest.approx(2.0 / 3.0)

    def test_hand_case_against_brute_force(self):
        # the EnKF weights give C_xh (C_hh + R)^{-1} with both sample
        # covariances taken by the brute-force loop
        xs = [np.array([1.0, -1.0]), np.array([0.5, 2.0]), np.array([3.0, 0.0])]
        hs = [np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([2.0, 2.0])]
        C = brute_covariance([np.concatenate([x, h]) for x, h in zip(xs, hs)])
        R = np.array([[0.5, 0.1], [0.1, 0.3]])
        oracle = C[:2, 2:] @ np.linalg.inv(C[2:, 2:] + R)
        G = analysis_gain(np.column_stack(xs), np.column_stack(hs), 0.5, 0.5,
                          R, GAIN_FAILURES)
        assert np.allclose(G, oracle, rtol=1e-12, atol=1e-14)

    def test_single_column_rejected(self):
        cfg = FilterConfig(N=2, dt=0.1)
        with pytest.raises(ValueError):
            compute_gain(np.ones((2, 1)), np.ones((1, 1)), 0.1, cfg, np.eye(1))


class TestBlendedDenominator:
    """``alpha/(N-1) Hd Hd^T + (1 - alpha) sigma^T sigma`` inside the gain."""

    def test_zero_covariance(self):
        # zero spread leaves the noise term alone, which must be positive
        # definite: an indefinite one is a numeric failure, not a zero gain
        pred = np.tile(np.array([[1.0], [2.0]]), (1, 4))
        h = np.tile(np.array([[0.5], [0.5]]), (1, 4))
        cfg = FilterConfig(N=4, dt=0.1, alpha=0.8)
        assert np.array_equal(compute_gain(pred, h, 0.1, cfg, 0.2 * np.eye(2)),
                              np.zeros((2, 2)))
        with pytest.raises(NumericFailure,
                           match="gain denominator is not positive definite"):
            compute_gain(pred, h, 0.1, cfg, np.zeros((2, 2)))

    def test_convex_combination_of_equal_terms(self):
        # an ensemble whose sample covariance is sigma^T sigma gives the
        # same gain for every alpha: alpha S + (1 - alpha) S = S
        sig = np.array([[0.5, 0.1], [0.1, 0.3]])
        ens = exact_moment_ensemble([1.0, -2.0], sig)
        N = ens.shape[1]
        expected = 0.1 * (N - 1) / N * np.eye(2)
        for alpha in (0.1, 0.5, 0.8, 0.99):
            cfg = FilterConfig(N=N, dt=0.1, alpha=alpha)
            G = compute_gain(ens, ens, 0.1, cfg, (1 - alpha) * sig)
            assert np.allclose(G, expected, rtol=1e-12, atol=1e-14)

    def test_eigenvalue_floor(self):
        # the blend is at least (1 - alpha) sigma^T sigma, so any ensemble
        # with a positive definite sigma gives a finite gain and no failure
        rng = np.random.default_rng(0)
        for _ in range(20):
            q = rng.integers(1, 5)
            N = 2 * q + 2
            pred = 1e3 * rng.standard_normal((3, N))
            h = 1e3 * rng.standard_normal((q, N))
            sig = np.diag(rng.uniform(0.1, 2.0, q))
            alpha = rng.uniform(0.05, 0.95)
            cfg = FilterConfig(N=N, dt=0.1, alpha=alpha)
            G = compute_gain(pred, h, 0.1, cfg, (1 - alpha) * sig)
            assert np.isfinite(G).all()

    def test_alpha_out_of_range(self):
        for alpha in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                FilterConfig(N=4, dt=0.1, alpha=alpha)


class TestComputeGain:
    def test_zero_spread_gives_zero_gain(self):
        pred = np.tile(np.array([[1.0], [2.0]]), (1, 6))
        h = np.tile(np.array([[0.3]]), (1, 6))
        cfg = FilterConfig(N=6, dt=0.1, alpha=0.8)
        G = compute_gain(pred, h, 1.0, cfg, 0.2 * np.eye(1))
        assert np.array_equal(G, np.zeros((2, 1)))

    def test_scalar_two_particle_case(self):
        # frozen from the straight-line oracle: numerator (1 + 0)/2 = 0.5,
        # denominator 0.5 * 0.5 + 0.5 * 1 = 0.75, gain 2/3
        pred = np.array([[1.0, 3.0]])
        h = np.array([[0.5, 1.5]])
        cfg = FilterConfig(N=2, dt=1.0, alpha=0.5)
        G = compute_gain(pred, h, 1.0, cfg, 0.5 * np.array([[1.0]]))
        oracle = gain_oracle(pred, h, [0.0], [0.0], 1.0, 0.0, 0.5, [[1.0]])
        assert G[0, 0] == pytest.approx(2.0 / 3.0, abs=1e-14)
        assert np.allclose(G, oracle, atol=1e-14)

    def test_scalar_alpha_to_zero_limit(self):
        # alpha ~ 0 drops the ensemble covariance: gain ~ numerator / sigma^2
        pred = np.array([[1.0, 3.0]])
        h = np.array([[0.5, 1.5]])
        cfg = FilterConfig(N=2, dt=1.0, alpha=1e-12)
        G = compute_gain(pred, h, 1.0, cfg, (1 - 1e-12) * np.array([[1.0]]))
        oracle = gain_oracle(pred, h, [0.0], [0.0], 1.0, 0.0, 1e-12, [[1.0]])
        assert G[0, 0] == pytest.approx(0.5, rel=1e-9)
        assert np.allclose(G, oracle, atol=1e-13)

    @pytest.mark.parametrize("n,q,N,seed", [(1, 1, 4, 0), (3, 2, 8, 1),
                                            (4, 4, 5, 2), (2, 1, 50, 3)])
    def test_matches_oracle_on_random_inputs(self, n, q, N, seed):
        # the oracle evaluates the displayed gain, lag terms included, with
        # random nonzero lagged means; the collapsed gain must agree for
        # both time origins: (tc, tp) = (dt, 0) and the running times
        rng = np.random.default_rng(seed)
        pred = rng.standard_normal((n, N))
        h = rng.standard_normal((q, N))
        prev_x = rng.standard_normal(n)
        prev_h = rng.standard_normal(q)
        t_prev = rng.uniform(0, 5)
        t_curr = t_prev + rng.uniform(0.01, 1.0)
        alpha = rng.uniform(0.1, 0.9)
        A = rng.standard_normal((q, q))
        sig = A @ A.T + 0.5 * np.eye(q)
        for origin, (tc, tp) in (("step", (t_curr - t_prev, 0.0)),
                                 ("absolute", (t_curr, t_prev))):
            cfg = FilterConfig(N=N, dt=t_curr - t_prev, alpha=alpha,
                               time_origin=origin)
            assert cfg.gain_time(t_curr) == tc
            G = compute_gain(pred, h, tc, cfg, (1 - alpha) * sig)
            oracle = gain_oracle(pred, h, prev_x, prev_h, tc, tp, alpha, sig)
            assert np.allclose(G, oracle, rtol=1e-10, atol=1e-12), origin

    def test_dimension_mismatch(self):
        cfg = FilterConfig(N=3, dt=0.1, alpha=0.5)
        with pytest.raises(ValueError):
            compute_gain(np.ones((2, 3)), np.ones((1, 4)), 0.1, cfg, np.eye(1))

    def test_indefinite_denominator_is_a_numeric_failure(self):
        # a negative noise Gram makes alpha S + (1 - alpha) sigma^T sigma
        # indefinite; the Cholesky factorization must report it
        pred = np.array([[1.0, 2.0, 3.0], [0.0, 1.0, -1.0]])
        h = np.array([[0.1, 0.2, 0.4]])
        cfg = FilterConfig(N=3, dt=0.1, alpha=0.5)
        with pytest.raises(NumericFailure,
                           match="gain denominator is not positive definite"):
            compute_gain(pred, h, 0.1, cfg, -0.5 * np.eye(1))

    def test_non_finite_numerator_is_a_numeric_failure(self):
        # state means overflow to inf, so the numerator is NaN while the
        # denominator stays finite; the solve must pass it on silently
        pred = np.array([[1e308, 1e308, -1e308], [0.0, 1.0, -1.0]])
        h = np.array([[0.1, 0.2, 0.4]])
        cfg = FilterConfig(N=3, dt=0.1, alpha=0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericFailure, match="non-finite gain"):
                compute_gain(pred, h, 0.1, cfg, 0.5 * np.eye(1))

    def test_non_finite_denominator_is_a_numeric_failure(self):
        # measurements whose spread overflows make the blend non-finite
        pred = np.array([[1.0, 2.0, 3.0]])
        h = np.array([[1e200, -1e200, 0.0]])
        cfg = FilterConfig(N=3, dt=0.1, alpha=0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericFailure,
                               match="non-finite blended denominator"):
                compute_gain(pred, h, 0.1, cfg, 0.5 * np.eye(1))

    def test_shift_invariance(self):
        # the kernel centres both ensembles on their means: shifting every
        # particle by a constant leaves the gain unchanged
        rng = np.random.default_rng(4)
        pred = rng.standard_normal((3, 9))
        h = rng.standard_normal((2, 9))
        cfg = FilterConfig(N=9, dt=0.1, alpha=0.8)
        G = compute_gain(pred, h, 0.1, cfg, 0.2 * np.eye(2))
        G_shift = compute_gain(pred + np.array([[4.0], [-2.0], [0.5]]),
                               h + np.array([[3.0], [1.0]]), 0.1, cfg,
                               0.2 * np.eye(2))
        assert np.allclose(G_shift, G, rtol=1e-12, atol=1e-14)


class TestAdditiveUpdate:
    def test_zero_gain(self):
        pred = np.arange(6.0).reshape(2, 3)
        out = additive_update(pred, np.zeros((2, 2)), np.ones(2), np.ones((2, 3)))
        assert np.array_equal(out, pred)

    def test_zero_innovation(self):
        pred = np.arange(6.0).reshape(2, 3)
        h = np.tile(np.array([[2.0], [5.0]]), (1, 3))
        out = additive_update(pred, np.ones((2, 2)), np.array([2.0, 5.0]), h)
        assert np.array_equal(out, pred)

    def test_scalar_arithmetic(self):
        out = additive_update(np.array([[1.0]]), np.array([[0.5]]),
                              np.array([2.0]), np.array([[1.0]]))
        assert out[0, 0] == pytest.approx(1.5)

    @given(st.permutations(list(range(6))))
    @settings(max_examples=25, deadline=None)
    def test_permutation_equivariance(self, perm):
        rng = np.random.default_rng(123)
        pred = rng.standard_normal((3, 6))
        h = rng.standard_normal((2, 6))
        G = rng.standard_normal((3, 2))
        y = rng.standard_normal(2)
        out = additive_update(pred, G, y, h)
        out_p = additive_update(pred[:, perm], G, y, h[:, perm])
        assert np.allclose(out[:, perm], out_p)


def ou_problem(n=1):
    proc = ProcessModel(n=1, m=1, drift=lambda x, t: -x,
                        diffusion=lambda x, t: np.eye(1),
                        drift_ensemble=lambda x, t: -x,
                        constant_diffusion=np.eye(1))
    meas = identity_meas(1, nu=1.0, dt=0.01)
    return proc, meas


class TestEnksStep:
    def test_zero_spread_zero_fields_time_advance_only(self):
        proc = ProcessModel(n=2, m=0, drift=lambda x, t: np.zeros(2),
                            diffusion=lambda x, t: np.zeros((2, 0)))
        meas = identity_meas(2, nu=1.0, dt=0.1)
        ens = np.tile(np.array([[1.0], [2.0]]), (1, 4))
        cfg = FilterConfig(N=4, dt=0.1, alpha=0.8)
        state = make_initial_state(ens, meas, cfg)
        new = enks_step(state, proc, meas, np.array([5.0, 5.0]), cfg,
                        particle_streams(0, 4))
        assert np.array_equal(new.ensemble, ens)
        assert new.t_curr == pytest.approx(0.1)

    def test_population_single_step_finite(self):
        from enks.benchmarks import PopulationSpec, build_population
        spec = PopulationSpec()
        proc, meas = build_population(spec)
        N = 1000
        ens = 2.1 + 0.1 * RngStream(5, 2).standard_normal((1, N))
        cfg = FilterConfig(N=N, dt=0.1, alpha=0.8, seed=5)
        state = make_initial_state(ens, meas, cfg)
        new = enks_step(state, proc, meas, np.array([2.15]), cfg,
                        particle_streams(5, N))
        assert np.isfinite(new.ensemble).all()
        assert new.ensemble.shape == (1, N)

    def test_no_collapse_distinct_particles(self):
        proc, meas = ou_problem()
        N = 64
        ens = RngStream(9, 2).standard_normal((1, N))
        cfg = FilterConfig(N=N, dt=0.01, alpha=0.8, seed=9)
        state = make_initial_state(ens, meas, cfg)
        streams = particle_streams(9, N)
        for i in range(50):
            state = enks_step(state, proc, meas, np.array([0.1]), cfg, streams)
        assert len(np.unique(state.ensemble[0])) == N

    def test_determinism(self):
        proc, meas = ou_problem()
        N = 16

        def run():
            ens = RngStream(4, 2).standard_normal((1, N))
            cfg = FilterConfig(N=N, dt=0.01, alpha=0.8, seed=4)
            state = make_initial_state(ens, meas, cfg)
            streams = particle_streams(4, N)
            for i in range(20):
                state = enks_step(state, proc, meas, np.array([0.5]), cfg, streams)
            return state.ensemble

        assert np.array_equal(run(), run())

    def test_single_step_tracks_kalman_posterior(self):
        # one assimilation from a matched Gaussian prior, compared with the
        # exact one-step Kalman posterior mean for the same measurement
        proc, meas = ou_problem()
        N, dt, R = 2000, 0.01, 0.01
        meas = MeasurementModel(q=1, h=lambda x, t: x,
                                nu=np.array([[np.sqrt(R / dt)]]), dt_scale=dt,
                                h_ensemble=lambda x, t: x)
        ens = RngStream(17, 2).standard_normal((1, N))  # prior N(0, 1)
        cfg = FilterConfig(N=N, dt=dt, alpha=0.8, seed=17)
        state = make_initial_state(ens, meas, cfg)
        y = 0.4
        new = enks_step(state, proc, meas, np.array([y]), cfg,
                        particle_streams(17, N))
        m_kal, P_kal = scalar_kalman_series(0.0, 1.0, 1 - dt, dt, 1.0, R, [y])
        se = new.ensemble.std(ddof=1) / np.sqrt(N)
        deviation = abs(new.ensemble.mean() - m_kal[0])
        # the large-N limit of this EnKS step, for the failure message
        spec = scalar_linear_gaussian(A=-1.0, F=1.0, H=1.0, R=R, x0_mean=0.0,
                                      x0_cov=1.0)
        m_lim, _, g_lim = enks_limit_oracle(
            spec, MeasurementSeries(np.array([dt]), np.array([[y]])), dt,
            alpha=cfg.alpha)
        assert deviation <= 3 * se, (
            f"single-step mean deviates from the Kalman posterior by "
            f"{deviation:.4f} (3 x MC standard error = {3 * se:.4f}); "
            f"large-N EnKS limit: |limit - Kalman| = "
            f"{abs(m_lim[0, 0] - m_kal[0]):.4f}, gain {g_lim[0, 0, 0]:.4f} "
            f"vs Kalman gain {P_kal[0] / R:.4f}")


def test_oracle_consistency_monotone_up_to_noise():
    # time-averaged |EnKS mean - Kalman mean| does not grow as N doubles,
    # within twice the Monte-Carlo noise of the error estimate
    from enks.benchmarks import kalman_oracle
    from enks.harness import (ExperimentConfig, initial_ensemble,
                              make_twin_data, run_filter_series)
    cfg = ExperimentConfig(problem="linear-gaussian", filters=("enks",),
                           N=250, dt=0.01, horizon=2.0, seed=600,
                           emit_outputs=False)
    problem, truth, series, grid = make_twin_data(cfg)
    m_kal, _ = kalman_oracle(problem.kalman_spec, series, 0.01)
    err_mean, err_se = [], []
    for N in (250, 1000, 4000):
        devs = []
        for rep in range(5):
            fcfg = FilterConfig(N=N, dt=0.01, alpha=0.8, seed=600 + rep)
            ens0 = initial_ensemble(problem, N, 600 + rep)
            means, _, _ = run_filter_series("enks", problem, series, ens0, fcfg)
            devs.append(np.mean(np.abs(means - m_kal)))
        err_mean.append(np.mean(devs))
        err_se.append(np.std(devs, ddof=1) / np.sqrt(len(devs)))
    for k in range(2):
        noise = 2 * max(err_se[k], err_se[k + 1])
        assert err_mean[k + 1] <= err_mean[k] + 2 * noise, (
            f"error grew from N={250 * 4 ** k}: {err_mean}")
