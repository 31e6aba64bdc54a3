import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enks.core import (GAIN_FAILURES, FilterConfig, additive_update,
                       analysis_gain, compute_gain, enks_step,
                       make_initial_state, noise_gram, row_mean, row_moments)
from enks import enkf
from enks.benchmarks import enks_limit_oracle, scalar_linear_gaussian
from enks.errors import NumericFailure
from enks.models import MeasurementModel, MeasurementSeries, ProcessModel
from enks.rng import RngStream, particle_streams

from oracles import (brute_covariance, centred_solve_gain, enks_gain_cap,
                     exact_moment_ensemble, gain_oracle, scalar_kalman_series,
                     sigma_gram_oracle)


def identity_meas(n):
    return MeasurementModel(q=n, h=lambda x, t: x)


class TestNoiseGram:
    """``noise_gram`` is the blend's ``sigma^T sigma``, the scaled
    intensity of a Brownian measurement noise with the levels' std over
    one step."""

    def test_bits_of_the_scaled_intensity_product(self):
        rng = np.random.default_rng(27)
        for q in range(1, 51):
            for dt in (0.005, 0.01, 0.03, 0.1, 0.3, 1.0, 2.5):
                s = rng.uniform(1e-3, 3.0, q)
                gram = noise_gram(s, dt)
                assert np.array_equal(gram, sigma_gram_oracle(s, dt)), (q, dt)
                assert np.allclose(gram, np.diag(s ** 2) * dt, rtol=1e-15,
                                   atol=0)

    def test_levels_as_a_list_or_one_number(self):
        assert np.array_equal(noise_gram([0.1, 0.3], 0.1),
                              sigma_gram_oracle(np.array([0.1, 0.3]), 0.1))
        assert noise_gram(0.2, 0.01).shape == (1, 1)


class TestEnsembleMean:
    """The ensemble mean the kernel centres on, read through its gain."""

    def test_single_column(self):
        # the measurements of copies of one column are copies of one
        # column too, and these few-bit entries average to themselves
        # exactly, so the centred image Hd is exactly zero and so is the
        # gain; the kernel never centres the state, so an image that is
        # not a function of the state (a random h) would leave a gain of
        # rounding size
        v = np.array([[1.5], [-2.0], [3.0]])
        pred = np.tile(v, (1, 4))
        h = np.array([[1.0, 0.0, 1.0], [0.0, 2.0, -1.0]]) @ pred
        G = analysis_gain(pred, h, 1.0, 1.0, np.eye(2), GAIN_FAILURES)
        assert np.array_equal(G, np.zeros((3, 2)))

    @staticmethod
    def random_ensembles():
        # narrow and wide ensembles, N = 2 among them, and rows offset by
        # 1e8, where a different summation order would show in the bits
        for k, (n, N) in enumerate([(3, 2), (1, 2000), (5, 7), (20, 301),
                                    (200, 800)]):
            x = RngStream(40 + k, 0).standard_normal((n, N))
            yield x
            yield x + 1e8 * np.arange(1, n + 1)[:, None]

    def test_row_mean_is_numpy_mean_bitwise(self):
        for x in self.random_ensembles():
            assert np.array_equal(row_mean(x), x.mean(axis=1, keepdims=True))

    def test_row_moments_are_numpy_mean_and_std_bitwise(self):
        for x in self.random_ensembles():
            kept = x.copy()
            work = np.full_like(x, np.nan)
            mean, std = row_moments(x, work)
            assert np.array_equal(mean, x.mean(axis=1))
            assert np.array_equal(std, x.std(axis=1, ddof=1))
            assert np.array_equal(x, kept)


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
        cfg = FilterConfig(dt=0.1)
        with pytest.raises(ValueError):
            compute_gain(np.ones((2, 1)), np.ones((1, 1)), cfg, np.eye(1))


class TestBlendedDenominator:
    """``alpha/(N-1) Hd Hd^T + (1 - alpha) sigma^T sigma`` inside the gain."""

    def test_zero_covariance(self):
        # zero spread leaves the noise term alone, which must be positive
        # definite: an indefinite one is a numeric failure, not a zero gain
        pred = np.tile(np.array([[1.0], [2.0]]), (1, 4))
        h = np.tile(np.array([[0.5], [0.5]]), (1, 4))
        cfg = FilterConfig(dt=0.1, alpha=0.8)
        assert np.array_equal(compute_gain(pred, h, cfg, 0.2 * np.eye(2)),
                              np.zeros((2, 2)))
        with pytest.raises(NumericFailure,
                           match="gain denominator is not positive definite"):
            compute_gain(pred, h, cfg, np.zeros((2, 2)))

    def test_convex_combination_of_equal_terms(self):
        # an ensemble whose sample covariance is sigma^T sigma gives the
        # same gain for every alpha: alpha S + (1 - alpha) S = S
        sig = np.array([[0.5, 0.1], [0.1, 0.3]])
        ens = exact_moment_ensemble([1.0, -2.0], sig)
        N = ens.shape[1]
        expected = 0.1 * (N - 1) / N * np.eye(2)
        for alpha in (0.1, 0.5, 0.8, 0.99):
            cfg = FilterConfig(dt=0.1, alpha=alpha)
            G = compute_gain(ens, ens, cfg, (1 - alpha) * sig)
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
            cfg = FilterConfig(dt=0.1, alpha=alpha)
            G = compute_gain(pred, h, cfg, (1 - alpha) * sig)
            assert np.isfinite(G).all()

    def test_alpha_out_of_range(self):
        for alpha in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                FilterConfig(dt=0.1, alpha=alpha)


class TestComputeGain:
    def test_zero_spread_gives_zero_gain(self):
        pred = np.tile(np.array([[1.0], [2.0]]), (1, 6))
        h = np.tile(np.array([[0.3]]), (1, 6))
        cfg = FilterConfig(dt=0.1, alpha=0.8)
        G = compute_gain(pred, h, cfg, 0.2 * np.eye(1))
        assert np.array_equal(G, np.zeros((2, 1)))

    def test_scalar_two_particle_case(self):
        # frozen from the straight-line oracle: numerator (1 + 0)/2 = 0.5,
        # denominator 0.5 * 0.5 + 0.5 * 1 = 0.75, gain 2/3
        pred = np.array([[1.0, 3.0]])
        h = np.array([[0.5, 1.5]])
        cfg = FilterConfig(dt=1.0, alpha=0.5)
        G = compute_gain(pred, h, cfg, 0.5 * np.array([[1.0]]))
        oracle = gain_oracle(pred, h, [0.0], [0.0], 1.0, 0.0, 0.5, [[1.0]])
        assert G[0, 0] == pytest.approx(2.0 / 3.0, abs=1e-14)
        assert np.allclose(G, oracle, atol=1e-14)

    def test_scalar_alpha_to_zero_limit(self):
        # alpha ~ 0 drops the ensemble covariance: gain ~ numerator / sigma^2
        pred = np.array([[1.0, 3.0]])
        h = np.array([[0.5, 1.5]])
        cfg = FilterConfig(dt=1.0, alpha=1e-12)
        G = compute_gain(pred, h, cfg, (1 - 1e-12) * np.array([[1.0]]))
        oracle = gain_oracle(pred, h, [0.0], [0.0], 1.0, 0.0, 1e-12, [[1.0]])
        assert G[0, 0] == pytest.approx(0.5, rel=1e-9)
        assert np.allclose(G, oracle, atol=1e-13)

    @pytest.mark.parametrize("n,q,N,seed", [(1, 1, 4, 0), (3, 2, 8, 1),
                                            (4, 4, 5, 2), (2, 1, 50, 3)])
    def test_matches_oracle_on_random_inputs(self, n, q, N, seed):
        # the oracle evaluates the displayed gain, lag terms included, with
        # random nonzero lagged means; the collapsed gain must agree for
        # any (tc, tp): the step's (dt, 0) and the running times
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
        for tc, tp in ((t_curr - t_prev, 0.0), (t_curr, t_prev)):
            cfg = FilterConfig(dt=tc, alpha=alpha)
            G = compute_gain(pred, h, cfg, (1 - alpha) * sig)
            oracle = gain_oracle(pred, h, prev_x, prev_h, tc, tp, alpha, sig)
            assert np.allclose(G, oracle, rtol=1e-10, atol=1e-12), (tc, tp)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 6), q=st.integers(1, 4), N=st.integers(2, 40),
           dt=st.floats(1e-3, 1.0), alpha=st.floats(0.05, 0.95),
           spread=st.floats(1e-2, 1e2), noise=st.floats(1e-2, 1e2),
           seed=st.integers(0, 2**32 - 1))
    def test_measured_gain_stays_under_its_cap(self, n, q, N, dt, alpha,
                                               spread, noise, seed):
        # on a linear map the measured gain K = H G is similar to a
        # symmetric matrix, so its eigenvalues are real, and they lie in
        # [0, enks_gain_cap) however wide the spread.  They are computed
        # from a nonsymmetric (q, q) product, so the bounds and the
        # imaginary parts hold to TOL of the cap, as does the match with
        # the closed form from the brute-force covariance; over 100,000
        # draws from these ranges the largest miss was 3.1e-8 of the cap
        TOL = 1e-6
        rng = np.random.default_rng(seed)
        pred = spread * rng.standard_normal((n, N))
        H = rng.standard_normal((q, n))
        A = rng.standard_normal((q, q))
        R0 = noise * (A @ A.T + 0.1 * np.eye(q))
        cfg = FilterConfig(dt=dt, alpha=alpha)
        K = H @ compute_gain(pred, H @ pred, cfg, R0)
        cap = enks_gain_cap(dt, N, alpha)
        eig = np.linalg.eigvals(K)
        assert np.all(np.abs(eig.imag) <= TOL * cap), eig
        eig = np.sort(eig.real)
        assert eig[0] >= -TOL * cap and eig[-1] <= cap * (1 + TOL), (eig, cap)
        # the oracle: S = Hd Hd^T / (N-1) from plain loops, whitened by an
        # explicit inverse of R0's factor
        S = brute_covariance(list((H @ pred).T))
        Linv = np.linalg.inv(np.linalg.cholesky(R0))
        lam = np.clip(np.linalg.eigvalsh(Linv @ S @ Linv.T), 0.0, None)
        expected = cap * lam / (lam + 1.0 / alpha)
        assert np.allclose(eig, np.sort(expected), rtol=0, atol=TOL * cap)

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(1, 6), q=st.integers(1, 4), N=st.integers(2, 60),
           ratio=st.floats(0.0, 100.0), dt=st.floats(1e-3, 1.0),
           alpha=st.floats(0.05, 0.95), seed=st.integers(0, 2**32 - 1))
    def test_analysis_gain_matches_the_centred_solve(self, n, q, N, ratio, dt,
                                                     alpha, seed):
        # the kernel reads the state uncentred, X Hd^T, and applies the
        # inverse of the denominator's factor; the reference centres both
        # ensembles and LU-solves.  Each state row's mean is up to `ratio`
        # (at most 100, as on frame50's stiffness rows) times its spread,
        # so the kernel's rounding scales with the row's full norm: row i
        # of the gain agrees to TOL of scale |X_i| |Hd| |D^{-1}|, a bound
        # on that row built from the uncentred X_i.  Over 100,000 draws
        # from these ranges the largest miss was 1.4e-12 of that bound
        TOL = 1e-11
        rng = np.random.default_rng(seed)
        spread = 10.0 ** rng.uniform(-2, 2, (n, 1))
        pred = spread * (ratio * rng.uniform(-1, 1, (n, 1))
                         + rng.standard_normal((n, N)))
        h_spread = 10.0 ** rng.uniform(-2, 2, (q, 1))
        h = h_spread * (ratio * rng.uniform(-1, 1, (q, 1))
                        + rng.standard_normal((q, N)))
        A = rng.standard_normal((q, q))
        noise = 10.0 ** rng.uniform(-2, 2) * (A @ A.T + 0.1 * np.eye(q))
        scale, weight = dt / N, alpha / (N - 1)
        G = analysis_gain(pred, h, scale, weight, noise, GAIN_FAILURES)
        expected = centred_solve_gain(pred, h, scale, weight, noise)
        Hd = h - h.mean(axis=1, keepdims=True)
        denom = weight * (Hd @ Hd.T) + noise
        bound = (scale * np.linalg.norm(pred, axis=1) * np.linalg.norm(Hd, 2)
                 * np.linalg.norm(np.linalg.inv(denom), 2))
        miss = np.linalg.norm(G - expected, axis=1)
        assert np.all(miss <= TOL * bound), miss / bound
        # measurements that do not spread (Hd = 0: rows of one integer,
        # whose mean is exact) give an exactly zero gain, as they do in
        # the reference
        flat = np.repeat(rng.integers(-100, 100, (q, 1)).astype(float), N, 1)
        assert np.array_equal(
            analysis_gain(pred, flat, scale, weight, noise, GAIN_FAILURES),
            np.zeros((n, q)))

    def test_dimension_mismatch(self):
        cfg = FilterConfig(dt=0.1, alpha=0.5)
        with pytest.raises(ValueError):
            compute_gain(np.ones((2, 3)), np.ones((1, 4)), cfg, np.eye(1))

    def test_indefinite_denominator_is_a_numeric_failure(self):
        # a negative noise Gram makes alpha S + (1 - alpha) sigma^T sigma
        # indefinite; the Cholesky factorization must report it
        pred = np.array([[1.0, 2.0, 3.0], [0.0, 1.0, -1.0]])
        h = np.array([[0.1, 0.2, 0.4]])
        cfg = FilterConfig(dt=0.1, alpha=0.5)
        with pytest.raises(NumericFailure,
                           match="gain denominator is not positive definite"):
            compute_gain(pred, h, cfg, -0.5 * np.eye(1))

    def test_non_finite_numerator_is_a_numeric_failure(self):
        # the uncentred cross moment X Hd^T of entries of 1e308 against
        # measurement deviations of 10 and more overflows to inf, while the
        # denominator stays finite; the products with the factor's inverse
        # must pass it on silently
        pred = np.array([[1e308, 1e308, -1e308], [0.0, 1.0, -1.0]])
        h = np.array([[10.0, 30.0, -40.0]])
        cfg = FilterConfig(dt=0.1, alpha=0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericFailure, match="non-finite gain"):
                compute_gain(pred, h, cfg, 0.5 * np.eye(1))

    def test_non_finite_denominator_is_a_numeric_failure(self):
        # measurements whose spread overflows make the blend non-finite
        pred = np.array([[1.0, 2.0, 3.0]])
        h = np.array([[1e200, -1e200, 0.0]])
        cfg = FilterConfig(dt=0.1, alpha=0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericFailure,
                               match="non-finite blended denominator"):
                compute_gain(pred, h, cfg, 0.5 * np.eye(1))

    def test_shift_invariance(self):
        # the kernel centres both ensembles on their means: shifting every
        # particle by a constant leaves the gain unchanged
        rng = np.random.default_rng(4)
        pred = rng.standard_normal((3, 9))
        h = rng.standard_normal((2, 9))
        cfg = FilterConfig(dt=0.1, alpha=0.8)
        G = compute_gain(pred, h, cfg, 0.2 * np.eye(2))
        G_shift = compute_gain(pred + np.array([[4.0], [-2.0], [0.5]]),
                               h + np.array([[3.0], [1.0]]), cfg,
                               0.2 * np.eye(2))
        assert np.allclose(G_shift, G, rtol=1e-12, atol=1e-14)


class TestGainFailures:
    """The failure each of the kernel's failure tuples names.

    Every case runs with warnings as errors: the kernel's factor and solve
    warn of nothing and raise no ``LinAlgError``, only ``NumericFailure``.
    """

    PRED = np.array([[1.0, 2.0, 3.0], [0.0, 1.0, -1.0]])
    H = np.array([[0.1, 0.2, 0.4], [1.0, 0.0, -1.0]])

    @staticmethod
    def failure(pred, h, noise_term, failures):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericFailure) as info:
                analysis_gain(pred, h, 0.5, 0.5, noise_term, failures)
        return str(info.value)

    @pytest.mark.parametrize("failures", [GAIN_FAILURES, enkf.GAIN_FAILURES])
    @pytest.mark.parametrize("bad", ["nan", "inf", "nan-off-diagonal",
                                     "overflowing-spread"])
    def test_non_finite_denominator(self, failures, bad):
        noise, h = np.eye(2), self.H
        if bad == "nan":
            noise[1, 1] = np.nan
        elif bad == "inf":
            noise[0, 0] = np.inf
        elif bad == "nan-off-diagonal":
            noise[0, 1] = noise[1, 0] = np.nan
        else:
            h = np.array([[1e200, -1e200, 0.0], [1.0, 0.0, -1.0]])
        message = self.failure(self.PRED, h, noise, failures)
        assert message == failures[0] != failures[1]

    @pytest.mark.parametrize("failures", [GAIN_FAILURES, enkf.GAIN_FAILURES])
    @pytest.mark.parametrize("noise", [-np.eye(2), np.diag([1.0, -1.0])])
    def test_indefinite_denominator(self, failures, noise):
        # a spread of 1e-3 leaves the noise term's negative eigenvalue in
        # the denominator
        message = self.failure(self.PRED, 1e-3 * self.H, noise, failures)
        assert message == failures[1]

    @pytest.mark.parametrize("failures", [GAIN_FAILURES, enkf.GAIN_FAILURES])
    def test_finite_denominator_with_overflowing_cross_product(self,
                                                               failures):
        # one huge state row overflows only in the cross moment X Hd^T;
        # the denominator is finite and positive definite
        pred = np.array([[1e308, -1e308, 0.0], [0.0, 1.0, -1.0]])
        h = np.array([[10.0, -10.0, 0.0], [1.0, 0.0, -1.0]])
        message = self.failure(pred, h, np.eye(2), failures)
        assert message == failures[2] != failures[1]


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

    def test_one_observation_per_particle(self):
        # a (q, N) y gives each particle its own observation, as the
        # EnKF's perturbed observations do
        rng = np.random.default_rng(5)
        pred = rng.standard_normal((3, 6))
        h = rng.standard_normal((2, 6))
        G = rng.standard_normal((3, 2))
        y = rng.standard_normal((2, 6))
        out = additive_update(pred, G, y, h)
        for j in range(6):
            assert np.allclose(out[:, j], pred[:, j] + G @ (y[:, j] - h[:, j]),
                               rtol=1e-14, atol=1e-14)

    @pytest.mark.parametrize("shape", [(2, 5), (2, 7), (3,), (6,), (3, 6),
                                       (2, 6, 1)])
    def test_y_of_another_shape_is_a_value_error(self, shape):
        # y is (q,) or (q, N), with q = 2 and N = 6; (q, 1) and a
        # transposed y are refused too
        with pytest.raises(ValueError, match="y shape"):
            additive_update(np.zeros((3, 6)), np.zeros((3, 2)),
                            np.zeros(shape), np.zeros((2, 6)))

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


# an intensity of 1 over dt = 0.01
OU_NOISE_STD = np.array([0.1])


def ou_problem(n=1):
    proc = ProcessModel(n=1, m=1, drift_ensemble=lambda x, t: -x,
                        constant_diffusion=np.eye(1))
    return proc, identity_meas(1)


class TestEnksStep:
    def test_zero_spread_zero_fields_time_advance_only(self):
        proc = ProcessModel(n=2, m=0, drift_ensemble=lambda x, t: 0.0 * x,
                            constant_diffusion=np.zeros((2, 0)))
        meas = identity_meas(2)
        ens = np.tile(np.array([[1.0], [2.0]]), (1, 4))
        cfg = FilterConfig(dt=0.1, alpha=0.8)
        state = make_initial_state(ens, np.full(2, np.sqrt(0.1)), cfg)
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
        cfg = FilterConfig(dt=0.1, alpha=0.8, seed=5)
        state = make_initial_state(ens, [spec.meas_noise_std], cfg)
        new = enks_step(state, proc, meas, np.array([2.15]), cfg,
                        particle_streams(5, N))
        assert np.isfinite(new.ensemble).all()
        assert new.ensemble.shape == (1, N)

    def test_no_collapse_distinct_particles(self):
        proc, meas = ou_problem()
        N = 64
        ens = RngStream(9, 2).standard_normal((1, N))
        cfg = FilterConfig(dt=0.01, alpha=0.8, seed=9)
        state = make_initial_state(ens, OU_NOISE_STD, cfg)
        streams = particle_streams(9, N)
        for i in range(50):
            state = enks_step(state, proc, meas, np.array([0.1]), cfg, streams)
        assert len(np.unique(state.ensemble[0])) == N

    def test_determinism(self):
        proc, meas = ou_problem()
        N = 16

        def run():
            ens = RngStream(4, 2).standard_normal((1, N))
            cfg = FilterConfig(dt=0.01, alpha=0.8, seed=4)
            state = make_initial_state(ens, OU_NOISE_STD, cfg)
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
        ens = RngStream(17, 2).standard_normal((1, N))  # prior N(0, 1)
        cfg = FilterConfig(dt=dt, alpha=0.8, seed=17)
        state = make_initial_state(ens, [np.sqrt(R)], cfg)
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
            f"(cap dt (N-1)/(N alpha) = {enks_gain_cap(dt, N, cfg.alpha):.4g}"
            f" at N = {N}, dt/alpha = {dt / cfg.alpha:.4g} at large N) "
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
            fcfg = FilterConfig(dt=0.01, alpha=0.8, seed=600 + rep)
            ens0 = initial_ensemble(problem, N, 600 + rep)
            means, _, _ = run_filter_series("enks", problem, series, ens0, fcfg)
            devs.append(np.mean(np.abs(means - m_kal)))
        err_mean.append(np.mean(devs))
        err_se.append(np.std(devs, ddof=1) / np.sqrt(len(devs)))
    for k in range(2):
        noise = 2 * max(err_se[k], err_se[k + 1])
        assert err_mean[k + 1] <= err_mean[k] + 2 * noise, (
            f"error grew from N={250 * 4 ** k}: {err_mean}")
