import numpy as np
import pytest

from enks.enkf import EnkfConfig, EnkfState, enkf_step, enkf_update
from enks.errors import NumericFailure
from enks.models import MeasurementModel, ProcessModel
from enks.rng import RngStream, particle_streams

from oracles import scalar_kalman_series


class ZeroStream:
    """Stands in for an RngStream, yielding deterministic zero draws."""

    def standard_normal(self, size=None):
        return np.zeros(size) if size is not None else 0.0


class TestEnkfUpdate:
    def test_zero_spread_no_update(self):
        pred = np.tile(np.array([[1.0], [2.0]]), (1, 5))
        h = np.tile(np.array([[3.0]]), (1, 5))
        cfg = EnkfConfig(N=5, R=np.eye(1))
        out = enkf_update(pred, h, np.array([10.0]), cfg, RngStream(0, 4))
        assert np.array_equal(out, pred)

    def test_scalar_hand_case_with_forced_zero_perturbations(self):
        # particles (1, 3), identity h, R = 1, y = 2:
        # C_xh = C_hh = 2, gain = 2/3, analysis (1 + 2/3, 3 - 2/3)
        pred = np.array([[1.0, 3.0]])
        cfg = EnkfConfig(N=2, R=np.eye(1))
        out = enkf_update(pred, pred.copy(), np.array([2.0]), cfg, ZeroStream())
        assert np.allclose(out, [[1 + 2 / 3, 3 - 2 / 3]])

    def test_analysis_mean_tracks_kalman_posterior(self):
        # single analysis from a matched prior at N = 4000: mean within
        # 3 MC standard errors of the exact Kalman posterior mean
        N, R = 4000, 0.01
        prior = RngStream(31, 2).standard_normal((1, N))  # N(0, 1)
        y = 0.4
        cfg = EnkfConfig(N=N, R=np.array([[R]]))
        out = enkf_update(prior, prior.copy(), np.array([y]), cfg,
                          RngStream(31, 4))
        # exact posterior: K = 1/(1+R), m = K y about prior mean 0
        K = 1.0 / (1.0 + R)
        m_exact = K * y + (1 - K) * prior.mean()
        se = out.std(ddof=1) / np.sqrt(N)
        assert abs(out.mean() - m_exact) <= 3 * se

    def test_overflowing_spread_is_a_numeric_failure(self):
        # finite members whose covariance overflows: a diverged run, not a
        # contract violation
        pred = np.array([[1e200, -1e200, 0.0]])
        cfg = EnkfConfig(N=3, R=np.eye(1))
        with np.errstate(over="ignore"), pytest.raises(NumericFailure):
            enkf_update(pred, pred.copy(), np.array([0.0]), cfg, ZeroStream())

    def test_singular_innovation_covariance_is_a_numeric_failure(self):
        # two identical measurement rows give C_hh = 2^80 [[1, 1], [1, 1]],
        # exactly; R = 1e-12 I is below its rounding, so C_hh + R is
        # singular in floating point and its Cholesky factorization fails
        a = 2.0 ** 40
        h = np.array([[a, -a, 0.0], [a, -a, 0.0]])
        pred = np.array([[1.0, 2.0, 3.0]])
        cfg = EnkfConfig(N=3, R=1e-12 * np.eye(2))
        with pytest.raises(NumericFailure,
                           match="singular innovation covariance in analysis"):
            enkf_update(pred, h, np.zeros(2), cfg, ZeroStream())

    def test_perturbations_use_cholesky_factor_of_R(self):
        # correlated R: eps_j = chol(R) z_j, with the same z draws as the
        # stream yields; the factor is computed once, on construction
        R = np.array([[0.5, 0.2], [0.2, 0.3]])
        cfg = EnkfConfig(N=6, R=R)
        assert np.array_equal(cfg.chol_R, np.linalg.cholesky(R))
        rng = np.random.default_rng(3)
        pred = rng.standard_normal((3, 6))
        h = pred[:2] + 0.1 * rng.standard_normal((2, 6))
        y = np.array([0.3, -0.2])
        out = enkf_update(pred, h, y, cfg, RngStream(7, 4))

        eps = np.linalg.cholesky(R) @ RngStream(7, 4).standard_normal((2, 6))
        Xd = pred - pred.mean(axis=1, keepdims=True)
        Hd = h - h.mean(axis=1, keepdims=True)
        C_xh, C_hh = Xd @ Hd.T / 5, Hd @ Hd.T / 5
        gain = np.linalg.solve(C_hh + R, C_xh.T).T
        expected = pred + gain @ (y[:, None] + eps - h)
        assert np.allclose(out, expected, rtol=1e-12, atol=1e-12)
        assert np.array_equal(out, enkf_update(pred, h, y, EnkfConfig(N=6, R=R),
                                               RngStream(7, 4)))

    def test_shape_checks(self):
        cfg = EnkfConfig(N=3, R=np.eye(2))
        with pytest.raises(ValueError):
            enkf_update(np.ones((2, 3)), np.ones((1, 3)), np.ones(2), cfg,
                        ZeroStream())
        with pytest.raises(ValueError):  # one particle has no covariance
            enkf_update(np.ones((2, 1)), np.ones((2, 1)), np.ones(2), cfg,
                        ZeroStream())

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EnkfConfig(N=1, R=np.eye(1))
        with pytest.raises(ValueError):
            EnkfConfig(N=10, R=np.array([[1.0, 2.0], [0.0, 1.0]]))  # asymmetric
        with pytest.raises(ValueError):
            EnkfConfig(N=10, R=np.diag([1.0, 0.0]))  # singular


def identity_meas(n, dt=0.01):
    return MeasurementModel(q=n, h=lambda x, t: x, nu=np.eye(n), dt_scale=dt,
                            h_ensemble=lambda x, t: x)


class TestEnkfStep:
    def test_zero_fields_zero_spread_time_advance_only(self):
        proc = ProcessModel(n=1, m=0, drift=lambda x, t: np.zeros(1),
                            diffusion=lambda x, t: np.zeros((1, 0)))
        meas = identity_meas(1)
        ens = np.full((1, 4), 2.0)
        state = EnkfState(t_curr=0.0, ensemble=ens)
        cfg = EnkfConfig(N=4, R=np.eye(1))
        new = enkf_step(state, proc, meas, np.array([7.0]), cfg,
                        particle_streams(0, 4), RngStream(0, 4), dt=0.1)
        assert np.array_equal(new.ensemble, ens)
        assert new.t_curr == pytest.approx(0.1)

    def test_frame50_config_runs(self):
        # full-scale ensemble on the 50-storey frame, a few steps
        from enks.benchmarks import build_shear_frame, default_frame_spec, frame_truth_x0
        spec = default_frame_spec(50)
        proc, meas = build_shear_frame(spec, xi=0.7, param_diffusion=0.01,
                                       meas_noise_std=0.05, dt=0.01)
        N = 800
        rng = RngStream(1, 2)
        x0 = frame_truth_x0(spec)
        ens = x0[:, None] + 0.5 * rng.standard_normal((200, N))
        state = EnkfState(t_curr=0.0, ensemble=ens)
        cfg = EnkfConfig(N=N, R=0.05 ** 2 * np.eye(50))
        streams = particle_streams(1, N)
        perturb = RngStream(1, 4)
        y = meas.evaluate(x0[:, None], 0.01)[:, 0]
        for i in range(3):
            state = enkf_step(state, proc, meas, y, cfg, streams, perturb,
                              dt=0.01)
        assert np.isfinite(state.ensemble).all()
        assert state.ensemble.shape == (200, N)

    def test_frame20_config_runs(self):
        from enks.benchmarks import build_damaged_frame, default_frame_spec, frame_truth_x0
        spec = default_frame_spec(20)
        proc, meas = build_damaged_frame(spec, damaged_storey=10, damaged_k=98.0,
                                         xi=0.7, param_diffusion=0.01,
                                         meas_noise_std=0.05, dt=0.01)
        N = 300
        x0 = frame_truth_x0(spec)
        ens = x0[:, None] + 0.5 * RngStream(2, 2).standard_normal((80, N))
        state = EnkfState(t_curr=0.0, ensemble=ens)
        cfg = EnkfConfig(N=N, R=0.05 ** 2 * np.eye(20))
        y = meas.evaluate(x0[:, None], 0.01)[:, 0]
        state = enkf_step(state, proc, meas, y, cfg, particle_streams(2, N),
                          RngStream(2, 4), dt=0.01)
        assert np.isfinite(state.ensemble).all()

    def test_determinism(self):
        proc = ProcessModel(n=1, m=1, drift=lambda x, t: -x,
                            diffusion=lambda x, t: np.eye(1),
                            drift_ensemble=lambda x, t: -x,
                            constant_diffusion=np.eye(1))
        meas = identity_meas(1)

        def run():
            ens = RngStream(5, 2).standard_normal((1, 32))
            state = EnkfState(t_curr=0.0, ensemble=ens)
            cfg = EnkfConfig(N=32, R=0.01 * np.eye(1))
            streams = particle_streams(5, 32)
            perturb = RngStream(5, 4)
            for i in range(10):
                state = enkf_step(state, proc, meas, np.array([0.3]), cfg,
                                  streams, perturb, dt=0.01)
            return state.ensemble

        assert np.array_equal(run(), run())

    def test_mean_error_shrinks_with_ensemble_size(self):
        # trajectory-level consistency: error against the exact Kalman
        # mean drops at roughly N^(-1/2) on a log-log fit
        proc = ProcessModel(n=1, m=1, drift=lambda x, t: -x,
                            diffusion=lambda x, t: np.eye(1),
                            drift_ensemble=lambda x, t: -x,
                            constant_diffusion=np.eye(1))
        dt, R, M = 0.01, 0.01, 150
        meas = MeasurementModel(q=1, h=lambda x, t: x,
                                nu=np.array([[np.sqrt(R / dt)]]), dt_scale=dt,
                                h_ensemble=lambda x, t: x)
        data_rng = RngStream(77, 0)
        truth = [float(data_rng.standard_normal())]
        for _ in range(M):
            truth.append((1 - dt) * truth[-1]
                         + np.sqrt(dt) * float(data_rng.standard_normal()))
        ys = np.array(truth[1:]) + np.sqrt(R) * data_rng.standard_normal(M)
        m_kal, _ = scalar_kalman_series(0.0, 1.0, 1 - dt, dt, 1.0, R, ys)

        sizes = [100, 400, 1600]
        errs = []
        for N in sizes:
            dev = []
            for rep in range(8):
                seed = 100 + rep
                ens = RngStream(seed, 2).standard_normal((1, N))
                state = EnkfState(t_curr=0.0, ensemble=ens)
                cfg = EnkfConfig(N=N, R=np.array([[R]]))
                streams = particle_streams(seed, N)
                perturb = RngStream(seed, 4)
                means = []
                for i in range(M):
                    state = enkf_step(state, proc, meas, ys[i:i + 1], cfg,
                                      streams, perturb, dt=dt)
                    means.append(state.ensemble.mean())
                dev.append(np.mean(np.abs(np.array(means) - m_kal)))
            errs.append(np.mean(dev))
        slope = np.polyfit(np.log(sizes), np.log(errs), 1)[0]
        assert -0.8 < slope < -0.25, f"slope {slope:.3f}, errors {errs}"
