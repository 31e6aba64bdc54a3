import numpy as np
import pytest

from enks.errors import NumericFailure
from enks.models import MeasurementModel, ProcessModel
from enks.rng import ParticleNoise, RngStream, particle_streams
from enks.sde import em_step, predict_ensemble, simulate_truth, synth_measurements


def scalar_model(drift, diffusion):
    return ProcessModel(n=1, m=1,
                        drift=lambda x, t: np.array([drift(x[0])]),
                        diffusion=lambda x, t: np.array([[diffusion(x[0])]]))


def zero_model(n=2):
    return ProcessModel(n=n, m=0,
                        drift=lambda x, t: np.zeros(n),
                        diffusion=lambda x, t: np.zeros((n, 0)))


class TestEmStep:
    def test_identity_under_zero_fields(self):
        out = em_step(zero_model(), np.array([1.0, 2.0]), 0.0, 0.01, np.zeros(0))
        assert np.array_equal(out, [1.0, 2.0])

    def test_pure_drift(self):
        model = scalar_model(lambda x: x, lambda x: 0.0)
        out = em_step(model, np.array([1.0]), 0.0, 0.1, np.zeros(1))
        assert out[0] == pytest.approx(1.1)

    def test_drift_plus_noise(self):
        model = scalar_model(lambda x: -x, lambda x: 1.0)
        out = em_step(model, np.array([2.0]), 0.0, 0.01, np.array([0.05]))
        assert out[0] == pytest.approx(2.03)

    def test_bad_dt(self):
        with pytest.raises(ValueError):
            em_step(zero_model(), np.zeros(2), 0.0, 0.0, np.zeros(0))

    def test_nonfinite_output_raises(self):
        model = scalar_model(lambda x: np.inf, lambda x: 0.0)
        with pytest.raises(NumericFailure):
            em_step(model, np.array([1.0]), 0.0, 0.1, np.zeros(1))


class TestPredictEnsemble:
    def test_zero_fields_identity(self):
        ens = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        out = predict_ensemble(zero_model(), ens, 0.0, 0.1, particle_streams(0, 3))
        assert np.array_equal(out, ens)

    def test_deterministic_drift(self):
        model = ProcessModel(n=1, m=0, drift=lambda x, t: np.ones(1),
                             diffusion=lambda x, t: np.zeros((1, 0)))
        ens = np.array([[0.0, 10.0]])
        out = predict_ensemble(model, ens, 0.0, 0.5, particle_streams(0, 2))
        assert np.allclose(out, [[0.5, 10.5]])

    def test_ito_isometry_variance_growth(self):
        # b = 0, f = 1: one-step covariance increment is dt within MC error
        N, dt = 10_000, 0.01
        model = scalar_model(lambda x: 0.0, lambda x: 1.0)
        ens = np.zeros((1, N))
        out = predict_ensemble(model, ens, 0.0, dt, particle_streams(42, N))
        growth = out.var(ddof=1)
        assert abs(growth - dt) < 5 / np.sqrt(N) * dt

    def test_em_weak_consistency(self):
        # b = -x, f = 1: ensemble mean contracts by (1 - dt) up to noise
        N, dt = 4000, 0.05
        model = scalar_model(lambda x: -x, lambda x: 1.0)
        ens = np.full((1, N), 3.0)
        out = predict_ensemble(model, ens, 0.0, dt, particle_streams(7, N))
        expected = (1 - dt) * 3.0
        assert abs(out.mean() - expected) <= 4 * out.std(ddof=1) / np.sqrt(N)

    def test_shape_preserved_and_deterministic(self):
        model = scalar_model(lambda x: -x, lambda x: 0.5)
        ens = np.linspace(-1, 1, 8)[None, :]
        a = predict_ensemble(model, ens, 0.0, 0.1, particle_streams(5, 8))
        b = predict_ensemble(model, ens, 0.0, 0.1, particle_streams(5, 8))
        assert a.shape == ens.shape
        assert np.array_equal(a, b)

    def test_column_order_matches_streams(self):
        # each column must consume its own stream: permuting columns and
        # streams together permutes the output
        model = scalar_model(lambda x: 0.0, lambda x: 1.0)
        ens = np.array([[1.0, 2.0, 3.0]])
        out = predict_ensemble(model, ens, 0.0, 0.1, particle_streams(9, 3))
        perm = [2, 0, 1]
        streams = particle_streams(9, 3).streams
        out_p = predict_ensemble(model, ens[:, perm], 0.0, 0.1,
                                 ParticleNoise([streams[j] for j in perm]))
        assert np.array_equal(out[:, perm], out_p)

    def test_stream_count_must_match_particles(self):
        model = scalar_model(lambda x: 0.0, lambda x: 1.0)
        with pytest.raises(ValueError):
            predict_ensemble(model, np.zeros((1, 3)), 0.0, 0.1,
                             particle_streams(0, 4))


class TestSimulateTruth:
    def test_constant_for_zero_fields(self):
        grid = np.linspace(0.1, 1.0, 10)
        traj = simulate_truth(zero_model(), np.array([1.5, -2.0]), grid,
                              RngStream(0, 0))
        assert np.allclose(traj, np.array([[1.5], [-2.0]]) @ np.ones((1, 10)))

    def test_population_rises_from_unstable_start(self):
        # drift at 2.1 is +0.105, so the noise-free path moves up immediately
        model = ProcessModel(n=1, m=0,
                             drift=lambda x, t: -1.0 * (1 - x / 2.0) * x,
                             diffusion=lambda x, t: np.zeros((1, 0)))
        grid = 0.1 * np.arange(1, 11)
        traj = simulate_truth(model, np.array([2.1]), grid, RngStream(0, 0))
        assert traj[0, 0] == pytest.approx(2.1 + 0.1 * 0.105)
        assert np.all(np.diff(traj[0]) > 0)

    def test_population_fixed_point(self):
        model = ProcessModel(n=1, m=0,
                             drift=lambda x, t: -1.0 * (1 - x / 2.0) * x,
                             diffusion=lambda x, t: np.zeros((1, 0)))
        grid = 0.1 * np.arange(1, 21)
        traj = simulate_truth(model, np.array([2.0]), grid, RngStream(0, 0))
        assert np.allclose(traj, 2.0)

    def test_bad_grid(self):
        with pytest.raises(ValueError):
            simulate_truth(zero_model(), np.zeros(2), np.array([0.2, 0.1]),
                           RngStream(0, 0))


class TestSynthMeasurements:
    def test_zero_noise_identity(self):
        meas = MeasurementModel(q=2, h=lambda x, t: x, nu=np.eye(2), dt_scale=0.1)
        traj = np.arange(8.0).reshape(2, 4)
        grid = 0.1 * np.arange(1, 5)
        series = synth_measurements(meas, traj, grid, RngStream(1, 1),
                                    np.zeros(2))
        assert np.array_equal(series.values, traj)
        assert np.array_equal(series.times, grid)

    def test_deterministic_replay(self):
        meas = MeasurementModel(q=1, h=lambda x, t: x[:1], nu=np.eye(1), dt_scale=0.1)
        traj = np.ones((1, 5))
        grid = 0.1 * np.arange(1, 6)
        a = synth_measurements(meas, traj, grid, RngStream(3, 1), np.array([0.1]))
        b = synth_measurements(meas, traj, grid, RngStream(3, 1), np.array([0.1]))
        assert np.array_equal(a.values, b.values)

    def test_length_mismatch(self):
        meas = MeasurementModel(q=1, h=lambda x, t: x[:1], nu=np.eye(1), dt_scale=0.1)
        with pytest.raises(ValueError):
            synth_measurements(meas, np.ones((1, 4)), 0.1 * np.arange(1, 6),
                               RngStream(0, 0), np.array([0.1]))

    def test_negative_noise_rejected(self):
        meas = MeasurementModel(q=1, h=lambda x, t: x[:1], nu=np.eye(1), dt_scale=0.1)
        with pytest.raises(ValueError):
            synth_measurements(meas, np.ones((1, 4)), 0.1 * np.arange(1, 5),
                               RngStream(0, 0), np.array([-0.1]))
