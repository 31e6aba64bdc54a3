import numpy as np
import pytest

from enks.errors import NumericFailure
from enks.harness import ExperimentConfig, make_twin_data
from enks.models import MeasurementModel, ProcessModel
from enks.benchmarks import PROBLEM_IDS, build_problem
from enks.rng import TRUTH_STREAM, RngStream, particle_streams
from enks.sde import (_em, clean_signal, predict_ensemble, simulate_truth,
                      synth_measurements)

from oracles import FixedNoise, clean_signal_oracle, truth_path_oracle


def scalar_model(drift, f):
    """dx = drift(x) dt + f dB on one channel; ``drift`` maps arrays."""
    return ProcessModel(n=1, m=1, drift_ensemble=lambda x, t: drift(x),
                        constant_diffusion=[[f]])


def zero_model(n=2):
    return ProcessModel(n=n, m=0, drift_ensemble=lambda x, t: np.zeros_like(x),
                        constant_diffusion=np.zeros((n, 0)))


class TestEmStep:
    # the one Euler-Maruyama kernel that both the ensemble prediction and
    # the one-column truth step through
    def test_identity_under_zero_fields(self):
        out = _em(zero_model(), np.array([[1.0], [2.0]]), 0.0, 0.01, None)
        assert np.array_equal(out, [[1.0], [2.0]])

    def test_pure_drift(self):
        model = scalar_model(lambda x: x, 0.0)
        out = _em(model, np.array([[1.0]]), 0.0, 0.1, np.zeros((1, 1)))
        assert out[0, 0] == pytest.approx(1.1)

    def test_drift_plus_noise(self):
        model = scalar_model(lambda x: -x, 1.0)
        out = _em(model, np.array([[2.0]]), 0.0, 0.01, np.array([[0.05]]))
        assert out[0, 0] == pytest.approx(2.03)

    def test_bad_dt(self):
        with pytest.raises(ValueError):
            predict_ensemble(zero_model(), np.zeros((2, 1)), 0.0, 0.0,
                             particle_streams(0, 1))

    def test_nonfinite_output_raises(self):
        model = scalar_model(lambda x: np.full_like(x, np.inf), 0.0)
        with pytest.raises(NumericFailure) as info:
            simulate_truth(model, np.array([1.0]), np.array([0.1]),
                           RngStream(0, 0))
        assert "truth simulation failed" in str(info.value)
        assert info.value.step == 0


class TestPredictEnsemble:
    def test_zero_fields_identity(self):
        ens = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        out = predict_ensemble(zero_model(), ens, 0.0, 0.1, particle_streams(0, 3))
        assert np.array_equal(out, ens)

    def test_deterministic_drift(self):
        model = ProcessModel(n=1, m=0,
                             drift_ensemble=lambda x, t: np.ones_like(x),
                             constant_diffusion=np.zeros((1, 0)))
        ens = np.array([[0.0, 10.0]])
        out = predict_ensemble(model, ens, 0.0, 0.5, particle_streams(0, 2))
        assert np.allclose(out, [[0.5, 10.5]])

    def test_ito_isometry_variance_growth(self):
        # b = 0, f = 1: one-step covariance increment is dt within MC error
        N, dt = 10_000, 0.01
        model = scalar_model(lambda x: 0.0 * x, 1.0)
        ens = np.zeros((1, N))
        out = predict_ensemble(model, ens, 0.0, dt, particle_streams(42, N))
        growth = out.var(ddof=1)
        assert abs(growth - dt) < 5 / np.sqrt(N) * dt

    def test_em_weak_consistency(self):
        # b = -x, f = 1: ensemble mean contracts by (1 - dt) up to noise
        N, dt = 4000, 0.05
        model = scalar_model(lambda x: -x, 1.0)
        ens = np.full((1, N), 3.0)
        out = predict_ensemble(model, ens, 0.0, dt, particle_streams(7, N))
        expected = (1 - dt) * 3.0
        assert abs(out.mean() - expected) <= 4 * out.std(ddof=1) / np.sqrt(N)

    def test_shape_preserved_and_deterministic(self):
        model = scalar_model(lambda x: -x, 0.5)
        ens = np.linspace(-1, 1, 8)[None, :]
        a = predict_ensemble(model, ens, 0.0, 0.1, particle_streams(5, 8))
        b = predict_ensemble(model, ens, 0.0, 0.1, particle_streams(5, 8))
        assert a.shape == ens.shape
        assert np.array_equal(a, b)

    def test_column_order_matches_streams(self):
        # permutation equivariance: permuting the particles and their
        # increments together permutes the output
        class PermutedNoise:
            def __init__(self, noise, perm):
                self.noise, self.perm, self.N = noise, perm, noise.N

            def increments(self, m, dt):
                return self.noise.increments(m, dt)[:, self.perm]

        # dyadic diffusion entries make every product exact, so no BLAS
        # summation order can tell the columns apart
        model = ProcessModel(n=2, m=2, drift_ensemble=lambda x, t: -x * x[::-1],
                             constant_diffusion=np.array([[1.0, 0.5],
                                                          [0.0, 2.0]]))
        ens = RngStream(4, 2).standard_normal((2, 5))
        perm = [2, 0, 4, 1, 3]
        out = predict_ensemble(model, ens, 0.0, 0.1, particle_streams(9, 5))
        out_p = predict_ensemble(model, ens[:, perm], 0.0, 0.1,
                                 PermutedNoise(particle_streams(9, 5), perm))
        assert np.array_equal(out[:, perm], out_p)

    @pytest.mark.parametrize("problem_id", ["frame50", "pendulum",
                                            "linear-gaussian"])
    def test_selection_diffusion_matches_dense_product(self, problem_id):
        # the shipped diffusions are scaled selections: applying one by
        # slices gives the bits of the dense product, alone and inside
        # the prediction, for the filter and the frozen-parameter truth
        problem = build_problem(problem_id)
        for model in (problem.proc_filter, problem.proc_truth):
            F = model.constant_diffusion
            assert model.selection is not None
            rows, cols, scale = model.selection
            N = 7
            dB = 0.1 * RngStream(5, 2).standard_normal((model.m, N))
            sliced = np.zeros((model.n, N))
            sliced[rows] += scale * dB[cols]
            assert np.array_equal(sliced, F @ dB)
            ens = RngStream(6, 2).standard_normal((model.n, N)) + 1.0
            out = predict_ensemble(model, ens, 0.3, 0.01, FixedNoise(dB))
            dense = ens + model.drift_ensemble(ens, 0.3) * 0.01 + F @ dB
            assert np.array_equal(out, dense)

    @pytest.mark.parametrize("F", [np.diag([0.3, 0.5]),
                                   np.array([[1.0, 0.5], [0.0, 2.0]])],
                             ids=["selection", "dense"])
    @pytest.mark.parametrize("drift", [lambda x: -x * x[::-1], lambda x: x,
                                       lambda x: x[::-1]],
                             ids=["new", "itself", "view"])
    def test_in_place_prediction_has_the_bits_of_a_new_array(self, drift, F):
        # out=ens predicts over the ensemble itself with the bits of a
        # prediction into a new array, also for a drift that is the
        # ensemble or a view of it; the increments are left as they are
        model = ProcessModel(n=2, m=2, drift_ensemble=lambda x, t: drift(x),
                             constant_diffusion=F)
        dB = RngStream(3, 2).standard_normal((2, 9))
        ens = RngStream(4, 2).standard_normal((2, 9))
        expected = predict_ensemble(model, ens, 0.0, 0.1, FixedNoise(dB))
        kept = dB.copy()
        out = predict_ensemble(model, ens, 0.0, 0.1, FixedNoise(dB), out=ens)
        assert out is ens
        assert np.array_equal(out, expected) and np.array_equal(dB, kept)

    def test_dense_diffusion_keeps_the_product(self):
        # two nonzeros in a row is no selection: prediction multiplies
        F = np.array([[1.0, 0.5], [0.0, 2.0]])
        model = ProcessModel(n=2, m=2, drift_ensemble=lambda x, t: -x,
                             constant_diffusion=F)
        assert model.selection is None
        dB = RngStream(3, 2).standard_normal((2, 4))
        ens = RngStream(4, 2).standard_normal((2, 4))
        out = predict_ensemble(model, ens, 0.0, 0.1, FixedNoise(dB))
        assert np.array_equal(out, ens + (-ens) * 0.1 + F @ dB)

    @pytest.mark.parametrize("shape", [(1, 3, 50), (4, 3, 600),
                                       (16, 12, 300), (200, 150, 800)])
    def test_dense_diffusion_gives_the_bits_of_c_ordered_increments(self,
                                                                    shape):
        # the noise hands out the transpose of its (N, m) panel; at some
        # shapes (the first and third here, with numpy 2.4.6's OpenBLAS at
        # one thread or two) F @ dB on that F-ordered view sums in another
        # order than on a C-ordered copy, and the prediction keeps the
        # copy's bits
        n, m, N = shape
        rng = np.random.default_rng(n)
        F = rng.standard_normal((n, m))
        model = ProcessModel(n=n, m=m, drift_ensemble=lambda x, t: -x,
                             constant_diffusion=F)
        assert model.selection is None
        ens = rng.standard_normal((n, N))
        dB = np.ascontiguousarray(particle_streams(8, N).increments(m, 0.1))
        out = predict_ensemble(model, ens, 0.0, 0.1, particle_streams(8, N))
        assert np.array_equal(out, ens + (-ens) * 0.1 + F @ dB)

    @pytest.mark.parametrize("F, selection", [
        (np.zeros((3, 2)), (slice(0, 0), slice(0, 0), [])),
        (np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 3.0]]),
         (slice(1, 3), slice(0, 2), [2.0, 3.0])),
        (np.array([[0.0, 4.0, 0.0]]), (slice(0, 1), slice(1, 2), [4.0])),
        (np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]]), None),  # row gap
        (np.array([[0.0, 1.0], [1.0, 0.0]]), None),  # columns reversed
    ])
    def test_selection_structure(self, F, selection):
        model = ProcessModel(n=F.shape[0], m=F.shape[1],
                             drift_ensemble=lambda x, t: 0.0 * x,
                             constant_diffusion=F)
        if selection is None:
            assert model.selection is None
            return
        rows, cols, scale = model.selection
        assert (rows, cols) == selection[:2]
        assert np.array_equal(scale.ravel(), selection[2])

    def test_stream_count_must_match_particles(self):
        model = scalar_model(lambda x: 0.0 * x, 1.0)
        with pytest.raises(ValueError):
            predict_ensemble(model, np.zeros((1, 3)), 0.0, 0.1,
                             particle_streams(0, 4))


def population_model():
    """Noise-free population equation, r1 = 1, r2 = 2."""
    return ProcessModel(n=1, m=0,
                        drift_ensemble=lambda x, t: -1.0 * (1 - x / 2.0) * x,
                        constant_diffusion=np.zeros((1, 0)))


class TestSimulateTruth:
    def test_constant_for_zero_fields(self):
        grid = np.linspace(0.1, 1.0, 10)
        traj = simulate_truth(zero_model(), np.array([1.5, -2.0]), grid,
                              RngStream(0, 0))
        assert np.allclose(traj, np.array([[1.5], [-2.0]]) @ np.ones((1, 10)))

    def test_population_rises_from_unstable_start(self):
        # drift at 2.1 is +0.105, so the noise-free path moves up immediately
        model = population_model()
        grid = 0.1 * np.arange(1, 11)
        traj = simulate_truth(model, np.array([2.1]), grid, RngStream(0, 0))
        assert traj[0, 0] == pytest.approx(2.1 + 0.1 * 0.105)
        assert np.all(np.diff(traj[0]) > 0)

    def test_population_fixed_point(self):
        model = population_model()
        grid = 0.1 * np.arange(1, 21)
        traj = simulate_truth(model, np.array([2.0]), grid, RngStream(0, 0))
        assert np.allclose(traj, 2.0)

    def test_bad_grid(self):
        with pytest.raises(ValueError):
            simulate_truth(zero_model(), np.zeros(2), np.array([0.2, 0.1]),
                           RngStream(0, 0))

    def test_grid_from_time_zero_keeps_the_start(self):
        # a grid that starts at t = 0 records x0 there and steps from it
        model = scalar_model(lambda x: -x, 0.5)
        grid = np.array([0.0, 0.1, 0.3])
        traj = simulate_truth(model, np.array([2.0]), grid, RngStream(4, 0))
        want = truth_path_oracle(model, np.array([2.0]), grid[1:] - grid[0],
                                 RngStream(4, 0))
        assert traj[0, 0] == 2.0
        assert np.array_equal(traj[:, 1:], want)

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("problem_id", PROBLEM_IDS)
    def test_matches_per_step_oracle(self, problem_id, seed):
        # the one-column kernel, with the whole Brownian path drawn in one
        # call, gives the bits of the per-step recursion with per-step
        # draws; the linear-Gaussian prior draw comes first on the stream
        cfg = ExperimentConfig(problem=problem_id, horizon=2.0, seed=seed,
                               emit_outputs=False)
        problem, truth, _, grid = make_twin_data(cfg)
        stream = RngStream(seed, TRUTH_STREAM)
        x0 = problem.x0_truth
        if x0 is None:
            spec = problem.kalman_spec
            x0 = (spec.x0_mean + np.linalg.cholesky(spec.x0_cov)
                  @ stream.standard_normal(spec.n))
        assert np.array_equal(
            truth, truth_path_oracle(problem.proc_truth, x0, grid, stream))

    @pytest.mark.parametrize("seed, step", [(0, 62), (1, 37), (3, 41)])
    def test_diverging_population_fails_like_the_oracle(self, seed, step):
        # the finiteness check after the loop names the first non-finite
        # step, as a check after every step does
        cfg = ExperimentConfig(problem="population", dt=0.1, horizon=100.0,
                               seed=seed, emit_outputs=False)
        problem = build_problem("population", dt=0.1)
        grid = 0.1 * np.arange(1, 1001)
        with pytest.raises(NumericFailure) as got:
            make_twin_data(cfg)
        with pytest.raises(NumericFailure) as want:
            truth_path_oracle(problem.proc_truth, problem.x0_truth, grid,
                              RngStream(seed, TRUTH_STREAM))
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith("truth simulation failed")
        assert got.value.step == want.value.step == step
        assert got.value.t == want.value.t == grid[step]


class TestCleanSignal:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("problem_id", PROBLEM_IDS)
    def test_matches_per_time_oracle(self, problem_id, seed):
        # one call of h over the whole truth gives the bits of one call
        # per grid time
        cfg = ExperimentConfig(problem=problem_id, seed=seed,
                               horizon=1.0 if problem_id == "population" else 2.0,
                               emit_outputs=False)
        problem, truth, _, grid = make_twin_data(cfg)
        assert np.array_equal(clean_signal(problem.meas, truth, grid),
                              clean_signal_oracle(problem.meas, truth, grid))

    def test_shape_check(self):
        meas = MeasurementModel(q=2, h=lambda x, t: x[:1], nu=np.eye(2),
                                dt_scale=0.1)
        with pytest.raises(ValueError, match="h returned shape"):
            clean_signal(meas, np.ones((3, 4)), 0.1 * np.arange(1, 5))


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
