import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enks.benchmarks import (PROBLEM_IDS, LinearGaussianSpec, PendulumSpec,
                             PopulationSpec,
                             ShearFrameSpec, build_linear_gaussian,
                             build_pendulum, build_population, build_problem,
                             build_shear_frame,
                             default_frame_spec, enks_limit_oracle,
                             frame_truth_x0, kalman_oracle,
                             scalar_linear_gaussian,
                             tridiagonal_stiffness, _storey_chain_apply)
from enks.core import FilterConfig
from enks.errors import NumericFailure
from enks.harness import (ExperimentConfig, initial_ensemble, make_twin_data,
                          run_filter_series)
from enks.iterative import make_schedule
from enks.models import MeasurementSeries, ProcessModel
from enks.rng import RngStream
from enks.sde import simulate_truth

from oracles import (GAIN_READINGS, enks_limit_series, gain_reading_limit,
                     kalman_series)


def state_drift(proc, x, t):
    """Drift of one state vector, stepped as a one-column ensemble."""
    return proc.drift_ensemble(x[:, None], t)[:, 0]


class TestTridiagonalStiffness:
    def test_single_storey(self):
        assert np.array_equal(tridiagonal_stiffness([5.0], 1), [[5.0]])

    def test_two_storeys(self):
        K = tridiagonal_stiffness([2.0, 3.0], 2)
        assert np.array_equal(K, [[5.0, -3.0], [-3.0, 3.0]])

    def test_fifty_uniform(self):
        K = tridiagonal_stiffness([100.0] * 50, 50)
        diag = np.diag(K)
        assert np.all(diag[:-1] == 200.0) and diag[-1] == 100.0
        assert np.all(np.diag(K, 1) == -100.0)
        assert np.all(np.diag(K, -1) == -100.0)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            tridiagonal_stiffness([1.0, 0.0], 2)

    def test_symmetric_positive_definite(self):
        rng = np.random.default_rng(1)
        for dof in (1, 3, 10, 50):
            p = rng.uniform(10.0, 200.0, dof)
            K = tridiagonal_stiffness(p, dof)
            assert np.array_equal(K, K.T)
            assert np.all(np.linalg.eigvalsh(K) > 0)


class TestShearFrame:
    def test_augmented_dimensions(self):
        proc50, _ = build_shear_frame(default_frame_spec(50))
        assert proc50.n == 200
        proc20, _ = build_shear_frame(default_frame_spec(20))
        assert proc20.n == 80

    def test_equilibrium_with_zero_forcing(self):
        spec = default_frame_spec(4)
        proc, _ = build_shear_frame(spec, xi=0.0)
        x0 = frame_truth_x0(spec)
        x0[:8] = 0.0
        assert np.array_equal(state_drift(proc, x0, 0.3), np.zeros(16))

    def test_drift_linear_in_state_channels(self):
        # frozen parameters, zero forcing: doubling (u, v) doubles the drift
        spec = default_frame_spec(5)
        proc, _ = build_shear_frame(spec, xi=0.0)
        rng = np.random.default_rng(3)
        z = frame_truth_x0(spec)
        z[:10] = rng.standard_normal(10)
        z2 = z.copy()
        z2[:10] *= 2.0
        d1, d2 = state_drift(proc, z, 0.0), state_drift(proc, z2, 0.0)
        assert np.allclose(d2[:10], 2 * d1[:10])

    def test_drift_matches_matrix_assembly(self):
        # product form against explicit tridiagonal matrices, per particle
        spec = default_frame_spec(6)
        proc, _ = build_shear_frame(spec, xi=0.9)
        rng = np.random.default_rng(4)
        x = np.abs(rng.standard_normal(24)) + 0.5
        t = 0.7
        d = state_drift(proc, x, t)
        u, v, kp, cp = x[:6], x[6:12], x[12:18], x[18:]
        K = tridiagonal_stiffness(kp, 6)
        C = tridiagonal_stiffness(cp, 6)
        r = 500.0 * np.exp(-t) * 0.9 * np.cos(5 * t)
        assert np.allclose(d[:6], v)
        assert np.allclose(d[6:12], r - C @ v - K @ u)
        assert np.array_equal(d[12:], np.zeros(12))

    def test_vectorized_drift_matches_columnwise(self):
        spec = default_frame_spec(3)
        proc, _ = build_shear_frame(spec, xi=1.3)
        rng = np.random.default_rng(5)
        ens = np.abs(rng.standard_normal((12, 7))) + 0.1
        batch = proc.drift_ensemble(ens, 0.2)
        cols = np.column_stack([state_drift(proc, ens[:, j], 0.2)
                                for j in range(7)])
        assert np.allclose(batch, cols)

    @settings(max_examples=60, deadline=None)
    @given(dof=st.integers(1, 12), N=st.integers(1, 9),
           scale=st.sampled_from([1e-3, 1.0, 1e3]), seed=st.integers(0, 2**32))
    def test_storey_chain_apply_matches_stacked_shifts(self, dof, N, scale,
                                                       seed):
        # the sliced product has the bits of the shifted-stack form it
        # replaced, which pads u and p with a zero row
        rng = np.random.default_rng(seed)
        p = 100.0 + rng.standard_normal((dof, N))
        u = scale * rng.standard_normal((dof, N))
        zero = np.zeros((1, N))
        u_lo, u_hi = np.vstack([zero, u[:-1]]), np.vstack([u[1:], zero])
        p_hi = np.vstack([p[1:], zero])
        stacked = p * (u - u_lo) + p_hi * (u - u_hi)
        assert np.array_equal(_storey_chain_apply(p, u), stacked)

    def test_measured_channel_selection(self):
        spec = ShearFrameSpec(dof=3, k_ref=(100.0,) * 3, c_ref=(5.0,) * 3,
                              measured=(0, 2))
        _, meas = build_shear_frame(spec)
        x = np.arange(24.0).reshape(12, 2)
        assert np.array_equal(meas.h(x, 0.0), [x[3], x[5]])

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ShearFrameSpec(dof=2, k_ref=(1.0,), c_ref=(1.0, 1.0))
        with pytest.raises(ValueError):
            ShearFrameSpec(dof=2, k_ref=(1.0, -1.0), c_ref=(1.0, 1.0))


class TestDamagedFrame:
    def test_default_damage_location(self):
        # the damaged reference only shows through the truth start state
        for problem_id, dof, storey in (("frame20-damaged", 20, 10),
                                        ("frame4-damaged", 4, 3)):
            x0 = build_problem(problem_id).x0_truth
            i = 2 * dof + storey - 1
            assert x0[i] == 98.0
            assert np.array_equal(
                np.delete(x0, i),
                np.delete(frame_truth_x0(default_frame_spec(dof)), i))

    def test_no_damage_is_identity(self):
        # the damaged problem's truth and filter models are the undamaged
        # frame's, with the truth's parameters frozen
        problem = build_problem("frame4-damaged", xi=0.7)
        spec = default_frame_spec(4, proc_noise=1.0)
        x = np.abs(np.random.default_rng(0).standard_normal(16)) + 0.5
        for proc, diffusion in ((problem.proc_filter, 0.01),
                                (problem.proc_truth, 0.0)):
            frame, _ = build_shear_frame(spec, xi=0.7, param_diffusion=diffusion)
            assert np.array_equal(state_drift(proc, x, 0.1),
                                  state_drift(frame, x, 0.1))
            assert np.array_equal(proc.constant_diffusion,
                                  frame.constant_diffusion)


class TestPendulum:
    def test_equilibrium(self):
        proc, _ = build_pendulum(PendulumSpec(), xi=0.0)
        x = np.array([0.0, 0.0, 10.0, 2.0])
        assert np.array_equal(state_drift(proc, x, 0.5), np.zeros(4))

    def test_reaction_measurement_arithmetic(self):
        _, meas = build_pendulum(PendulumSpec())
        x = np.array([[np.pi / 2], [1.0], [2.0], [3.0]])  # (x, v, k, c)
        assert meas.h(x, 0.0)[0, 0] == pytest.approx(3.0 * 1.0 + 2.0 * 1.0)

    def test_drift_formula(self):
        spec = PendulumSpec()
        proc, _ = build_pendulum(spec, xi=-1.2)
        x = np.array([0.4, -0.3, 11.0, 1.5])
        t = 2.0
        r = 5.0 * np.exp(-0.01 * t) * 1.2 * np.cos(5 * t)
        d = state_drift(proc, x, t)
        assert d[0] == pytest.approx(-0.3)
        assert d[1] == pytest.approx(r - 1.5 * (-0.3) - 11.0 * np.sin(0.4))
        assert d[2] == 0.0 and d[3] == 0.0

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            PendulumSpec(c=-1.0)


class TestPopulation:
    def test_drift_fixed_points_and_values(self):
        proc, _ = build_population(PopulationSpec())
        drift = lambda v: state_drift(proc, np.array([v]), 0.0)[0]
        assert drift(0.0) == 0.0
        assert drift(2.0) == 0.0
        assert drift(2.1) == pytest.approx(0.105)
        assert drift(1.0) == pytest.approx(-0.5)

    def test_noise_free_divergence_exceeds_ten(self):
        # the unstable branch blows up super-exponentially (overflow well
        # before t = 10), so integrate only to t = 4: 10 is crossed by then
        spec = PopulationSpec(proc_noise_std=0.0)
        proc, _ = build_population(spec)
        proc_nf = ProcessModel(n=1, m=0, drift_ensemble=proc.drift_ensemble,
                               constant_diffusion=np.zeros((1, 0)))
        grid = 0.1 * np.arange(1, 41)
        traj = simulate_truth(proc_nf, np.array([2.1]), grid, RngStream(0, 0))
        crossed = np.argmax(traj[0] > 10.0)
        assert traj[0].max() > 10.0
        assert grid[crossed] < 10.0

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            PopulationSpec(r2=0.0)


class TestLinearGaussian:
    def test_constant_truth_for_zero_fields(self):
        spec = LinearGaussianSpec(A=[[0.0]], F=[[0.0]], H=[[1.0]], R=[[0.1]],
                                  x0_mean=[1.0], x0_cov=[[0.0]])
        proc, _ = build_linear_gaussian(spec)
        grid = 0.1 * np.arange(1, 20)
        traj = simulate_truth(proc, np.array([1.0]), grid, RngStream(0, 0))
        assert np.allclose(traj, 1.0)

    def test_ou_stationary_variance(self):
        # A = -1, F = 1: long-run variance F^2 / (2|A|) = 0.5
        spec = scalar_linear_gaussian()
        proc, _ = build_linear_gaussian(spec)
        grid = 0.01 * np.arange(1, 60_001)
        traj = simulate_truth(proc, np.array([0.0]), grid, RngStream(10, 0))
        tail = traj[0, 10_000:]
        assert tail.var() == pytest.approx(0.5, rel=0.1)

    def test_non_pd_R_rejected(self):
        with pytest.raises(ValueError):
            LinearGaussianSpec(A=[[0.0]], F=[[1.0]], H=[[1.0]], R=[[0.0]],
                               x0_mean=[0.0], x0_cov=[[1.0]])

    def test_problem_overrides_set_the_model(self):
        # proc_noise and meas_noise_std set F and R of the problem's spec,
        # so the truth, the data and both oracles share one model
        spec = build_problem("linear-gaussian").kalman_spec
        assert (spec.F[0, 0], spec.R[0, 0]) == (1.0, 0.01)
        spec = build_problem("linear-gaussian", proc_noise=5.0,
                             meas_noise_std=3.0).kalman_spec
        assert (spec.F[0, 0], spec.R[0, 0]) == (5.0, 9.0)

        def twin(**kw):
            return make_twin_data(ExperimentConfig(
                problem="linear-gaussian", horizon=0.5, seed=3,
                emit_outputs=False, **kw))
        _, truth, series, _ = twin()
        problem, truth_o, series_o, _ = twin(proc_noise=5.0,
                                             meas_noise_std=3.0)
        assert np.array_equal(problem.noise_std, [3.0])
        assert np.array_equal(problem.proc_truth.constant_diffusion, [[5.0]])
        assert truth_o[0, 0] != truth[0, 0]
        # the same measurement draws at 30 times the noise level
        assert np.allclose(series_o.values - truth_o,
                           30.0 * (series.values - truth))


class TestKalmanOracle:
    def test_exact_observation_limit(self):
        spec = LinearGaussianSpec(A=[[0.0]], F=[[1.0]], H=[[1.0]], R=[[1e-12]],
                                  x0_mean=[0.0], x0_cov=[[1.0]])
        times = 0.1 * np.arange(1, 6)
        vals = np.array([[1.0, -2.0, 0.5, 3.0, 0.0]])
        means, _ = kalman_oracle(spec, MeasurementSeries(times, vals), 0.1)
        assert np.allclose(means, vals, atol=1e-5)

    def test_variance_never_increases_without_process_noise(self):
        spec = LinearGaussianSpec(A=[[0.0]], F=[[0.0]], H=[[1.0]], R=[[0.5]],
                                  x0_mean=[0.0], x0_cov=[[2.0]])
        times = 0.1 * np.arange(1, 30)
        vals = RngStream(2, 0).standard_normal((1, 29))
        _, covs = kalman_oracle(spec, MeasurementSeries(times, vals), 0.1)
        variances = covs[:, 0, 0]
        assert np.all(np.diff(variances) <= 1e-15)

    def test_textbook_single_update(self):
        spec = LinearGaussianSpec(A=[[0.0]], F=[[0.0]], H=[[1.0]], R=[[1.0]],
                                  x0_mean=[0.0], x0_cov=[[1.0]])
        series = MeasurementSeries(np.array([1.0]), np.array([[2.0]]))
        means, covs = kalman_oracle(spec, series, 1.0)
        assert means[0, 0] == pytest.approx(1.0)
        assert covs[0, 0, 0] == pytest.approx(0.5)

    def test_matches_the_textbook_recursion(self):
        # the oracle is step_gain on exact moments with the covariance
        # update (I - B H) P (I - B H)^T + B R B^T; the reference is the
        # textbook solve and (I - K H) P, independent of the library
        spec, dt, M = two_channel_spec(), 0.01, 500
        vals = RngStream(7, 0).standard_normal((spec.q, M))
        means, covs = kalman_oracle(
            spec, MeasurementSeries(dt * np.arange(1, M + 1), vals), dt)
        m_ref, P_ref = kalman_series(
            spec.x0_mean, spec.x0_cov, np.eye(spec.n) + spec.A * dt,
            spec.F @ spec.F.T * dt, spec.H, spec.R, vals.T)
        assert np.allclose(means, m_ref.T, rtol=1e-9, atol=1e-12)
        assert np.allclose(covs, P_ref, rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("oracle", [kalman_oracle, enks_limit_oracle])
def test_oracles_name_the_step_whose_gain_fails(oracle):
    # a prior covariance of 1e308 doubles past the largest float in the
    # first prediction (a = 1 + A dt = 2), so the first gain's
    # denominator is not finite
    spec = scalar_linear_gaussian(A=1.0, x0_cov=1e308)
    series = MeasurementSeries(np.array([1.0, 2.0]), np.array([[0.5, 0.1]]))
    with pytest.raises(NumericFailure,
                       match="non-finite blended denominator step=0") as info:
        oracle(spec, series, 1.0)
    assert info.value.step == 0


def two_channel_spec():
    return LinearGaussianSpec(A=[[-1.0, 0.5], [0.0, -0.5]],
                              F=[[1.0, 0.0], [0.3, 0.8]],
                              H=[[1.0, 0.0], [0.5, 1.0]],
                              R=[[0.02, 0.0], [0.0, 0.05]],
                              x0_mean=[0.2, -0.1], x0_cov=[[1.0, 0.2], [0.2, 0.5]])


class TestEnksLimitOracle:
    @pytest.mark.parametrize("spec_fn", [scalar_linear_gaussian, two_channel_spec])
    @pytest.mark.parametrize("kappa", [1, 10])
    def test_matches_plain_loop_recursion(self, spec_fn, kappa):
        spec, dt, M = spec_fn(), 0.01, 60
        vals = RngStream(3, 0).standard_normal((spec.q, M))
        series = MeasurementSeries(dt * np.arange(1, M + 1), vals)
        betas = make_schedule(kappa).betas
        means, covs, _ = enks_limit_oracle(spec, series, dt, alpha=0.8,
                                           betas=betas)
        sigma_gram = np.diag(np.diag(spec.R)) * dt  # sigma = diag(std) sqrt(dt)
        m_ref, P_ref = enks_limit_series(
            spec.x0_mean, spec.x0_cov, np.eye(spec.n) + spec.A * dt,
            spec.F @ spec.F.T * dt, spec.H, sigma_gram, 0.8, dt, vals.T,
            betas=betas)
        assert np.allclose(means, m_ref.T, rtol=1e-9, atol=1e-12)
        assert np.allclose(covs, P_ref, rtol=1e-9, atol=1e-12)

    def test_effective_gain_reproduces_each_step(self):
        spec, dt, M = two_channel_spec(), 0.01, 20
        series = MeasurementSeries(dt * np.arange(1, M + 1),
                                   RngStream(4, 0).standard_normal((2, M)))
        means, _, gains = enks_limit_oracle(spec, series, dt,
                                            betas=make_schedule(5).betas)
        a = np.eye(2) + spec.A * dt
        prev = spec.x0_mean
        for i in range(M):
            m_pred = a @ prev
            step = gains[i] @ (series.values[:, i] - spec.H @ m_pred)
            assert np.allclose(means[:, i], m_pred + step, rtol=1e-12, atol=1e-14)
            prev = means[:, i]

    def test_gain_is_dt_over_alpha_not_kalman(self):
        # sigma^T sigma = R dt is far below H P H^T, so G ~ dt / alpha
        spec, dt = scalar_linear_gaussian(), 0.01
        series = MeasurementSeries(dt * np.arange(1, 501),
                                   RngStream(5, 0).standard_normal((1, 500)))
        _, P_kal = kalman_oracle(spec, series, dt)
        _, _, gains = enks_limit_oracle(spec, series, dt, alpha=0.8)
        assert np.allclose(gains[:, 0, 0], dt / 0.8, rtol=1e-3)
        k_kal = P_kal[-1, 0, 0] / spec.R[0, 0]
        assert 0.55 < k_kal < 0.65

    def test_enks_mean_converges_to_limit_not_kalman(self):
        cfg = ExperimentConfig(problem="linear-gaussian", filters=("enks",),
                               N=1000, dt=0.01, horizon=1.0, seed=700,
                               emit_outputs=False)
        problem, truth, series, grid = make_twin_data(cfg)
        m_lim, _, _ = enks_limit_oracle(problem.kalman_spec, series, 0.01)
        m_kal, _ = kalman_oracle(problem.kalman_spec, series, 0.01)
        runs = []
        for s in range(5):
            fcfg = FilterConfig(dt=0.01, alpha=0.8, seed=700 + s)
            ens0 = initial_ensemble(problem, 1000, 700 + s)
            runs.append(run_filter_series("enks", problem, series, ens0,
                                          fcfg)[0][0])
        runs = np.array(runs)
        se = float(np.mean(runs.std(axis=0, ddof=1)))
        assert np.mean(np.abs(runs - m_lim[0])) <= 3 * se
        assert np.mean(np.abs(runs - m_kal[0])) > 3 * se


# Criterion 1's twin (seed 1000, dt 0.01, T 10, alpha 0.8): per reading of
# the gain, its final value, and the time-mean distance of its large-N mean
# from the Kalman mean and from the truth.  The README prints this table.
READINGS_TABLE = {"as specified": (0.0125, 0.3294, 0.3309),
                  "tc weights C_hh": (1.0000, 0.0489, 0.0789),
                  "Kalman gain": (0.5540, 0.0087, 0.0663)}


def test_gain_readings_table():
    # what other readings of the gain's time weights would do to the red
    # tests' numbers, from gain_reading_limit: none comes within
    # criterion 1's 0.0343 of the Kalman mean; the second settles at a
    # gain of exactly 1 (there P_pred = R); the Kalman gain without the
    # G R G^T term still misses by 0.0087
    cfg = ExperimentConfig(problem="linear-gaussian", filters=("enks",),
                           N=2000, dt=0.01, horizon=10.0, seed=1000,
                           emit_outputs=False)
    problem, truth, series, grid = make_twin_data(cfg)
    spec = problem.kalman_spec
    m_kal, _ = kalman_oracle(spec, series, 0.01)
    m_lim, _, g_lim = enks_limit_oracle(spec, series, 0.01, alpha=cfg.alpha)
    assert np.mean(np.abs(m_kal[0] - truth[0])) == pytest.approx(0.0646,
                                                                 abs=5e-5)
    table = {}
    for reading in GAIN_READINGS:
        means, gains = gain_reading_limit(spec, series.values.T, 0.01,
                                          cfg.alpha, reading)
        table[reading] = (gains[-1, 0, 0],
                          np.mean(np.abs(means[:, 0] - m_kal[0])),
                          np.mean(np.abs(means[:, 0] - truth[0])))
        print(f"\nREADING {reading}: final gain {table[reading][0]:.4f}, "
              f"limit vs Kalman mean {table[reading][1]:.4f}, "
              f"limit vs truth {table[reading][2]:.4f}")
        if reading == "as specified":  # the library's own limit
            assert np.allclose(means.T, m_lim, rtol=1e-12, atol=1e-14)
            assert np.allclose(gains, g_lim, rtol=1e-12, atol=0)
    assert table.keys() == READINGS_TABLE.keys()
    for reading, row in READINGS_TABLE.items():
        assert np.allclose(table[reading], row, rtol=0, atol=5e-5), reading


def test_truth_reproducibility():
    spec = PopulationSpec()
    proc, _ = build_population(spec)
    grid = 0.1 * np.arange(1, 30)
    a = simulate_truth(proc, np.array([2.1]), grid, RngStream(6, 0))
    b = simulate_truth(proc, np.array([2.1]), grid, RngStream(6, 0))
    assert np.array_equal(a, b)


@pytest.mark.parametrize("problem_id", PROBLEM_IDS)
def test_measurement_map_declared_linear_is_linear(problem_id):
    # a map declared linear lets enks-iter run its passes on moments, so
    # the declaration must hold: h(aX + bZ) = a h(X) + b h(Z) to rounding
    # and h(0) = 0, at any time.  The pendulum's reaction is not linear,
    # every other registry map is
    problem = build_problem(problem_id)
    meas, n = problem.meas, problem.proc_filter.n
    assert meas.linear == (problem_id != "pendulum")
    if not meas.linear:
        return
    rng = RngStream(21, 0)
    X = 5.0 * rng.standard_normal((n, 6))
    Z = 5.0 * rng.standard_normal((n, 6))
    a, b = 0.7, -1.9
    for t in (0.0, 0.37, 4.5):
        hX, hZ = meas.evaluate(X, t), meas.evaluate(Z, t)
        combined = meas.evaluate(a * X + b * Z, t)
        scale = np.abs(a * hX).max() + np.abs(b * hZ).max()
        assert np.allclose(combined, a * hX + b * hZ, rtol=0,
                           atol=1e-14 * scale)
        assert np.array_equal(meas.evaluate(np.zeros((n, 3)), t),
                              np.zeros((meas.q, 3)))


def test_twin_data_keeps_the_linear_declaration():
    for problem_id in ("frame4-damaged", "pendulum"):
        problem, _, _, _ = make_twin_data(ExperimentConfig(
            problem=problem_id, N=8, horizon=0.05, emit_outputs=False))
        assert problem.meas.linear == (problem_id != "pendulum")
