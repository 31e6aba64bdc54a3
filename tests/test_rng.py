from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from enks import rng
from enks.models import ProcessModel
from enks.rng import STEP_BASE, ParticleNoise, RngStream, particle_streams
from enks.sde import simulate_truth

from oracles import StepKeyedNoise


def white_noise(m):
    """dx = dB in m channels: a truth path whose steps are its increments."""
    return ProcessModel(n=m, m=m, drift_ensemble=lambda x, t: 0.0 * x,
                        constant_diffusion=np.eye(m))


def test_increment_law():
    # the truth path's increments, drawn from its stream, are N(0, dt)
    M, dt = 100_000, 0.01
    traj = simulate_truth(white_noise(3), np.zeros(3), dt * np.arange(1, M + 1),
                          RngStream(seed=11, stream_id=5))
    draws = np.diff(traj, axis=1, prepend=0.0)
    var = draws.var(axis=1, ddof=1)
    assert np.all(np.abs(var - dt) < 0.05 * dt)
    assert np.all(np.abs(draws.mean(axis=1)) < 4 * np.sqrt(dt / M))


def test_zero_dt_rejected():
    for grid in ([0.1, 0.1], [0.1, 0.2, 0.199]):
        with pytest.raises(ValueError):
            simulate_truth(white_noise(3), np.zeros(3), np.array(grid),
                           RngStream(1, 0))


def test_replay_is_identical():
    grid = 0.5 * np.arange(1, 9)
    a = simulate_truth(white_noise(4), np.zeros(4), grid, RngStream(7, 2))
    b = simulate_truth(white_noise(4), np.zeros(4), grid, RngStream(7, 2))
    assert np.array_equal(a, b)
    assert np.all(np.diff(a, axis=1) != 0)


def test_streams_are_distinct():
    a = RngStream(7, 2).standard_normal(8)
    b = RngStream(7, 3).standard_normal(8)
    c = RngStream(8, 2).standard_normal(8)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_counter_advances_within_stream():
    s = RngStream(7, 2)
    first, second = s.standard_normal(4), s.standard_normal(4)
    assert not np.array_equal(first, second)


def test_particle_streams_keying():
    # fine step k is one (N, m) draw from the stream keyed STEP_BASE + k,
    # row j for particle j; a second noise of the same seed replays it.
    # The increments are the F-contiguous transpose of the noise's own
    # panel, scaled in place, so the next call overwrites them
    noise, again = particle_streams(seed=3, n_particles=4), particle_streams(3, 4)
    previous = None
    for k, dt in enumerate([0.5, 0.25, 2.0]):
        panel = RngStream(3, STEP_BASE + k).standard_normal((4, 2))
        dB = noise.increments(2, dt)
        assert np.array_equal(dB, np.sqrt(dt) * panel.T)
        assert dB.flags.f_contiguous and not dB.flags.c_contiguous
        if previous is not None:
            assert np.shares_memory(previous, dB)
            assert np.array_equal(previous, dB)
        previous = dB
        assert np.array_equal(again.increments(2, dt), dB)
    assert not np.array_equal(particle_streams(4, 4).increments(2, 0.5),
                              particle_streams(3, 4).increments(2, 0.5))


def test_negative_key_rejected():
    with pytest.raises(ValueError):
        RngStream(-1, 0)
    with pytest.raises(ValueError):
        RngStream(1, -1)
    with pytest.raises(ValueError):
        RngStream(1, 0).restart(-1)


@settings(max_examples=60, deadline=None)
@given(N=st.integers(1, 5),
       stride=st.sampled_from([1, 2, 3, 7, 8, 9, 10, 20, 40, 80]),
       steps=st.lists(st.tuples(st.floats(1e-4, 2.0), st.integers(1, 4)),
                      min_size=1, max_size=140),
       seed=st.integers(0, 2**32))
def test_particle_noise_matches_per_particle_draws(N, stride, steps, seed):
    # one panel call per fine step gives the draws of the loop over
    # particles and fine steps bit for bit, the stride sum included, also
    # where a step asks for another width than the step before
    noise = particle_streams(seed, N, stride)
    oracle = StepKeyedNoise(seed, N, stride)
    for dt, m in steps:
        assert np.array_equal(noise.increments(m, dt), oracle.increments(m, dt))


@settings(max_examples=40, deadline=None)
@given(N=st.integers(1, 40), extra=st.integers(1, 40), m=st.integers(1, 4),
       steps=st.integers(1, 8), stride=st.integers(1, 5),
       seed=st.integers(0, 2**32))
def test_particle_draws_do_not_depend_on_ensemble_size(N, extra, m, steps,
                                                       stride, seed):
    # particle j's increments are the same in every ensemble of more
    # than j particles
    small = particle_streams(seed, N, stride)
    large = particle_streams(seed, N + extra, stride)
    for _ in range(steps):
        assert np.array_equal(small.increments(m, 0.1),
                              large.increments(m, 0.1)[:, :N])


@settings(max_examples=40, deadline=None)
@given(N=st.integers(1, 6), m=st.integers(1, 3), stride=st.integers(2, 12),
       steps=st.integers(1, 6), dt=st.floats(1e-4, 2.0),
       seed=st.integers(0, 2**32))
def test_stride_increment_sums_the_fine_panels(N, m, stride, steps, dt, seed):
    # coarse step i integrates fine steps i*stride .. (i+1)*stride - 1, the
    # same fine Brownian path a stride-1 run draws
    noise = particle_streams(seed, N, stride)
    fine = StepKeyedNoise(seed, N)
    for i in range(steps):
        panels = [np.column_stack(fine.fine_draws(k, m))
                  for k in range(i * stride, (i + 1) * stride)]
        total = panels[0]
        for p in panels[1:]:
            total = total + p
        assert np.array_equal(noise.increments(m, dt),
                              np.sqrt(dt) * (total / np.sqrt(stride)))


@settings(max_examples=30, deadline=None)
@given(stride=st.integers(1, 5), steps=st.integers(1, 30),
       seed=st.integers(0, 2**32))
def test_step_keys_are_disjoint_from_purpose_streams(stride, steps, seed):
    keys = []
    draw = RngStream.standard_normal

    def record(self, size=None, out=None):
        keys.append(self.stream_id)
        return draw(self, size, out=out)

    with mock.patch.object(RngStream, "standard_normal", record):
        noise = particle_streams(seed, 3, stride)
        for _ in range(steps):
            noise.increments(2, 0.1)
    assert np.array_equal(keys, STEP_BASE + np.arange(steps * stride))
    assert not set(keys) & set(range(rng.TRUTH_STREAM,
                                     rng.PERTURBATION_STREAM + 1))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), first=st.integers(0, 2**64 - 1),
       key=st.integers(0, 2**64 - 1), used=st.integers(0, 9),
       sizes=st.lists(st.integers(0, 9), min_size=1, max_size=4))
def test_restart_replays_a_new_stream(seed, first, key, used, sizes):
    # a restarted stream draws what a stream built at that key draws,
    # whatever the stream had drawn before
    stream = RngStream(seed, first)
    stream.standard_normal(used)
    stream.restart(key)
    fresh = RngStream(seed, key)
    assert stream.stream_id == key
    for size in sizes:
        assert np.array_equal(stream.standard_normal(size),
                              fresh.standard_normal(size))


def test_particle_noise_reads_one_panel_per_fine_step():
    calls = []
    draw = RngStream.standard_normal

    def counted(self, size=None, out=None):
        calls.append((self.stream_id - STEP_BASE, size))
        return draw(self, size, out=out)

    with mock.patch.object(RngStream, "standard_normal", counted):
        noise = particle_streams(0, 2000)
        for _ in range(65):
            assert noise.increments(1, 0.01).shape == (1, 2000)
        assert calls == [(k, (2000, 1)) for k in range(65)]
        calls.clear()
        wide = particle_streams(0, 800)
        wide.increments(150, 0.01)
        assert calls == [(0, (800, 150))]
        calls.clear()
        nested = particle_streams(0, 5, stride=3)
        nested.increments(2, 0.01)
        nested.increments(2, 0.01)
        assert calls == [(k, (5, 2)) for k in range(6)]


def test_particle_noise_rejects_bad_arguments():
    with pytest.raises(ValueError):
        ParticleNoise(0, 0)
    with pytest.raises(ValueError):
        ParticleNoise(-1, 2)
    with pytest.raises(ValueError):
        particle_streams(0, 2, stride=0)
    noise = particle_streams(0, 2)
    with pytest.raises(ValueError):
        noise.increments(1, 0.0)
    with pytest.raises(ValueError):
        noise.increments(0, 0.1)
