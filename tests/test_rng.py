from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from enks import rng
from enks.rng import (ParticleNoise, RngStream, brownian_increments,
                      particle_streams)

from oracles import PerParticleNoise


def test_increment_law():
    # sample variance over many replicated calls matches N(0, dt)
    stream = RngStream(seed=11, stream_id=5)
    draws = np.array([brownian_increments(stream, 3, 0.01) for _ in range(100_000)])
    var = draws.var(axis=0, ddof=1)
    assert np.all(np.abs(var - 0.01) < 0.05 * 0.01)
    assert np.all(np.abs(draws.mean(axis=0)) < 4 * np.sqrt(0.01 / 100_000))


def test_zero_dt_rejected():
    with pytest.raises(ValueError):
        brownian_increments(RngStream(1, 0), 3, 0.0)
    with pytest.raises(ValueError):
        brownian_increments(RngStream(1, 0), 3, -1e-3)


def test_replay_is_identical():
    a = brownian_increments(RngStream(7, 2), 4, 0.5)
    b = brownian_increments(RngStream(7, 2), 4, 0.5)
    assert np.array_equal(a, b)


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
    streams = particle_streams(seed=3, n_particles=4).streams
    assert len(streams) == 4
    assert len({s.stream_id for s in streams}) == 4
    # replaying the same particle id reproduces its draws
    again = particle_streams(seed=3, n_particles=4).streams
    for a, b in zip(streams, again):
        assert np.array_equal(a.standard_normal(2), b.standard_normal(2))


def test_negative_key_rejected():
    with pytest.raises(ValueError):
        RngStream(-1, 0)


@settings(max_examples=60, deadline=None)
@given(N=st.integers(1, 5), m=st.integers(1, 4),
       stride=st.sampled_from([1, 2, 3, 7, 8, 9, 10, 20, 40, 80]),
       dts=st.lists(st.floats(1e-4, 2.0), min_size=1, max_size=140),
       budget=st.sampled_from([8, 200, 4096, rng.BLOCK_BYTES]),
       seed=st.integers(0, 2**32))
def test_particle_noise_matches_per_particle_draws(N, m, stride, dts, budget,
                                                   seed):
    # read-ahead blocks of any size, crossed at any step, give the draws
    # of the per-particle loop bit for bit, the nested sum included
    with mock.patch.object(rng, "BLOCK_BYTES", budget):
        noise = particle_streams(seed, N, stride)
        oracle = PerParticleNoise(seed, N, stride)
        for dt in dts:
            assert np.array_equal(noise.increments(m, dt),
                                  oracle.increments(m, dt))


def test_particle_noise_reads_each_stream_once_per_block():
    calls = []
    draw = RngStream.standard_normal

    def counted(self, size=None):
        calls.append(size)
        return draw(self, size)

    with mock.patch.object(RngStream, "standard_normal", counted):
        noise = particle_streams(0, 2000)  # 1 MiB / (8 * 2000) -> K = 64
        for _ in range(65):
            assert noise.increments(1, 0.01).shape == (1, 2000)
        assert calls == [(64, 1)] * 4000
        calls.clear()
        wide = particle_streams(0, 800)  # 1 MiB / (8 * 800 * 150) -> K = 1
        wide.increments(150, 0.01)
        assert calls == [(1, 150)] * 800


def test_particle_noise_rejects_bad_arguments():
    with pytest.raises(ValueError):
        ParticleNoise([])
    with pytest.raises(ValueError):
        particle_streams(0, 2, stride=0)
    noise = particle_streams(0, 2)
    with pytest.raises(ValueError):
        noise.increments(1, 0.0)
    noise.increments(2, 0.1)
    with pytest.raises(ValueError):
        noise.increments(3, 0.1)  # the buffered block holds m = 2
