"""Reproducible counter-based random-number streams.

Every source of randomness in the package draws from an ``RngStream``, a
thin wrapper around numpy's Philox counter-based bit generator keyed by
``(seed, stream_id)``.  Streams with distinct keys are statistically
independent, and a stream recreated from the same key replays the exact
same sequence, so runs are bit-reproducible regardless of how work is
distributed over workers: each particle (or purpose) owns its key and
consumes only its own stream.

Purpose ids reserve a block of stream ids well away from the per-particle
block so that adding particles never collides with harness-level draws.
"""

from __future__ import annotations

import numpy as np

# Stream-id layout: low ids are harness purposes, particle substreams
# start at PARTICLE_BASE + particle index.
TRUTH_STREAM = 0
MEASUREMENT_STREAM = 1
INIT_ENSEMBLE_STREAM = 2
FORCING_STREAM = 3
PERTURBATION_STREAM = 4
PARTICLE_BASE = 1 << 20

# ParticleNoise reads at most BLOCK_BYTES of draws, and MAX_BLOCK_STEPS
# steps, ahead.
BLOCK_BYTES = 1 << 20
MAX_BLOCK_STEPS = 64


class RngStream:
    """One independent, replayable stream of standard normals.

    Parameters
    ----------
    seed : int
        64-bit run seed shared by all streams of a run.
    stream_id : int
        64-bit substream index (purpose id or particle index).
    """

    def __init__(self, seed: int, stream_id: int = 0):
        if seed < 0 or stream_id < 0:
            raise ValueError("seed and stream_id must be nonnegative")
        self.seed = int(seed)
        self.stream_id = int(stream_id)
        key = np.array([self.seed, self.stream_id], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def standard_normal(self, size=None) -> np.ndarray:
        """Draw iid N(0, 1) variates, advancing the stream counter."""
        return self._gen.standard_normal(size)

    def __repr__(self):
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"


class ParticleNoise:
    """Brownian increments of an ensemble, one stream per particle.

    Column j of every increment comes from ``streams[j]`` alone.  When
    the buffer runs out, each stream is read once for the next K steps,
    ``K = clip(BLOCK_BYTES // (8 N m stride), 1, MAX_BLOCK_STEPS)``, and
    ``increments`` then serves one step per call.  A Philox generator
    yields the same sequence whether asked for ``K * m`` normals at once
    or ``m`` at a time, so each increment is bit-identical to a draw made
    at its own step: K changes speed and memory, never a result.

    With ``stride > 1`` a step's unit draw is ``sum / sqrt(stride)`` over
    ``stride`` consecutive draws, so runs at step ``stride * dt_ref``
    integrate the same fine Brownian path as a run at ``dt_ref``.
    """

    def __init__(self, streams, stride: int = 1):
        self.streams = tuple(streams)
        if not self.streams:
            raise ValueError("need at least one particle stream")
        if stride < 1:
            raise ValueError(f"stride must be >= 1, got {stride}")
        self.N, self.stride = len(self.streams), int(stride)
        self._block = None  # (N, K, m) unit-variance draws
        self._next = 0  # next unread step of the block

    def increments(self, m: int, dt: float) -> np.ndarray:
        """Next step's increments, shape (m, N): column j ~ N(0, dt I_m)."""
        if dt <= 0 or m < 1:
            raise ValueError(f"need dt > 0 and m >= 1, got dt={dt}, m={m}")
        if self._block is not None and self._block.shape[2] != m:
            raise ValueError(f"m={m} differs from the buffered m")
        if self._block is None or self._next == self._block.shape[1]:
            self._refill(m)
        out = np.empty((m, self.N))
        np.multiply(np.sqrt(dt), self._block[:, self._next, :].T, out=out)
        self._next += 1
        return out

    def _refill(self, m: int) -> None:
        N, stride = self.N, self.stride
        K = int(np.clip(BLOCK_BYTES // (8 * N * m * stride), 1, MAX_BLOCK_STEPS))
        self._block, self._next = np.empty((N, K, m)), 0
        for j, stream in enumerate(self.streams):
            draws = stream.standard_normal((K * stride, m))
            if stride > 1:
                draws = draws.reshape(K, stride, m).sum(axis=1) / np.sqrt(stride)
            self._block[j] = draws


def particle_streams(seed: int, n_particles: int, stride: int = 1) -> ParticleNoise:
    """Ensemble noise from substreams keyed by (seed, PARTICLE_BASE + j)."""
    return ParticleNoise([RngStream(seed, PARTICLE_BASE + j)
                          for j in range(n_particles)], stride)


def brownian_increments(stream: RngStream, m: int, dt: float) -> np.ndarray:
    """Sample one Brownian increment vector over a step of length ``dt``.

    Parameters
    ----------
    stream : RngStream
        Stream to consume; the call advances its counter.
    m : int
        Brownian dimension.
    dt : float
        Step length, strictly positive.

    Returns
    -------
    ndarray, shape (m,)
        m independent N(0, dt) draws.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if m < 0:
        raise ValueError(f"m must be nonnegative, got {m}")
    return np.sqrt(dt) * stream.standard_normal(m)
