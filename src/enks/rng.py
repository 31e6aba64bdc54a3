"""Reproducible counter-based random-number streams.

Every source of randomness in the package draws from an ``RngStream``, a
thin wrapper around numpy's Philox counter-based bit generator keyed by
``(seed, stream_id)`` (Salmon et al., "Parallel random numbers: as easy
as 1, 2, 3", SC'11).  Streams with distinct keys are statistically
independent, and a stream recreated from the same key replays the exact
same sequence, so runs are bit-reproducible.

Purpose ids reserve the low stream ids; the ensemble's Brownian panels
are keyed by fine step from STEP_BASE up, so a step key never collides
with a purpose id.
"""

from __future__ import annotations

import numpy as np

# Stream-id layout: low ids are harness purposes, the ensemble noise of
# fine step k is stream STEP_BASE + k.
TRUTH_STREAM = 0
MEASUREMENT_STREAM = 1
INIT_ENSEMBLE_STREAM = 2
FORCING_STREAM = 3
PERTURBATION_STREAM = 4
STEP_BASE = 1 << 20


class RngStream:
    """One independent, replayable stream of standard normals.

    Parameters
    ----------
    seed : int
        64-bit run seed shared by all streams of a run.
    stream_id : int
        64-bit substream index (purpose id or step key).
    """

    def __init__(self, seed: int, stream_id: int = 0):
        self.seed, self.stream_id = int(seed), int(stream_id)
        if self.seed < 0 or self.stream_id < 0:
            raise ValueError("seed and stream_id must be nonnegative")
        key = np.array([self.seed, self.stream_id], np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))
        # the Philox state at counter 0 that restart() loads; the state
        # setter copies its words, so draws leave the counter at zero and
        # a restart rewrites only the key's stream word
        self._start = {"bit_generator": "Philox",
                       "buffer": np.zeros(4, np.uint64), "buffer_pos": 4,
                       "has_uint32": 0, "uinteger": 0,
                       "state": {"counter": np.zeros(4, np.uint64),
                                 "key": key}}

    def restart(self, stream_id: int) -> None:
        """Rewind to substream ``stream_id``: draw what ``RngStream(seed,
        stream_id)`` draws, without the cost of building a generator."""
        if stream_id < 0:
            raise ValueError("stream_id must be nonnegative")
        self.stream_id = int(stream_id)
        self._start["state"]["key"][1] = self.stream_id
        self._gen.bit_generator.state = self._start

    def standard_normal(self, size=None, out=None) -> np.ndarray:
        """Draw iid N(0, 1) variates, advancing the stream counter; with
        ``out``, into that float64 array, the values ``size`` would give."""
        return self._gen.standard_normal(size, out=out)

    def __repr__(self):
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"


class ParticleNoise:
    """Brownian increments of an ensemble, one keyed panel per fine step.

    Fine step k reads ``RngStream(seed, STEP_BASE + k).standard_normal((N, m))``
    in one call, and row j of that panel is particle j's unit draw.  The
    panel fills rows in order from the step key's first draw, so particle
    j's draws are the same for every ensemble of more than j particles,
    and a rerun replays them bit for bit.

    With ``stride > 1`` a step's unit draw is the in-order sum of
    ``stride`` consecutive fine panels over ``sqrt(stride)``, so runs at
    step ``stride * dt_ref`` integrate the same fine Brownian path as a
    run at ``dt_ref``.

    The object owns its panel (and, with ``stride > 1``, a second panel
    for the fine draws), sized at the first call, so a steady-state step
    allocates nothing here.
    """

    def __init__(self, seed: int, n_particles: int, stride: int = 1):
        if seed < 0 or n_particles < 1 or stride < 1:
            raise ValueError(f"need seed >= 0, n_particles >= 1 and stride >= 1, "
                             f"got {seed}, {n_particles}, {stride}")
        self.seed, self.N, self.stride = int(seed), int(n_particles), int(stride)
        self._stream = RngStream(self.seed, STEP_BASE)  # restarted per fine step
        self._step = 0  # next unread fine step
        # the (N, m) unit panel and the (N, m) fine panel of a stride sum
        self._panel = self._fine = None

    def _unit_panel(self, k0: int, out: np.ndarray) -> np.ndarray:
        """Unit draw of the step starting at fine step ``k0``, into ``out``."""
        self._stream.restart(STEP_BASE + k0)
        self._stream.standard_normal(out.shape, out=out)
        for k in range(k0 + 1, k0 + self.stride):
            self._stream.restart(STEP_BASE + k)
            out += self._stream.standard_normal(out.shape, out=self._fine)
        if self.stride > 1:
            out /= np.sqrt(self.stride)
        return out

    def increments(self, m: int, dt: float) -> np.ndarray:
        """Next step's increments, shape (m, N): column j ~ N(0, dt I_m).

        The unit panel is scaled by ``sqrt(dt)`` in place, and the result
        is its transpose: an F-contiguous view of this object's panel,
        valid until the next call, which overwrites it.
        """
        if dt <= 0 or m < 1:
            raise ValueError(f"need dt > 0 and m >= 1, got dt={dt}, m={m}")
        if self._panel is None or self._panel.shape[1] != m:
            self._panel = np.empty((self.N, m))
            self._fine = np.empty((self.N, m)) if self.stride > 1 else None
        k0, self._step = self._step, self._step + self.stride
        panel = self._unit_panel(k0, self._panel)
        panel *= np.sqrt(dt)
        return panel.T


def particle_streams(seed: int, n_particles: int, stride: int = 1) -> ParticleNoise:
    """The ensemble noise of a run: step panels keyed (seed, STEP_BASE + k)."""
    return ParticleNoise(seed, n_particles, stride)
