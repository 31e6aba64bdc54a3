"""Process and measurement model containers.

The state is filtered as an ensemble: an ``(n, N)`` array whose columns
are particles.  Models carry plain callables plus the dimension metadata
the integrators and filters need.  The process drift takes a whole
ensemble, and a single path is a one-column ensemble; so does the
measurement map.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import NumericFailure


def all_finite(x: np.ndarray) -> bool:
    """Whether every entry of ``x`` is finite.

    The answer of ``np.isfinite(x).all()`` without the Python frame of
    ``ndarray.all``, which the filter steps would pay on every check.
    """
    return bool(np.logical_and.reduce(np.isfinite(x), axis=None))


def require_finite(ens: np.ndarray, message: str, t: Optional[float] = None
                   ) -> None:
    """Raise ``NumericFailure(message)`` unless every entry of ``ens`` is finite.

    The failure names the first particle (column of the ``(n, N)``
    ensemble) with a non-finite entry; that column is looked for only on
    the failure path.
    """
    if not all_finite(ens):
        particle = int(np.argmax(~np.isfinite(ens).all(axis=0)))
        raise NumericFailure(message, t=t, particle=particle)


def validate_ensemble(ens: np.ndarray) -> np.ndarray:
    """Check an ensemble array: 2-d, N >= 2 columns, finite entries."""
    ens = np.asarray(ens, dtype=float)
    if ens.ndim != 2:
        raise ValueError(f"ensemble must be 2-d (n, N), got shape {ens.shape}")
    if ens.shape[1] < 2:
        raise ValueError(f"ensemble needs at least 2 particles, got {ens.shape[1]}")
    if not all_finite(ens):
        raise ValueError("ensemble contains non-finite entries")
    return ens


@dataclass
class ProcessModel:
    """Ito process dx = b(x, t) dt + F dB with a constant diffusion F.

    Parameters
    ----------
    n : int
        State dimension.
    m : int
        Brownian dimension.
    drift_ensemble : callable
        Drift ``B(X, t) -> (n, N)`` of an ensemble; a single path is a
        one-column ensemble.  The result is a new writable float array,
        which the integrator may overwrite, or a view of ``X``.
    constant_diffusion : ndarray
        ``(n, m)`` diffusion matrix F.

    ``selection`` is set from the structure of ``constant_diffusion``:
    ``(rows, cols, scale)`` when its nonzeros are ``scale[i]`` at
    ``(rows.start + i, cols.start + i)``, so ``F @ dB`` is ``scale *
    dB[cols]`` in ``rows`` and zero elsewhere; None otherwise.
    """

    n: int
    m: int
    drift_ensemble: Callable[[np.ndarray, float], np.ndarray]
    constant_diffusion: np.ndarray
    selection: Optional[tuple] = field(init=False, default=None, repr=False,
                                       compare=False)

    def __post_init__(self):
        if self.n < 1 or self.m < 0:
            raise ValueError("need n >= 1 and m >= 0")
        F = np.asarray(self.constant_diffusion, dtype=float)
        if F.shape != (self.n, self.m):
            raise ValueError(
                f"constant_diffusion shape {F.shape} != ({self.n}, {self.m})")
        self.constant_diffusion = F
        self.selection = _selection(F)


def _selection(F: np.ndarray) -> Optional[tuple]:
    """``(rows, cols, scale)`` of a scaled selection ``F``, else None.

    Nonzeros in consecutive rows and consecutive columns give at most one
    per row and per column, so each entry of ``F @ dB`` is one product
    plus exact zeros: the sliced product has the same bits.
    """
    rows, cols = np.nonzero(F)
    if np.any(np.diff(rows) != 1) or np.any(np.diff(cols) != 1):
        return None
    r0, c0 = (int(rows[0]), int(cols[0])) if rows.size else (0, 0)
    return (slice(r0, r0 + rows.size), slice(c0, c0 + cols.size),
            F[rows, cols][:, None])


@dataclass
class MeasurementModel:
    """Measurement map Y = h(X, t) + noise with scaled intensity.

    ``nu`` is the (time-constant) measurement-noise intensity of the
    underlying Brownian noise; the scaled intensity entering the filter
    denominator is ``sigma = nu * dt_scale``.

    Parameters
    ----------
    q : int
        Measurement dimension.
    h : callable
        ``h(X, t) -> (q, N)`` of an ``(n, N)`` array whose columns are
        states; ``t`` is one time for every column or one time per
        column.  A single state is a one-column array.
    nu : ndarray
        ``(q, q)`` noise intensity matrix.
    dt_scale : float
        Step length used to scale the intensity, sigma = nu * dt_scale.
    linear : bool
        Set where a model is built when ``h`` is linear in the state:
        ``h(a X + b Z, t) = a h(X, t) + b h(Z, t)`` for every ``t``, so
        ``h(0, t) = 0``.  :func:`enks.iterative.iterate_update` then runs
        its passes on the ensemble's moments and evaluates ``h`` on no
        iterate.  A map that is not linear must leave it False.
    """

    q: int
    h: Callable[[np.ndarray, float], np.ndarray]
    nu: np.ndarray
    dt_scale: float
    linear: bool = False

    def __post_init__(self):
        if self.q < 1:
            raise ValueError("q must be >= 1")
        if self.dt_scale <= 0:
            raise ValueError("dt_scale must be positive")
        nu = np.atleast_2d(np.asarray(self.nu, dtype=float))
        if nu.shape != (self.q, self.q):
            raise ValueError(f"nu shape {nu.shape} != ({self.q}, {self.q})")
        self.nu = nu

    @property
    def sigma(self) -> np.ndarray:
        """Scaled noise intensity sigma = nu * dt_scale."""
        return self.nu * self.dt_scale

    @property
    def sigma_gram(self) -> np.ndarray:
        """sigma^T sigma, the squared scaled intensity in the blend."""
        s = self.sigma
        return s.T @ s

    def evaluate(self, ens: np.ndarray, t: float) -> np.ndarray:
        """h of an ensemble at time ``t``, shape (q, N)."""
        out = np.asarray(self.h(ens, t), dtype=float)
        if out.shape != (self.q, ens.shape[1]):
            raise ValueError(f"h returned shape {out.shape}, expected {(self.q, ens.shape[1])}")
        return out


@dataclass
class MeasurementSeries:
    """Observed measurements on a strictly increasing time grid.

    ``values`` has shape ``(q, M)`` with column i observed at ``times[i]``.
    A non-finite time or value is a ``ValueError``.
    """

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.atleast_2d(np.asarray(self.values, dtype=float))
        if self.times.ndim != 1:
            raise ValueError("times must be 1-d")
        if not (all_finite(self.times) and all_finite(self.values)):
            raise ValueError("times and values must be finite")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")
        if self.values.shape[1] != self.times.size:
            raise ValueError(
                f"values has {self.values.shape[1]} columns for {self.times.size} times")

    def __len__(self):
        return self.times.size
