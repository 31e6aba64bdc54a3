"""Error types shared across the package.

Contract violations (bad shapes, out-of-range parameters) raise the
built-in ``ValueError``; ``ConfigError``, a ``ValueError``, marks the ones
that come from a run's configuration or input data, which the CLI reports
with exit status 2.  ``NumericFailure`` is reserved for runs that were
well-posed on entry but produced non-finite numbers along the way.
"""

from __future__ import annotations


class ConfigError(ValueError):
    """A run configuration, its flags or its input data could not be validated."""


class NumericFailure(RuntimeError):
    """A simulation or filter step produced non-finite values.

    Parameters
    ----------
    message : str
        Human-readable description.
    t : float, optional
        Simulation time at which the failure occurred.
    step : int, optional
        Step index (0-based) at which the failure occurred.
    particle : int, optional
        Ensemble column that went non-finite, when attributable.
    """

    def __init__(self, message, t=None, step=None, particle=None):
        parts = [message]
        if step is not None:
            parts.append(f"step={step}")
        if t is not None:
            parts.append(f"t={t:g}")
        if particle is not None:
            parts.append(f"particle={particle}")
        super().__init__(" ".join(parts))
        self.t = t
        self.step = step
        self.particle = particle
