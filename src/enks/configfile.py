"""Flat ``key = value`` run-configuration files.

Grammar (one setting per line):

    # comment lines and blank lines are ignored
    key = value

Keys mirror the CLI flags; unknown keys are rejected so typos fail loudly.
``filter`` takes a comma-separated list; numeric values use ordinary
decimal notation.  CLI flags override file values.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional

from .errors import ConfigError
from .harness import ExperimentConfig

_STR_KEYS = {"problem", "out"}
_INT_KEYS = {"ensemble", "kappa", "seed"}
_FLOAT_KEYS = {"dt", "alpha", "horizon", "proc_noise", "meas_noise_std",
               "param_diffusion", "init_spread_scale"}
_LIST_KEYS = {"filter", "tracked_channels"}
KNOWN_KEYS = _STR_KEYS | _INT_KEYS | _FLOAT_KEYS | _LIST_KEYS
# the keys named apart from their ExperimentConfig field
_FIELD_OF = {"ensemble": "N", "filter": "filters", "out": "out_dir"}


def parse_config_file(path) -> dict:
    """Parse a flat key = value file into a typed settings dict."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    settings = {}
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in KNOWN_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key '{key}'")
        settings[key] = _coerce(key, value, f"{path}:{lineno}")
    return settings


def _coerce(key: str, value: str, where: str):
    try:
        if key in _INT_KEYS:
            return int(value)
        if key in _FLOAT_KEYS:
            return float(value)
        if key == "filter":
            return tuple(v.strip() for v in value.split(",") if v.strip())
        if key == "tracked_channels":
            return tuple(int(v) for v in value.split(",") if v.strip())
        return value
    except ValueError as err:
        raise ConfigError(f"{where}: bad value for '{key}': {value!r}") from err


def experiment_config(settings: dict, overrides: Optional[dict] = None
                      ) -> ExperimentConfig:
    """Build an ExperimentConfig from file settings plus CLI overrides.

    Only the keys that are set are passed, so every default is
    ExperimentConfig's own.
    """
    merged = {**settings, **{key: val for key, val in (overrides or {}).items()
                             if val is not None}}
    if "problem" not in merged:
        raise ConfigError("a problem id is required (flag --problem or config key)")
    return ExperimentConfig(**{_FIELD_OF.get(key, key): val
                               for key, val in merged.items()})
