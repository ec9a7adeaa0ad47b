"""Small argument-validation helpers used across the library.

They raise :class:`repro.utils.errors.ConfigError` with a uniform message
format, keeping validation one-liners at public API boundaries.
"""

from __future__ import annotations

from repro.utils.errors import ConfigError


def require_positive(name: str, value: float) -> float:
    """Validate ``value > 0``."""
    if not value > 0:
        raise ConfigError(f"{name} must be > 0, got {value!r}")
    return value


def require_non_negative(name: str, value: float) -> float:
    """Validate ``value >= 0``."""
    if value < 0:
        raise ConfigError(f"{name} must be >= 0, got {value!r}")
    return value


def require_in_range(name: str, value: float, lo: float, hi: float) -> float:
    """Validate ``lo <= value <= hi``."""
    if not (lo <= value <= hi):
        raise ConfigError(f"{name} must be in [{lo}, {hi}], got {value!r}")
    return value
