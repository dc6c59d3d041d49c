"""Numerical workbench for self-gravitating stars of the stiffest causal fluid.

``import hardstars`` loads ``errors`` only; the ``background`` names it
re-exports (and with them numpy) load on first access (PEP 562).
"""

from __future__ import annotations

from .errors import (
    CflViolationError,
    ConfigError,
    ConvergenceError,
    DomainError,
    HardStarError,
    InstabilityError,
)

__version__ = "0.1.0"

_BACKGROUND_NAMES = (
    "BackgroundProfile",
    "FamilyRow",
    "StarParameters",
    "approximate_profile",
    "build_star",
    "derive_metric_fields",
    "family_scan",
    "solve_tov_picard",
    "solve_tov_shooting",
    "tov_rhs",
)


def __getattr__(name: str):
    if name not in _BACKGROUND_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import background

    value = globals()[name] = getattr(background, name)
    return value


__all__ = [
    *_BACKGROUND_NAMES,
    "HardStarError",
    "DomainError",
    "ConvergenceError",
    "CflViolationError",
    "InstabilityError",
    "ConfigError",
    "__version__",
]
