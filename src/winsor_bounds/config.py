"""Root-solver tolerance defaults, overridable via WINSOR_BOUNDS_TOL."""

import math
import os

from .errors import ParameterError

DEFAULT_TOL = 1e-12
TOL_ENV_VAR = "WINSOR_BOUNDS_TOL"


def default_tolerance() -> float:
    """Default absolute/relative root tolerance, honouring the env override."""
    raw = os.environ.get(TOL_ENV_VAR)
    if raw is None:
        return DEFAULT_TOL
    try:
        value = float(raw)
    except ValueError:
        raise ParameterError(
            f"{TOL_ENV_VAR} must be a positive real, got {raw!r}"
        ) from None
    if not (math.isfinite(value) and value > 0.0):
        raise ParameterError(f"{TOL_ENV_VAR} must be a positive real, got {raw!r}")
    return value

