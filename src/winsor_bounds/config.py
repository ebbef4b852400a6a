"""Root-solver tolerance defaults, overridable via WINSOR_BOUNDS_TOL."""

import math
import os

from .errors import ParameterError, require_positive

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


def resolve_tolerances(abs_tol: float | None, rel_tol: float | None) -> tuple[float, float]:
    """Fill in missing tolerances from the configured default and validate."""
    fallback = default_tolerance()
    abs_tol = fallback if abs_tol is None else abs_tol
    rel_tol = fallback if rel_tol is None else rel_tol
    require_positive("abs_tol", abs_tol)
    require_positive("rel_tol", rel_tol)
    return abs_tol, rel_tol
