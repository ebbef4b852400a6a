"""Exact attained lower bounds on exponential moments of Winsorized and
truncated random variables under the constraints E X >= 0, E X^2 <= sigma^2,
together with brute-force oracles, tangent-minorant certificates, asymptotic
laws, and CSV sweep emitters.

The package namespace holds the bound API; the solvers, certificates,
oracles and asymptotics live in their submodules (``winsor_bounds.winsor``,
``winsor_bounds.trunc``, ...)."""

from .errors import (
    ExponentOverflowError, MaxIterationsError, NonFiniteValueError, NoSignChangeError,
    ParameterError, WinsorBoundsError,
)
from .trunc import Branch, lower_bound_trunc
from .law import Bound
from .winsor import BoundQuery, lower_bound_fixed_c, lower_bound_universal

__version__ = "0.1.0"

__all__ = [
    "Bound",
    "BoundQuery",
    "Branch",
    "ExponentOverflowError",
    "MaxIterationsError",
    "NonFiniteValueError",
    "NoSignChangeError",
    "ParameterError",
    "WinsorBoundsError",
    "__version__",
    "lower_bound_fixed_c",
    "lower_bound_trunc",
    "lower_bound_universal",
]
