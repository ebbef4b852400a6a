"""Exception hierarchy shared across the package, plus the argument
validators every public entry point uses and the one range guard every
result that can leave the doubles passes through."""

import math
import numbers

LN_DBL_MAX = 709.782712893384  # ln(DBL_MAX): e^z is a double up to here, and no further


class WinsorBoundsError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(WinsorBoundsError, ValueError):
    """An input violates a documented precondition (e.g. sigma <= 0)."""


class ExponentOverflowError(WinsorBoundsError, OverflowError):
    """An exponent, or a quantity the answer needs (see ``in_range``),
    exceeds the double-precision range; signalled explicitly instead of
    returning infinity."""


class NoSignChangeError(WinsorBoundsError):
    """No positive double holds the answer: the equation is still positive at
    the smallest positive double, or a quantity the answer needs (see
    ``in_range``) underflows to 0.0."""


class NonFiniteValueError(WinsorBoundsError):
    """A function returned NaN or infinity at a probe point."""


class MaxIterationsError(WinsorBoundsError):
    """The root solver hit its evaluation cap, or its bracket collapsed to
    adjacent doubles with the residual still above the tolerance: the
    function is too steep at this scale for double precision.  Also the grid
    LP's: no optimum within its pivot cap, or a basis that rounding left no law."""


def require_positive(name: str, value: float, allow_zero: bool = False) -> float:
    """value as a Python float, or a ParameterError naming ``name`` unless
    that float is finite and > 0 (>= 0 with ``allow_zero``).  A value that is
    no real (a str, None, a complex) or an int past the doubles is refused
    the same way.  Callers compute with what it returns: a Decimal or
    Fraction would not mix with floats, and a NumPy float32 would carry its
    single precision through the arithmetic."""
    try:
        if math.isfinite(value):  # a str, None or a complex raises TypeError
            real = float(value)
            if real > 0.0 or (allow_zero and real == 0.0):
                return real
    except (TypeError, OverflowError):
        pass
    if allow_zero:
        raise ParameterError(f"{name} must be a nonnegative real, got {value!r}")
    raise ParameterError(f"{name} must be a positive real, got {value!r}")


def require_real(name: str, value) -> float:
    """value as a Python float, or a ParameterError naming ``name`` unless it
    is a real; a NaN, an inf, 0 and a negative real are reals here."""
    try:
        math.isfinite(value)  # a str, None or a complex raises TypeError
        return float(value)
    except (TypeError, OverflowError):
        raise ParameterError(f"{name} must be a real, got {value!r}") from None


def require_integer(name: str, value, least: int) -> None:
    """Raise ParameterError naming ``name`` unless value is an integer >= least."""
    if not isinstance(value, numbers.Integral) or value < least:
        raise ParameterError(f"{name} must be an integer >= {least}, got {value!r}")


def _choice(enum, name: str, value):
    """enum(value), or a ParameterError naming ``name`` and the valid values."""
    if isinstance(value, enum):  # a member: the common case, 20 times cheaper
        return value
    valid = [member.value for member in enum]
    if value not in valid:
        raise ParameterError(f"{name} must be one of {', '.join(valid)}; got {value!r}")
    return enum(value)


def in_range(quantity: str, value: float, *operands: float) -> float:
    """Return the positive result ``value``, named ``quantity`` and formed
    from ``operands``, unless it has left the doubles: an overflow to inf
    raises ExponentOverflowError, and an underflow to 0.0, which leaves no
    positive double to answer with, raises NoSignChangeError.  A NaN, which
    finite operands form only through an inf, counts as an overflow."""
    if not value < math.inf:
        fate, error = "overflows to inf", ExponentOverflowError
    elif value == 0.0:
        fate, error = "underflows to 0.0", NoSignChangeError
    else:
        return value
    raise error(f"{quantity} {fate} (operands {', '.join(map(repr, operands))})")


def exp_or_inf(z: float) -> float:
    """e^z, or inf past LN_DBL_MAX, where math.exp raises; in_range refuses it."""
    return math.exp(z) if z <= LN_DBL_MAX else math.inf
