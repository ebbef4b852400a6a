"""Core value objects: zero-mean two-point laws and bound queries."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ParameterError, require_positive

_MOMENT_RTOL = 1e-14


@dataclass(frozen=True)
class TwoPointDistribution:
    """Zero-mean law on {-a, b}: mass b/(a+b) at -a, mass a/(a+b) at b.

    These masses are the unique choice making the mean zero; the second
    moment is then a*b.  Instances are the extremal objects attaining every
    bound in this package.
    """

    a: float
    b: float
    p_neg: float
    p_pos: float

    def __post_init__(self) -> None:
        require_positive("a", self.a)
        require_positive("b", self.b)
        # p may round to exactly 1.0 when the support ratio exceeds double
        # resolution (b/a beyond ~1e16), so only exclude zero masses.
        if not (0.0 < self.p_neg <= 1.0 and 0.0 < self.p_pos <= 1.0):
            raise ParameterError("masses must lie inside (0, 1]")
        if abs(self.p_neg + self.p_pos - 1.0) > _MOMENT_RTOL:
            raise ParameterError("masses must sum to one")
        scale = self.a * self.p_neg + self.b * self.p_pos
        if abs(self.mean) > _MOMENT_RTOL * scale:
            raise ParameterError("masses do not give a zero mean")
        # second_moment / (a*b), which cannot overflow where b^2 would
        if abs(self.a * self.p_neg / self.b + self.b * self.p_pos / self.a - 1.0) > _MOMENT_RTOL:
            raise ParameterError("second moment must equal a*b")

    @property
    def mean(self) -> float:
        return -self.a * self.p_neg + self.b * self.p_pos

    @property
    def second_moment(self) -> float:
        return self.a * self.a * self.p_neg + self.b * self.b * self.p_pos


def two_point(a: float, b: float) -> TwoPointDistribution:
    """The zero-mean two-point law with support {-a, b}."""
    require_positive("a", a)
    require_positive("b", b)
    total = a + b
    return TwoPointDistribution(a=a, b=b, p_neg=b / total, p_pos=a / total)


@dataclass(frozen=True)
class BoundQuery:
    """A bound request: tilt c, second-moment budget sigma, cut level.

    Results are computed at cut level 1 after the rescaling
    (c, sigma, cut) -> (c*cut, sigma/cut, 1); solutions therefore report
    solved quantities in that rescaled parameterization and keep the query
    so callers can map back.
    """

    c: float
    sigma: float
    cut: float = 1.0

    def __post_init__(self) -> None:
        require_positive("c", self.c)
        require_positive("sigma", self.sigma)
        require_positive("cut", self.cut)

    @property
    def effective_c(self) -> float:
        """Tilt parameter after rescaling to cut level 1."""
        return self.c * self.cut

    @property
    def effective_sigma(self) -> float:
        """Second-moment budget after rescaling to cut level 1."""
        return self.sigma / self.cut
