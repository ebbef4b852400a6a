"""Core value objects: zero-mean two-point laws and bound queries."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import in_range, require_positive


@dataclass(frozen=True)
class TwoPointDistribution:
    """Zero-mean law on {-a, b}: mass b/(a+b) at -a, mass a/(a+b) at b.

    The support fixes the law: these masses are the unique choice making the
    mean zero, and the second moment is then a*b.  Instances are the
    extremal objects attaining every bound in this package.
    """

    a: float
    b: float

    def __post_init__(self) -> None:
        require_positive("a", self.a)
        require_positive("b", self.b)

    @property
    def p_neg(self) -> float:
        return self.b / (self.a + self.b)

    @property
    def p_pos(self) -> float:
        return self.a / (self.a + self.b)

    @property
    def mean(self) -> float:
        return -self.a * self.p_neg + self.b * self.p_pos

    @property
    def second_moment(self) -> float:
        return self.a * self.a * self.p_neg + self.b * self.b * self.p_pos


def two_point(a: float, b: float) -> TwoPointDistribution:
    """The zero-mean two-point law with support {-a, b}."""
    return TwoPointDistribution(a, b)


def _effective_c(c: float, cut: float) -> float:
    return in_range("c*cut", c * cut, c, cut)


def _effective_sigma(sigma: float, cut: float) -> float:
    return in_range("sigma/cut", sigma / cut, sigma, cut)


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
        return _effective_c(self.c, self.cut)

    @property
    def effective_sigma(self) -> float:
        """Second-moment budget after rescaling to cut level 1."""
        return _effective_sigma(self.sigma, self.cut)
