"""Two-point law and query value objects."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from winsor_bounds.distributions import BoundQuery, two_point
from winsor_bounds.errors import ParameterError

positive = st.floats(min_value=1e-6, max_value=1e6)


@given(a=positive, b=positive)
@settings(max_examples=200, deadline=None)
def test_two_point_moments(a, b):
    dist = two_point(a, b)
    scale = dist.a * dist.p_neg + dist.b * dist.p_pos
    assert abs(dist.mean) <= 1e-14 * scale
    assert abs(dist.second_moment - a * b) <= 1e-14 * a * b
    assert abs(dist.p_neg + dist.p_pos - 1.0) <= 1e-14


def test_two_point_rejects_bad_support():
    with pytest.raises(ParameterError):
        two_point(-1.0, 2.0)
    with pytest.raises(ParameterError):
        two_point(1.0, 0.0)
    with pytest.raises(ParameterError):
        two_point(float("inf"), 1.0)


def test_extreme_support_ratio_mass_rounds_to_one():
    dist = two_point(20.0, 5e18)
    assert dist.p_neg == 1.0
    assert dist.p_pos > 0.0


def test_second_moment_check_survives_huge_support():
    # b^2 overflows here while a*b does not
    dist = two_point(450.0, 2.2e197)
    assert dist.p_pos > 0.0


def test_query_validation():
    with pytest.raises(ParameterError):
        BoundQuery(c=0.0, sigma=1.0)
    with pytest.raises(ParameterError):
        BoundQuery(c=1.0, sigma=-2.0)
    with pytest.raises(ParameterError):
        BoundQuery(c=1.0, sigma=1.0, cut=0.0)
    with pytest.raises(ParameterError):
        BoundQuery(c=float("nan"), sigma=1.0)


def test_query_rescaling_fields():
    query = BoundQuery(c=1.5, sigma=4.0, cut=2.0)
    assert query.effective_c == 3.0
    assert query.effective_sigma == 2.0


def test_law_is_its_support():
    dist = two_point(1.0, 3.0)
    assert [field.name for field in dataclasses.fields(dist)] == ["a", "b"]
    assert (dist.p_neg, dist.p_pos) == (0.75, 0.25)
    # a/(a+b) underflows to 0 here; the support is still a valid law
    assert (two_point(1e-200, 1e200).p_neg, two_point(1e-200, 1e200).p_pos) == (1.0, 0.0)
