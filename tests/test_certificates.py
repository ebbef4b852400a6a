"""Tangent-minorant certificates: construction, geometry, negative control."""

import itertools
import math
import random
import warnings

import numpy as np
import pytest

from winsor_bounds import certificates, oracle, trunc, verify, winsor
from winsor_bounds.certificates import MomentKind, QuadraticMinorant
from winsor_bounds.winsor import BoundQuery
from winsor_bounds.errors import ParameterError


def fixed_root(c, sigma):
    """The lower support magnitude of the fixed-tilt extremal law."""
    return winsor.lower_bound_fixed_c(BoundQuery(c, sigma)).a


def solved_winsor(c, sigma):
    """The fixed-tilt bound's (minorant, kind, c)."""
    return (
        certificates.minorant(winsor.lower_bound_fixed_c(BoundQuery(c, sigma))),
        MomentKind.WINSOR,
        c,
    )


def solved_trunc(c, sigma, branch):
    """The truncated bound's (minorant, kind, c), at a point on ``branch``."""
    solution = trunc.lower_bound_trunc(BoundQuery(c, sigma))
    assert solution.branch is branch, (c, sigma)
    return certificates.minorant(solution), MomentKind.TRUNC, c


def at_root(a, c, branch=None):
    """A Bound with lower atom a at tilt c on ``branch`` (None for the
    Winsorized kind): the fields minorant reads, for an a picked by hand
    rather than solved from a query."""
    kind = "fixed-winsor" if branch is None else "trunc"
    return winsor.Bound(kind, c, None, 1.0, a, None, c, None, branch)


def rising_on_the_cut():
    """A parabola through F(1) = 1 whose slope there is +0.5."""
    gamma = -0.25
    beta = 0.5 - 2.0 * gamma
    return from_coefficients(1.0 - beta - gamma, beta, gamma, (-1.0, 1.0))


def finite_difference(f, x, h):
    return (f(x + h) - f(x - h)) / (2.0 * h)


def reference_check(minorant, kind, c):
    """(passed, worst_gap, worst_x, equality_localized) from one pass over the
    sorted, unique certificate_grid, with the worst point taken by argmin."""
    grid = certificates.certificate_grid(minorant)
    f_values = certificates.capped_exp(kind, c, grid)
    normalized = (f_values - minorant(grid)) / np.maximum(1.0, f_values)
    i = int(np.argmin(normalized))
    xs = grid[np.abs(normalized) <= certificates.EQUALITY_RTOL]
    near_contact = np.zeros_like(xs, dtype=bool)
    for x0 in minorant.contact_points:
        near_contact |= np.abs(xs - x0) <= certificates.CONTACT_WINDOW * (1.0 + abs(x0))
    localized = bool(np.all(near_contact))
    passed = bool(normalized[i] >= -certificates.GAP_RTOL) and localized
    return passed, float(normalized[i]), float(grid[i]), localized


def reference_contact_gaps(minorant, kind, c):
    """The contact gaps in closed form, F and G evaluated afresh at both
    contacts: the formulas check_certificate applies to its own F and G there."""
    out = {}
    x_lo = minorant.contact_points[0]
    points = np.array(minorant.contact_points)
    f_values = certificates.capped_exp(kind, c, points).tolist()
    for x0, f_value, g_value in zip(minorant.contact_points, f_values, minorant(points).tolist()):
        g_slope = minorant.lower_slope + 2.0 * minorant.gamma * (x0 - x_lo)
        if x0 == 1.0:
            slope_gap = max(g_slope, 0.0)
        else:
            slope_gap = abs((c * f_value if x0 < 1.0 else 0.0) - g_slope)
        scale = max(1.0, f_value)
        out[x0] = (abs(f_value - g_value) / scale, slope_gap / scale)
    return out


def hex_gaps(gaps):
    return {x0.hex(): tuple(gap.hex() for gap in pair) for x0, pair in gaps.items()}


def from_coefficients(alpha, beta, gamma, contact_points, cls=QuadraticMinorant):
    """alpha + beta*x + gamma*x^2, anchored at its lower contact."""
    x_lo = contact_points[0]
    return cls(
        contact_points=contact_points,
        lower_value=alpha + beta * x_lo + gamma * x_lo * x_lo,
        lower_slope=beta + 2.0 * gamma * x_lo,
        gamma=gamma,
    )


def beta_scaled(minorant, factor):
    return from_coefficients(
        float(minorant(0.0)), factor * minorant.beta, minorant.gamma, minorant.contact_points
    )


class Recording(QuadraticMinorant):
    """A minorant that keeps a copy of every x it is evaluated at."""

    seen: list = []

    def __call__(self, x, out=None):
        Recording.seen.append(np.array(x, dtype=float))
        return super().__call__(x, out=out)


class Zero(QuadraticMinorant):
    """G = 0.0 everywhere, so the gap is 0.0 exactly where F underflows."""

    def __call__(self, x, out=None):
        if out is None:
            out = np.empty(np.shape(x))
        out[...] = 0.0
        return out


class TestWinsorMinorant:
    def test_tangency_at_both_contacts(self):
        for a, c in ((1.0, 1.0), (0.3, 2.5), (4.0, 0.4)):
            minorant = certificates.minorant(at_root(a, c))
            b = winsor.b_star(a, c)
            assert minorant.contact_points == (-a, b)
            d = lambda x: float(
                certificates.capped_exp(MomentKind.WINSOR, c, x) - minorant(x)
            )
            scale = math.exp(c)
            for x0 in (-a, b):
                h = 1e-6 * (1.0 + abs(x0))
                assert abs(d(x0)) < 1e-11 * scale
                assert abs(finite_difference(d, x0, h)) < 1e-6 * scale

    def test_sign_structure(self):
        for a in (0.01, 1.0, 10.0):
            for c in (0.1, 1.0, 5.0):
                minorant = certificates.minorant(at_root(a, c))
                assert minorant.beta > 0.0 > minorant.gamma

    def test_strict_gap_away_from_contacts(self):
        minorant = certificates.minorant(at_root(1.0, 1.0))
        # F(0) - G(0) > 0
        assert minorant(0.0) < 1.0

    def test_unit_coefficients(self):
        minorant = certificates.minorant(at_root(1.0, 1.0))
        b = 2.0 * math.e**2 - 3.0
        w = math.exp(-1.0)
        denom = 2.0 * (1.0 + b)
        assert abs(minorant(0.0) - (math.e - b * b * w / denom)) < 1e-12
        assert abs(minorant.beta - 2.0 * b * w / denom) < 1e-14
        assert abs(minorant.gamma + w / denom) < 1e-16

    def test_certificate_passes_at_solved_roots(self):
        for c, sigma in ((0.5, 0.2), (1.0, 1.0), (5.0, 30.0)):
            report = certificates.check_certificate(*solved_winsor(c, sigma))
            assert report.passed, report
            assert report.equality_localized
            assert report.n_points >= 100_000


class TestTruncSmallMinorant:
    def test_tangency_and_value_pinning(self):
        for sigma2, c in ((0.25, 1.0), (0.1, 2.0)):
            minorant = certificates.minorant(at_root(sigma2, c, trunc.Branch.SMALL_SIGMA))
            d = lambda x: float(
                certificates.capped_exp(MomentKind.TRUNC, c, x) - minorant(x)
            )
            h = 1e-6
            assert abs(d(-sigma2)) < 1e-12
            assert abs(finite_difference(d, -sigma2, h)) < 1e-6
            assert abs(d(1.0)) < 1e-12  # value pinned at the cut, slope free

    def test_beta_floor_and_gamma_sign(self):
        for sigma2, c in ((0.25, 1.0), (0.5, 0.5), (0.05, 4.0)):
            minorant = certificates.minorant(at_root(sigma2, c, trunc.Branch.SMALL_SIGMA))
            floor = (
                math.exp(-sigma2 * c) * c * (1.0 + sigma2**2) / (1.0 + sigma2) ** 2
            )
            assert minorant.beta >= floor * (1.0 - 1e-12)
            assert minorant.gamma < 0.0

    def test_certificate_passes(self):
        for c, sigma in ((1.0, 0.5), (2.0, 0.3**0.5)):
            report = certificates.check_certificate(
                *solved_trunc(c, sigma, trunc.Branch.SMALL_SIGMA)
            )
            assert report.passed, report


class TestTruncLargeMinorant:
    def test_tangency(self):
        for a, c in ((1.0, 1.0), (2.5, 0.8)):
            minorant = certificates.minorant(at_root(a, c, trunc.Branch.LARGE_SIGMA))
            b = minorant.contact_points[1]
            assert b >= 1.0
            d = lambda x: float(
                certificates.capped_exp(MomentKind.TRUNC, c, x) - minorant(x)
            )
            h = 1e-6 * (1.0 + b)
            assert abs(d(-a)) < 1e-12
            assert abs(d(b)) < 1e-12
            assert abs(finite_difference(d, -a, 1e-6)) < 1e-6
            assert abs(finite_difference(d, b, h)) < 1e-6

    def test_boundary_case_has_unit_contact_and_right_derivative(self):
        c = 1.0
        threshold = trunc.solve_A_c(c)
        minorant = certificates.minorant(at_root(threshold, c, trunc.Branch.LARGE_SIGMA))
        assert minorant.contact_points[1] == 1.0
        d = lambda x: float(
            certificates.capped_exp(MomentKind.TRUNC, c, x) - minorant(x)
        )
        h = 1e-6
        right = (-3.0 * d(1.0) + 4.0 * d(1.0 + h) - d(1.0 + 2.0 * h)) / (2.0 * h)
        assert abs(d(1.0)) < 1e-12
        assert abs(right) < 1e-6
        # at the boundary both truncated certificates exist and agree on the
        # small-branch bound value through their shared contact set
        small = certificates.minorant(at_root(threshold, c, trunc.Branch.SMALL_SIGMA))
        assert abs(small.contact_points[0] - minorant.contact_points[0]) < 1e-9
        assert small.contact_points[1] == minorant.contact_points[1] == 1.0

    def test_sign_structure(self):
        minorant = certificates.minorant(at_root(2.0, 1.0, trunc.Branch.LARGE_SIGMA))
        assert minorant.beta > 0.0 > minorant.gamma


class TestCheckCertificate:
    def test_negative_control_fails(self):
        broken = beta_scaled(solved_winsor(1.0, 1.0)[0], 0.9)
        report = certificates.check_certificate(broken, MomentKind.WINSOR, 1.0)
        assert not report.passed
        assert report.worst_gap < -1e-3

    def test_contact_gaps_vanish_at_solved_roots(self):
        c, sigma = 2.0, 3.0
        cases = (
            (MomentKind.WINSOR, solved_winsor(c, sigma)[0]),
            (MomentKind.TRUNC, certificates.minorant(at_root(0.1, c, trunc.Branch.SMALL_SIGMA))),
            (MomentKind.TRUNC, solved_trunc(c, sigma, trunc.Branch.LARGE_SIGMA)[0]),
        )
        for kind, minorant in cases:
            gaps = certificates.check_certificate(minorant, kind, c).contact_gaps
            assert set(gaps) == set(minorant.contact_points)
            assert max(max(pair) for pair in gaps.values()) <= 1e-12

    def test_huge_upper_contact_stays_finite(self):
        # at c = 600, sigma = 1 the upper contact is ~1.26e258, where
        # (x - x_lo)^2 alone overflows; the minorant must not form it
        c = 600.0
        minorant = solved_winsor(c, 1.0)[0]
        assert minorant.contact_points[1] > 1e258
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = certificates.check_certificate(minorant, MomentKind.WINSOR, c)
        gaps = report.contact_gaps
        assert all(math.isfinite(gap) for pair in gaps.values() for gap in pair)
        assert max(max(pair) for pair in gaps.values()) <= 1e-12
        assert report.passed

    def test_contact_gaps_flag_perturbed_beta(self):
        broken = beta_scaled(solved_winsor(1.0, 1.0)[0], 0.9)
        gaps = certificates.check_certificate(broken, MomentKind.WINSOR, 1.0).contact_gaps
        assert max(max(pair) for pair in gaps.values()) > 0.1

    def test_contact_gaps_flag_rising_slope_on_the_cut(self):
        # on the cut only the value and G'(1) <= 0 are required; a parabola
        # touching F(1) = 1 with slope +0.5 there crosses F just right of 1
        report = certificates.check_certificate(rising_on_the_cut(), MomentKind.TRUNC, 1.0)
        value_gap, slope_gap = report.contact_gaps[1.0]
        assert value_gap <= 1e-15
        assert slope_gap == pytest.approx(0.5)
        small = solved_trunc(1.0, 0.5, trunc.Branch.SMALL_SIGMA)
        assert certificates.check_certificate(*small).contact_gaps[1.0][1] == 0.0

    def test_equality_localization_flags_stray_contact(self):
        # a parabola secant to exp(c min(1, x)) crosses it, creating
        # equalities far from its declared contacts
        fake = from_coefficients(0.0, 1.0, -1e-6, (-50.0, 60.0))
        report = certificates.check_certificate(fake, MomentKind.WINSOR, 1.0)
        assert not report.passed

    def test_sign_constraint_enforced_at_construction(self):
        with pytest.raises(ParameterError):
            from_coefficients(1.0, -1.0, -1.0, (0.0, 1.0))
        with pytest.raises(ParameterError):
            from_coefficients(1.0, 1.0, 0.0, (0.0, 1.0))

    def test_nan_minorant_fails(self):
        good = certificates.minorant(at_root(1.0, 1.0))
        nan = from_coefficients(math.nan, good.beta, good.gamma, good.contact_points)
        report = certificates.check_certificate(nan, MomentKind.WINSOR, 1.0)
        assert not report.passed
        assert math.isnan(report.worst_gap)
        assert report.worst_x == reference_check(nan, MomentKind.WINSOR, 1.0)[2]

    def test_tie_reports_the_smaller_x(self):
        # F = 1 at c = 0, and G = 2 only at x = 20, the last point of the wide
        # span (evaluated last), and at the contact x0 = -1.23456789, which
        # is off the span and evaluated first: the gaps tie at -1 and the
        # smaller x is reported, as argmin on the sorted grid does
        x0 = -1.23456789

        class TwoSpikes(QuadraticMinorant):
            def __call__(self, x, out=None):
                if out is None:
                    out = np.empty(np.shape(x))
                out[...] = np.where(np.isin(x, (x0, 20.0)), 2.0, 0.0)
                return out

        spikes = from_coefficients(0.0, 1.0, -1.0, (x0, 2.0), cls=TwoSpikes)
        report = certificates.check_certificate(spikes, MomentKind.WINSOR, 0.0)
        assert (report.worst_gap, report.worst_x) == (-1.0, x0)
        assert not report.passed
        assert reference_check(spikes, MomentKind.WINSOR, 0.0)[1:3] == (-1.0, x0)
        assert x0 not in np.linspace(-20.0, 20.0, certificates.GRID_BASE_POINTS)

    def test_grid_spans_ten_times_contacts(self):
        minorant = certificates.minorant(at_root(1.0, 1.0))
        grid = certificates.certificate_grid(minorant)
        b = minorant.contact_points[1]
        assert grid[0] <= -10.0 * b and grid[-1] >= 10.0 * b
        assert grid.size >= 100_000
        # exact contact points are on the grid
        assert np.any(grid == -1.0) and np.any(grid == b)


def contact_gap_cases():
    """(c, sigma, kind) at every pair of verify's grid for both kinds, then
    at tilts of 30, 600 and 709, where F(1) passes 1e13, the upper contact
    1e258 and G's span overflows."""
    for c, sigma in (*verify._PAIRS, (30.0, 1.0), (600.0, 1.0), (709.0, 1.0)):
        for kind in MomentKind:
            yield c, sigma, kind


def test_contact_gaps_give_the_bits_of_the_closed_form():
    cases = [verify_grid_case(*case)[0] for case in contact_gap_cases()]
    cases.append((rising_on_the_cut(), MomentKind.TRUNC, 1.0))
    for minorant, kind, c in cases:
        gaps = certificates.check_certificate(minorant, kind, c).contact_gaps
        with np.errstate(under="ignore"):
            expected = reference_contact_gaps(minorant, kind, c)
        assert list(gaps) == list(minorant.contact_points)
        assert hex_gaps(gaps) == hex_gaps(expected), (c, kind)


# verify's cut-rescaling triples, then a cut below 1 on the large branch
CUT_CASES = ((1.0, 2.0, 2.0), (2.0, 1.0, 0.5), (0.7, 30.0, 3.0), (5.0, 0.3, 0.25))


def unverified_results():
    """(result, kind) for results verify never certifies: the universal bound
    at every sigma of its grid, and fixed-tilt and truncated bounds at cut
    levels other than 1."""
    for sigma in verify.SIGMA_GRID:
        yield winsor.lower_bound_universal(sigma), MomentKind.WINSOR
    for c, sigma, cut in CUT_CASES:
        query = BoundQuery(c, sigma, cut)
        yield winsor.lower_bound_fixed_c(query), MomentKind.WINSOR
        yield trunc.lower_bound_trunc(query), MomentKind.TRUNC


def test_results_verify_never_certifies_have_passing_certificates():
    results = list(unverified_results())
    assert {result.kind for result, _ in results} == {"universal-winsor", "fixed-winsor", "trunc"}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for result, kind in results:
            minorant = certificates.minorant(result)
            report = certificates.check_certificate(minorant, kind, result.tilt)
            assert report.passed, (result, report)
            assert max(max(pair) for pair in report.contact_gaps.values()) <= 1e-12, result


REFERENCE_CASES = {
    "winsor-0.5-0.2": lambda: solved_winsor(0.5, 0.2),
    "winsor-1-1": lambda: solved_winsor(1.0, 1.0),
    "winsor-5-30": lambda: solved_winsor(5.0, 30.0),
    "trunc-small-contact-on-cut": lambda: solved_trunc(1.0, 0.5, trunc.Branch.SMALL_SIGMA),
    "trunc-large": lambda: solved_trunc(2.0, 3.0, trunc.Branch.LARGE_SIGMA),
    "beta-times-0.9": lambda: (
        beta_scaled(solved_winsor(1.0, 1.0)[0], 0.9), MomentKind.WINSOR, 1.0
    ),
    "stray-contact": lambda: (
        from_coefficients(0.0, 1.0, -1e-6, (-50.0, 60.0)),
        MomentKind.WINSOR,
        1.0,
    ),
    # six span blocks where c*x < EXP_ZERO_BELOW throughout, so F is 0.0,
    # then one that the cutoff splits
    "winsor-10-1e6-zero-prefix": lambda: solved_winsor(10.0, 1e6),
    # large branch: a zero prefix, then a block across the subnormal band
    # -745.13 < c*x < -708, where exp is neither 0.0 nor normal
    "trunc-large-50-10-subnormal-band": lambda: solved_trunc(
        50.0, 10.0, trunc.Branch.LARGE_SIGMA
    ),
    # the window around the lower contact -1.9e-42 is a block across 0, and
    # the window around the cut one across 1 where F climbs to e^100
    "winsor-100-1-window-across-0": lambda: solved_winsor(100.0, 1.0),
    # G = 0.5 + 10x - 10x^2 lies above F = e^{2x} most, relative to F > 1,
    # at x = 1 - sqrt(0.55) = 0.25838..., inside the window of a contact
    # declared there, a block inside (0, 1)
    "worst-inside-0-1": lambda: (
        from_coefficients(0.5, 10.0, -10.0, (-1.0, 0.25838)), MomentKind.WINSOR, 2.0
    ),
    # F and G are both 0.0 on the zero prefix: the worst gap is +0.0 at -span
    "zero-minorant": lambda: (
        from_coefficients(0.0, 1.0, -1.0, (-1.0, 200.0), cls=Zero), MomentKind.WINSOR, 10.0
    ),
    # the verify grid's first pair: the gap is 0.0 both at the contact
    # -a = -4.7541646718261803e-07 and at a window point just right of it,
    # which comes first in its buffer; argmin over that unsorted buffer
    # would report -4.7541646718256975e-07, the sorted grid the contact
    "winsor-0.1-1e-3-tie-in-the-fine-block": lambda: solved_winsor(0.1, 1e-3),
    # contacts at -7.95e-259 and 1.26e258: |gamma| u^2 in psi's slack
    # reaches 3.8e262, formed without u^2, which overflows
    "winsor-600-1-span-1e259": lambda: solved_winsor(600.0, 1.0),
    # c = 0: no zero prefix, and F = 1 everywhere
    "winsor-1-1-at-c-0": lambda: (solved_winsor(1.0, 1.0)[0], MomentKind.WINSOR, 0.0),
    # every gap is above EQUALITY_RTOL, the least (1.0047) at x = 0.5508,
    # where F = e^{3x} is large and psi far above its value at the declared
    # contacts: the points that psi's witnesses skipped are evaluated too
    "worst-above-tolerance": lambda: (
        from_coefficients(-0.5, 1.8, -1.7, (-1.5, 0.42)), MomentKind.TRUNC, 3.0
    ),
    # c < 0: F > 1 and falling on x < 0; G = 1 + x/100 - 100x^2 rises
    # above F = e^{-2x} only near x = 0.01
    "c-minus-2": lambda: (
        from_coefficients(1.0, 0.01, -100.0, (-1.0, 1.0)), MomentKind.WINSOR, -2.0
    ),
}


# exp is exactly 0.0 below about -745.13 (half the least subnormal)
EXP_ZERO_BELOW = -746.0


def block_kinds(minorant, kind, c):
    """The kinds of _BLOCK-point span block this minorant's grid holds, read
    from np.linspace's points, and "fine-block tie" where the worst gap of
    the windows and points, in piece order, comes first at an x that is not
    the least of its ties."""
    kinds = set()
    (start, stop, num), *fine = certificates._grid_pieces(minorant)
    points = np.linspace(start, stop, num)
    for first in range(0, num, certificates._BLOCK):
        x = points[first : first + certificates._BLOCK]
        if x[0] >= 1.0:
            kinds.add("x >= 1")
            continue
        zero = c * x < EXP_ZERO_BELOW
        if zero.all():
            kinds.add("exact zero")
        elif zero.any():
            kinds.add("split by the cutoff")
        if np.any((c * x > -745.13) & (c * x < -708.0)):
            kinds.add("subnormal band")
        if x[0] < 0.0 <= x[-1]:
            kinds.add("across 0" if c >= 0.0 else "across 0 at c < 0")
        if x[0] < 1.0 <= x[-1]:
            kinds.add("across 1")
        if x[0] < 0.0 and 1.0 <= x[-1]:
            kinds.add("across 0 and 1")
    x = np.concatenate([np.linspace(*piece) for piece in fine])
    f_values = certificates.capped_exp(kind, c, x)
    gap = (f_values - minorant(x)) / np.maximum(1.0, f_values)
    if x[np.argmin(gap)] != x[gap == np.min(gap)].min():
        kinds.add("fine-block tie")
    return kinds


def test_reference_cases_reach_every_kind_of_block():
    reached = set()
    for make in REFERENCE_CASES.values():
        reached |= block_kinds(*make())
    assert reached == {
        "x >= 1", "exact zero", "split by the cutoff", "subnormal band", "across 0", "across 1",
        "across 0 and 1", "across 0 at c < 0", "fine-block tie",
    }


@pytest.mark.parametrize("case", REFERENCE_CASES)
def test_blockwise_check_matches_sorted_grid_reference(case):
    # walking the unsorted pieces in blocks reports, bit for bit, what argmin
    # over the sorted, unique grid reports
    minorant, kind, c = REFERENCE_CASES[case]()
    report = certificates.check_certificate(minorant, kind, c)
    passed, worst_gap, worst_x, localized = reference_check(minorant, kind, c)
    assert repr(report.worst_gap) == repr(worst_gap)
    assert repr(report.worst_x) == repr(worst_x)
    assert report.passed is passed
    assert report.equality_localized is localized
    assert report.n_points >= certificates.certificate_grid(minorant).size


def verify_grid_case(c, sigma, kind):
    """(minorant, kind, c) as verify's certificate suite builds it, and the
    truncated branch (None for the Winsorized kind)."""
    solve = winsor.lower_bound_fixed_c if kind is MomentKind.WINSOR else trunc.lower_bound_trunc
    result = solve(BoundQuery(c, sigma))
    return (certificates.minorant(result), kind, c), result.branch


@pytest.mark.parametrize("kind", list(MomentKind))
def test_walk_matches_sorted_grid_reference_on_the_verify_grid(kind):
    # every 7th (c, sigma) pair of verify's grid, row by row, so that each
    # tilt meets a different part of the sigma range
    pairs = list(itertools.product(verify.C_GRID, verify.SIGMA_GRID))[::7]
    branches = set()
    for c, sigma in pairs:
        case, branch = verify_grid_case(c, sigma, kind)
        branches.add(branch)
        report = certificates.check_certificate(*case)
        walked = (report.passed, report.worst_gap, report.worst_x, report.equality_localized)
        assert repr(walked) == repr(reference_check(*case)), (c, sigma)
    assert branches == ({None} if kind is MomentKind.WINSOR else set(trunc.Branch))


# at winsor-0.5-0.2 the span's last point index*step + start is not stop
@pytest.mark.parametrize("case", ["winsor-0.5-0.2", "winsor-5-30", "trunc-large"])
def test_walked_points_are_the_linspace_points(case):
    # the fine pieces go first, then the span; each run is rebuilt in place
    # as index*step + start with the last point set to stop: bit for bit
    # the points of np.linspace.  Recording overrides __call__, so no point
    # is skipped.
    minorant, kind, c = REFERENCE_CASES[case]()
    recording = from_coefficients(0.0, 1.0, -1.0, minorant.contact_points, cls=Recording)
    Recording.seen = []
    certificates.check_certificate(recording, kind, c)
    walked = np.concatenate(Recording.seen)
    span, *fine = certificates._grid_pieces(minorant)
    linspace = np.concatenate([np.linspace(*piece) for piece in (*fine, span)])
    assert bits(walked) == bits(linspace)


def record_runs(monkeypatch):
    """A list that gets (start, stop, num, first, points) for every run of
    a piece's points that check_certificate forms with _linspace_into."""
    runs = []
    build = certificates._linspace_into

    def recorded(out, start, stop, num, first=0):
        build(out, start, stop, num, first)
        runs.append((start, stop, num, first, out.copy()))

    monkeypatch.setattr(certificates, "_linspace_into", recorded)
    return runs


def evaluated_points(monkeypatch, minorant, kind, c):
    """The check's report and, for each piece of _grid_pieces, the mask of
    the points it evaluated; each run's points are np.linspace's bits."""
    runs = record_runs(monkeypatch)
    report = certificates.check_certificate(minorant, kind, c)
    monkeypatch.undo()
    masks = {piece: np.zeros(piece[2], dtype=bool) for piece in certificates._grid_pieces(minorant)}
    for start, stop, num, first, points in runs:
        assert bits(points) == bits(np.linspace(start, stop, num)[first : first + points.size])
        masks[start, stop, num][first : first + points.size] = True
    return report, masks


def assert_skips_are_sound(monkeypatch, minorant, kind, c):
    """Every grid point the check did not evaluate, evaluated here over the
    full np.linspace pieces, has a gap above EQUALITY_RTOL and above the
    report's worst gap (a NaN gap is neither).  Returns (skipped, total)."""
    report, masks = evaluated_points(monkeypatch, minorant, kind, c)
    floor = max(certificates.EQUALITY_RTOL, report.worst_gap)  # EQUALITY_RTOL where NaN
    skipped = total = 0
    for piece, mask in masks.items():
        x = np.linspace(*piece)[~mask]
        with np.errstate(under="ignore", over="ignore", invalid="ignore"):
            f_values = certificates.capped_exp(kind, c, x)
            gap = (f_values - minorant(x)) / np.maximum(1.0, f_values)
        assert np.all(gap > floor), (piece, x[np.argmin(gap)], gap.min())
        skipped, total = skipped + x.size, total + piece[2]
    return skipped, total


def test_skipped_blocks_are_bounded_on_the_reference_cases(monkeypatch):
    skipped = 0
    for make in REFERENCE_CASES.values():
        skipped += assert_skips_are_sound(monkeypatch, *make())[0]
    assert skipped > 0


@pytest.mark.parametrize("kind", list(MomentKind))
def test_skipped_blocks_are_bounded_on_the_verify_grid(kind, monkeypatch):
    pairs = list(itertools.product(verify.C_GRID, verify.SIGMA_GRID))[::7]
    skipped = total = 0
    for c, sigma in pairs:
        counts = assert_skips_are_sound(monkeypatch, *verify_grid_case(c, sigma, kind)[0])
        skipped, total = skipped + counts[0], total + counts[1]
    # the witnesses leave a few hundred points per check of about 106,000
    assert skipped > 0.98 * total


@pytest.mark.parametrize(
    "c, sigma, kind",
    [(10.0, 1e6, MomentKind.WINSOR), (10.0, 1e6, MomentKind.TRUNC),
     (5.0, 1e6, MomentKind.WINSOR), (10.0, 587801.6072274924, MomentKind.WINSOR)],
)
def test_near_overflow_spans_of_the_verify_grid(c, sigma, kind, monkeypatch):
    # spans of 2e12 to 5.4e12, where |gamma| u^2 in psi's slack reaches 3e25
    (minorant, kind, c), _ = verify_grid_case(c, sigma, kind)
    assert certificates._grid_pieces(minorant)[0][1] > 1.9e12
    assert assert_skips_are_sound(monkeypatch, minorant, kind, c)[0] > 0


OVERFLOW_CASES = {
    # a span of 1e201: |gamma| u^2 overflows, so psi is -inf on most of it
    "u-squared-overflows": lambda: (
        from_coefficients(0.0, 1.0, -1e-6, (-1.0, 1e200)), MomentKind.WINSOR, 1.0
    ),
    # F(1) = e^c overflows: psi is inf from x = 709/c on, and the gaps
    # there are NaN
    "exp-c-overflows": lambda: (solved_winsor(1.0, 1.0)[0], MomentKind.WINSOR, 710.0),
    # c < 0 over a span of 1e4: F = e^{-2x} overflows from x = -354.9 down
    "f-overflows-at-c-minus-2": lambda: (
        from_coefficients(1.0, 0.01, -100.0, (-1.0, 1000.0)), MomentKind.WINSOR, -2.0
    ),
}


@pytest.mark.parametrize("case", OVERFLOW_CASES)
def test_blocks_without_a_finite_floor_are_walked(case, monkeypatch):
    # where psi or F is not finite no witness is found, so those points are
    # evaluated, and the report is the sorted grid's
    minorant, kind, c = OVERFLOW_CASES[case]()
    assert_skips_are_sound(monkeypatch, minorant, kind, c)
    report = certificates.check_certificate(minorant, kind, c)
    with np.errstate(under="ignore", over="ignore", invalid="ignore"):
        expected = reference_check(minorant, kind, c)
    walked = (report.passed, report.worst_gap, report.worst_x, report.equality_localized)
    assert repr(walked) == repr(expected)


@pytest.mark.parametrize("case", ["exp-c-overflows", "f-overflows-at-c-minus-2"])
def test_overflowing_f_gets_a_report_under_warnings_as_errors(case):
    # an F of inf makes the gap inf/inf = NaN: that is reported as data (a
    # failed report with a NaN worst gap at the least such x), not raised
    minorant, kind, c = OVERFLOW_CASES[case]()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = certificates.check_certificate(minorant, kind, c)
    with np.errstate(under="ignore", over="ignore", invalid="ignore"):
        expected = reference_check(minorant, kind, c)
    assert not report.passed and math.isnan(report.worst_gap)
    walked = (report.passed, report.worst_gap, report.worst_x, report.equality_localized)
    assert repr(walked) == repr(expected)


def seeded_bounds(n, seed=37):
    """n seeded (result, kind) pairs, alternating kinds, log-uniform over
    c in [0.05, 30] and sigma in [1e-3, 1e6]: past verify's tilts."""
    rng = random.Random(seed)
    for i in range(n):
        c = math.exp(rng.uniform(math.log(0.05), math.log(30.0)))
        sigma = math.exp(rng.uniform(math.log(1e-3), math.log(1e6)))
        if i % 2:
            yield trunc.lower_bound_trunc(BoundQuery(c, sigma)), MomentKind.TRUNC
        else:
            yield winsor.lower_bound_fixed_c(BoundQuery(c, sigma)), MomentKind.WINSOR


def test_check_matches_sorted_grid_reference_past_the_verify_box():
    outside = 0
    for result, kind in seeded_bounds(40):
        case = certificates.minorant(result), kind, result.tilt
        outside += not 0.1 <= result.tilt <= 10.0
        report = certificates.check_certificate(*case)
        walked = (report.passed, report.worst_gap, report.worst_x, report.equality_localized)
        with np.errstate(under="ignore"):
            assert repr(walked) == repr(reference_check(*case)), result
    assert outside >= 10


def test_negative_controls_fail_with_their_bits(monkeypatch):
    # verify's negative control (beta shrunk by 10% about the lower contact)
    # and beta-times-0.9 (about 0) fail at the gaps and points they failed
    # at when every point was evaluated, while most points are skipped
    a = fixed_root(1.0, 1.0)
    good = solved_winsor(1.0, 1.0)[0]
    control = QuadraticMinorant(
        contact_points=good.contact_points,
        lower_value=good.lower_value + 0.1 * good.beta * a,
        lower_slope=good.lower_slope - 0.1 * good.beta,
        gamma=good.gamma,
    )
    cases = [
        (control, "-0x1.4635abc2de9c0p-6"),
        (REFERENCE_CASES["beta-times-0.9"]()[0], "-0x1.4635abc2de9a0p-6"),
    ]
    for minorant, worst_gap in cases:
        report, masks = evaluated_points(monkeypatch, minorant, MomentKind.WINSOR, 1.0)
        assert not report.passed and report.equality_localized
        assert report.worst_gap.hex() == worst_gap
        assert report.worst_x.hex() == "-0x1.349a8e2b51f80p-2"
        assert report.n_points == 106_007
        # 5,457 evaluated points each when the witnesses came in
        assert sum(int(mask.sum()) for mask in masks.values()) < 5_730


def test_certificate_suite_point_budget(monkeypatch):
    # A count, not a timing: one certificate suite evaluated 446,630 grid
    # points when psi's witnesses came to skip the points they prove clear
    # (10,649,802 before, when whole span blocks were bounded and skipped).
    # The ceiling is that count plus 5%; a change that needs more points is
    # a regression, not a new ceiling.
    runs = record_runs(monkeypatch)
    assert all(result.passed for result in verify.run_suite("certificates"))
    evaluated = sum(run[-1].size for run in runs)
    assert evaluated <= 468_961, f"{evaluated} points"


def test_certificate_suite_psi_budget(monkeypatch):
    # A count, not a timing: one certificate suite evaluated psi 7,429
    # times when its witnesses came in.  The ceiling is that count plus 5%.
    calls = []
    psi = certificates._psi

    def counted(*args):
        calls.append(args)
        return psi(*args)

    monkeypatch.setattr(certificates, "_psi", counted)
    assert all(result.passed for result in verify.run_suite("certificates"))
    assert len(calls) <= 7_800, f"{len(calls)} evaluations of psi"


def test_span_overflowing_g_passes_under_warnings_as_errors():
    # at c = 709, sigma = 1 the bound is 1.0 and b = 2.3e305: the span
    # reaches 2.3e306, where G's Horner step overflows to -inf, whose gap is
    # +inf; the check ignores that overflow and reports the lower contact
    a = fixed_root(709.0, 1.0)
    minorant = solved_winsor(709.0, 1.0)[0]
    assert certificates._grid_pieces(minorant)[0][1] > 2e306
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = certificates.check_certificate(minorant, MomentKind.WINSOR, 709.0)
    assert report.passed and report.equality_localized
    assert (report.worst_gap, report.worst_x) == (0.0, -a)


def test_exp_is_exactly_zero_below_the_cutoff():
    # F's absolute error where exp underflows is covered by psi's 1e-299
    # term: a numpy whose exp stops returning exactly 0.0 below the cutoff
    # fails here, not in a certificate
    cutoff = EXP_ZERO_BELOW
    below = np.concatenate((
        [cutoff, np.nextafter(cutoff, -np.inf)],
        np.linspace(2.0 * cutoff, cutoff, 100_001),
        -np.logspace(3.0, 308.0, 10_001),
        [-np.inf],
    ))
    with np.errstate(under="ignore"):
        assert np.all(np.exp(below) == 0.0)
        assert np.exp(cutoff) == 0.0
        # the margin: the least subnormal is still returned just above -745.13
        assert np.exp(-745.13) > 0.0


def test_exp_gives_the_same_bits_alone_and_at_any_offset_of_a_block():
    # the check evaluates the windows and points in one block, and the
    # references here both contacts in one array and F(1) alone: each must
    # get the bits a value gets wherever it sits; a numpy whose vector and
    # scalar exp differ fails here, not in a certificate
    values = np.concatenate((
        np.linspace(-745.2, -708.0, 24),  # 0.0, then the subnormal band
        np.linspace(-700.0, 700.0, 24),   # normal results
        np.linspace(709.5, 710.5, 16),    # the last normals, then inf
    ))
    block = certificates._BLOCK
    with np.errstate(under="ignore", over="ignore"):
        alone = [bits(np.exp(np.float64(v))) for v in values]
        assert alone == [bits(np.exp(values[i : i + 1])) for i in range(values.size)]
        assert [bits(np.exp(values[i : i + 2])) for i in range(0, values.size, 2)] == [
            a + b for a, b in zip(alone[::2], alone[1::2])
        ]
        for shift in range(values.size):
            # the value at each offset takes every value once over the shifts
            at = (np.arange(block) + shift) % values.size
            assert bits(np.exp(values[at])) == b"".join(alone[i] for i in at), shift


def bits(values):
    return np.asarray(values, dtype=float).tobytes()


def f_by_formula(kind, c, x):
    """F as one numpy expression, the form capped_exp must reproduce."""
    with np.errstate(under="ignore"):
        if kind is MomentKind.WINSOR:
            return np.exp(c * np.minimum(x, 1.0))
        return np.exp(np.where(x < 1.0, c * x, 0.0))


OUT_CASES = {
    "grid": lambda: np.linspace(-800.0, 3.0, 5_001),
    "scalar": lambda: np.asarray(0.5),
}


@pytest.mark.parametrize("kind", list(MomentKind))
@pytest.mark.parametrize("points", OUT_CASES)
def test_capped_exp_out_gives_the_allocating_bits(kind, points):
    x = OUT_CASES[points]()
    out = np.full(x.shape, np.nan)
    expected = bits(f_by_formula(kind, 2.0, x))
    assert bits(certificates.capped_exp(kind, 2.0, x)) == expected
    assert bits(certificates.capped_exp(kind, 2.0, x, out=out)) == expected
    assert bits(out) == expected


@pytest.mark.parametrize("kind", list(MomentKind))
def test_capped_exp_out_with_broadcast_tilts(kind):
    # probe_moments' shapes: tilts (n, 1) against supports (n, 3)
    probe = oracle.sample_three_point(2.0, 500, seed=3)
    c = probe.tilts[:, None]
    out = np.empty(probe.support.shape)
    certificates.capped_exp(kind, c, probe.support, out=out)
    expected = bits(f_by_formula(kind, c, probe.support))
    assert bits(certificates.capped_exp(kind, c, probe.support)) == expected
    assert bits(out) == expected


def test_minorant_out_gives_the_allocating_bits():
    minorant = solved_winsor(600.0, 1.0)[0]
    x = np.linspace(-1e259, 1e259, 5_001)
    out = np.full(x.shape, np.nan)
    u = x - minorant.contact_points[0]
    expected = bits(minorant.lower_value + u * (minorant.lower_slope + minorant.gamma * u))
    assert bits(minorant(x)) == expected
    assert bits(minorant(x, out=out)) == expected
    assert bits(out) == expected
    assert type(minorant(0.5)) is np.float64
