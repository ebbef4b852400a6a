"""Every public entry point rejects a non-positive or non-finite argument,
a value that is no real, or an unknown name, with a ParameterError that
names the argument; valid input is never answered with one."""

import math
import random
import re
import sys
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from winsor_bounds import (
    asymptotics, certificates, cli, errors, law, oracle, roots, trunc, verify, winsor,
)
from winsor_bounds.asymptotics import Regime
from winsor_bounds.certificates import MomentKind
from winsor_bounds.errors import (
    ExponentOverflowError, NoSignChangeError, ParameterError, WinsorBoundsError,
)
from winsor_bounds.sweeps import SweepKind, compute_sweep, sigma_grid
from winsor_bounds.winsor import BoundQuery

# non-positive or non-finite reals, then values that are no real (a str,
# None, a complex) and an int past the doubles
BAD = (0.0, -1.0, math.nan, math.inf, "1", None, 1j, 10**400)


def bad_id(value):
    return "int-past-the-doubles" if isinstance(value, int) else repr(value)


# A Bound of each minorant's kind: fixed-tilt Winsorized, and truncated on
# the small-sigma and on the large-sigma branch.  A Bound the package
# returns always has a > 0 and tilt > 0; one made by hand is checked, so
# a = -1.0 does not divide by a + b = 0.0.
WINSOR_BOUND = winsor.lower_bound_fixed_c(BoundQuery(1.0, 1.0))
TRUNC_SMALL_SIGMA, TRUNC_LARGE_SIGMA = 0.3, 2.0
TRUNC_SMALL_BOUND = trunc.lower_bound_trunc(BoundQuery(1.0, TRUNC_SMALL_SIGMA))
TRUNC_LARGE_BOUND = trunc.lower_bound_trunc(BoundQuery(1.0, TRUNC_LARGE_SIGMA))


def minorant_of(solve, sigma):
    """A minorant of solve's kind at tilt v, built from the Bound solve gives."""
    return lambda v: law.minorant(solve(BoundQuery(v, sigma)))


# (entry point, argument name, call with the argument set to v); the
# support maps b_star, log_b_star and B_star accept a = 0 and are listed
# for a separately below.  The minorant of each kind is refused a bad a in
# a Bound made by hand, and a bad tilt c in the query that makes its Bound.
ENTRY_POINTS = [
    ("BoundQuery", "c", lambda v: BoundQuery(v, 1.0)),
    ("BoundQuery", "sigma", lambda v: BoundQuery(1.0, v)),
    ("BoundQuery", "cut", lambda v: BoundQuery(1.0, 1.0, v)),
    ("b_star", "c", lambda v: winsor.b_star(1.0, v)),
    ("log_b_star", "c", lambda v: winsor.log_b_star(1.0, v)),
    ("B_star", "c", lambda v: trunc.B_star(1.0, v)),
    ("log_B_star", "a", lambda v: trunc.log_B_star(v, 1.0)),
    ("log_B_star", "c", lambda v: trunc.log_B_star(1.0, v)),
    ("lower_bound_fixed_c", "c", lambda v: winsor.lower_bound_fixed_c(BoundQuery(v, 1.0))),
    ("lower_bound_fixed_c", "sigma", lambda v: winsor.lower_bound_fixed_c(BoundQuery(1.0, v))),
    ("lower_bound_fixed_c", "cut",
     lambda v: winsor.lower_bound_fixed_c(BoundQuery(1.0, 1.0, v))),
    ("optimal_c_for_two_point", "a", lambda v: winsor.optimal_c_for_two_point(v, 1.0)),
    ("optimal_c_for_two_point", "sigma", lambda v: winsor.optimal_c_for_two_point(0.5, v)),
    ("lower_bound_universal", "sigma", lambda v: winsor.lower_bound_universal(v)),
    ("lower_bound_universal", "cut", lambda v: winsor.lower_bound_universal(1.0, v)),
    ("solve_A_c", "c", lambda v: trunc.solve_A_c(v)),
    ("lower_bound_trunc", "c", lambda v: trunc.lower_bound_trunc(BoundQuery(v, 1.0))),
    ("lower_bound_trunc", "sigma", lambda v: trunc.lower_bound_trunc(BoundQuery(1.0, v))),
    ("lower_bound_trunc", "cut", lambda v: trunc.lower_bound_trunc(BoundQuery(1.0, 1.0, v))),
    ("f_of_t", "t", lambda v: asymptotics.f_of_t(v)),
    ("winsor_small_sigma_slope", "c", lambda v: asymptotics.winsor_small_sigma_slope(v)),
    ("winsor_large_sigma_coeff", "c", lambda v: asymptotics.winsor_large_sigma_coeff(v)),
    ("trunc_asymptote", "c", lambda v: asymptotics.trunc_asymptote(v, 1.0, Regime.SMALL_SIGMA)),
    ("trunc_asymptote", "sigma", lambda v: asymptotics.trunc_asymptote(1.0, v, Regime.SMALL_SIGMA)),
    ("universal_asymptote", "sigma",
     lambda v: asymptotics.universal_asymptote(v, Regime.LARGE_SIGMA)),
    ("winsor_minorant", "a", lambda v: law.minorant(WINSOR_BOUND._replace(a=v))),
    ("winsor_minorant", "c", minorant_of(winsor.lower_bound_fixed_c, 1.0)),
    ("trunc_minorant_small", "a",
     lambda v: law.minorant(TRUNC_SMALL_BOUND._replace(a=v))),
    ("trunc_minorant_small", "c", minorant_of(trunc.lower_bound_trunc, TRUNC_SMALL_SIGMA)),
    ("trunc_minorant_large", "a",
     lambda v: law.minorant(TRUNC_LARGE_BOUND._replace(a=v))),
    ("trunc_minorant_large", "c", minorant_of(trunc.lower_bound_trunc, TRUNC_LARGE_SIGMA)),
    ("minorant", "result", lambda v: law.minorant(v)),
    ("minorant", "tilt", lambda v: law.minorant(WINSOR_BOUND._replace(tilt=v))),
    ("trunc_collapse_sequence", "sigma", lambda v: oracle.trunc_collapse_sequence(v, (0.5,))),
    ("refine_grid_min", "c", lambda v: oracle.refine_grid_min(v, 1.0, MomentKind.WINSOR)),
    ("refine_grid_min", "sigma", lambda v: oracle.refine_grid_min(1.0, v, MomentKind.TRUNC)),
    ("universal_grid_min", "sigma", lambda v: oracle.universal_grid_min(v)),
    ("lp_min", "c", lambda v: oracle.lp_min(MomentKind.TRUNC, v, 1.0)),
    ("lp_min", "sigma", lambda v: oracle.lp_min(MomentKind.WINSOR, 1.0, v)),
    ("_solve", "start", lambda v: roots._solve(lambda x: (x - 1.0, x, None), v, 2.0)),
    ("compute_sweep", "c", lambda v: compute_sweep(SweepKind.FIXED_C_WINSOR, (1.0,), (v,))),
    ("compute_sweep", "sigma", lambda v: compute_sweep(SweepKind.TRUNC, (v,), (1.0,))),
    ("compute_sweep", "cut", lambda v: compute_sweep(SweepKind.UNIVERSAL_WINSOR, (1.0,), (), v)),
]

# (entry point, argument name, call with the argument set to v, v): the
# integer arguments, each refused below its least value or when not an integer
INTEGER_ARGUMENTS = [
    *(("run_suite", "seed", lambda v: verify.run_suite("all", v), v)
      for v in (-1, 1.5, math.nan)),
    *(("sigma_grid", "points", lambda v: sigma_grid(0.1, 10.0, v), v)
      for v in (1, -1, 3.0, math.nan, "3")),
]

# sigma_grid's ends: (argument name, call with it set to v).  Reals out of
# order, or not positive and finite, are refused together; an end that is
# no real is refused by name, and so is a largest end past the doubles.
SIGMA_GRID_ENDS = [
    ("sigma_min", lambda v: sigma_grid(v, 10.0, 5)),
    ("sigma_max", lambda v: sigma_grid(0.1, v, 5)),
]
SIGMA_GRID_REFUSED_BY_NAME = [
    *((name, call, value) for name, call in SIGMA_GRID_ENDS for value in BAD[4:7]),
    ("sigma_max", SIGMA_GRID_ENDS[1][1], 10**400),
]

SUPPORT_MAPS = [
    ("b_star", winsor.b_star),
    ("log_b_star", winsor.log_b_star),
    ("B_star", trunc.B_star),
]


@pytest.mark.parametrize("value", BAD, ids=bad_id)
@pytest.mark.parametrize(
    "entry, name, call", ENTRY_POINTS, ids=[f"{e}-{n}" for e, n, _ in ENTRY_POINTS]
)
def test_rejects_bad_argument_by_name(entry, name, call, value):
    with pytest.raises(ParameterError, match=rf"^{re.escape(name)} must"):
        call(value)


def test_minorant_rows_reach_each_truncated_branch():
    assert TRUNC_SMALL_BOUND.branch is trunc.Branch.SMALL_SIGMA
    assert TRUNC_LARGE_BOUND.branch is trunc.Branch.LARGE_SIGMA


@pytest.mark.parametrize("bound", (TRUNC_SMALL_BOUND, TRUNC_LARGE_BOUND), ids=("small", "large"))
def test_minorant_reads_a_branch_given_by_its_value_and_refuses_others(bound):
    # Branch is a str Enum: "small-sigma" == Branch.SMALL_SIGMA, but only a
    # normalized branch selects the cut contact rather than the tangent at B_star
    assert repr(law.minorant(bound._replace(branch=bound.branch.value))) == repr(
        law.minorant(bound)
    )
    for value in ("bogus", "", 1.0):
        with pytest.raises(
            ParameterError, match=rf"^branch must be one of small-sigma, large-sigma; got {value!r}"
        ):
            law.minorant(bound._replace(branch=value))


# A Bound whose branch does not fit its kind: a truncated one without its
# branch took the Winsorized support map, contacts (-1.187, 14.63) for
# (-1.187, 3.369), and a fixed-tilt one given a branch the cut as its contact
MISMATCHED_BRANCHES = {
    "trunc-without-branch": (TRUNC_LARGE_BOUND._replace(branch=None), None, "trunc"),
    "winsor-with-branch": (WINSOR_BOUND._replace(branch="small-sigma"), "small-sigma",
                           "fixed-winsor"),
}


@pytest.mark.parametrize("bound, branch, kind", MISMATCHED_BRANCHES.values(),
                         ids=list(MISMATCHED_BRANCHES))
def test_minorant_refuses_a_branch_that_does_not_fit_the_kind(bound, branch, kind):
    with pytest.raises(ParameterError) as raised:
        law.minorant(bound)
    assert str(raised.value) == f"branch {branch!r} does not fit kind {kind!r}"


def test_minorant_refuses_the_fields_of_a_bound_without_its_type():
    fields = tuple(winsor.lower_bound_fixed_c(BoundQuery(1.0, 1.0)))
    with pytest.raises(ParameterError, match=r"^result must be a Bound, got \("):
        law.minorant(fields)


@pytest.mark.parametrize("value", BAD, ids=bad_id)
@pytest.mark.parametrize("name", ("c", "sigma", "cut"))
def test_query_validation(name, value):
    # _replace checks the field it replaces as the constructor does
    with pytest.raises(ParameterError, match=rf"^{name} must be a positive real"):
        BoundQuery(1.0, 1.0)._replace(**{name: value})


# The NumPy layer's records, each a named tuple: (record, a keyword
# construction in field order, its defaults)
RECORDS = [
    (law.QuadraticMinorant,
     dict(contact_points=(-1.0, 2.0), lower_value=1.0, lower_slope=2.0, gamma=-0.5), {}),
    (certificates.CertificateReport,
     dict(passed=True, worst_gap=0.0, worst_x=2.0, equality_localized=True, n_points=106_008,
          contact_gaps={-1.0: (0.0, 0.0), 2.0: (0.0, 0.0)}), {}),
    (oracle.GridMinResult,
     dict(argmin_a=0.5, argmin_c=1.0, min_value=0.9, cell_ratio=1.001, cell_ratio_c=1.02),
     {"cell_ratio_c": None}),
    (oracle.LPResult,
     dict(value=0.9, support=(-1.0, 0.0, 1.0), weights=(0.5, 0.0, 0.5), alpha=1.0, beta=0.5,
          gamma=-0.1, pivots=3), {}),
    (oracle.CollapsePoint, dict(a=0.5, c=4.0, moment=0.3), {}),
]


@pytest.mark.parametrize(
    "record, fields, defaults", RECORDS, ids=[record.__name__ for record, _, _ in RECORDS]
)
def test_records_keep_their_fields_in_order(record, fields, defaults):
    assert issubclass(record, tuple) and record._fields == tuple(fields)
    assert all(got is value for got, value in zip(record(**fields), fields.values()))
    assert record._field_defaults == defaults
    short = record(**{name: value for name, value in fields.items() if name not in defaults})
    assert all(getattr(short, name) is value for name, value in defaults.items())


# A minorant needs beta = G'(0) > 0 > gamma however it is made: (lower_slope,
# gamma, beta) at the lower contact x_lo = -1, where beta = lower_slope + 2 gamma
BAD_MINORANT_COEFFICIENTS = [
    (1.0, -0.5, 0.0), (0.0, -0.5, -1.0), (1.0, 0.0, 1.0), (1.0, 0.5, 2.0),
    (1.0, math.nan, math.nan), (math.nan, -0.5, math.nan),
]
MINORANT_BUILDS = {
    "direct": lambda slope, gamma: law.QuadraticMinorant(
        contact_points=(-1.0, 2.0), lower_value=1.0, lower_slope=slope, gamma=gamma
    ),
    "_make": lambda slope, gamma: law.QuadraticMinorant._make(
        ((-1.0, 2.0), 1.0, slope, gamma)
    ),
    "_replace": lambda slope, gamma: law.QuadraticMinorant(
        (-1.0, 2.0), 1.0, 2.0, -0.5
    )._replace(lower_slope=slope, gamma=gamma),
}


@pytest.mark.parametrize("build", MINORANT_BUILDS.values(), ids=list(MINORANT_BUILDS))
@pytest.mark.parametrize(
    "slope, gamma, beta", BAD_MINORANT_COEFFICIENTS,
    ids=[f"slope={s!r}-gamma={g!r}" for s, g, _ in BAD_MINORANT_COEFFICIENTS],
)
def test_minorant_needs_beta_above_zero_above_gamma(build, slope, gamma, beta):
    with pytest.raises(ParameterError) as raised:
        build(slope, gamma)
    assert str(raised.value) == (
        f"minorant requires beta > 0 > gamma, got beta={beta!r}, gamma={gamma!r}"
    )


@pytest.mark.parametrize(
    "entry, name, call, value", INTEGER_ARGUMENTS,
    ids=[f"{e}-{n}-{v!r}" for e, n, _, v in INTEGER_ARGUMENTS],
)
def test_rejects_bad_integer_argument_by_name(entry, name, call, value):
    with pytest.raises(ParameterError, match=rf"^{re.escape(name)} must be an integer >= "):
        call(value)


@pytest.mark.parametrize(
    "name, call, value", SIGMA_GRID_REFUSED_BY_NAME,
    ids=[f"{n}-{bad_id(v)}" for n, _, v in SIGMA_GRID_REFUSED_BY_NAME],
)
def test_sigma_grid_rejects_an_end_that_is_no_real_by_name(name, call, value):
    with pytest.raises(ParameterError, match=rf"^{name} must be a positive real"):
        call(value)


@pytest.mark.parametrize("value", BAD[:4], ids=bad_id)
@pytest.mark.parametrize("name, call", SIGMA_GRID_ENDS, ids=[n for n, _ in SIGMA_GRID_ENDS])
def test_sigma_grid_rejects_real_ends_out_of_range_together(name, call, value):
    with pytest.raises(ParameterError, match=r"^need 0 < sigma_min < sigma_max, got \["):
        call(value)


# Reals of other types, each exactly the float it is listed with
SAME_REALS = [
    (2.0, (2, Fraction(2), Decimal("2"), np.float32(2.0))),
    (0.5, (Fraction(1, 2), Decimal("0.5"), np.float32(0.5))),
]


def outcome(call, value):
    """The repr of what call(value) answers, or the class and message it raises."""
    try:
        return repr(call(value))
    except WinsorBoundsError as exc:
        return f"{type(exc).__name__}: {exc}"


# the entries whose argument is a real: minorant's own rows set a Bound or
# a field of one
REAL_ENTRY_POINTS = [entry for entry in ENTRY_POINTS if entry[0] != "minorant"]


@pytest.mark.parametrize(
    "entry, name, call", REAL_ENTRY_POINTS, ids=[f"{e}-{n}" for e, n, _ in REAL_ENTRY_POINTS]
)
def test_reals_of_other_types_answer_as_their_float(entry, name, call):
    # every entry computes with the Python float require_positive returns:
    # a Decimal or Fraction would raise a bare TypeError in the arithmetic,
    # and a float32 would compute in single precision.  The repr holds every
    # bit of a float and names a NumPy scalar's type.
    for exact, values in SAME_REALS:
        expected = outcome(call, exact)
        for value in values:
            assert outcome(call, value) == expected, value


def test_float32_queries_answer_in_double_precision():
    # computed in single precision, the truncated bound came back as a
    # float32, and the fixed-tilt bound came out 6.6e-10 off or did not converge
    for query in (BoundQuery(1.5, np.float32(2.0)), BoundQuery(np.float32(1.5), 2.0)):
        assert all(type(field) is float for field in query)
        for solve in (winsor.lower_bound_fixed_c, trunc.lower_bound_trunc):
            assert repr(solve(query)) == repr(solve(BoundQuery(1.5, 2.0)))


@pytest.mark.parametrize("seed", (0, np.int64(3)), ids=repr)
def test_run_suite_accepts_integer_seeds(seed):
    # the seed selects nothing, but an integer of any type is accepted
    assert repr(verify.run_suite("roots", seed)) == repr(verify.run_suite("roots", 1))


@pytest.mark.parametrize("value", BAD[1:], ids=bad_id)
@pytest.mark.parametrize("entry, fn", SUPPORT_MAPS, ids=[e for e, _ in SUPPORT_MAPS])
def test_support_maps_reject_bad_a_but_accept_zero(entry, fn, value):
    with pytest.raises(ParameterError, match=r"^a must"):
        fn(value, 1.0)
    assert math.isfinite(fn(0.0, 1.0))


@pytest.mark.parametrize("value", ("0", "-1", "nan", "inf"))
def test_cli_collapse_demo_rejects_bad_sigma(value, capsys):
    assert cli.main(["collapse-demo", "--sigma", value]) == cli.EXIT_VALIDATION
    assert capsys.readouterr().err.startswith("error: sigma must")


def test_unknown_verify_suite_names_the_valid_ones():
    with pytest.raises(ParameterError, match=r"^suite must be one of roots, .*, all; got 'bogus'"):
        verify.run_suite("bogus")
    # an unhashable name is refused the same way, not with a TypeError
    with pytest.raises(ParameterError, match=r"^suite must be one of roots, .*; got \['roots'\]"):
        verify.run_suite(["roots"])


@pytest.mark.parametrize("regime", list(Regime), ids=lambda regime: regime.value)
def test_regime_given_by_its_value(regime):
    # Regime is a str Enum: its value selects it, not the large-sigma law
    assert asymptotics.trunc_asymptote(1.0, 0.1, regime.value) == (
        asymptotics.trunc_asymptote(1.0, 0.1, regime)
    )
    assert asymptotics.universal_asymptote(0.5, regime.value) == (
        asymptotics.universal_asymptote(0.5, regime)
    )


# every public entry that takes a MomentKind, called with kind k
MOMENT_KIND_ENTRIES = {
    "capped_exp": lambda k: certificates.capped_exp(k, 1.0, np.linspace(-2.0, 3.0, 11)),
    "check_certificate": lambda k: certificates.check_certificate(
        law.minorant(winsor.lower_bound_fixed_c(BoundQuery(1.0, 1.0))), k, 1.0
    ),
    "check_certificates": lambda k: certificates.check_certificates(
        [(law.minorant(winsor.lower_bound_fixed_c(BoundQuery(1.0, 1.0))), k, 1.0)]
    ),
    "two_point_moment_grid": lambda k: oracle.two_point_moment_grid(
        k, 1.0, 1.0, np.array([0.25, 0.5, 2.0])
    ),
    "lp_min": lambda k: oracle.lp_min(k, 1.0, 1.0),
    "refine_grid_min": lambda k: oracle.refine_grid_min(1.0, 1.0, k),
}


@pytest.mark.parametrize("entry", MOMENT_KIND_ENTRIES)
@pytest.mark.parametrize("kind", list(MomentKind), ids=lambda kind: kind.value)
def test_moment_kind_given_by_its_value(entry, kind):
    # MomentKind is a str Enum: "winsor" == MomentKind.WINSOR, but only a
    # normalized kind selects the Winsorized moment rather than the truncated one
    call = MOMENT_KIND_ENTRIES[entry]
    by_value, by_member = call(kind.value), call(kind)
    if isinstance(by_member, np.ndarray):
        by_value, by_member = by_value.tobytes(), by_member.tobytes()
    assert repr(by_value) == repr(by_member)


@pytest.mark.parametrize(
    "name, choices, call",
    [("regime", Regime, lambda v: asymptotics.trunc_asymptote(1.0, 0.1, v)),
     ("regime", Regime, lambda v: asymptotics.universal_asymptote(1.0, v)),
     ("kind", SweepKind, lambda v: compute_sweep(v, (1.0,))),
     *(("kind", MomentKind, call) for call in MOMENT_KIND_ENTRIES.values())],
    ids=["trunc_asymptote", "universal_asymptote", "compute_sweep", *MOMENT_KIND_ENTRIES],
)
@pytest.mark.parametrize("value", ("bogus", None, 1.0), ids=repr)
def test_unknown_choice_names_the_valid_ones(name, choices, call, value):
    valid = ", ".join(choice.value for choice in choices)
    with pytest.raises(ParameterError, match=rf"^{name} must be one of {re.escape(valid)}; got "):
        call(value)


def test_exponential_edge_is_where_the_doubles_end():
    assert errors.LN_DBL_MAX == math.log(sys.float_info.max)
    assert errors.exp_or_inf(errors.LN_DBL_MAX) == math.exp(errors.LN_DBL_MAX) < math.inf
    past = math.nextafter(errors.LN_DBL_MAX, math.inf)
    with pytest.raises(OverflowError):
        math.exp(past)
    assert errors.exp_or_inf(past) == math.inf


# Valid input for which a positive quantity the answer needs leaves the
# doubles: (kind, c, sigma, cut, the quantity named in the message, its
# operands, the error).  sigma^2 underflowing is covered by
# test_underflowing_sigma_squared_exit_code in test_sweeps_cli.py.
RESULTS_OUT_OF_RANGE = [
    ("fixed-winsor", 1e200, 1.0, 1e200, "c*cut", (1e200, 1e200), ExponentOverflowError),
    ("fixed-winsor", 1e-200, 1e-200, 1e-200, "c*cut", (1e-200, 1e-200), NoSignChangeError),
    ("trunc", 1e-200, 1e-200, 1e-200, "c*cut", (1e-200, 1e-200), NoSignChangeError),
    ("fixed-winsor", 1.0, 1e-320, 1e10, "sigma/cut", (1e-320, 1e10), NoSignChangeError),
    ("universal-winsor", None, 1e300, 1e-10, "sigma/cut", (1e300, 1e-10), ExponentOverflowError),
    ("universal-winsor", None, 1e160, 1.0, "sigma^2", (1e160,), ExponentOverflowError),
    # b's operands are sigma^2 and the solved a; only sigma^2 is asserted
    ("trunc", 1.6e14, 1e150, 1.0, "b = sigma^2/a", (1e150 * 1e150,), ExponentOverflowError),
    ("fixed-winsor", 100.0, 1e-150, 1.0, "the root's seed", (100.0, 1e-150), NoSignChangeError),
    ("trunc", 5.080218046912991e24, 1e140, 1.0, "the truncated bound",
     (5.080218046912991e24, 1e140), NoSignChangeError),
    # the moment's exponential: its operands are c and the solved b; only c
    # is asserted.  Past ln DBL_MAX ~ 709.78, e^c overflows
    ("fixed-winsor", 709.9, 1.0, 1.0, "e^(c*min(1, b))", (709.9,), ExponentOverflowError),
]


# Named and identified as when the table held only cut rescaling rows, so
# the ids of those five rows stay stable.
@pytest.mark.parametrize(
    "kind, c, sigma, cut, quantity, operands, error", RESULTS_OUT_OF_RANGE,
    ids=[f"{k}-{c}-{s}-{cut}-{q}-{e.__name__}" for k, c, s, cut, q, _, e in RESULTS_OUT_OF_RANGE],
)
def test_cut_rescaling_outside_the_doubles_fails_in_the_solver(
    kind, c, sigma, cut, quantity, operands, error, capsys
):
    solve = {
        "fixed-winsor": lambda: winsor.lower_bound_fixed_c(BoundQuery(c, sigma, cut)),
        "trunc": lambda: trunc.lower_bound_trunc(BoundQuery(c, sigma, cut)),
        "universal-winsor": lambda: winsor.lower_bound_universal(sigma, cut),
    }[kind]
    with pytest.raises(error, match=rf"^{re.escape(quantity)} ") as raised:
        solve()
    assert f"(operands {', '.join(map(repr, operands))}" in str(raised.value)
    argv = ["bound", "--kind", kind, "--sigma", repr(sigma), "--cut", repr(cut)]
    if c is not None:
        argv += ["--c", repr(c)]
    assert cli.main(argv) == cli.EXIT_NO_CONVERGENCE
    err = capsys.readouterr().err
    assert err.startswith(f"error: {quantity} ")
    assert "Traceback" not in err


def log_uniform(lo, hi):
    return st.floats(min_value=math.log(lo), max_value=math.log(hi)).map(math.exp)


# Past c ~ 709.78 the fixed-tilt moment's e^c, and past sigma ~ 1.34e154 sigma^2,
# leave the double range: those calls must fail in the solver class (exit 3).
@given(c=log_uniform(1e-8, 1e300), sigma=log_uniform(1e-300, 1e300))
@example(c=370.0, sigma=1.0)  # the upper mass a/(a+b) underflows to 0
@example(c=1.0, sigma=1e-155)  # sigma^2 is subnormal
@example(c=1.5891577536909545e-07, sigma=2.172236753457656e-05)  # bound within an ulp of 1
@example(c=1.0, sigma=4.466835921509689e-162)  # a fallback bracket hit ln(0)
@example(c=1.0, sigma=2.2e-162)  # the universal seed underflows to 0.0
@example(c=1.0, sigma=1e160)  # sigma^2 overflows
@example(c=1.6e14, sigma=1e150)  # b = sigma^2/a overflows
@example(c=5.080218046912991e24, sigma=1e140)  # the truncated bound underflows to 0.0
@example(c=1e300, sigma=1e-140)  # the trunc root lies 200+ halvings below its seed
@example(c=1e-300, sigma=1e4)  # (2 expm1(ac) - ac)/c overflows while bracketing
@settings(max_examples=300, deadline=None)
def test_valid_domain_is_answered_or_fails_in_the_solver(c, sigma):
    query = BoundQuery(c, sigma)
    solves = (
        lambda: winsor.lower_bound_fixed_c(query),
        lambda: trunc.lower_bound_trunc(query),
        lambda: winsor.lower_bound_universal(sigma),
    )
    for solve in solves:
        try:
            bound = solve().bound
        except ParameterError:
            raise
        except WinsorBoundsError:
            continue  # a solver-class failure, not "invalid parameters"
        assert 0.0 < bound <= 1.0


def log_grid(lo, hi, n):
    return [float(x) for x in np.geomspace(lo, hi, n)]


# The failure maps of the supported domain: (bound call, grid, points that
# answer at least, failures by class).  Every failure is a solver-class
# error: the root or the bound lies outside the doubles.
OUTCOME_MAPS = {
    "fixed": (
        lambda c, sigma: winsor.lower_bound_fixed_c(BoundQuery(c, sigma)),
        [(c, s) for c in log_grid(1e-6, 700.0, 50) for s in log_grid(1e-100, 1e100, 201)],
        9901,
        {"NoSignChangeError": 132, "MaxIterationsError": 17},
    ),
    "wide": (
        lambda c, sigma: winsor.lower_bound_fixed_c(BoundQuery(c, sigma)),
        [(c, s) for c in log_grid(1e-300, 1e300, 61) for s in log_grid(1e-170, 1e154, 55)],
        1612,
        {"NoSignChangeError": 1712, "MaxIterationsError": 31},
    ),
    "trunc": (
        lambda c, sigma: trunc.lower_bound_trunc(BoundQuery(c, sigma)),
        [(c, s) for c in log_grid(1e-12, 1e300, 52) for s in log_grid(1e-170, 1e170, 69)],
        1891,
        {"NoSignChangeError": 769, "ExponentOverflowError": 928},
    ),
    "universal": (
        lambda c, sigma: winsor.lower_bound_universal(sigma),
        [(None, s) for s in log_grid(1e-300, 1e300, 601)],
        310,
        {"NoSignChangeError": 139, "MaxIterationsError": 6, "ExponentOverflowError": 146},
    ),
    # the fixed tilt across the edge of the doubles, ln DBL_MAX ~ 709.78: the
    # moment's e^c is answered up to it and overflows past it
    "band": (
        lambda c, sigma: winsor.lower_bound_fixed_c(BoundQuery(c, sigma)),
        [(c, s) for c in log_grid(700.0, 720.0, 81) for s in log_grid(1e-160, 1e10, 60)],
        215,
        {"NoSignChangeError": 4291, "MaxIterationsError": 159, "ExponentOverflowError": 195},
    ),
}


@pytest.mark.parametrize("kind", list(OUTCOME_MAPS))
def test_outcome_map(kind):
    solve, grid, answered_at_least, failures = OUTCOME_MAPS[kind]
    answered, failed = 0, {}
    for c, sigma in grid:
        try:
            bound = solve(c, sigma).bound
        except ParameterError:
            raise
        except WinsorBoundsError as exc:
            failed[type(exc).__name__] = failed.get(type(exc).__name__, 0) + 1
            continue
        assert 0.0 < bound <= 1.0, (c, sigma, bound)
        answered += 1
    assert answered >= answered_at_least
    assert failed == failures


# Each map's bound as the sweep kind whose lane solves it (see the lanes fixture)
LANE_KINDS = {
    "trunc": SweepKind.TRUNC,
    "universal": SweepKind.UNIVERSAL_WINSOR,
    **dict.fromkeys(("fixed", "wide", "band"), SweepKind.FIXED_C_WINSOR),
}
RANDOM_START_EVALUATIONS = 40  # measured worst case 26, over seeds 1, 2 and 3
RANDOM_START_RTOL = 2e-15  # measured worst case 6.5e-16, at normal bounds


@pytest.mark.parametrize("kind", list(OUTCOME_MAPS))
def test_random_starts_answer_as_the_seed(kind, solves, lanes):
    # At every answered point, one solve from a start log-uniform over
    # [smallest double, hi] answers in a bounded number of evaluations and
    # gives the seeded bound.  Roots are not compared: at flat points they
    # differ by more than the bounds do.
    lane, grid = lanes[LANE_KINDS[kind]], OUTCOME_MAPS[kind][1]
    rng = random.Random(1)
    for c, sigma in grid:
        del solves.equations[:], solves.points[:]
        try:
            _, _, _, seeded, branch = lane(c, sigma, None)
        except WinsorBoundsError:
            continue
        if branch is trunc.Branch.SMALL_SIGMA:  # a truncated bound that solves no root
            continue
        hi = solves.equations[-1][2]
        start = math.exp(rng.uniform(math.log(roots._TINY), math.log(hi)))
        del solves.points[:]
        bound = lane(c, sigma, start)[3]
        assert len(solves.points) <= RANDOM_START_EVALUATIONS, (c, sigma, start)
        if seeded >= sys.float_info.min:
            assert bound == pytest.approx(seeded, rel=RANDOM_START_RTOL, abs=0), (c, sigma, start)


@pytest.mark.parametrize("kind", list(OUTCOME_MAPS))
def test_random_starts_fail_as_the_seed(kind, solves, lanes):
    # At every failing point that reaches a solve, one solve from a start
    # log-uniform over [smallest double, hi] raises the seeded solve's class.
    # Messages are not compared: a refusal names the solved a, which moves
    # by ulps between starts.
    lane, grid = lanes[LANE_KINDS[kind]], OUTCOME_MAPS[kind][1]
    rng = random.Random(1)
    for c, sigma in grid:
        del solves.equations[:], solves.points[:]
        try:
            lane(c, sigma, None)
            continue
        except WinsorBoundsError as exc:
            seeded = type(exc)
        if not solves.equations:  # refused before any solve
            continue
        hi = solves.equations[-1][2]
        start = math.exp(rng.uniform(math.log(roots._TINY), math.log(hi)))
        with pytest.raises(WinsorBoundsError) as excinfo:
            lane(c, sigma, start)
        assert type(excinfo.value) is seeded, (c, sigma, start, excinfo.value)
