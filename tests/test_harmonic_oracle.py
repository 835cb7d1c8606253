"""1D harmonic ground truth: quadrature accuracy, tail classification, verdicts.

Reference values are recomputed at test time with mpmath's adaptive quadrature
(independent of the package's Gauss-Kronrod code) from the closed form

    u'(x) = ((2 + x^2)/2)^(-delta) * (log(2 + x^2)/log 2)^(-2),

which follows from -2*int_0^x b = -delta*log((2+x^2)/2) - 2*log(log(2+x^2)/log 2)
for the drift b(x) = x/(2+x^2) * (delta + 2/log(2+x^2)) with u'(0) = 1.
"""

import hashlib
import math
import sys

import mpmath as mp
import numpy as np
import pytest

import liouville_lab as ll
from space_time import space_time_residual

mp.mp.dps = 25


def mp_uprime(r, delta):
    return ((2 + r * r) / 2) ** (-delta) * (mp.log(2 + r * r) / mp.log(2)) ** (-2)


def mp_u(x, delta):
    return float(mp.quad(lambda r: mp_uprime(r, mp.mpf(delta)), [0, x]))


def mp_u_limit(delta):
    return float(mp.quad(lambda r: mp_uprime(r, mp.mpf(delta)), [0, mp.inf]))


# ---------------------------------------------------------------------------
# quadrature accuracy against the independent oracle


@pytest.mark.parametrize("delta,fixture", [(0.75, "profile_075"), (2.0, "profile_2")])
def test_u_matches_independent_quadrature(delta, fixture, request):
    prof = request.getfixturevalue(fixture)
    for x in (1.0, 5.0, 10.0):
        assert prof.u_at(x) == pytest.approx(mp_u(x, delta), rel=1e-9)


@pytest.mark.parametrize("delta,fixture", [(0.75, "profile_075"), (2.0, "profile_2")])
def test_limits_match_independent_quadrature(delta, fixture, request):
    prof = request.getfixturevalue(fixture)
    lim = mp_u_limit(delta)
    assert prof.u_plus_limit == pytest.approx(lim, rel=1e-6)
    assert prof.u_minus_limit == pytest.approx(-lim, rel=1e-6)
    assert prof.sup_estimate == pytest.approx(lim, rel=1e-6)


@pytest.mark.parametrize("delta", [0.25, 0.5, 2.0])
def test_uprime_closed_form(delta):
    # the normalized closed form, checked at x in {0, 1, 10, 100} to 1e-10
    prof = ll.harmonic_1d(ll.make_log_example(delta), x_max=1e4)
    for x in (0.0, 1.0, 10.0, 100.0):
        expected = ((2 + x * x) / 2) ** (-delta) * (
            math.log(2 + x * x) / math.log(2)
        ) ** (-2)
        assert prof.du_at(x) == pytest.approx(expected, rel=1e-10)


def test_normalization_at_origin(profile_075):
    assert profile_075.u_at(0.0) == 0.0
    assert profile_075.du_at(0.0) == 1.0


# ---------------------------------------------------------------------------
# elementary drifts


def test_zero_drift_gives_identity():
    prof = ll.harmonic_1d(ll.make_standard_fields("zero", 1), x_max=1e4)
    np.testing.assert_allclose(prof.u, prof.x, rtol=1e-8, atol=1e-12)
    assert not prof.bounded_right
    assert not prof.bounded_left
    assert prof.liouville_holds is True
    assert prof.sup_estimate == math.inf


def test_contracting_drift_truncates():
    # u' = exp(x^2) overflows the quadrature guard; the side is truncated
    # and correctly classified as unbounded
    prof = ll.harmonic_1d(ll.make_standard_fields("ou", 1), x_max=1e4)
    assert prof.truncated_right and prof.truncated_left
    assert prof.liouville_holds is True
    assert prof.u_plus_limit == math.inf
    assert prof.du_at(2.0) == pytest.approx(math.exp(4.0), rel=1e-10)
    assert any("truncated" in n for n in prof.notes)


# ---------------------------------------------------------------------------
# verdicts


@pytest.mark.parametrize("delta,expected", [(0.25, True), (0.75, False)])
def test_verdict_on_both_sides_of_half(delta, expected):
    assert ll.liouville_verdict_1d(delta) is expected


def test_verdict_boundary_delta_half():
    # the log^2 factor makes the boundary case integrable: a bounded
    # nonconstant harmonic function exists exactly at delta = 1/2
    assert ll.liouville_verdict_1d(0.5) is False


def test_verdict_brackets_threshold():
    assert ll.liouville_verdict_1d(0.49) is True
    assert ll.liouville_verdict_1d(0.51) is False


@pytest.mark.parametrize("delta, expected", [
    (0.495, True), (0.499, True), (0.4999, True), (0.5, False),
    (0.5001, False)])
def test_verdict_next_to_the_sharp_threshold(delta, expected):
    # the fitted p is -2 delta to about 1e-6, so the power fit alone decides
    # every delta here but 1/2; a fixed |p + 1| window of 0.01 sent the
    # deltas in [0.495, 0.5) to the log fit, which called them bounded
    assert ll.liouville_verdict_1d(delta) is expected


def test_critical_note_prints_its_window():
    prof = ll.harmonic_1d(ll.make_log_example(0.5))
    assert prof.notes[0] == (
        "right: power exponent critical (p = -1.0000, |p + 1| <= 1.4e-06); "
        "log fit decisive: u' ~ r^-1 * log^-2.000 r")


def test_tail_fit_exponents():
    # u' ~ r^(-2*delta) * log^(-2) r: the joint fit recovers both exponents
    prof = ll.harmonic_1d(ll.make_log_example(0.25))
    p, q = prof.tail_fit_right
    assert p == pytest.approx(-0.5, abs=2e-4)
    assert q == pytest.approx(-2.0, abs=2e-3)
    prof2 = ll.harmonic_1d(ll.make_log_example(2.0))
    p2, _ = prof2.tail_fit_right
    assert p2 == pytest.approx(-4.0, abs=2e-4)


# ---------------------------------------------------------------------------
# profile structure


def test_antisymmetry_for_odd_drift(profile_075):
    # the left side is marched with the mirrored drift, so for odd b the
    # two sides are computed identically and the profile is exactly odd
    n = profile_075.x.size
    assert n % 2 == 1
    left = profile_075.u[: n // 2][::-1]
    right = profile_075.u[n // 2 + 1 :]
    assert np.max(np.abs(left + right)) <= 1e-12
    assert profile_075.u[n // 2] == 0.0


def test_u_strictly_increasing(profile_2):
    # u' > 0 everywhere; the sampled u is nondecreasing globally and strictly
    # increasing wherever the increment is resolvable in double precision
    # (far-tail increments of the bounded profile underflow)
    assert np.all(profile_2.du > 0)
    assert np.all(np.diff(profile_2.u) >= 0)
    inner = np.abs(profile_2.x) <= 100.0
    assert np.all(np.diff(profile_2.u[inner]) > 0)


def test_monotone_sup_in_delta():
    sups = []
    for delta in (0.6, 0.75, 1.0, 2.0):
        prof = ll.harmonic_1d(ll.make_log_example(delta), x_max=1e5)
        sups.append(prof.sup_estimate)
    assert all(a >= b for a, b in zip(sups, sups[1:]))


def test_profile_residual_bound(log_field_075, log_field_2):
    # |1/2 u'' + b u'| <= 10*tol at interior points, via the space-time
    # residual with a time-independent u (finite differences, so the bound
    # is checked at a tolerance the h^2 truncation error can meet)
    tol = 1e-6
    for field in (log_field_075, log_field_2):
        prof = ll.harmonic_1d(field, x_max=1e4, tol=tol)
        pts = [(0.0, np.array([x])) for x in np.linspace(-5, 5, 21)]
        resid = space_time_residual(field, lambda t, x: prof.u_at(x[0]), pts,
                                    h=1e-3)
        assert resid <= 10 * tol


def test_u_at_scalar_and_array(profile_075):
    v = profile_075.u_at(1.5)
    assert np.ndim(v) == 0
    arr = profile_075.u_at(np.array([-2.0, 0.0, 2.0]))
    assert arr.shape == (3,)
    assert arr[1] == 0.0
    assert arr[0] == pytest.approx(-arr[2], abs=1e-12)


def test_u_at_out_of_range(profile_075):
    with pytest.raises(ValueError):
        profile_075.u_at(1e7)


# ---------------------------------------------------------------------------
# boundary handling


def test_critical_exponent_classification_withheld():
    # drift tuned so u' ~ r^-1 log^-1 r: both fitted exponents critical,
    # the classifier must withhold rather than guess
    field = ll.field_from_expressions(
        1, ["x1/(2+x1^2)*(0.5 + 1/log(2+x1^2))"], label="critical-pair"
    )
    prof = ll.harmonic_1d(field)
    assert prof.bounded_right is None
    assert prof.liouville_holds is None
    assert any("withheld" in n for n in prof.notes)


def test_verdict_raises_when_withheld():
    # a window too short for any tail fit forces the undecided path
    with pytest.raises(ll.BoundaryUndecided):
        ll.liouville_verdict_1d(0.5, x_max=0.05)


def test_nonconstant_q_rejected():
    with pytest.raises(ll.NotApplicable):
        ll.harmonic_1d(ll.make_standard_fields("var_q_const_b", 1, [0.5]))


def test_q_constant_only_at_probe_points_rejected():
    # q = 1 + p(x)^2 with p vanishing at 0, 0.7, -3, 17 and -91: q is 1
    # there and nowhere else, and b/q is integrable, so u is unbounded
    field = ll.field_from_expressions(
        1, ["0.3*tanh(x1)"], ["1 + (x1*(x1-0.7)*(x1+3)*(x1-17)*(x1+91))^2"])
    with pytest.raises(ll.NotApplicable, match="non-constant diffusion"):
        ll.harmonic_1d(field)


def test_constant_q_rescaling():
    # drift -x with q = 4 is the same diffusion as drift -x/4 with q = 1
    scaled = ll.field_from_expressions(1, ["-x1"], ["4"], label="scaled")
    direct = ll.field_from_expressions(1, ["-x1/4"], label="direct")
    pa = ll.harmonic_1d(scaled, x_max=100.0)
    pb = ll.harmonic_1d(direct, x_max=100.0)
    assert np.array_equal(pa.u, pb.u)
    assert np.array_equal(pa.du, pb.du)


def test_input_validation():
    field = ll.make_log_example(0.25)
    with pytest.raises(ValueError):
        ll.harmonic_1d(field, x_max=1e-3)
    with pytest.raises(ValueError):
        ll.harmonic_1d(field, tol=0.0)
    with pytest.raises(ValueError):
        ll.harmonic_1d(ll.make_standard_fields("zero", 2))


# ---------------------------------------------------------------------------
# oscillation_bound


def test_oscillation_bound_same_point(profile_2):
    assert ll.oscillation_bound(profile_2, 3.0, 3.0) == 0.0


def test_oscillation_bound_full_range(profile_2):
    # at the window edges essentially the whole oscillation is captured
    edge = profile_2.x[-1]
    ob = ll.oscillation_bound(profile_2, edge, -edge)
    assert ob == pytest.approx(1.0, abs=1e-6)
    assert ob <= 1.0


def test_oscillation_bound_interior_value(profile_2):
    # (u(5) - u(-5)) / (u(+inf) - u(-inf)) = u(5)/u(inf) by antisymmetry
    expected = mp_u(5.0, 2.0) / mp_u_limit(2.0)
    assert ll.oscillation_bound(profile_2, 5.0, -5.0) == pytest.approx(
        expected, rel=1e-9
    )
    assert 0.0 < ll.oscillation_bound(profile_2, 5.0, -5.0) < 1.0


def test_oscillation_bound_entire_interval(profile_075):
    ob = ll.oscillation_bound(profile_075, 5.0, -5.0)
    assert 0.0 < ob < 1.0


def test_oscillation_bound_unbounded_rejected():
    prof = ll.harmonic_1d(ll.make_log_example(0.25), x_max=1e4)
    with pytest.raises(ll.NotApplicable):
        ll.oscillation_bound(prof, 1.0, -1.0)


# ---------------------------------------------------------------------------
# recorded bits


def _oracle_cases():
    return {
        "log_example(0.25)": ll.make_log_example(0.25),
        "log_example(0.5)": ll.make_log_example(0.5),
        "log_example(0.75)": ll.make_log_example(0.75),
        "log_example(2)": ll.make_log_example(2.0),
        "zero": ll.make_standard_fields("zero", 1),
        "ou": ll.make_standard_fields("ou", 1),
        "radial_expand(1)": ll.make_standard_fields("radial_expand", 1, [1.0]),
        "radial_expand(-0.6)": ll.make_standard_fields("radial_expand", 1, [-0.6]),
        "q=2": ll.field_from_expressions(
            1, ["x1/(1 + x1^2) + 0.2*tanh(x1 - 1)"], ["2"], label="q=2"),
    }


def _oracle_digest(prof):
    """sha256 of the comma-joined float.hex of every number the profile
    reports, and of u_at/du_at on 41 points symmetric about 0."""
    reach = min(prof.x[-1], -prof.x[0])
    half = np.geomspace(1e-2, reach, 20)
    grid = np.concatenate([-half[::-1], [0.0], half])
    values = [*prof.x, *prof.u, *prof.du, prof.sup_estimate,
              prof.u_plus_limit, prof.u_minus_limit,
              *(prof.tail_fit_right or ()), *(prof.tail_fit_left or ()),
              *prof.u_at(grid), *prof.du_at(grid)]
    text = ",".join(float(v).hex() for v in values)
    return hashlib.sha256(text.encode()).hexdigest()


# recorded before the two adaptive loops became one engine
ORACLE_BITS = {
    "log_example(0.25)":
        "846aba07d3e0a6d302f6a939dc52478069dc4ab12df86b7b6849ff1b889de231",
    "log_example(0.5)":
        "02aeee2df619f2d3372ffdfd94a71739dd7819270b0a279e3f5c2c858c249340",
    "log_example(0.75)":
        "31ad145c66459746c08c71da714e52ba72d0ef47df79f97933f23910d190b9f5",
    "log_example(2)":
        "90aaf5a5ef40613d614eb5bab861569ec7230b2c8d5b522bb1ca673591b4424e",
    "zero":
        "745e698727823486269a90d601a6f8e1521cb682e08199885c6142c0481c13d6",
    "ou":
        "ad176902c6edfdb7b1eaf91b5bb1c1d480e486b5470b0cd63b0717a041d41f11",
    "radial_expand(1)":
        "9e6228df3e2fb7c5e8fcb52cb5a63af79fdd314aa5815ac5b55b3d3f36fe5ccf",
    "radial_expand(-0.6)":
        "0dd5c76305bfb685818696aefa14c6d8e3171d8eedc16e3c20a420566b6d1fb8",
    # re-recorded when sides whose u' ends at the clip floor stopped
    # reporting a tail fit; its limits kept their bits (test below)
    "q=2":
        "c9096f90bddbf8e75f9c9c2d93bf5e81a3a5bba5fbae6ddcc24c7b8390b4b322",
}


@pytest.mark.parametrize("name", sorted(ORACLE_BITS))
def test_oracle_keeps_its_recorded_bits(name):
    prof = ll.harmonic_1d(_oracle_cases()[name])
    assert _oracle_digest(prof) == ORACLE_BITS[name]


def test_no_tail_fit_where_du_sits_at_its_clip_floor():
    # u' = exp(-2B) decays exponentially on both sides of the q = 2 field
    # and ends at the floor exp(-745); a power/log fit of that is noise
    prof = ll.harmonic_1d(_oracle_cases()["q=2"])
    assert prof.du[0] == prof.du[-1] == math.exp(-745.0)
    assert prof.tail_fit_right is None and prof.tail_fit_left is None
    assert prof.bounded_right and prof.bounded_left
    assert prof.u_plus_limit.hex() == prof.sup_estimate.hex() \
        == "0x1.46c2e2ab83e94p+1"
    assert prof.u_minus_limit.hex() == "-0x1.ef6ec21f3808cp+0"


# ---------------------------------------------------------------------------
# non-finite drift


@pytest.mark.parametrize("centre", [300.0, -300.0])
def test_non_finite_drift_is_named_with_its_x(centre):
    # the drift is NaN only on |x - centre| < 0.01, which the base grid
    # misses; refinement meets it, on whichever side it lies
    field = ll.field_from_expressions(
        1, [f"sqrt(abs(x1 - ({centre})) - 0.01)"], label="band")
    with pytest.raises(ll.CoefficientEvaluationError,
                       match=r"^drift is non-finite at x = \[") as info:
        ll.harmonic_1d(field)
    x = float(str(info.value).split("[")[1].rstrip("]"))
    assert abs(x - centre) < 0.01


def test_drift_overflow_is_named_with_its_x():
    # x1*x1 overflows past sqrt(largest double), where the compiled drift
    # x/(2 + x^2)(delta + 2/log(2 + x^2)) drops to 0: the drift integral
    # cannot converge there, and the error names the overflow, not the
    # quadrature
    with pytest.raises(ll.CoefficientOverflow,
                       match=r"^drift arithmetic overflows at x = ") as info:
        ll.harmonic_1d(ll.make_log_example(0.25), x_max=1e300)
    x = float(str(info.value).split(" = ")[1].split(",")[0])
    assert x == pytest.approx(math.sqrt(sys.float_info.max), rel=1e-5)
    assert isinstance(info.value.__cause__, ll.QuadratureError)
    # short of it the oracle runs as before
    assert ll.harmonic_1d(ll.make_log_example(0.25),
                          x_max=1e100).liouville_holds is True
