"""1D harmonic ground truth: quadrature accuracy, tail classification, verdicts.

Reference values are recomputed at test time with mpmath's adaptive quadrature
(independent of the package's Gauss-Kronrod code) from the closed form

    u'(x) = ((2 + x^2)/2)^(-delta) * (log(2 + x^2)/log 2)^(-2),

which follows from -2*int_0^x b = -delta*log((2+x^2)/2) - 2*log(log(2+x^2)/log 2)
for the drift b(x) = x/(2+x^2) * (delta + 2/log(2+x^2)) with u'(0) = 1.
"""

import dataclasses
import hashlib
import math
import sys

import mpmath as mp
import numpy as np
import pytest

import gl10_panel
import liouville_lab as ll
from liouville_lab import harmonic_oracle
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


def test_kronrod_integration_matrix_is_exact_to_degree_14():
    # (S f)_i integrates the interpolant of f over [-1, x_i]
    s = harmonic_oracle._k15_integration()
    x = harmonic_oracle._K15_X
    for k in range(15):
        exact = (x ** (k + 1) - (-1.0) ** (k + 1)) / (k + 1)
        np.testing.assert_allclose(s @ x ** k, exact, rtol=0, atol=1e-13)


def test_oracle_samples_the_drift_only_at_kronrod_nodes():
    # b is sampled once per Kronrod node of each panel (138,300 points);
    # a nested 10-point rule per node took 760,650
    field = ll.make_log_example(0.25)
    points = []

    def drift(x):
        points.append(len(x))
        return field.drift(x)

    ll.harmonic_1d(dataclasses.replace(field, drift=drift))
    assert sum(points) < 2e5


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


def _oracle_values(prof):
    """Every number the profile reports, and u_at/du_at on 41 points
    symmetric about 0."""
    reach = min(prof.x[-1], -prof.x[0])
    half = np.geomspace(1e-2, reach, 20)
    grid = np.concatenate([-half[::-1], [0.0], half])
    return [*prof.x, *prof.u, *prof.du, prof.sup_estimate,
            prof.u_plus_limit, prof.u_minus_limit,
            *(prof.tail_fit_right or ()), *(prof.tail_fit_left or ()),
            *prof.u_at(grid), *prof.du_at(grid)]


def _oracle_digest(prof):
    """sha256 of the comma-joined float.hex of _oracle_values."""
    text = ",".join(float(v).hex() for v in _oracle_values(prof))
    return hashlib.sha256(text.encode()).hexdigest()


# recorded before the two adaptive loops became one engine; all but zero
# re-recorded when B at the Kronrod nodes came from the panel's own samples
# (within 1e-12 of the nested-panel values, test below)
ORACLE_BITS = {
    "log_example(0.25)":
        "146afdff90c4fa89c9eab18da168397c68529a2f4dfd3ad4079ceed98f742b05",
    "log_example(0.5)":
        "c2c0b898461164f7e89710fbde9c51c7c6cb0f2e4da9364dab3ff774610f8861",
    "log_example(0.75)":
        "9e909236f2ab03fd75af7b81e077f558cbaad2e1823ef5e9e4372f950c17d081",
    "log_example(2)":
        "c148bd1c49b916035921e57427c9e356a79fec2a7149c17601d9b6c6a6a2306b",
    "zero":
        "745e698727823486269a90d601a6f8e1521cb682e08199885c6142c0481c13d6",
    "ou":
        "7c4820a0ec44895ed6bc21d17898e97c4e4e3a941d22d0f07b84bac154f673fe",
    "radial_expand(1)":
        "2595e5647ba6413a4e731f3e039daafaf23139c822367635ba3bc5cda5a78c16",
    "radial_expand(-0.6)":
        "1c315bec6109a5770248b28c994755e418a7ce32cf5287991ae436b068ce2e56",
    # re-recorded when sides whose u' ends at the clip floor stopped
    # reporting a tail fit; its limits kept their bits (test below)
    "q=2":
        "1dfd546e885307cc031f58b87e02b2e39a252a062d537951ebf21a2dea6e5bca",
}


@pytest.mark.parametrize("name", sorted(ORACLE_BITS))
def test_oracle_keeps_its_recorded_bits(name):
    prof = ll.harmonic_1d(_oracle_cases()[name])
    assert _oracle_digest(prof) == ORACLE_BITS[name]


@pytest.mark.parametrize("name", sorted(ORACLE_BITS))
def test_oracle_agrees_with_the_nested_gl10_panel(name, monkeypatch):
    # the panel that took B at each Kronrod node from a 10-point
    # Gauss-Legendre rule over [a, node]: the same grid, the same
    # non-finite entries, and every finite value within 1e-12 relative
    field = _oracle_cases()[name]
    prof = ll.harmonic_1d(field)
    with monkeypatch.context() as patch:
        gl10_panel.install(patch)
        ref = ll.harmonic_1d(field)
    assert np.array_equal(prof.x, ref.x)
    new, old = np.array(_oracle_values(prof)), np.array(_oracle_values(ref))
    assert new.shape == old.shape
    finite = np.isfinite(old)
    assert np.array_equal(np.isfinite(new), finite)
    assert np.array_equal(new[~finite], old[~finite], equal_nan=True)
    np.testing.assert_allclose(new[finite], old[finite], rtol=1e-12, atol=0)


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
