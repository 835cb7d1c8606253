"""Decision pipeline: dispersion, threshold, constants, modulus, g, escape."""

import math
import pickle

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import liouville_lab as ll
from liouville_lab import _streams
from liouville_lab import criterion as crit


# ---------------------------------------------------------------------------
# drift_dispersion


def test_dispersion_zero_drift(unit_bounds):
    field = ll.make_standard_fields("zero", 2)
    curve = ll.drift_dispersion(field, np.geomspace(1, 100, 12), n_pairs=4, seed=0)
    assert np.array_equal(curve.values, np.zeros(12))


def test_dispersion_contracting_drift_closed_form():
    # <x-y, b(x)-b(y)> = -|x-y|^2 for b(x) = -x, at every pair
    field = ll.make_standard_fields("ou", 2)
    radii = np.geomspace(0.5, 50, 10)
    curve = ll.drift_dispersion(field, radii, n_pairs=8, seed=1)
    np.testing.assert_allclose(curve.values, -(radii**2), rtol=1e-12)


def test_dispersion_pair_separation_is_exact():
    field = ll.make_log_example(0.25)
    radii = np.array([1.0, 10.0, 100.0])
    curve = ll.drift_dispersion(field, radii, n_pairs=8, seed=2)
    # reported values must be at least the hand-evaluable antipodal pair value
    for s, v in zip(radii, curve.values):
        antipodal = 2.0 * s * ll.eval_drift(field, np.array([s / 2.0]))[0]
        assert v >= antipodal - 1e-12


def test_dispersion_nondecreasing_in_pair_count():
    field = ll.make_log_example(0.75)
    radii = np.geomspace(1, 1e4, 12)
    few = ll.drift_dispersion(field, radii, n_pairs=4, seed=7)
    many = ll.drift_dispersion(field, radii, n_pairs=24, seed=7)
    assert np.all(many.values >= few.values - 1e-15)


def test_dispersion_rejects_bad_radii():
    field = ll.make_standard_fields("zero", 1)
    with pytest.raises(ValueError):
        ll.drift_dispersion(field, [3.0, 2.0], n_pairs=2, seed=0)
    with pytest.raises(ValueError):
        ll.drift_dispersion(field, [-1.0, 2.0], n_pairs=2, seed=0)


def _log_antipodal(delta, s):
    # closed-form dispersion of the antipodal pair x = s/2, y = -s/2 in the
    # log family; it exceeds the 4*delta limit by ~8/log(2 + s^2/4)
    w = 2.0 + s * s / 4.0
    return s * s / w * (delta + 2.0 / np.log(w))


def test_dispersion_near_4delta_at_1e4():
    for delta in (0.25, 1.0):
        field = ll.make_log_example(delta)
        curve = ll.drift_dispersion(field, [1e4], n_pairs=16, seed=0)
        assert curve.values[0] == pytest.approx(_log_antipodal(delta, 1e4),
                                                rel=0.02)


# ---------------------------------------------------------------------------
# asymptotic_dispersion


def test_asymptotic_zero_curve():
    field = ll.make_standard_fields("zero", 1)
    curve = ll.drift_dispersion(field, np.geomspace(1, 100, 12), n_pairs=2, seed=0)
    assert ll.asymptotic_dispersion(curve, 0.2) == 0.0


def test_asymptotic_decreasing_tail():
    field = ll.make_standard_fields("ou", 2)
    curve = ll.drift_dispersion(field, np.linspace(10, 100, 10), n_pairs=8, seed=0)
    # tail max of -s^2 over the last 20% of radii sits at the 80th percentile
    assert ll.asymptotic_dispersion(curve, 0.2) <= -6400.0


def test_asymptotic_requires_enough_radii():
    curve = ll.DispersionCurve(
        radii=np.array([1.0, 2.0]),
        values=np.array([0.0, 0.0]),
        window_radius=1.0,
        n_pairs_per_radius=1,
        seed=0,
        method="stub",
    )
    with pytest.raises(ValueError):
        ll.asymptotic_dispersion(curve, 0.2)
    field = ll.make_standard_fields("zero", 1)
    big = ll.drift_dispersion(field, np.geomspace(1, 100, 12), n_pairs=2, seed=0)
    with pytest.raises(ValueError):
        ll.asymptotic_dispersion(big, 0.0)


def test_asymptotic_log_family_near_limit():
    field = ll.make_log_example(0.25)
    curve = ll.drift_dispersion(field, np.geomspace(1, 1e5, 48), n_pairs=32, seed=0)
    # the tail max tracks the closed-form antipodal value at the tail radii,
    # not the limit 1.0 it reaches only at rate O(1/log s)
    tail = curve.radii[-math.ceil(0.3 * curve.radii.size):]
    closed = float(_log_antipodal(0.25, tail).max())
    assert ll.asymptotic_dispersion(curve, 0.3) == pytest.approx(closed, rel=0.02)


# ---------------------------------------------------------------------------
# theorem_threshold


def test_threshold_unit_q(unit_bounds):
    for d in (1, 2, 3, 4):
        assert ll.theorem_threshold(unit_bounds, d) == 2.0


def test_threshold_arithmetic():
    b = ll.EllipticityBounds(lambda0=1.0, Lambda0=2.0, domain_radius=1.0, n_samples=1)
    assert ll.theorem_threshold(b, 2) == 1.0
    b5 = ll.EllipticityBounds(lambda0=1.0, Lambda0=5.0, domain_radius=1.0, n_samples=1)
    assert ll.theorem_threshold(b5, 2) == -2.0


def test_threshold_scaled_identity():
    # q = c*I gives threshold exactly 2c
    for c in (0.5, 1.0, 3.0):
        b = ll.EllipticityBounds(lambda0=c, Lambda0=c, domain_radius=1.0, n_samples=1)
        assert ll.theorem_threshold(b, 3) == 2.0 * c


# ---------------------------------------------------------------------------
# classic_condition_check


def test_classic_condition_contracting(unit_bounds):
    field = ll.make_standard_fields("ou", 2)
    rng = np.random.default_rng(13)
    pairs = [(rng.uniform(-5, 5, 2), rng.uniform(-1, 1, 2)) for _ in range(100)]
    rep = ll.classic_condition_check(field, unit_bounds, pairs)
    assert rep.holds
    for (x, h), v in zip(pairs, rep.values):
        assert v == pytest.approx(-2.0 * float(h @ h), rel=1e-12)


def test_classic_condition_fails_for_log_family(unit_bounds, log_field_025):
    # at x=0, h=0.1 the value is 2*h*b(h) > 0 because b has the sign of h
    pairs = [(np.array([0.0]), np.array([0.1]))]
    rep = ll.classic_condition_check(log_field_025, unit_bounds, pairs)
    b_h = ll.eval_drift(log_field_025, np.array([0.1]))[0]
    assert rep.max_value == pytest.approx(2 * 0.1 * b_h, rel=1e-12)
    assert rep.max_value > 0
    assert not rep.holds
    assert rep.worst_index == 0


def test_classic_condition_fails_for_variable_q(var_q_field, var_q_bounds):
    # constant drift contributes nothing; (1/2 lambda0)*|q(x)-q(x+h)|^2 > 0
    rng = np.random.default_rng(29)
    pairs = [(rng.uniform(-5, 5, 2), rng.uniform(-2, 2, 2)) for _ in range(200)]
    rep = ll.classic_condition_check(var_q_field, var_q_bounds, pairs)
    assert not rep.holds
    assert rep.max_value > 0


# ---------------------------------------------------------------------------
# admissible constants (the tests are named after the deleted
# choose_constants, which returned the first candidate)


def _admissible(bounds, curve):
    """The pipeline's admissible constants: tail fraction 0.2, mu grid 99."""
    return crit._admissible_candidates(
        bounds, 1, curve, ll.asymptotic_dispersion(curve, 0.2), 99)


def test_choose_constants_zero_drift(unit_bounds):
    field = ll.make_standard_fields("zero", 1)
    curve = ll.drift_dispersion(field, np.geomspace(1, 100, 16), n_pairs=2, seed=0)
    c = _admissible(unit_bounds, curve)[0]
    assert 0 < c.mu < 1.0
    assert c.s1 == 0.0
    assert c.s2 == pytest.approx(2 * c.s1 + 1 * (1.0 - c.mu), rel=1e-14)
    assert c.s1 < 2 * c.mu - 0.5 * 1 * (1.0 - c.mu)
    assert c.s2 < 4 * c.mu
    # margin 4*mu - s2 = 5*mu - 1 grows with mu, so the grid maximum wins
    assert c.mu == pytest.approx(0.99, rel=1e-12)
    assert c.s0 == 1.0  # kappa == 0 everywhere, smallest radius works
    assert c.lam == pytest.approx(1.0 / (4 * (1.0 - c.mu)), rel=1e-12)


def test_choose_constants_log_family(unit_bounds, log_field_025):
    curve = ll.drift_dispersion(
        log_field_025, np.geomspace(1, 1e5, 32), n_pairs=16, seed=0
    )
    c = _admissible(unit_bounds, curve)[0]
    # the dispersion curve sits below s1 beyond s0
    suffix = curve.values[curve.radii >= c.s0]
    assert np.all(suffix <= c.s1 + 1e-12)
    assert c.s1 < 2 * c.mu - 0.5 * (1.0 - c.mu)
    assert c.s2 == pytest.approx(2 * c.s1 + (1.0 - c.mu), rel=1e-14)
    assert c.s2 < 4 * c.mu
    # hand check at mu = 0.9: the window tail (~1.46) is still admissible,
    # 1.46 < 2*0.9 - 0.05 = 1.75 and s2 ~ 3.0 < 3.6
    s1_tail = float(np.max(curve.values[-7:]))
    assert s1_tail < 2 * 0.9 - 0.5 * (1.0 - 0.9)
    assert 2 * s1_tail + (1.0 - 0.9) < 4 * 0.9


def test_choose_constants_inadmissible(unit_bounds, log_field_075):
    # kappa_inf ~ 3.5 exceeds the mu -> lambda0 threshold limit 2
    curve = ll.drift_dispersion(
        log_field_075, np.geomspace(1, 1e5, 32), n_pairs=16, seed=0
    )
    assert _admissible(unit_bounds, curve) == []


@settings(max_examples=40, derandomize=True, deadline=None)
@given(lambda0=st.floats(1e-3, 1e3), spread=st.floats(0.0, 10.0),
       dim=st.integers(1, 6), mu_grid=st.integers(1, 120),
       s1=st.floats(-1e300, 1e3), r0=st.floats(1e-5, 1e5))
def test_every_admissible_candidate_has_a_divergent_escape(
        lambda0, spread, dim, mu_grid, s1, r0):
    # the pipeline certifies on these constants without testing esc.divergent
    bounds = ll.EllipticityBounds(lambda0, lambda0 * (1.0 + spread), 100.0, 1)
    curve = ll.DispersionCurve(radii=np.geomspace(r0, 1e3 * r0, 10),
                               values=np.full(10, s1), window_radius=100.0,
                               n_pairs_per_radius=1, seed=0, method="flat")
    cands = crit._admissible_candidates(bounds, dim, curve, s1, mu_grid)
    assert all(a.mu > b.mu for a, b in zip(cands, cands[1:]))
    for c in cands:
        prof = ll.modulus_profile_from_samples(
            c.lam, np.geomspace(1e-3 * c.s0, c.s0, 8), np.zeros(8))
        esc = ll.escape_integral_divergent(ll.build_g(prof, c), c,
                                           max(1e6, 100.0 * c.s0))
        assert esc.divergent


# ---------------------------------------------------------------------------
# modulus


def test_modulus_zero_drift_constant_q():
    field = ll.make_standard_fields("zero", 2)
    prof = ll.modulus(field, lam=1.0, s0=1.0, n_pairs=4, grid_size=16, seed=0)
    assert np.array_equal(prof.values, np.zeros(16))
    assert prof.dini_mass == 0.0
    assert prof.dini_ok


def test_modulus_contracting_drift_bound():
    # for b = -x the dispersion term is -2s^2 <= 0, so omega == 0 <= 2*K*s^2
    field = ll.make_standard_fields("ou", 1)
    prof = ll.modulus(field, lam=1.0, s0=1.0, n_pairs=8, grid_size=16, seed=0)
    assert np.all(prof.values <= 2.0 * prof.radii**2 + 1e-12)
    assert prof.dini_mass <= 1.0  # K * s0^2 with K = 1


def test_modulus_log_family_dini(log_field_025):
    prof = ll.modulus(log_field_025, lam=5.0, s0=1.0, n_pairs=8, grid_size=24, seed=0)
    assert prof.dini_ok
    assert prof.dini_mass > 0
    # b is smooth with |b'| bounded; the modulus is at most 2*sup|b'|*s0
    xs = np.linspace(-3, 3, 2001)
    bvals = np.array([ll.eval_drift(log_field_025, np.array([x]))[0] for x in xs])
    sup_bprime = np.max(np.abs(np.gradient(bvals, xs)))
    assert prof.dini_mass <= 2.0 * sup_bprime * 1.0


def test_modulus_values_monotone(var_q_field):
    prof = ll.modulus(var_q_field, lam=0.5, s0=2.0, n_pairs=8, grid_size=24, seed=1)
    assert np.all(np.diff(prof.values) >= 0.0)


def test_modulus_flat_head_fails_dini():
    radii = np.geomspace(1e-4, 1.0, 12)
    prof = ll.modulus_profile_from_samples(1.0, radii, np.ones(12))
    assert prof.head_exponent == pytest.approx(0.0, abs=1e-12)
    assert not prof.dini_ok


def test_infinite_omega_gives_an_infinite_mass_and_no_nan():
    # a +inf sup is a value of the sup-search; its segments carry +inf mass
    radii = np.geomspace(1e-3, 1.0, 6)
    prof = ll.modulus_profile_from_samples(
        1.0, radii, [1e-3, 2e-3, 4e-3, 8e-3, math.inf, math.inf])
    assert prof.dini_mass == prof.total_mass == math.inf
    assert not prof.dini_ok
    assert any("is infinite" in note for note in prof.notes)
    cons = ll.CriterionConstants(mu=0.25, s0=1.0, s1=0.0, s2=0.5, lam=1.0)
    g = ll.build_g(prof, cons)
    assert g.cum_mass[-1] == math.inf and not np.isnan(g.cum_mass).any()
    assert not np.isnan(g(np.geomspace(1e-4, 10.0, 50))).any()
    esc = ll.escape_integral_divergent(g, cons)
    assert esc.prefactor == 0.0 and math.isfinite(esc.partial_integral)


def test_modulus_profile_enforces_running_max():
    radii = np.geomspace(1e-3, 1.0, 6)
    ragged = np.array([0.1, 0.05, 0.2, 0.15, 0.3, 0.25])
    prof = ll.modulus_profile_from_samples(1.0, radii, ragged)
    assert np.all(np.diff(prof.values) >= 0.0)
    assert np.all(prof.values >= ragged)


# ---------------------------------------------------------------------------
# build_g


@pytest.fixture(scope="module")
def hand_profile():
    # omega(s) = s^2 sampled on a linear grid containing 0.5 and 1.0
    radii = np.linspace(0.1, 1.0, 10)
    return ll.modulus_profile_from_samples(0.5, radii, radii**2)


@pytest.fixture(scope="module")
def hand_constants():
    return ll.CriterionConstants(mu=0.5, s0=1.0, s1=0.95, s2=2.0, lam=0.5)


def test_build_g_hand_values(hand_profile, hand_constants):
    g = ll.build_g(hand_profile, hand_constants)
    assert g(0.5) == pytest.approx(0.5, rel=1e-12)   # omega(0.5)/0.5
    assert g(2.0) == pytest.approx(1.0, rel=1e-12)   # s2/s = 2/2


def test_build_g_left_branch_closed_at_s0(hand_profile, hand_constants):
    # at s = s0 the omega branch applies: omega(1)/1 = 1, not s2/s0 = 2
    g = ll.build_g(hand_profile, hand_constants)
    assert g(1.0) == pytest.approx(1.0, rel=1e-12)


def test_build_g_head_extrapolation(hand_profile, hand_constants):
    # below the grid, the fitted power law omega ~ s^2 gives g(s) = s
    assert hand_profile.head_exponent == pytest.approx(2.0, rel=1e-10)
    assert hand_profile.head_coeff == pytest.approx(1.0, rel=1e-10)
    assert hand_profile.head_mass == pytest.approx(0.005, rel=1e-10)
    g = ll.build_g(hand_profile, hand_constants)
    assert g(0.05) == pytest.approx(0.05, rel=1e-10)


def test_build_g_integral_closed_forms(hand_profile, hand_constants):
    # int_0^r g for omega(s)=s^2: head 0.005, then (r^2 - 0.01)/2 on the grid,
    # then s2*log(r/s0) beyond s0
    g = ll.build_g(hand_profile, hand_constants)
    assert g.integral(0.5) == pytest.approx(0.005 + (0.25 - 0.01) / 2, rel=1e-9)
    assert g.integral(1.0) == pytest.approx(0.5, rel=1e-9)
    assert g.integral(2.0) == pytest.approx(0.5 + 2 * math.log(2), rel=1e-9)


def test_build_g_integral_matches_direct_quadrature():
    # irregular monotone profile: compare the piecewise-power integral
    # against direct numerical quadrature of g itself
    radii = np.geomspace(1e-3, 1.0, 20)
    values = np.maximum.accumulate(radii**1.5 * (1.0 + 0.3 * np.sin(3 * np.log(radii))))
    prof = ll.modulus_profile_from_samples(2.0, radii, values)
    cons = ll.CriterionConstants(mu=0.5, s0=1.0, s1=0.5, s2=1.5, lam=2.0)
    g = ll.build_g(prof, cons)
    for a, b in [(1e-3, 1.0), (0.02, 0.7), (0.5, 2.0)]:
        # integrate piecewise: g is a power law between knots with a jump at s0
        knots = [a] + [float(r) for r in radii if a < r < b] + [b]
        if a < 1.0 < b:
            knots.append(1.0)
        direct = mp.quad(lambda s: g(float(s)), sorted(set(knots)))
        assert g.integral(b) - g.integral(a) == pytest.approx(float(direct), abs=1e-6)


def test_build_g_zero_modulus():
    radii = np.geomspace(1e-3, 1.0, 8)
    prof = ll.modulus_profile_from_samples(1.0, radii, np.zeros(8))
    cons = ll.CriterionConstants(mu=0.5, s0=1.0, s1=0.0, s2=1.0, lam=1.0)
    g = ll.build_g(prof, cons)
    assert g(0.5) == 0.0
    assert g(1.0) == 0.0
    assert g(4.0) == pytest.approx(0.25, rel=1e-12)  # s2/s past s0


def test_build_g_lambda_mismatch(hand_profile):
    cons = ll.CriterionConstants(mu=0.5, s0=1.0, s1=0.95, s2=2.0, lam=0.25)
    with pytest.raises(ll.ConstantMismatch):
        ll.build_g(hand_profile, cons)


# ---------------------------------------------------------------------------
# escape_integral_divergent


def _flat_g(s2, mu):
    radii = np.geomspace(1e-3, 1.0, 8)
    prof = ll.modulus_profile_from_samples(0.5, radii, np.zeros(8))
    cons = ll.CriterionConstants(mu=mu, s0=1.0, s1=(s2 - 0.5) / 2, s2=s2, lam=0.5)
    return ll.build_g(prof, cons), cons


@pytest.mark.parametrize(
    "s2,expect_divergent,partial_1e6",
    [
        # tail exponent s2/(4*mu) with mu=0.25; analytic partials:
        # 1 + 2(sqrt(R)-1), 1 + log(R), 1 + (1 - 1/R)
        (0.5, True, 1.0 + 2 * (1e3 - 1.0)),
        (1.0, True, 1.0 + math.log(1e6)),
        (2.0, False, 2.0 - 1e-6),
    ],
)
def test_escape_synthetic_tails(s2, expect_divergent, partial_1e6):
    g, cons = _flat_g(s2, mu=0.25)
    res = ll.escape_integral_divergent(g, cons, r_max=1e6)
    assert res.divergent is expect_divergent
    assert res.tail_exponent == pytest.approx(s2 / 1.0, rel=1e-12)
    assert res.prefactor == pytest.approx(1.0, rel=1e-12)
    assert res.partial_integral == pytest.approx(partial_1e6, rel=1e-3)


def test_escape_boundary_exponent_divergent():
    # s2/(4*mu) = 1 exactly: int 1/r diverges
    g, cons = _flat_g(1.0, mu=0.25)
    res = ll.escape_integral_divergent(g, cons, r_max=1e3)
    assert res.divergent


def test_escape_zero_s2_divergent():
    g, cons = _flat_g(0.0, mu=0.25)
    res = ll.escape_integral_divergent(g, cons, r_max=1e3)
    assert res.divergent
    # integrand is exactly 1 beyond s0, partial ~ r_max
    assert res.partial_integral == pytest.approx(1e3, rel=1e-3)


def test_escape_requires_r_max_beyond_s0():
    g, cons = _flat_g(1.0, mu=0.25)
    with pytest.raises(ValueError):
        ll.escape_integral_divergent(g, cons, r_max=0.5)


# ---------------------------------------------------------------------------
# evaluate_liouville_criterion (pipeline)


REDUCED = ll.RunConfig(radii_points=24, n_pairs=16, ellipticity_samples=2000, seed=0)


def test_pipeline_default_config_is_run_config_at_seed_0(log_field_025):
    # pickle compares every float and array of the two reports bit for bit
    default = ll.evaluate_liouville_criterion(log_field_025)
    explicit = ll.evaluate_liouville_criterion(log_field_025,
                                               ll.RunConfig(seed=0))
    assert pickle.dumps(default) == pickle.dumps(explicit)


def test_pipeline_contracting_guaranteed():
    rep = ll.evaluate_liouville_criterion(ll.make_standard_fields("ou", 2), REDUCED)
    assert rep.verdict == ll.VERDICT_GUARANTEED
    assert rep.kappa_inf < 0 < rep.threshold


def test_pipeline_log_small_delta_guaranteed(log_field_025):
    rep = ll.evaluate_liouville_criterion(log_field_025, REDUCED)
    assert rep.verdict == ll.VERDICT_GUARANTEED
    assert rep.threshold == 2.0
    # verdict invariant: constants admissible, Dini mass finite, escape diverges
    assert rep.constants is not None
    assert rep.constants.s2 < 4 * rep.constants.mu
    assert rep.modulus is not None and rep.modulus.dini_ok
    assert math.isfinite(rep.modulus.dini_mass)
    assert rep.escape is not None and rep.escape.divergent


def test_pipeline_total_mass_is_the_integral_of_g(log_field_025):
    rep = ll.evaluate_liouville_criterion(log_field_025, REDUCED)
    g = ll.build_g(rep.modulus, rep.constants)
    assert rep.modulus.total_mass == pytest.approx(g.integral(rep.constants.s0),
                                                   rel=1e-12, abs=0.0)
    # g's node masses are the left-to-right sums of the head and segments
    radii, omega = rep.modulus.radii, rep.modulus.values
    acc = [rep.modulus.head_mass]
    for mass in crit._segment_mass(radii[:-1], radii[1:], omega[:-1], omega[1:]):
        acc.append(acc[-1] + float(mass))
    assert g.cum_mass.tobytes() == np.array(acc).tobytes()


def test_pipeline_log_large_delta_inconclusive(log_field_075):
    rep = ll.evaluate_liouville_criterion(log_field_075, REDUCED)
    assert rep.verdict == ll.VERDICT_INCONCLUSIVE
    assert rep.kappa_inf > rep.threshold
    assert rep.constants is None
    assert any("dispersion-threshold" in d for d in rep.diagnostics)


def test_pipeline_reports_window_limit(log_field_025):
    rep = ll.evaluate_liouville_criterion(log_field_025, REDUCED)
    assert any("window-limited" in d for d in rep.diagnostics)


def test_pipeline_variable_q_guaranteed(var_q_field):
    rep = ll.evaluate_liouville_criterion(var_q_field, REDUCED)
    # constant drift: kappa == 0; threshold 2*1 - 1*(1.5-1) = 1.5 > 0
    assert rep.verdict == ll.VERDICT_GUARANTEED
    assert rep.kappa_inf == 0.0
    assert rep.threshold == pytest.approx(1.5, abs=1e-3)


def test_pipeline_radial_expanding_inconclusive():
    field = ll.make_standard_fields("radial_expand", 3, [4.0])
    rep = ll.evaluate_liouville_criterion(field, REDUCED)
    # kappa(s) peaks at 4.0 (= c) which exceeds the threshold 2
    assert rep.verdict == ll.VERDICT_INCONCLUSIVE


def test_pipeline_deterministic(log_field_025):
    a = ll.evaluate_liouville_criterion(log_field_025, REDUCED)
    b = ll.evaluate_liouville_criterion(log_field_025, REDUCED)
    assert a.kappa_inf == b.kappa_inf
    assert a.verdict == b.verdict
    assert np.array_equal(a.dispersion.values, b.dispersion.values)
    assert np.array_equal(a.modulus.values, b.modulus.values)
    assert a.constants == b.constants
    assert a.escape == b.escape
    assert a.diagnostics == b.diagnostics


# ---------------------------------------------------------------------------
# the batched sup-search engine


# float.hex of the drift_dispersion values (12 radii in [1, 1e5], 4 pairs)
# and modulus values (lam 0.5, s0 50, 12 points, 4 pairs)
SUP_SEARCH_BITS = {
    ("radial_expand", 3, 0): ((
        "0x1.999999999999dp-1", "0x1.56e6deb74b978p+1", "0x1.4b55eeaf068cep+2",
        "0x1.9300dcd5f625bp+3", "0x1.0f4b7b988a09cp+5", "0x1.7ac8eaab33b2ap+6",
        "0x1.29d247a4bb980p+2", "0x1.0482a0ab388d1p+2", "0x1.008c2ef83eb0ep+2",
        "0x1.0011400902d0ap+2", "0x1.0002204dcc9acp+2", "0x1.0000431a3849dp+2",
    ), (
        "0x1.19799812de53dp-39", "0x1.b9b489ab34355p-35", "0x1.5a92cd7b16cedp-30",
        "0x1.0fee39eb13fb1p-25", "0x1.aaba445e88352p-21", "0x1.4ed220e5a3152p-16",
        "0x1.06b17f7310216p-11", "0x1.9b9c51cf2ed3ap-7", "0x1.372e5b2c73acfp-2",
        "0x1.fdcacef924aa4p+1", "0x1.85a955ff7f7f4p+3", "0x1.a051e3235a459p+5",
    )),
    ("radial_expand", 3, 3): ((
        "0x1.999999999999dp-1", "0x1.56e6deb74b978p+1", "0x1.4b55eeaf068cep+2",
        "0x1.9300dcd5f625bp+3", "0x1.0f4b7b988a09cp+5", "0x1.7ac8eaab33b2cp+6",
        "0x1.29d247a4bb980p+2", "0x1.0482a0ab388d1p+2", "0x1.008c2ef83eb0ep+2",
        "0x1.0011400902d0ap+2", "0x1.0002204dcc9abp+2", "0x1.0000431a3849dp+2",
    ), (
        "0x1.19799812de53dp-39", "0x1.b9b489ab34355p-35", "0x1.5a92cd7b16cedp-30",
        "0x1.0fee39eb13fb1p-25", "0x1.aaba445e88352p-21", "0x1.4ed220e5a3152p-16",
        "0x1.06b17f7310216p-11", "0x1.9b9c51cf2ed3ap-7", "0x1.372e5b2c73acfp-2",
        "0x1.fdcacef924aa4p+1", "0x1.85a955ff7f7f4p+3", "0x1.a051e3235a45ap+5",
    )),
    ("var_q_const_b", 2, 0): ((
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
    ), (
        "0x1.1979990ba75c3p-42", "0x1.b9b489f876381p-38", "0x1.5a92cd83af6f9p-33",
        "0x1.0fee39e6ccc28p-28", "0x1.aaba4371d91e8p-24", "0x1.4ed20ea6a7c54p-19",
        "0x1.06b017f82a485p-14", "0x1.9b64eb89e5d86p-10", "0x1.32cb05070dd84p-5",
        "0x1.0000000000000p-2", "0x1.0000000000000p-2", "0x1.0000000000000p-2",
    )),
    ("var_q_const_b", 2, 3): ((
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
    ), (
        "0x1.1979998dad5b9p-42", "0x1.b9b489ce6da01p-38", "0x1.5a92cd893d217p-33",
        "0x1.0fee39e5fea18p-28", "0x1.aaba437219ac6p-24", "0x1.4ed20ea6a75dcp-19",
        "0x1.06b017f827afcp-14", "0x1.9b64eb89e67abp-10", "0x1.32cb05070dd84p-5",
        "0x1.0000000000000p-2", "0x1.0000000000000p-2", "0x1.0000000000000p-2",
    )),
    ("log_example", 1, 0): ((
        "0x1.350e12a0687c9p+0", "0x1.b27923bd0b6acp+1", "0x1.9fddf00571c72p+2",
        "0x1.0cc24ef60c604p+4", "0x1.75348d134c411p+5", "0x1.07c9c235547d3p+7",
        "0x1.0473aa56344e8p+1", "0x1.a2495237bdf1fp+0", "0x1.863a843a5a1e4p+0",
        "0x1.75728b90bc687p+0", "0x1.68ca04f27a533p+0", "0x1.5ea4989d3479fp+0",
    ), (
        "0x1.b944553473ed9p-39", "0x1.5a3ac385237d3p-34", "0x1.0fa9261c52f9bp-29",
        "0x1.aa4de08f45139p-25", "0x1.4e7d475dc7bc2p-20", "0x1.0672c79639a1ap-15",
        "0x1.9bd19f5a00cc2p-11", "0x1.428e904df036fp-6", "0x1.e4ba6f299dd41p-2",
        "0x1.60241c64e45afp+2", "0x1.efd4e550c7165p+3", "0x1.1cb9cada3a246p+6",
    )),
    ("radial_expand", 8, 0): ((
        "0x1.999999999999dp-1", "0x1.56e6deb74b979p+1", "0x1.4b55eeaf068cep+2",
        "0x1.9300dcd5f625ap+3", "0x1.0f4b7b988a09cp+5", "0x1.7ac8eaab33b29p+6",
        "0x1.29d247a4bb980p+2", "0x1.0482a0ab388d1p+2", "0x1.008c2ef83eb0ep+2",
        "0x1.0011400902d0ap+2", "0x1.0002204dcc9abp+2", "0x1.0000431a3849dp+2",
    ), (
        "0x1.19799812de53dp-39", "0x1.b9b489ab34355p-35", "0x1.5a92cd7b16cedp-30",
        "0x1.0fee39eb13fb1p-25", "0x1.aaba445e88352p-21", "0x1.4ed220e5a3152p-16",
        "0x1.06b17f7310215p-11", "0x1.9b9c51cf2ed3ap-7", "0x1.372e5b2c73acep-2",
        "0x1.fdcacef924aa4p+1", "0x1.85a955ff7f7f3p+3", "0x1.a051e3235a459p+5",
    )),
}

# the same values from the engine that ended a radius only when every
# start's steps fell below the floors (the first four recorded from the
# one-radius-at-a-time ascent that the batched sup-search replaced); a
# radius now stops no later, on the same trajectory, so no value is above
SUP_SEARCH_BITS_PARENT = {
    ("radial_expand", 3, 0): ((
        "0x1.999999999999dp-1", "0x1.56e6deb74b979p+1", "0x1.4b55eeaf068cfp+2",
        "0x1.9300dcd5f625bp+3", "0x1.0f4b7b988a09dp+5", "0x1.7ac8eaab33b2cp+6",
        "0x1.29d247a4bb982p+2", "0x1.0482a0ab388d2p+2", "0x1.008c2ef83eb0fp+2",
        "0x1.0011400902d0bp+2", "0x1.0002204dcc9acp+2", "0x1.0000431a3849dp+2",
    ), (
        "0x1.19799812de53dp-39", "0x1.b9b489ab34355p-35", "0x1.5a92cd7b16cedp-30",
        "0x1.0fee39eb13fb1p-25", "0x1.aaba445e88352p-21", "0x1.4ed220e5a3152p-16",
        "0x1.06b17f7310216p-11", "0x1.9b9c51cf2ed3ap-7", "0x1.372e5b2c73acfp-2",
        "0x1.fdcacef924aa5p+1", "0x1.85a955ff7f7f4p+3", "0x1.a051e3235a45ap+5",
    )),
    ("radial_expand", 3, 3): ((
        "0x1.999999999999dp-1", "0x1.56e6deb74b979p+1", "0x1.4b55eeaf068cep+2",
        "0x1.9300dcd5f625dp+3", "0x1.0f4b7b988a09dp+5", "0x1.7ac8eaab33b2cp+6",
        "0x1.29d247a4bb982p+2", "0x1.0482a0ab388d2p+2", "0x1.008c2ef83eb0fp+2",
        "0x1.0011400902d0ap+2", "0x1.0002204dcc9acp+2", "0x1.0000431a3849dp+2",
    ), (
        "0x1.19799812de53dp-39", "0x1.b9b489ab34355p-35", "0x1.5a92cd7b16cedp-30",
        "0x1.0fee39eb13fb1p-25", "0x1.aaba445e88352p-21", "0x1.4ed220e5a3152p-16",
        "0x1.06b17f7310216p-11", "0x1.9b9c51cf2ed3ap-7", "0x1.372e5b2c73acfp-2",
        "0x1.fdcacef924aa5p+1", "0x1.85a955ff7f7f6p+3", "0x1.a051e3235a45ap+5",
    )),
    ("var_q_const_b", 2, 0): ((
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
    ), (
        "0x1.1979990ba75c3p-42", "0x1.b9b489f876381p-38", "0x1.5a92cd83af6f9p-33",
        "0x1.0fee39e6ccc28p-28", "0x1.aaba4371d91e8p-24", "0x1.4ed20ea6a7c54p-19",
        "0x1.06b017f82a485p-14", "0x1.9b64eb89e5d86p-10", "0x1.32cb05070dd84p-5",
        "0x1.0000000000000p-2", "0x1.0000000000000p-2", "0x1.0000000000000p-2",
    )),
    ("var_q_const_b", 2, 3): ((
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
    ), (
        "0x1.1979998dad5b9p-42", "0x1.b9b489ce6da01p-38", "0x1.5a92cd893d217p-33",
        "0x1.0fee39e5fea18p-28", "0x1.aaba437219ac6p-24", "0x1.4ed20ea6a75dcp-19",
        "0x1.06b017f827afcp-14", "0x1.9b64eb89e67abp-10", "0x1.32cb05070dd84p-5",
        "0x1.0000000000000p-2", "0x1.0000000000000p-2", "0x1.0000000000000p-2",
    )),
    # these two recorded from the batched engine before its moves became
    # masked row copies and its row norms column sums: d = 1 makes no
    # direction moves, and d = 8 takes the np.linalg.norm fallback (both
    # stages stop some radii at the sweep cap)
    ("log_example", 1, 0): ((
        "0x1.350e12a0687cap+0", "0x1.b27923bd0b6acp+1", "0x1.9fddf00571c72p+2",
        "0x1.0cc24ef60c604p+4", "0x1.75348d134c411p+5", "0x1.07c9c235547d3p+7",
        "0x1.0473aa56344e8p+1", "0x1.a2495237bdf1fp+0", "0x1.863a843a5a1e4p+0",
        "0x1.75728b90bc687p+0", "0x1.68ca04f27a533p+0", "0x1.5ea4989d347a0p+0",
    ), (
        "0x1.b944553473edbp-39", "0x1.5a3ac385237d6p-34", "0x1.0fa9261c52f9bp-29",
        "0x1.aa4de08f4513ap-25", "0x1.4e7d475dc7bc2p-20", "0x1.0672c79639a1cp-15",
        "0x1.9bd19f5a00cc2p-11", "0x1.428e904df0370p-6", "0x1.e4ba6f299dd44p-2",
        "0x1.60241c64e45b0p+2", "0x1.efd4e550c7165p+3", "0x1.1cb9cada3a246p+6",
    )),
    ("radial_expand", 8, 0): ((
        "0x1.999999999999dp-1", "0x1.56e6deb74b979p+1", "0x1.4b55eeaf068cep+2",
        "0x1.9300dcd5f625bp+3", "0x1.0f4b7b988a09dp+5", "0x1.7ac8eaab33b29p+6",
        "0x1.29d247a4bb980p+2", "0x1.0482a0ab388d1p+2", "0x1.008c2ef83eb0ep+2",
        "0x1.0011400902d0ap+2", "0x1.0002204dcc9acp+2", "0x1.0000431a3849dp+2",
    ), (
        "0x1.19799812de53ep-39", "0x1.b9b489ab34355p-35", "0x1.5a92cd7b16ceep-30",
        "0x1.0fee39eb13fb1p-25", "0x1.aaba445e88353p-21", "0x1.4ed220e5a3153p-16",
        "0x1.06b17f7310216p-11", "0x1.9b9c51cf2ed3ap-7", "0x1.372e5b2c73acfp-2",
        "0x1.fdcacef924aa5p+1", "0x1.85a955ff7f7f3p+3", "0x1.a051e3235a459p+5",
    )),
}
SUP_SEARCH_PARAMS = {"log_example": [0.25]}


@pytest.mark.parametrize("name, dim, seed", sorted(SUP_SEARCH_BITS))
def test_sup_search_values_match_recorded_bits(name, dim, seed):
    field = ll.make_standard_fields(name, dim, SUP_SEARCH_PARAMS.get(name, ()))
    curve = ll.drift_dispersion(field, np.geomspace(1.0, 1e5, 12), n_pairs=4,
                                seed=seed)
    prof = ll.modulus(field, 0.5, 50.0, n_pairs=4, grid_size=12, seed=seed)
    disp_bits, mod_bits = SUP_SEARCH_BITS[(name, dim, seed)]
    assert [v.hex() for v in curve.values.tolist()] == list(disp_bits)
    assert [v.hex() for v in prof.values.tolist()] == list(mod_bits)


@pytest.mark.parametrize("key", sorted(SUP_SEARCH_BITS))
def test_sup_search_values_stay_at_or_below_the_parent_pins(key):
    for bits, parent_bits in zip(SUP_SEARCH_BITS[key],
                                 SUP_SEARCH_BITS_PARENT[key]):
        values = np.array([float.fromhex(h) for h in bits])
        parent = np.array([float.fromhex(h) for h in parent_bits])
        assert np.all(values <= parent)
        np.testing.assert_allclose(values, parent, rtol=1e-9, atol=0)


ENGINE_FIELDS = {
    "zero": lambda: ll.make_standard_fields("zero", 2),
    "ou": lambda: ll.make_standard_fields("ou", 2),
    "var_q_const_b": lambda: ll.make_standard_fields("var_q_const_b", 3, [0.9]),
    "radial_expand": lambda: ll.make_standard_fields("radial_expand", 3),
    "log_example": lambda: ll.make_log_example(0.25),
    "expression": lambda: ll.field_from_expressions(
        2, ["sin(x2) + log(1 + x1^2)", "-x2*sqrt(1 + x1^2)/10"],
        ["1.5 + sin(x1)", "0", "0", "1.5 + sin(x1)"]),
}


@pytest.mark.parametrize("name", sorted(ENGINE_FIELDS))
def test_stacked_radii_refine_as_each_radius_alone(name):
    # the modulus objective, which reads both the drift and q
    field = ENGINE_FIELDS[name]()

    def objective(m, e, s):
        pts = crit._pair_points(m, e, s)
        k = m.shape[0]
        b = field.drift(pts)
        q = field.diffusion(pts)
        dq = q[:k] - q[k:]
        return (2.0 * s * np.einsum("ij,ij->i", e, b[:k] - b[k:])
                + 0.7 * np.einsum("nij,nij->n", dq, dq))

    radii = np.geomspace(1e-3, 1e4, 8)
    m0, e0 = crit._stacked_starts(5, _streams.DOMAIN_MODULUS, radii.size, 3,
                                  field.dim, 100.0)
    values, sweeps = crit._refine_sup(objective, m0, e0, radii, 100.0)
    for i in range(radii.size):
        alone = crit._refine_sup(objective, m0[i:i + 1], e0[i:i + 1],
                                 radii[i:i + 1], 100.0)
        assert alone[0][0].hex() == values[i].hex()
        assert alone[1][0] == sweeps[i]
    assert np.all((sweeps >= 1) & (sweeps <= crit._MAX_SWEEPS))


def test_nan_objective_is_a_named_error():
    field = ll.field_from_expressions(2, ["-x1 + 0*sqrt(x1*x2 + 1)", "-x2"])
    with pytest.raises(ll.CoefficientEvaluationError,
                       match=r"NaN at the pair x = .* \(separation 1\)"):
        ll.drift_dispersion(field, np.geomspace(1.0, 1e5, 12), n_pairs=4)


def test_pipeline_names_radii_stopped_at_the_sweep_cap(monkeypatch):
    # unpatched, the stall rule ends these 12 radii after 20 to 78 sweeps;
    # a cap of 40 cuts the four that run longer
    field = ll.make_standard_fields("radial_expand", 3)
    cfg = ll.RunConfig(radii_points=12, n_pairs=4, ellipticity_samples=500,
                       seed=1)
    free = ll.evaluate_liouville_criterion(field, cfg).dispersion.sweeps
    monkeypatch.setattr(crit, "_MAX_SWEEPS", 40)
    rep = ll.evaluate_liouville_criterion(field, cfg)
    capped = int(np.sum(rep.dispersion.sweeps == crit._MAX_SWEEPS))
    assert 0 < capped < 12
    assert ("stage dispersion: 4 of 12 radii still rising at the "
            "40-sweep cap") in rep.diagnostics
    # a radius the stall rule ends before the cap is not counted
    assert np.array_equal(rep.dispersion.sweeps, np.minimum(free, 40))
    assert not any(d.startswith("stage modulus:") for d in rep.diagnostics)


def test_infinite_sup_ends_on_the_stall_rule():
    # the objective overflows to +inf once m[0] > 70.9; inf - inf in a
    # candidate's stall test keeps its steps, but the best stops rising
    def objective(m, e, s):
        return s * np.exp(10.0 * m[:, 0])

    radii = np.geomspace(1.0, 1e3, 6)
    m0, e0 = crit._stacked_starts(0, _streams.DOMAIN_DISPERSION, radii.size,
                                  4, 2, 100.0)
    values, sweeps = crit._refine_sup(objective, m0, e0, radii, 100.0)
    assert np.all(values == np.inf)
    assert np.all(sweeps < crit._MAX_SWEEPS)
    assert crit._cap_notes("dispersion", sweeps) == []
