"""Acceptance gate: ten end-to-end criteria, one test each.

``pytest tests/test_acceptance.py -v`` prints one pass/fail line per
criterion.  Every tolerance is pinned inline; criteria with a runtime
budget time themselves.

Criterion 2 checks the 4*delta dispersion limit of the logarithmic
family in the two forms the estimator promises.  ``asymptotic_dispersion``
is a truncated limsup surrogate, the max of kappa over the largest radii,
and every kappa value is a certified lower bound of the window sup that
always includes the antipodal pair.  The family approaches its limit only
at rate O(1/log s): the antipodal value at s = 1e5 still exceeds 4*delta
by 8/log(2 + s^2/4) ~ 0.37, so no estimator keeping that contract can land
within 2% of 4*delta from radii <= 1e5.  The criterion therefore asks
(a) that the tail estimate match the closed-form antipodal value at the
finite radii, and (b) that a least-squares fit of the tail in the family's
exact variable 1/log(2 + s^2/4) recover 4*delta, each within 2% of 4*delta.
"""

import math
import time

import numpy as np
import pytest

import liouville_lab as ll
import liouville_lab.cli as ll_cli


# ---------------------------------------------------------------------------
# 1. sharpness of the delta = 1/2 boundary in the 1D log family


def test_criterion_01_sharpness_of_the_boundary():
    t0 = time.monotonic()
    for delta in (0.1, 0.25, 0.4, 0.49):
        assert ll.liouville_verdict_1d(delta) is True, f"delta={delta}"
    for delta in (0.5, 0.51, 0.75, 1.0, 2.0):
        assert ll.liouville_verdict_1d(delta) is False, f"delta={delta}"
    assert time.monotonic() - t0 < 30.0


# ---------------------------------------------------------------------------
# 2. recovery of the 4*delta dispersion limit.  The tail max cannot itself
#    be within 2% of 4*delta: the antipodal pair it always includes exceeds
#    the limit by ~8/log(2 + s^2/4) ~ 0.37 even at s = 1e5 (see the module
#    docstring).  So the tail is checked against that pair's closed form,
#    and the limit is the intercept of a fit in 1/log(2 + s^2/4).


def _log_antipodal(delta, s):
    w = 2.0 + s * s / 4.0
    return s * s / w * (delta + 2.0 / np.log(w))


def test_criterion_02_dispersion_limit_recovery():
    t0 = time.monotonic()
    radii = np.geomspace(1.0, 1e5, 48)
    tail_fraction = 0.2
    curves, estimates = {}, {}
    for delta in (0.25, 1.0):
        curves[delta] = ll.drift_dispersion(ll.make_log_example(delta), radii,
                                            n_pairs=32, seed=0)
        estimates[delta] = ll.asymptotic_dispersion(curves[delta],
                                                    tail_fraction)
    assert time.monotonic() - t0 < 60.0
    s = radii[radii.size - math.ceil(tail_fraction * radii.size):]
    for delta in (0.25, 1.0):
        target = 4.0 * delta
        band = 0.02 * target
        # (a) the tail max sits at or just above the antipodal closed form,
        #     the window search adding only a tiny finite-radius excess
        closed = float(_log_antipodal(delta, s).max())
        est = estimates[delta]
        assert closed * (1.0 - 1e-12) <= est <= closed + band, (
            f"delta={delta}: tail estimate {est:.6f} vs closed-form "
            f"antipodal tail max {closed:.6f} (band {band:g})")
        # (b) kappa(s) ~ a + beta/log(2 + s^2/4) over the tail: a is 4*delta
        design = np.column_stack([np.ones(s.size),
                                  1.0 / np.log(2.0 + s * s / 4.0)])
        tail_values = curves[delta].values[-s.size:]
        (a, beta), *_ = np.linalg.lstsq(design, tail_values, rcond=None)
        assert abs(a - target) <= band, (
            f"delta={delta}: fitted limit {a:.6f} vs {target} "
            f"(relative error {abs(a - target) / target:.2%}, beta={beta:.3f})")


# ---------------------------------------------------------------------------
# 3. threshold value and the verdict flip across delta = 1/2


def test_criterion_03_threshold_consistency_and_verdict_flip():
    unit = ll.EllipticityBounds(lambda0=1.0, Lambda0=1.0,
                                domain_radius=100.0, n_samples=1)
    for dim in (1, 2, 3, 4):
        assert ll.theorem_threshold(unit, dim) == 2.0
    # larger radii shrink the log-family correction enough to separate
    # the two sides of the boundary at the stated deltas
    cfg = ll.RunConfig(seed=0, radii_max=1e8, ellipticity_samples=4000)
    below = ll.evaluate_liouville_criterion(ll.make_log_example(0.4), cfg)
    above = ll.evaluate_liouville_criterion(ll.make_log_example(0.6), cfg)
    assert below.verdict == ll.VERDICT_GUARANTEED
    assert above.verdict == ll.VERDICT_INCONCLUSIVE
    assert below.kappa_inf < below.threshold <= above.kappa_inf


# ---------------------------------------------------------------------------
# 4. the classical contraction condition fails where the dispersion
#    criterion still certifies the Liouville property


def test_criterion_04_classic_condition_separation(log_field_025,
                                                   unit_bounds):
    rng = np.random.default_rng(0)
    pairs = list(zip(rng.uniform(-5.0, 5.0, size=(255, 1)),
                     rng.uniform(-1.0, 1.0, size=(255, 1))))
    # x = 0, h = 0.1: the q-difference term vanishes (constant q) and
    # 2*h*(b(h) - b(0)) = 0.2*b(0.1) > 0 since b is positive on (0, inf)
    pairs.append((np.array([0.0]), np.array([0.1])))
    classic = ll.classic_condition_check(log_field_025, unit_bounds, pairs)
    assert not classic.holds
    assert classic.max_value > 0.0

    first = ll.evaluate_liouville_criterion(log_field_025)
    assert first.verdict == ll.VERDICT_GUARANTEED

    second = ll.evaluate_liouville_criterion(log_field_025)
    assert second.verdict == first.verdict
    assert second.kappa_inf == first.kappa_inf
    assert np.array_equal(second.dispersion.values, first.dispersion.values)
    assert second.constants == first.constants


# ---------------------------------------------------------------------------
# 5. noise-splitting identities for the variable-diffusion field


def test_criterion_05_noise_split_identities(var_q_field, var_q_bounds):
    mu = var_q_bounds.lambda0 / 2.0  # lambda0 is exactly 1 for this field
    rng = np.random.default_rng(42)

    points = rng.uniform(-10.0, 10.0, size=(1000, 2))
    qs = np.asarray(var_q_field.diffusion(points), dtype=float)
    eye = np.eye(2)
    for q in qs:
        sigma = ll.shifted_sqrt(q, mu)
        assert ll.hs_norm(sigma @ sigma + mu * eye - q) <= 1e-9 * ll.hs_norm(q)

    pairs = rng.uniform(-10.0, 10.0, size=(1000, 2, 2))
    rep = ll.check_sigma_bounds(var_q_field, var_q_bounds, mu, pairs,
                                tolerance=1e-8)
    assert rep.n_violations_lipschitz == 0
    assert rep.n_violations_trace == 0
    assert rep.worst_slack_lipschitz >= -1e-8
    assert rep.worst_slack_trace >= -1e-8


# ---------------------------------------------------------------------------
# 6. escape-integral divergence decision vs brute-force partial integrals


def _power_tail_escape(s2, r_max):
    # zero modulus head with s0 = 1 makes the integrand exactly
    # r^(-s2/(4*mu)) past 1 with prefactor 1; mu = 1/4 puts the tail
    # exponent at s2 itself
    radii = np.geomspace(1e-3, 1.0, 8)
    prof = ll.modulus_profile_from_samples(0.5, radii, np.zeros(8))
    cons = ll.CriterionConstants(mu=0.25, s0=1.0, s1=(s2 - 0.5) / 2,
                                 s2=s2, lam=0.5)
    g = ll.build_g(prof, cons)
    return ll.escape_integral_divergent(g, cons, r_max=r_max)


def test_criterion_06_escape_integral_tail_classification():
    partial = {(e, r): _power_tail_escape(e, r).partial_integral
               for e in (0.5, 1.0, 2.0) for r in (1e3, 1e6)}
    assert _power_tail_escape(0.5, 1e6).divergent is True
    assert _power_tail_escape(1.0, 1e6).divergent is True
    assert _power_tail_escape(2.0, 1e6).divergent is False

    # exponent 1/2: still growing by more than 1.5x per decade of r_max
    per_decade = (partial[(0.5, 1e6)] / partial[(0.5, 1e3)]) ** (1.0 / 3.0)
    assert per_decade > 1.5

    # exponent 1: the growth ratio is 1 + the log increment over the base
    increment = math.log(1e6) - math.log(1e3)
    assert partial[(1.0, 1e6)] / partial[(1.0, 1e3)] == pytest.approx(
        1.0 + increment / partial[(1.0, 1e3)], rel=1e-2)

    # exponent 2: saturated, relative tail below 1e-3
    rel_tail = ((partial[(2.0, 1e6)] - partial[(2.0, 1e3)])
                / partial[(2.0, 1e6)])
    assert 0.0 <= rel_tail < 1e-3


# ---------------------------------------------------------------------------
# 7. reflection-coupling probability against the closed form


def _std_normal_cdf(z):
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def test_criterion_07_driftless_coupling_closed_form(unit_bounds):
    field = ll.make_standard_fields("zero", 1)
    t0 = time.monotonic()
    for horizon in (1.0, 10.0):
        cfg = ll.RunConfig(coupling_mu=0.5, coupling_t_max=horizon,
                           n_paths=10**4, coupling_dt=1e-3, seed=11)
        stats = ll.simulate_coupling(field, unit_bounds, cfg, [0.5], [-0.5])
        # |X - Y| is a Brownian motion with variance 4*mu per unit time,
        # absorbed at 0; the reflection principle gives the hitting law
        p_true = 2.0 * (1.0 - _std_normal_cdf(
            1.0 / math.sqrt(4.0 * 0.5 * horizon)))
        assert abs(stats.p_couple - p_true) <= 3.0 * stats.ci_halfwidth, (
            f"T={horizon}: p = {stats.p_couple:.5f} vs closed form "
            f"{p_true:.5f} (halfwidth {stats.ci_halfwidth:.5f})")
    assert time.monotonic() - t0 < 300.0


# ---------------------------------------------------------------------------
# 8. coupling probability coheres with the Liouville verdicts: the
#    contracting field couples almost surely, while a bounded nonconstant
#    harmonic function caps the coupling probability from far-apart starts


def test_criterion_08_coupling_probability_vs_oscillation(profile_2,
                                                          log_field_2,
                                                          unit_bounds):
    cfg = ll.RunConfig(coupling_mu=0.9, coupling_t_max=50.0, n_paths=10**4,
                       coupling_dt=1e-3, seed=5)
    contracting = ll.field_from_expressions(2, ["-x1", "-x2"],
                                            label="contracting-2d")
    st_c = ll.simulate_coupling(contracting, unit_bounds, cfg,
                                [0.5, 0.0], [-0.5, 0.0])
    assert st_c.p_couple >= 0.99

    osc = ll.oscillation_bound(profile_2, 5.0, -5.0)
    st_l = ll.simulate_coupling(log_field_2, unit_bounds, cfg, [5.0], [-5.0])
    assert st_l.p_couple <= 1.0 - osc + 3.0 * st_l.ci_halfwidth, (
        f"p = {st_l.p_couple:.6f} vs cap {1.0 - osc:.6f} + "
        f"{3.0 * st_l.ci_halfwidth:.6f}")


# ---------------------------------------------------------------------------
# 9. space-time harmonic functions are martingales along simulated paths


def test_criterion_09_martingale_property(profile_075, log_field_075,
                                          unit_bounds):
    for dim in (1, 3):
        field = ll.make_standard_fields("zero", dim)

        def u(t, x, dim=dim):
            x = np.asarray(x, dtype=float)
            return (x * x).sum(axis=-1) - dim * t

        mean, stderr = ll.martingale_check(field, unit_bounds, u, mu=0.5,
                                           x0=np.zeros(dim), t=1.0,
                                           n_paths=10**4, dt=1e-3, seed=3)
        assert abs(mean - 0.0) <= 3.0 * stderr + 0.01, (dim, mean, stderr)

    def u_log(t, x):
        return profile_075.u_at(np.asarray(x, dtype=float)[..., 0])

    mean, stderr = ll.martingale_check(log_field_075, unit_bounds, u_log,
                                       mu=0.5, x0=[1.0], t=10.0,
                                       n_paths=10**4, dt=1e-3, seed=9)
    target = float(profile_075.u_at(1.0))
    assert abs(mean - target) <= 3.0 * stderr + 0.01, (mean, target, stderr)


# ---------------------------------------------------------------------------
# 10. two identical full runs produce byte-identical reports


def test_criterion_10_full_run_determinism(tmp_path):
    flags = [
        "full", "--field", "log_example", "--params", "0.25", "--seed", "7",
        "--radii-points", "24", "--pairs", "16",
        "--ellipticity-samples", "2000",
        "--modulus-points", "24", "--modulus-pairs", "8",
        "--n-paths", "200", "--t-max", "1.0", "--mu", "0.5",
        "--x0", "1.0", "--y0", "-1.0",
    ]
    # identical config includes the output directory (it is part of the
    # emitted config text), so the rerun overwrites the first report
    out = tmp_path / "run"
    reports = []
    for _ in range(2):
        assert ll_cli.main(flags + ["--output", str(out)]) == 0
        reports.append((out / "report.json").read_bytes())
    assert reports[0] == reports[1]
