"""Coefficient fields: catalogue closed forms, expressions, ellipticity."""

import math

import numpy as np
import pytest

import liouville_lab as ll


# ---------------------------------------------------------------------------
# eval_drift / closed forms


def test_log_drift_vanishes_at_origin():
    field = ll.make_log_example(0.3)
    assert ll.eval_drift(field, np.array([0.0]))[0] == 0.0


def test_ou_drift_is_minus_x():
    field = ll.make_standard_fields("ou", 2)
    np.testing.assert_array_equal(
        ll.eval_drift(field, np.array([1.0, 2.0])), np.array([-1.0, -2.0])
    )


def test_log_drift_hand_value():
    # b(1) = 1/(2+1) * (delta + 2/log(2+1))
    field = ll.make_log_example(0.5)
    expected = (1.0 / 3.0) * (0.5 + 2.0 / math.log(3.0))
    assert ll.eval_drift(field, np.array([1.0]))[0] == pytest.approx(expected, rel=1e-14)


def test_log_drift_delta_zero_form():
    field = ll.make_log_example(0.0)
    for x in (0.5, 1.0, 3.0, 20.0):
        expected = 2.0 * x / ((2.0 + x * x) * math.log(2.0 + x * x))
        assert ll.eval_drift(field, np.array([x]))[0] == pytest.approx(expected, rel=1e-14)


def test_log_drift_odd():
    field = ll.make_log_example(0.3)
    for x in (0.5, 1.0, 7.0):
        plus = ll.eval_drift(field, np.array([x]))[0]
        minus = ll.eval_drift(field, np.array([-x]))[0]
        assert minus == -plus


def test_log_drift_decays_at_infinity():
    field = ll.make_log_example(1.0)
    assert abs(ll.eval_drift(field, np.array([1e6]))[0]) < 1e-5


def test_catalogue_closed_forms_random_points():
    """Every catalogue member matches its documented closed form at 100 points."""
    rng = np.random.default_rng(99)

    def log_b(x, delta):
        return x / (2 + x**2) * (delta + 2.0 / np.log(2 + x**2))

    cases = [
        ("zero", 3, (), lambda x: np.zeros(3), lambda x: np.eye(3)),
        ("ou", 2, (), lambda x: -x, lambda x: np.eye(2)),
        (
            "var_q_const_b",
            2,
            (0.5,),
            lambda x: np.array([1.0, 0.0]),
            lambda x: (1 + 0.5 * np.sin(np.linalg.norm(x)) ** 2) * np.eye(2),
        ),
        (
            "radial_expand",
            3,
            (2.0,),
            lambda x: 2.0 * x / (1 + x @ x),
            lambda x: np.eye(3),
        ),
        ("log_example", 1, (0.3,), lambda x: log_b(x, 0.3), lambda x: np.eye(1)),
    ]
    for name, dim, params, b_ref, q_ref in cases:
        field = ll.make_standard_fields(name, dim, params)
        for _ in range(100):
            x = rng.uniform(-20, 20, size=dim)
            np.testing.assert_allclose(
                ll.eval_drift(field, x), b_ref(x), rtol=1e-12, atol=1e-12
            )
            np.testing.assert_allclose(
                ll.eval_diffusion(field, x), q_ref(x), rtol=1e-12, atol=1e-12
            )


def test_eval_deterministic_bit_identical():
    field = ll.make_standard_fields("var_q_const_b", 2, [0.5])
    x = np.array([0.3, -1.7])
    assert np.array_equal(ll.eval_drift(field, x), ll.eval_drift(field, x))
    assert np.array_equal(ll.eval_diffusion(field, x), ll.eval_diffusion(field, x))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_eval_drift_rejects_nonfinite_output():
    # pole placed off the construction-time probe lattice
    field = ll.field_from_expressions(1, ["1/(x1 - 0.1234567)"])
    with pytest.raises(ll.CoefficientEvaluationError):
        ll.eval_drift(field, np.array([0.1234567]))


def test_catalogue_unknown_name():
    with pytest.raises(ll.CatalogueError):
        ll.make_standard_fields("does_not_exist", 2)


def test_catalogue_param_count_enforced():
    with pytest.raises(ll.CatalogueError):
        ll.make_standard_fields("zero", 3, [1.0])
    with pytest.raises(ll.CatalogueError):
        ll.make_standard_fields("log_example", 1, [])


def test_log_example_requires_dim_one():
    with pytest.raises(ll.CatalogueError):
        ll.make_standard_fields("log_example", 2, [0.25])


# ---------------------------------------------------------------------------
# the 4*delta dispersion identity for the log family
#
# The antipodal pair at separation s satisfies exactly
#   s*(b(s/2) - b(-s/2)) = 2s*b(s/2) = s^2/(2 + s^2/4) * (delta + 2/log(2 + s^2/4)),
# which tends to 4*delta as s -> infinity, but only at rate O(1/log s): the gap
# at s = 1e5 is ~8/log(2 + s^2/4) = 8/log(2.5e9) ~ 0.37 in absolute terms.


def _antipodal_value(field, s):
    return 2.0 * s * ll.eval_drift(field, np.array([s / 2.0]))[0]


def test_antipodal_dispersion_identity_exact():
    for delta in (0.25, 1.0):
        field = ll.make_log_example(delta)
        for s in (1e2, 1e3, 1e5):
            closed = s * s / (2 + s * s / 4) * (delta + 2.0 / math.log(2 + s * s / 4))
            assert _antipodal_value(field, s) == pytest.approx(closed, rel=1e-12)


def test_antipodal_dispersion_approaches_limit_monotonically():
    for delta in (0.25, 1.0):
        field = ll.make_log_example(delta)
        gaps = [abs(_antipodal_value(field, s) - 4 * delta) for s in (1e2, 1e3, 1e4, 1e5)]
        assert all(g1 > g2 for g1, g2 in zip(gaps, gaps[1:]))


def test_antipodal_dispersion_near_limit_at_1e5():
    # the gap is 8/log(2 + s^2/4) up to a relative O(log(s)/s^2) term
    field = ll.make_log_example(0.25)
    s = 1e5
    gap = _antipodal_value(field, s) - 1.0
    assert gap * math.log(2 + s * s / 4) / 8 == pytest.approx(1.0, abs=1e-6)


# ---------------------------------------------------------------------------
# expression sub-language


def test_expression_arithmetic_and_functions():
    field = ll.field_from_expressions(2, ["x1^2 - exp(-x2)", "sin(x1)*x2 + 1"])
    x = np.array([0.7, -1.2])
    expected = np.array(
        [0.49 - math.exp(1.2), math.sin(0.7) * (-1.2) + 1.0]
    )
    np.testing.assert_allclose(ll.eval_drift(field, x), expected, rtol=1e-14)


def test_expression_tanh_is_numpy_tanh():
    field = ll.field_from_expressions(1, ["tanh(x1)"])
    x = np.linspace(-30.0, 30.0, 601)[:, None]
    assert np.array_equal(field.drift(x), np.tanh(x))


def test_expression_norm_token():
    field = ll.field_from_expressions(3, ["|x|", "0", "0"])
    x = np.array([1.0, 2.0, 2.0])
    assert ll.eval_drift(field, x)[0] == pytest.approx(3.0, rel=1e-15)


def test_expression_norm_flags_smoothness():
    field = ll.field_from_expressions(2, ["-x1 + |x|", "0"])
    assert field.smoothness_note is not None
    smooth = ll.field_from_expressions(2, ["-x1", "0"])
    assert smooth.smoothness_note is None


def test_expression_diffusion_entries():
    field = ll.field_from_expressions(
        2, ["0", "0"], ["1.2", "0.3", "0.3", "1.0"]
    )
    np.testing.assert_allclose(
        ll.eval_diffusion(field, np.zeros(2)),
        np.array([[1.2, 0.3], [0.3, 1.0]]),
        rtol=1e-15,
    )
    assert field.constant_diffusion


@pytest.mark.parametrize(
    "expr",
    [
        "x0",          # coordinates are x1..xd
        "x3",          # out of range for d=2
        "foo(x1)",     # unknown function
        "x1.real",     # attribute access
        "__import__('os')",
        "x1 +",        # syntax error
        "lambda v: v",
    ],
)
def test_expression_rejects_bad_input(expr):
    with pytest.raises(ll.ExpressionError):
        ll.field_from_expressions(2, [expr, "0"])


def test_expression_diffusion_must_be_symmetric():
    # the full-matrix form is validated when evaluated
    field = ll.field_from_expressions(2, ["0", "0"], ["1", "0.5", "-0.5", "1"])
    with pytest.raises(ll.CoefficientEvaluationError):
        ll.eval_diffusion(field, np.zeros(2))


# ---------------------------------------------------------------------------
# estimate_ellipticity


def test_ellipticity_identity_q(unit_bounds):
    field = ll.make_standard_fields("zero", 3)
    b = ll.estimate_ellipticity(field, radius=5.0, n_samples=100, seed=0)
    assert b.lambda0 == 1.0
    assert b.Lambda0 == 1.0
    assert b.n_samples >= 100


def test_ellipticity_constant_diagonal():
    field = ll.field_from_expressions(2, ["0", "0"], ["1", "0", "0", "4"])
    b = ll.estimate_ellipticity(field, radius=3.0, n_samples=50, seed=1)
    assert b.lambda0 == pytest.approx(1.0, rel=1e-12)
    assert b.Lambda0 == pytest.approx(4.0, rel=1e-12)


def test_ellipticity_var_q(var_q_bounds):
    # analytic extrema of 1 + 0.5*sin^2 are 1.0 and 1.5; the origin is in the
    # deterministic sample lattice, so the lower bound is attained exactly
    assert var_q_bounds.lambda0 == 1.0
    assert var_q_bounds.Lambda0 == pytest.approx(1.5, abs=1e-3)


def test_ellipticity_monotone_in_sample_count(var_q_field):
    small = ll.estimate_ellipticity(var_q_field, radius=10.0, n_samples=2000, seed=3)
    big = ll.estimate_ellipticity(var_q_field, radius=10.0, n_samples=20000, seed=3)
    assert big.lambda0 <= small.lambda0
    assert big.Lambda0 >= small.Lambda0


def test_ellipticity_violation_detected():
    # q(x) = (1 - |x|^2/50)*I goes nonpositive inside the radius-10 ball
    field = ll.field_from_expressions(
        2, ["0", "0"], ["1 - (x1^2 + x2^2)/50", "0", "0", "1 - (x1^2 + x2^2)/50"]
    )
    with pytest.raises(ll.EllipticityViolation):
        ll.estimate_ellipticity(field, radius=10.0, n_samples=2000, seed=0)


def test_growth_bound_positive():
    for name, dim, params in [("zero", 2, ()), ("ou", 3, ()), ("log_example", 1, (2.0,))]:
        field = ll.make_standard_fields(name, dim, params)
        assert field.growth_bound >= 1.0
