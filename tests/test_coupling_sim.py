"""Reflection-coupled Euler scheme: kernel algebra, laws, martingale checks."""

import hashlib
import math
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import liouville_lab as ll
from liouville_lab import coupling_sim
from liouville_lab.config import DEFAULT_DT


D1_BOUNDS = ll.EllipticityBounds(1.0, 1.0, 10.0, 1)


def _floats(point):
    return tuple(float(v) for v in np.ravel(point))


def _coupling(mu, t_max, n_paths, x0=None, y0=None, dt=DEFAULT_DT,
              couple_radius=1e-3, escape_radius=None, seed=0,
              count_escaped_as_coupled=False, dim=1):
    """The RunConfig of one coupling experiment: the pair starts at x0 and
    y0 (-x0 unless given) in len(x0) dimensions, or at RunConfig's default
    start points in dim dimensions."""
    points = {}
    if x0 is not None:
        x0 = _floats(x0)
        y0 = tuple(-v for v in x0) if y0 is None else _floats(y0)
        points, dim = dict(coupling_x0=x0, coupling_y0=y0), len(x0)
    return ll.RunConfig(
        seed=seed, field_dim=dim, coupling_mu=mu, coupling_t_max=t_max,
        coupling_dt=dt, n_paths=n_paths,
        coupling_couple_radius=couple_radius,
        coupling_escape_radius=escape_radius,
        coupling_count_escaped=count_escaped_as_coupled, **points)


# ---------------------------------------------------------------------------
# reflection algebra


def test_reflection_matrix_involution_and_isometry(rng):
    for _ in range(100):
        d = int(rng.integers(1, 9))
        e = rng.normal(size=d)
        e /= np.linalg.norm(e)
        r = np.eye(d) - 2.0 * np.outer(e, e)
        assert np.max(np.abs(r @ r - np.eye(d))) <= 1e-12
        v = rng.normal(size=d)
        assert abs(np.linalg.norm(r @ v) - np.linalg.norm(v)) <= 1e-12


def _pair_step(field, x, y, mu, dt, noise):
    # one reflection-coupled Euler step of the pair (x, y), noise = (dB, dW)
    z = np.stack([x, y]).astype(float)
    dB, dW = (np.reshape(a, (1, -1)) for a in noise)
    kernel = coupling_sim._PairKernel(field, mu, dt, couple_radius=1e-300,
                                      escape_radius=math.inf)
    with np.errstate(all="ignore"):
        kernel.step(z, dB, dW)
    return z[0], z[1]


def test_coupled_step_reflects_additive_noise(rng):
    # recover the reflected increment from the update and check the isometry
    field = ll.make_standard_fields("ou", 3)
    mu, dt = 0.5, 1e-3
    for _ in range(50):
        x = rng.uniform(-2, 2, 3)
        y = rng.uniform(-2, 2, 3)
        if np.linalg.norm(x - y) < 1e-6:
            continue
        noise = (math.sqrt(dt) * rng.normal(size=3), math.sqrt(dt) * rng.normal(size=3))
        xn, yn = _pair_step(field, x, y, mu, dt, noise)
        sigma = ll.shifted_sqrt(np.eye(3), mu)
        refl = (yn - y - ll.eval_drift(field, y) * dt - sigma @ noise[0]) / math.sqrt(mu)
        assert abs(np.linalg.norm(refl) - np.linalg.norm(noise[1])) <= 1e-12
        e = (x - y) / np.linalg.norm(x - y)
        expected = noise[1] - 2.0 * e * float(e @ noise[1])
        np.testing.assert_allclose(refl, expected, atol=1e-12)


def test_coupled_step_synchronous_part_cancels_in_1d(rng):
    # q = I, d = 1: X - Y evolves by (b(X)-b(Y))dt + 2 sqrt(mu) dW exactly
    field = ll.make_standard_fields("zero", 1)
    mu, dt = 0.5, 1e-3
    for _ in range(50):
        x = np.array([rng.uniform(0.5, 2.0)])
        y = np.array([rng.uniform(-2.0, -0.5)])
        noise = (math.sqrt(dt) * rng.normal(size=1), math.sqrt(dt) * rng.normal(size=1))
        xn, yn = _pair_step(field, x, y, mu, dt, noise)
        predicted = (x - y) + 2.0 * math.sqrt(mu) * noise[1]
        assert abs((xn - yn) - predicted)[0] <= 1e-12


def test_one_step_increment_covariance(var_q_field):
    # X-increment covariance is q(x)*dt; checked on 1e5 reconstructed draws
    # plus exact agreement with the pair kernel on a subsample
    x0 = np.array([1.0, 0.5])
    y0 = np.array([-1.0, -0.5])
    mu, dt = 0.3, 1e-3
    q = ll.eval_diffusion(var_q_field, x0)
    sigma = ll.shifted_sqrt(q, mu)
    rng = np.random.default_rng(17)
    n = 100_000
    db = math.sqrt(dt) * rng.normal(size=(n, 2))
    dw = math.sqrt(dt) * rng.normal(size=(n, 2))
    inc = db @ sigma.T + math.sqrt(mu) * dw
    # cross-validate the reconstruction against the library kernel
    drift = ll.eval_drift(var_q_field, x0) * dt
    for i in range(40):
        xn, _ = _pair_step(var_q_field, x0, y0, mu, dt, (db[i], dw[i]))
        np.testing.assert_allclose(xn - x0, drift + inc[i], atol=1e-14)
    emp = inc.T @ inc / n
    target = q * dt
    # stderr of a Gaussian covariance entry: dt*sqrt((q_ii q_jj + q_ij^2)/n)
    for i in range(2):
        for j in range(2):
            se = dt * math.sqrt((q[i, i] * q[j, j] + q[i, j] ** 2) / n)
            assert abs(emp[i, j] - target[i, j]) <= 4.0 * se


# ---------------------------------------------------------------------------
# diagonal diffusion: sigma without the eigen-solver


# float.hex of simulate_coupling's coupling times (6 paths) and of the
# simulate_pair_trajectory rows [X; Y] at t = 0.5 and 1 (mu 0.5, T = 1,
# dt 1e-3), recorded when every variable sigma came from the Jacobi solver
DIAGONAL_Q_BITS = {
    ("var_q_const_b-2", 0): ((
        "0x1.e0c49ba5e3540p-1", "0x1.47ae147ae147bp-2", "nan",
        "nan", "nan", "0x1.c9ba5e353f7cfp-2",
    ), (
        "0x1.81fa1bbb7c4eep-1", "0x1.8a542adce1413p-2", "-0x1.b3e2806ddcf9bp-6",
        "0x1.3a38b5af7bdb6p-2", "0x1.37eac8dc6c07ep+0", "0x1.3556b3b6191c6p-2",
        "0x1.37eac8dc6c07ep+0", "0x1.3556b3b6191c6p-2",
    )),
    ("var_q_const_b-2", 3): ((
        "0x1.2f1a9fbe76c8bp-3", "nan", "nan",
        "nan", "0x1.7645a1cac0831p-1", "nan",
    ), (
        "0x1.bfeccf68e8dfap-2", "0x1.796fd76e8e44ep-3", "0x1.bfeccf68e8dfap-2",
        "0x1.796fd76e8e44ep-3", "0x1.4cb9d73e3e76fp+0", "0x1.cb67ae82d2a30p-1",
        "0x1.4cb9d73e3e76fp+0", "0x1.cb67ae82d2a30p-1",
    )),
    ("var_q_const_b-3", 0): ((
        "0x1.fa5e353f7ced9p-1", "0x1.b2b020c49ba5ep-1", "0x1.645a1cac08313p-3",
        "nan", "nan", "nan",
    ), (
        "0x1.3b8b3a0b68110p-1", "0x1.626e70a23efaep-3", "0x1.7e0ccfc49e63dp-1",
        "-0x1.a4766b5b80658p-2", "0x1.34b824800f149p-7", "0x1.85a45d475b004p-1",
        "0x1.bf66a03b156e9p-1", "-0x1.8a910e74c352bp+0", "0x1.4e5c6d2203c86p+0",
        "0x1.bf66a03b156e9p-1", "-0x1.8a910e74c352bp+0", "0x1.4e5c6d2203c86p+0",
    )),
    ("var_q_const_b-3", 3): ((
        "nan", "0x1.810624dd2f1aap-2", "0x1.810624dd2f1aap-1",
        "nan", "nan", "0x1.be76c8b439581p-4",
    ), (
        "0x1.d1eb78d7d1910p-1", "0x1.e03f8e686afd3p-1", "0x1.2091fe068aed5p+0",
        "-0x1.45913b3b0ead0p+0", "0x1.1013fbf01d744p-1", "0x1.44daab64d7bb7p-1",
        "0x1.9b62ad6e7f257p+0", "0x1.b6d0e8d74c9e1p-1", "0x1.e37d1f094de12p-2",
        "-0x1.7022acb585330p-4", "0x1.fcd88cf88054cp-2", "-0x1.e4134bd5472d6p-5",
    )),
    ("diagonal-2", 0): ((
        "0x1.9eb851eb851ecp-1", "0x1.e978d4fdf3b65p-3", "nan",
        "nan", "nan", "0x1.645a1cac08313p-2",
    ), (
        "0x1.5b6354a7ed9c4p-5", "0x1.a02ecce6910e5p-1", "-0x1.9e08cd3c1d833p-2",
        "0x1.60720b0eb91a8p-1", "-0x1.91c9c9f510f8bp-5", "0x1.959fb426b72a1p+0",
        "-0x1.91c9c9f510f8bp-5", "0x1.959fb426b72a1p+0",
    )),
    ("diagonal-2", 3): ((
        "0x1.147ae147ae148p-3", "0x1.e04189374bc6bp-1", "nan",
        "nan", "0x1.5db22d0e56042p-1", "0x1.ced916872b021p-1",
    ), (
        "0x1.6869774a8b842p-7", "-0x1.e9f0df7b9238ep-5", "0x1.6869774a8b842p-7",
        "-0x1.e9f0df7b9238ep-5", "0x1.171a03e7d3a72p-2", "0x1.7753318e5a764p-3",
        "0x1.171a03e7d3a72p-2", "0x1.7753318e5a764p-3",
    )),
}

DIAGONAL_Q_FIELDS = {
    "var_q_const_b-2": lambda: ll.make_standard_fields("var_q_const_b", 2,
                                                       [0.9]),
    "var_q_const_b-3": lambda: ll.make_standard_fields("var_q_const_b", 3,
                                                       [0.9]),
    "diagonal-2": lambda: ll.field_from_expressions(
        2, ["-x1", "sin(x2)"], ["1 + 0.9*sin(x1)^2", "2 + cos(x2)"]),
}
DIAGONAL_Q_BOUNDS = ll.EllipticityBounds(1.0, 3.0, 10.0, 1)


@pytest.mark.parametrize("name, seed", sorted(DIAGONAL_Q_BITS))
def test_diagonal_diffusion_outcomes_match_recorded_bits(name, seed):
    field = DIAGONAL_Q_FIELDS[name]()
    x0 = np.array([0.5, 0.2, 0.1][:field.dim])
    y0 = np.array([-0.5, 0.1, 0.0][:field.dim])
    cfg = _coupling(mu=0.5, t_max=1.0, n_paths=6, x0=x0, y0=y0, dt=1e-3,
                    seed=seed)
    stats = ll.simulate_coupling(field, DIAGONAL_Q_BOUNDS, cfg)
    t, xs, ys, _ = ll.simulate_pair_trajectory(
        field, DIAGONAL_Q_BOUNDS, cfg, stride=500)
    assert t.tolist() == [0.0, 0.5, 1.0]
    rows = np.concatenate([xs[1:], ys[1:]], axis=1).ravel()
    time_bits, row_bits = DIAGONAL_Q_BITS[(name, seed)]
    assert [v.hex() for v in stats.coupling_times.tolist()] == list(time_bits)
    assert [v.hex() for v in rows.tolist()] == list(row_bits)


# ---------------------------------------------------------------------------
# recorded outcomes of the three simulators


def _sha256_hex(values):
    return hashlib.sha256(",".join(
        v.hex() for v in np.asarray(values, dtype=float).ravel().tolist()
    ).encode()).hexdigest()


# float.hex of martingale_check's (mean, stderr): 256 paths, mu 0.5,
# recorded before the simulators took their run knobs from RunConfig
MARTINGALE_BITS = {
    "zero-3": ("-0x1.4cd9865159c6dp-5", "0x1.41fd3faa30ac8p-4"),
    "log_example-1": ("0x1.d8bff0b6dd6cfp-1", "0x1.c6572ff58773fp-6"),
}


@pytest.mark.parametrize("case", sorted(MARTINGALE_BITS))
def test_martingale_check_matches_recorded_bits(case):
    if case == "zero-3":
        field = ll.make_standard_fields("zero", 3)
        x0, t, dt, seed = np.zeros(3), 0.5, 1e-3, 3

        def u(t, x):
            return (x * x).sum(axis=-1) - 3 * t
    else:
        field = ll.make_log_example(0.75)
        x0, t, dt, seed = [1.0], 1.0, 1e-2, 9

        def u(t, x):
            return np.arctan(x[:, 0])
    cfg = _coupling(mu=0.5, t_max=t, n_paths=256, dt=dt, seed=seed,
                    dim=field.dim)
    got = ll.martingale_check(field, D1_BOUNDS, cfg, x0, u)
    assert tuple(v.hex() for v in got) == MARTINGALE_BITS[case]


# sha256 of the comma-joined float.hex of simulate_coupling's coupling times
# and survival weights (200 pairs from +-0.5 e1, mu 0.5, T = 2, the default
# dt, seed 1), recorded as MARTINGALE_BITS was
COUPLING_BITS = {
    "log_example-1": (
        "54365f86064cd534ecfcfb7b10b0904b4ca45422b0b1d6d0bf4b70058382ceb5",
        "c4108ef1862811a14589e203481259d5bfcd538f7b4940871bc444be09525dba"),
    "var_q_const_b-2": (
        "c886b49f14f78b9f7a6ec3739f45572246e36fedaada4a672378df611774b3fa",
        "1e26a11cc4ce95d6820e13f21cdb819658e9ee38c9e9e29a4cc1b19aa0a4c44e"),
}


@pytest.mark.parametrize("case", sorted(COUPLING_BITS))
def test_simulate_coupling_matches_recorded_bits(case):
    if case == "log_example-1":
        field, bounds = ll.make_log_example(0.25), D1_BOUNDS
    else:
        field = ll.make_standard_fields("var_q_const_b", 2, [0.9])
        bounds = DIAGONAL_Q_BOUNDS
    x0 = 0.5 * np.eye(field.dim)[0]
    cfg = _coupling(mu=0.5, t_max=2.0, n_paths=200, x0=x0, seed=1)
    assert cfg.coupling_dt == DEFAULT_DT
    stats = ll.simulate_coupling(field, bounds, cfg)
    assert (_sha256_hex(stats.coupling_times),
            _sha256_hex(stats.survival)) == COUPLING_BITS[case]


# sha256 of the comma-joined float.hex of the rows (t, X, Y) of path 0's
# record on ou d = 2 from +-0.1 e1 (mu 0.5, T = 1, dt 1e-3, stride 10, seed
# 0), which merges at about t = 0.14; recorded as MARTINGALE_BITS was
TRAJECTORY_SHA256 = \
    "0b6a1e2c7dc38410ba685a2984037c8e216ee0bdad6f1d345970555fc9976c83"


def test_pair_trajectory_matches_recorded_bits():
    field = ll.make_standard_fields("ou", 2)
    cfg = _coupling(mu=0.5, t_max=1.0, n_paths=1, x0=[0.1, 0.0],
                    y0=[-0.1, 0.0], dt=1e-3, seed=0)
    t, xs, ys, dist = ll.simulate_pair_trajectory(field, D1_BOUNDS, cfg,
                                                  stride=10)
    assert t.size == 101 and (dist == 0.0).sum() == 87
    assert _sha256_hex(np.concatenate([t[:, None], xs, ys], axis=1)) \
        == TRAJECTORY_SHA256


def test_full_diffusion_step_uses_the_jacobi_square_root(rng):
    # nonzero off-diagonals in every row but one: the whole batch takes the
    # eigen-solver, and the step equals its explicit reference to the bit
    field = ll.field_from_expressions(
        2, ["-x1", "x1*x2"],
        ["2 + sin(x1)", "0.3*x2", "0.3*x2", "2 + x1^2/(1 + x1^2)"])
    mu, dt = 0.5, 1e-3
    pts = rng.uniform(-2.0, 2.0, size=(50, 2))
    pts[7, 1] = 0.0
    dB, dW = math.sqrt(dt) * rng.standard_normal((2, 50, 2))
    ref = pts.copy()
    ref += field.drift(pts) * dt
    ref += np.einsum("nij,nj->ni", coupling_sim._shifted_sqrt_batch(
        field.diffusion(pts), mu), dB)
    ref += math.sqrt(mu) * dW
    coupling_sim._euler_step(field, pts, mu, dt, None, dB, dW)
    np.testing.assert_array_equal(pts, ref)


@pytest.mark.parametrize("diffusion", [["1 + x1"], ["1 + x1", "2"],
                                       ["2", "1 + x1"]])
def test_diagonal_diffusion_below_the_shift_is_named(diffusion):
    field = ll.field_from_expressions(2, ["0", "0"], diffusion)
    pts = np.array([[1.0, 0.0], [-0.7, 0.0], [-0.8, 0.0]])
    with pytest.raises(ll.ShiftTooLarge) as exc:
        coupling_sim._euler_step(field, pts, 0.5, 1e-3, None,
                                 np.ones((3, 2)), np.ones((3, 2)))
    assert str(exc.value) == ("shift mu=0.5 is not strictly below the "
                              "smallest eigenvalue 0.2 (batch index 2)")


@pytest.mark.parametrize("dim", [1, 2])
def test_nan_diffusion_is_named(dim):
    # a NaN diagonal bypasses the shortcut and is named before the Jacobi
    # solver runs (in d = 1 it would turn the state non-finite, in d > 1
    # the sweeps would never converge)
    def diffusion(points):
        q = np.broadcast_to(np.eye(dim), (len(points), dim, dim)).copy()
        q[points[:, 0] > 0.0, 0, 0] = np.nan
        return q

    field = ll.CoefficientField(dim, np.zeros_like, diffusion, "nan-q")
    cfg = _coupling(mu=0.5, t_max=0.1, n_paths=4, x0=np.ones(dim), dt=1e-3,
                    seed=0)
    with pytest.raises(ll.CoefficientEvaluationError) as exc:
        ll.simulate_coupling(field, D1_BOUNDS, cfg)
    assert str(exc.value) == f"diffusion is non-finite at x = {[1.0] * dim}"


# ---------------------------------------------------------------------------
# simulate_coupling: laws and bookkeeping


def test_coupling_distance_law_matches_scalar_sde():
    """|X-Y| for the driftless 1D pair is the scalar walk r + 2 sqrt(mu) dW.

    Both sides absorb at the couple radius with the same segment-crossing
    rule; the two-sample Kolmogorov-Smirnov distance at t=1 must be below
    the 1% critical value for n = m = 10^4.
    """
    field = ll.make_standard_fields("zero", 1)
    mu, dt, n = 0.5, 1e-3, 10_000
    cfg = _coupling(mu=mu, t_max=1.0, n_paths=n, x0=[0.5], dt=dt, seed=8)
    stats = ll.simulate_coupling(field, D1_BOUNDS, cfg,
                                 record_distance_at=1.0)
    sample_a = np.sort(stats.recorded_distances)

    rng = np.random.default_rng(1234)
    r = np.full(n, 1.0)
    alive = np.ones(n, dtype=bool)
    scale = 2.0 * math.sqrt(mu) * math.sqrt(dt)
    for _ in range(1000):
        step = scale * rng.normal(size=n)
        nxt = r + step
        hit = alive & (
            (np.sign(nxt) != np.sign(r)) | (np.minimum(np.abs(r), np.abs(nxt)) <= 1e-3)
        )
        alive &= ~hit
        r = np.where(alive, nxt, 0.0)
    sample_b = np.sort(np.abs(r))

    grid = np.concatenate([sample_a, sample_b])
    cdf_a = np.searchsorted(sample_a, grid, side="right") / n
    cdf_b = np.searchsorted(sample_b, grid, side="right") / n
    ks = float(np.max(np.abs(cdf_a - cdf_b)))
    critical = 1.628 * math.sqrt(2.0 / n)  # alpha = 0.01
    assert ks < critical


def test_coupling_dt_halving_stability():
    # weak-order-1 stability at reduced path counts (the full-size scenarios
    # run in the acceptance suite; halving dt there would double its cost)
    field = ll.make_standard_fields("zero", 1)
    p = {}
    for dt in (1e-3, 5e-4):
        cfg = _coupling(mu=0.5, t_max=1.0, n_paths=4000, x0=[0.5], dt=dt,
                        seed=21)
        p[dt] = ll.simulate_coupling(field, D1_BOUNDS, cfg)
    assert abs(p[1e-3].p_couple - p[5e-4].p_couple) < 2.0 * p[1e-3].ci_halfwidth

    ou = ll.make_standard_fields("ou", 2)
    q = {}
    for dt in (1e-3, 5e-4):
        cfg = _coupling(mu=0.9, t_max=5.0, n_paths=4000, x0=[0.5, 0.0],
                        y0=[-0.5, 0.0], dt=dt, seed=22)
        q[dt] = ll.simulate_coupling(ou, D1_BOUNDS, cfg)
    assert abs(q[1e-3].p_couple - q[5e-4].p_couple) < 2.0 * q[1e-3].ci_halfwidth


@pytest.mark.parametrize("dim", [1, 2])
def test_default_step_matches_the_closed_form(dim):
    # driftless, sigma constant: X - Y stays on the line through its start
    # and |X - Y| is a Brownian motion of variance 4 mu t, which reaches r
    # from d0 by time T with probability erfc((d0 - r)/sqrt(8 mu T)); the
    # grid hits alone read 10-20 se low here, the bridge weights within 3
    field = ll.make_standard_fields("zero", dim)
    x0 = 0.5 * np.eye(dim)[0]
    for k, horizon in enumerate((0.25, 1.0, 4.0)):
        cfg = _coupling(mu=0.5, t_max=horizon, n_paths=50_000, x0=x0,
                        seed=k + 3 * (dim - 1))
        assert cfg.coupling_dt == 1e-2
        stats = ll.simulate_coupling(field, D1_BOUNDS, cfg)
        exact = math.erfc((1.0 - cfg.coupling_couple_radius) / math.sqrt(
            8.0 * cfg.coupling_mu * horizon))
        se = stats.ci_halfwidth / 1.96
        assert abs(stats.p_couple - exact) <= 3.0 * se, (horizon, stats.p_couple,
                                                          exact, se)


@pytest.mark.parametrize("name, dim, x0", [
    ("log_example", 1, [1.0]), ("var_q_const_b", 2, [0.5, 0.0])],
    ids=["log_example-1", "var_q_const_b-2"])
def test_default_step_agrees_with_a_five_times_finer_step(name, dim, x0):
    # with drift (the quick-start field, horizon 10) and with variable sigma
    # (the bridge variance then carries (sigma(x) - sigma(y))^T e)
    field = ll.make_standard_fields(name, dim, [0.25] if dim == 1 else [])
    bounds = ll.EllipticityBounds(1.0, 1.5, 10.0, 1)
    horizon = 10.0 if dim == 1 else 1.0
    p, se = {}, {}
    for dt in (1e-2, 2e-3):
        cfg = _coupling(mu=0.5, t_max=horizon, n_paths=10_000, x0=x0,
                        dt=dt, seed=7)
        stats = ll.simulate_coupling(field, bounds, cfg)
        p[dt], se[dt] = stats.p_couple, stats.ci_halfwidth / 1.96
    assert abs(p[1e-2] - p[2e-3]) <= 3.0 * math.hypot(se[1e-2], se[2e-3]), p


def test_zero_horizon_means_no_coupling():
    field = ll.make_standard_fields("zero", 1)
    cfg = _coupling(mu=0.5, t_max=0.0, n_paths=50, x0=[1.0], dt=1e-3,
                    seed=0)
    stats = ll.simulate_coupling(field, D1_BOUNDS, cfg)
    assert stats.n_coupled == 0
    assert stats.p_couple == 0.0
    assert stats.p_discrete == 0.0
    assert stats.ci_halfwidth == 0.0
    assert np.array_equal(stats.survival, np.ones(50))
    assert all(math.isnan(qt) for qt in stats.coupling_time_quantiles)


ESTIMATOR_CASES = {
    "zero-1": (lambda: ll.make_standard_fields("zero", 1), None),
    "ou-2": (lambda: ll.make_standard_fields("ou", 2), None),
    "outward-1": (lambda: ll.field_from_expressions(1, ["2*x1"]), 1.2),
    "var_q-2": (lambda: ll.make_standard_fields("var_q_const_b", 2, [0.9]),
                None),
    "full_q-2": (lambda: ll.field_from_expressions(
        2, ["-x1", "x2"], ["2 + sin(x1)", "0.3*x2", "0.3*x2", "2"]), 8.0),
}


@settings(max_examples=30, derandomize=True, deadline=None)
@given(case=st.sampled_from(sorted(ESTIMATOR_CASES)),
       seed=st.integers(0, 10**6), count_escaped=st.booleans(),
       dt=st.sampled_from([1e-2, 2.5e-3]),
       scale=st.sampled_from([0.05, 0.5]))
def test_estimator_properties(case, seed, count_escaped, dt, scale):
    # p_discrete counts grid hits (and escapes when they count); p_couple
    # adds the bridge probability of the rest, so it is never below it
    make, escape_radius = ESTIMATOR_CASES[case]
    field = make()
    x0 = scale * np.eye(field.dim)[0]
    cfg = _coupling(mu=0.5, t_max=0.5, n_paths=100, x0=x0, dt=dt, seed=seed,
                    escape_radius=escape_radius,
                    count_escaped_as_coupled=count_escaped)
    st_ = ll.simulate_coupling(field, D1_BOUNDS, cfg)
    successes = st_.n_coupled + (st_.n_escaped if count_escaped else 0)
    assert st_.p_discrete == successes / 100
    assert st_.p_couple >= st_.p_discrete
    assert 0.0 <= st_.survival.min() and st_.survival.max() <= 1.0
    assert not st_.survival[~np.isnan(st_.coupling_times)].any()
    assert st_.p_couple == (1.0 - st_.survival).mean() <= 1.0


def test_no_runtime_warning_when_distances_overflow_before_a_blowup():
    # dX = X^3 dt from 3 and 2.9: on seed 0, |X - Y|^2 overflows (inf/inf
    # in the reflection) a step before the state turns non-finite; the
    # suite turns any RuntimeWarning into an error
    cubic = ll.field_from_expressions(1, ["x1^3"], label="cubic")
    cfg = _coupling(mu=0.5, t_max=1.0, n_paths=4, x0=[3.0], y0=[2.9],
                    dt=1e-3, seed=0, escape_radius=1e300)
    with pytest.raises(ll.SimulationBlowUp):
        ll.simulate_coupling(cubic, D1_BOUNDS, cfg)


def test_coupling_stats_consistency():
    field = ll.make_standard_fields("ou", 2)
    cfg = _coupling(mu=0.5, t_max=2.0, n_paths=400, x0=[0.5, 0.0],
                    y0=[-0.5, 0.0], dt=1e-3, seed=5)
    st = ll.simulate_coupling(field, D1_BOUNDS, cfg)
    assert st.p_discrete == st.n_coupled / st.n_paths
    assert 0.0 <= st.p_discrete <= 1.0
    # p_couple and its CI are the mean and 1.96 sd/sqrt(n) of the per-path
    # contributions 1 - survival
    contribution = 1.0 - st.survival
    assert st.p_couple == contribution.mean()
    assert st.ci_halfwidth == pytest.approx(
        1.96 * contribution.std() / math.sqrt(400), rel=1e-12)
    q25, q50, q90 = st.coupling_time_quantiles
    assert 0 < q25 <= q50 <= q90 <= 2.0


@pytest.mark.parametrize("name, dim", [("zero", 1), ("ou", 2)])
def test_block_noise_outcomes_do_not_depend_on_path_count_or_chunking(
        name, dim, monkeypatch):
    # path i reads entry [k, i % 64] of block i // 64's step-major stream, so
    # paths 0-63 meet the same noise whatever n_paths, the chunk length or
    # the set of live paths
    field = ll.make_standard_fields(name, dim)
    x0 = 0.5 * np.eye(dim)[0]

    def first_block_times(n_paths):
        cfg = _coupling(mu=0.5, t_max=1.0, n_paths=n_paths, x0=x0, dt=1e-3,
                        seed=4)
        stats = ll.simulate_coupling(field, D1_BOUNDS, cfg)
        return stats.coupling_times[:64]

    alone = first_block_times(64)
    assert 0 < np.isnan(alone).sum() < 64  # both outcomes occur
    np.testing.assert_array_equal(first_block_times(200), alone)
    # a budget below one step's noise gives the shortest chunks, 16 steps
    monkeypatch.setattr(coupling_sim, "_NOISE_BUDGET_BYTES", 1.0)
    np.testing.assert_array_equal(first_block_times(200), alone)


# sha256 of the comma-joined float.hex of all 300 coupling times (zero
# field, d = 1, x0 = -y0 = 0.02, mu 0.5, T = 1, dt 1e-3), recorded when each
# chunk's noise was drawn for exactly the blocks live at its start
DEAD_BLOCK_TIMES_SHA256 = {
    6: "7fc4df6d318e0a0c500f729024006f0a18789445274b0dc324d6c2574a251916",
    10: "926e652982340d72e08beef6a902fc8fec04f82eb0a98feff83c8dc644e5d0b9",
}


@pytest.mark.parametrize("budget", [None, 1.0])
@pytest.mark.parametrize("seed", sorted(DEAD_BLOCK_TIMES_SHA256))
def test_outcomes_after_a_dead_block_match_recorded_bits(seed, budget,
                                                         monkeypatch):
    # a chunk covers the blocks live when the chunk before it began, so once
    # a block dies the live paths of the blocks above it must be mapped
    # past its columns; the 16-step chunks of a budget of 1 byte bring many
    # chunk boundaries after the death
    if budget is not None:
        monkeypatch.setattr(coupling_sim, "_NOISE_BUDGET_BYTES", budget)
    field = ll.make_standard_fields("zero", 1)
    cfg = _coupling(mu=0.5, t_max=1.0, n_paths=300, x0=[0.02], dt=1e-3,
                    seed=seed)
    times = ll.simulate_coupling(field, D1_BOUNDS, cfg).coupling_times
    # a block is done well before the horizon while one above it runs on
    live_at_end = [np.isnan(times[i:i + 64]).any() for i in range(0, 300, 64)]
    assert any(not live and times[64 * b:64 * b + 64].max() < 0.9
               and any(live_at_end[b + 1:])
               for b, live in enumerate(live_at_end))
    digest = hashlib.sha256(
        ",".join(t.hex() for t in times.tolist()).encode()).hexdigest()
    assert digest == DEAD_BLOCK_TIMES_SHA256[seed]


# sha256 of the comma-joined float.hex of the coupling times and of the
# survival weights of 300 pairs (x0 = -y0 = 0.4 e1, mu 0.5, T = 0.5,
# dt 1e-3, escape radius 1.5), recorded when finished pairs were dropped by
# boolean indexing of the 2-D state
COMPACTION_BITS = {
    ("ou", 2, 5): (
        "e322b0b58186cd8100e23d719b782d6fabfc5a11161ecb4d3f58174798514d46",
        "e8438e1328dfb69863c3d8ba483b1e06996956cf33dfaf867b86f1bfcc93c3d7"),
    ("var_q_const_b", 3, 8): (
        "3915134dbe98fcd4ffc214ffcbc1fedb29811bfc6e0b08dead7958749eae4079",
        "eb92f36fb91a01c21ca7d0cc950c3f64d36c22c4d8465e5ec31f9c0f7922b8f9"),
}


@pytest.mark.parametrize("budget", [None, 1.0])
@pytest.mark.parametrize("name, dim, seed", sorted(COMPACTION_BITS))
def test_compaction_in_d_above_1_matches_recorded_bits(name, dim, seed,
                                                       budget, monkeypatch):
    # finished pairs leave the stacked [X; Y] state a whole row of d floats
    # at a time; a row of the wrong width would move the pairs behind it
    if budget is not None:
        monkeypatch.setattr(coupling_sim, "_NOISE_BUDGET_BYTES", budget)
    field = ll.make_standard_fields(name, dim)
    x0 = 0.4 * np.eye(dim)[0]
    cfg = _coupling(mu=0.5, t_max=0.5, n_paths=300, x0=x0, dt=1e-3,
                    seed=seed, escape_radius=1.5)
    stats = ll.simulate_coupling(field, DIAGONAL_Q_BOUNDS, cfg)
    # pairs hit and escape while others run on, hits inside 16-step chunks
    steps = np.round(stats.coupling_times / cfg.coupling_dt)
    assert stats.n_escaped > 0 and (steps % 16 > 0).sum() > 0
    assert (_sha256_hex(stats.coupling_times), _sha256_hex(stats.survival)) \
        == COMPACTION_BITS[(name, dim, seed)]


# sha256 of the comma-joined float.hex of the 2000 coupling times (zero
# field, d = 1, x0 = -y0 = 0.3, mu 0.5, T = 0.5, dt 1e-3, seed 7), recorded
# when the worker thread drew every block of every chunk
SHARED_DRAW_TIMES_SHA256 = \
    "c9bbd5903be0f8c5ac45dc8c5b49b547423c6bd2adacc4c5d7b506fd65a0e417"


def test_shared_draw_claims_every_block_once(monkeypatch):
    # the caller draws the blocks of a chunk that the worker has not
    # claimed; with the worker slowed down both threads draw blocks of the
    # same chunk, and a block claimed twice or never would change the times
    draw = coupling_sim._draw_noise
    caller = threading.current_thread()
    # id of a chunk -> (the chunk, kept so that no later chunk takes its
    # id, and the names of the threads that drew its blocks)
    chunks = {}

    def traced_draw(gens, out, root_dt, claim):
        def traced_claim():
            j = claim()
            if j is not None:
                chunks.setdefault(id(out), (out, set()))[1].add(
                    threading.current_thread().name)
                if threading.current_thread() is not caller:
                    time.sleep(2e-4)
            return j
        draw(gens, out, root_dt, traced_claim)

    monkeypatch.setattr(coupling_sim, "_draw_noise", traced_draw)
    monkeypatch.setattr(coupling_sim, "_NOISE_BUDGET_BYTES", 1.0)
    field = ll.make_standard_fields("zero", 1)
    cfg = _coupling(mu=0.5, t_max=0.5, n_paths=2000, x0=[0.3], dt=1e-3,
                    seed=7)
    before = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        times = ll.simulate_coupling(field, D1_BOUNDS, cfg).coupling_times
    finally:
        sys.setswitchinterval(interval)
    assert threading.active_count() == before
    assert len(chunks) == 32  # 500 steps in 16-step chunks
    assert any(names == {caller.name, "noise-draw"}
               for _, names in chunks.values())
    assert _sha256_hex(times) == SHARED_DRAW_TIMES_SHA256


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_no_noise_thread_outlives_a_call(monkeypatch):
    # every draw is slowed down, so a worker still drawing when a simulator
    # returns or raises would still be counted
    draw = coupling_sim._draw_noise

    def slow_draw(*args):
        time.sleep(0.05)
        return draw(*args)

    monkeypatch.setattr(coupling_sim, "_draw_noise", slow_draw)

    def simulators(drift, escape_radius):
        field = ll.field_from_expressions(1, [drift])
        cfg = _coupling(mu=0.5, t_max=1.0, n_paths=100, x0=[3.0], y0=[2.9],
                        dt=1e-3, seed=0, escape_radius=escape_radius)
        return [
            lambda: ll.simulate_coupling(field, D1_BOUNDS, cfg),
            lambda: ll.simulate_pair_trajectory(field, D1_BOUNDS, cfg),
            lambda: ll.martingale_check(field, D1_BOUNDS, cfg, [3.0],
                                        lambda t, x: 0.0),
        ]

    before = threading.active_count()
    # every path escapes near t = 0.12, long before the horizon (the
    # martingale paths, which never stop, run to it)
    for run in simulators("10*x1", 10.0):
        run()
        assert threading.active_count() == before
    # dX = X^3 dt from 3 blows up near t = 1/18, inside the first chunk
    for run in simulators("x1^3", 1e300):
        with pytest.raises(ll.SimulationBlowUp):
            run()
        assert threading.active_count() == before

    # a draw that fails on the worker is raised again on the caller
    calls = []

    def failing_draw(*args):
        calls.append(None)
        if len(calls) > 1:
            raise MemoryError("noise chunk")
        return draw(*args)

    monkeypatch.setattr(coupling_sim, "_draw_noise", failing_draw)
    for run in simulators("0", 1e300):
        calls.clear()
        with pytest.raises(MemoryError, match="noise chunk"):
            run()
        assert threading.active_count() == before

    # a draw that fails on the calling thread is raised again, and only
    # once the worker, still drawing its slowed share, has been joined
    caller = threading.current_thread()

    def caller_failing_draw(*args):
        if threading.current_thread() is caller:
            raise MemoryError("caller's share")
        time.sleep(0.05)
        return draw(*args)

    monkeypatch.setattr(coupling_sim, "_draw_noise", caller_failing_draw)
    for run in simulators("0", 1e300):
        with pytest.raises(MemoryError, match="caller's share"):
            run()
        assert threading.active_count() == before


def test_coupling_deterministic():
    field = ll.make_standard_fields("zero", 1)
    cfg = _coupling(mu=0.5, t_max=1.0, n_paths=300, x0=[0.5], dt=1e-3,
                    seed=9)
    a = ll.simulate_coupling(field, D1_BOUNDS, cfg, record_distance_at=0.5)
    b = ll.simulate_coupling(field, D1_BOUNDS, cfg, record_distance_at=0.5)
    assert a.n_coupled == b.n_coupled
    assert a.coupling_time_quantiles == b.coupling_time_quantiles
    assert np.array_equal(a.recorded_distances, b.recorded_distances)


def test_escaped_paths_counted_separately():
    outward = ll.field_from_expressions(1, ["x1"], label="outward")
    cfg = _coupling(
        mu=0.5, t_max=4.0, n_paths=100, x0=[0.5], dt=1e-3, seed=1,
        escape_radius=10.0
    )
    st = ll.simulate_coupling(outward, D1_BOUNDS, cfg)
    assert st.n_escaped > 0
    assert st.p_discrete == st.n_coupled / 100  # escaped NOT counted by default
    flagged = _coupling(
        mu=0.5, t_max=4.0, n_paths=100, x0=[0.5], dt=1e-3, seed=1,
        escape_radius=10.0, count_escaped_as_coupled=True,
    )
    st2 = ll.simulate_coupling(outward, D1_BOUNDS, flagged)
    assert st2.n_escaped == st.n_escaped
    assert st2.p_discrete == (st.n_coupled + st.n_escaped) / 100


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_simulation_blowup_reported_with_path_and_time():
    # dX = X^3 dt from 3 explodes near t = 1/18 in every simulator
    cubic = ll.field_from_expressions(1, ["x1^3"], label="cubic")
    cfg = _coupling(
        mu=0.5, t_max=1.0, n_paths=4, x0=[3.0], y0=[2.9], dt=1e-3, seed=0,
        escape_radius=1e300
    )
    simulators = [
        (lambda: ll.simulate_coupling(cubic, D1_BOUNDS, cfg), range(4)),
        (lambda: ll.simulate_pair_trajectory(cubic, D1_BOUNDS, cfg), [0]),
        (lambda: ll.martingale_check(cubic, D1_BOUNDS, cfg, [3.0],
                                     lambda t, x: 0.0), range(4)),
    ]
    for run, path_indices in simulators:
        with pytest.raises(ll.SimulationBlowUp) as exc:
            run()
        assert exc.value.path_index in path_indices
        assert exc.value.time is not None and 0 < exc.value.time <= 1.0


def test_overflowed_distances_keep_the_bridge_weight_finite():
    # dX = 10 X dt: by t = 40 the pair is some 1e170 apart, finite but
    # beyond a finite squared norm, and inside the escape radius; with
    # variable sigma the bridge variance must not turn into inf/inf
    field = ll.field_from_expressions(1, ["10*x1"], ["2 + sin(x1)"])
    cfg = _coupling(mu=0.5, t_max=40.0, n_paths=4, x0=[3.0], y0=[2.9],
                    seed=0, escape_radius=1e300)
    stats = ll.simulate_coupling(field, DIAGONAL_Q_BOUNDS, cfg)
    assert stats.n_escaped == 0
    assert 0.0 <= stats.survival.min() and stats.survival.max() <= 1.0
    assert stats.p_couple == (1.0 - stats.survival).mean()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_escape_test_survives_squared_norm_overflow():
    # the record of `couple --dim 1 --drift "x1^3" --x0 1.1 --y0 1.05
    # --t-max 2 --n-paths 1 --seed 7 --coupling-escape-radius 1e300
    # --output DIR`: the merged pair reaches |x| = 2.3e87 at t = 0.74, whose
    # squared norm overflows, yet the state is finite and far inside the
    # escape radius, so the record goes on until the cubic drift blows it up
    cubic = ll.field_from_expressions(1, ["x1^3"], label="cubic")
    cfg = _coupling(mu=0.5, t_max=2.0, n_paths=1, x0=[1.1], y0=[1.05],
                    dt=1e-3, seed=7, escape_radius=1e300)
    with pytest.raises(ll.SimulationBlowUp) as exc:
        ll.simulate_pair_trajectory(cubic, D1_BOUNDS, cfg, stride=2)
    assert exc.value.time > 0.7405
    rows = np.array([[1e200, -3e200], [2e300, 0.0], [3.0, 4.0]])
    assert coupling_sim._beyond(rows, 1e300).tolist() == [False, True, False]
    assert coupling_sim._beyond(rows, 4.9).tolist() == [True, True, True]


def test_mu_outside_admissible_range():
    field = ll.make_standard_fields("zero", 1)
    cfg = _coupling(mu=1.0, t_max=1.0, n_paths=10, x0=[1.0], dt=1e-3,
                    seed=0)
    with pytest.raises(ll.ShiftTooLarge):
        ll.simulate_coupling(field, D1_BOUNDS, cfg)


def test_coupling_config_validation():
    # RunConfig checks each coupling knob, and how they relate, when built
    for kwargs, names in [
            (dict(mu=-0.1), "coupling.mu"), (dict(n_paths=0), "n_paths"),
            (dict(dt=2.0), "coupling.dt must not exceed coupling.t_max"),
            (dict(couple_radius=0.0), "coupling.couple_radius"),
            (dict(escape_radius=1e-4),
             "coupling.escape_radius must exceed coupling.couple_radius"),
            (dict(t_max=1e6, dt=1e-3), "step cap"),
            (dict(dt=0.3), "coupling.t_max .* coupling.dt"),
            (dict(t_max=0.25, dt=0.1), "coupling.t_max .* coupling.dt")]:
        with pytest.raises(ll.ConfigError, match=names):
            _coupling(**{**dict(mu=0.5, t_max=1.0, n_paths=10), **kwargs})
    # coupling.mu is none until a run derives it
    field = ll.make_standard_fields("zero", 1)
    cfg = _coupling(mu=None, t_max=1.0, n_paths=10, x0=[1.0])
    for simulate in (ll.simulate_coupling, ll.simulate_pair_trajectory):
        with pytest.raises(ValueError, match="coupling.mu"):
            simulate(field, D1_BOUNDS, cfg)


def test_config_dimension_must_match_the_field():
    # field.dim sizes RunConfig's default start points; a cfg of another
    # dimension than the field is refused by every simulator, and so is a
    # martingale start point of the wrong size
    field = ll.make_standard_fields("zero", 2)
    cfg = _coupling(mu=0.5, t_max=0.1, n_paths=4, dt=1e-3)
    assert cfg.field_dim == 1
    simulators = [
        lambda cfg: ll.simulate_coupling(field, D1_BOUNDS, cfg),
        lambda cfg: ll.simulate_pair_trajectory(field, D1_BOUNDS, cfg),
        lambda cfg: ll.martingale_check(field, D1_BOUNDS, cfg, np.zeros(2),
                                        lambda t, x: 0.0),
    ]
    for run in simulators:
        with pytest.raises(ValueError, match="start point dimension mismatch"):
            run(cfg)
    with pytest.raises(ValueError, match="start point dimension mismatch"):
        ll.martingale_check(field, D1_BOUNDS, _coupling(
            mu=0.5, t_max=0.1, n_paths=4, dt=1e-3, dim=2), np.zeros(3),
            lambda t, x: 0.0)


def test_record_time_must_be_a_whole_number_of_steps():
    # 0.55 is 5.5 steps of 0.1: refused, not rounded to the sample at 0.6
    field = ll.make_standard_fields("zero", 1)
    cfg = _coupling(mu=0.5, t_max=1.0, n_paths=8, dt=0.1, seed=0)
    with pytest.raises(ValueError, match="whole number of coupling.dt steps"):
        ll.simulate_coupling(field, D1_BOUNDS, cfg, record_distance_at=0.55)
    for outside in (-0.1, 1.1):
        with pytest.raises(ValueError, match="outside the horizon"):
            ll.simulate_coupling(field, D1_BOUNDS, cfg,
                                 record_distance_at=outside)
    for whole in (0.0, 0.3, 1.0):
        stats = ll.simulate_coupling(field, D1_BOUNDS, cfg,
                                     record_distance_at=whole)
        assert stats.recorded_distances.shape == (8,)


# ---------------------------------------------------------------------------
# trajectories


def test_pair_trajectory_shapes_and_merge():
    field = ll.make_standard_fields("ou", 2)
    cfg = _coupling(mu=0.9, t_max=5.0, n_paths=1, x0=[0.5, 0.0],
                    y0=[-0.5, 0.0], dt=1e-3, seed=2)
    t, xs, ys, dist = ll.simulate_pair_trajectory(field, D1_BOUNDS, cfg)
    assert t[0] == 0.0
    assert xs.shape == (t.size, 2) and ys.shape == (t.size, 2)
    assert dist[0] == pytest.approx(1.0)
    if dist[-1] == 0.0:  # coupled: pair moves as one afterwards
        merged = dist == 0.0
        np.testing.assert_array_equal(xs[merged], ys[merged])


@pytest.mark.parametrize("name, dim", [("zero", 1), ("ou", 2)])
def test_pair_trajectory_couples_at_the_step_of_simulate_coupling(name, dim):
    # both simulators step path 0's stream through the same kernel; over
    # seeds 0-7 and two start distances, pairs couple inside the first
    # 128-step noise chunk, after it, and not at all
    field = ll.make_standard_fields(name, dim)
    cases = set()
    for scale in (0.5, 0.05):
        x0 = scale * np.eye(dim)[0]
        for seed in range(8):
            cfg = _coupling(mu=0.5, t_max=2.0, n_paths=1, x0=x0, dt=1e-3,
                            seed=seed)
            stats = ll.simulate_coupling(field, D1_BOUNDS, cfg)
            t, _, _, dist = ll.simulate_pair_trajectory(field, D1_BOUNDS,
                                                        cfg)
            merged = t[dist == 0.0]
            assert stats.n_coupled == int(merged.size > 0)
            if merged.size:
                assert merged[0] == stats.coupling_time_quantiles[0]
                step = round(merged[0] / cfg.coupling_dt)
                cases.add("first chunk" if step <= 128 else "later")
            else:
                cases.add("never")
    assert cases == {"first chunk", "later", "never"}


def test_pair_trajectory_stride():
    field = ll.make_standard_fields("zero", 1)
    cfg = _coupling(mu=0.5, t_max=0.1, n_paths=1, x0=[5.0], dt=1e-3, seed=3)
    t1, *_ = ll.simulate_pair_trajectory(field, D1_BOUNDS, cfg, stride=1)
    t5, *_ = ll.simulate_pair_trajectory(field, D1_BOUNDS, cfg, stride=5)
    assert t1.size == 101
    assert t5.size == 21
    np.testing.assert_allclose(t5, t1[::5], rtol=1e-12)


# the end of path 0's record at seed 0 (mu 0.5, dt 1e-3, escape radius 10):
# (drift, x0, y0, T) -> (rows, last t, float.hex of the last X and Y)
ESCAPE_ENDS = {
    "before the merge": (("10*x1", 3.0, -3.0, 1.0), (
        121, 0.12, "0x1.2f13c9ebb0967p+3", "-0x1.3bfc8947e2b5dp+3")),
    "after the merge": (("2*x1", 1.01, 0.99, 3.0), (
        1546, 1.545, "0x1.3e8eaaef20374p+3", "0x1.3e8eaaef20374p+3")),
}


@pytest.mark.parametrize("case", sorted(ESCAPE_ENDS))
def test_pair_trajectory_ends_at_the_step_before_an_escape(case):
    (drift, x0, y0, horizon), (rows, last_t, x_end, y_end) = ESCAPE_ENDS[case]
    field = ll.field_from_expressions(1, [drift])
    cfg = _coupling(mu=0.5, t_max=horizon, n_paths=1, x0=[x0], y0=[y0],
                    dt=1e-3, seed=0, escape_radius=10.0)
    t, xs, ys, dist = ll.simulate_pair_trajectory(field, D1_BOUNDS, cfg)
    assert t.size == rows and t[-1] == last_t
    assert (xs[-1, 0].hex(), ys[-1, 0].hex()) == (x_end, y_end)
    assert (dist[-1] == 0.0) == (case == "after the merge")
    assert np.abs(np.concatenate([xs, ys])).max() <= 10.0


# ---------------------------------------------------------------------------
# martingale_check / space_time_residual


def test_martingale_constant_function():
    field = ll.make_standard_fields("zero", 2)
    cfg = _coupling(mu=0.5, t_max=0.25, n_paths=64, dt=1e-3, seed=0, dim=2)
    mean, stderr = ll.martingale_check(field, D1_BOUNDS, cfg, np.zeros(2),
                                       lambda t, x: 7.0)
    assert mean == 7.0
    assert stderr == 0.0


def test_martingale_quadratic_harmonic():
    # u(t,x) = |x|^2 - d*t satisfies du/dt + (1/2)Lap u = 0 for q = I
    field = ll.make_standard_fields("zero", 1)
    cfg = _coupling(mu=0.5, t_max=0.5, n_paths=2000, dt=1e-3, seed=3)
    mean, stderr = ll.martingale_check(
        field, D1_BOUNDS, cfg, np.zeros(1), lambda t, x: float(x @ x) - 1 * t)
    assert abs(mean - 0.0) <= 3 * stderr + 0.01


def test_martingale_endpoints_do_not_depend_on_path_count():
    # the first 64 paths read block 0's stream whatever n_paths is
    field = ll.make_standard_fields("zero", 1)
    ends = {}
    for n_paths in (64, 200):
        def u(t, x, n_paths=n_paths):
            ends[n_paths] = x.copy()
            return x[:, 0]

        cfg = _coupling(mu=0.5, t_max=0.5, n_paths=n_paths, dt=1e-3, seed=3)
        ll.martingale_check(field, D1_BOUNDS, cfg, np.zeros(1), u)
    np.testing.assert_array_equal(ends[200][:64], ends[64])


def test_martingale_vectorized_and_scalar_u_agree():
    field = ll.make_standard_fields("zero", 2)
    cfg = _coupling(mu=0.5, t_max=0.25, n_paths=500, dt=1e-3, seed=11, dim=2)

    def u_scalar(t, x):
        return float(x[0] ** 2 - t + x[1])

    def u_vec(t, x):
        return x[:, 0] ** 2 - t + x[:, 1]  # accepts the whole batch

    m1, s1 = ll.martingale_check(field, D1_BOUNDS, cfg, np.zeros(2), u_scalar)
    m2, s2 = ll.martingale_check(field, D1_BOUNDS, cfg, np.zeros(2), u_vec)
    assert m1 == pytest.approx(m2, rel=1e-12)
    assert s1 == pytest.approx(s2, rel=1e-12)


# the cases RunConfig refuses when it is built raise ConfigError there; the
# others pass RunConfig and are martingale_check's own refusals
@pytest.mark.parametrize("kwargs, refused_by", [
    (dict(t_max=0.0), ValueError), (dict(t_max=-1.0), ll.ConfigError),
    (dict(dt=0.0), ll.ConfigError), (dict(dt=-1e-3), ll.ConfigError),
    (dict(dt=0.5), ll.ConfigError), (dict(t_max=1e5, dt=1e-3), ll.ConfigError),
    (dict(n_paths=2.5), ll.ConfigError), (dict(n_paths=1), ValueError),
    (dict(n_paths=0), ll.ConfigError)],
    ids=["t=0", "t<0", "dt=0", "dt<0", "dt>t", "step cap", "n_paths=2.5",
         "n_paths=1", "n_paths=0"])
def test_martingale_check_rejects_bad_arguments(kwargs, refused_by):
    field = ll.make_standard_fields("zero", 1)
    args = dict(mu=0.5, t_max=0.25, n_paths=64, dt=1e-3, seed=0)
    with pytest.raises(refused_by):
        cfg = _coupling(**{**args, **kwargs})
        ll.martingale_check(field, D1_BOUNDS, cfg, np.zeros(1),
                            lambda t, x: 0.0)


def test_martingale_check_horizon_is_a_whole_number_of_steps():
    # 1 is not a whole number of 0.3 steps: refused, not cut to 0.9; and a
    # whole-step horizon is the time u is evaluated at
    field = ll.make_standard_fields("zero", 1)
    args = dict(mu=0.5, n_paths=4, dt=0.3, seed=0)
    with pytest.raises(ll.ConfigError,
                       match="whole number of coupling.dt steps"):
        _coupling(t_max=1.0, **args)
    times = []
    ll.martingale_check(field, D1_BOUNDS, _coupling(t_max=0.9, **args),
                        np.zeros(1),
                        lambda t, x: times.append(t) or np.zeros(len(x)))
    assert times == [0.9]


def test_residual_constant_is_zero():
    field = ll.make_standard_fields("zero", 2)
    grid = [(0.0, np.zeros(2)), (1.0, np.array([1.0, -1.0]))]
    assert ll.space_time_residual(field, lambda t, x: 4.2, grid) == 0.0


def test_residual_quadratic_space_time_harmonic():
    # exact for quadratics up to rounding, which scales like eps*|u|/h^2:
    # at h = 1e-4 that budget holds for order-one grid points
    field = ll.make_standard_fields("zero", 1)
    grid = [(t, np.array([x])) for t in (0.0, 0.5) for x in (-0.5, 0.2, 0.5)]
    res = ll.space_time_residual(
        field, lambda t, x: float(x[0] ** 2) - t, grid, h=1e-4
    )
    assert res <= 1e-8


def test_residual_exercises_cross_derivatives():
    # q with off-diagonal 0.3: L(x1*x2) = 0.3, so u = x1*x2 - 0.3*t is
    # space-time harmonic and the mixed-derivative stencil must see it
    field = ll.field_from_expressions(
        2, ["0", "0"], ["1.2", "0.3", "0.3", "1.0"], label="crossq"
    )
    grid = [(0.2, np.array([0.5, -0.7])), (1.0, np.array([-1.1, 0.4]))]
    res = ll.space_time_residual(
        field, lambda t, x: float(x[0] * x[1]) - 0.3 * t, grid, h=1e-3
    )
    assert res <= 1e-8
