"""Reflection-coupled Euler scheme: kernel algebra, laws, martingale checks."""

import hashlib
import math
import threading
import time

import numpy as np
import pytest

import liouville_lab as ll
from liouville_lab import coupling_sim


D1_BOUNDS = ll.EllipticityBounds(1.0, 1.0, 10.0, 1)


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


def test_coupled_step_reflects_additive_noise(rng):
    # recover the reflected increment from the update and check the isometry
    field = ll.make_standard_fields("ou", 3)
    bounds = ll.EllipticityBounds(1.0, 1.0, 10.0, 1)
    mu, dt = 0.5, 1e-3
    for _ in range(50):
        x = rng.uniform(-2, 2, 3)
        y = rng.uniform(-2, 2, 3)
        if np.linalg.norm(x - y) < 1e-6:
            continue
        noise = (math.sqrt(dt) * rng.normal(size=3), math.sqrt(dt) * rng.normal(size=3))
        xn, yn = ll.coupled_step(field, bounds, x, y, mu, dt, noise)
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
        xn, yn = ll.coupled_step(field, D1_BOUNDS, x, y, mu, dt, noise)
        predicted = (x - y) + 2.0 * math.sqrt(mu) * noise[1]
        assert abs((xn - yn) - predicted)[0] <= 1e-12


def test_coupled_step_rejects_equal_points():
    field = ll.make_standard_fields("zero", 2)
    x = np.array([1.0, 0.0])
    with pytest.raises(ValueError):
        ll.coupled_step(
            field, D1_BOUNDS, x, x, 0.5, 1e-3, (np.zeros(2), np.zeros(2))
        )


def test_one_step_increment_covariance(var_q_field, var_q_bounds):
    # X-increment covariance is q(x)*dt; checked on 1e5 reconstructed draws
    # plus exact agreement with coupled_step on a subsample
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
        xn, _ = ll.coupled_step(
            var_q_field, var_q_bounds, x0, y0, mu, dt, (db[i], dw[i])
        )
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
    cfg = ll.CouplingConfig(mu=0.5, t_max=1.0, n_paths=6, dt=1e-3, seed=seed)
    stats = ll.simulate_coupling(field, DIAGONAL_Q_BOUNDS, cfg, x0, y0)
    t, xs, ys, _ = ll.simulate_pair_trajectory(
        field, DIAGONAL_Q_BOUNDS, cfg, x0, y0, stride=500)
    assert t.tolist() == [0.0, 0.5, 1.0]
    rows = np.concatenate([xs[1:], ys[1:]], axis=1).ravel()
    time_bits, row_bits = DIAGONAL_Q_BITS[(name, seed)]
    assert [v.hex() for v in stats.coupling_times.tolist()] == list(time_bits)
    assert [v.hex() for v in rows.tolist()] == list(row_bits)


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

    field = ll.CoefficientField(dim, np.zeros_like, diffusion, 1.0, "nan-q")
    cfg = ll.CouplingConfig(mu=0.5, t_max=0.1, n_paths=4, dt=1e-3, seed=0)
    with pytest.raises(ll.CoefficientEvaluationError) as exc:
        ll.simulate_coupling(field, D1_BOUNDS, cfg, np.ones(dim),
                             -np.ones(dim))
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
    cfg = ll.CouplingConfig(mu=mu, t_max=1.0, n_paths=n, dt=dt, seed=8)
    stats = ll.simulate_coupling(
        field, D1_BOUNDS, cfg, np.array([0.5]), np.array([-0.5]),
        record_distance_at=1.0,
    )
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
    x0, y0 = np.array([0.5]), np.array([-0.5])
    p = {}
    for dt in (1e-3, 5e-4):
        cfg = ll.CouplingConfig(mu=0.5, t_max=1.0, n_paths=4000, dt=dt, seed=21)
        p[dt] = ll.simulate_coupling(field, D1_BOUNDS, cfg, x0, y0)
    assert abs(p[1e-3].p_couple - p[5e-4].p_couple) < 2.0 * p[1e-3].ci_halfwidth

    ou = ll.make_standard_fields("ou", 2)
    x2, y2 = np.array([0.5, 0.0]), np.array([-0.5, 0.0])
    q = {}
    for dt in (1e-3, 5e-4):
        cfg = ll.CouplingConfig(mu=0.9, t_max=5.0, n_paths=4000, dt=dt, seed=22)
        q[dt] = ll.simulate_coupling(ou, D1_BOUNDS, cfg, x2, y2)
    assert abs(q[1e-3].p_couple - q[5e-4].p_couple) < 2.0 * q[1e-3].ci_halfwidth


def test_zero_horizon_means_no_coupling():
    field = ll.make_standard_fields("zero", 1)
    cfg = ll.CouplingConfig(mu=0.5, t_max=0.0, n_paths=50, dt=1e-3, seed=0)
    stats = ll.simulate_coupling(field, D1_BOUNDS, cfg, np.array([1.0]), np.array([-1.0]))
    assert stats.n_coupled == 0
    assert stats.p_couple == 0.0
    assert all(math.isnan(qt) for qt in stats.coupling_time_quantiles)


def test_coupling_stats_consistency():
    field = ll.make_standard_fields("ou", 2)
    cfg = ll.CouplingConfig(mu=0.5, t_max=2.0, n_paths=400, dt=1e-3, seed=5)
    st = ll.simulate_coupling(field, D1_BOUNDS, cfg, np.array([0.5, 0.0]), np.array([-0.5, 0.0]))
    assert st.p_couple == st.n_coupled / st.n_paths
    assert 0.0 <= st.p_couple <= 1.0
    p = st.p_couple
    assert st.ci_halfwidth == pytest.approx(1.96 * math.sqrt(p * (1 - p) / 400), rel=1e-12)
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
        cfg = ll.CouplingConfig(mu=0.5, t_max=1.0, n_paths=n_paths, dt=1e-3,
                                seed=4)
        stats = ll.simulate_coupling(field, D1_BOUNDS, cfg, x0, -x0)
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
    cfg = ll.CouplingConfig(mu=0.5, t_max=1.0, n_paths=300, dt=1e-3,
                            seed=seed)
    times = ll.simulate_coupling(field, D1_BOUNDS, cfg, np.array([0.02]),
                                 np.array([-0.02])).coupling_times
    # a block is done well before the horizon while one above it runs on
    live_at_end = [np.isnan(times[i:i + 64]).any() for i in range(0, 300, 64)]
    assert any(not live and times[64 * b:64 * b + 64].max() < 0.9
               and any(live_at_end[b + 1:])
               for b, live in enumerate(live_at_end))
    digest = hashlib.sha256(
        ",".join(t.hex() for t in times.tolist()).encode()).hexdigest()
    assert digest == DEAD_BLOCK_TIMES_SHA256[seed]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_no_noise_thread_outlives_a_call(monkeypatch):
    # every draw is slowed down, so a worker still drawing when a simulator
    # returns or raises would still be counted
    draw = coupling_sim._draw_noise

    def slow_draw(*args):
        time.sleep(0.05)
        return draw(*args)

    monkeypatch.setattr(coupling_sim, "_draw_noise", slow_draw)
    x0, y0 = np.array([3.0]), np.array([2.9])

    def simulators(drift, escape_radius):
        field = ll.field_from_expressions(1, [drift])
        cfg = ll.CouplingConfig(mu=0.5, t_max=1.0, n_paths=100, dt=1e-3,
                                seed=0, escape_radius=escape_radius)
        return [
            lambda: ll.simulate_coupling(field, D1_BOUNDS, cfg, x0, y0),
            lambda: ll.simulate_pair_trajectory(field, D1_BOUNDS, cfg, x0, y0),
            lambda: ll.martingale_check(
                field, D1_BOUNDS, lambda t, x: 0.0, mu=0.5, x0=x0, t=1.0,
                n_paths=100, dt=1e-3, seed=0),
        ]

    before = threading.active_count()
    # every path escapes near t = 0.12, long before the horizon (the
    # martingale paths, which never stop, run to it)
    for run in simulators("10*x1", 10.0):
        run()
        assert threading.active_count() == before
    # dX = X^3 dt from 3 blows up near t = 1/18, inside the first chunk
    for run in simulators("x1^3", math.inf):
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
    for run in simulators("0", math.inf):
        calls.clear()
        with pytest.raises(MemoryError, match="noise chunk"):
            run()
        assert threading.active_count() == before


def test_coupling_deterministic():
    field = ll.make_standard_fields("zero", 1)
    cfg = ll.CouplingConfig(mu=0.5, t_max=1.0, n_paths=300, dt=1e-3, seed=9)
    x0, y0 = np.array([0.5]), np.array([-0.5])
    a = ll.simulate_coupling(field, D1_BOUNDS, cfg, x0, y0, record_distance_at=0.5)
    b = ll.simulate_coupling(field, D1_BOUNDS, cfg, x0, y0, record_distance_at=0.5)
    assert a.n_coupled == b.n_coupled
    assert a.coupling_time_quantiles == b.coupling_time_quantiles
    assert np.array_equal(a.recorded_distances, b.recorded_distances)


def test_escaped_paths_counted_separately():
    outward = ll.field_from_expressions(1, ["x1"], label="outward")
    x0, y0 = np.array([0.5]), np.array([-0.5])
    cfg = ll.CouplingConfig(
        mu=0.5, t_max=4.0, n_paths=100, dt=1e-3, seed=1, escape_radius=10.0
    )
    st = ll.simulate_coupling(outward, D1_BOUNDS, cfg, x0, y0)
    assert st.n_escaped > 0
    assert st.p_couple == st.n_coupled / 100  # escaped NOT counted by default
    flagged = ll.CouplingConfig(
        mu=0.5, t_max=4.0, n_paths=100, dt=1e-3, seed=1, escape_radius=10.0,
        count_escaped_as_coupled=True,
    )
    st2 = ll.simulate_coupling(outward, D1_BOUNDS, flagged, x0, y0)
    assert st2.n_escaped == st.n_escaped
    assert st2.p_couple == (st.n_coupled + st.n_escaped) / 100


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_simulation_blowup_reported_with_path_and_time():
    # dX = X^3 dt from 3 explodes near t = 1/18 in every simulator
    cubic = ll.field_from_expressions(1, ["x1^3"], label="cubic")
    cfg = ll.CouplingConfig(
        mu=0.5, t_max=1.0, n_paths=4, dt=1e-3, seed=0, escape_radius=math.inf
    )
    x0, y0 = np.array([3.0]), np.array([2.9])
    simulators = [
        (lambda: ll.simulate_coupling(cubic, D1_BOUNDS, cfg, x0, y0), range(4)),
        (lambda: ll.simulate_pair_trajectory(cubic, D1_BOUNDS, cfg, x0, y0), [0]),
        (lambda: ll.martingale_check(
            cubic, D1_BOUNDS, lambda t, x: 0.0, mu=0.5, x0=x0, t=1.0,
            n_paths=4, dt=1e-3, seed=0), range(4)),
    ]
    for run, path_indices in simulators:
        with pytest.raises(ll.SimulationBlowUp) as exc:
            run()
        assert exc.value.path_index in path_indices
        assert exc.value.time is not None and 0 < exc.value.time <= 1.0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_escape_test_survives_squared_norm_overflow():
    # the record of `couple --dim 1 --drift "x1^3" --x0 1.1 --y0 1.05
    # --t-max 2 --n-paths 1 --seed 7 --coupling-escape-radius 1e300
    # --output DIR`: the merged pair reaches |x| = 2.3e87 at t = 0.74, whose
    # squared norm overflows, yet the state is finite and far inside the
    # escape radius, so the record goes on until the cubic drift blows it up
    cubic = ll.field_from_expressions(1, ["x1^3"], label="cubic")
    cfg = ll.CouplingConfig(mu=0.5, t_max=2.0, n_paths=1, dt=1e-3, seed=7,
                            escape_radius=1e300)
    x0, y0 = np.array([1.1]), np.array([1.05])
    with pytest.raises(ll.SimulationBlowUp) as exc:
        ll.simulate_pair_trajectory(cubic, D1_BOUNDS, cfg, x0, y0, stride=2)
    assert exc.value.time > 0.7405
    rows = np.array([[1e200, -3e200], [2e300, 0.0], [3.0, 4.0]])
    assert coupling_sim._beyond(rows, 1e300).tolist() == [False, True, False]
    assert coupling_sim._beyond(rows, 4.9).tolist() == [True, True, True]


def test_mu_outside_admissible_range():
    field = ll.make_standard_fields("zero", 1)
    cfg = ll.CouplingConfig(mu=1.0, t_max=1.0, n_paths=10, dt=1e-3, seed=0)
    with pytest.raises(ll.ShiftTooLarge):
        ll.simulate_coupling(field, D1_BOUNDS, cfg, np.array([1.0]), np.array([-1.0]))


def test_coupling_config_validation():
    with pytest.raises(ValueError):
        ll.CouplingConfig(mu=-0.1, t_max=1.0, n_paths=10)
    with pytest.raises(ValueError):
        ll.CouplingConfig(mu=0.5, t_max=1.0, n_paths=0)
    with pytest.raises(ValueError):
        ll.CouplingConfig(mu=0.5, t_max=1.0, n_paths=10, dt=2.0)  # dt > t_max
    with pytest.raises(ValueError):
        ll.CouplingConfig(mu=0.5, t_max=1.0, n_paths=10, couple_radius=0.0)
    with pytest.raises(ValueError):
        ll.CouplingConfig(mu=0.5, t_max=1.0, n_paths=10, escape_radius=1e-4)
    with pytest.raises(ValueError):
        ll.CouplingConfig(mu=0.5, t_max=1e6, n_paths=10, dt=1e-3)  # step cap


# ---------------------------------------------------------------------------
# trajectories


def test_pair_trajectory_shapes_and_merge():
    field = ll.make_standard_fields("ou", 2)
    cfg = ll.CouplingConfig(mu=0.9, t_max=5.0, n_paths=1, dt=1e-3, seed=2)
    t, xs, ys, dist = ll.simulate_pair_trajectory(
        field, D1_BOUNDS, cfg, np.array([0.5, 0.0]), np.array([-0.5, 0.0])
    )
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
            cfg = ll.CouplingConfig(mu=0.5, t_max=2.0, n_paths=1, dt=1e-3,
                                    seed=seed)
            stats = ll.simulate_coupling(field, D1_BOUNDS, cfg, x0, -x0)
            t, _, _, dist = ll.simulate_pair_trajectory(field, D1_BOUNDS, cfg,
                                                        x0, -x0)
            merged = t[dist == 0.0]
            assert stats.n_coupled == int(merged.size > 0)
            if merged.size:
                assert merged[0] == stats.coupling_time_quantiles[0]
                step = round(merged[0] / cfg.dt)
                cases.add("first chunk" if step <= 128 else "later")
            else:
                cases.add("never")
    assert cases == {"first chunk", "later", "never"}


def test_pair_trajectory_stride():
    field = ll.make_standard_fields("zero", 1)
    cfg = ll.CouplingConfig(mu=0.5, t_max=0.1, n_paths=1, dt=1e-3, seed=3)
    t1, *_ = ll.simulate_pair_trajectory(
        field, D1_BOUNDS, cfg, np.array([5.0]), np.array([-5.0]), stride=1
    )
    t5, *_ = ll.simulate_pair_trajectory(
        field, D1_BOUNDS, cfg, np.array([5.0]), np.array([-5.0]), stride=5
    )
    assert t1.size == 101
    assert t5.size == 21
    np.testing.assert_allclose(t5, t1[::5], rtol=1e-12)


# ---------------------------------------------------------------------------
# martingale_check / space_time_residual


def test_martingale_constant_function():
    field = ll.make_standard_fields("zero", 2)
    mean, stderr = ll.martingale_check(
        field, D1_BOUNDS, lambda t, x: 7.0, mu=0.5,
        x0=np.zeros(2), t=0.25, n_paths=64, dt=1e-3, seed=0,
    )
    assert mean == 7.0
    assert stderr == 0.0


def test_martingale_quadratic_harmonic():
    # u(t,x) = |x|^2 - d*t satisfies du/dt + (1/2)Lap u = 0 for q = I
    field = ll.make_standard_fields("zero", 1)
    mean, stderr = ll.martingale_check(
        field, D1_BOUNDS, lambda t, x: float(x @ x) - 1 * t, mu=0.5,
        x0=np.zeros(1), t=0.5, n_paths=2000, dt=1e-3, seed=3,
    )
    assert abs(mean - 0.0) <= 3 * stderr + 0.01


def test_martingale_endpoints_do_not_depend_on_path_count():
    # the first 64 paths read block 0's stream whatever n_paths is
    field = ll.make_standard_fields("zero", 1)
    ends = {}
    for n_paths in (64, 200):
        def u(t, x, n_paths=n_paths):
            ends[n_paths] = x.copy()
            return x[:, 0]

        ll.martingale_check(field, D1_BOUNDS, u, mu=0.5, x0=np.zeros(1),
                            t=0.5, n_paths=n_paths, dt=1e-3, seed=3)
    np.testing.assert_array_equal(ends[200][:64], ends[64])


def test_martingale_vectorized_and_scalar_u_agree():
    field = ll.make_standard_fields("zero", 2)
    kwargs = dict(mu=0.5, x0=np.zeros(2), t=0.25, n_paths=500, dt=1e-3, seed=11)

    def u_scalar(t, x):
        return float(x[0] ** 2 - t + x[1])

    def u_vec(t, x):
        return x[:, 0] ** 2 - t + x[:, 1]  # accepts the whole batch

    m1, s1 = ll.martingale_check(field, D1_BOUNDS, u_scalar, **kwargs)
    m2, s2 = ll.martingale_check(field, D1_BOUNDS, u_vec, **kwargs)
    assert m1 == pytest.approx(m2, rel=1e-12)
    assert s1 == pytest.approx(s2, rel=1e-12)


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
