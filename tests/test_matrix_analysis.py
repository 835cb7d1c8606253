"""Symmetric-matrix kernels: eigendecomposition, shifted square root, norms."""

import math

import numpy as np
import pytest

import liouville_lab as ll
from conftest import random_symmetric
from liouville_lab.matrix_analysis import _sym_eig_batch


def _eig(a, **kwargs):
    """(eigenvalues, eigenvectors in columns) of one symmetric matrix."""
    w, v = _sym_eig_batch(np.asarray(a, dtype=float)[None], **kwargs)
    return w[0], v[0]


# ---------------------------------------------------------------------------
# the batched Jacobi eigen-solver


def test_eig_identity_d3():
    lam, _ = _eig(np.eye(3))
    np.testing.assert_allclose(lam, [1.0, 1.0, 1.0], rtol=0, atol=1e-14)


def test_eig_diagonal_sorted_ascending():
    lam, _ = _eig(np.diag([4.0, 1.0]))
    np.testing.assert_allclose(lam, [1.0, 4.0], rtol=0, atol=1e-14)


def test_eig_2x2_hand_computed():
    # [[2,1],[1,2]] has characteristic polynomial (2-t)^2 - 1 -> t in {1, 3}
    lam, _ = _eig(np.array([[2.0, 1.0], [1.0, 2.0]]))
    np.testing.assert_allclose(lam, [1.0, 3.0], rtol=1e-14)


def test_eig_reconstruction_and_orthonormality_sweep():
    # 10^3 random symmetric matrices, entries in [-10, 10], d in 1..6
    rng = np.random.default_rng(7)
    for k in range(1000):
        d = int(rng.integers(1, 7))
        a = random_symmetric(rng, d)
        lam, v = _eig(a)
        assert np.all(np.diff(lam) >= -1e-12)
        recon = v @ np.diag(lam) @ v.T
        scale = 1.0 + ll.hs_norm(a)
        assert ll.hs_norm(recon - a) <= 1e-10 * scale
        assert ll.hs_norm(v.T @ v - np.eye(d)) <= 1e-10


def test_eig_matches_lapack_eigenvalues(rng):
    # cross-check the in-repo Jacobi sweep against numpy's LAPACK wrapper
    for d in (2, 3, 5, 8):
        a = random_symmetric(rng, d)
        got, _ = _eig(a)
        ref = np.linalg.eigvalsh(a)
        np.testing.assert_allclose(got, ref, rtol=1e-10, atol=1e-10)


def test_eig_deterministic():
    a = random_symmetric(np.random.default_rng(3), 5)
    lam1, v1 = _eig(a)
    lam2, v2 = _eig(a)
    assert np.array_equal(lam1, lam2)
    assert np.array_equal(v1, v2)


def test_eig_rejects_asymmetric():
    # the public entry point checks symmetry before the eigen-solver runs
    with pytest.raises(ValueError, match="not symmetric"):
        ll.shifted_sqrt(np.array([[1.0, 2.0], [1.0, 1.0]]), 0.0)


def test_eig_sweep_limit_raises():
    a = random_symmetric(np.random.default_rng(11), 8)
    with pytest.raises(ll.EigenFailure):
        _eig(a, max_sweeps=1)


# ---------------------------------------------------------------------------
# shifted_sqrt


def test_shifted_sqrt_scaled_identity():
    sigma = ll.shifted_sqrt(2.0 * np.eye(2), mu=1.0)
    np.testing.assert_allclose(sigma, np.eye(2), rtol=0, atol=1e-14)


def test_shifted_sqrt_boundary_mu_rejected():
    # mu equal to the smallest eigenvalue is outside the admissible range
    with pytest.raises(ll.ShiftTooLarge):
        ll.shifted_sqrt(np.eye(2), mu=1.0)


def test_shifted_sqrt_diagonal_hand_computed():
    sigma = ll.shifted_sqrt(np.diag([4.0, 1.0]), mu=0.5)
    expected = np.diag([math.sqrt(3.5), math.sqrt(0.5)])
    np.testing.assert_allclose(sigma, expected, rtol=1e-14)


def test_shifted_sqrt_defining_identity_random():
    # sigma^2 + mu*I = q whenever mu < lambda_min(q)
    rng = np.random.default_rng(19)
    for _ in range(200):
        d = int(rng.integers(1, 7))
        base = random_symmetric(rng, d, scale=3.0)
        # make q positive definite with smallest eigenvalue >= 0.5
        q = base @ base.T + 0.5 * np.eye(d)
        lam_min = _eig(q)[0][0]
        mu = 0.5 * lam_min
        sigma = ll.shifted_sqrt(q, mu)
        assert np.array_equal(sigma, sigma.T)
        resid = ll.hs_norm(sigma @ sigma + mu * np.eye(d) - q)
        assert resid <= 1e-9 * ll.hs_norm(q)


def test_shifted_sqrt_zero_shift_is_matrix_sqrt(rng):
    q = np.array([[2.0, 0.5], [0.5, 1.0]])
    sigma = ll.shifted_sqrt(q, mu=0.0)
    assert ll.hs_norm(sigma @ sigma - q) <= 1e-9 * ll.hs_norm(q)


def test_shifted_sqrt_eigenvalue_window():
    # if q's spectrum lies in [lambda0, Lambda0], sigma's lies in
    # [sqrt(lambda0-mu), sqrt(Lambda0-mu)]
    rng = np.random.default_rng(23)
    lambda0, Lambda0, mu = 1.0, 1.5, 0.5
    for _ in range(100):
        d = int(rng.integers(2, 5))
        _, v = _eig(random_symmetric(rng, d))
        eigs = rng.uniform(lambda0, Lambda0, size=d)
        q = v @ np.diag(eigs) @ v.T
        q = 0.5 * (q + q.T)
        svals, _ = _eig(ll.shifted_sqrt(q, mu))
        assert svals[0] >= math.sqrt(lambda0 - mu) - 1e-10
        assert svals[-1] <= math.sqrt(Lambda0 - mu) + 1e-10


# ---------------------------------------------------------------------------
# hs_norm


def test_hs_norm_zero():
    assert ll.hs_norm(np.zeros((3, 3))) == 0.0


def test_hs_norm_identity_d4():
    assert ll.hs_norm(np.eye(4)) == pytest.approx(2.0, rel=1e-15)


def test_hs_norm_hand_computed():
    assert ll.hs_norm(np.array([[2.0, 1.0], [1.0, 2.0]])) == pytest.approx(
        math.sqrt(10.0), rel=1e-15
    )


# ---------------------------------------------------------------------------
# check_sigma_bounds


def test_sigma_bounds_identical_pair_holds(var_q_field, var_q_bounds):
    x = np.array([1.0, -2.0])
    rep = ll.check_sigma_bounds(var_q_field, var_q_bounds, mu=0.5, pairs=[(x, x)])
    assert rep.n_violations_lipschitz == 0
    assert rep.n_violations_trace == 0
    assert rep.slack_lipschitz[0] >= 0.0  # both sides are exactly zero
    assert rep.slack_trace[0] >= 0.0


def test_sigma_bounds_constant_q_trivial(unit_bounds):
    field = ll.make_standard_fields("ou", 2)
    rng = np.random.default_rng(5)
    pairs = [(rng.uniform(-5, 5, 2), rng.uniform(-5, 5, 2)) for _ in range(50)]
    rep = ll.check_sigma_bounds(field, unit_bounds, mu=0.5, pairs=pairs)
    assert rep.n_violations_lipschitz == 0
    assert rep.n_violations_trace == 0


def test_sigma_bounds_variable_q_thousand_pairs(var_q_field, var_q_bounds):
    # both proof inequalities hold on 10^3 random pairs in the ball of radius 10
    rng = np.random.default_rng(41)
    pairs = [
        (rng.uniform(-10, 10, 2), rng.uniform(-10, 10, 2)) for _ in range(1000)
    ]
    rep = ll.check_sigma_bounds(var_q_field, var_q_bounds, mu=0.5, pairs=pairs)
    assert rep.n_pairs == 1000
    assert len(rep.violation_indices) == 0
    assert rep.worst_slack_lipschitz >= -1e-8
    assert rep.worst_slack_trace >= -1e-8


def test_sigma_bounds_requires_admissible_mu(var_q_field, var_q_bounds):
    x = np.zeros(2)
    y = np.ones(2)
    with pytest.raises(ll.ShiftTooLarge):
        ll.check_sigma_bounds(var_q_field, var_q_bounds, mu=1.2, pairs=[(x, y)])
