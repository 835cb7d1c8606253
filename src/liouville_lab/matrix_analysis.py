"""Dense symmetric-matrix kernels for small dimensions.

Matrices are plain ``(d, d)`` numpy arrays (batches are ``(n, d, d)``);
symmetry is validated explicitly instead of being carried by a wrapper
type.  Eigendecomposition is done in-repo with a batched cyclic Jacobi
iteration rather than delegated to LAPACK: the matrices involved are tiny
(d <= 16), the rotation order is fixed, and the output is therefore
bit-reproducible across platforms and BLAS builds — a property the
deterministic reporting layer depends on.

The shifted square root ``sigma(x)`` with ``sigma(x)^2 + mu*I = q(x)`` is
the object the reflection coupling consumes: the synchronous part of the
noise is driven through ``sigma`` while the residual isotropic part
``sqrt(mu)*I`` is reflected.  ``check_sigma_bounds`` probes the two
contraction inequalities that make that decomposition useful,

    ||sigma(x) - sigma(y)||_HS^2 <= ||q(x) - q(y)||_HS^2 / (4*(lambda0 - mu))
    ||sigma(x) - sigma(y)||_HS^2 <= d * (Lambda0 - mu)

on user-supplied point pairs.  Violations are reported as data, never
raised: with estimated ellipticity bounds a small negative slack usually
means the estimation window was too narrow.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EigenFailure, ShiftTooLarge

#: Cyclic Jacobi converges quadratically; ~6 sweeps suffice at d = 16.
#: The limit is generous so that hitting it really means "not a symmetric
#: eigenproblem" rather than "slow convergence".
JACOBI_MAX_SWEEPS = 40

_SYM_TOL = 1e-12


def hs_norm(a) -> float:
    """Hilbert-Schmidt (Frobenius) norm of a matrix."""
    a = np.asarray(a, dtype=float)
    return float(np.sqrt(np.sum(a * a)))


def _check_symmetric(a: np.ndarray, what: str = "matrix") -> np.ndarray:
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{what} must be square, got shape {a.shape}")
    scale = 1.0 + float(np.max(np.abs(a), initial=0.0))
    if float(np.max(np.abs(a - a.T), initial=0.0)) > _SYM_TOL * scale:
        raise ValueError(f"{what} is not symmetric within {_SYM_TOL:g} relative")
    return 0.5 * (a + a.T)


def _offdiag_sq(a: np.ndarray) -> np.ndarray:
    d = a.shape[-1]
    iu, ju = np.triu_indices(d, k=1)
    off = a[:, iu, ju]
    return np.einsum("ij,ij->i", off, off)


def _sym_eig_batch(mats: np.ndarray, max_sweeps: int = JACOBI_MAX_SWEEPS):
    """Batched cyclic Jacobi for symmetric (n, d, d) stacks.

    Returns (eigenvalues (n, d) ascending, ties in sweep order, and
    eigenvectors (n, d, d) with eigenvectors in columns).  Raises EigenFailure when the off-diagonal
    mass has not vanished after ``max_sweeps`` full sweeps.
    """
    a = np.array(mats, dtype=float)
    n, d, d2 = a.shape
    if d != d2:
        raise ValueError("expected square matrices")
    v = np.zeros_like(a)
    idx = np.arange(d)
    v[:, idx, idx] = 1.0
    if d > 1:
        frob2 = np.einsum("ijk,ijk->i", a, a)
        # off(A) <= 1e-15 * ||A||_HS per matrix is far below every residual
        # tolerance used downstream.
        thresh2 = (1e-15 ** 2) * frob2
        converged = False
        for _ in range(max_sweeps):
            if np.all(_offdiag_sq(a) <= thresh2):
                converged = True
                break
            for p in range(d - 1):
                for q in range(p + 1, d):
                    apq = a[:, p, q]
                    scale = np.abs(a[:, p, p]) + np.abs(a[:, q, q]) + 1e-300
                    rotate = np.abs(apq) > 1e-18 * scale
                    if not rotate.any():
                        continue
                    phi = 0.5 * np.arctan2(2.0 * apq, a[:, q, q] - a[:, p, p])
                    c = np.where(rotate, np.cos(phi), 1.0)
                    s = np.where(rotate, np.sin(phi), 0.0)
                    cp = a[:, :, p].copy()
                    cq = a[:, :, q].copy()
                    a[:, :, p] = c[:, None] * cp - s[:, None] * cq
                    a[:, :, q] = s[:, None] * cp + c[:, None] * cq
                    rp = a[:, p, :].copy()
                    rq = a[:, q, :].copy()
                    a[:, p, :] = c[:, None] * rp - s[:, None] * rq
                    a[:, q, :] = s[:, None] * rp + c[:, None] * rq
                    a[rotate, p, q] = 0.0
                    a[rotate, q, p] = 0.0
                    vp = v[:, :, p].copy()
                    vq = v[:, :, q].copy()
                    v[:, :, p] = c[:, None] * vp - s[:, None] * vq
                    v[:, :, q] = s[:, None] * vp + c[:, None] * vq
        else:
            converged = bool(np.all(_offdiag_sq(a) <= thresh2))
        if not converged:
            worst = int(np.argmax(_offdiag_sq(a) / (thresh2 + 1e-300)))
            raise EigenFailure(
                f"Jacobi did not converge in {max_sweeps} sweeps "
                f"(worst batch index {worst})"
            )
    w = a[:, idx, idx]
    order = np.argsort(w, axis=1, kind="stable")
    w = np.take_along_axis(w, order, axis=1)
    v = np.take_along_axis(v, order[:, None, :], axis=2)
    # Deterministic sign convention: the largest-magnitude component of each
    # eigenvector is made positive.
    comp = np.argmax(np.abs(v), axis=1)  # (n, d) row index per column
    lead = np.take_along_axis(v, comp[:, None, :], axis=1)[:, 0, :]
    signs = np.where(lead < 0.0, -1.0, 1.0)
    v = v * signs[:, None, :]
    return w, v


def _check_shift(lam_min: np.ndarray, mu: float) -> None:
    """Raise ShiftTooLarge unless mu lies strictly below every entry of
    lam_min, the smallest eigenvalue of each matrix of a batch."""
    if np.any(lam_min <= mu):
        bad = int(np.argmin(lam_min))
        raise ShiftTooLarge(
            f"shift mu={mu:g} is not strictly below the smallest eigenvalue "
            f"{lam_min[bad]:.12g} (batch index {bad})"
        )


def _shifted_sqrt_batch(qs: np.ndarray, mu: float) -> np.ndarray:
    """sigma with sigma^2 = q - mu*I for a stack of symmetric q, SPD required."""
    w, v = _sym_eig_batch(qs)
    _check_shift(w[:, 0], mu)
    roots = np.sqrt(w - mu)
    sig = np.einsum("nij,nj,nkj->nik", v, roots, v)
    return 0.5 * (sig + np.transpose(sig, (0, 2, 1)))


def shifted_sqrt(q, mu: float):
    """Symmetric sigma with sigma^2 + mu*I = q.

    Requires the smallest eigenvalue of ``q`` to be strictly greater than
    ``mu``; otherwise raises ShiftTooLarge (q = I with mu = 1 is rejected).
    """
    q = _check_symmetric(np.asarray(q, dtype=float), "diffusion matrix")
    return _shifted_sqrt_batch(q[None, :, :], float(mu))[0]


@dataclass(frozen=True)
class SigmaBoundReport:
    """Per-pair slack of the two sigma contraction bounds.

    ``slack_*`` entries are ``bound - ||sigma(x)-sigma(y)||^2``; negative
    values are violations.  Violations are data, not errors: with estimated
    (lambda0, Lambda0) a negative slack is usually a sign that the
    ellipticity estimation window should be widened.
    """

    mu: float
    n_pairs: int
    slack_lipschitz: np.ndarray
    slack_trace: np.ndarray
    violation_indices: np.ndarray
    n_violations_lipschitz: int
    n_violations_trace: int
    worst_slack_lipschitz: float
    worst_slack_trace: float
    note: str = ""


def check_sigma_bounds(field, bounds, mu: float, pairs, tolerance: float = 0.0
                       ) -> SigmaBoundReport:
    """Probe the sigma difference bounds on the given (x, y) pairs.

    ``pairs`` is an (n, 2, d) array (or equivalent nested sequence).
    ``tolerance`` is added to both bounds before a pair is counted as a
    violation; the raw slacks are reported unshifted.
    """
    pts = np.asarray(pairs, dtype=float)
    if pts.ndim != 3 or pts.shape[1] != 2:
        raise ValueError("pairs must have shape (n, 2, d)")
    mu = float(mu)
    if not (0.0 < mu < bounds.lambda0):
        raise ShiftTooLarge(
            f"mu={mu:g} outside (0, lambda0={bounds.lambda0:g})")
    xs, ys = pts[:, 0, :], pts[:, 1, :]
    qx = np.asarray(field.diffusion(xs), dtype=float)
    qy = np.asarray(field.diffusion(ys), dtype=float)
    sx = _shifted_sqrt_batch(qx, mu)
    sy = _shifted_sqrt_batch(qy, mu)
    lhs = np.einsum("nij,nij->n", sx - sy, sx - sy)
    dq2 = np.einsum("nij,nij->n", qx - qy, qx - qy)
    rhs_lip = dq2 / (4.0 * (bounds.lambda0 - mu))
    rhs_tr = field.dim * (bounds.Lambda0 - mu)
    slack_lip = rhs_lip - lhs
    slack_tr = rhs_tr - lhs
    bad_lip = slack_lip < -tolerance
    bad_tr = slack_tr < -tolerance
    n_lip = int(np.sum(bad_lip))
    n_tr = int(np.sum(bad_tr))
    note = ""
    if n_lip or n_tr:
        note = ("bound violations at the estimated ellipticity constants; "
                "re-run estimate_ellipticity with a wider window/sample set "
                "before trusting downstream constants")
    return SigmaBoundReport(
        mu=mu,
        n_pairs=pts.shape[0],
        slack_lipschitz=slack_lip,
        slack_trace=slack_tr,
        violation_indices=np.flatnonzero(bad_lip | bad_tr),
        n_violations_lipschitz=n_lip,
        n_violations_trace=n_tr,
        worst_slack_lipschitz=float(slack_lip.min(initial=np.inf)),
        worst_slack_trace=float(slack_tr.min(initial=np.inf)),
        note=note,
    )
