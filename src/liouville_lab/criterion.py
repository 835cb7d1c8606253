"""Decision pipeline for the drift-dispersion Liouville criterion.

The sufficient condition being decided: with ellipticity bounds
``lambda0 <= q(x) <= Lambda0`` (as quadratic forms), the operator has the
Liouville property whenever

    limsup_{s -> inf}  sup_{|x-y| = s} <x - y, b(x) - b(y)>
        <  2*lambda0 - (d/2) * (Lambda0 - lambda0)

and the combined modulus

    omega(s) = sup_{|x-y| <= s} { lam*||q(x)-q(y)||_HS^2
                                  + 2*<x-y, b(x)-b(y)> }

is Dini at 0, where lam = 1/(4*(lambda0 - mu)) for an auxiliary constant
0 < mu < lambda0.  The pipeline estimates the dispersion curve kappa(s),
picks admissible constants (mu, s0, s1, s2), estimates omega, assembles

    g(s) = omega(s)/s        on [0, s0]   (closed at s0)
           s2/s              on (s0, inf)

and reports the divergence of int_0^inf exp(-(1/(4*mu)) int_0^r g) dr,
which holds exactly when s2/(4*mu) <= 1.

Two honesty caveats are stamped on every report.  First, the limsup is
replaced by the max over the largest radii of a finite window: kappa
values are certified lower bounds of the window sup (multistart ascent
cannot overshoot), so the verdict is conservative in the dispersion
direction but depends on the refinement finding the true max.  Second,
the sup over |x-y| <= s is computed by optimizing at |x-y| = s on a grid
and taking a running maximum, with a floor at 0 (the pair x = y).

Both sups come from one engine, _refine_sup, which refines every radius
of a grid at once: one objective call per move serves all live radii,
and a radius leaves the block when its own ascent converges, so each
value is what refining that radius alone would give.  Radii that stop
at the sweep cap instead are named in the report's diagnostics; a NaN
objective raises CoefficientEvaluationError (a +inf sup is a value).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from . import _streams
from .coefficients import (CoefficientField, EllipticityBounds,
                           estimate_ellipticity, row_norms, row_view,
                           take_rows)
from .errors import (CoefficientEvaluationError, ConstantMismatch,
                     NoAdmissibleConstants, annotate_stage)

VERDICT_GUARANTEED = "LiouvilleGuaranteed"
VERDICT_INCONCLUSIVE = "Inconclusive"

_IMPROVE_TOL = 1e-10
_MAX_SWEEPS = 240


# --------------------------------------------------------------------------
# sup-estimation engine (shared by drift_dispersion and modulus)

def _project_ball(points: np.ndarray, radius: float) -> None:
    """Scale the rows of ``points`` outside the ball back onto it, in
    place; a row inside is multiplied by 1.0, which leaves it exact."""
    norms = row_norms(points)
    over = norms > radius
    if over.any():
        points *= np.where(over, radius / norms, 1.0)[:, None]


def _multistart(seed: int, domain: int, index: int, n: int, dim: int,
                window_radius: float) -> Tuple[np.ndarray, np.ndarray]:
    """Deterministic anchors plus the first ``n`` seeded random starts.

    The anchors put the midpoint at the origin with axis (and diagonal)
    directions — the centered antipodal configuration x = -y that the
    asymptotic theory singles out — so the refined sup can never miss it.
    Random starts are generated in fixed chunks of START_CHUNK so that
    any two runs share a common prefix: enlarging n_pairs can only add
    starts, never reshuffle them (this is what makes kappa nondecreasing
    in the number of pairs).
    """
    anchors_e = [np.eye(dim)[j] for j in range(dim)]
    if dim > 1:
        anchors_e.append(np.full(dim, 1.0 / math.sqrt(dim)))
    ms = [np.zeros((len(anchors_e), dim))]
    es = [np.stack(anchors_e, axis=0)]
    for chunk in range((n + _streams.START_CHUNK - 1) // _streams.START_CHUNK):
        rng = _streams.substream(seed, domain, index, chunk)
        ms.append(_streams.ball_points(rng, rng, _streams.START_CHUNK, dim,
                                       window_radius))
        es.append(_streams.sphere_dirs(rng, _streams.START_CHUNK, dim))
    m = np.concatenate(ms, axis=0)[:len(anchors_e) + n]
    e = np.concatenate(es, axis=0)[:len(anchors_e) + n]
    return m, e


def _pair_points(m: np.ndarray, e: np.ndarray, s: np.ndarray) -> np.ndarray:
    """The pairs x = m + (s/2)e over y = m - (s/2)e, one pair per row."""
    k = m.shape[0]
    out = np.empty((2 * k, m.shape[1]))
    y = out[k:]
    np.multiply((0.5 * s)[:, None], e, out=y)
    np.add(m, y, out=out[:k])
    np.subtract(m, y, out=y)
    return out


def _stacked_starts(seed: int, domain: int, n_radii: int, n: int, dim: int,
                    window_radius: float) -> Tuple[np.ndarray, np.ndarray]:
    """The _multistart block of every radius index, stacked as (R, k, d)."""
    starts = [_multistart(seed, domain, i, n, dim, window_radius)
              for i in range(n_radii)]
    return (np.stack([m for m, _ in starts]),
            np.stack([e for _, e in starts]))


def _refine_sup(objective: Callable[[np.ndarray, np.ndarray, np.ndarray],
                                     np.ndarray],
                m: np.ndarray, e: np.ndarray, s: np.ndarray,
                window_radius: float) -> Tuple[np.ndarray, np.ndarray]:
    """Coordinate ascent on (midpoint, direction) from many starts, for
    every radius of a grid at once.

    ``m`` and ``e`` stack the k starts of each of the R radii as
    (R, k, d); ``s`` holds the R separations.  ``objective(m, e, s) ->
    (n,)`` takes one row per candidate, ``s`` being each row's separation,
    and must be pure and act row by row.  Midpoint moves are projected
    back into the window ball; direction moves are renormalized (the
    objective is symmetric under e -> -e, so only hemisphere moves
    matter).  Per-candidate steps halve after a sweep that improves that
    candidate by less than 1e-10.  A radius leaves the live set on the
    sweep where all of its candidates' steps fall below the floors, or
    after _MAX_SWEEPS sweeps; masking finished radii leaves every row's
    trajectory, and so every value, what a run on that radius alone would
    give.

    Returns, per radius, the maximum over every configuration evaluated
    (hence a certified lower bound of the window sup) and the sweeps it
    used; _MAX_SWEEPS marks a radius stopped at the cap.  A NaN objective
    raises CoefficientEvaluationError naming the pair; +inf is a
    legitimate sup.

    Each call allocates its own state (the flattened starts, the values,
    the steps) and each move a fresh candidate block; an accepted move
    copies whole rows under a mask, and nothing is kept between calls.
    The objective's result is kept as the values, so it must be a new
    array on every call.
    """
    n_radii, k, dim = m.shape
    m = m.reshape(-1, dim).copy()
    e = e.reshape(-1, dim).copy()
    rows_s = np.repeat(np.asarray(s, dtype=float), k)
    values = np.empty(n_radii)
    sweeps = np.empty(n_radii, dtype=int)
    live = np.arange(n_radii)
    m_floor = 1e-12 * (1.0 + window_radius)

    def evaluate(mc, ec, best):
        """The objective at (mc, ec), with ``best`` raised in place to
        each radius's maximum of it."""
        fc = objective(mc, ec, rows_s)
        top = fc.reshape(-1, k).max(axis=1)  # NaN if any row is NaN
        if np.isnan(top).any():
            i = int(np.flatnonzero(np.isnan(fc))[0])
            x, y = _pair_points(mc[i:i + 1], ec[i:i + 1], rows_s[i:i + 1])
            raise CoefficientEvaluationError(
                f"sup-search objective is NaN at the pair x = {x.tolist()}, "
                f"y = {y.tolist()} (separation {rows_s[i]:.6g})")
        np.copyto(best, top, where=top > best)
        return fc

    def accept(state, cand, fc):
        """Move the rows where the candidate improves on f."""
        take = fc > f
        np.copyto(row_view(state), row_view(cand), where=take)
        np.copyto(f, fc, where=take)

    # an infinite objective is a value (and inf - inf in the stall test
    # reads as progress); NaN objectives raise in evaluate
    with np.errstate(all="ignore"):
        best = np.full(n_radii, -np.inf)
        f = evaluate(m, e, best)
        step_m = np.full(f.size, max(window_radius / 4.0, 1e-6))
        step_e = np.full(f.size, 0.5)
        for sweep in range(1, _MAX_SWEEPS + 1):
            f_start = f.copy()
            for axis in range(dim):
                for move in (np.add, np.subtract):
                    cand = m.copy()
                    move(cand[:, axis], step_m, out=cand[:, axis])
                    _project_ball(cand, window_radius)
                    accept(m, cand, evaluate(cand, e, best))
                if dim > 1:
                    for move in (np.add, np.subtract):
                        cand = e.copy()
                        move(cand[:, axis], step_e, out=cand[:, axis])
                        norms = row_norms(cand)
                        good = norms > 1e-14
                        # a near-zero row is divided by 1.0, then put back
                        cand /= np.where(good, norms, 1.0)[:, None]
                        if not good.all():
                            np.copyto(row_view(cand), row_view(e), where=~good)
                        accept(e, cand, evaluate(m, cand, best))
            stalled = (f - f_start) < _IMPROVE_TOL
            step_m[stalled] *= 0.5
            step_e[stalled] *= 0.5
            done = ((step_m < m_floor) & (step_e < 1e-12)) \
                .reshape(-1, k).all(axis=1)
            if sweep == _MAX_SWEEPS:
                done[:] = True
            if done.any():
                values[live[done]] = best[done]  # f's values are in best
                sweeps[live[done]] = sweep
                keep = np.repeat(~done, k)
                live, best = live[~done], best[~done]
                m, e = take_rows(m, keep), take_rows(e, keep)
                f, rows_s = f[keep], rows_s[keep]
                step_m, step_e = step_m[keep], step_e[keep]
                if not live.size:
                    break
    return values, sweeps


# --------------------------------------------------------------------------
# dispersion

@dataclass(frozen=True)
class DispersionCurve:
    """kappa(s) over a radius grid; each value is a certified lower bound
    of the window sup at that exact separation.  ``sweeps`` holds the
    ascent sweeps each radius used (_MAX_SWEEPS: stopped at the cap), or
    None for a curve not produced by the sup-search."""

    radii: np.ndarray
    values: np.ndarray
    window_radius: float
    n_pairs_per_radius: int
    seed: int
    method: str
    sweeps: Optional[np.ndarray] = None


def drift_dispersion(field: CoefficientField, radii: Sequence[float],
                     n_pairs: int = 32, seed: int = 0, *,
                     window_radius: float = 100.0) -> DispersionCurve:
    """Estimate kappa(s) = sup_{|x-y|=s} <x-y, b(x)-b(y)> per radius.

    Pairs are parametrized as x = m + (s/2)e, y = m - (s/2)e with the
    midpoint m confined to the window ball and e a unit vector, so the
    separation is exactly s throughout refinement.  Without the window
    the sup may be infinite even for fields whose dispersion limit is
    finite along antipodal rays, so the confinement is part of the
    method, recorded in ``method``.
    """
    radii = np.asarray(list(radii), dtype=float)
    if radii.size == 0 or np.any(radii <= 0) or np.any(np.diff(radii) <= 0):
        raise ValueError("radii must be positive and strictly ascending")
    if n_pairs < 1:
        raise ValueError("n_pairs must be >= 1")

    def objective(m, e, s):
        pts = _pair_points(m, e, s)
        b = np.asarray(field.drift(pts), dtype=float)
        k = m.shape[0]
        return s * np.einsum("ij,ij->i", e, b[:k] - b[k:])

    m0, e0 = _stacked_starts(seed, _streams.DOMAIN_DISPERSION, radii.size,
                             n_pairs, field.dim, window_radius)
    values, sweeps = _refine_sup(objective, m0, e0, radii, window_radius)
    method = (f"multistart({n_pairs} pairs/radius) + projected coordinate "
              f"ascent; midpoints confined to |m| <= {window_radius:g}; "
              "values are lower bounds of the window sup")
    return DispersionCurve(radii=radii, values=values,
                           window_radius=float(window_radius),
                           n_pairs_per_radius=int(n_pairs), seed=int(seed),
                           method=method, sweeps=sweeps)


def asymptotic_dispersion(curve: DispersionCurve, tail_fraction: float) -> float:
    """Truncated limsup surrogate: max of kappa over the largest radii."""
    n = curve.radii.size
    if n < 10:
        raise ValueError("need at least 10 radii for a tail estimate")
    if not (0.0 < tail_fraction <= 1.0):
        raise ValueError("tail_fraction must lie in (0, 1]")
    k = math.ceil(tail_fraction * n)
    return float(curve.values[n - k:].max())


def theorem_threshold(bounds: EllipticityBounds, dim: int) -> float:
    """Right-hand side of the criterion: 2*lambda0 - (d/2)(Lambda0-lambda0)."""
    return 2.0 * bounds.lambda0 - 0.5 * dim * (bounds.Lambda0 - bounds.lambda0)


@dataclass(frozen=True)
class ClassicConditionReport:
    """Outcome of the classical contraction-type condition

        (1/(2*lambda0))*||q(x) - q(x+h)||^2 + 2*<b(x+h) - b(x), h>  <=  0

    on the supplied (x, h) pairs.  ``holds`` means no positive value was
    found; a positive maximum documents where the classical condition
    fails (possibly while the dispersion criterion still applies).
    """

    values: np.ndarray
    max_value: float
    worst_index: int
    worst_pair: Tuple[np.ndarray, np.ndarray]
    holds: bool


def classic_condition_check(field: CoefficientField, bounds: EllipticityBounds,
                            pairs: Sequence) -> ClassicConditionReport:
    """Evaluate the classical condition on (x, h) pairs (h a displacement)."""
    xs = np.asarray([np.atleast_1d(p[0]) for p in pairs], dtype=float)
    hs = np.asarray([np.atleast_1d(p[1]) for p in pairs], dtype=float)
    if xs.shape != hs.shape or xs.ndim != 2 or xs.shape[1] != field.dim:
        raise ValueError("pairs must be (x, h) with d-dimensional entries")
    both = np.concatenate([xs, xs + hs], axis=0)
    q = np.asarray(field.diffusion(both), dtype=float)
    b = np.asarray(field.drift(both), dtype=float)
    n = xs.shape[0]
    dq = q[:n] - q[n:]
    vals = (np.einsum("nij,nij->n", dq, dq) / (2.0 * bounds.lambda0)
            + 2.0 * np.einsum("ij,ij->i", b[n:] - b[:n], hs))
    worst = int(np.argmax(vals))
    return ClassicConditionReport(
        values=vals,
        max_value=float(vals[worst]),
        worst_index=worst,
        worst_pair=(xs[worst].copy(), hs[worst].copy()),
        holds=bool(vals[worst] <= 0.0),
    )


# --------------------------------------------------------------------------
# constants

@dataclass(frozen=True)
class CriterionConstants:
    """The auxiliary constants (mu, s0, s1, s2, lam) of the construction.

    Admissibility (s1 < 2*mu - d(Lambda0-mu)/2, equivalently s2 < 4*mu)
    is checked by :meth:`is_admissible`, not enforced at construction:
    the escape-integral machinery is also exercised on deliberately
    inadmissible constants (convergent tails) by the test-suite.
    """

    mu: float
    s0: float
    s1: float
    s2: float
    lam: float

    def is_admissible(self, bounds: EllipticityBounds, dim: int) -> bool:
        return (0.0 < self.mu < bounds.lambda0
                and self.s0 > 0.0
                and self.s1 < 2.0 * self.mu
                - 0.5 * dim * (bounds.Lambda0 - self.mu)
                and self.s2 < 4.0 * self.mu)


def _admissible_candidates(bounds: EllipticityBounds, dim: int,
                           curve: DispersionCurve, mu_grid: int,
                           tail_fraction: float) -> list:
    if mu_grid < 1:
        raise ValueError("mu_grid must be >= 1")
    s1 = asymptotic_dispersion(curve, tail_fraction)
    suffix = np.maximum.accumulate(curve.values[::-1])[::-1]
    idx = int(np.argmax(suffix <= s1 + 1e-12))
    s0 = float(curve.radii[idx])
    out = []
    for k in range(1, mu_grid + 1):
        mu = bounds.lambda0 * k / (mu_grid + 1)
        s2 = 2.0 * s1 + dim * (bounds.Lambda0 - mu)
        margin = 4.0 * mu - s2
        if s1 < 2.0 * mu - 0.5 * dim * (bounds.Lambda0 - mu) and margin > 0.0:
            lam = 1.0 / (4.0 * (bounds.lambda0 - mu))
            out.append((margin, mu,
                        CriterionConstants(mu=mu, s0=s0, s1=s1, s2=s2,
                                           lam=lam)))
    # best margin first; among equal margins the smaller mu is safer
    # (smaller lam in the modulus), so it wins the tie.
    out.sort(key=lambda t: (-t[0], t[1]))
    return [c for _, _, c in out]


def choose_constants(bounds: EllipticityBounds, dim: int,
                     curve: DispersionCurve, mu_grid: int = 99, *,
                     tail_fraction: float = 0.2) -> CriterionConstants:
    """Scan a mu grid and keep the admissible constants of largest margin.

    s1 is the tail maximum of the dispersion curve, s0 the smallest grid
    radius from which kappa stays <= s1.  The margin 4*mu - s2 is
    strictly increasing in mu, so the scan effectively returns the
    largest admissible mu on the grid; the grid (and the Dini retry in
    the pipeline) is what keeps the choice honest for variable q.
    """
    cands = _admissible_candidates(bounds, dim, curve, mu_grid, tail_fraction)
    if not cands:
        s1 = asymptotic_dispersion(curve, tail_fraction)
        raise NoAdmissibleConstants(
            f"no mu in (0, {bounds.lambda0:g}) satisfies s1 < 2*mu - "
            f"{dim}*(Lambda0-mu)/2 with s1 = {s1:.6g}, "
            f"Lambda0 = {bounds.Lambda0:g}")
    return cands[0]


# --------------------------------------------------------------------------
# modulus

@dataclass(frozen=True)
class ModulusProfile:
    """omega(s) on a log grid in (0, s0], with the Dini-mass bookkeeping.

    ``dini_mass`` is the trapezoid value of int omega(s)/s ds over the
    grid; the (0, s_min) head is handled by a power fit on the three
    smallest grid points, whose mass is reported separately
    (``head_mass``).  ``dini_ok`` is False when omega does not vanish at
    0 fast enough (fit exponent <= 0), i.e. the Dini requirement fails.
    ``sweeps`` holds the ascent sweeps of each grid point, as in
    :class:`DispersionCurve`.
    """

    lam: float
    radii: np.ndarray
    values: np.ndarray
    dini_mass: float
    head_exponent: Optional[float] = None
    head_coeff: float = 0.0
    head_mass: float = 0.0
    dini_ok: bool = True
    notes: Tuple[str, ...] = ()
    sweeps: Optional[np.ndarray] = None

    @property
    def total_mass(self) -> float:
        return self.head_mass + self.dini_mass


def _log_trapezoid(radii: np.ndarray, values: np.ndarray) -> float:
    """Trapezoid of int values(s)/s ds on an ascending grid (compensated)."""
    t = np.log(radii)
    terms = 0.5 * (values[1:] + values[:-1]) * np.diff(t)
    return math.fsum(terms.tolist())


def modulus_profile_from_samples(lam: float, radii, values,
                                 notes: Tuple[str, ...] = (),
                                 sweeps: Optional[np.ndarray] = None
                                 ) -> ModulusProfile:
    """Assemble a ModulusProfile from raw sup samples on an ascending grid.

    Applies the running maximum (sup over <= s) and the floor at 0, fits
    the head exponent, and computes the grid and head masses.  Used by
    :func:`modulus` and by tests that need synthetic profiles.
    """
    radii = np.asarray(radii, dtype=float)
    values = np.asarray(values, dtype=float)
    if radii.ndim != 1 or radii.size < 3 or np.any(np.diff(radii) <= 0):
        raise ValueError("need an ascending grid of at least 3 radii")
    if np.any(radii <= 0):
        raise ValueError("radii must be positive")
    omega = np.maximum(np.maximum.accumulate(values), 0.0)
    mass = _log_trapezoid(radii, omega)
    head_exponent = None
    head_coeff = 0.0
    head_mass = 0.0
    dini_ok = True
    note_list = list(notes)
    if omega[0] > 0.0:
        ls = np.log(radii[:3])
        lw = np.log(omega[:3])
        design = np.stack([np.ones(3), ls], axis=1)
        coef, *_ = np.linalg.lstsq(design, lw, rcond=None)
        p = float(coef[1])
        a = float(math.exp(coef[0]))
        head_exponent = p
        head_coeff = a
        if p <= 0.0:
            dini_ok = False
            head_mass = math.inf
            note_list.append(
                f"Dini violation: omega(s) ~ {a:.3g}*s^{p:.3g} near 0 does "
                "not vanish fast enough for int omega(s)/s ds to converge")
        else:
            head_mass = a * radii[0] ** p / p
    return ModulusProfile(lam=float(lam), radii=radii, values=omega,
                          dini_mass=mass, head_exponent=head_exponent,
                          head_coeff=head_coeff, head_mass=head_mass,
                          dini_ok=dini_ok, notes=tuple(note_list),
                          sweeps=sweeps)


def modulus(field: CoefficientField, lam: float, s0: float,
            n_pairs: int = 16, grid_size: int = 48, seed: int = 0, *,
            window_radius: float = 100.0, s_min: float = 1e-6
            ) -> ModulusProfile:
    """Estimate omega(s) on a log grid in [s_min, s0].

    Each grid point maximizes lam*||q(x)-q(y)||^2 + 2<x-y, b(x)-b(y)>
    over pairs at separation exactly s (same multistart scheme as the
    dispersion curve); the running maximum then realizes the sup over
    separations <= s, and the floor at 0 accounts for the pair x = y.
    """
    if not (lam > 0):
        raise ValueError("lam must be positive")
    if not (0 < s_min < s0):
        raise ValueError("need 0 < s_min < s0")
    if grid_size < 3:
        raise ValueError("grid_size must be >= 3")
    grid = np.geomspace(s_min, s0, grid_size)
    grid[-1] = s0
    skip_q = field.constant_diffusion

    def objective(m, e, s):
        pts = _pair_points(m, e, s)
        k = m.shape[0]
        b = np.asarray(field.drift(pts), dtype=float)
        val = 2.0 * s * np.einsum("ij,ij->i", e, b[:k] - b[k:])
        if not skip_q:
            q = np.asarray(field.diffusion(pts), dtype=float)
            dq = q[:k] - q[k:]
            val = val + lam * np.einsum("nij,nij->n", dq, dq)
        return val

    m0, e0 = _stacked_starts(seed, _streams.DOMAIN_MODULUS, grid.size,
                             n_pairs, field.dim, window_radius)
    raw, sweeps = _refine_sup(objective, m0, e0, grid, window_radius)
    notes = (
        "omega estimated by optimizing at separation exactly s on the grid, "
        "then taking a running maximum (sup over <= s) and flooring at 0 "
        "(the pair x = y)",
        f"pair midpoints confined to |m| <= {window_radius:g}",
    )
    return modulus_profile_from_samples(lam, grid, raw, notes=notes,
                                        sweeps=sweeps)


# --------------------------------------------------------------------------
# the radial comparison function g and the escape integral

@dataclass(frozen=True)
class GFunction:
    """Evaluable g(s) = omega(s)/s on [0, s0] (closed), s2/s beyond.

    omega is interpolated log-linearly between grid nodes (linearly on a
    segment that leaves 0), extended below the grid by the fitted power
    head.  ``integral`` evaluates int_0^r g exactly for this piecewise
    form (segment masses precomputed with compensated summation).
    """

    s_grid: np.ndarray
    omega: np.ndarray
    s0: float
    s2: float
    lam: float
    head_exponent: Optional[float]
    head_coeff: float
    head_mass: float
    cum_mass: np.ndarray  # int_0^{s_grid[i]} g, including the head

    def _head_value(self, s: np.ndarray) -> np.ndarray:
        if self.head_exponent is None:
            return np.zeros_like(s)
        return self.head_coeff * s ** (self.head_exponent - 1.0)

    def __call__(self, s):
        scalar = np.isscalar(s)
        s = np.atleast_1d(np.asarray(s, dtype=float))
        out = np.zeros_like(s)
        head = (s > 0) & (s < self.s_grid[0])
        if head.any():
            out[head] = self._head_value(s[head])
        tail = s > self.s0
        if tail.any():
            out[tail] = self.s2 / s[tail]
        mid = (s >= self.s_grid[0]) & (s <= self.s0)
        if mid.any():
            out[mid] = self._interp_omega(s[mid]) / s[mid]
        return float(out[0]) if scalar else out

    def _interp_omega(self, s: np.ndarray) -> np.ndarray:
        j = np.clip(np.searchsorted(self.s_grid, s, side="right"),
                    1, self.s_grid.size - 1)
        i = j - 1
        si, sj = self.s_grid[i], self.s_grid[j]
        wi, wj = self.omega[i], self.omega[j]
        out = np.zeros_like(s)
        pos = wi > 0
        if pos.any():
            beta = np.log(wj[pos] / wi[pos]) / np.log(sj[pos] / si[pos])
            out[pos] = wi[pos] * (s[pos] / si[pos]) ** beta
        lin = (~pos) & (wj > 0)
        if lin.any():
            out[lin] = wj[lin] * (s[lin] - si[lin]) / (sj[lin] - si[lin])
        return np.maximum(out, 0.0)

    def integral(self, r):
        """int_0^r g(s) ds, exact for the interpolated form."""
        scalar = np.isscalar(r)
        r = np.atleast_1d(np.asarray(r, dtype=float))
        out = np.zeros_like(r)
        s_lo = self.s_grid[0]
        head = (r > 0) & (r <= s_lo)
        if head.any():
            if self.head_exponent is None:
                out[head] = 0.0
            elif self.head_exponent > 0:
                p = self.head_exponent
                out[head] = self.head_coeff * r[head] ** p / p
            else:
                out[head] = math.inf
        mid = (r > s_lo) & (r <= self.s0)
        if mid.any():
            j = np.clip(np.searchsorted(self.s_grid, r[mid], side="right"),
                        1, self.s_grid.size - 1)
            i = j - 1
            partial = _segment_mass(self.s_grid[i], r[mid],
                                    self.omega[i], self._interp_omega(r[mid]))
            out[mid] = self.cum_mass[i] + partial
        tail = r > self.s0
        if tail.any():
            out[tail] = self.cum_mass[-1] + self.s2 * np.log(r[tail] / self.s0)
        return float(out[0]) if scalar else out


def _segment_mass(si, sj, wi, wj):
    """int_{si}^{sj} omega(s)/s ds for one interpolation segment (vectorized).

    Log-linear when wi > 0 (omega = wi*(s/si)^beta), linear in s when the
    segment leaves zero, 0 when flat zero.
    """
    si = np.asarray(si, dtype=float)
    sj = np.asarray(sj, dtype=float)
    wi = np.asarray(wi, dtype=float)
    wj = np.asarray(wj, dtype=float)
    out = np.zeros(np.broadcast(si, sj, wi, wj).shape)
    si, sj, wi, wj = np.broadcast_arrays(si, sj, wi, wj)
    same = sj <= si
    pos = (wi > 0) & ~same
    if pos.any():
        with np.errstate(divide="ignore", invalid="ignore"):
            beta = np.log(np.where(pos, wj, 1.0) / np.where(pos, wi, 1.0)) \
                / np.log(np.where(pos, sj / si, 2.0))
        flat = np.abs(beta) < 1e-12
        grow = pos & ~flat
        out[grow] = wi[grow] * ((sj[grow] / si[grow]) ** beta[grow] - 1.0) \
            / beta[grow]
        level = pos & flat
        out[level] = wi[level] * np.log(sj[level] / si[level])
    lin = (~pos) & (wj > 0) & ~same
    if lin.any():
        span = sj[lin] - si[lin]
        out[lin] = wj[lin] * (span - si[lin] * np.log(sj[lin] / si[lin])) / span
    return out


def build_g(profile: ModulusProfile, constants: CriterionConstants) -> GFunction:
    """Assemble g from a modulus profile and chosen constants.

    The profile must have been computed with the same lam as the
    constants (enforced to 1e-12 relative) and its grid must end at s0.
    """
    tol = 1e-12 * max(abs(constants.lam), 1.0)
    if abs(profile.lam - constants.lam) > tol:
        raise ConstantMismatch(
            f"profile lam={profile.lam!r} does not match constants "
            f"lam={constants.lam!r}")
    if abs(profile.radii[-1] - constants.s0) > 1e-9 * max(constants.s0, 1.0):
        raise ConstantMismatch(
            f"profile grid ends at {profile.radii[-1]!r}, constants expect "
            f"s0={constants.s0!r}")
    seg = _segment_mass(profile.radii[:-1], profile.radii[1:],
                        profile.values[:-1], profile.values[1:])
    cum = np.empty(profile.radii.size)
    cum[0] = profile.head_mass
    acc = profile.head_mass
    for i, v in enumerate(seg):
        acc = acc + float(v)
        cum[i + 1] = acc
    return GFunction(
        s_grid=profile.radii.copy(),
        omega=profile.values.copy(),
        s0=float(constants.s0),
        s2=float(constants.s2),
        lam=float(constants.lam),
        head_exponent=profile.head_exponent,
        head_coeff=profile.head_coeff,
        head_mass=profile.head_mass,
        cum_mass=cum,
    )


class EscapeResult(NamedTuple):
    """Divergence decision plus numeric diagnostics for the escape integral."""

    divergent: bool
    partial_integral: float
    prefactor: float
    tail_exponent: float


def escape_integral_divergent(g: GFunction, constants: CriterionConstants,
                              r_max: float = 1e6) -> EscapeResult:
    """Decide divergence of int_0^inf exp(-(1/(4 mu)) int_0^r g) dr.

    Beyond s0 the integrand is exactly prefactor * r^(-s2/(4 mu)), so the
    integral diverges iff s2/(4 mu) <= 1 (boundary exponent 1 gives a
    logarithm, divergent).  The numeric partial integral up to r_max is
    returned as a diagnostic only; the decision is the analytic one.
    """
    if not (r_max > constants.s0):
        raise ValueError("r_max must exceed s0")
    four_mu = 4.0 * constants.mu
    exponent = constants.s2 / four_mu
    mass_s0 = float(g.integral(constants.s0))
    arg = -(mass_s0 - constants.s2 * math.log(constants.s0)) / four_mu
    if arg > 700.0:
        prefactor = math.inf
    elif arg < -745.0 or math.isinf(mass_s0):
        prefactor = 0.0
    else:
        prefactor = math.exp(arg)
    r1 = min(constants.s0 * 1e-3, 1e-3)
    grid = np.concatenate([[0.0], np.geomspace(r1, r_max, 4096)])
    bigG = g.integral(grid)
    with np.errstate(over="ignore"):
        integrand = np.exp(np.clip(-bigG / four_mu, -745.0, 50.0))
    partial = float(np.trapezoid(integrand, grid))
    return EscapeResult(divergent=bool(exponent <= 1.0),
                        partial_integral=partial,
                        prefactor=prefactor,
                        tail_exponent=float(exponent))


# --------------------------------------------------------------------------
# end-to-end pipeline

@dataclass(frozen=True)
class CriterionConfig:
    """Tunable knobs of the pipeline; every stage derives its randomness
    from ``seed``, so identical configs give bit-identical reports."""

    window_radius: float = 100.0
    radii_min: float = 1.0
    radii_max: float = 1e5
    radii_points: int = 48
    radii_log: bool = True
    n_pairs: int = 32
    tail_fraction: float = 0.2
    ellipticity_samples: int = 20000
    mu_grid: int = 99
    modulus_points: int = 48
    modulus_pairs: int = 16
    modulus_s_min: float = 1e-6
    escape_r_max: float = 1e6
    seed: int = 0

    def radii(self) -> np.ndarray:
        if self.radii_log:
            return np.geomspace(self.radii_min, self.radii_max,
                                self.radii_points)
        return np.linspace(self.radii_min, self.radii_max, self.radii_points)


@dataclass(frozen=True)
class CriterionReport:
    """Everything the pipeline decided and why, in evaluation order."""

    field_label: str
    dim: int
    bounds: EllipticityBounds
    dispersion: DispersionCurve
    kappa_inf: float
    threshold: float
    verdict: str
    diagnostics: Tuple[str, ...]
    constants: Optional[CriterionConstants] = None
    modulus: Optional[ModulusProfile] = None
    escape: Optional[EscapeResult] = None


_DINI_RETRIES = 4


def _cap_notes(stage: str, sweeps: Optional[np.ndarray]) -> list:
    """The diagnostic naming the radii whose ascent stopped at the cap."""
    capped = 0 if sweeps is None else int(np.sum(sweeps >= _MAX_SWEEPS))
    if not capped:
        return []
    return [f"stage {stage}: {capped} of {sweeps.size} radii stopped at the "
            f"{_MAX_SWEEPS}-sweep cap"]


def evaluate_liouville_criterion(field: CoefficientField,
                                 config: Optional[CriterionConfig] = None
                                 ) -> CriterionReport:
    """Run the full decision pipeline on one field.

    Stage order: ellipticity -> dispersion -> threshold -> constants ->
    modulus (Dini) -> g -> escape integral.  A failed stage produces an
    Inconclusive verdict with the stage named in the diagnostics; for
    variable diffusion a Dini failure retries the next-best admissible mu
    (smaller mu means smaller lam in omega) a few times before giving up.
    """
    cfg = config or CriterionConfig()
    notes = []
    if field.smoothness_note:
        notes.append(field.smoothness_note)

    with annotate_stage("ellipticity"):
        bounds = estimate_ellipticity(field, cfg.window_radius,
                                      cfg.ellipticity_samples, cfg.seed)
    with annotate_stage("dispersion"):
        curve = drift_dispersion(field, cfg.radii(), cfg.n_pairs, cfg.seed,
                                 window_radius=cfg.window_radius)
    kappa_inf = asymptotic_dispersion(curve, cfg.tail_fraction)
    threshold = theorem_threshold(bounds, field.dim)
    notes.extend(_cap_notes("dispersion", curve.sweeps))
    notes.append(
        f"kappa_inf is window-limited: radii in [{cfg.radii_min:g}, "
        f"{cfg.radii_max:g}], midpoints confined to |m| <= "
        f"{cfg.window_radius:g}; true limsup may exceed the estimate")

    def report(verdict, diagnostics, constants=None, profile=None, esc=None):
        return CriterionReport(
            field_label=field.label, dim=field.dim, bounds=bounds,
            dispersion=curve, kappa_inf=kappa_inf, threshold=threshold,
            verdict=verdict, diagnostics=tuple(diagnostics + notes),
            constants=constants, modulus=profile, escape=esc)

    if not (kappa_inf < threshold):
        return report(VERDICT_INCONCLUSIVE, [
            f"stage dispersion-threshold: kappa_inf = {kappa_inf:.6g} does "
            f"not fall below the threshold {threshold:.6g}"])

    candidates = _admissible_candidates(bounds, field.dim, curve, cfg.mu_grid,
                                        cfg.tail_fraction)
    if not candidates:
        return report(VERDICT_INCONCLUSIVE, [
            f"stage constants: kappa_inf = {kappa_inf:.6g} is below the "
            f"threshold {threshold:.6g} but no grid mu satisfies the "
            f"margin condition (mu_grid = {cfg.mu_grid})"])

    profile = None
    constants = None
    tried = []
    for cand in candidates[:_DINI_RETRIES]:
        with annotate_stage("modulus"):
            prof = modulus(field, cand.lam, cand.s0, cfg.modulus_pairs,
                           cfg.modulus_points, cfg.seed,
                           window_radius=cfg.window_radius,
                           s_min=cfg.modulus_s_min)
        tried.append(cand.mu)
        if prof.dini_ok:
            profile = prof
            constants = cand
            break
        if field.constant_diffusion:
            # lam never enters omega when q is constant; retrying other
            # mu values cannot change the Dini outcome.
            break
    notes.extend(_cap_notes("modulus", prof.sweeps))
    if profile is None:
        return report(VERDICT_INCONCLUSIVE, [
            "stage modulus: Dini integral of omega(s)/s diverges at 0 for "
            f"mu candidates {tried} (head exponent <= 0)"], None, prof)

    g = build_g(profile, constants)
    # escape_r_max is a floor: the diagnostic integral must always reach
    # past s0 into the pure power-law regime.
    esc = escape_integral_divergent(g, constants,
                                    max(cfg.escape_r_max, 100.0 * constants.s0))
    notes.append(
        "escape prefactor reported as exp(-c/(4*mu)) with c = int_0^{s0} g; "
        "the divergence verdict depends only on the tail exponent "
        "s2/(4*mu)")
    if esc.divergent and constants.is_admissible(bounds, field.dim):
        return report(VERDICT_GUARANTEED, [
            f"criterion satisfied: kappa_inf = {kappa_inf:.6g} < "
            f"{threshold:.6g}; mu = {constants.mu:.6g}, s2/(4*mu) = "
            f"{esc.tail_exponent:.6g} <= 1; Dini mass = "
            f"{profile.total_mass:.6g}"], constants, profile, esc)
    return report(VERDICT_INCONCLUSIVE, [
        "stage escape: escape integral not divergent at the chosen "
        f"constants (tail exponent {esc.tail_exponent:.6g})"],
        constants, profile, esc)
