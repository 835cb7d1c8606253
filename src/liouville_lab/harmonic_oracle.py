"""Exact one-dimensional ground truth for the Liouville question.

For L = 1/2 u'' + b(x) u' on the line, every harmonic function is an
affine image of

    u(x) = int_0^x exp(-2 int_0^r b(v) dv) dr

(normalization c1 = 0, c2 = 1 throughout).  Bounded non-constant
harmonic functions exist exactly when u stays bounded on at least one
side, so the Liouville property reduces to a pair of improper-integral
convergence questions that this module answers numerically.

Numerics: every integral uses one rule pair, G7/K15.  B(x) = int_0^x b
is marched over a log-spaced grid (256 points per decade), and u
increments integrate u' = exp(-2B) on panels that sample b once at their
15 Kronrod nodes: B at node i is B(a) + h (S f)_i, with f the samples, h
the half-width and S_ij = int_{-1}^{x_i} l_j the spectral integration
matrix of the nodes' Lagrange basis l_j (exact for degree 14).  Both
integrals run through one adaptive engine: a segment's pair is accepted
when |K15 - G7| is within its budget and bisected otherwise (for u, the
right half starts from B at the midpoint, a K15 panel of the left half),
for at most 16 rounds, after which a QuadratureError names the integral.
The budget of a segment is its length's share of tol plus
1e-14 (1 + |K15|) for the drift and 1e-12 |K15| for u.  A drift value
that is not finite raises CoefficientEvaluationError with the x where it
was met.  Sides where -2B exceeds the overflow guard are truncated and
classified unbounded (u' explodes).

Tail classification: pure numeric convergence at a finite x_max cannot
separate u' ~ r^(-1) (unbounded integral) from u' ~ r^(-1) log^(-2) r
(bounded integral), which is precisely the regime the sharp example
family lives in.  The classifier therefore fits

    log u'(r)  ~  c + p*log r + q*log log r

jointly over the last three decades and decides by the power exponent
p, falling back to the log exponent q only inside the window
|p + 1| <= w where the power term cannot be told from the critical
decay.  w is the fit's own precision: twice the gap between p and the p
of the same fit over the upper two thirds of its range, and at least
1e-6.  If q is also within 0.05 of its own critical value -1,
classification is withheld (the profile carries ``None`` and
liouville-verdict queries raise BoundaryUndecided).  A plain power fit
with the documented +-0.02 trigger window would misclassify the sharp
family right at the acceptance points (the fitted p sits at exactly
-1 -+ 0.02 there, contaminated by the log factor).  The joint fit
recovers p to ~1e-6 on this family at the default x_max = 1e6, where w
is 1.4e-6; a fixed w = 0.01 called every delta in [0.495, 0.5)
non-Liouville.  The critical-branch notes print the w they used.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field as dataclasses_field
from typing import Callable, Optional, Tuple

import numpy as np

from .coefficients import CoefficientField, make_log_example
from .errors import (BoundaryUndecided, CoefficientEvaluationError,
                     CoefficientOverflow, NotApplicable, QuadratureError)

# G7/K15 panel: Kronrod nodes/weights, with the embedded Gauss-7 rule on
# the odd-index nodes.  Standard tabulated values.
_K15_X = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0,
    0.207784955007898, 0.405845151377397, 0.586087235467691,
    0.741531185599394, 0.864864423359769, 0.949107912342759,
    0.991455371120813,
])
_K15_W = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
    0.204432940075298, 0.190350578064785, 0.169004726639267,
    0.140653259715525, 0.104790010322250, 0.063092092629979,
    0.022935322010529,
])
_G7_W = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469,
    0.381830050505119, 0.279705391489277, 0.129484966168870,
])

_POINTS_PER_DECADE = 256
_OVERFLOW_EXPONENT = 600.0  # truncate where -2B exceeds this (exp ~ 4e260)
_MAX_REFINE_ROUNDS = 16
# |p + 1| window where the power fit alone cannot decide: the fit's own
# precision (_joint_tail_fit).  At delta = 1/2 of the sharp family, p's
# error is 1.03 times the gap between the fit and its refit over the upper
# two thirds, at x_max = 1e4, 1e5 and 1e6; twice the gap covers it.
_P_GAP_FACTOR = 2.0
_P_WINDOW_FLOOR = 1e-6  # where the two fits agree to rounding
_Q_WINDOW = 0.05   # |q + 1| window where the log fit cannot decide either
_DU_FLOOR = math.exp(-745.0)  # _uprime's floor: no power/log tail fit there


def _kahan_cumsum(values: np.ndarray) -> np.ndarray:
    out = np.empty(values.size)
    acc = 0.0
    comp = 0.0
    for i, v in enumerate(values):
        y = float(v) - comp
        t = acc + y
        comp = (t - acc) - y
        acc = t
        out[i] = acc
    return out


def _uprime(bvals: np.ndarray) -> np.ndarray:
    """u' = exp(-2B), clipped to stay finite and nonzero."""
    return np.exp(np.clip(-2.0 * bvals, -745.0, 705.0))


@functools.cache
def _k15_integration() -> np.ndarray:
    """S[i, j] = int_{-1}^{x_i} l_j over the Lagrange basis l_j of the
    Kronrod nodes x: the K15 rule on [-1, x_i] of l_j's product form,
    exact since l_j has degree 14.  Built on first use, so a run without
    the oracle never builds it."""
    x = _K15_X
    half = 0.5 * (x + 1.0)  # half-widths of the [-1, x_i]
    diff = (half[:, None] * (x + 1.0) - 1.0)[..., None] - x  # t_im - x_k
    s = np.empty((x.size, x.size))
    for j in range(x.size):
        k = np.arange(x.size) != j
        s[:, j] = half * (np.prod(diff[..., k] / (x[j] - x[k]), axis=-1)
                          @ _K15_W)
    return s


def _sample(bfun, a, b) -> Tuple[np.ndarray, np.ndarray]:
    """Half-widths h of the segments [a, b] (arrays of one shape) and b at
    their Kronrod nodes, shaped (*a.shape, 15)."""
    h = 0.5 * (b - a)
    pts = h[..., None] * _K15_X
    pts += 0.5 * (a + b)[..., None]
    f = np.asarray(bfun(pts.reshape(-1, 1)), dtype=float)[:, 0]
    return h, f.reshape(pts.shape)


def _kronrod(h, f) -> Tuple[np.ndarray, np.ndarray]:
    """K15 masses of panels sampled at the Kronrod nodes, with |K15 - G7|."""
    k15 = h * (f @ _K15_W)
    return k15, np.abs(k15 - h * (f[..., 1::2] @ _G7_W))


def _uprime_panel(bfun, a, b, b_at_a):
    """K15/G7 masses of exp(-2B) over segments [a, b] with B(a) given, B
    at the Kronrod nodes taken from the panel's own samples f of b."""
    h, f = _sample(bfun, a, b)
    bvals = b_at_a[:, None] + h[:, None] * (f @ _k15_integration().T)
    return _kronrod(h, _uprime(bvals))


def _adapt(panel, split, a, b, carry, budget, what: str):
    """Adaptive quadrature over the segments [a, b].

    ``panel(a, b, carry)`` gives each segment's mass and error estimate; a
    segment is accepted where the error is within ``budget(mass, b - a)``
    (a NaN error never is) and bisected otherwise, its left halves ahead
    of its right halves.  The left halves keep their carry and the right
    halves take ``split(a, mid, carry)``.  Returns the accepted (a, b,
    mass, index) in the order they were accepted, index naming the input
    segment each piece came from.
    """
    index = np.arange(a.size)
    done = []
    for _ in range(_MAX_REFINE_ROUNDS):
        mass, err = panel(a, b, carry)
        good = err <= budget(mass, b - a)
        done.append((a[good], b[good], mass[good], index[good]))
        bad = ~good
        if not bad.any():
            return tuple(np.concatenate(col) for col in zip(*done))
        a, b, carry, index = a[bad], b[bad], carry[bad], index[bad]
        mid = 0.5 * (a + b)
        carry = np.concatenate([carry, split(a, mid, carry)])
        a, b = np.concatenate([a, mid]), np.concatenate([mid, b])
        index = np.concatenate([index, index])
    raise QuadratureError(
        f"{what} did not converge after {_MAX_REFINE_ROUNDS} refinement "
        f"rounds near x in [{a.min():.6g}, {b.max():.6g}]",
        x_range=(float(a.min()), float(b.max())))


@dataclass(frozen=True)
class _SideResult:
    """One side's profile, with pointwise-exact (u, u').

    A query x is anchored at the last grid node below it: u there adds
    the marcher's u' panel over [node, x] to the node's u, and u' is
    exp(-2(B_node + int b)) with int b a K15 panel of b over [node, x].
    So evaluations are smooth in x (no interpolation kinks) and
    finite-difference residuals of u stay at the quadrature level.
    """

    bfun: Callable[[np.ndarray], np.ndarray]  # b on this side, x >= 0
    x: np.ndarray            # ascending, starts at 0
    u: np.ndarray            # u along this side (u(0) = 0), nondecreasing
    du: np.ndarray           # u' = exp(-2B) at the grid nodes
    bnodes: np.ndarray       # B = int_0^x b at the grid nodes
    truncated: bool
    bounded: Optional[bool]  # None = classification withheld
    limit: float             # lim u (finite, or +inf when unbounded)
    fit: Optional[Tuple[float, float]]  # (p, q) of the tail fit, if made
    window: Optional[float]  # the fit's |p + 1| window, if made
    note: str

    def _anchor(self, xq: np.ndarray) -> np.ndarray:
        idx = np.searchsorted(self.x, xq, side="right") - 1
        return np.clip(idx, 0, self.x.size - 1)

    def u_at(self, xq: np.ndarray) -> np.ndarray:
        idx = self._anchor(xq)
        mass, _ = _uprime_panel(self.bfun, self.x[idx], xq, self.bnodes[idx])
        return self.u[idx] + mass

    def du_at(self, xq: np.ndarray) -> np.ndarray:
        idx = self._anchor(xq)
        mass, _ = _kronrod(*_sample(self.bfun, self.x[idx], xq))
        return _uprime(self.bnodes[idx] + mass)


def _march_side(bfun, x_max: float, tol: float) -> _SideResult:
    n_dec = math.log10(x_max / 1e-3)
    n_pts = max(32, int(math.ceil(_POINTS_PER_DECADE * n_dec)) + 1)
    base = np.concatenate([[0.0], np.geomspace(1e-3, x_max, n_pts)])
    base[-1] = x_max
    drift_len = float(base[-1] - base[0])
    pa, pb, pm, pidx = _adapt(
        lambda a, b, _: _kronrod(*_sample(bfun, a, b)),
        lambda a, mid, carry: carry, base[:-1], base[1:],
        np.zeros(base.size - 1),  # the drift panel carries nothing
        lambda mass, width: 1e-14 * (1.0 + np.abs(mass))
        + tol * width / drift_len, "drift integral")
    order = np.argsort(pa, kind="stable")
    pidx = pidx[order]
    b_part = np.concatenate([[0.0], _kahan_cumsum(pm[order])])
    part_nodes = np.concatenate([pa[order], pb[order[-1:]]])

    note = ""
    truncated = False
    over = -2.0 * b_part > _OVERFLOW_EXPONENT
    if over.any():
        x_cut = part_nodes[int(np.argmax(over))]
        keep = base <= x_cut
        if keep.sum() < 8:
            raise QuadratureError(
                f"u' overflows immediately (at x = {x_cut:.6g}); drift too "
                "strongly inward for a meaningful profile")
        base = base[keep]
        # the partition is contiguous and sorted, so the segments kept are
        # a prefix, and so are their cumulative drift masses
        n = int(np.count_nonzero(part_nodes[1:] <= base[-1] * (1.0 + 1e-12)))
        pidx, b_part, part_nodes = pidx[:n], b_part[:n + 1], part_nodes[:n + 1]
        truncated = True
        note = (f"side truncated at x = {base[-1]:.6g}: exp(-2B) exceeds the "
                "overflow guard, so u is unbounded on this side")

    u_len = float(base[-1] - base[0])
    _, _, um, uidx = _adapt(
        lambda a, b, ba: _uprime_panel(bfun, a, b, ba),
        lambda a, mid, ba: ba + _kronrod(*_sample(bfun, a, mid))[0],
        part_nodes[:-1], part_nodes[1:], b_part[:-1],
        lambda mass, width: 1e-12 * np.abs(mass) + tol * width / u_len,
        "harmonic-function integral")
    masses = np.zeros(part_nodes.size - 1)
    np.add.at(masses, uidx, um)
    base_masses = np.bincount(pidx, weights=masses, minlength=base.size - 1)
    u = np.concatenate([[0.0], _kahan_cumsum(base_masses)])
    bnodes = b_part[np.searchsorted(part_nodes, base)]
    du = _uprime(bnodes)
    verdict = (False, math.inf, None, None, note) if truncated \
        else _classify_side(base, u, du, tol)
    return _SideResult(bfun, base, u, du, bnodes, truncated, *verdict)


def _exponents(lr: np.ndarray, ldu: np.ndarray) -> Tuple[float, float]:
    """(p, q) of the least-squares fit ldu ~ c + p*lr + q*log(lr)."""
    design = np.stack([np.ones(lr.size), lr, np.log(lr)], axis=1)
    coef, *_ = np.linalg.lstsq(design, ldu, rcond=None)
    return float(coef[1]), float(coef[2])


def _joint_tail_fit(x: np.ndarray, du: np.ndarray,
                    ) -> Tuple[Optional[Tuple[float, float]],
                               Optional[float]]:
    """((p, q), p_window) of the tail fit over the last three decades (the
    upper half of the grid when they hold too few points), or (None, None)
    when that holds too few points as well.
    p_window is the |p + 1| within which p cannot decide: twice the gap
    between p and the p of the same fit over the upper two thirds of its
    log range, at least _P_WINDOW_FLOOR."""
    lo = max(3.0, float(x[-1]) / 1000.0)
    sel = (x >= lo) & (du > 0.0)
    if sel.sum() < 8:
        sel = (x >= max(3.0, float(x[x.size // 2]))) & (du > 0.0)
        if sel.sum() < 8:
            return None, None
    lr, ldu = np.log(x[sel]), np.log(du[sel])
    fit = _exponents(lr, ldu)
    upper = lr >= lr[0] + (lr[-1] - lr[0]) / 3.0
    p_upper, _ = _exponents(lr[upper], ldu[upper])
    return fit, max(_P_GAP_FACTOR * abs(fit[0] - p_upper), _P_WINDOW_FLOOR)


def _bounded_tail_extra(x_end: float, du_end: float,
                        fit: Tuple[float, float]) -> float:
    """int_{x_end}^inf u' dr for the fitted tail u'(r) =
    du_end * (r/x_end)^p * (log r/log x_end)^q, in t = log r variables."""
    p, q = fit
    rate = -(p + 1.0)
    if rate <= 0.0:
        return 0.0
    t0 = math.log(x_end)
    span = min(4000.0, 40.0 / max(rate, 1e-2))
    t = np.linspace(t0, t0 + span, 4001)
    integrand = np.exp(-rate * (t - t0)) * (t / t0) ** q
    return float(du_end * x_end * np.trapezoid(integrand, t))


def _classify_side(x, u, du, tol):
    """(bounded, limit, fit, p_window, note) of a side that was not
    truncated."""
    dec_idx = int(np.searchsorted(x, x[-1] / 10.0))
    increment = float(u[-1] - u[dec_idx])
    u_prev = float(u[dec_idx])
    fast_bounded = (du[-1] <= _DU_FLOOR
                    or increment < max(tol, 1e-13) * (abs(u_prev) + 1.0))
    fit, p_window = (None, None) if du[-1] <= _DU_FLOOR \
        else _joint_tail_fit(x, du)
    if fast_bounded:
        extra = _bounded_tail_extra(float(x[-1]), float(du[-1]), fit) \
            if fit else 0.0
        return (True, float(u[-1]) + extra, fit, p_window,
                "tail converged numerically")
    if fit is None:
        return (None, math.nan, None, None,
                "tail fit impossible (too few usable points); "
                "classification withheld")
    p, q = fit
    if abs(p + 1.0) > p_window:
        bounded = p < -1.0
        note = f"power fit decisive: u' ~ r^{p:.4f}"
    elif abs(q + 1.0) > _Q_WINDOW:
        bounded = q < -1.0
        note = (f"power exponent critical (p = {p:.4f}, |p + 1| <= "
                f"{p_window:.2g}); log fit decisive: "
                f"u' ~ r^-1 * log^{q:.3f} r")
    else:
        return (None, math.nan, fit, p_window,
                f"both exponents critical (p = {p:.4f}, |p + 1| <= "
                f"{p_window:.2g}; q = {q:.3f}); classification withheld")
    if bounded:
        limit = float(u[-1]) + _bounded_tail_extra(float(x[-1]),
                                                   float(du[-1]), fit)
    else:
        limit = math.inf
    return bounded, limit, fit, p_window, note


@dataclass(frozen=True)
class HarmonicProfile:
    """Sampled harmonic function u with tail classification per side.

    Normalization: u(0) = 0, u'(0) = 1 (c1 = 0, c2 = 1; every other
    harmonic function is an affine image a + c*u).  ``u`` is
    nondecreasing on the grid and strictly increasing wherever u' has not
    underflowed.  ``bounded_right``/``bounded_left`` are None when the
    tail classification was withheld; ``liouville_holds`` mirrors that
    (None when undecided, otherwise NOT(bounded on both sides)).
    ``u_plus_limit``/``u_minus_limit`` are the one-sided limits (signed
    infinities on unbounded sides); ``sup_estimate`` is sup |u|.
    ``tail_window_right``/``tail_window_left`` are the |p + 1| windows of
    the tail fits (None where no fit was made).
    """

    label: str
    x: np.ndarray
    u: np.ndarray
    du: np.ndarray
    bounded_right: Optional[bool]
    bounded_left: Optional[bool]
    liouville_holds: Optional[bool]
    sup_estimate: float
    u_plus_limit: float
    u_minus_limit: float
    truncated_right: bool
    truncated_left: bool
    tail_fit_right: Optional[Tuple[float, float]]
    tail_fit_left: Optional[Tuple[float, float]]
    tail_window_right: Optional[float]
    tail_window_left: Optional[float]
    notes: Tuple[str, ...]
    _right: _SideResult = dataclasses_field(repr=False, compare=False)
    _left: _SideResult = dataclasses_field(repr=False, compare=False)

    def _dispatch(self, x, right_method: str) -> np.ndarray:
        xq = np.atleast_1d(np.asarray(x, dtype=float))
        if np.any(xq < self.x[0]) or np.any(xq > self.x[-1]):
            raise ValueError("query outside the profile grid")
        out = np.empty(xq.shape)
        pos = xq >= 0.0
        if pos.any():
            out[pos] = getattr(self._right, right_method)(xq[pos])
        if (~pos).any():
            vals = getattr(self._left, right_method)(-xq[~pos])
            out[~pos] = -vals if right_method == "u_at" else vals
        return out if np.ndim(x) else out[0]

    def u_at(self, x) -> np.ndarray:
        """u at arbitrary points inside the grid (exact local quadrature
        anchored at the sampled nodes, smooth in x)."""
        return self._dispatch(x, "u_at")

    def du_at(self, x) -> np.ndarray:
        return self._dispatch(x, "du_at")


def _constant_q_scale(field: CoefficientField) -> float:
    """q of a field whose diffusion is constant as an expression."""
    if field.diffusion_form != "constant":
        raise NotApplicable(
            f"field {field.label!r} has non-constant diffusion; the 1D "
            "oracle only covers constant q (rescaled to 1)")
    q = float(np.asarray(field.diffusion(np.zeros((1, 1))))[0, 0, 0])
    if not (q > 0):
        raise NotApplicable("diffusion must be positive")
    return q


def harmonic_1d(field: CoefficientField, x_max: float = 1e6,
                tol: float = 1e-10) -> HarmonicProfile:
    """Construct the normalized harmonic function of a 1D field.

    Requires d = 1 and a diffusion that is constant as an expression
    (``field.diffusion_form == "constant"``; a constant q = c is rescaled:
    the harmonic equation (c/2) u'' + b u' = 0 has the same solutions as
    u''/2 + (b/c) u' = 0).  Classification is described in the module
    docstring; sides that overflow the exponent guard are truncated and
    reported unbounded.
    """
    if field.dim != 1:
        raise ValueError("harmonic_1d needs a one-dimensional field")
    if not (x_max > 1e-2):
        raise ValueError("x_max too small for a meaningful profile")
    if not (tol > 0):
        raise ValueError("tol must be positive")
    scale = _constant_q_scale(field)

    def side(sign: float):
        """b/q on the side of sign, at x >= 0: sign * b(sign * x) / q."""
        def bfun(pts: np.ndarray) -> np.ndarray:
            with np.errstate(all="ignore"):  # a non-finite value raises below
                b = sign * np.asarray(field.drift(sign * pts),
                                      dtype=float) / scale
            bad = ~np.isfinite(b[:, 0])
            if bad.any():
                raise CoefficientEvaluationError(
                    "drift is non-finite at x = "
                    f"{(sign * pts[np.flatnonzero(bad)[0]]).tolist()}")
            return b
        return bfun

    def march(sign: float) -> _SideResult:
        """The side of sign; a quadrature that fails where the drift's
        arithmetic overflows raises CoefficientOverflow at that x."""
        try:
            return _march_side(side(sign), x_max, tol)
        except QuadratureError as exc:
            for x in exc.x_range or ():
                try:
                    with np.errstate(all="ignore", over="raise"):
                        field.drift(np.array([[sign * x]]))
                except FloatingPointError:
                    raise CoefficientOverflow(
                        f"drift arithmetic overflows at x = {sign * x:.6g}, "
                        f"short of x_max = {x_max:.6g}") from exc
            raise

    right = march(1.0)
    left = march(-1.0)

    x = np.concatenate([-left.x[::-1], right.x[1:]])
    u = np.concatenate([-left.u[::-1], right.u[1:]])
    du = np.concatenate([left.du[::-1], right.du[1:]])

    if right.bounded is None or left.bounded is None:
        holds: Optional[bool] = None
    else:
        holds = not (right.bounded and left.bounded)
    u_minus = -left.limit if left.limit == left.limit else math.nan
    sup = max(abs(right.limit), abs(left.limit)) \
        if (right.bounded is not None and left.bounded is not None) \
        else math.inf
    notes = tuple(n for n in (
        f"right: {right.note}", f"left: {left.note}",
        field.smoothness_note or "") if n)
    return HarmonicProfile(
        label=field.label, x=x, u=u, du=du,
        bounded_right=right.bounded, bounded_left=left.bounded,
        liouville_holds=holds,
        sup_estimate=float(sup),
        u_plus_limit=float(right.limit),
        u_minus_limit=float(u_minus),
        truncated_right=right.truncated, truncated_left=left.truncated,
        tail_fit_right=right.fit, tail_fit_left=left.fit,
        tail_window_right=right.window, tail_window_left=left.window,
        notes=notes,
        _right=right, _left=left,
    )


def liouville_verdict_1d(delta: float, x_max: float = 1e6,
                         tol: float = 1e-10) -> bool:
    """True iff every bounded harmonic function of the delta-family
    operator is constant; raises BoundaryUndecided when the tail
    classification was withheld (delta indistinguishable from the sharp
    threshold at this x_max)."""
    profile = harmonic_1d(make_log_example(delta), x_max=x_max, tol=tol)
    if profile.liouville_holds is None:
        raise BoundaryUndecided(
            f"tail classification withheld for delta = {delta}: "
            + "; ".join(profile.notes))
    return bool(profile.liouville_holds)


def oscillation_bound(profile: HarmonicProfile, x: float, y: float) -> float:
    """|u(x) - u(y)| / osc(u), the coupling-probability complement bound.

    Only defined when u is bounded on both sides (finite oscillation);
    otherwise raises NotApplicable.
    """
    if not (profile.bounded_right and profile.bounded_left):
        raise NotApplicable(
            "oscillation bound needs a profile bounded on both sides")
    osc = profile.u_plus_limit - profile.u_minus_limit
    return float(abs(profile.u_at(x) - profile.u_at(y)) / osc)
