"""Coupling-by-reflection simulator and Monte Carlo harmonicity checks.

The pair (X, Y) is driven by the decomposition that the shifted square
root enables: sigma(x)^2 + mu*I = q(x) splits the diffusion into a
synchronous part (same Brownian increment dB through sigma at each
endpoint) and an additive isotropic part of size sqrt(mu) whose
increment is mirrored across the hyperplane orthogonal to X - Y:

    X <- X + b(X) dt + sigma(X) dB + sqrt(mu) dW
    Y <- Y + b(Y) dt + sigma(Y) dB + sqrt(mu) R dW,   R = I - 2 e e^T

with e = (X-Y)/|X-Y|.  The difference process then feels twice the
reflected noise along e, which is what drives the pair together.

All three simulators step their paths through one driver, _drive: it
takes the noise chunks of _NoiseFeed, gathers each live path's row of a
step from its block's slab, enters np.errstate once per chunk, raises
SimulationBlowUp with the path and time of a state that turned
non-finite, and drops the paths that finish.  What a step does is the
caller's move function.
Paired steps go through one fused kernel, _PairKernel: it builds the
reflected dW, moves [X; Y], and decides in the same pass which pairs hit
the couple radius, which escaped and how likely each surviving pair was
to meet between the grid times.  Unpaired points take _euler_step, b dt
+ sigma dB + sqrt(mu) dW, with the same arithmetic: martingale_check
moves every path with it, and simulate_pair_trajectory its pair once it
merged.  sigma comes from one of three routes (_sigma), chosen by the
form the field declares for q (CoefficientField.diffusion_form), never by
q's values: a constant q has its sigma computed once per run; a diagonal
q whose diagonal is finite at every point of the step takes sigma =
diag(sqrt(q_ii - mu)), which is what the eigen-solver returns for such a
batch, to the bit; any other batch goes through the batched Jacobi square
root.

Conventions: coupling is declared at a positive radius r (exact hitting
is a null event under discretization); the reflection direction is
frozen within a step, and a step whose straight-line segment would cross
the origin of X - Y, or pass within r of it, is a grid hit at that step
(clamping avoids a spurious flip of e).  Escaped paths (either endpoint
beyond the escape radius) count as not coupled unless configured
otherwise, and are reported separately.

The fraction of paths with a grid hit, p_discrete, misses every meeting
that happens between grid times, a bias of order sqrt(dt) (Gobet 2000,
Stoch. Proc. Appl. 87).  p_couple removes it with Brownian-bridge
weights (Broadie, Glasserman & Kou 1997, Math. Finance 7): a path
without a grid hit contributes the probability 1 - W that its bridges
crossed r, where W is the product over its steps of the survival factor
1 - exp(-2 (d0 - r)(d1 - r)/(v dt)) between the distances d0 and d1 at
the ends of each step (v: the variance rate of |X - Y| along e).  In the
driftless closed form this brings the estimate within noise of the exact
law at dt = 1e-2, hence the default coupling.dt (config.DEFAULT_DT).

All three simulators read their run from the run's RunConfig: mu, the
horizon t_max, dt, n_paths and the seed; the pair simulators also the
start points (RunConfig.endpoints), the couple and escape radii and
whether an escape counts as coupled, while martingale_check takes its one
start point.  RunConfig has checked each knob and how they relate when it
was built; _start_points checks what needs the field: mu must be set
(coupling.mu is none until the run derives it) and below the field's
lambda0, and field.dim must be the field's dimension.

Noise comes in blocks of 64 consecutive path indices: path i reads the
Philox substream (seed, path-domain, i // 64), laid out step-major as 64
paths by 2*dim normals per step, so its increment at step k is entry
[k, i % 64] of that stream, times sqrt(dt).  _NoiseFeed hands out the
noise in chunks of whole steps, block-major: each block's normals are
drawn straight into its own contiguous (steps, 64, 2*dim) slab of the
chunk, and _drive gathers the live paths' rows of a step from the slabs
and scales them by sqrt(dt).  Two chunks are in flight, since chunk c+1
is drawn on one worker thread while the caller steps chunk c, and each
holds at most _NOISE_BUDGET_BYTES (12 MB) of normals, 16 bytes per
path-dim and step: 128 steps up to 5,859 path-dims of live blocks, fewer
above that, and past 187,500 path-dims the 4-step floor binds, so that a
chunk holds 4 steps of every live block and outgrows the budget.  Chunk
c+1 covers the blocks that still held a live path when chunk c began; a
path that finishes mid-chunk leaves the rest of its entries unused, and a
block with no live path left is not drawn again.  When the caller needs
chunk c+1 it draws the blocks the worker has not yet claimed.  Each block
of a chunk is claimed by exactly one of the two threads, and chunk c+2 is
started only once every block of chunk c+1 is drawn, so each stream is
read in order.  Each path's noise is a pure function of the seed and the
path index, whatever n_paths, the chunk length, the set of live paths or
which thread drew it, and since every step acts row by row, so is its
outcome.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from . import _streams
from .coefficients import (CoefficientField, EllipticityBounds, row_norms,
                           take_rows)
from .config import RunConfig
from .errors import (CoefficientEvaluationError, ShiftTooLarge,
                     SimulationBlowUp)
from .matrix_analysis import _check_shift, _shifted_sqrt_batch

_NOISE_BUDGET_BYTES = 1.2e7  # per chunk, and _NoiseFeed holds two
_BLOCK = 64  # paths per noise stream; see the module docstring
_TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class CouplingStats:
    """Aggregated outcome of simulate_coupling.

    p_couple is the bridge-corrected estimate with its 95% CI halfwidth
    1.96 sd/sqrt(n) over the per-path contributions (simulate_coupling);
    p_discrete is the fraction of paths that hit the couple radius on the
    time grid (escapes included when counted), whose bias is O(sqrt(dt)).
    survival holds each path's bridge survival weight, 0 where it hit (or
    escaped and escapes are counted), so p_couple = mean(1 - survival).
    coupling_time_quantiles holds the (25%, 50%, 90%) quantiles of the grid
    hit times (NaN when no path hit), and coupling_times each path's hit
    time (NaN where it did not hit).  final_distances holds each path's
    |X - Y| at the horizon, 0.0 for a path that hit or escaped before it.
    """

    n_paths: int
    n_coupled: int
    n_escaped: int
    p_couple: float
    ci_halfwidth: float
    p_discrete: float
    coupling_time_quantiles: Tuple[float, float, float]
    coupling_times: np.ndarray
    survival: np.ndarray
    final_distances: np.ndarray


def _start_points(field: CoefficientField, bounds: EllipticityBounds,
                  cfg: RunConfig, *points) -> list:
    """Check cfg's mu against the ellipticity floor and its field.dim and
    the points against the field; return the points as flat float
    arrays."""
    mu = cfg.coupling_mu
    if mu is None:
        raise ValueError("coupling.mu is none; the simulators need it set")
    if not (0.0 < mu < bounds.lambda0):
        raise ShiftTooLarge(
            f"mu = {mu} outside (0, lambda0 = {bounds.lambda0}); the "
            "shifted square root needs mu strictly below the ellipticity "
            "floor")
    rows = [np.array(p, dtype=float).reshape(-1) for p in points]
    if cfg.field_dim != field.dim or any(r.size != field.dim for r in rows):
        raise ValueError("start point dimension mismatch with the field "
                         f"(dim {field.dim}; field.dim = {cfg.field_dim})")
    return rows


def _pair_kernel(field: CoefficientField, bounds: EllipticityBounds,
                 cfg: RunConfig):
    """cfg's start points and the pair kernel of its coupling knobs; the
    escape radius defaults to 1e3 * (1 + |x0| + |y0|)."""
    x0, y0 = _start_points(field, bounds, cfg, *cfg.endpoints())
    escape = cfg.coupling_escape_radius
    if escape is None:
        escape = 1e3 * (1.0 + float(np.linalg.norm(x0))
                        + float(np.linalg.norm(y0)))
    return x0, y0, _PairKernel(field, cfg.coupling_mu, cfg.coupling_dt,
                               cfg.coupling_couple_radius, escape)


def _const_sigma(field: CoefficientField, mu: float) -> Optional[np.ndarray]:
    if field.diffusion_form != "constant":
        return None
    q0 = np.asarray(field.diffusion(np.zeros((1, field.dim))), dtype=float)[0]
    return _shifted_sqrt_batch(q0[None], mu)[0]


def _sigma(field: CoefficientField, pts: np.ndarray, mu: float,
           const_sigma: Optional[np.ndarray]) -> Tuple[str, np.ndarray]:
    """sigma at every row of pts as (form, value): ("const", the (d, d)
    matrix), ("diag", the (n, d) diagonals) or ("full", an (n, d, d)
    batch from the Jacobi square root)."""
    if const_sigma is not None:
        return "const", const_sigma
    q = np.asarray(field.diffusion(pts), dtype=float)
    diag = np.diagonal(q, axis1=1, axis2=2)
    if field.diffusion_form == "diagonal" and np.isfinite(diag).all():
        _check_shift(diag.min(axis=1), mu)
        return "diag", np.sqrt(diag - mu)
    bad = ~np.isfinite(q).all(axis=(1, 2))
    if bad.any():
        raise CoefficientEvaluationError(
            "diffusion is non-finite at x = "
            f"{pts[np.flatnonzero(bad)[0]].tolist()}")
    return "full", _shifted_sqrt_batch(q, mu)


def _sigma_dB(form: str, sigma: np.ndarray, dB: np.ndarray,
              out: Optional[np.ndarray] = None) -> np.ndarray:
    """sigma dB row by row, for sigma as _sigma returns it."""
    if form == "const":
        # one product dB sigma^T: np.dot hands it to threaded BLAS, whose
        # wake-up costs milliseconds per step at 10^4 rows
        return np.einsum("nj,ij->ni", dB, sigma, out=out)
    if form == "diag":
        return np.multiply(sigma, dB, out=out)
    return np.einsum("nij,nj->ni", sigma, dB, out=out)


def _euler_step(field: CoefficientField, pts: np.ndarray, mu: float,
                dt: float, const_sigma: Optional[np.ndarray],
                dB: np.ndarray, dW: np.ndarray) -> None:
    """The Euler step of unpaired points, in place:
    pts += b(pts) dt + sigma(pts) dB + sqrt(mu) dW."""
    with np.errstate(all="ignore"):  # a non-finite state raises downstream
        drift = np.asarray(field.drift(pts), dtype=float)
    sig_dB = _sigma_dB(*_sigma(field, pts, mu, const_sigma), dB)
    pts += drift * dt
    pts += sig_dB
    pts += math.sqrt(mu) * dW


def _rowdot(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Row dot products into out.  In d = 1 it is one product, einsum's
    0 + a*b but for the sign of a zero, at half of einsum's call cost."""
    if a.shape[1] == 1:
        return np.multiply(a[:, 0], b[:, 0], out=out)
    return np.einsum("ij,ij->i", a, b, out=out)


class _PairKernel:
    """The reflection-coupled Euler step of stacked pairs z = [X; Y], fused
    with everything a step decides: the grid-hit test, the escape test and
    the Brownian-bridge survival factor.

    step() moves the m pairs of z in place, y by dW mirrored across the
    hyperplane orthogonal to x - y, with the arithmetic of _euler_step on
    the stack.  A pair hits when the straight segment of x - y over the
    step passes within the couple radius r of the origin.  Between the two
    grid times the distance |x - y| is taken as a Brownian bridge from d0
    to d1 with variance v = 4 mu + |(sigma(x) - sigma(y))^T e|^2 per unit
    time along e = (x - y)/d0, frozen at the start of the step; it stays
    above r with probability 1 - exp(-2 (d0 - r)(d1 - r)/(v dt)).  Its
    callers step it inside _drive, whose np.errstate(all="ignore") covers
    a whole noise chunk.  It works in buffers sized to the pairs of a step
    and allocated again only when that count changes, so that no memory
    stays held for pairs that finished.
    """

    def __init__(self, field: CoefficientField, mu: float, dt: float,
                 couple_radius: float, escape_radius: float):
        self.field, self.mu, self.dt = field, mu, dt
        self.radius, self.escape_radius = couple_radius, escape_radius
        self.const_sigma = _const_sigma(field, mu)
        self.root_mu = math.sqrt(mu)
        self._pairs = self._rows = None

    def step(self, z: np.ndarray, dB: np.ndarray, dW: np.ndarray,
             survival: Optional[np.ndarray] = None,
             ) -> Tuple[np.ndarray, np.ndarray]:
        """One step of the pairs of z, with dB, dW and survival each of
        one row per pair.  Multiplies survival, if given, by each pair's
        bridge factor and returns (hit, done): the pairs that hit, and
        those that hit or have an endpoint beyond the escape radius.  A
        state that turned non-finite is left for the caller to name."""
        m = len(z) // 2
        if self._rows is None or self._rows.shape[1] != m:
            # per pair: x - y before the step; x - y after it (until then
            # the scratch of each term added to x and y); y's reflected
            # increment (then the segment's closest point); three scalars
            self._pairs = np.empty((3, m, self.field.dim))
            self._rows = np.empty((3, m))
        x, y = z[:m], z[m:]
        diff0, diff1, inc = self._pairs
        proj, sq0, expo = self._rows
        np.subtract(x, y, out=diff0)
        np.divide(_rowdot(diff0, dW, proj), _rowdot(diff0, diff0, sq0),
                  out=proj)
        np.multiply(proj, 2.0, out=proj)
        np.subtract(dW, np.multiply(diff0, proj[:, None], out=inc), out=inc)

        # z += b dt, then sigma dB, then sqrt(mu) dW: _euler_step's order
        drift = np.asarray(self.field.drift(z), dtype=float)
        form, sigma = _sigma(self.field, z, self.mu, self.const_sigma)
        x += np.multiply(drift[:m], self.dt, out=diff1)
        y += np.multiply(drift[m:], self.dt, out=diff1)
        drift = None  # its memory serves the temporaries below
        if form == "const":
            x += _sigma_dB(form, sigma, dB, diff1)
            y += diff1
        else:
            x += _sigma_dB(form, sigma[:m], dB, diff1)
            y += _sigma_dB(form, sigma[m:], dB, diff1)
        x += np.multiply(dW, self.root_mu, out=diff1)
        y += np.multiply(inc, self.root_mu, out=inc)
        np.subtract(x, y, out=diff1)

        # the point of the segment diff0 -> diff1 closest to the origin;
        # where delta = 0 the numerator is 0 too, and alpha = 0/tiny = 0
        delta = np.subtract(diff1, diff0, out=inc)
        alpha = _rowdot(diff0, delta, proj)
        np.divide(alpha, np.negative(np.maximum(
            _rowdot(delta, delta, expo), _TINY, out=expo), out=expo),
            out=alpha)
        np.minimum(np.maximum(alpha, 0.0, out=alpha), 1.0, out=alpha)
        closest = np.add(diff0, np.multiply(delta, alpha[:, None], out=inc),
                         out=inc)
        hit = np.sqrt(_rowdot(closest, closest, expo), out=expo) \
            <= self.radius
        far = _beyond(z, self.escape_radius)
        done = hit | far[:m] | far[m:]

        if survival is None:
            return hit, done
        d0 = np.sqrt(sq0, out=sq0)
        d1 = np.sqrt(_rowdot(diff1, diff1, proj), out=proj)
        np.multiply(np.subtract(d0, self.radius, out=expo),
                    np.subtract(d1, self.radius, out=d1), out=expo)
        # an endpoint at or below r, which the hit test can miss by a
        # rounding, survives with probability 0
        np.maximum(expo, 0.0, out=expo)
        if form == "const":
            np.multiply(expo, -2.0 / (4.0 * self.mu * self.dt), out=expo)
        else:
            # 4 mu + |(sigma(x) - sigma(y))^T e|^2; where |x - y| overflowed,
            # e = diff0/d0 is 0 or NaN, and v falls back to 4 mu
            e = np.divide(diff0, d0[:, None], out=inc)
            s_diff = sigma[:m] - sigma[m:]
            u = s_diff * e if form == "diag" \
                else np.einsum("nji,nj->ni", s_diff, e)
            var = _rowdot(u, u, proj)
            np.fmax(np.add(var, 4.0 * self.mu, out=var), 4.0 * self.mu,
                    out=var)
            np.divide(expo, np.multiply(var, -0.5 * self.dt, out=var),
                      out=expo)
        survival *= np.negative(np.expm1(expo, out=expo), out=expo)
        return hit, done


def _draw_noise(gens: Sequence[np.random.Generator], out: np.ndarray,
                claim: Callable[[], Optional[int]]) -> None:
    """Fill the slab out[j], shape (n_k, 64, 2*dim), of every block j that
    claim() hands out, until it returns None, with the normals of the next
    n_k steps of the block's stream gens[j].  Both threads of a _NoiseFeed
    call it on the same chunk; claim gives each block to one of them."""
    for j in iter(claim, None):
        gens[j].standard_normal(out=out[j])


class _NoiseFeed:
    """The unscaled normals of a run's path blocks in chunks of 4..128
    steps (never past the horizon, and within the per-chunk noise budget
    unless the 4-step floor binds), each drawn by _draw_noise on a worker
    thread while the caller steps the one before, and by the caller itself
    once it needs the chunk.

    A chunk is block-major, shape (blocks, n_k, 64, 2*dim): each block's
    stream is drawn straight into its own contiguous slab.  take(live)
    draws the blocks of the chunk in flight that the worker has not
    claimed, waits for the worker, starts the next chunk for the blocks in
    live (those still holding a live path, a subset of the blocks of the
    chunk taken) and returns (chunk, blocks): block blocks[j] is in slab
    chunk[j].  A lock-guarded counter hands out each block of a chunk to
    one thread, and the next chunk starts only after both threads are done
    with this one, so every stream is read in order.
    Chunks are allocated on the caller's thread, so they come from its
    heap whatever the thread timing, and a caller that drops each chunk
    before it takes the next holds at most two.  take raises a draw that
    failed on either thread.  Leaving the with block withdraws the
    unclaimed blocks of the chunk in flight and waits for the worker, so
    no thread outlives the run, whether it reaches the horizon, stops
    early or raises.
    """

    def __init__(self, gens: Sequence[np.random.Generator], n_steps: int,
                 dim: int):
        self._gens = gens
        self._steps_left = n_steps
        self._dim = dim
        self._lock = threading.Lock()
        self._claimed = self._n_blocks = 0  # of the chunk in flight
        self._worker: Optional[threading.Thread] = None
        self._chunk = self._blocks = self._share = self._error = None

    def __enter__(self) -> "_NoiseFeed":
        self._start(range(len(self._gens)))
        return self

    def __exit__(self, *exc_info) -> None:
        if self._worker is not None:
            with self._lock:  # the chunk will not be taken
                self._claimed = self._n_blocks
            self._worker.join()

    def _claim(self) -> Optional[int]:
        """The next block of the chunk in flight that no thread has
        claimed, or None when there is none left."""
        with self._lock:
            j = self._claimed
            if j == self._n_blocks:
                return None
            self._claimed = j + 1
            return j

    def _start(self, blocks) -> None:
        self._worker = None
        if not self._steps_left:
            return
        self._blocks = np.asarray(blocks)
        step_bytes = len(self._blocks) * _BLOCK * 2 * self._dim * 8
        n_k = min(max(4, min(128, int(_NOISE_BUDGET_BYTES / step_bytes))),
                  self._steps_left)
        self._chunk = chunk = np.empty(
            (len(self._blocks), n_k, _BLOCK, 2 * self._dim))
        gens = [self._gens[b] for b in self._blocks]
        self._claimed, self._n_blocks = 0, len(gens)

        def share():
            _draw_noise(gens, chunk, self._claim)

        def work():
            try:
                share()
            except Exception as exc:  # raised again by take, on the caller
                self._error = exc

        self._share = share
        self._worker = threading.Thread(target=work, name="noise-draw")
        self._worker.start()

    def take(self, live) -> Tuple[np.ndarray, np.ndarray]:
        self._share()  # if it raises, leaving the with block joins
        self._worker.join()
        if self._error is not None:
            raise self._error
        chunk, blocks, self._chunk = self._chunk, self._blocks, None
        self._steps_left -= chunk.shape[1]
        self._start(live)
        return chunk, blocks


def _block_streams(seed: int, domain: int, n_paths: int) -> list:
    """The Philox substream of every block of _BLOCK path indices."""
    return [_streams.substream(seed, domain, b)
            for b in range(-(-n_paths // _BLOCK))]


def _beyond(rows: np.ndarray, radius: float) -> np.ndarray:
    """Which finite rows lie farther than radius from the origin.  When
    the largest entry shows that no row can be that far, no norm is
    taken.  Rows flagged on the first pass are measured again with their
    largest entry scaled out, so that a squared norm that overflows (|row|
    above about 1.3e154) is not taken for an escape."""
    if rows.size and np.abs(rows).max() * math.sqrt(rows.shape[1]) \
            * (1.0 + 1e-9) <= radius:
        return np.zeros(len(rows), dtype=bool)
    far = row_norms(rows) > radius
    if far.any():
        big = rows[far]
        scale = np.abs(big).max(axis=1)
        far[far] = scale * row_norms(big / scale[:, None]) > radius
    return far


def _drive(z: np.ndarray, n: int, seed: int, domain: int, dt: float,
           n_steps: int, move: Callable, what: str,
           ) -> Tuple[np.ndarray, np.ndarray]:
    """Step n paths up to n_steps times on the noise of their blocks in
    the stream domain, and return the rows and the indices of the paths
    still live.

    z holds one row per path, or the pairs stacked as [X; Y].  Step k is
    move(z, ids, k, dB, dW): it moves the live paths ids in place, with
    dB and dW one row per path, and returns a mask of the paths that go
    on, or None when they all do.  A state that turned non-finite raises
    SimulationBlowUp "non-finite state in <what>", naming the path and the
    time, before any path is dropped.
    """
    dim = z.shape[1]
    rows = len(z) // n  # per path: 1, or 2 for a pair
    ids = np.arange(n)
    root_dt = math.sqrt(dt)
    gens = _block_streams(seed, domain, n)
    slab_of = np.empty(len(gens), dtype=np.intp)  # block -> slab in a chunk
    increments = np.empty((n, 2 * dim))  # (dB, dW) of the live paths
    k = 0
    with _NoiseFeed(gens, n_steps, dim) as feed:
        while k < n_steps and ids.size:
            # ids is sorted, so each block's paths are neighbours
            path_blocks = ids // _BLOCK
            first = np.empty(ids.size, dtype=bool)
            first[0] = True
            np.not_equal(path_blocks[1:], path_blocks[:-1], out=first[1:])
            noise, blocks = feed.take(path_blocks[first])
            slab_of[blocks] = np.arange(len(blocks))
            n_k = noise.shape[1]
            normals = noise.reshape(-1, 2 * dim)
            # row of each live path's normals in the chunk at its step 0;
            # at step s the same rows of normals[s * 64:]
            at = slab_of[path_blocks] * (n_k * _BLOCK) + ids % _BLOCK
            path_blocks = first = None  # not held while the chunk runs
            with np.errstate(all="ignore"):
                for step in range(n_k):
                    m = ids.size
                    # mode "clip" does not buffer out; at is in range
                    nz = np.take(normals[step * _BLOCK:], at, axis=0,
                                 out=increments[:m], mode="clip")
                    nz *= root_dt
                    keep = move(z, ids, k, nz[:, :dim], nz[:, dim:])
                    k += 1
                    if not np.isfinite(z).all():
                        bad = ~np.isfinite(z).reshape(rows, m, dim).all(
                            axis=(0, 2))
                        raise SimulationBlowUp(
                            f"non-finite state in {what}",
                            path_index=int(ids[np.flatnonzero(bad)[0]]),
                            time=k * dt)
                    if keep is not None:
                        ids, at = ids[keep], at[keep]
                        z = take_rows(z, np.tile(keep, rows))
                        if not ids.size:
                            break
            noise = normals = None  # at most two chunks live
    return z, ids


def simulate_coupling(field: CoefficientField, bounds: EllipticityBounds,
                      cfg: RunConfig) -> CouplingStats:
    """Estimate the coupling probability from n_paths independent pairs
    started at cfg.endpoints().

    Each path stops at the first of: a grid hit (the segment of X - Y over
    a step passes within the couple radius), escape (either endpoint
    beyond the escape radius), or the horizon.  Until then its survival
    weight W collects the Brownian-bridge factor of every step without a
    hit (_PairKernel).  p_couple is the mean over paths of 1 for a grid hit
    or a counted escape and 1 - W otherwise; p_discrete counts the grid
    hits (and counted escapes) alone.  Deterministic given cfg.seed.
    """
    x0, y0, kernel = _pair_kernel(field, bounds, cfg)
    n = int(cfg.n_paths)
    n_steps, dt = cfg.n_steps(), cfg.coupling_dt
    escaped = np.zeros(n, dtype=bool)
    couple_time = np.full(n, np.nan)
    survival = np.ones(n)
    live_survival = np.ones(n)

    def move(z, ids, k, dB, dW):
        nonlocal live_survival
        hit, done = kernel.step(z, dB, dW, live_survival)
        if not done.any():
            return None
        couple_time[ids[hit]] = (k + 1) * dt
        escaped[ids[done & ~hit]] = True
        survival[ids[done]] = live_survival[done]
        live_survival = live_survival[~done]
        return ~done

    z, ids = _drive(np.repeat(np.stack([x0, y0]), n, axis=0), n, cfg.seed,
                    _streams.DOMAIN_PATHS, dt, n_steps, move, "coupled pair")
    survival[ids] = live_survival
    final_distances = np.zeros(n)
    m = ids.size
    with np.errstate(over="ignore"):  # above about 1.3e154 it reads inf
        final_distances[ids] = row_norms(z[:m] - z[m:])

    coupled = ~np.isnan(couple_time)
    n_coupled = int(coupled.sum())
    n_escaped = int(escaped.sum())
    succeeded = coupled | (escaped & cfg.coupling_count_escaped)
    survival[succeeded] = 0.0
    contribution = 1.0 - survival
    times = couple_time[coupled]
    if times.size:
        q = np.quantile(times, [0.25, 0.5, 0.9])
        quantiles = (float(q[0]), float(q[1]), float(q[2]))
    else:
        quantiles = (math.nan, math.nan, math.nan)
    return CouplingStats(
        n_paths=n, n_coupled=n_coupled, n_escaped=n_escaped,
        p_couple=float(contribution.mean()),
        ci_halfwidth=1.96 * float(contribution.std()) / math.sqrt(n),
        p_discrete=int(succeeded.sum()) / n,
        coupling_time_quantiles=quantiles, coupling_times=couple_time,
        survival=survival, final_distances=final_distances,
    )


def simulate_pair_trajectory(field: CoefficientField,
                             bounds: EllipticityBounds,
                             cfg: RunConfig, stride: int = 1,
                             ) -> Tuple[np.ndarray, np.ndarray, np.ndarray,
                                        np.ndarray]:
    """One recorded pair trajectory from cfg.endpoints(), for the CSV dump.

    Returns (t, X, Y, dist) sampled every `stride` steps (plus the final
    state).  After a grid hit the pair moves as a single merged path
    (Y := X); escape truncates the record.  Uses path index 0's stream,
    so it follows path 0 of simulate_coupling up to the hit.
    """
    if int(stride) != stride or stride < 1:
        raise ValueError("stride must be a positive integer")
    x0, y0, kernel = _pair_kernel(field, bounds, cfg)
    z = np.stack([x0, y0])
    n_steps, dt = cfg.n_steps(), cfg.coupling_dt
    times = [0.0]
    states = [z.copy()]
    merged = False

    def move(z, ids, k, dB, dW):
        nonlocal merged
        if merged:
            _euler_step(field, z[:1], cfg.coupling_mu, dt, kernel.const_sigma,
                        dB, dW)
        else:
            hit, done = kernel.step(z, dB, dW)
            merged = bool(hit[0])
        if merged:  # Y := X, and X alone decides an escape
            z[1] = z[0]
            done = _beyond(z[:1], kernel.escape_radius)
        if done[0]:
            return ~done
        if (k + 1) % stride == 0 or k == n_steps - 1:
            times.append((k + 1) * dt)
            states.append(z.copy())
        return None

    _drive(z, 1, cfg.seed, _streams.DOMAIN_PATHS, dt, n_steps, move,
           "pair trajectory")
    t = np.array(times)
    X, Y = np.stack(states, axis=1)
    return t, X, Y, np.linalg.norm(X - Y, axis=1)


def martingale_check(field: CoefficientField, bounds: EllipticityBounds,
                     cfg: RunConfig, x0,
                     u: Callable[[float, np.ndarray], float],
                     ) -> Tuple[float, float]:
    """Sample mean and standard error of u(t, X_t) over cfg.n_paths single
    paths from x0, at t = coupling.t_max.

    X uses the same noise decomposition as the pair simulator (sigma dB
    plus sqrt(mu) dW) without reflection; for a space-time harmonic u the
    mean estimates u(0, x0) up to discretization bias.
    """
    (x0,) = _start_points(field, bounds, cfg, x0)
    if not cfg.coupling_t_max > 0:
        raise ValueError("coupling.t_max must be positive")
    if cfg.n_paths < 2:  # for the standard error
        raise ValueError("n_paths must be at least 2")
    mu, t, dt = cfg.coupling_mu, cfg.coupling_t_max, cfg.coupling_dt
    n, n_steps = int(cfg.n_paths), cfg.n_steps()
    const_sigma = _const_sigma(field, mu)

    def move(X, ids, k, dB, dW):
        _euler_step(field, X, mu, dt, const_sigma, dB, dW)

    X, _ = _drive(np.tile(x0, (n, 1)), n, cfg.seed,
                  _streams.DOMAIN_MARTINGALE, dt, n_steps, move,
                  "martingale paths")
    try:
        vals = np.asarray(u(t, X), dtype=float)
        if vals.shape != (X.shape[0],):
            raise ValueError
    except Exception:
        vals = np.array([float(u(t, X[i]))
                         for i in range(X.shape[0])])
    mean = float(np.mean(vals))
    stderr = float(np.std(vals, ddof=1) / math.sqrt(vals.size))
    return mean, stderr

