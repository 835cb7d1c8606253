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

One kernel, _euler_step, moves stacked points by b dt + sigma dB +
sqrt(mu) dW; _pair_step builds the reflected dW and moves [X; Y] with
it.  Every simulator, coupled_step included, steps through these two.
sigma comes from one of three routes: a field with constant diffusion has
its sigma computed once; a step whose whole batch of q is diagonal (seen
in the values: a finite diagonal and no nonzero entry off it) takes
sigma = diag(sqrt(q_ii - mu)), which is what the eigen-solver returns for
such a batch, to the bit; any other batch goes through the batched
Jacobi square root.

Conventions: coupling is declared at a positive radius (exact hitting is
a null event under discretization); the reflection direction is frozen
within a step, and a step whose straight-line segment would cross the
origin of X - Y is treated as coupled at that step (clamping avoids a
spurious flip of e).  Escaped paths (either endpoint beyond the escape
radius) count as not coupled unless configured otherwise, and are
reported separately.

Noise comes in blocks of 64 consecutive path indices: path i reads the
Philox substream (seed, path-domain, i // 64), laid out step-major as 64
paths by 2*dim normals per step, so its increment at step k is entry
[k, i % 64] of that stream.  _NoiseFeed hands out the noise in chunks of
16..128 whole steps and draws chunk c+1 on one worker thread while the
caller steps chunk c, so two chunks are in flight and the noise budget is
split over them.  Chunk c+1 covers the blocks that still held a live path
when chunk c began; a path that finishes mid-chunk leaves the rest of its
entries unused, and a block with no live path left is not drawn again.
Only the worker draws, one chunk after another, so each stream is read in
order.  Each path's noise is a pure function of the seed and the path
index, whatever n_paths, the chunk length or the set of live paths, and
since every step acts row by row, so is its outcome.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from . import _streams
from .coefficients import CoefficientField, EllipticityBounds
from .errors import (CoefficientEvaluationError, ShiftTooLarge,
                     SimulationBlowUp)
from .matrix_analysis import _check_shift, _shifted_sqrt_batch

_STEP_CAP = 10_000_000
_NOISE_BUDGET_BYTES = 3e7  # per chunk, and _NoiseFeed holds two
_BLOCK = 64  # paths per noise stream; see the module docstring
_TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class CouplingConfig:
    """Parameters of one coupling experiment.

    mu must lie in (0, lambda0) of the field in use — checked at
    simulation time against the supplied bounds, not here.
    escape_radius None means the default guard 1e3 * (1 + |x0| + |y0|).
    """

    mu: float
    t_max: float
    n_paths: int
    dt: float = 1e-3
    couple_radius: float = 1e-3
    escape_radius: Optional[float] = None
    seed: int = 0
    count_escaped_as_coupled: bool = False

    def __post_init__(self) -> None:
        if not (self.mu > 0 and math.isfinite(self.mu)):
            raise ValueError("mu must be positive and finite")
        if not (self.dt > 0 and math.isfinite(self.dt)):
            raise ValueError("dt must be positive")
        if not (self.t_max >= 0 and math.isfinite(self.t_max)):
            raise ValueError("t_max must be nonnegative")
        if self.t_max > 0 and self.dt > self.t_max:
            raise ValueError("dt must not exceed t_max")
        if self.t_max / self.dt > _STEP_CAP:
            raise ValueError(f"t_max/dt exceeds the {_STEP_CAP} step cap")
        if not (self.couple_radius > 0):
            raise ValueError("couple_radius must be positive")
        if self.escape_radius is not None \
                and self.escape_radius <= self.couple_radius:
            raise ValueError("escape_radius must exceed couple_radius")
        if int(self.n_paths) != self.n_paths or self.n_paths < 1:
            raise ValueError("n_paths must be a positive integer")

    def n_steps(self) -> int:
        return int(math.floor(self.t_max / self.dt + 1e-9))

    def resolved_escape_radius(self, x0: np.ndarray, y0: np.ndarray) -> float:
        if self.escape_radius is not None:
            return float(self.escape_radius)
        return 1e3 * (1.0 + float(np.linalg.norm(x0))
                      + float(np.linalg.norm(y0)))


@dataclass(frozen=True)
class CouplingStats:
    """Aggregated outcome of simulate_coupling.

    coupling_time_quantiles holds the (25%, 50%, 90%) quantiles of the
    coupling times among coupled paths (NaN when no path coupled), and
    coupling_times each path's coupling time (NaN where it did not
    couple).  recorded_distances is test instrumentation: the |X-Y|
    sample frozen at a requested time, 0.0 for already-coupled paths.
    """

    n_paths: int
    n_coupled: int
    n_escaped: int
    p_couple: float
    ci_halfwidth: float
    coupling_time_quantiles: Tuple[float, float, float]
    coupling_times: np.ndarray
    recorded_distances: Optional[np.ndarray] = None


def _start_points(field: CoefficientField, bounds: EllipticityBounds,
                  mu: float, *points) -> list:
    """Check mu against the ellipticity floor; return the start points as
    flat float arrays of the field's dimension."""
    if not (0.0 < mu < bounds.lambda0):
        raise ShiftTooLarge(
            f"mu = {mu} outside (0, lambda0 = {bounds.lambda0}); the "
            "shifted square root needs mu strictly below the ellipticity "
            "floor")
    rows = [np.array(p, dtype=float).reshape(-1) for p in points]
    if any(r.size != field.dim for r in rows):
        raise ValueError("start point dimension mismatch with the field")
    return rows


def _const_sigma(field: CoefficientField, mu: float) -> Optional[np.ndarray]:
    if not field.constant_diffusion:
        return None
    q0 = np.asarray(field.diffusion(np.zeros((1, field.dim))), dtype=float)[0]
    return _shifted_sqrt_batch(q0[None], mu)[0]


def _euler_step(field: CoefficientField, pts: np.ndarray, mu: float,
                dt: float, const_sigma: Optional[np.ndarray],
                dB: np.ndarray, dW: np.ndarray) -> None:
    """The Euler step of every simulator, in place over stacked points:
    pts += b(pts) dt + sigma(pts) dB + sqrt(mu) dW."""
    with np.errstate(all="ignore"):  # a non-finite state raises downstream
        drift = np.asarray(field.drift(pts), dtype=float)
    if const_sigma is not None:
        # one product dB sigma^T, row by row: np.dot hands it to threaded
        # BLAS, whose wake-up costs milliseconds per step at 10^4 rows
        sig_dB = np.einsum("nj,ij->ni", dB, const_sigma)
    else:
        q = np.asarray(field.diffusion(pts), dtype=float)
        diag = np.diagonal(q, axis1=1, axis2=2)
        if np.isfinite(diag).all() \
                and np.count_nonzero(q) == np.count_nonzero(diag):
            # Jacobi does no rotation on a diagonal q and v is a permutation,
            # so sigma = diag(sqrt(q_ii - mu)) to the bit
            _check_shift(diag.min(axis=1), mu)
            sig_dB = np.sqrt(diag - mu) * dB
        else:
            bad = ~np.isfinite(q).all(axis=(1, 2))
            if bad.any():
                raise CoefficientEvaluationError(
                    "diffusion is non-finite at x = "
                    f"{pts[np.flatnonzero(bad)[0]].tolist()}")
            sig_dB = np.einsum("nij,nj->ni", _shifted_sqrt_batch(q, mu), dB)
    pts += drift * dt
    pts += sig_dB
    pts += math.sqrt(mu) * dW


def _pair_step(field: CoefficientField, z: np.ndarray, mu: float, dt: float,
               const_sigma: Optional[np.ndarray], dB: np.ndarray,
               dW: np.ndarray) -> np.ndarray:
    """Reflection-coupled step, in place, of the stacked pairs z = [x; y].

    Both halves share dB; y gets dW mirrored across the hyperplane
    orthogonal to x - y.  One Euler step moves the whole stack.  Returns
    the pre-step differences x - y.
    """
    m = len(z) // 2
    diff = z[:m] - z[m:]
    proj = np.einsum("ij,ij->i", diff, dW) / np.einsum("ij,ij->i", diff, diff)
    refl = dW - diff * (2.0 * proj)[:, None]
    _euler_step(field, z, mu, dt, const_sigma, np.concatenate([dB, dB]),
                np.concatenate([dW, refl]))
    return diff


def coupled_step(field: CoefficientField, bounds: EllipticityBounds,
                 x: np.ndarray, y: np.ndarray, mu: float, dt: float,
                 noise: Tuple[np.ndarray, np.ndarray],
                 ) -> Tuple[np.ndarray, np.ndarray]:
    """One explicit Euler step of the coupled pair (a one-row kernel call).

    noise = (dB, dW): two independent N(0, dt*I_d) increments.  Requires
    x != y (the reflection direction is undefined at the diagonal).
    """
    x, y = _start_points(field, bounds, mu, x, y)
    if not np.linalg.norm(x - y) > 0.0:
        raise ValueError("coupled_step needs x != y")
    dB, dW = (np.asarray(a, dtype=float).reshape(1, -1) for a in noise)
    z = np.stack([x, y])
    _pair_step(field, z, mu, dt, _const_sigma(field, mu), dB, dW)
    return z[0], z[1]


def _draw_noise(gens: Sequence[np.random.Generator], out: np.ndarray,
                root_dt: float) -> None:
    """Fill out, shape (n_k, 64 * len(gens), 2*dim), with the increments
    (dB, dW) of the next n_k steps of the path blocks whose streams are
    gens, block j in columns 64j..64j+63."""
    block = np.empty((len(out), _BLOCK, out.shape[2]))
    for j, gen in enumerate(gens):
        gen.standard_normal(out=block)
        np.multiply(block, root_dt, out=out[:, j * _BLOCK:(j + 1) * _BLOCK])


class _NoiseFeed:
    """The noise of a run's path blocks in chunks of 16..128 steps (never
    past the horizon, within the per-chunk noise budget), each filled by
    _draw_noise on a worker thread while the caller steps the one before.

    take(live) waits for the chunk in flight, starts the next one for the
    blocks in live (those still holding a live path, a subset of the
    blocks of the chunk taken) and returns (chunk, blocks): block blocks[j]
    is in columns 64j..64j+63.  Only the worker draws, and it draws one
    chunk at a time, so every stream is read in order.  Chunks are
    allocated on the caller's thread, so they come from its heap whatever
    the thread timing, and a caller that drops each chunk before it takes
    the next holds at most two.  Leaving the with block waits for the
    worker, so no thread outlives the run, whether it reaches the horizon,
    stops early or raises.
    """

    def __init__(self, gens: Sequence[np.random.Generator], n_steps: int,
                 dim: int, root_dt: float):
        self._gens = gens
        self._steps_left = n_steps
        self._dim = dim
        self._root_dt = root_dt
        self._worker: Optional[threading.Thread] = None
        self._chunk = self._blocks = self._error = None

    def __enter__(self) -> "_NoiseFeed":
        self._start(range(len(self._gens)))
        return self

    def __exit__(self, *exc_info) -> None:
        if self._worker is not None:
            self._worker.join()

    def _start(self, blocks) -> None:
        self._worker = None
        if not self._steps_left:
            return
        self._blocks = np.asarray(blocks)
        rows = _BLOCK * len(self._blocks)
        budget = int(_NOISE_BUDGET_BYTES / (rows * 2 * self._dim * 8))
        n_k = min(max(16, min(128, budget)), self._steps_left)
        self._chunk = chunk = np.empty((n_k, rows, 2 * self._dim))
        gens = [self._gens[b] for b in self._blocks]

        def draw():
            try:
                _draw_noise(gens, chunk, self._root_dt)
            except Exception as exc:  # raised again by take, on the caller
                self._error = exc

        self._worker = threading.Thread(target=draw, name="noise-draw")
        self._worker.start()

    def take(self, live) -> Tuple[np.ndarray, np.ndarray]:
        self._worker.join()
        if self._error is not None:
            raise self._error
        chunk, blocks, self._chunk = self._chunk, self._blocks, None
        self._steps_left -= len(chunk)
        self._start(live)
        return chunk, blocks


def _block_streams(seed: int, domain: int, n_paths: int) -> list:
    """The Philox substream of every block of _BLOCK path indices."""
    return [_streams.substream(seed, domain, b)
            for b in range(-(-n_paths // _BLOCK))]


def _norms(rows: np.ndarray) -> np.ndarray:
    """Row norms as sqrt of the einsum sum of squares: inf on overflow, as
    np.linalg.norm, but not its bits in d >= 3, and without its overhead."""
    return np.sqrt(np.einsum("ij,ij->i", rows, rows))


def _beyond(rows: np.ndarray, radius: float) -> np.ndarray:
    """Which finite rows lie farther than radius from the origin.  Rows
    flagged on the first pass are measured again with their largest entry
    scaled out, so that a squared norm that overflows (|row| above about
    1.3e154) is not taken for an escape; other steps pay nothing."""
    far = _norms(rows) > radius
    if far.any():
        big = rows[far]
        scale = np.abs(big).max(axis=1)
        far[far] = scale * _norms(big / scale[:, None]) > radius
    return far


def _segment_min_distance(diff0: np.ndarray, diff1: np.ndarray) -> np.ndarray:
    """Min of |diff0 + a*(diff1-diff0)| over a in [0,1], per row."""
    delta = diff1 - diff0
    # where delta = 0 the numerator is 0 too, and alpha = 0/tiny = 0
    alpha = np.einsum("ij,ij->i", diff0, delta) / -np.maximum(
        np.einsum("ij,ij->i", delta, delta), _TINY)
    np.minimum(np.maximum(alpha, 0.0, out=alpha), 1.0, out=alpha)
    closest = diff0 + alpha[:, None] * delta
    return _norms(closest)


def simulate_coupling(field: CoefficientField, bounds: EllipticityBounds,
                      cfg: CouplingConfig, x0, y0, *,
                      record_distance_at: Optional[float] = None,
                      ) -> CouplingStats:
    """Estimate the coupling probability from n_paths independent pairs.

    Each path stops at the first of: coupling (|X-Y| dips to the couple
    radius, segment-crossing counted), escape (either endpoint beyond
    the escape radius), or the horizon.  Deterministic given cfg.seed.
    """
    x0, y0 = _start_points(field, bounds, cfg.mu, x0, y0)
    if not np.linalg.norm(x0 - y0) > cfg.couple_radius:
        raise ValueError("x0 and y0 must start farther apart than the "
                         "couple radius")
    n = int(cfg.n_paths)
    dim = field.dim
    esc_radius = cfg.resolved_escape_radius(x0, y0)
    n_steps = cfg.n_steps()
    const_sigma = _const_sigma(field, cfg.mu)
    root_dt = math.sqrt(cfg.dt)

    gens = _block_streams(cfg.seed, _streams.DOMAIN_PATHS, n)
    z = np.concatenate([np.tile(x0, (n, 1)), np.tile(y0, (n, 1))])
    ids = np.arange(n)
    escaped = np.zeros(n, dtype=bool)
    couple_time = np.full(n, np.nan)
    recorded = k_record = None
    if record_distance_at is not None:
        k_record = int(round(record_distance_at / cfg.dt))
        if not 0 <= k_record <= n_steps:
            raise ValueError("record_distance_at outside the horizon")
        recorded = np.zeros(n)

    step = 0
    with _NoiseFeed(gens, n_steps, dim, root_dt) as feed:
        while step < n_steps and ids.size:
            noise, blocks = feed.take(np.unique(ids // _BLOCK))
            # column of each live path in the chunk; all columns live is the
            # identity map, and the chunk rows are used without a gather
            cols = np.searchsorted(blocks, ids // _BLOCK) * _BLOCK \
                + ids % _BLOCK
            for k in range(len(noise)):
                m = ids.size
                nz = noise[k] if m == noise.shape[1] \
                    else np.take(noise[k], cols, axis=0)
                diff = _pair_step(field, z, cfg.mu, cfg.dt, const_sigma,
                                  nz[:, :dim], nz[:, dim:])
                if step + k == k_record:
                    recorded[ids] = _norms(diff)
                if not np.isfinite(z).all():
                    bad = ~np.isfinite(z).all(axis=1)
                    raise SimulationBlowUp(
                        "non-finite state in coupled pair",
                        path_index=int(
                            ids[np.flatnonzero(bad[:m] | bad[m:])[0]]),
                        time=(step + k + 1) * cfg.dt)
                hit = _segment_min_distance(diff, z[:m] - z[m:]) \
                    <= cfg.couple_radius
                far = _beyond(z, esc_radius)
                done = hit | far[:m] | far[m:]
                if done.any():
                    couple_time[ids[hit]] = (step + k + 1) * cfg.dt
                    escaped[ids[done & ~hit]] = True
                    keep = ~done
                    ids, cols = ids[keep], cols[keep]
                    z = z[np.concatenate([keep, keep])]
                    if not ids.size:
                        break
            step += len(noise)
            noise = nz = None  # at most two chunks live: this and the next
    if k_record == n_steps:
        m = ids.size
        recorded[ids] = _norms(z[:m] - z[m:])

    coupled = ~np.isnan(couple_time)
    n_coupled = int(coupled.sum())
    n_escaped = int(escaped.sum())
    successes = n_coupled + (n_escaped if cfg.count_escaped_as_coupled else 0)
    p = successes / n
    ci = 1.96 * math.sqrt(p * (1.0 - p) / n)
    times = couple_time[coupled]
    if times.size:
        q = np.quantile(times, [0.25, 0.5, 0.9])
        quantiles = (float(q[0]), float(q[1]), float(q[2]))
    else:
        quantiles = (math.nan, math.nan, math.nan)
    return CouplingStats(
        n_paths=n, n_coupled=n_coupled, n_escaped=n_escaped,
        p_couple=p, ci_halfwidth=ci,
        coupling_time_quantiles=quantiles, coupling_times=couple_time,
        recorded_distances=recorded,
    )


def simulate_pair_trajectory(field: CoefficientField,
                             bounds: EllipticityBounds,
                             cfg: CouplingConfig, x0, y0,
                             stride: int = 1,
                             ) -> Tuple[np.ndarray, np.ndarray, np.ndarray,
                                        np.ndarray]:
    """One recorded pair trajectory for the CSV dump.

    Returns (t, X, Y, dist) sampled every `stride` steps (plus the final
    state).  After coupling the pair moves as a single merged path
    (Y := X); escape truncates the record.  Uses path index 0's stream,
    so it follows path 0 of simulate_coupling up to the coupling step.
    """
    if int(stride) != stride or stride < 1:
        raise ValueError("stride must be a positive integer")
    z = np.stack(_start_points(field, bounds, cfg.mu, x0, y0))
    dim = field.dim
    esc_radius = cfg.resolved_escape_radius(z[0], z[1])
    n_steps = cfg.n_steps()
    const_sigma = _const_sigma(field, cfg.mu)
    gens = _block_streams(cfg.seed, _streams.DOMAIN_PATHS, 1)

    times = [0.0]
    states = [z.copy()]
    merged = False
    noise = np.empty((0, 2 * dim))
    start = 0
    with _NoiseFeed(gens, n_steps, dim, math.sqrt(cfg.dt)) as feed:
        for k in range(n_steps):
            if k == start + len(noise):
                start, noise = k, feed.take([0])[0][:, 0]
            dB = noise[None, k - start, :dim]
            dW = noise[None, k - start, dim:]
            if merged:
                _euler_step(field, z[:1], cfg.mu, cfg.dt, const_sigma, dB, dW)
            else:
                diff = _pair_step(field, z, cfg.mu, cfg.dt, const_sigma, dB,
                                  dW)
                merged = _segment_min_distance(diff, z[:1] - z[1:])[0] \
                    <= cfg.couple_radius
            if merged:
                z[1] = z[0]
            if not np.isfinite(z).all():
                raise SimulationBlowUp("non-finite state in pair trajectory",
                                       path_index=0, time=(k + 1) * cfg.dt)
            if _beyond(z, esc_radius).any():
                break
            if (k + 1) % stride == 0 or k == n_steps - 1:
                times.append((k + 1) * cfg.dt)
                states.append(z.copy())
    t = np.array(times)
    X, Y = np.stack(states, axis=1)
    return t, X, Y, np.linalg.norm(X - Y, axis=1)


def martingale_check(field: CoefficientField, bounds: EllipticityBounds,
                     u: Callable[[float, np.ndarray], float], mu: float,
                     x0, t: float, n_paths: int, dt: float, seed: int,
                     ) -> Tuple[float, float]:
    """Sample mean and standard error of u(t, X_t) over single paths.

    X uses the same noise decomposition as the pair simulator (sigma dB
    plus sqrt(mu) dW) without reflection; for a space-time harmonic u the
    mean estimates u(0, x0) up to discretization bias.
    """
    (x0,) = _start_points(field, bounds, mu, x0)
    if not t > 0:
        raise ValueError("t must be positive")
    if not (dt > 0 and dt <= t):
        raise ValueError("need 0 < dt <= t")
    if t / dt > _STEP_CAP:
        raise ValueError(f"t/dt exceeds the {_STEP_CAP} step cap")
    if int(n_paths) != n_paths or n_paths < 2:
        raise ValueError("n_paths must be an integer >= 2")
    dim = field.dim
    n_steps = int(math.floor(t / dt + 1e-9))
    const_sigma = _const_sigma(field, mu)
    root_dt = math.sqrt(dt)
    n = int(n_paths)
    gens = _block_streams(seed, _streams.DOMAIN_MARTINGALE, n)
    X = np.tile(x0, (n, 1))
    every = range(len(gens))
    step = 0
    with _NoiseFeed(gens, n_steps, dim, root_dt) as feed:
        while step < n_steps:
            noise = feed.take(every)[0][:, :n]
            for k in range(len(noise)):
                _euler_step(field, X, mu, dt, const_sigma,
                            noise[k, :, :dim], noise[k, :, dim:])
                if not np.isfinite(X).all():
                    j = int(np.flatnonzero(~np.isfinite(X).all(axis=1))[0])
                    raise SimulationBlowUp(
                        "non-finite state in martingale paths", path_index=j,
                        time=(step + k + 1) * dt)
            step += len(noise)
            noise = None  # at most two chunks live: this and the next
    try:
        vals = np.asarray(u(n_steps * dt, X), dtype=float)
        if vals.shape != (X.shape[0],):
            raise ValueError
    except Exception:
        vals = np.array([float(u(n_steps * dt, X[i]))
                         for i in range(X.shape[0])])
    mean = float(np.mean(vals))
    stderr = float(np.std(vals, ddof=1) / math.sqrt(vals.size))
    return mean, stderr


def space_time_residual(field: CoefficientField,
                        u: Callable[[float, np.ndarray], float],
                        grid: Sequence[Tuple[float, np.ndarray]],
                        h: float = 1e-3) -> float:
    """Max |d_t u + L u| over the grid, by second-order central
    differences with step h (4-point stencil for the mixed terms)."""
    if not h > 0:
        raise ValueError("h must be positive")
    worst = 0.0
    dim = field.dim
    eye = np.eye(dim)
    for t, x in grid:
        x = np.asarray(x, dtype=float).reshape(-1)
        if x.size != dim:
            raise ValueError("grid point dimension mismatch")
        b = np.asarray(field.drift(x[None]), dtype=float)[0]
        q = np.asarray(field.diffusion(x[None]), dtype=float)[0]
        u0 = float(u(t, x))
        dt_u = (float(u(t + h, x)) - float(u(t - h, x))) / (2.0 * h)
        val = dt_u
        for i in range(dim):
            up = float(u(t, x + h * eye[i]))
            dn = float(u(t, x - h * eye[i]))
            val += b[i] * (up - dn) / (2.0 * h)
            val += 0.5 * q[i, i] * (up - 2.0 * u0 + dn) / h ** 2
            for j in range(i + 1, dim):
                upp = float(u(t, x + h * eye[i] + h * eye[j]))
                upm = float(u(t, x + h * eye[i] - h * eye[j]))
                ump = float(u(t, x - h * eye[i] + h * eye[j]))
                umm = float(u(t, x - h * eye[i] - h * eye[j]))
                cross = (upp - upm - ump + umm) / (4.0 * h ** 2)
                val += q[i, j] * cross
        worst = max(worst, abs(val))
    return worst
