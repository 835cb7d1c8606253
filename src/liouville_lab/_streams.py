"""Deterministic random-stream derivation.

Every consumer of randomness in the package draws from a counter-based
Philox generator keyed by ``(seed, domain, *indices)``.  Streams are
therefore independent of evaluation order, chunking and worker count, and
the first ``k`` draws of any stream are identical no matter how many draws
follow — which is what makes the "estimates are monotone in the sample
count" properties testable.
"""

from __future__ import annotations

import numpy as np

# Domain tags keep independent consumers of the same user seed apart.
DOMAIN_ELLIPTICITY_POINTS = 11
DOMAIN_ELLIPTICITY_RADII = 12
DOMAIN_DISPERSION = 21
DOMAIN_MODULUS = 22
DOMAIN_PATHS = 31
DOMAIN_MARTINGALE = 32

#: starts are generated in fixed-size chunks so that worker scheduling can
#: never change which start belongs to which stream position.
START_CHUNK = 64


def substream(seed: int, *key: int) -> np.random.Generator:
    """Return a Generator on an independent Philox stream for (seed, *key)."""
    seq = np.random.SeedSequence(int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(seq))


def ball_points(rng_dirs: np.random.Generator, rng_radii: np.random.Generator,
                n: int, dim: int, radius: float) -> np.ndarray:
    """Draw ``n`` points uniformly from the centered ball of the given radius.

    Directions and radii come from separate streams so that the first k
    points of a longer draw coincide with a shorter draw (prefix nesting).
    """
    normals = rng_dirs.standard_normal((n, dim))
    norms = np.linalg.norm(normals, axis=1)
    norms[norms == 0.0] = 1.0
    dirs = normals / norms[:, None]
    u = rng_radii.random(n)
    return radius * u[:, None] ** (1.0 / dim) * dirs


def sphere_dirs(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    """Draw ``n`` unit vectors uniformly from the sphere S^{dim-1}."""
    normals = rng.standard_normal((n, dim))
    norms = np.linalg.norm(normals, axis=1)
    bad = norms == 0.0
    if bad.any():
        normals[bad, 0] = 1.0
        norms[bad] = 1.0
    return normals / norms[:, None]
