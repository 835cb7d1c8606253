"""The 1D oracle's harmonic-function panel with a nested Gauss-Legendre
rule, as a reference for the oracle's own panel.

Here B at each of a segment's 15 Kronrod nodes is B(a) plus a 10-point
Gauss-Legendre panel of b over [a, node], so each segment samples b at
150 points.  ``install`` puts this panel, and u' at query points by the
same nested rule, in place of the oracle's.
"""

import numpy as np

from liouville_lab import harmonic_oracle

_GL10_X = np.array([
    -0.973906528517172, -0.865063366688985, -0.679409568299024,
    -0.433395394129247, -0.148874338981631,
    0.148874338981631, 0.433395394129247, 0.679409568299024,
    0.865063366688985, 0.973906528517172,
])
_GL10_W = np.array([
    0.066671344308688, 0.149451349150581, 0.219086362515982,
    0.269266719309996, 0.295524224714753,
    0.295524224714753, 0.269266719309996, 0.219086362515982,
    0.149451349150581, 0.066671344308688,
])


def _nodes(a, b, nodes):
    """Half-widths h of the segments [a, b] and their Gauss ``nodes``."""
    h = 0.5 * (b - a)
    pts = h[..., None] * nodes
    pts += 0.5 * (a + b)[..., None]
    return h, pts


def _du(bfun, a, x, b_at_a):
    """u' at x, from B(a) and a GL10 panel of b over [a, x]."""
    h, pts = _nodes(a, x, _GL10_X)
    f = np.asarray(bfun(pts.reshape(-1, 1)), dtype=float)[:, 0]
    return harmonic_oracle._uprime(b_at_a + h * (f.reshape(pts.shape)
                                                 @ _GL10_W))


def uprime_panel(bfun, a, b, b_at_a):
    """K15/G7 masses of exp(-2B) over segments [a, b] with B(a) given."""
    h, knodes = _nodes(a, b, harmonic_oracle._K15_X)
    return harmonic_oracle._kronrod(
        h, _du(bfun, a[:, None], knodes, b_at_a[:, None]))


def du_at(side, xq):
    """u' at xq on one side of a profile, by the nested rule."""
    idx = side._anchor(xq)
    return _du(side.bfun, side.x[idx], xq, side.bnodes[idx])


def install(monkeypatch):
    """Run the oracle, and its profiles' u_at and du_at, on this panel."""
    monkeypatch.setattr(harmonic_oracle, "_uprime_panel", uprime_panel)
    monkeypatch.setattr(harmonic_oracle._SideResult, "du_at", du_at)
