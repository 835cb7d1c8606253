"""Coefficient fields of the operator L = 1/2 sum q_ij D_ij + sum b_i D_i.

A :class:`CoefficientField` bundles the dimension with two pure, batch
evaluators: ``drift`` maps an ``(n, d)`` block of points to the ``(n, d)``
drift vectors b(x), ``diffusion`` maps it to the ``(n, d, d)`` symmetric
diffusion matrices q(x).  Everything downstream (dispersion sup-search,
modulus estimation, the coupled simulator) calls them on blocks, so a
field built from numpy expressions costs one vectorized pass per stage.
``eval_drift``/``eval_diffusion`` are the validating single-point entry
points.

Fields come from two sources:

* the built-in catalogue (``make_standard_fields`` / ``make_log_example``),
  which carries the reference examples the test-suite leans on, and
* a small expression sub-language (``field_from_expressions``) so config
  files can define coefficients without writing Python.  Grammar:
  ``+ - * / ^`` (or ``**``), unary minus, parentheses, the functions
  ``log exp sin cos sqrt abs``, the constants ``pi`` and ``e``, the
  coordinates ``x1 .. xd`` and the radius ``normx`` (``|x|`` is accepted
  and rewritten).  Anything else is rejected with ExpressionError before
  evaluation; the compiled expression is evaluated with an empty builtins
  table.

Ellipticity bounds (lambda0, Lambda0) are *estimated*, not proved: the
true constants are global, the artifact can only certify a window.
``estimate_ellipticity`` therefore samples a seeded uniform ball plus a
deterministic lattice (always containing the origin) and takes the
extreme eigenvalues over the union.  Enlarging ``n_samples`` keeps the
earlier draws as a prefix, so bounds can only widen as the sample grows.
"""

from __future__ import annotations

import ast
import math
import re
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import _streams
from .errors import (
    CatalogueError,
    CoefficientEvaluationError,
    EllipticityViolation,
    ExpressionError,
)
from .matrix_analysis import _sym_eig_batch

_SYM_TOL = 1e-12
_DEFAULT_WINDOW = 100.0
_EIG_CHUNK = 8192


@dataclass(frozen=True)
class CoefficientField:
    """Immutable operator data (d, b, q) plus simulator metadata.

    ``drift`` and ``diffusion`` take an (n, d) float array; they must be
    pure (bit-identical output for identical input).  ``growth_bound`` is
    a linear-growth constant used only as a runaway-simulation guard.
    ``constant_diffusion`` lets consumers skip per-step matrix square
    roots.  ``smoothness_note`` is set when the field is only known to be
    continuous (e.g. expressions involving ``abs``): the criterion and
    simulator still run, but reports carry the caveat.
    """

    dim: int
    drift: Callable[[np.ndarray], np.ndarray]
    diffusion: Callable[[np.ndarray], np.ndarray]
    growth_bound: float
    label: str
    constant_diffusion: bool = False
    smoothness_note: Optional[str] = None

    def __post_init__(self):
        if int(self.dim) < 1:
            raise ValueError("dim must be a positive integer")
        if not (self.growth_bound > 0):
            raise ValueError("growth_bound must be positive")


@dataclass(frozen=True)
class EllipticityBounds:
    """Estimated uniform ellipticity constants and their provenance.

    lambda0 (Lambda0) is the smallest (largest) eigenvalue of q seen over
    the sampling window; domain_radius and n_samples record how hard the
    window was probed.
    """

    lambda0: float
    Lambda0: float
    domain_radius: float
    n_samples: int

    def __post_init__(self):
        if not (0.0 < self.lambda0 <= self.Lambda0):
            raise ValueError(
                f"need 0 < lambda0 <= Lambda0, got ({self.lambda0}, {self.Lambda0})")


def _as_point(x, dim: int) -> np.ndarray:
    pt = np.atleast_1d(np.asarray(x, dtype=float))
    if pt.shape != (dim,):
        raise ValueError(f"point must have shape ({dim},), got {pt.shape}")
    if not np.all(np.isfinite(pt)):
        raise ValueError("point must be finite")
    return pt


def eval_drift(field: CoefficientField, x) -> np.ndarray:
    """Validated single-point drift b(x)."""
    pt = _as_point(x, field.dim)
    out = np.asarray(field.drift(pt[None, :]), dtype=float)
    if out.shape != (1, field.dim) or not np.all(np.isfinite(out)):
        raise CoefficientEvaluationError(
            f"drift of field {field.label!r} returned shape {out.shape} "
            f"or non-finite values at x={pt.tolist()}")
    return out[0]


def eval_diffusion(field: CoefficientField, x) -> np.ndarray:
    """Validated single-point diffusion q(x); symmetry checked to 1e-12."""
    pt = _as_point(x, field.dim)
    out = np.asarray(field.diffusion(pt[None, :]), dtype=float)
    if out.shape != (1, field.dim, field.dim) or not np.all(np.isfinite(out)):
        raise CoefficientEvaluationError(
            f"diffusion of field {field.label!r} returned shape {out.shape} "
            f"or non-finite values at x={pt.tolist()}")
    q = out[0]
    if float(np.max(np.abs(q - q.T))) > _SYM_TOL:
        raise CoefficientEvaluationError(
            f"diffusion of field {field.label!r} is not symmetric at "
            f"x={pt.tolist()}")
    return q


def _constant_matrix_fn(mat: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    mat = np.asarray(mat, dtype=float)

    def diffusion(points: np.ndarray) -> np.ndarray:
        return np.broadcast_to(mat, (points.shape[0],) + mat.shape).copy()

    return diffusion


def _growth_bound(drift: Callable[[np.ndarray], np.ndarray], dim: int,
                  radius: float = _DEFAULT_WINDOW) -> float:
    # Deterministic probe: each axis plus the main diagonal, through 0.
    t = np.linspace(-radius, radius, 201)
    lines = [np.zeros((1, dim))]
    for i in range(dim):
        g = np.zeros((t.size, dim))
        g[:, i] = t
        lines.append(g)
    diag = np.repeat(t[:, None], dim, axis=1) / math.sqrt(dim)
    lines.append(diag)
    pts = np.concatenate(lines, axis=0)
    with np.errstate(all="ignore"):  # a non-finite value raises below
        b = np.asarray(drift(pts), dtype=float)
    if not np.all(np.isfinite(b)):
        raise CoefficientEvaluationError("drift is non-finite on the probe grid")
    ratio = np.linalg.norm(b, axis=1) / (1.0 + np.linalg.norm(pts, axis=1))
    return max(1.0, float(ratio.max()))


def make_log_example(delta: float) -> CoefficientField:
    """The 1D operator 1/2 d2/dx2 + x/(2+x^2) (delta + 2/log(2+x^2)) d/dx.

    Bounded non-constant harmonic functions exist exactly when
    delta >= 1/2, which makes this family the sharpness probe for the
    whole laboratory.
    """
    delta = float(delta)
    if not math.isfinite(delta):
        raise ValueError("delta must be finite")

    def drift(points: np.ndarray) -> np.ndarray:
        x = points[:, 0]
        w = 2.0 + x * x
        return (x / w * (delta + 2.0 / np.log(w)))[:, None]

    return CoefficientField(
        dim=1,
        drift=drift,
        diffusion=_constant_matrix_fn(np.eye(1)),
        growth_bound=_growth_bound(drift, 1),
        label=f"log_example(delta={delta:g})",
        constant_diffusion=True,
    )


#: name -> (min_params, max_params, one-line description); the CLI
#: `catalogue` subcommand prints this table verbatim.
CATALOGUE = {
    "zero": (0, 0, "b = 0, q = I"),
    "ou": (0, 0, "b(x) = -x, q = I (Ornstein-Uhlenbeck)"),
    "var_q_const_b": (0, 1,
                      "b = e1, q(x) = (1 + a*sin^2|x|) I; params: [a], "
                      "default a = 0.5 (constant drift, variable diffusion)"),
    "radial_expand": (0, 1,
                      "b(x) = c*x/(1+|x|^2), q = I; params: [c], default "
                      "c = 1 (outward drift decaying like 1/|x|)"),
    "log_example": (1, 1,
                    "d = 1 only; b(x) = x/(2+x^2)(delta + 2/log(2+x^2)), "
                    "q = 1; params: [delta]"),
}


def make_standard_fields(name: str, dim: int, params: Sequence[float] = ()
                         ) -> CoefficientField:
    """Build a catalogue field by name; unknown names raise CatalogueError."""
    if name not in CATALOGUE:
        known = ", ".join(sorted(CATALOGUE))
        raise CatalogueError(f"unknown field {name!r}; catalogue: {known}")
    lo, hi, _ = CATALOGUE[name]
    params = [float(p) for p in params]
    if not (lo <= len(params) <= hi):
        raise CatalogueError(
            f"field {name!r} takes between {lo} and {hi} params, "
            f"got {len(params)}")
    dim = int(dim)
    if dim < 1:
        raise CatalogueError("dim must be a positive integer")
    eye = np.eye(dim)

    if name == "log_example":
        if dim != 1:
            raise CatalogueError("log_example is one-dimensional")
        return make_log_example(params[0])

    if name == "zero":
        def drift(points: np.ndarray) -> np.ndarray:
            return np.zeros_like(points)

        return CoefficientField(dim, drift, _constant_matrix_fn(eye), 1.0,
                                f"zero(d={dim})", constant_diffusion=True)

    if name == "ou":
        def drift(points: np.ndarray) -> np.ndarray:
            return -points

        return CoefficientField(dim, drift, _constant_matrix_fn(eye),
                                _growth_bound(drift, dim),
                                f"ou(d={dim})", constant_diffusion=True)

    if name == "var_q_const_b":
        a = params[0] if params else 0.5
        if a <= -1.0:
            raise CatalogueError(
                f"var_q_const_b needs a > -1 for positive definiteness, got {a}")
        e1 = np.zeros(dim)
        e1[0] = 1.0

        def drift(points: np.ndarray) -> np.ndarray:
            return np.broadcast_to(e1, points.shape).copy()

        def diffusion(points: np.ndarray) -> np.ndarray:
            r = np.linalg.norm(points, axis=1)
            fac = 1.0 + a * np.sin(r) ** 2
            return fac[:, None, None] * eye

        return CoefficientField(dim, drift, diffusion, 1.0,
                                f"var_q_const_b(d={dim}, a={a:g})")

    # radial_expand
    c = params[0] if params else 1.0

    def drift(points: np.ndarray) -> np.ndarray:
        r2 = np.einsum("ij,ij->i", points, points)
        return c * points / (1.0 + r2)[:, None]

    return CoefficientField(dim, drift, _constant_matrix_fn(eye),
                            _growth_bound(drift, dim),
                            f"radial_expand(d={dim}, c={c:g})",
                            constant_diffusion=True)


# --------------------------------------------------------------------------
# expression sub-language

_FUNCS = {"log": np.log, "exp": np.exp, "sin": np.sin, "cos": np.cos,
          "sqrt": np.sqrt, "abs": np.abs}
_CONSTS = {"pi": math.pi, "e": math.e}
_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)
_UNARYOPS = (ast.USub, ast.UAdd)
_COORD_RE = re.compile(r"^x([1-9][0-9]*)$")


@dataclass(frozen=True)
class CompiledExpr:
    """A validated coefficient expression, evaluable on (n, d) blocks."""

    text: str
    dim: int
    code: object
    names: frozenset
    uses_abs: bool

    @property
    def is_constant(self) -> bool:
        return not any(_COORD_RE.match(n) or n == "normx" for n in self.names)

    def __call__(self, points: np.ndarray) -> np.ndarray:
        env = {}
        for name in self.names:
            if name == "normx":
                env[name] = np.sqrt(np.einsum("ij,ij->i", points, points))
            elif name in _CONSTS:
                env[name] = _CONSTS[name]
            elif name in _FUNCS:
                env[name] = _FUNCS[name]
            else:
                env[name] = points[:, int(_COORD_RE.match(name).group(1)) - 1]
        out = eval(self.code, {"__builtins__": {}}, env)  # whitelisted AST
        arr = np.asarray(out, dtype=float)
        if arr.ndim == 0:
            return np.full(points.shape[0], float(arr))
        return arr


def compile_expression(text: str, dim: int) -> CompiledExpr:
    """Parse one expression of the coefficient sub-language.

    ``|x|`` is rewritten to ``normx`` and ``^`` to ``**`` before parsing;
    any construct outside the documented grammar raises ExpressionError.
    """
    source = re.sub(r"\|\s*x\s*\|", "normx", text).replace("^", "**")
    try:
        tree = ast.parse(source, mode="eval")
    except SyntaxError as exc:
        raise ExpressionError(f"cannot parse {text!r}: {exc.msg}") from None
    names = set()
    uses_abs = "normx" in source

    def visit(node):
        nonlocal uses_abs
        if isinstance(node, ast.Expression):
            visit(node.body)
        elif isinstance(node, ast.Constant):
            if not isinstance(node.value, (int, float)):
                raise ExpressionError(
                    f"only numeric literals allowed, got {node.value!r}")
        elif isinstance(node, ast.BinOp) and isinstance(node.op, _BINOPS):
            visit(node.left)
            visit(node.right)
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, _UNARYOPS):
            visit(node.operand)
        elif isinstance(node, ast.Call):
            if (not isinstance(node.func, ast.Name)
                    or node.func.id not in _FUNCS):
                raise ExpressionError(
                    f"only {sorted(_FUNCS)} may be called in {text!r}")
            if len(node.args) != 1 or node.keywords:
                raise ExpressionError(
                    f"{node.func.id} takes exactly one argument in {text!r}")
            if node.func.id == "abs":
                uses_abs = True
            names.add(node.func.id)
            visit(node.args[0])
        elif isinstance(node, ast.Name):
            m = _COORD_RE.match(node.id)
            if m:
                k = int(m.group(1))
                if k > dim:
                    raise ExpressionError(
                        f"coordinate x{k} exceeds dimension {dim} in {text!r}")
            elif node.id not in _CONSTS and node.id != "normx":
                raise ExpressionError(f"unknown name {node.id!r} in {text!r}")
            names.add(node.id)
        else:
            raise ExpressionError(
                f"disallowed syntax {type(node).__name__} in {text!r}")

    visit(tree)
    return CompiledExpr(text=text, dim=dim,
                        code=compile(tree, "<coefficient-expression>", "eval"),
                        names=frozenset(names), uses_abs=uses_abs)


def field_from_expressions(dim: int, drift_exprs: Sequence[str],
                           diffusion_exprs: Optional[Sequence[str]] = None,
                           label: str = "expression-field") -> CoefficientField:
    """Assemble a CoefficientField from expression strings.

    ``drift_exprs`` must have exactly ``dim`` entries (components of b).
    ``diffusion_exprs`` may be omitted (q = I), a single entry (isotropic
    q = expr * I), ``dim`` entries (diagonal), or ``dim**2`` entries
    (full matrix, row-major; must evaluate symmetric).
    """
    dim = int(dim)
    if dim < 1:
        raise ExpressionError("dim must be a positive integer")
    if len(drift_exprs) != dim:
        raise ExpressionError(
            f"need {dim} drift expressions, got {len(drift_exprs)}")
    b_parts = [compile_expression(t, dim) for t in drift_exprs]

    def drift(points: np.ndarray) -> np.ndarray:
        return np.stack([p(points) for p in b_parts], axis=1)

    uses_abs = any(p.uses_abs for p in b_parts)
    if diffusion_exprs is None:
        diffusion = _constant_matrix_fn(np.eye(dim))
        constant_q = True
    else:
        q_parts = [compile_expression(t, dim) for t in diffusion_exprs]
        uses_abs = uses_abs or any(p.uses_abs for p in q_parts)
        constant_q = all(p.is_constant for p in q_parts)
        eye = np.eye(dim)
        if len(q_parts) == 1:
            def diffusion(points: np.ndarray) -> np.ndarray:
                return q_parts[0](points)[:, None, None] * eye
        elif len(q_parts) == dim:
            def diffusion(points: np.ndarray) -> np.ndarray:
                out = np.zeros((points.shape[0], dim, dim))
                for i, part in enumerate(q_parts):
                    out[:, i, i] = part(points)
                return out
        elif len(q_parts) == dim * dim:
            def diffusion(points: np.ndarray) -> np.ndarray:
                vals = np.stack([p(points) for p in q_parts], axis=1)
                out = vals.reshape(points.shape[0], dim, dim)
                if float(np.max(np.abs(out - np.transpose(out, (0, 2, 1))))) \
                        > _SYM_TOL:
                    raise CoefficientEvaluationError(
                        "diffusion expressions evaluate to a non-symmetric "
                        "matrix")
                return out
        else:
            raise ExpressionError(
                f"diffusion takes 1, {dim} or {dim * dim} expressions, "
                f"got {len(q_parts)}")

    note = None
    if uses_abs:
        note = ("coefficients use |.| and are treated as continuous only; "
                "simulator strong-solution accuracy is unquantified")
    return CoefficientField(
        dim=dim,
        drift=drift,
        diffusion=diffusion,
        growth_bound=_growth_bound(drift, dim),
        label=label,
        constant_diffusion=constant_q,
        smoothness_note=note,
    )


# --------------------------------------------------------------------------
# ellipticity estimation

def _deterministic_lattice(dim: int, radius: float) -> np.ndarray:
    """Seed-free probe points in the ball: origin + grid or axis lines."""
    k = int(round(4096 ** (1.0 / dim)))
    if k % 2 == 0:
        k -= 1
    pts = [np.zeros((1, dim))]
    if k >= 3 and k ** dim <= 8192:
        axes = (np.linspace(-radius, radius, k),) * dim
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
        grid = grid.reshape(-1, dim)
        inside = np.linalg.norm(grid, axis=1) <= radius + 1e-12
        pts.append(grid[inside])
    else:
        t = np.linspace(-radius, radius, 33)
        for i in range(dim):
            g = np.zeros((t.size, dim))
            g[:, i] = t
            pts.append(g)
        pts.append(np.repeat(t[:, None], dim, axis=1) / math.sqrt(dim))
    return np.concatenate(pts, axis=0)


def estimate_ellipticity(field: CoefficientField, radius: float,
                         n_samples: int, seed: int) -> EllipticityBounds:
    """Extreme eigenvalues of q over a seeded ball sample plus a lattice.

    The random points use two independent substreams (directions, radii)
    so that a larger ``n_samples`` extends the smaller sample instead of
    reshuffling it; together with min/max aggregation this makes the
    bounds monotone in the sample count.  A sample with a non-positive
    eigenvalue raises EllipticityViolation: the field is outside the
    uniformly elliptic scope.
    """
    if not (radius > 0):
        raise ValueError("radius must be positive")
    n_samples = int(n_samples)
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    rng_dirs = _streams.substream(seed, _streams.DOMAIN_ELLIPTICITY_POINTS)
    rng_radii = _streams.substream(seed, _streams.DOMAIN_ELLIPTICITY_RADII)

    lo = math.inf
    hi = -math.inf
    total = 0

    def absorb(points: np.ndarray):
        nonlocal lo, hi, total
        q = np.asarray(field.diffusion(points), dtype=float)
        if q.shape != (points.shape[0], field.dim, field.dim) \
                or not np.all(np.isfinite(q)):
            raise CoefficientEvaluationError(
                f"diffusion of field {field.label!r} returned bad values "
                "during ellipticity sampling")
        sym_defect = np.max(np.abs(q - np.transpose(q, (0, 2, 1))), initial=0.0)
        if float(sym_defect) > _SYM_TOL:
            raise CoefficientEvaluationError(
                f"diffusion of field {field.label!r} is not symmetric "
                "(max defect {:.3e})".format(float(sym_defect)))
        evals, _ = _sym_eig_batch(q)
        mins = evals[:, 0]
        if np.any(mins <= 0.0):
            bad = points[int(np.argmin(mins))]
            raise EllipticityViolation(
                f"q has a non-positive eigenvalue ({mins.min():.6g}) at "
                f"x={bad.tolist()}")
        lo = min(lo, float(mins.min()))
        hi = max(hi, float(evals[:, -1].max()))
        total += points.shape[0]

    absorb(_deterministic_lattice(field.dim, radius))
    done = 0
    while done < n_samples:
        m = min(_EIG_CHUNK, n_samples - done)
        absorb(_streams.ball_points(rng_dirs, rng_radii, m, field.dim, radius))
        done += m
    return EllipticityBounds(lambda0=lo, Lambda0=hi,
                             domain_radius=float(radius), n_samples=total)
