"""Coefficient fields of the operator L = 1/2 sum q_ij D_ij + sum b_i D_i.

A :class:`CoefficientField` bundles the dimension with two pure, batch
evaluators: ``drift`` maps an ``(n, d)`` block of points to the ``(n, d)``
drift vectors b(x), ``diffusion`` maps it to the ``(n, d, d)`` symmetric
diffusion matrices q(x).  Everything downstream (dispersion sup-search,
modulus estimation, the coupled simulator) calls them on blocks, so a
field built from numpy expressions costs one vectorized pass per stage.
``eval_drift``/``eval_diffusion`` are the validating single-point entry
points.

Fields are written in a small expression sub-language
(``field_from_expressions``); the built-in catalogue of reference examples
(``make_standard_fields`` / ``make_log_example``) is a table of its
templates.  Grammar: ``+ - * / ^`` (or ``**``), unary minus, parentheses,
``log exp sin cos tanh sqrt abs``, ``pi``, ``e``, the coordinates
``x1 .. xd`` and the radius ``normx`` or ``|x|``; anything else raises
ExpressionError before evaluation.  A field's drift, and its diffusion,
compile into one function with an empty builtins table.  ``|x|`` is
:func:`row_norms`, np.linalg.norm's value to the bit: for d < 8 the
squares summed column by column, left to right, then the root; from d = 8
np.linalg.norm itself, whose add.reduce then sums pairwise.  ``|x|^2`` is
the einsum sum of squares, not the square of that root.

Ellipticity bounds (lambda0, Lambda0) are *estimated*, not proved: the
true constants are global, the artifact can only certify a window.
``estimate_ellipticity`` therefore samples a seeded uniform ball plus a
deterministic lattice (always containing the origin) and takes the
extreme eigenvalues over the union.  Enlarging ``n_samples`` keeps the
earlier draws as a prefix, so bounds can only widen as the sample grows.
"""

from __future__ import annotations

import ast
import collections
import dataclasses
import math
import re
from dataclasses import dataclass
from typing import Callable, Dict, NamedTuple, Optional, Sequence, Tuple

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
    pure (bit-identical output for identical input), and
    field_from_expressions rejects a drift that is non-finite on the axes
    and diagonal of the default window.  ``diffusion_form`` declares q's
    structure, which consumers read instead of q's values: a "constant"
    q has its shifted square root computed once, a "diagonal" one skips
    the eigen-solver, and "full", the default of a field built from raw
    callables, promises nothing.
    ``smoothness_note`` is set when the field is only known to be
    continuous (e.g. expressions involving ``abs``): the criterion and
    simulator still run, but reports carry the caveat.
    """

    dim: int
    drift: Callable[[np.ndarray], np.ndarray]
    diffusion: Callable[[np.ndarray], np.ndarray]
    label: str
    diffusion_form: str = "full"
    smoothness_note: Optional[str] = None

    def __post_init__(self):
        if int(self.dim) < 1:
            raise ValueError("dim must be a positive integer")
        if self.diffusion_form not in ("constant", "diagonal", "full"):
            raise ValueError("diffusion_form must be constant, diagonal or "
                             f"full, got {self.diffusion_form!r}")


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


def _probe_lines(dim: int, radius: float, n: int) -> np.ndarray:
    """The origin, then n points across [-radius, radius] on each axis and
    on the main diagonal."""
    t = np.linspace(-radius, radius, n)
    lines = [np.zeros((1, dim))]
    for i in range(dim):
        g = np.zeros((n, dim))
        g[:, i] = t
        lines.append(g)
    lines.append(np.repeat(t[:, None], dim, axis=1) / math.sqrt(dim))
    return np.concatenate(lines, axis=0)


def _probe_drift(drift: Callable[[np.ndarray], np.ndarray], dim: int,
                 radius: float = _DEFAULT_WINDOW) -> None:
    # a drift that is non-finite on the probe lines cannot make a field
    pts = _probe_lines(dim, radius, 201)
    with np.errstate(all="ignore"):  # a non-finite value raises below
        b = np.asarray(drift(pts), dtype=float)
    if not np.all(np.isfinite(b)):
        raise CoefficientEvaluationError("drift is non-finite on the probe grid")


class CatalogueEntry(NamedTuple):
    """A built-in field as data: ``params`` maps names to defaults (None:
    required); drift component i takes template i, the last one standing
    for all later ones and naming i ``{i}``; ``dim`` is the one dimension
    the field exists in (None: any); params must exceed ``param_floor``."""

    description: str
    params: Dict[str, Optional[float]]
    drift: Tuple[str, ...]
    diffusion: Tuple[str, ...] = ("1",)
    dim: Optional[int] = None
    param_floor: float = -math.inf


#: name -> CatalogueEntry; the CLI `catalogue` subcommand prints the
#: descriptions verbatim.
CATALOGUE = {
    "zero": CatalogueEntry("b = 0, q = I", {}, ("0",)),
    "ou": CatalogueEntry("b(x) = -x, q = I (Ornstein-Uhlenbeck)", {},
                         ("-x{i}",)),
    "var_q_const_b": CatalogueEntry(
        "b = e1, q(x) = (1 + a*sin^2|x|) I; params: [a], default a = 0.5 "
        "(constant drift, variable diffusion)",
        {"a": 0.5}, ("1", "0"), ("1.0 + {a}*sin(|x|)^2",), param_floor=-1.0),
    "radial_expand": CatalogueEntry(
        "b(x) = c*x/(1+|x|^2), q = I; params: [c], default c = 1 (outward "
        "drift decaying like 1/|x|)",
        {"c": 1.0}, ("{c}*x{i}/(1.0 + |x|^2)",)),
    "log_example": CatalogueEntry(
        "d = 1 only; b(x) = x/(2+x^2)(delta + 2/log(2+x^2)), q = 1; "
        "params: [delta]",
        {"delta": None},
        ("x1/(2.0 + x1*x1)*({delta} + 2.0/log(2.0 + x1*x1))",), dim=1),
}


def make_standard_fields(name: str, dim: int, params: Sequence[float] = ()
                         ) -> CoefficientField:
    """A catalogue field from its templates, each param substituted as
    ``(repr(float(p)))``; a bad name, dim or param vector: CatalogueError."""
    if name not in CATALOGUE:
        known = ", ".join(sorted(CATALOGUE))
        raise CatalogueError(f"unknown field {name!r}; catalogue: {known}")
    entry = CATALOGUE[name]
    defaults = list(entry.params.values())
    lo, hi = defaults.count(None), len(defaults)
    params = [float(p) for p in params]
    if not (lo <= len(params) <= hi):
        raise CatalogueError(
            f"field {name!r} takes between {lo} and {hi} params, "
            f"got {len(params)}")
    dim = int(dim)  # field_from_expressions rejects dim < 1
    if entry.dim not in (None, dim):
        raise CatalogueError(f"{name} is {entry.dim}-dimensional")
    values = dict(zip(entry.params, params + defaults[len(params):]))
    for p, v in values.items():
        if not math.isfinite(v):
            raise CatalogueError(f"field {name!r} param {p} must be finite, "
                                 f"got {v}")
        if v <= entry.param_floor:
            raise CatalogueError(
                f"{name} needs {p} > {entry.param_floor:g} for positive "
                f"definiteness, got {v}")
    subs = {p: f"({v!r})" for p, v in values.items()}
    drift = [entry.drift[min(i, len(entry.drift)) - 1].format(i=i, **subs)
             for i in range(1, dim + 1)]
    diffusion = [t.format(**subs) for t in entry.diffusion]
    label = ([] if entry.dim else [f"d={dim}"]) + [
        f"{p}={v:g}" for p, v in values.items()]
    field = field_from_expressions(dim, drift, diffusion,
                                   label=f"{name}({', '.join(label)})")
    # the catalogue uses |x| only in |x|^2, which is not flagged, and in
    # sin(|x|)^2, which is smooth although its |x| is flagged
    return dataclasses.replace(field, smoothness_note=None)


def make_log_example(delta: float) -> CoefficientField:
    """The 1D operator 1/2 d2/dx2 + x/(2+x^2) (delta + 2/log(2+x^2)) d/dx.

    Bounded non-constant harmonic functions exist exactly when
    delta >= 1/2, which makes this family the sharpness probe for the
    whole laboratory.
    """
    return make_standard_fields("log_example", 1, [delta])


# --------------------------------------------------------------------------
# expression sub-language

_FUNCS = {"log": np.log, "exp": np.exp, "sin": np.sin, "cos": np.cos,
          "tanh": np.tanh, "sqrt": np.sqrt, "abs": np.abs}
_CONSTS = {"pi": math.pi, "e": math.e}
_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)
_UNARYOPS = (ast.USub, ast.UAdd)
_COORD_RE = re.compile(r"^x([1-9][0-9]*)$")
_PRELUDE = ("normx = _norm(points)",
            "_r2 = _einsum('ij,ij->i', points, points)")
_SQUARED_NORM = ast.dump(ast.parse("normx**2", mode="eval").body)


@dataclass(frozen=True)
class CompiledExpr:
    """A validated coefficient expression (an AST, not yet compiled);
    uses_abs: it calls abs or uses |x| other than as |x|^2."""

    text: str
    tree: ast.expr
    names: frozenset
    uses_abs: bool

    @property
    def is_constant(self) -> bool:
        return not any(_COORD_RE.match(n) or n == "normx" for n in self.names)


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
    rough = []  # abs(...) calls and |x| outside |x|^2: not smooth at 0

    def visit(node):
        if isinstance(node, ast.Expression):
            visit(node.body)
        elif ast.dump(node) == _SQUARED_NORM:
            names.add("normx")
        elif isinstance(node, ast.Constant):
            # bool is an int, so True and False are named here
            if isinstance(node.value, bool) \
                    or not isinstance(node.value, (int, float)):
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
            names.add(node.func.id)
            if node.func.id == "abs":
                rough.append(node)
            visit(node.args[0])
        elif isinstance(node, ast.Name):
            m = _COORD_RE.match(node.id)
            if m:
                k = int(m.group(1))
                if k > dim:
                    raise ExpressionError(
                        f"coordinate x{k} exceeds dimension {dim} in {text!r}")
            elif node.id == "normx":
                rough.append(node)
            elif node.id not in _CONSTS:
                raise ExpressionError(f"unknown name {node.id!r} in {text!r}")
            names.add(node.id)
        else:
            raise ExpressionError(
                f"disallowed syntax {type(node).__name__} in {text!r}")

    visit(tree)
    return CompiledExpr(text=text, tree=tree.body, names=frozenset(names),
                        uses_abs=bool(rough))


_PAIRWISE_WIDTH = 8  # np.add.reduce sums rows this long pairwise


def row_norms(points: np.ndarray) -> np.ndarray:
    """The Euclidean norm of each row of an (n, d) block, bit for bit
    np.linalg.norm(points, axis=1).  That is sqrt(add.reduce(x*x)), and
    for d < 8 add.reduce sums left to right, as the column sums here do
    at a fraction of its cost; from d = 8 it sums pairwise, so it is
    called itself."""
    if points.shape[1] >= _PAIRWISE_WIDTH:
        return np.linalg.norm(points, axis=1)
    sq = np.square(points)
    out = sq[:, 0].copy()
    for j in range(1, points.shape[1]):
        out += sq[:, j]
    return np.sqrt(out, out=out)


def row_view(a: np.ndarray) -> np.ndarray:
    """A C-contiguous (n, d) array as an (n,) view of whole rows, for
    masked copies and selections that move a row as one item."""
    return a.view(np.dtype((np.void, a.shape[1] * a.itemsize)))[:, 0]


def take_rows(a: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """The bytes of a[keep] for a row mask keep, at a fraction of the
    cost of boolean indexing on the 2-D array."""
    return row_view(a)[keep].view(a.dtype).reshape(-1, a.shape[1])


def _as_block(n: int, *values) -> np.ndarray:
    """The (n, k) block of k values, each an (n,) array or a number; a
    lone (n,) array becomes a column view, not a copy."""
    if len(values) == 1 and np.shape(values[0]) == (n,):
        return np.asarray(values[0], dtype=float)[:, None]
    out = np.empty((n, len(values)))
    for j, value in enumerate(values):
        out[:, j] = value
    return out


def _block_function(parts: Sequence[CompiledExpr], dim: int
                    ) -> Callable[[np.ndarray], np.ndarray]:
    """One function from an (n, d) block of points to the (n, k) block of
    the expressions' values.  Coordinates are column views; ``|x|``
    (:func:`row_norms`), ``|x|^2`` (the einsum sum of squares)
    and each repeated subtree are computed once a call, into locals."""
    seen, stack = collections.Counter(), [p.tree for p in parts]
    while stack:
        node = stack.pop()
        seen[ast.dump(node)] += 1
        if seen[ast.dump(node)] == 1:  # a repeat is computed once, whole
            stack.extend(ast.iter_child_nodes(node))
    names, body = {_SQUARED_NORM: "_r2"}, []

    def rewrite(node):
        key = ast.dump(node)
        if key in names:
            return ast.Name(names[key], ast.Load())
        if isinstance(node, ast.BinOp):
            node = ast.BinOp(rewrite(node.left), node.op, rewrite(node.right))
        elif isinstance(node, ast.UnaryOp):
            node = ast.UnaryOp(node.op, rewrite(node.operand))
        elif isinstance(node, ast.Call):
            node = ast.Call(node.func, [rewrite(node.args[0])], [])
        if seen[key] < 2 or isinstance(node, (ast.Name, ast.Constant)):
            return node
        names[key] = f"_t{len(names)}"
        body.append(ast.Assign([ast.Name(names[key], ast.Store())], node))
        return ast.Name(names[key], ast.Load())

    ret = ast.parse("return _as_block(points.shape[0])").body[0]
    ret.value.args += [rewrite(p.tree) for p in parts]  # body gets locals
    body.append(ret)
    used = {n.id for s in body for n in ast.walk(s) if isinstance(n, ast.Name)}
    lines = [f"x{k} = points[:, {k - 1}]" for k in range(1, dim + 1)]
    module = ast.parse("def _block(points):\n    pass\n")
    module.body[0].body = [ast.parse(line).body[0] for line in
                           lines + list(_PRELUDE) if line.split()[0] in used]
    module.body[0].body += body
    namespace = {"__builtins__": {}, **_FUNCS, **_CONSTS,  # no builtins
                 "_norm": row_norms, "_einsum": np.einsum,
                 "_as_block": _as_block}
    exec(compile(ast.fix_missing_locations(module),  # whitelisted AST
                 "<coefficient-expression>", "exec"), namespace)
    return namespace["_block"]


def field_from_expressions(dim: int, drift_exprs: Sequence[str],
                           diffusion_exprs: Optional[Sequence[str]] = None,
                           label: str = "expression-field") -> CoefficientField:
    """Assemble a CoefficientField from expression strings.

    ``drift_exprs`` must have exactly ``dim`` entries (components of b).
    ``diffusion_exprs`` may be omitted (q = I), a single entry (isotropic
    q = expr * I), ``dim`` entries (diagonal), or ``dim**2`` entries
    (full matrix, row-major; must evaluate symmetric).  diffusion_form is
    "constant" when every entry is constant, else "diagonal" for 1 or
    ``dim`` entries and "full" for ``dim**2``.
    """
    dim = int(dim)
    if dim < 1:
        raise ExpressionError("dim must be a positive integer")
    if len(drift_exprs) != dim:
        raise ExpressionError(
            f"need {dim} drift expressions, got {len(drift_exprs)}")
    b_parts = [compile_expression(t, dim) for t in drift_exprs]
    q_parts = [compile_expression(t, dim) for t in (
        ["1"] if diffusion_exprs is None else diffusion_exprs)]
    drift = _block_function(b_parts, dim)
    q_block = _block_function(q_parts, dim)
    eye = np.eye(dim)
    if len(q_parts) == 1:
        def diffusion(points: np.ndarray) -> np.ndarray:
            return q_block(points)[:, :, None] * eye
    elif len(q_parts) == dim:
        def diffusion(points: np.ndarray) -> np.ndarray:
            out = np.zeros((points.shape[0], dim, dim))
            # every (dim + 1)-th entry of a row-major matrix: its diagonal
            out.reshape(-1, dim * dim)[:, ::dim + 1] = q_block(points)
            return out
    elif len(q_parts) == dim * dim:
        def diffusion(points: np.ndarray) -> np.ndarray:
            out = q_block(points).reshape(-1, dim, dim)
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

    form = "constant" if all(p.is_constant for p in q_parts) else \
        "diagonal" if len(q_parts) in (1, dim) else "full"
    note = None
    if any(p.uses_abs for p in b_parts + q_parts):
        note = ("coefficients use |.| and are treated as continuous only; "
                "simulator strong-solution accuracy is unquantified")
    _probe_drift(drift, dim)
    return CoefficientField(
        dim=dim,
        drift=drift,
        diffusion=diffusion,
        label=label,
        diffusion_form=form,
        smoothness_note=note,
    )


# --------------------------------------------------------------------------
# ellipticity estimation

def _deterministic_lattice(dim: int, radius: float) -> np.ndarray:
    """Seed-free probe points in the ball: origin + grid or axis lines."""
    k = int(round(4096 ** (1.0 / dim)))
    if k % 2 == 0:
        k -= 1
    if not (k >= 3 and k ** dim <= 8192):
        return _probe_lines(dim, radius, 33)
    axes = (np.linspace(-radius, radius, k),) * dim
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    grid = grid.reshape(-1, dim)
    inside = np.linalg.norm(grid, axis=1) <= radius + 1e-12
    return np.concatenate([np.zeros((1, dim)), grid[inside]], axis=0)


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
        with np.errstate(all="ignore"):  # a non-finite value raises below
            q = np.asarray(field.diffusion(points), dtype=float)
        if q.shape != (points.shape[0], field.dim, field.dim):
            raise CoefficientEvaluationError(
                f"diffusion of field {field.label!r} returned bad values "
                "during ellipticity sampling")
        bad = ~np.isfinite(q).all(axis=(1, 2))
        if bad.any():
            raise CoefficientEvaluationError(
                f"diffusion of field {field.label!r} is non-finite at x = "
                f"{points[np.flatnonzero(bad)[0]].tolist()}")
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
