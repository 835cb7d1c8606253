"""Run configuration: a flat, dotted-key text format and its dataclass.

Grammar (one entry per line)::

    # comment (full line or trailing)
    key.subkey = value

Values are typed per key: integers, reals, booleans (``true``/``false``),
``none`` for optional entries, comma-separated reals for vectors, and
strings.  Strings containing spaces or '#' must be double-quoted;
multiple expressions inside one string are separated by ';'.  No string
may hold a double quote or a line break.  The emitter writes keys in a
fixed canonical order with round-trippable value formatting, so
``parse_config(emit_config(cfg)) == cfg`` exactly.

Each knob is declared once, on its RunConfig field: config key, value
kind, command-line flag and on/off switches, and its range check.  The
parser, the emitter and the command-line front end all read that table.

The seed is mandatory: there is no wall-clock fallback anywhere, a
config without an explicit seed is rejected.

RunConfig is also what the library takes: evaluate_liouville_criterion,
simulate_coupling, simulate_pair_trajectory and martingale_check read
their knobs from it, the pair simulators their start points too, so a bad
value or a contradictory pair of values is a ConfigError when the config
is built, whichever front end built it.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field, fields
from typing import Dict, Optional, Tuple

from .errors import ConfigError

_CONSISTENT_DEFAULT_FIELD = "log_example"
#: the Euler step of a coupling run unless one is given (coupling.dt)
DEFAULT_DT = 1e-2
#: the most Euler steps one coupling run may take
STEP_CAP = 10_000_000
#: the smallest radius of the modulus grid; radii.min must lie above it
MODULUS_S_MIN = 1e-6

_POSITIVE = (lambda v: v > 0, "must be positive")
_POSITIVE_FINITE = (lambda v: v is None or (v > 0 and math.isfinite(v)),
                    "must be positive and finite")


def _knob(key: str, kind: str, flag: Optional[str] = None, *,
          default=MISSING, switches: Tuple[Tuple[str, str], ...] = (),
          check=None, resets: Optional[str] = None):
    """A RunConfig field with its config ``key``, value ``kind``, value
    ``flag``, on/off ``switches`` as (flag, value) pairs and range
    ``check`` as (predicate, phrase).  A ``resets`` key is cleared when
    this knob's flag is given without that key's own flag."""
    return field(default=default, metadata={
        "key": key, "kind": kind, "flag": flag, "switches": switches,
        "check": check, "resets": resets})


@dataclass(frozen=True)
class RunConfig:
    """Everything a pipeline run depends on, in one frozen record."""

    seed: int = _knob("seed", "int", "--seed")
    field_name: str = _knob("field.name", "str", "--field",
                            default=_CONSISTENT_DEFAULT_FIELD,
                            resets="field.params")
    field_dim: int = _knob("field.dim", "int", "--dim", default=1, check=(
        lambda v: v >= 1, "must be a positive integer"))
    field_params: Tuple[float, ...] = _knob("field.params", "floats",
                                            "--params", default=(0.25,))
    field_drift: Optional[Tuple[str, ...]] = _knob(
        "field.drift", "opt_strs", "--drift", default=None, check=(
            lambda v: v is None or len(v) > 0, "must not be empty when given"))
    field_diffusion: Optional[Tuple[str, ...]] = _knob(
        "field.diffusion", "opt_strs", "--diffusion", default=None)
    window_radius: float = _knob("window.radius", "float", "--window-radius",
                                 default=100.0, check=_POSITIVE_FINITE)
    radii_min: float = _knob("radii.min", "float", "--radii-min", default=1.0)
    radii_max: float = _knob("radii.max", "float", "--radii-max", default=1e5)
    radii_points: int = _knob(
        "radii.points", "int", "--radii-points", default=48, check=(
            lambda v: v >= 10, "must be at least 10 (the dispersion tail "
                               "estimate needs a usable tail)"))
    n_pairs: int = _knob("dispersion.pairs", "int", "--pairs", default=32,
                         check=_POSITIVE)
    ellipticity_samples: int = _knob(
        "ellipticity.samples", "int", "--ellipticity-samples", default=20000,
        check=_POSITIVE)
    modulus_points: int = _knob("modulus.points", "int", "--modulus-points",
                                default=48, check=(lambda v: v >= 4,
                                                   "must be at least 4"))
    modulus_pairs: int = _knob("modulus.pairs", "int", "--modulus-pairs",
                               default=16, check=_POSITIVE)
    oracle_enabled: bool = _knob("oracle.enabled", "bool", default=False,
                                 switches=(("--oracle", "true"),
                                           ("--no-oracle", "false")))
    oracle_x_max: float = _knob("oracle.x_max", "float", "--oracle-x-max",
                                default=1e6, check=(
                                    lambda v: 1e-2 < v < math.inf,
                                    "must be finite and above 0.01"))
    coupling_enabled: bool = _knob("coupling.enabled", "bool", default=False,
                                   switches=(("--couple", "true"),
                                             ("--no-couple", "false")))
    # None = derive from the run
    coupling_mu: Optional[float] = _knob("coupling.mu", "opt_float", "--mu",
                                         default=None,
                                         check=_POSITIVE_FINITE)
    coupling_t_max: float = _knob(
        "coupling.t_max", "float", "--t-max", default=10.0, check=(
            lambda v: 0 <= v < math.inf, "must be finite and nonnegative"))
    coupling_dt: float = _knob("coupling.dt", "float", "--dt",
                               default=DEFAULT_DT, check=_POSITIVE_FINITE)
    n_paths: int = _knob("coupling.n_paths", "int", "--n-paths",
                         default=1000, check=_POSITIVE)
    coupling_couple_radius: float = _knob(
        "coupling.couple_radius", "float", "--couple-radius", default=1e-3,
        check=_POSITIVE_FINITE)
    coupling_escape_radius: Optional[float] = _knob(
        "coupling.escape_radius", "opt_float", "--coupling-escape-radius",
        default=None, check=_POSITIVE_FINITE)
    coupling_x0: Optional[Tuple[float, ...]] = _knob(
        "coupling.x0", "opt_floats", "--x0", default=None)
    coupling_y0: Optional[Tuple[float, ...]] = _knob(
        "coupling.y0", "opt_floats", "--y0", default=None)
    coupling_count_escaped: bool = _knob(
        "coupling.count_escaped", "bool", default=False,
        switches=(("--count-escaped", "true"),))
    output_dir: str = _knob("output.dir", "str", "--output",
                            default="liouville-out")

    def __post_init__(self) -> None:
        for f in fields(self):
            key, kind = f.metadata["key"], f.metadata["kind"]
            value = getattr(self, f.name)
            if kind == "int" and not _is_integer(value):
                raise ConfigError(f"{key} must be an integer")
            if f.metadata["check"] is not None:
                holds, phrase = f.metadata["check"]
                if not holds(value):
                    raise ConfigError(f"{key} {phrase}")
            texts = [value] if kind == "str" else \
                list(value or ()) if kind == "opt_strs" else []
            if not all(_fits_one_line(s) for s in texts):
                raise ConfigError(f"{key} must not contain double quotes "
                                  "or line breaks")
        if not (MODULUS_S_MIN < self.radii_min < self.radii_max):
            raise ConfigError("radii.min must lie above the modulus floor "
                              f"{MODULUS_S_MIN:g} and below radii.max")
        # a pair's points are m +- (s/2) e with the midpoint m in the
        # window; past this radius m is rounded away
        if math.ulp(self.radii_max / 2) > 1e-6 * self.window_radius:
            raise ConfigError("radii.max is too large for window.radius: "
                              "ulp(radii.max / 2) exceeds 1e-6 * "
                              "window.radius and midpoints round away")
        if (self.coupling_x0 is None) != (self.coupling_y0 is None):
            raise ConfigError("coupling.x0 and coupling.y0 must be given "
                              "together")
        x0, y0 = self.endpoints(dim=1)  # zeros past x1 add no distance
        if self.coupling_x0 is not None \
                and not len(x0) == len(y0) == self.field_dim:
            raise ConfigError("coupling.x0 and coupling.y0 must each have "
                              "field.dim entries")
        if not all(map(math.isfinite, (*x0, *y0))):
            raise ConfigError("coupling.x0 and coupling.y0 must be finite")
        if not math.dist(x0, y0) > self.coupling_couple_radius:
            raise ConfigError("coupling.x0 and coupling.y0 must start "
                              "farther apart than coupling.couple_radius")
        if self.coupling_t_max > 0 and self.coupling_dt > self.coupling_t_max:
            raise ConfigError("coupling.dt must not exceed coupling.t_max")
        if self.coupling_t_max / self.coupling_dt > STEP_CAP:
            raise ConfigError("coupling.t_max/coupling.dt exceeds the "
                              f"{STEP_CAP} step cap")
        if not whole_steps(self.coupling_t_max, self.coupling_dt):
            raise ConfigError("coupling.t_max must be a whole number of "
                              "coupling.dt steps")
        if self.coupling_escape_radius is not None \
                and self.coupling_escape_radius <= self.coupling_couple_radius:
            raise ConfigError("coupling.escape_radius must exceed "
                              "coupling.couple_radius")

    def n_steps(self) -> int:
        """The Euler steps of a coupling run, coupling.t_max/coupling.dt."""
        return round(self.coupling_t_max / self.coupling_dt)

    def endpoints(self, dim: Optional[int] = None) -> Tuple[tuple, tuple]:
        """The coupled pair's start points: coupling.x0 and coupling.y0, or
        else (+-0.5, 0, ...) in ``dim`` dimensions, field.dim by default."""
        if self.coupling_x0 is not None:
            return self.coupling_x0, self.coupling_y0
        rest = (0.0,) * (int(dim or self.field_dim) - 1)
        return (0.5,) + rest, (-0.5,) + rest


def _is_integer(v) -> bool:
    """Whether v is a whole number, as the text format can hold it."""
    try:
        return int(v) == v
    except (TypeError, ValueError, OverflowError):  # None, NaN, inf
        return False


def whole_steps(t: float, dt: float) -> bool:
    """Whether t is a whole number of dt steps, to 1e-9 relative."""
    steps = t / dt
    return abs(steps - round(steps)) <= 1e-9 * steps


def _fits_one_line(s: str) -> bool:
    """Whether a quoted string value survives one config line."""
    return '"' not in s and s.splitlines() in ([], [s])


_FIELDS = {f.metadata["key"]: f for f in fields(RunConfig)}


def _parse_value(key: str, kind: str, raw: str):
    raw = raw.strip()
    if kind.startswith("opt_"):
        if raw == "none":
            return None
        kind = kind[len("opt_"):]
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "bool" and raw in ("true", "false"):
            return raw == "true"
        if kind == "floats":
            return tuple(float(p) for p in raw.split(",")) if raw else ()
        if kind == "str":
            return raw
        if kind == "strs":
            return tuple(p.strip() for p in raw.split(";"))
    except ValueError:
        pass
    raise ConfigError(f"bad value for {key}: {raw!r}")


def _split_line(line: str, lineno: int) -> Optional[Tuple[str, str]]:
    stripped = line.strip()
    if not stripped or stripped.startswith("#"):
        return None
    if "=" not in stripped:
        raise ConfigError(f"line {lineno}: expected 'key = value'")
    key, _, rest = stripped.partition("=")
    key = key.strip()
    rest = rest.strip()
    if rest.startswith('"'):
        end = rest.find('"', 1)
        if end < 0:
            raise ConfigError(f"line {lineno}: unterminated string")
        tail = rest[end + 1:].strip()
        if tail and not tail.startswith("#"):
            raise ConfigError(f"line {lineno}: trailing junk after string")
        value = rest[1:end]
    else:
        value = rest.split("#", 1)[0].strip()
    return key, value


def config_entries(text: str) -> Dict[str, str]:
    """The raw string entries of a config text, keyed by config key."""
    entries: Dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        kv = _split_line(line, lineno)
        if kv is None:
            continue
        key, value = kv
        if key not in _FIELDS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in entries:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        entries[key] = value
    return entries


def parse_config(text: str) -> RunConfig:
    """Parse the flat key-value format into a validated RunConfig."""
    return config_from_entries(config_entries(text))


def config_from_entries(entries: Dict[str, str]) -> RunConfig:
    """Build a RunConfig from raw string entries (config file and/or
    command-line overrides, already merged — overrides win upstream)."""
    kwargs = {}
    for key, raw in entries.items():
        if key not in _FIELDS:
            raise ConfigError(f"unknown config key {key!r}")
        f = _FIELDS[key]
        kwargs[f.name] = _parse_value(key, f.metadata["kind"], raw)
    if "seed" not in kwargs:
        raise ConfigError("seed is mandatory (set 'seed = <integer>'; "
                          "there is no wall-clock default)")
    return RunConfig(**kwargs)


def _format_value(kind: str, value) -> str:
    if value is None:
        return "none"
    kind = kind[len("opt_"):] if kind.startswith("opt_") else kind
    if kind == "int":
        return str(int(value))
    if kind == "float":
        return repr(float(value))
    if kind == "bool":
        return "true" if value else "false"
    if kind == "floats":
        return ", ".join(repr(float(v)) for v in value)
    s = value if kind == "str" else "; ".join(value)
    if s == "" or s != s.split("#")[0].strip() or s == "none" \
            or any(c.isspace() for c in s):
        return f'"{s}"'
    return s


def emit_config(cfg: RunConfig) -> str:
    """Canonical text form; parse_config(emit_config(cfg)) == cfg."""
    lines = ["# liouville-lab run configuration"]
    for f in fields(RunConfig):
        value = _format_value(f.metadata["kind"], getattr(cfg, f.name))
        lines.append(f"{f.metadata['key']} = {value}")
    return "\n".join(lines) + "\n"
