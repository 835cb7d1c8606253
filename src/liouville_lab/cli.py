"""Command-line front end.

Subcommands::

    liouville-lab catalogue                      list built-in fields
    liouville-lab criterion  --seed 0 [...]      decision pipeline only
    liouville-lab harmonic1d --seed 0 [...]      1D oracle only
    liouville-lab couple     --seed 0 [...]      coupling experiment only
    liouville-lab full       --seed 0 [...]      pipeline + oracle + coupling

Every option mirrors a config-file key; ``--config FILE`` loads the flat
key-value format first and explicitly given flags win on conflict.

Exit codes: 0 success; 2 configuration/usage errors; 3 numerical
failures (stderr names the failing stage); 4 a Contradiction verdict
(criterion guaranteed while the oracle found a bounded nonconstant
harmonic function — emitted to disk first, then flagged).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Dict, List, Optional

from . import report as report_mod
from .coefficients import CATALOGUE, estimate_ellipticity
from .config import RunConfig, config_from_entries, parse_config
from .coupling_sim import CouplingConfig, simulate_coupling, \
    simulate_pair_trajectory
from .errors import CatalogueError, ConfigError, LiouvilleLabError
from .harmonic_oracle import harmonic_1d
from .report import (CONTRADICTION, VerdictBundle, annotate_stage,
                     build_field, emit, run)

_THREADS_ENV = "LIOUVILLE_LAB_THREADS"

# option name -> (config key, value kind for canonical string form)
_OPTIONS = {
    "--field": ("field.name", "value"),
    "--dim": ("field.dim", "value"),
    "--params": ("field.params", "value"),
    "--drift": ("field.drift", "value"),
    "--diffusion": ("field.diffusion", "value"),
    "--window-radius": ("window.radius", "value"),
    "--radii-min": ("radii.min", "value"),
    "--radii-max": ("radii.max", "value"),
    "--radii-points": ("radii.points", "value"),
    "--pairs": ("dispersion.pairs", "value"),
    "--tail-fraction": ("dispersion.tail_fraction", "value"),
    "--ellipticity-samples": ("ellipticity.samples", "value"),
    "--mu-grid": ("mu.grid", "value"),
    "--modulus-points": ("modulus.points", "value"),
    "--modulus-pairs": ("modulus.pairs", "value"),
    "--modulus-s-min": ("modulus.s_min", "value"),
    "--escape-r-max": ("escape.r_max", "value"),
    "--oracle-x-max": ("oracle.x_max", "value"),
    "--oracle-tol": ("oracle.tol", "value"),
    "--mu": ("coupling.mu", "value"),
    "--t-max": ("coupling.t_max", "value"),
    "--dt": ("coupling.dt", "value"),
    "--n-paths": ("coupling.n_paths", "value"),
    "--couple-radius": ("coupling.couple_radius", "value"),
    "--coupling-escape-radius": ("coupling.escape_radius", "value"),
    "--x0": ("coupling.x0", "value"),
    "--y0": ("coupling.y0", "value"),
    "--seed": ("seed", "value"),
    "--threads": ("threads", "value"),
    "--output": ("output.dir", "value"),
}
_FLAG_OPTIONS = {
    "--linear-radii": ("radii.log", "false"),
    "--count-escaped": ("coupling.count_escaped", "true"),
    "--oracle": ("oracle.enabled", "true"),
    "--no-oracle": ("oracle.enabled", "false"),
    "--couple": ("coupling.enabled", "true"),
    "--no-couple": ("coupling.enabled", "false"),
}


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="FILE",
                        help="flat key-value config file; explicit flags "
                             "override its entries")
    for opt, (key, _) in _OPTIONS.items():
        parser.add_argument(opt, dest=key.replace(".", "__"),
                            default=argparse.SUPPRESS, metavar="V",
                            help=f"sets {key}")
    for opt, (key, value) in _FLAG_OPTIONS.items():
        parser.add_argument(opt, dest=key.replace(".", "__") + "__" + value,
                            default=argparse.SUPPRESS, action="store_true",
                            help=f"sets {key} = {value}")


def _entries_from_args(args: argparse.Namespace) -> Dict[str, str]:
    entries: Dict[str, str] = {}
    if getattr(args, "config", None):
        text = Path(args.config).read_text(encoding="utf-8")
        file_cfg = parse_config(text)  # validates keys and the seed
        from .config import _ATTR_TO_KEY, _KEYS, _format_value
        for attr, key in _ATTR_TO_KEY.items():
            entries[key] = _format_value(_KEYS[key][1],
                                         getattr(file_cfg, attr))
            if entries[key].startswith('"'):
                entries[key] = entries[key][1:-1]
    flag_entries: Dict[str, str] = {}
    for name, value in vars(args).items():
        if name in ("config", "command") or value is argparse.SUPPRESS:
            continue
        parts = name.split("__")
        if len(parts) == 2:
            flag_entries[".".join(parts) if parts[1] else parts[0]] = \
                str(value)
        elif len(parts) == 3 and value is True:
            flag_entries[f"{parts[0]}.{parts[1]}"] = parts[2]
        elif len(parts) == 1 and name in ("seed", "threads"):
            flag_entries[name] = str(value)
    # picking a field by flag resets stale params unless also given
    if "field.name" in flag_entries and "field.params" not in flag_entries:
        flag_entries["field.params"] = ""
    entries.update(flag_entries)
    return entries


def _build_config(args: argparse.Namespace,
                  forced: Optional[Dict[str, str]] = None) -> RunConfig:
    entries = _entries_from_args(args)
    if forced:
        entries.update(forced)
    cfg = config_from_entries(entries)
    env = os.environ.get(_THREADS_ENV)
    if env is not None:
        try:
            cap = int(env)
        except ValueError:
            raise ConfigError(f"{_THREADS_ENV} must be an integer")
        if cap < 1:
            raise ConfigError(f"{_THREADS_ENV} must be >= 1")
        if cfg.threads > cap:
            cfg = RunConfig(**{**cfg.__dict__, "threads": cap})
    return cfg


def _print_bundle_summary(bundle: VerdictBundle) -> None:
    rep = bundle.criterion
    print(f"field: {rep.field_label} (d = {rep.dim})")
    print(f"criterion verdict: {rep.verdict}")
    print(f"  kappa_inf = {rep.kappa_inf:.6g}  threshold = "
          f"{rep.threshold:.6g}  (window radius {rep.dispersion.window_radius:g})")
    if rep.constants is not None:
        c = rep.constants
        print(f"  constants: mu = {c.mu:.6g}, s0 = {c.s0:.6g}, "
              f"s1 = {c.s1:.6g}, s2 = {c.s2:.6g}")
    if rep.escape is not None:
        print(f"  escape integral divergent: {rep.escape.divergent}")
    for line in rep.diagnostics:
        print(f"  note: {line}")
    if bundle.oracle_verdict is not None or bundle.oracle_note is not None:
        verdict = {True: "holds", False: "fails", None: "undecided"}[
            bundle.oracle_verdict]
        print(f"oracle (1D exact): Liouville property {verdict}")
        if bundle.oracle_note:
            print(f"  note: {bundle.oracle_note}")
    if bundle.coupling is not None:
        st = bundle.coupling
        print(f"coupling: p = {st.p_couple:.4f} +- {st.ci_halfwidth:.4f} "
              f"({st.n_coupled}/{st.n_paths} coupled, "
              f"{st.n_escaped} escaped)")
    print(f"consistency: {bundle.consistency}")


def _cmd_catalogue(_args: argparse.Namespace) -> int:
    print("built-in coefficient fields:")
    for name in sorted(CATALOGUE):
        lo, hi, desc = CATALOGUE[name]
        if hi == 0:
            params = "no params"
        elif lo == hi:
            params = f"{hi} param(s)"
        else:
            params = f"{lo}-{hi} params"
        print(f"  {name:16s} [{params}] {desc}")
    return 0


def _cmd_criterion(args: argparse.Namespace) -> int:
    cfg = _build_config(args, forced={"oracle.enabled": "false",
                                      "coupling.enabled": "false"})
    bundle = run(cfg)
    paths = emit(bundle, cfg.output_dir)
    _print_bundle_summary(bundle)
    print("wrote: " + ", ".join(str(p) for p in paths))
    return 0


def _cmd_full(args: argparse.Namespace) -> int:
    entries = _entries_from_args(args)
    if "oracle.enabled" not in entries:
        dim = int(entries.get("field.dim", "1"))
        entries["oracle.enabled"] = "true" if dim == 1 else "false"
    if "coupling.enabled" not in entries:
        entries["coupling.enabled"] = "true"
    cfg = config_from_entries(entries)
    bundle = run(cfg)
    paths = emit(bundle, cfg.output_dir)
    _print_bundle_summary(bundle)
    print("wrote: " + ", ".join(str(p) for p in paths))
    if bundle.consistency == CONTRADICTION:
        print("error in stage consistency: criterion guarantees the "
              "Liouville property but the oracle found a bounded "
              "nonconstant harmonic function", file=sys.stderr)
        return 4
    return 0


def _cmd_harmonic1d(args: argparse.Namespace) -> int:
    cfg = _build_config(args)
    with annotate_stage("field"):
        field = build_field(cfg)
    if field.dim != 1:
        raise ConfigError("harmonic1d requires a one-dimensional field")
    with annotate_stage("oracle"):
        profile = harmonic_1d(field, x_max=cfg.oracle_x_max,
                              tol=cfg.oracle_tol)
    verdict = {True: "holds", False: "fails", None: "undecided"}[
        profile.liouville_holds]
    print(f"field: {profile.label}")
    print(f"Liouville property: {verdict}")
    print(f"  bounded right/left: {profile.bounded_right} / "
          f"{profile.bounded_left}")
    print(f"  limits: u(+inf) = {profile.u_plus_limit:.6g}, "
          f"u(-inf) = {profile.u_minus_limit:.6g}")
    for note in profile.notes:
        print(f"  note: {note}")
    if getattr(args, "output__dir", None) is not None \
            or getattr(args, "config", None):
        out = Path(cfg.output_dir)
        out.mkdir(parents=True, exist_ok=True)
        from .report import _csv_text
        path = out / "profile.csv"
        path.write_text(_csv_text(["x", "u", "du"],
                                  [profile.x, profile.u, profile.du]),
                        encoding="utf-8")
        print(f"wrote: {path}")
    return 0


def _cmd_couple(args: argparse.Namespace) -> int:
    cfg = _build_config(args)
    with annotate_stage("field"):
        field = build_field(cfg)
    bounds = estimate_ellipticity(field, cfg.window_radius,
                                  cfg.ellipticity_samples, cfg.seed)
    mu = cfg.coupling_mu if cfg.coupling_mu is not None \
        else 0.5 * bounds.lambda0
    x0, y0 = cfg.coupling_x0, cfg.coupling_y0
    if x0 is None or y0 is None:
        x0, y0 = report_mod._default_endpoints(field.dim)
    if len(x0) != field.dim or len(y0) != field.dim:
        raise ConfigError("coupling.x0/y0 length must equal field.dim")
    try:
        with annotate_stage("coupling"):
            ccfg = CouplingConfig(
                mu=mu, t_max=cfg.coupling_t_max,
                n_paths=cfg.coupling_n_paths, dt=cfg.coupling_dt,
                couple_radius=cfg.coupling_couple_radius,
                escape_radius=cfg.coupling_escape_radius, seed=cfg.seed,
                count_escaped_as_coupled=cfg.coupling_count_escaped)
            stats = simulate_coupling(field, bounds, ccfg, x0, y0)
    except ValueError as exc:
        raise ConfigError(f"coupling setup: {exc}") from exc
    doc = {
        "n_paths": stats.n_paths, "n_coupled": stats.n_coupled,
        "n_escaped": stats.n_escaped,
        "p_couple": stats.p_couple, "ci_halfwidth": stats.ci_halfwidth,
        "coupling_time_quantiles": report_mod._reals(
            stats.coupling_time_quantiles),
        "mu": mu, "t_max": ccfg.t_max, "dt": ccfg.dt,
    }
    print(json.dumps(doc, sort_keys=True, indent=2))
    if getattr(args, "output__dir", None) is not None \
            or getattr(args, "config", None):
        out = Path(cfg.output_dir)
        out.mkdir(parents=True, exist_ok=True)
        stride = max(1, ccfg.n_steps() // 1000)
        with annotate_stage("coupling"):
            t, X, Y, dist = simulate_pair_trajectory(field, bounds, ccfg,
                                                     x0, y0, stride=stride)
        from .report import _csv_text
        dim = X.shape[1]
        header = (["t"] + [f"x{i+1}" for i in range(dim)]
                  + [f"y{i+1}" for i in range(dim)] + ["dist"])
        cols = [t] + [X[:, i] for i in range(dim)] \
            + [Y[:, i] for i in range(dim)] + [dist]
        path = out / "coupling.csv"
        path.write_text(_csv_text(header, cols), encoding="utf-8")
        print(f"wrote: {path}")
    return 0


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liouville-lab",
        description="Numerical laboratory for a Liouville-property "
                    "criterion for second-order elliptic operators")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
            ("criterion", "run the decision pipeline and emit reports"),
            ("harmonic1d", "construct the exact 1D harmonic profile"),
            ("couple", "run the reflection-coupling experiment"),
            ("full", "pipeline plus oracle and coupling cross-checks")):
        p = sub.add_parser(name, help=helptext)
        _add_common(p)
    sub.add_parser("catalogue", help="list built-in coefficient fields")
    return parser


_DISPATCH = {
    "catalogue": _cmd_catalogue,
    "criterion": _cmd_criterion,
    "harmonic1d": _cmd_harmonic1d,
    "couple": _cmd_couple,
    "full": _cmd_full,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = _make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_err:
        return int(exit_err.code) if exit_err.code else 0
    try:
        return _DISPATCH[args.command](args)
    except (ConfigError, CatalogueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except LiouvilleLabError as exc:
        stage = getattr(exc, "stage", type(exc).__name__)
        print(f"error in stage {stage}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
