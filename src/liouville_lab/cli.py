"""Command-line front end.

Subcommands::

    liouville-lab catalogue                      list built-in fields
    liouville-lab criterion  --seed 0 [...]      decision pipeline only
    liouville-lab harmonic1d --seed 0 [...]      1D oracle only
    liouville-lab couple     --seed 0 [...]      coupling experiment only
    liouville-lab full       --seed 0 [...]      pipeline + oracle + coupling

Every subcommand but ``catalogue`` builds its config and hands it to
``report.run`` with the stages it needs; this module only prints the
result and chooses what to write.

Every option mirrors a config-file key (see ``config.RunConfig``);
``--config FILE`` loads the flat key-value format first, explicitly given
flags win on conflict, and keys neither sets get the subcommand's
defaults: ``criterion`` runs neither the oracle nor the coupling, ``full``
runs the oracle when d = 1 and the coupling.

Exit codes: 0 success; 2 configuration/usage errors; 3 numerical
failures (stderr names the failing stage); 4 a Contradiction verdict
(criterion guaranteed while the oracle found a bounded nonconstant
harmonic function — emitted to disk first, then flagged).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional

from .coefficients import CATALOGUE
from .config import RunConfig, config_entries, config_from_entries
from .errors import CatalogueError, ConfigError, LiouvilleLabError
from .report import (CONTRADICTION, VerdictBundle, coupling_summary, emit,
                     run)
# unused here; bench/layers.py wraps these names on this module
from .coefficients import estimate_ellipticity  # noqa: F401
from .coupling_sim import simulate_coupling  # noqa: F401
from .report import build_field  # noqa: F401

#: the oracle's Liouville verdict (True, False or None) in words
_VERDICT_WORDS = {True: "holds", False: "fails", None: "undecided"}


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="FILE",
                        help="flat key-value config file; explicit flags "
                             "override its entries")
    for f in dataclasses.fields(RunConfig):
        key, flag = f.metadata["key"], f.metadata["flag"]
        if flag is not None:
            parser.add_argument(flag, dest=f.name, default=argparse.SUPPRESS,
                                metavar="V", help=f"sets {key}")
        for switch, value in f.metadata["switches"]:
            parser.add_argument(switch, dest=f.name, action="store_const",
                                const=value, default=argparse.SUPPRESS,
                                help=f"sets {key} = {value}")


def _entries(args: argparse.Namespace) -> Dict[str, str]:
    """The config file's entries, overridden by the flags given."""
    entries: Dict[str, str] = {}
    if args.config:
        entries = config_entries(Path(args.config).read_text(encoding="utf-8"))
        config_from_entries(entries)  # the file must be a config by itself
    given = [f for f in dataclasses.fields(RunConfig) if hasattr(args, f.name)]
    flags = {f.metadata["key"]: getattr(args, f.name) for f in given}
    for f in given:
        # picking a field by flag drops the file's params for the old one
        if f.metadata["resets"] is not None:
            flags.setdefault(f.metadata["resets"], "")
    return {**entries, **flags}


def _writes_files(args: argparse.Namespace) -> bool:
    """harmonic1d and couple write files only given --output or --config."""
    return hasattr(args, "output_dir") or bool(args.config)


def _print_written(paths: List[Path]) -> None:
    print("wrote: " + ", ".join(str(p) for p in paths))


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
        print("oracle (1D exact): Liouville property "
              f"{_VERDICT_WORDS[bundle.oracle_verdict]}")
        if bundle.oracle_note:
            print(f"  note: {bundle.oracle_note}")
    if bundle.coupling is not None:
        st = bundle.coupling
        print(f"coupling: p = {st.p_couple:.4f} +- {st.ci_halfwidth:.4f} "
              "(bridge-corrected)")
        print(f"  grid hits: {st.n_coupled}/{st.n_paths} (p_discrete = "
              f"{st.p_discrete:.4f}), {st.n_escaped} escaped")
    print(f"consistency: {bundle.consistency}")


def _cmd_catalogue(_args: argparse.Namespace) -> int:
    print("built-in coefficient fields:")
    for name, entry in sorted(CATALOGUE.items()):
        lo, hi = list(entry.params.values()).count(None), len(entry.params)
        if hi == 0:
            params = "no params"
        elif lo == hi:
            params = f"{hi} param(s)"
        else:
            params = f"{lo}-{hi} params"
        print(f"  {name:16s} [{params}] {entry.description}")
    return 0


def _emit_bundle(cfg: RunConfig) -> VerdictBundle:
    bundle = run(cfg)
    paths = emit(bundle, cfg.output_dir)
    _print_bundle_summary(bundle)
    _print_written(paths)
    return bundle


def _cmd_criterion(args: argparse.Namespace) -> int:
    _emit_bundle(config_from_entries({**_entries(args),
                                      "oracle.enabled": "false",
                                      "coupling.enabled": "false"}))
    return 0


def _cmd_full(args: argparse.Namespace) -> int:
    entries = _entries(args)
    cfg = config_from_entries({"coupling.enabled": "true", **entries})
    if "oracle.enabled" not in entries:
        cfg = dataclasses.replace(cfg, oracle_enabled=cfg.field_dim == 1)
    if _emit_bundle(cfg).consistency == CONTRADICTION:
        print("error in stage consistency: criterion guarantees the "
              "Liouville property but the oracle found a bounded "
              "nonconstant harmonic function", file=sys.stderr)
        return 4
    return 0


def _cmd_harmonic1d(args: argparse.Namespace) -> int:
    cfg = config_from_entries(_entries(args))
    bundle = run(cfg, {"oracle"})
    profile = bundle.oracle_profile
    print(f"field: {profile.label}")
    print(f"Liouville property: {_VERDICT_WORDS[profile.liouville_holds]}")
    print(f"  bounded right/left: {profile.bounded_right} / "
          f"{profile.bounded_left}")
    print(f"  limits: u(+inf) = {profile.u_plus_limit:.6g}, "
          f"u(-inf) = {profile.u_minus_limit:.6g}")
    for note in profile.notes:
        print(f"  note: {note}")
    if _writes_files(args):
        _print_written(emit(bundle, cfg.output_dir))
    return 0


def _cmd_couple(args: argparse.Namespace) -> int:
    cfg = config_from_entries(_entries(args))
    writes = _writes_files(args)
    # the summary is printed before the trajectory runs, so a blow-up
    # there keeps it
    bundle = run(cfg, {"coupling", "trajectory"} if writes else {"coupling"},
                 on_coupling=lambda stats, params: print(json.dumps(
                     coupling_summary(stats, params), sort_keys=True,
                     indent=2)))
    if writes:
        _print_written(emit(bundle, cfg.output_dir))
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
