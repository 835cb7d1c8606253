"""Pipeline orchestration and artifact emission.

run() is the one path from a RunConfig to results for every subcommand:
it builds the field and runs a chosen set of stages on it (the decision
pipeline, the 1D oracle, the coupling experiment and its recorded
trajectory), then grades the combination:

* ``Consistent`` — verdicts agree, or nothing contradicts: an
  Inconclusive criterion next to a false oracle verdict is the expected
  shape (the sufficient condition correctly stayed silent), and a
  missing/undecided oracle cannot contradict anything.
* ``CriterionConservative`` — criterion Inconclusive but the oracle
  proves the Liouville property holds: the sufficient condition simply
  did not fire.
* ``Contradiction`` — criterion LiouvilleGuaranteed while the oracle
  exhibits a bounded nonconstant harmonic function.  This can only mean
  an implementation bug (not a counterexample to anything) and the CLI
  turns it into a dedicated nonzero exit code.

emit() writes report.json plus CSV curves.  The JSON document is fully
deterministic: stable key order, no timestamps, non-finite reals encoded
as strings, and a versioned integer schema that readers must check.
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path
from typing import Callable, Collection, List, Optional, Tuple

import numpy as np

from .coefficients import (CoefficientField, field_from_expressions,
                           make_standard_fields)
from .config import RunConfig, emit_config
from .coupling_sim import (CouplingStats, simulate_coupling,
                           simulate_pair_trajectory)
from .criterion import (VERDICT_GUARANTEED, VERDICT_INCONCLUSIVE,
                        CriterionReport, evaluate_liouville_criterion,
                        run_ellipticity)
from .errors import ConfigError, NotApplicable, annotate_stage
from .harmonic_oracle import HarmonicProfile, harmonic_1d

SCHEMA_VERSION = 1
CONSISTENT = "Consistent"
CRITERION_CONSERVATIVE = "CriterionConservative"
CONTRADICTION = "Contradiction"


@dataclasses.dataclass(frozen=True)
class VerdictBundle:
    """Everything one run produced, ready for emission."""

    config: RunConfig
    criterion: Optional[CriterionReport]  # None unless the criterion ran
    oracle_profile: Optional[HarmonicProfile]
    oracle_verdict: Optional[bool]
    oracle_note: Optional[str]
    coupling: Optional[CouplingStats]
    coupling_params: Optional[RunConfig]  # config with the mu the run used
    coupling_trajectory: Optional[Tuple[np.ndarray, ...]]
    consistency: str


def build_field(cfg: RunConfig) -> CoefficientField:
    """Field from a RunConfig: expressions win over the catalogue name."""
    if cfg.field_drift is not None:
        return field_from_expressions(
            cfg.field_dim, list(cfg.field_drift),
            list(cfg.field_diffusion) if cfg.field_diffusion else None,
            label="custom")
    if cfg.field_diffusion is not None:
        raise ConfigError("field.diffusion given without field.drift")
    return make_standard_fields(cfg.field_name, cfg.field_dim,
                                cfg.field_params)


def _consistency(criterion_verdict: Optional[str],
                 oracle_verdict: Optional[bool]) -> str:
    if criterion_verdict == VERDICT_GUARANTEED and oracle_verdict is False:
        return CONTRADICTION
    if criterion_verdict == VERDICT_INCONCLUSIVE and oracle_verdict is True:
        return CRITERION_CONSERVATIVE
    return CONSISTENT


def run(cfg: RunConfig, stages: Optional[Collection[str]] = None, *,
        on_coupling: Optional[Callable] = None) -> VerdictBundle:
    """Build cfg's field and run the chosen ``stages`` on it, in the order
    criterion, oracle, coupling, trajectory; None runs the criterion, the
    oracle if oracle.enabled, and the coupling and trajectory if
    coupling.enabled.

    Ellipticity is estimated once, when the criterion or a coupling stage
    runs.  The coupling's mu is coupling.mu if set, otherwise the
    criterion's mu when it ran and guaranteed, otherwise 0.5 * lambda0.
    A NotApplicable oracle is a note next to a criterion and an error on
    its own.  ``on_coupling(stats, cfg with mu set)`` is called before
    the trajectory runs.
    """
    if stages is None:
        stages = {"criterion"} | ({"oracle"} if cfg.oracle_enabled else set())
        if cfg.coupling_enabled:
            stages |= {"coupling", "trajectory"}
    if not set(stages) <= {"criterion", "oracle", "coupling", "trajectory"}:
        raise ValueError(f"unknown stages in {sorted(stages)}")
    coupled = "coupling" in stages or "trajectory" in stages
    with annotate_stage("field"):
        field = build_field(cfg)
    if "oracle" in stages and field.dim != 1:
        raise ConfigError("the oracle requires a one-dimensional field")

    bounds = report = None
    if "criterion" in stages or coupled:
        bounds = run_ellipticity(field, cfg)
    if "criterion" in stages:
        with annotate_stage("criterion"):
            report = evaluate_liouville_criterion(field, cfg, bounds)

    oracle_profile = oracle_verdict = oracle_note = None
    if "oracle" in stages:
        try:
            with annotate_stage("oracle"):
                oracle_profile = harmonic_1d(field, x_max=cfg.oracle_x_max)
        except NotApplicable as exc:
            if report is None:
                raise
            oracle_note = f"oracle not applicable: {exc}"
        else:
            oracle_verdict = oracle_profile.liouville_holds
            if oracle_verdict is None:
                oracle_note = ("oracle classification withheld: "
                               + "; ".join(oracle_profile.notes))

    coupling_stats = coupling_params = trajectory = None
    if coupled:
        derived_mu = report.constants.mu if report and report.constants \
            else 0.5 * bounds.lambda0
        coupling_params = dataclasses.replace(
            cfg, coupling_mu=cfg.coupling_mu or derived_mu)
        with annotate_stage("coupling"):
            if "coupling" in stages:
                coupling_stats = simulate_coupling(field, bounds,
                                                   coupling_params)
                if on_coupling is not None:
                    on_coupling(coupling_stats, coupling_params)
            if "trajectory" in stages:
                trajectory = simulate_pair_trajectory(
                    field, bounds, coupling_params,
                    stride=max(1, coupling_params.n_steps() // 1000))

    return VerdictBundle(
        config=cfg, criterion=report,
        oracle_profile=oracle_profile, oracle_verdict=oracle_verdict,
        oracle_note=oracle_note,
        coupling=coupling_stats, coupling_params=coupling_params,
        coupling_trajectory=trajectory,
        consistency=_consistency(report and report.verdict,
                                 oracle_verdict))


def _real(x) -> object:
    """JSON-safe real: plain float, or a string for non-finite values."""
    v = float(x)
    if math.isnan(v):
        return "NaN"
    if math.isinf(v):
        return "Infinity" if v > 0 else "-Infinity"
    return v


def _reals(seq) -> list:
    return [_real(v) for v in seq]


def _report_doc(bundle: VerdictBundle) -> dict:
    rep = bundle.criterion
    doc: dict = {
        "schema_version": SCHEMA_VERSION,
        "consistency": bundle.consistency,
        "field": {"label": rep.field_label, "dim": rep.dim},
        "config_text": emit_config(bundle.config),
        "criterion": {
            "verdict": rep.verdict,
            "kappa_inf": _real(rep.kappa_inf),
            "threshold": _real(rep.threshold),
            "bounds": {
                "lambda0": _real(rep.bounds.lambda0),
                "Lambda0": _real(rep.bounds.Lambda0),
                "domain_radius": _real(rep.bounds.domain_radius),
                "n_samples": rep.bounds.n_samples,
            },
            "dispersion": {
                "method": rep.dispersion.method,
                "n_radii": int(rep.dispersion.radii.size),
                "n_pairs_per_radius": rep.dispersion.n_pairs_per_radius,
                "window_radius": _real(rep.dispersion.window_radius),
                "max_value": _real(np.max(rep.dispersion.values)),
            },
            "constants": None,
            "modulus": None,
            "escape": None,
            "diagnostics": list(rep.diagnostics),
        },
        "oracle": None,
        "coupling": None,
    }
    if rep.constants is not None:
        c = rep.constants
        doc["criterion"]["constants"] = {
            "mu": _real(c.mu), "s0": _real(c.s0), "s1": _real(c.s1),
            "s2": _real(c.s2), "lam": _real(c.lam),
        }
    if rep.modulus is not None:
        m = rep.modulus
        doc["criterion"]["modulus"] = {
            "lam": _real(m.lam),
            "n_points": int(m.radii.size),
            "dini_mass": _real(m.dini_mass),
            "head_exponent": None if m.head_exponent is None
            else _real(m.head_exponent),
            "head_coeff": _real(m.head_coeff),
            "head_mass": _real(m.head_mass),
            "total_mass": _real(m.total_mass),
            "dini_ok": bool(m.dini_ok),
            "notes": list(m.notes),
        }
    if rep.escape is not None:
        e = rep.escape
        doc["criterion"]["escape"] = {
            "divergent": bool(e.divergent),
            "partial_integral": _real(e.partial_integral),
            "prefactor": _real(e.prefactor),
            "tail_exponent": _real(e.tail_exponent),
        }
    if bundle.oracle_profile is not None or bundle.oracle_note is not None:
        prof = bundle.oracle_profile
        entry: dict = {
            "verdict": bundle.oracle_verdict,
            "note": bundle.oracle_note,
        }
        if prof is not None:
            entry.update({
                "bounded_right": prof.bounded_right,
                "bounded_left": prof.bounded_left,
                "sup_estimate": _real(prof.sup_estimate),
                "u_plus_limit": _real(prof.u_plus_limit),
                "u_minus_limit": _real(prof.u_minus_limit),
                "truncated_right": prof.truncated_right,
                "truncated_left": prof.truncated_left,
                "tail_fit_right": None if prof.tail_fit_right is None
                else _reals(prof.tail_fit_right),
                "tail_fit_left": None if prof.tail_fit_left is None
                else _reals(prof.tail_fit_left),
                "tail_window_right": None if prof.tail_window_right is None
                else _real(prof.tail_window_right),
                "tail_window_left": None if prof.tail_window_left is None
                else _real(prof.tail_window_left),
                "notes": list(prof.notes),
            })
        doc["oracle"] = entry
    if bundle.coupling is not None:
        p = bundle.coupling_params
        doc["coupling"] = {
            **coupling_summary(bundle.coupling, p),
            "couple_radius": _real(p.coupling_couple_radius),
            "count_escaped_as_coupled": p.coupling_count_escaped,
        }
    return doc


def coupling_summary(stats: CouplingStats, params: RunConfig) -> dict:
    """The coupling outcome as JSON-safe values, as ``couple`` prints it."""
    return {
        "n_paths": stats.n_paths,
        "n_coupled": stats.n_coupled,
        "n_escaped": stats.n_escaped,
        "p_couple": _real(stats.p_couple),
        "ci_halfwidth": _real(stats.ci_halfwidth),
        "p_discrete": _real(stats.p_discrete),
        "coupling_time_quantiles": _reals(stats.coupling_time_quantiles),
        "mu": _real(params.coupling_mu), "t_max": _real(params.coupling_t_max),
        "dt": _real(params.coupling_dt),
    }


def _csv_text(header: List[str], columns: List[np.ndarray]) -> str:
    rows = [",".join(header)]
    n = columns[0].shape[0]
    for i in range(n):
        rows.append(",".join(repr(float(col[i])) for col in columns))
    return "\n".join(rows) + "\n"


def emit(bundle: VerdictBundle, output_dir) -> List[Path]:
    """Write report.json, dispersion.csv and modulus.csv of the criterion,
    profile.csv of the oracle and coupling.csv of the pair trajectory (t,
    X, Y, dist), each if the bundle has it; returns the written paths.
    The same bundle always writes the same bytes."""
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: List[Path] = []

    def write(name: str, text: str) -> None:
        written.append(out / name)
        written[-1].write_text(text, encoding="utf-8")

    rep = bundle.criterion
    if rep is not None:
        write("report.json", json.dumps(_report_doc(bundle), sort_keys=True,
                                        indent=2, allow_nan=False) + "\n")
        for name, curve in (("dispersion.csv", rep.dispersion),
                            ("modulus.csv", rep.modulus)):
            if curve is not None:
                write(name, _csv_text(["s", "value"],
                                      [curve.radii, curve.values]))
    prof = bundle.oracle_profile
    if prof is not None:
        write("profile.csv", _csv_text(["x", "u", "du"],
                                       [prof.x, prof.u, prof.du]))
    if bundle.coupling_trajectory is not None:
        t, X, Y, dist = bundle.coupling_trajectory
        dims = range(1, X.shape[1] + 1)
        write("coupling.csv", _csv_text(
            ["t", *(f"x{i}" for i in dims), *(f"y{i}" for i in dims), "dist"],
            [t, *X.T, *Y.T, dist]))
    return written


def read_report(path) -> dict:
    """Load and validate a report.json; rejects unknown schema majors."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    version = doc.get("schema_version")
    if not isinstance(version, int):
        raise ConfigError("report has no integer schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError(f"unsupported report schema_version {version} "
                          f"(this reader understands {SCHEMA_VERSION})")
    return doc
