"""Pipeline orchestration and artifact emission.

run() executes the decision pipeline on a configured field, optionally
followed by the 1D oracle and the coupling experiment, and grades the
combination:

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

import contextlib
import dataclasses
import json
import math
from pathlib import Path
from typing import List, Optional, Tuple

import numpy as np

from .coefficients import (CoefficientField, field_from_expressions,
                           make_standard_fields)
from .config import RunConfig, emit_config
from .coupling_sim import (CouplingConfig, CouplingStats,
                           simulate_coupling, simulate_pair_trajectory)
from .criterion import (VERDICT_GUARANTEED, VERDICT_INCONCLUSIVE,
                        CriterionConfig, CriterionReport,
                        evaluate_liouville_criterion)
from .errors import ConfigError, NotApplicable
from .harmonic_oracle import HarmonicProfile, harmonic_1d

SCHEMA_VERSION = 1
CONSISTENT = "Consistent"
CRITERION_CONSERVATIVE = "CriterionConservative"
CONTRADICTION = "Contradiction"


@dataclasses.dataclass(frozen=True)
class VerdictBundle:
    """Everything one run produced, ready for emission."""

    config: RunConfig
    criterion: CriterionReport
    oracle_profile: Optional[HarmonicProfile]
    oracle_verdict: Optional[bool]
    oracle_note: Optional[str]
    coupling: Optional[CouplingStats]
    coupling_params: Optional[CouplingConfig]
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


def _consistency(criterion_verdict: str,
                 oracle_verdict: Optional[bool]) -> str:
    if criterion_verdict == VERDICT_GUARANTEED and oracle_verdict is False:
        return CONTRADICTION
    if criterion_verdict == VERDICT_INCONCLUSIVE and oracle_verdict is True:
        return CRITERION_CONSERVATIVE
    return CONSISTENT


@contextlib.contextmanager
def annotate_stage(stage: str):
    """Tag an exception leaving the block with the stage it came from;
    the CLI names that stage on a numerical failure."""
    try:
        yield
    except Exception as exc:
        exc.stage = stage  # type: ignore[attr-defined]
        raise


@contextlib.contextmanager
def coupling_stage(cfg: RunConfig, field: CoefficientField,
                   derived_mu: float):
    """Set up the coupling experiment of ``cfg`` and run the block as
    stage ``coupling``; yields (CouplingConfig, x0, y0, trajectory stride).

    ``derived_mu`` is used unless coupling.mu is set; the endpoints
    default to (+-0.5, 0, ..., 0).  A ValueError from the setup or the
    block is a configuration error.
    """
    x0, y0 = cfg.coupling_x0, cfg.coupling_y0
    if x0 is None or y0 is None:
        x0 = (0.5,) + (0.0,) * (field.dim - 1)
        y0 = (-0.5,) + (0.0,) * (field.dim - 1)
    if len(x0) != field.dim or len(y0) != field.dim:
        raise ConfigError("coupling.x0/y0 length must equal field.dim")
    try:
        with annotate_stage("coupling"):
            params = CouplingConfig(
                mu=derived_mu if cfg.coupling_mu is None else cfg.coupling_mu,
                t_max=cfg.coupling_t_max, n_paths=cfg.coupling_n_paths,
                dt=cfg.coupling_dt, couple_radius=cfg.coupling_couple_radius,
                escape_radius=cfg.coupling_escape_radius, seed=cfg.seed,
                count_escaped_as_coupled=cfg.coupling_count_escaped)
            yield params, x0, y0, max(1, params.n_steps() // 1000)
    except ValueError as exc:
        raise ConfigError(f"coupling setup: {exc}") from exc


def run(cfg: RunConfig) -> VerdictBundle:
    """Execute criterion -> oracle -> coupling per the configuration."""
    with annotate_stage("field"):
        field = build_field(cfg)
    if cfg.oracle_enabled and field.dim != 1:
        raise ConfigError("oracle.enabled requires a one-dimensional field")

    with annotate_stage("criterion"):
        report = evaluate_liouville_criterion(field, CriterionConfig(**{
            f.name: getattr(cfg, f.name)
            for f in dataclasses.fields(CriterionConfig)}))

    oracle_profile = None
    oracle_verdict = None
    oracle_note = None
    if cfg.oracle_enabled:
        try:
            with annotate_stage("oracle"):
                oracle_profile = harmonic_1d(field, x_max=cfg.oracle_x_max,
                                             tol=cfg.oracle_tol)
            oracle_verdict = oracle_profile.liouville_holds
            if oracle_verdict is None:
                oracle_note = ("oracle classification withheld: "
                               + "; ".join(oracle_profile.notes))
        except NotApplicable as exc:
            oracle_note = f"oracle not applicable: {exc}"

    coupling_stats = None
    coupling_params = None
    trajectory = None
    if cfg.coupling_enabled:
        mu = report.constants.mu if report.constants is not None \
            else 0.5 * report.bounds.lambda0
        with coupling_stage(cfg, field, mu) as (coupling_params, x0, y0,
                                                 stride):
            coupling_stats = simulate_coupling(field, report.bounds,
                                               coupling_params, x0, y0)
            trajectory = simulate_pair_trajectory(
                field, report.bounds, coupling_params, x0, y0, stride=stride)

    return VerdictBundle(
        config=cfg, criterion=report,
        oracle_profile=oracle_profile, oracle_verdict=oracle_verdict,
        oracle_note=oracle_note,
        coupling=coupling_stats, coupling_params=coupling_params,
        coupling_trajectory=trajectory,
        consistency=_consistency(report.verdict, oracle_verdict))


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
                "notes": list(prof.notes),
            })
        doc["oracle"] = entry
    if bundle.coupling is not None:
        p = bundle.coupling_params
        doc["coupling"] = {
            **coupling_summary(bundle.coupling, p),
            "couple_radius": _real(p.couple_radius),
            "count_escaped_as_coupled": p.count_escaped_as_coupled,
        }
    return doc


def coupling_summary(stats: CouplingStats, params: CouplingConfig) -> dict:
    """The coupling outcome as JSON-safe values, as ``couple`` prints it."""
    return {
        "n_paths": stats.n_paths,
        "n_coupled": stats.n_coupled,
        "n_escaped": stats.n_escaped,
        "p_couple": _real(stats.p_couple),
        "ci_halfwidth": _real(stats.ci_halfwidth),
        "coupling_time_quantiles": _reals(stats.coupling_time_quantiles),
        "mu": _real(params.mu), "t_max": _real(params.t_max),
        "dt": _real(params.dt),
    }


def _write_text(path: Path, text: str) -> None:
    path.write_text(text, encoding="utf-8")


def _csv_text(header: List[str], columns: List[np.ndarray]) -> str:
    rows = [",".join(header)]
    n = columns[0].shape[0]
    for i in range(n):
        rows.append(",".join(repr(float(col[i])) for col in columns))
    return "\n".join(rows) + "\n"


def emit(bundle: VerdictBundle, output_dir) -> List[Path]:
    """Write report.json and the CSV curves; returns the written paths.

    Overwrites are idempotent: the same bundle always produces the same
    bytes.
    """
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: List[Path] = []

    report_path = out / "report.json"
    _write_text(report_path,
                json.dumps(_report_doc(bundle), sort_keys=True, indent=2,
                           allow_nan=False) + "\n")
    written.append(report_path)

    disp = bundle.criterion.dispersion
    disp_path = out / "dispersion.csv"
    _write_text(disp_path, _csv_text(["s", "value"],
                                     [disp.radii, disp.values]))
    written.append(disp_path)

    if bundle.criterion.modulus is not None:
        m = bundle.criterion.modulus
        mod_path = out / "modulus.csv"
        _write_text(mod_path, _csv_text(["s", "value"],
                                        [m.radii, m.values]))
        written.append(mod_path)

    if bundle.oracle_profile is not None:
        written.append(write_profile(out, bundle.oracle_profile))

    if bundle.coupling_trajectory is not None:
        written.append(write_trajectory(out, bundle.coupling_trajectory))

    return written


def write_profile(out: Path, profile: HarmonicProfile) -> Path:
    """Write the oracle's harmonic profile to ``out``/profile.csv."""
    path = out / "profile.csv"
    _write_text(path, _csv_text(["x", "u", "du"],
                                [profile.x, profile.u, profile.du]))
    return path


def write_trajectory(out: Path, trajectory: Tuple[np.ndarray, ...]) -> Path:
    """Write a recorded pair trajectory (t, X, Y, dist) to
    ``out``/coupling.csv."""
    t, X, Y, dist = trajectory
    dim = X.shape[1]
    header = (["t"] + [f"x{i+1}" for i in range(dim)]
              + [f"y{i+1}" for i in range(dim)] + ["dist"])
    cols = [t] + [X[:, i] for i in range(dim)] \
        + [Y[:, i] for i in range(dim)] + [dist]
    path = out / "coupling.csv"
    _write_text(path, _csv_text(header, cols))
    return path


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
