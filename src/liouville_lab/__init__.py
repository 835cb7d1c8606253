"""liouville-lab: a numerical laboratory for a Liouville-property
criterion for second-order elliptic operators.

The package decides, verifies and stress-tests a drift-dispersion
sufficient condition for the (space-time) Liouville property of
operators L = 1/2 sum q_ij(x) D_ij + sum b_i(x) D_i:

* :mod:`liouville_lab.coefficients` — coefficient fields, a small
  expression language, the built-in catalogue, ellipticity estimation;
* :mod:`liouville_lab.matrix_analysis` — symmetric eigensolves and the
  shifted square root sigma(x) = sqrt(q(x) - mu I);
* :mod:`liouville_lab.criterion` — the decision pipeline: drift
  dispersion, admissible constants, oscillation modulus, escape
  integral, verdict;
* :mod:`liouville_lab.harmonic_oracle` — exact 1D ground truth by
  quadrature;
* :mod:`liouville_lab.coupling_sim` — reflection-coupling Monte Carlo
  and martingale checks;
* :mod:`liouville_lab.config` / :mod:`liouville_lab.report` /
  :mod:`liouville_lab.cli` — configuration, orchestration, artifacts.
"""

from .coefficients import (CATALOGUE, CoefficientField, EllipticityBounds,
                           compile_expression, estimate_ellipticity,
                           eval_diffusion, eval_drift,
                           field_from_expressions, make_log_example,
                           make_standard_fields)
from .config import RunConfig, emit_config, parse_config
from .coupling_sim import (CouplingStats, martingale_check,
                           simulate_coupling, simulate_pair_trajectory)
from .criterion import (VERDICT_GUARANTEED, VERDICT_INCONCLUSIVE,
                        ClassicConditionReport, CriterionConstants,
                        CriterionReport,
                        DispersionCurve, EscapeResult, GFunction,
                        ModulusProfile, asymptotic_dispersion, build_g,
                        classic_condition_check,
                        drift_dispersion, escape_integral_divergent,
                        evaluate_liouville_criterion, modulus,
                        modulus_profile_from_samples, theorem_threshold)
from .errors import (BoundaryUndecided, CatalogueError,
                     CoefficientEvaluationError, CoefficientOverflow,
                     ConfigError, ConstantMismatch, EigenFailure,
                     EllipticityViolation, ExpressionError,
                     LiouvilleLabError, NotApplicable,
                     QuadratureError, ShiftTooLarge, SimulationBlowUp)
from .harmonic_oracle import (HarmonicProfile, harmonic_1d,
                              liouville_verdict_1d, oscillation_bound)
from .matrix_analysis import (SigmaBoundReport, check_sigma_bounds, hs_norm,
                              shifted_sqrt)
from .report import (CONSISTENT, CONTRADICTION, CRITERION_CONSERVATIVE,
                     SCHEMA_VERSION, VerdictBundle, build_field, emit,
                     read_report, run)

__version__ = "0.1.0"

__all__ = [
    "BoundaryUndecided", "CATALOGUE", "CatalogueError",
    "ClassicConditionReport", "CoefficientEvaluationError",
    "CoefficientField", "CoefficientOverflow", "ConfigError", "CONSISTENT", "ConstantMismatch",
    "CONTRADICTION", "CouplingStats",
    "CRITERION_CONSERVATIVE", "CriterionConstants",
    "CriterionReport", "DispersionCurve", "EigenFailure",
    "EllipticityBounds", "EllipticityViolation", "EscapeResult",
    "ExpressionError", "GFunction", "HarmonicProfile", "LiouvilleLabError",
    "ModulusProfile", "NotApplicable",
    "QuadratureError", "RunConfig", "SCHEMA_VERSION", "ShiftTooLarge",
    "SigmaBoundReport", "SimulationBlowUp",
    "VERDICT_GUARANTEED", "VERDICT_INCONCLUSIVE", "VerdictBundle",
    "asymptotic_dispersion", "build_field", "build_g", "check_sigma_bounds",
    "classic_condition_check", "compile_expression",
    "drift_dispersion", "emit", "emit_config",
    "escape_integral_divergent", "estimate_ellipticity", "eval_diffusion",
    "eval_drift", "evaluate_liouville_criterion", "field_from_expressions",
    "harmonic_1d", "hs_norm", "liouville_verdict_1d", "make_log_example",
    "make_standard_fields", "martingale_check", "modulus",
    "modulus_profile_from_samples", "oscillation_bound", "parse_config",
    "read_report", "run", "shifted_sqrt", "simulate_coupling",
    "simulate_pair_trajectory", "theorem_threshold",
]
