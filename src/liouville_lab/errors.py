"""Exception hierarchy shared by all liouville_lab modules.

Every failure mode that callers are expected to catch has its own class;
anything else is a plain bug and surfaces as a built-in exception.
``annotate_stage`` tags an exception with the pipeline stage it left.
"""

import contextlib


@contextlib.contextmanager
def annotate_stage(stage: str):
    """Tag an exception leaving the block with the stage it came from;
    the innermost block's tag wins, and the CLI names that stage on a
    numerical failure."""
    try:
        yield
    except Exception as exc:
        if not hasattr(exc, "stage"):
            exc.stage = stage  # type: ignore[attr-defined]
        raise


class LiouvilleLabError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(LiouvilleLabError):
    """Malformed run configuration (bad key, unparsable value, missing seed)."""


class CoefficientEvaluationError(LiouvilleLabError):
    """A drift/diffusion callable returned a non-finite or mis-shaped value."""


class CoefficientOverflow(CoefficientEvaluationError):
    """A coefficient's arithmetic overflowed at the x it names, so that its
    value there, finite or not, is not the field's."""


class CatalogueError(LiouvilleLabError):
    """Unknown catalogue field name or invalid parameter vector."""


class ExpressionError(CatalogueError):
    """A coefficient expression failed to parse or uses a forbidden construct."""


class EllipticityViolation(LiouvilleLabError):
    """A sampled diffusion matrix was not positive definite."""


class EigenFailure(LiouvilleLabError):
    """Jacobi sweeps did not reduce the off-diagonal mass within the limit."""


class ShiftTooLarge(LiouvilleLabError):
    """Requested shift mu is not strictly below the smallest eigenvalue."""


class ConstantMismatch(LiouvilleLabError):
    """Modulus profile and criterion constants disagree on the q-weight."""


class QuadratureError(LiouvilleLabError):
    """Adaptive quadrature failed to reach the requested tolerance.

    Carries the (lo, hi) span of the segments left unresolved, when known.
    """

    def __init__(self, message, x_range=None):
        super().__init__(message)
        self.x_range = x_range


class BoundaryUndecided(LiouvilleLabError):
    """Tail classification landed inside the undecidable window."""


class SimulationBlowUp(LiouvilleLabError):
    """A simulated path became non-finite.

    Carries the path index and simulation time at which the blow-up was
    detected.
    """

    def __init__(self, message, path_index=None, time=None):
        super().__init__(message)
        self.path_index = path_index
        self.time = time


class NotApplicable(LiouvilleLabError):
    """The requested diagnostic is undefined for this profile (e.g. an
    oscillation ratio of an unbounded harmonic function)."""
