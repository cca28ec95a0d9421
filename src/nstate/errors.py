"""Exception taxonomy shared by all nstate modules.

Every error carries a short machine-readable ``code`` that the CLI prints as
``error=<code>`` on stderr, so scripted sweeps can branch on failures without
parsing prose.
"""


class NStateError(Exception):
    """Base class for all domain errors raised by this package."""

    code = "Error"


class AsymmetricMatrixError(NStateError):
    """An explicit coupling matrix was not exactly symmetric."""

    code = "AsymmetricMatrix"


class StructuredRequiresN3Error(NStateError):
    """The full structured coupling form (beta/gamma) needs at least 3 states."""

    code = "StructuredRequiresN3"


class UnreachableAreaError(NStateError):
    """The requested phase area can never be accumulated by this pulse."""

    code = "Unreachable"


class NoConvergenceError(NStateError):
    """The cyclic Jacobi eigensolver did not converge within the sweep budget."""

    code = "NoConvergence"


class EvenN0Error(NStateError):
    """Transfer designs require an odd pulse-area multiple."""

    code = "EvenN0"


class NotDegenerateError(NStateError):
    """Analytic evolution is only valid when all level energies are equal."""

    code = "NotDegenerate"


class NormDriftError(NStateError):
    """The integrator lost more probability norm than allowed; shrink dt."""

    code = "NormDrift"


class StepCountOverflowError(NStateError):
    """The requested run would need an absurd number of fixed steps."""

    code = "StepCountOverflow"


class SampleCountOverflowError(NStateError):
    """The requested samples would need an unbounded amplitude allocation."""

    code = "SampleCountOverflow"


class InsufficientPointsError(NStateError):
    """A power-law fit needs at least three usable points."""

    code = "InsufficientPoints"


class NonPositiveValueError(NStateError):
    """Log-log fitting requires strictly positive ratios and leakages."""

    code = "NonPositiveValue"


class ConfigError(NStateError):
    """A run configuration file or flag set could not be interpreted."""

    code = "Config"


#: Errors that indicate a numerical failure (CLI exit code 3); everything else
#: from this taxonomy is treated as a usage/configuration error (exit code 2).
NUMERICAL_ERRORS = (NormDriftError, NoConvergenceError, StepCountOverflowError)
