"""Exception hierarchy shared by all modules, and the CLI's exit codes.

Every failure mode that callers are expected to catch has its own class;
they all derive from SpectralError, and each class carries the exit code
the CLI returns for it as `exit_code`: 2 for bad input, 3 for a singular
or non-finite linear solve, 4 for a failure of the integral equation,
and 1, a failed check, for every other class.
"""

EXIT_OK = 0
EXIT_CHECK = 1
EXIT_INPUT = 2
EXIT_SINGULAR = 3
EXIT_DRESSING = 4


class SpectralError(Exception):
    """Base class for all package-specific errors."""

    exit_code = EXIT_CHECK


class InputError(SpectralError):
    """Malformed configuration or JSON input."""

    exit_code = EXIT_INPUT


# --- numerics ---------------------------------------------------------------

class PoleEvaluation(SpectralError):
    """A rational function was evaluated at one of its poles."""


class NoIsolation(SpectralError):
    """A pole is not isolated from the other roots of its function."""


# --- curve validators -------------------------------------------------------

class CountMismatch(SpectralError):
    """Unknown count does not equal equation count for the ansatz."""


class Mismatch(SpectralError):
    """Quantities required to agree (e.g. distinguished-point residues) differ."""


class NonPositive(SpectralError):
    """A quantity required to be real and positive is not."""


class DivisorMismatch(SpectralError):
    """Zero or pole divisor of the differential does not match the expected one."""


class NotInvolution(SpectralError):
    """The declared point map does not square to the identity."""


class PNotFixed(SpectralError):
    """The declared involution moves an essential-singularity marker."""


# --- baker / geometry -------------------------------------------------------

class EssentialSingularity(SpectralError):
    """An exponential phase blows up at a point where it must be regular."""


class SingularSystem(SpectralError):
    """The linear system for the wave-function coefficients is ill conditioned."""

    exit_code = EXIT_SINGULAR


class NonPositiveDiagonal(SpectralError):
    """Metric diagonal entry is not positive; scale factors undefined."""


class StencilFailure(SpectralError):
    """A finite-difference stencil could not be evaluated."""


# --- dressing ---------------------------------------------------------------

class SingularFredholm(SpectralError):
    """Discretised integral-equation matrix is ill conditioned."""

    exit_code = EXIT_DRESSING


class TailTooFat(SpectralError):
    """Kernel does not decay enough beyond the truncation point."""

    exit_code = EXIT_DRESSING


class DegenerateParameters(SpectralError):
    """Requested family parameters make the construction degenerate."""


class IncompatibleField(SpectralError):
    """Rotation-coefficient field fails its compatibility conditions."""
