"""Exception types shared across the package.

Grouped by how the command line maps them to exit codes: domain errors
(unstable or nilpotent input where stability is required) exit 1, input and
validation errors exit 2, convergence failures exit 3.
"""


class GitHeightError(Exception):
    """Base class for every error raised by this package."""


class InputError(GitHeightError, ValueError):
    """Malformed or out-of-domain input (CLI exit code 2)."""


class ZeroInputError(InputError):
    """A nonzero rational was required."""


class AllZeroError(InputError):
    """A coordinate vector with at least one nonzero entry was required."""


class NonSquareError(InputError):
    """A square matrix was required."""


class ZeroMatrixError(InputError):
    """The zero matrix has no image in projective space."""


class ZeroPolynomialError(InputError):
    """The zero polynomial was passed where a nonzero one is required."""


class AllRootsZeroError(InputError):
    """Every root is zero, so there is no largest nonzero root."""


class LengthMismatchError(InputError):
    """Sequence arguments whose lengths must agree did not."""


class UnsupportedSizeError(InputError):
    """Requested tensor size is outside the implemented range."""


class NonPositiveError(InputError):
    """A positive integer argument was required."""


class DomainError(GitHeightError, ValueError):
    """Input is valid but outside the mathematical domain (CLI exit code 1)."""


class UnstableError(DomainError):
    """The point is unstable: it has no image in the GIT quotient."""


class NilpotentError(DomainError):
    """The matrix is nilpotent, hence unstable under conjugation."""


class NoConvergenceError(GitHeightError, RuntimeError):
    """An iteration hit its cap before reaching tolerance (CLI exit code 3)."""
