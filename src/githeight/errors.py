"""Exception types shared across the package.

One class per command-line exit code: a domain error (unstable or nilpotent
input where stability is required) exits 1, an input or validation error
exits 2, a convergence failure exits 3.  The domain errors come in the two
kinds the quotient has, unstable points and nilpotent matrices.
"""


class GitHeightError(Exception):
    """Base class for every error raised by this package."""


class InputError(GitHeightError, ValueError):
    """Malformed or out-of-domain input (CLI exit code 2)."""


class DomainError(GitHeightError, ValueError):
    """Input is valid but outside the mathematical domain (CLI exit code 1)."""


class UnstableError(DomainError):
    """The point is unstable: it has no image in the GIT quotient."""


class NilpotentError(DomainError):
    """The matrix is nilpotent, hence unstable under conjugation."""


class NoConvergenceError(GitHeightError, RuntimeError):
    """An iteration hit its cap before reaching tolerance (CLI exit code 3)."""
