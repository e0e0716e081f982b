"""Heights of points on GIT quotients over the rationals.

The height of a semistable point on a quotient decomposes as the naive
height of the point plus one nonpositive instability measure per place of
Q, with the measure hitting -infinity exactly on unstable points.  This
package computes every term of that decomposition for two families of
actions, split-torus actions on projective space and conjugation acting on
matrices, keeping the finite-place contributions as exact rational
multiples of log p and isolating floating point to the archimedean place.

Supporting machinery: Newton polygons for p-adic root valuations, an exact
Bland-rule simplex for piecewise-linear instability, a damped
Newton minimizer for the archimedean one, minimality tests (normality at
the archimedean place, non-nilpotent reduction mod p elsewhere), and a
lower bound for the height of every semistable point, read from its input.
"""

from .conjugation import (
    MatrixQ,
    MinimalityReport,
    charpoly_of,
    fundamental_formula_residual_conj,
    instability_all_conj,
    instability_conj,
    is_minimal_arch,
    is_minimal_nonarch,
    is_semistable_conj,
    lower_bound_conj,
    naive_matrix_height,
    quotient_height_conj,
)
from .errors import (
    DomainError,
    GitHeightError,
    InputError,
    NilpotentError,
    NoConvergenceError,
    UnstableError,
)
from .exactpoly import (
    NewtonPolygon,
    PolyQ,
    charpoly,
    complex_roots,
    newton_polygon,
)
from .heights import (
    ProjectivePointQ,
    naive_height,
    naive_height_coords,
)
from .places import (
    ARCHIMEDEAN,
    LogValue,
    Place,
    as_fraction,
    exact_log_abs_arch,
    factorize,
    is_prime,
    log_abs,
    product_formula_residual,
    support_primes,
    valuation,
    valuation_table,
)
from .torus import (
    InstabilityReport,
    TorusAction,
    destabilizing_1ps,
    instability_all,
    instability_arch,
    instability_nonarch,
    is_semistable,
    kempf_ness_profile,
    lower_bound,
    quotient_height,
)

__version__ = "0.1.0"

__all__ = [
    "ARCHIMEDEAN",
    "DomainError",
    "GitHeightError",
    "InputError",
    "InstabilityReport",
    "LogValue",
    "MatrixQ",
    "MinimalityReport",
    "NewtonPolygon",
    "NilpotentError",
    "NoConvergenceError",
    "Place",
    "PolyQ",
    "ProjectivePointQ",
    "TorusAction",
    "UnstableError",
    "as_fraction",
    "charpoly",
    "charpoly_of",
    "complex_roots",
    "destabilizing_1ps",
    "exact_log_abs_arch",
    "factorize",
    "fundamental_formula_residual_conj",
    "instability_all",
    "instability_all_conj",
    "instability_arch",
    "instability_conj",
    "instability_nonarch",
    "is_minimal_arch",
    "is_minimal_nonarch",
    "is_prime",
    "is_semistable",
    "is_semistable_conj",
    "kempf_ness_profile",
    "log_abs",
    "lower_bound",
    "lower_bound_conj",
    "naive_height",
    "naive_height_coords",
    "naive_matrix_height",
    "newton_polygon",
    "product_formula_residual",
    "quotient_height",
    "quotient_height_conj",
    "support_primes",
    "valuation",
    "valuation_table",
]
