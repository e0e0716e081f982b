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
the archimedean place, non-nilpotent reduction mod p elsewhere), and
explicit slope lower bounds with the antisymmetrization maps whose norms
they rest on, checked exactly in integers.
"""

from .bounds import (
    CONVEX_LEMMA_VARIANTS,
    EpsilonNormResult,
    convex_lemma_argmin,
    convex_lemma_min,
    ell,
    epsilon_map,
    epsilon_norm_check,
    explicit_lower_bound,
)
from .conjugation import (
    EigenData,
    MatrixQ,
    MinimalityReport,
    charpoly_of,
    eigen_data,
    fundamental_formula_residual_conj,
    instability_all_conj,
    instability_conj,
    is_minimal_arch,
    is_minimal_nonarch,
    is_semistable_conj,
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
    twist_shift,
)
from .places import (
    ARCHIMEDEAN,
    DEFAULT_COMPARE_TOL,
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
    quotient_height,
)

__version__ = "0.1.0"

__all__ = [
    "ARCHIMEDEAN",
    "CONVEX_LEMMA_VARIANTS",
    "DEFAULT_COMPARE_TOL",
    "DomainError",
    "EigenData",
    "EpsilonNormResult",
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
    "convex_lemma_argmin",
    "convex_lemma_min",
    "destabilizing_1ps",
    "eigen_data",
    "ell",
    "epsilon_map",
    "epsilon_norm_check",
    "exact_log_abs_arch",
    "explicit_lower_bound",
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
    "naive_height",
    "naive_height_coords",
    "naive_matrix_height",
    "newton_polygon",
    "product_formula_residual",
    "quotient_height",
    "quotient_height_conj",
    "support_primes",
    "twist_shift",
    "valuation",
    "valuation_table",
]
