import importlib
import pkgutil

import pytest

import githeight
from githeight import cli

# Names that left the package: each was reached only by its own tests.
_REMOVED = (
    "moment_map_conj", "skew_hermitian_basis", "orbit_sampling_bound", "HermitianLattice",
    "arakelov_degree", "slope", "residually_semistable_direct", "values_close",
    "NotPositiveDefiniteError", "NotSkewHermitianError",
    # one error class per exit code, and one norm per place
    "ZeroInputError", "AllZeroError", "NonSquareError", "ZeroMatrixError", "ZeroPolynomialError",
    "AllRootsZeroError", "LengthMismatchError", "UnsupportedSizeError", "NonPositiveError",
    "NORM_CHOICES", "_float_rows",
    # the root layer returns a tuple of roots, and PolyQ keeps what a height reads
    "ComplexMultiset",
    # a matrix's local data has one route, its record
    "EigenData", "eigen_data",
    # bounds reads the input: nothing that reads no point or matrix stays
    "convex_lemma_min", "convex_lemma_argmin", "_lemma_profile", "_golden_section",
    "CONVEX_LEMMA_VARIANTS", "ell", "explicit_lower_bound", "_require_finite", "EpsilonMap",
    "epsilon_map", "EpsilonNormResult", "epsilon_norm_check", "twist_shift",
    # value types keep what a caller reads; == is exact, and to_float images compare with a tolerance
    "DEFAULT_COMPARE_TOL",
)
_CLI_REMOVED = ("_VARIANTS", "_cmd_ell", "_cmd_epsilon", "_cmd_convex_lemma")
_POLYQ_REMOVED = ("from_coeffs", "from_roots", "evaluate", "leading", "__mul__", "to_json", "from_json")
_ATTRIBUTES_REMOVED = {
    "MatrixQ": ("from_json", "to_json", "mul", "transpose", "scaled"),
    "TorusAction": ("ambient_dim", "to_json"),
    "LogValue": ("scaled", "from_json_dict", "finite_coefficient", "close_to"),
    "ProjectivePointQ": ("dim",),
}


def test_public_surface_holds():
    names = githeight.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(githeight, name)] == []
    modules = [githeight] + [importlib.import_module(f"githeight.{info.name}")
                             for info in pkgutil.iter_modules(githeight.__path__)]
    assert [(module.__name__, name) for module in modules for name in _REMOVED
            if hasattr(module, name)] == []
    assert [name for name in _CLI_REMOVED if hasattr(cli, name)] == []
    assert "slopes_json" not in cli._JSON_TYPES
    assert [name for name in _POLYQ_REMOVED if hasattr(githeight.PolyQ, name)] == []
    assert [(cls, name) for cls, names in _ATTRIBUTES_REMOVED.items() for name in names
            if hasattr(getattr(githeight, cls), name)] == []


def test_the_bounds_live_with_their_records():
    # lower_bound is a torus path and lower_bound_conj a conjugation one; no bounds module is left
    assert githeight.lower_bound.__module__ == "githeight.torus"
    assert githeight.lower_bound_conj.__module__ == "githeight.conjugation"
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("githeight.bounds")
