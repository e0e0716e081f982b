import importlib
import pkgutil

import githeight

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
)
_POLYQ_REMOVED = ("from_coeffs", "from_roots", "evaluate", "leading", "__mul__", "to_json", "from_json")
_ATTRIBUTES_REMOVED = {"MatrixQ": ("from_json", "to_json"), "TorusAction": ("ambient_dim",)}


def test_public_surface_holds():
    names = githeight.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(githeight, name)] == []
    modules = [githeight] + [importlib.import_module(f"githeight.{info.name}")
                             for info in pkgutil.iter_modules(githeight.__path__)]
    assert [(module.__name__, name) for module in modules for name in _REMOVED
            if hasattr(module, name)] == []
    assert [name for name in _POLYQ_REMOVED if hasattr(githeight.PolyQ, name)] == []
    assert [(cls, name) for cls, names in _ATTRIBUTES_REMOVED.items() for name in names
            if hasattr(getattr(githeight, cls), name)] == []
