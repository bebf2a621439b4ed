"""The package's public surface is its `__all__`, and every name in it resolves."""

import inspect
import subprocess
import sys
from pathlib import Path

import corridors


def test_every_name_in_all_resolves():
    assert len(set(corridors.__all__)) == len(corridors.__all__)
    for name in corridors.__all__:
        assert hasattr(corridors, name), name


def test_star_import_is_all():
    namespace = {}
    exec("from corridors import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(corridors.__all__)


def test_public_namespace_is_all():
    # the layer modules themselves are reached as corridors.<module>
    public = {
        name
        for name, value in vars(corridors).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert public == set(corridors.__all__)


def test_layer_only_helpers_stay_in_their_modules():
    # stages reach a complex's ridges through Complex.incidence, and the
    # CLI imports what only a command calls from its module
    homes = {
        "face_columns": corridors.complex_core,
        "ridges_of": corridors.complex_core,
        "regular_graph_diameter_bound": corridors.bounds,
        "E": corridors.bounds,
        "bound_report": corridors.bounds,
        "double_sweep_lower_bound": corridors.complex_core,
        "is_strongly_connected": corridors.complex_core,
        "facet_labels": corridors.constructions,
        "quotient_report": corridors.quotient,
    }
    for name, module in homes.items():
        assert name not in corridors.__all__
        assert not hasattr(corridors, name), name
        assert hasattr(module, name), name


def test_paths_only_tests_read_are_not_in_the_library():
    # the tests keep their own facet lookup, labels, potential, its error,
    # ridge tuples and class counts in conftest, and the classifier of facet
    # tuples into boundary labels, with its label type and error, in
    # naive_reference
    for owner, name in (
        (corridors.constructions, "facet_label"),
        (corridors.constructions, "scaled_potential"),
        (corridors.constructions, "BoundaryFacetLabel"),
        (corridors.constructions, "ALPHA"),
        (corridors.constructions, "OMEGA"),
        (corridors.constructions, "_classify"),
        (corridors.errors, "NotMiddleFacet"),
        (corridors.errors, "UnknownFacet"),
        (corridors.Complex, "facet_index"),
        (corridors.complex_core.Incidence, "ridges"),
        (corridors.complex_core.Incidence, "ridge"),
        (corridors.coloring, "pattern_class_histogram"),
        (corridors.coloring, "PatternHistogram"),
    ):
        assert not hasattr(owner, name), name
    for name in (
        "scaled_potential",
        "NotMiddleFacet",
        "BoundaryFacetLabel",
        "ALPHA",
        "OMEGA",
        "UnknownFacet",
        "pattern_class_histogram",
        "PatternHistogram",
    ):
        assert name not in corridors.__all__


# modules the package never imports: a process pool, since bench cells run
# in order in one process, and what `dataclasses` would pull in
UNUSED_AT_IMPORT = (
    "concurrent.futures",
    "multiprocessing",
    "dataclasses",
    "inspect",
    "ast",
    "dis",
    "tokenize",
)


def test_import_loads_none_of_the_unused_modules():
    # a fresh interpreter, so modules this test session loaded do not count,
    # and without `site`, so only the package's own imports do
    src = str(Path(corridors.__file__).resolve().parent.parent)
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); "
        "import corridors, corridors.cli; "
        "print(' '.join(m for m in sys.argv[2:] if m in sys.modules))"
    )
    done = subprocess.run(
        [sys.executable, "-E", "-S", "-c", code, src, *UNUSED_AT_IMPORT],
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert done.stdout.split() == []
