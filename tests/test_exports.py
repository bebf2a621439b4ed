"""The package's public surface is its `__all__`, and every name in it resolves."""

import inspect

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
    for name in ("facet_label", "regular_graph_diameter_bound"):
        assert name not in corridors.__all__
        assert not hasattr(corridors, name)
    assert callable(corridors.constructions.facet_label)
    assert callable(corridors.bounds.regular_graph_diameter_bound)
