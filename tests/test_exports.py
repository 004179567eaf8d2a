"""The package's export list is the union of its submodules' export lists, and every name resolves."""

import importlib

import layerreuse

_SUBMODULES = ("attention", "engine", "formats", "policy", "profiling", "synthetic")
_ERRORS = {"LayerReuseError", "ConfigurationError", "NumericInputError", "InvalidSelectionError",
           "InvalidInputError"}


def test_package_exports_resolve_without_duplicates():
    assert len(layerreuse.__all__) == len(set(layerreuse.__all__))
    assert [name for name in layerreuse.__all__ if not hasattr(layerreuse, name)] == []


def test_package_exports_are_the_submodules_exports():
    union = set().union(*(importlib.import_module(f"layerreuse.{m}").__all__ for m in _SUBMODULES))
    assert set(layerreuse.__all__) == union | _ERRORS | {"__version__"}
    assert len(layerreuse.__all__) == 49


def test_submodule_exports_resolve():
    for name in _SUBMODULES:
        module = importlib.import_module(f"layerreuse.{name}")
        assert [n for n in module.__all__ if not hasattr(module, n)] == [], name
