"""The public export lists name only what exists, and removed aliases stay gone."""

import importlib
import pkgutil

import gsis


def test_every_exported_name_resolves():
    for name in gsis.__all__:
        assert hasattr(gsis, name), f"gsis.{name}"
    for info in pkgutil.iter_modules(gsis.__path__):
        module = importlib.import_module(f"gsis.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"gsis.{info.name}.{name}"


def test_removed_aliases_are_gone():
    assert not hasattr(gsis, "metric_for_kernel")
    assert not hasattr(gsis, "validate_shift")
    assert not hasattr(gsis.SpectralDecomposition, "gft")
    assert not hasattr(gsis.SpectralDecomposition, "igft")
