"""Every exported name resolves, so a deletion that leaves a stale export fails here, not at import."""

import importlib
import pkgutil

import pytest

import platoonkit

MODULES = [platoonkit] + [
    importlib.import_module(f"platoonkit.{info.name}") for info in pkgutil.iter_modules(platoonkit.__path__)
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_all_names_resolve(module):
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), "duplicate names in __all__"
    missing = [name for name in exported if not hasattr(module, name)]
    assert not missing, f"{module.__name__}.__all__ names undefined {missing}"
