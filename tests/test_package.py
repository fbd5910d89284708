import importlib
import pkgutil

import pytest

import dsopforge

MODULES = ["dsopforge"] + [
    f"dsopforge.{m.name}" for m in pkgutil.iter_modules(dsopforge.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ lists undefined names {missing}"
