import importlib
import pkgutil

import pytest

import flavorcollapse

_MODULES = [flavorcollapse] + [
    importlib.import_module(f"flavorcollapse.{info.name}")
    for info in pkgutil.iter_modules(flavorcollapse.__path__)
    if not info.name.startswith("_")
]


@pytest.mark.parametrize("module", _MODULES, ids=lambda m: m.__name__)
def test_every_export_resolves(module):
    # A name left in __all__ after its definition is removed breaks
    # ``from module import *`` only when someone runs it.
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []


def test_star_import_binds_every_export():
    namespace = {}
    exec("from flavorcollapse import *", namespace)
    assert set(flavorcollapse.__all__) <= namespace.keys()
