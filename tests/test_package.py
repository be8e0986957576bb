import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import flavorcollapse
from flavorcollapse import errors

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


_ROOT = Path(__file__).resolve().parents[1]


def _reached_names() -> set[str]:
    """Every Name read, Attribute attr and imported module in the package, the scripts, the benchmark and C1-C11."""
    files = [
        *(_ROOT / "src" / "flavorcollapse").glob("*.py"),
        *(_ROOT / "scripts").glob("*.py"),
        *(_ROOT / "perfbench").glob("*.py"),
        _ROOT / "tests" / "test_acceptance.py",
    ]
    names = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):  # a binding reaches nothing
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and node.module:
                names.update(node.module.split("."))
    return names


def test_every_public_name_is_reached():
    # A public name that only its own unit test calls is surface no route,
    # script, benchmark or acceptance criterion needs.
    reached = _reached_names()
    public = {
        f"{module.__name__.rpartition('.')[2]}.{name}": name
        for module in _MODULES
        for name in getattr(module, "__all__", ())
    }
    public.update(
        (f"errors.{name}", name)
        for name, value in vars(errors).items()
        if isinstance(value, type) and issubclass(value, Exception) and value.__module__ == errors.__name__
    )
    unreached = [key for key, name in public.items() if name not in reached]
    assert sorted(unreached) == []


def test_no_module_uses_linalg():
    # The mass-basis algebra, the master propagator included, is closed-form,
    # so no LAPACK call creeps back into the package.
    users = set()
    for path in (_ROOT / "src" / "flavorcollapse").glob("*.py"):
        for top in ast.parse(path.read_text(), str(path)).body:
            name = getattr(top, "name", "<module>")
            for node in ast.walk(top):
                aliases = node.names if isinstance(node, (ast.Import, ast.ImportFrom)) else []
                if (
                    (isinstance(node, ast.Attribute) and node.attr == "linalg")
                    or (isinstance(node, ast.ImportFrom) and "linalg" in (node.module or ""))
                    or any("linalg" in alias.name for alias in aliases)
                ):
                    users.add(f"{path.stem}.{name}")
    assert users == set()
