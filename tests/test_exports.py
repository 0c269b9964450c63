"""The export lists name only what exists.

Each module's __all__ names attributes of that module, and every name the
package's __init__ imports is in its module's __all__, so a deleted function
cannot linger in an export list or in `from wignerkit import ...`.
"""
import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import wignerkit

MODULES = [
    importlib.import_module(f"wignerkit.{info.name}")
    for info in pkgutil.iter_modules(wignerkit.__path__)
    if info.name != "__main__"  # importing it runs the CLI
]
INIT_IMPORTS = [
    (node.module, alias.name)
    for node in ast.parse(Path(wignerkit.__file__).read_text()).body
    if isinstance(node, ast.ImportFrom) and node.level == 1
    for alias in node.names
]


@pytest.mark.parametrize(
    "module", [m for m in MODULES if hasattr(m, "__all__")], ids=lambda m: m.__name__
)
def test_every_all_entry_is_an_attribute(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def test_init_imports_only_exported_names():
    assert INIT_IMPORTS
    missing = [
        f"{module}.{name}"
        for module, name in INIT_IMPORTS
        if name not in importlib.import_module(f"wignerkit.{module}").__all__
    ]
    assert missing == []
